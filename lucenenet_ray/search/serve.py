"""Query-serving actor pool: pinned index partitions + scatter/gather search.

The SearcherManager / IndexSearcher-with-executor analog (SURVEY §2.3, §3.2):
each ``QueryServer`` actor pins a disjoint set of doc-range buckets (postings
row groups + norms read once, reused across queries); the driver plans the
query ONCE (global stats → weights) and scatters the plan; per-bucket top-k
come back and merge with TopDocs.Merge semantics. Latency scales with the slowest
actor, throughput with the pool size.

On a real cluster each actor would be scheduled near its shard's storage;
``refresh()`` re-reads the manifest generation and atomically swaps bucket
handles (the SearcherManager swap-on-refresh pattern, SearcherManager.cs:61).
"""

from __future__ import annotations

import numpy as np

from lucenenet_ray.search.query import Query
from lucenenet_ray.search.reader import IndexReader
from lucenenet_ray.search.searcher import (
    QueryPlan,
    TopDocs,
    _topk,
    plan_query,
    score_bucket,
)


class QueryServer:
    """One actor: serves a subset of buckets. Plain class — wrap with
    ``ray.remote(QueryServer)`` (the library never calls ray.init)."""

    def __init__(self, index_path: str, bucket_ids: list[int]):
        self.reader = IndexReader(index_path)
        self.bucket_ids = list(bucket_ids)

    def warm(self) -> int:
        """Read every postings row group and the norms of the pinned buckets;
        returns #term rows read. Builds no per-term object: a chunk is made
        when a query looks its term up."""
        n = 0
        for b in self.bucket_ids:
            bd = self.reader.bucket(b)
            n += bd.pin()
            bd.norms()
        return n

    def refresh(self) -> None:
        """Reload the manifest + drop caches (NRT swap analog)."""
        path = self.reader.index_path
        self.reader = IndexReader(path)

    def maybe_refresh(self, warm: bool = False) -> bool:
        """SearcherManager.MaybeRefresh (SearcherManager.cs:61 /
        ReferenceManager.cs:170): compare the commit-point version stamp and
        swap in a fresh reader ONLY if the index changed. Returns True iff a
        new reader was opened. In-flight ``search_plan`` calls on the actor
        finished before this ran (actor mailbox is serial), so the swap is
        atomic from the caller's view — the acquire/release discipline of
        ReferenceManager collapses to actor message ordering here."""
        old = self.reader.version()
        path = self.reader.index_path
        new_reader = IndexReader(path)
        if new_reader.version() == old:
            return False
        self.reader = new_reader
        if warm:
            self.warm()
        return True

    def search_plan(self, plan: QueryPlan, k: int, prune: bool = True):
        """Score this actor's buckets → (docs, scores, total_hits)."""
        all_d, all_s, total = [], [], 0
        for b in self.bucket_ids:
            d, s, t = score_bucket(self.reader.bucket(b), plan, k, prune=prune)
            all_d.append(d)
            all_s.append(s)
            total += t
        docs = np.concatenate(all_d) if all_d else np.empty(0, np.int64)
        scores = np.concatenate(all_s) if all_s else np.empty(0, np.float32)
        d, s = _topk(docs, scores, k)
        return d, s, total


class DistributedSearcher:
    """Driver-side handle: actor pool + plan/scatter/merge per query."""

    def __init__(self, index_path: str, n_actors: int = 4, warm: bool = True):
        import ray

        self.reader = IndexReader(index_path)  # driver copy: stats + term dict
        buckets = self.reader.bucket_ids
        n_actors = max(1, min(n_actors, len(buckets)))
        shards = [buckets[i::n_actors] for i in range(n_actors)]
        actor_cls = ray.remote(QueryServer)
        self.actors = [
            actor_cls.remote(index_path, shard) for shard in shards if shard
        ]
        if warm:
            ray.get([a.warm.remote() for a in self.actors])

    def search(self, query: Query, k: int = 10, prune: bool = True) -> TopDocs:
        import ray

        plan = plan_query(self.reader, query)
        parts = ray.get(
            [a.search_plan.remote(plan, k, prune) for a in self.actors]
        )
        docs = np.concatenate([p[0] for p in parts])
        scores = np.concatenate([p[1] for p in parts])
        total = sum(p[2] for p in parts)
        d, s = _topk(docs, scores, k)
        return TopDocs(docs=d, scores=s, total_hits=total,
                       total_hits_relation="gte" if prune else "eq")

    def maybe_refresh(self, warm: bool = False) -> bool:
        """Refresh the driver's stats/term-dict reader and every actor if the
        commit point moved (tombstone append, docvalues update, or a rebuilt
        manifest). Returns True iff anything was swapped."""
        import ray

        old = self.reader.version()
        new_reader = IndexReader(self.reader.index_path)
        changed = new_reader.version() != old
        if changed:
            self.reader = new_reader
        flags = ray.get(
            [a.maybe_refresh.remote(warm) for a in self.actors]
        )
        return changed or any(flags)

    def shutdown(self) -> None:
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []
