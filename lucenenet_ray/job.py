"""Cluster job entrypoint for ``ray job submit`` (north rule: run on fixed
N-node and 4N-node clusters; resumable from checkpoint with per-partition
lineage + metrics).

    ray job submit --working-dir . -- \
        python -m lucenenet_ray.job index \
            --input /shared/pages --output /shared/idx --shards 16

    ray job submit --working-dir . -- \
        python -m lucenenet_ray.job search \
            --index /shared/idx --query 'spark window' --k 10

The reference's operational analog is the Demo/Benchmark drivers
(``Lucene.Net.Demo/IndexFiles.cs:44-85``, ``SearchFiles.cs``) — one process
owning an IndexWriter; here the job is a Ray driver script and the "writer"
is the distributed build (SURVEY §3.1).

Modes
-----
``index``
    ``--shards 1`` (default): one distributed build — read → global
    keep-latest-per-url dedup → HTML extract → invert → salted term merge →
    bucketed compressed index (the flagship path, ``pipelines/flagship.py``).

    ``--shards N`` (N>1): the production 100-TB shape (docs/SCALE.md):
    stage 0 routes pages to N docID-hash shards (one hive-partitioned
    ``write_parquet`` pass, checkpointed with a ``_DONE`` marker); then
    ``build.build_index_incremental`` runs the same pages pipeline and
    inverter on each shard and checkpoints its pre-encode wire rows, and one
    reduce over all shards writes the index — the direct build's bytes. A
    rerun after a crash SKIPS the finished staging pass and every shard
    whose checkpoint marker exists, so at most one shard's map is lost.
    Routing is by ``doc_id % N`` (doc ids are md5(url)-derived), which makes
    shard docID sets disjoint *structurally* and keeps every copy of a url
    in one shard, so per-shard keep-latest dedup equals global dedup.

``search``
    Run queries (``--query`` once or ``--queries FILE`` one-per-line)
    through the warm actor-pool searcher; one JSON line per query.

Both modes print a final one-line JSON report (metrics ride the
``shard_lineage`` entries — per-shard build_sec / docs_per_sec /
checkpoint wire_bytes).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time


def _ensure_ray() -> None:
    """`ray job submit` runs this script on the cluster head with
    RAY_ADDRESS set; standalone runs default to a local session. Tests
    arrive with a session already up (conftest fixture) — never re-init."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "auto"),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )


def _stage_shards(input_path: str, staging: str, n_shards: int) -> None:
    """Stage 0: route pages to ``shard=K/`` hive partitions by
    ``doc_id % n_shards``. Checkpointed: the ``_DONE`` marker makes reruns
    free. One streaming pass — the only full-input read the sharded build
    does before the per-shard maps take over."""
    import pyarrow as pa
    import ray.data as rd

    from lucenenet_ray.sources.pages import doc_id_for_url

    done = os.path.join(staging, "_DONE")
    if os.path.exists(done):
        return

    def add_shard(batch: pa.Table) -> pa.Table:
        shards = [doc_id_for_url(u) % n_shards
                  for u in batch.column("url").to_pylist()]
        return batch.append_column("shard", pa.array(shards, type=pa.int32()))

    # ≥10k pages per write task: each shard dir gets a few files, not one
    # per input block. At 160k pages the default wrote 142 files per shard,
    # and planning each shard's read and dedup pre-pass over them cost
    # 1-2 s per shard on a 4-CPU host.
    (rd.read_parquet(input_path, columns=["url", "warc_ts", "html", "lang"])
       .map_batches(add_shard, batch_format="pyarrow")
       .write_parquet(staging, partition_cols=["shard"],
                      min_rows_per_file=10_000))
    with open(done + ".tmp", "w") as f:
        f.write("ok")
    os.replace(done + ".tmp", done)


def index_job(input_path: str, output_path: str, n_shards: int = 1,
              n_buckets: int = 32, n_hparts: int = 8) -> dict:
    """Build the index at ``output_path``; returns the report dict."""
    from lucenenet_ray.pipelines.flagship import (
        ID_SPACE_MAX, index_pages, page_docs)

    t0 = time.perf_counter()
    if n_shards <= 1:
        manifest = index_pages(input_path, output_path,
                               n_buckets=n_buckets, n_hparts=n_hparts,
                               overwrite=False)
        lineage = [{"shard": "all", "status": "built",
                    "n_docs": manifest["n_docs"]}]
    else:
        from lucenenet_ray.index.build import (IndexConfig,
                                               build_index_incremental)

        staging = os.path.join(output_path, "_staging")
        _stage_shards(input_path, staging, n_shards)
        shards = [(f"shard{k:04d}",
                   functools.partial(page_docs,
                                     os.path.join(staging, f"shard={k}")))
                  for k in range(n_shards)
                  if os.path.isdir(os.path.join(staging, f"shard={k}"))]
        cfg = IndexConfig(index_path="", id_min=0, id_max=ID_SPACE_MAX,
                          n_buckets=n_buckets, n_hparts=n_hparts,
                          lang_col="lang")
        manifest = build_index_incremental(shards, output_path, cfg,
                                           text_col="text", id_col="doc_id")
        lineage = manifest["shard_lineage"]

    wall = time.perf_counter() - t0
    return {
        "job": "index",
        "output": output_path,
        "n_docs": manifest["n_docs"],
        "wall_sec": round(wall, 3),
        "docs_per_sec": round(manifest["n_docs"] / wall, 1) if wall else None,
        "n_shards": n_shards,
        "shard_lineage": lineage,
    }


def search_job(index_path: str, queries: list[str], k: int = 10,
               n_actors: int = 8) -> list[dict]:
    from lucenenet_ray.search.query import parse_query
    from lucenenet_ray.search.serve import DistributedSearcher

    dsrch = DistributedSearcher(index_path, n_actors=n_actors)
    out = []
    try:
        for q in queries:
            t0 = time.perf_counter()
            td = dsrch.search(parse_query(q), k=k)
            out.append({
                "query": q,
                "total_hits": td.total_hits,
                "latency_ms": round((time.perf_counter() - t0) * 1000, 3),
                "hits": [{"doc": d, "score": s} for d, s in td.to_list()],
            })
    finally:
        dsrch.shutdown()
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m lucenenet_ray.job",
        description="ray-job-submit entrypoint: distributed index build / "
                    "query serving")
    sub = p.add_subparsers(dest="cmd", required=True)

    pi = sub.add_parser("index", help="build an index (resumable)")
    pi.add_argument("--input", required=True, help="pages parquet dir/file")
    pi.add_argument("--output", required=True, help="index output dir")
    pi.add_argument("--shards", type=int, default=1)
    pi.add_argument("--buckets", type=int, default=32)
    pi.add_argument("--hparts", type=int, default=8)

    ps = sub.add_parser("search", help="query an index")
    ps.add_argument("--index", required=True)
    ps.add_argument("--query", action="append", default=[])
    ps.add_argument("--queries", help="file of queries, one per line")
    ps.add_argument("--k", type=int, default=10)
    ps.add_argument("--actors", type=int, default=8)

    args = p.parse_args(argv)
    _ensure_ray()

    if args.cmd == "index":
        report = index_job(args.input, args.output, n_shards=args.shards,
                           n_buckets=args.buckets, n_hparts=args.hparts)
        print(json.dumps(report))
    else:
        qs = list(args.query)
        if args.queries:
            with open(args.queries) as f:
                qs += [line.strip() for line in f if line.strip()]
        if not qs:
            p.error("search needs --query or --queries")
        for row in search_job(args.index, qs, k=args.k,
                              n_actors=args.actors):
            print(json.dumps(row))
    return 0


if __name__ == "__main__":
    import ray

    rc = main()
    ray.shutdown()
    sys.exit(rc)
