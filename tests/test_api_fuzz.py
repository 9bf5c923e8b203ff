"""Property-based fuzz of the IndexWriter facade: random
add/delete/update/commit/force-merge scripts vs a Python reference model
of the writer contract (delete-queue ordering, last-writer-wins update,
merge invariance of the live doc set)."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


def _text(rng_ints):
    return " ".join(WORDS[i % len(WORDS)] for i in rng_ints)


# one op per element: ("add", [word-idxs]) | ("delete", word-idx)
# | ("commit",) | ("merge",)
_op = st.one_of(
    st.tuples(st.just("add"),
              st.lists(st.integers(0, len(WORDS) - 1), min_size=1,
                       max_size=4)),
    st.tuples(st.just("delete"), st.integers(0, len(WORDS) - 1)),
    st.tuples(st.just("commit")),
    st.tuples(st.just("merge")),
)


class _Model:
    """The writer contract in plain Python: docs are (id, tokenset);
    a delete kills every doc added before it that contains the word."""

    def __init__(self):
        self.docs: list[tuple[int, set[str]]] = []  # committed + buffered
        self.dead: set[int] = set()
        self.buffered: list[set[str]] = []
        self.next_id = 0

    def add(self, toks: set[str]):
        self.buffered.append(toks)

    def delete(self, word: str):
        for i, toks in list(enumerate(self.buffered)):
            if word in toks:
                self.buffered[i] = None  # dropped pre-commit, no id
        self.buffered = [t for t in self.buffered if t is not None]
        for did, toks in self.docs:
            if word in toks:
                self.dead.add(did)

    def commit(self):
        for toks in self.buffered:
            self.docs.append((self.next_id, toks))
            self.next_id += 1
        self.buffered = []

    def live_with(self, word: str) -> set[int]:
        return {did for did, toks in self.docs
                if word in toks and did not in self.dead}


@settings(max_examples=8, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(script=st.lists(_op, min_size=3, max_size=14))
# every doc of the merge group is deleted: the merge leaves no shard
@example(script=[("add", [0]), ("commit",), ("add", [0]), ("commit",),
                 ("delete", 0), ("merge",)])
def test_writer_matches_model(ray_session, tmp_path_factory, script):
    from lucenenet_ray.api import IndexSearcher, IndexWriter
    from lucenenet_ray.index.merge_policy import TieredMergePolicy
    from lucenenet_ray.search.query import TermQuery

    root = str(tmp_path_factory.mktemp("fuzz") / "w")
    w = IndexWriter(root, n_buckets=2,
                    merge_policy=TieredMergePolicy(
                        max_merge_at_once_explicit=3))
    m = _Model()
    for op in script:
        if op[0] == "add":
            toks = [WORDS[i] for i in op[1]]
            w.add_document({"text": " ".join(toks)})
            m.add(set(toks))
        elif op[0] == "delete":
            w.delete_documents(WORDS[op[1]])
            m.delete(WORDS[op[1]])
        elif op[0] == "commit":
            w.commit()
            m.commit()
        else:  # merge: only meaningful on committed state
            w.commit()
            m.commit()
            if w.num_shards >= 2:
                w.force_merge(1)
    w.commit()
    m.commit()
    if not w.num_shards:
        # a merge drops a group whose every doc is deleted, so no shard
        # means no live doc (the model keeps dead docs in ``docs``)
        assert all(did in m.dead for did, _toks in m.docs), script
        return
    s = IndexSearcher(w.reader())
    for word in WORDS:
        got = set(s.search(TermQuery(term=word), n=1000).docs.tolist())
        assert got == m.live_with(word), (word, script)
