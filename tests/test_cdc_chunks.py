"""Content-defined chunking dedup (ops/cdc_chunks.py)."""

import pyarrow as pa
import pytest

from lucenenet_ray.ops.cdc_chunks import (CDC_D, CDC_W, cdc_dedup_stats,
                                          doc_chunks)
from lucenenet_ray.ops.neardup import md5_int31


def _ds(texts, parallelism=3):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": list(range(len(texts))), "text": texts})) \
        .repartition(parallelism)


def test_chunks_partition_text():
    txt = "x" * 500
    spans = doc_chunks(txt)
    # spans tile [1, len] exactly
    assert spans[0][0] == 1 and spans[-1][1] == 500
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        assert a2 == b1 + 1
    # every internal boundary satisfies the cut rule
    for a, b in spans[:-1]:
        assert md5_int31(txt[b - CDC_W:b]) % CDC_D == 0


def test_offset_invariance():
    """The CDC property: shifting content does not change interior
    chunks — identical suffixes chunk identically past the first cut."""
    base = "the quick brown fox jumps over the lazy dog " * 30
    shifted = "PREFIX-123 " + base
    c1 = {base[a - 1:b] for a, b in doc_chunks(base)}
    c2 = {shifted[a - 1:b] for a, b in doc_chunks(shifted)}
    assert len(c1 & c2) >= len(c1) - 2  # all but the head chunk survive


def test_short_and_empty_docs():
    assert doc_chunks("") == []
    assert doc_chunks("abc") == [(1, 3)]  # shorter than w: one chunk


def test_dedup_stats(ray_session):
    a = "alpha beta gamma delta " * 20
    b = "totally different content here " * 20
    t = cdc_dedup_stats(_ds([a, a, b, ""], parallelism=4))
    rows = {d: (n, nd, db) for d, n, nd, db in zip(
        t.column("doc_id").to_pylist(),
        t.column("n_chunks").to_pylist(),
        t.column("n_dup_chunks").to_pylist(),
        t.column("dup_bytes").to_pylist())}
    # exact dup docs: every chunk duplicated, full byte coverage
    assert rows[0][1] == rows[0][0] and rows[0][2] == len(a)
    assert rows[1] == rows[0]
    # repeated phrase inside doc 2 may self-dup, but doc 3 is empty
    assert rows[3] == (0, 0, 0)
    assert t.column("doc_id").to_pylist() == [0, 1, 2, 3]


def test_vocab_growth(ray_session):
    from lucenenet_ray.ops.textstats import vocab_growth

    texts = ["a b", "a c", "d", "a", "e f g", "a", "a", "h", "", "i"]
    t = vocab_growth(_ds(texts, parallelism=4))
    rows = dict(zip(t.column("n_docs").to_pylist(),
                    t.column("vocab").to_pylist()))
    # n=10: checkpoints 1, 2, 5, 10
    assert rows == {1: 2,          # doc0: {a,b}
                    2: 3,          # + doc1's c
                    5: 7,          # + d, e, f, g
                    10: 9}         # + h, i ('' never counts)


def test_dist1_cases():
    from lucenenet_ray.ops.symspell import _dist1

    assert _dist1("cat", "cut")            # substitution
    assert _dist1("cat", "cart")           # insertion
    assert _dist1("cart", "cat")           # deletion
    assert not _dist1("cat", "cat")        # identical
    assert not _dist1("cat", "dog")        # distance 3
    assert not _dist1("abc", "bca")        # rotation = distance 2
    assert not _dist1("ab", "abcd")        # length diff 2


def test_spell_variant_pairs(ray_session):
    from lucenenet_ray.ops.symspell import spell_variant_pairs

    texts = ["merge merge merg table",     # deletion neighbor
             "batch bxtch window",         # substitution neighbor
             "alpha beta gamma"]           # no neighbors
    t = spell_variant_pairs(_ds(texts, parallelism=3), k=10)
    pairs = {(a, b): f for a, b, f in zip(
        t.column("term_a").to_pylist(),
        t.column("term_b").to_pylist(),
        t.column("freq_sum").to_pylist())}
    assert pairs[("merg", "merge")] == 3   # 1 + 2 occurrences
    assert pairs[("batch", "bxtch")] == 2
    assert all({"alpha", "beta", "gamma"}.isdisjoint({a, b})
               for a, b in pairs)


def test_kcenter_greedy_bruteforce(ray_session):
    import numpy as np
    import ray.data as rd

    from lucenenet_ray.ops.coreset import kcenter_greedy

    rng = [(i, [float((i * 7 + j * 13) % 29) - 14.0 for j in range(8)])
           for i in range(30)]
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array([r[0] for r in rng], type=pa.int64()),
        "embedding": pa.array([r[1] for r in rng],
                              type=pa.list_(pa.float64())),
    })).repartition(4)
    got = kcenter_greedy(ds, rounds=5)

    m = np.asarray([r[1] for r in rng], dtype=np.float64)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    sel = [0]
    for _ in range(4):
        ms = (mn @ mn[sel].T).max(axis=1)
        cand = [(ms[i], i) for i in range(30) if i not in sel]
        cand.sort()
        sel.append(cand[0][1])
    assert got.column("vec_id").to_pylist() == sel
    assert got.column("round").to_pylist() == [1, 2, 3, 4, 5]


def test_mmr_diversifies(ray_session, documents_index):
    import ray.data as rd

    from lucenenet_ray.ops.mmr import mmr_rerank
    from lucenenet_ray.search.query import parse_query
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import search

    from tests.conftest import SF_DIR
    import os

    r = IndexReader(documents_index[0])
    emb = rd.read_parquet(os.path.join(SF_DIR, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    q = parse_query("spark window")
    t = mmr_rerank(r, q, emb, n_cand=15, rounds=8)
    sel = t.column("doc_id").to_pylist()
    assert len(sel) == 8 and len(set(sel)) == 8
    # seed = BM25 rank 1; every selection is from the candidate set
    td = search(r, q, k=15)
    cand = [d for d, _s in td.to_list()]
    assert sel[0] == cand[0]
    assert set(sel) <= set(cand)
    # diversity: MMR must deviate from pure BM25 order beyond the seed
    assert sel != cand[:8]


def test_weak_labels(ray_session):
    from lucenenet_ray.ops.weaklabel import label_docs

    texts = ["spark merge stuff",        # 2 votes class 1
             "window things",            # 1 vote class 2
             "spark window",             # 1-1 tie -> abstain
             "nothing relevant here",    # all abstain
             "spark merge window"]       # 2 vs 1 -> class 1
    t = label_docs(_ds(texts, parallelism=3))
    rows = list(zip(t.column("doc_id").to_pylist(),
                    t.column("label").to_pylist(),
                    t.column("n_votes").to_pylist()))
    assert rows == [(0, 1, 2), (1, 2, 1), (4, 1, 2)]


def test_rocchio_expansion(ray_session, documents_index):
    from lucenenet_ray.ops.rocchio import rocchio_expand
    from lucenenet_ray.search.query import parse_query
    from lucenenet_ray.search.reader import IndexReader

    import os

    import ray.data as rd

    from tests.conftest import SF_DIR

    r = IndexReader(documents_index[0])
    docs = rd.read_parquet(os.path.join(SF_DIR, "documents.parquet"),
                           columns=["doc_id", "text"])
    t = rocchio_expand(docs, r, parse_query("spark window"),
                       ["spark", "window"], k=10, m=10)
    terms = t.column("term").to_pylist()
    assert len(terms) == 10 and len(set(terms)) == 10
    # original query terms never expand
    assert "spark" not in terms and "window" not in terms
    # every expansion term really occurs in the feedback docs
    assert all(tf > 0 for tf in t.column("sum_tf").to_pylist())
    assert all(df > 0 for df in t.column("df").to_pylist())
