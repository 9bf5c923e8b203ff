"""Rank/score-identity vs the naive oracle + CheckIndex-style invariants +
determinism across parallelism (SURVEY §5.4-5.6, FIXTURES §5-§7)."""

import glob
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucenenet_ray.search.query import (
    BooleanClause,
    BooleanQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    Occur,
    PhraseQuery,
    PrefixQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    parse_query,
)
from lucenenet_ray.search.reader import IndexReader
from lucenenet_ray.search.searcher import search

from oracle import NaiveBM25


@pytest.fixture(scope="module")
def oracle(corpus):
    _docs, _texts, toks = corpus
    return NaiveBM25(toks)


@pytest.fixture(scope="module")
def reader(documents_index):
    path, _m = documents_index
    return IndexReader(path)


def _or_query(terms):
    return BooleanQuery(
        clauses=tuple(BooleanClause(Occur.SHOULD, TermQuery(term=t)) for t in terms)
    )


def _and_query(terms):
    return BooleanQuery(
        clauses=tuple(BooleanClause(Occur.MUST, TermQuery(term=t)) for t in terms)
    )


TERM_QUERIES = [
    (["spark"], "or"),
    (["data"], "or"),  # head term
    (["dup"], "or"),  # rare term
    (["spark", "window"], "or"),
    (["batch", "merge", "vector", "dup"], "or"),
    (["spark", "nosuchterm"], "or"),  # df=0 clause contributes nothing
    (["spark", "window"], "and"),
    (["data", "line", "key"], "and"),
]


@pytest.mark.parametrize("terms,mode", TERM_QUERIES)
@pytest.mark.parametrize("k", [1, 10, 100])
def test_rank_score_identity(reader, oracle, terms, mode, k):
    q = _or_query(terms) if mode == "or" else _and_query(terms)
    td = search(reader, q, k=k)
    expected = oracle.search_terms(terms, k=k, mode=mode)
    got = [(int(d), s) for d, s in zip(td.docs, td.scores)]
    want = [(int(d), s) for d, s in expected]
    assert [g[0] for g in got] == [w[0] for w in want], "docID ranking differs"
    for (gd, gs), (wd, ws) in zip(got, want):
        assert np.float32(gs) == np.float32(ws), f"score differs for doc {gd}"


@pytest.mark.parametrize("terms,mode", TERM_QUERIES)
def test_pruned_identical(reader, terms, mode):
    """Block-max pruning must be lossless (SURVEY §7.4)."""
    q = _or_query(terms) if mode == "or" else _and_query(terms)
    a = search(reader, q, k=10, prune=False)
    b = search(reader, q, k=10, prune=True)
    assert np.array_equal(a.docs, b.docs)
    assert np.array_equal(a.scores, b.scores)


PHRASES = [
    [("batch", 0), ("merge", 1)],
    [("fast", 0), ("key", 1)],
    [("data", 0), ("row", 1), ("column", 2)],
    [("spark", 0), ("zzz", 1)],  # no match
]


@pytest.mark.parametrize("tp", PHRASES)
def test_phrase_identity(reader, oracle, tp):
    td = search(reader, PhraseQuery(terms=tuple(tp)), k=10)
    expected = oracle.search_phrase(tp, k=10)
    got = [(int(d), np.float32(s)) for d, s in zip(td.docs, td.scores)]
    want = [(int(d), np.float32(s)) for d, s in expected]
    assert got == want


def test_match_all(reader, corpus):
    docs, _t, _k = corpus
    td = search(reader, MatchAllDocsQuery(), k=len(docs) + 10)
    assert td.total_hits == len(docs)
    assert set(td.docs.tolist()) == set(docs)


def test_must_not(reader, oracle):
    q = BooleanQuery(
        clauses=(
            BooleanClause(Occur.SHOULD, TermQuery(term="spark")),
            BooleanClause(Occur.MUST_NOT, TermQuery(term="window")),
        )
    )
    td = search(reader, q, k=500)
    for d in td.docs.tolist():
        assert "spark" in oracle.toks[d]
        assert "window" not in oracle.toks[d]
    expected = [
        d for d in oracle.toks
        if "spark" in oracle.toks[d] and "window" not in oracle.toks[d]
    ]
    assert td.total_hits == len(expected)


def test_multiterm_rewrites(reader, oracle):
    # prefix (constant score): every matching doc scores 1.0
    td = search(reader, PrefixQuery(prefix="sp"), k=1000)
    pref_terms = {t for t in oracle.df if t.startswith("sp")}
    expected = {d for d, v in oracle.toks.items() if pref_terms & set(v)}
    assert set(td.docs.tolist()) == expected
    assert np.all(td.scores == np.float32(1.0))
    # wildcard
    td2 = search(reader, WildcardQuery(pattern="s?ark"), k=1000)
    assert set(td2.docs.tolist()) == {d for d, v in oracle.toks.items() if "spark" in v}
    # term range
    td3 = search(reader, TermRangeQuery(lower="spark", upper="spark"), k=1000)
    assert set(td3.docs.tolist()) == {d for d, v in oracle.toks.items() if "spark" in v}
    # fuzzy (scoring rewrite): "sparkk"~ matches spark within 2 edits
    td4 = search(reader, FuzzyQuery(term="sparkk"), k=10)
    assert td4.total_hits > 0


def test_parse_query_end_to_end(reader):
    td = search(reader, parse_query("spark AND window"), k=10)
    td2 = search(reader, _and_query(["spark", "window"]), k=10)
    assert np.array_equal(td.docs, td2.docs)
    assert search(reader, parse_query("the of to"), k=10).total_hits == 0


# --------------------------------------------------------------------------
# CheckIndex-style invariants (FIXTURES §6; CheckIndex.cs:62)


def test_index_invariants(documents_index, corpus):
    path, manifest = documents_index
    _docs, _texts, toks = corpus
    from lucenenet_ray.index.codec import decode_docs_freqs, decode_positions

    total_terms_df = {}
    n_docs_seen = 0
    for f in sorted(glob.glob(os.path.join(path, "postings", "*.parquet"))):
        t = pq.read_table(f)
        terms = t.column("term").to_pylist()
        assert terms == sorted(terms), "term dict must be sorted"
        assert len(set(terms)) == len(terms), "terms must be unique per bucket"
        for i in range(t.num_rows):
            df = t.column("df")[i].as_py()
            docs, freqs = decode_docs_freqs(
                t.column("doc_bytes")[i].as_py(),
                t.column("freq_bytes")[i].as_py(), df,
                t.column("block_doc_off")[i].values.to_numpy(),
                t.column("block_freq_off")[i].values.to_numpy())
            assert np.all(np.diff(docs) > 0), "doc deltas must be positive"
            assert len(docs) == df == len(freqs)
            assert int(freqs.sum()) == t.column("ttf")[i].as_py()
            positions = decode_positions(t.column("pos_bytes")[i].as_py(), freqs)
            for p, fr in zip(positions, freqs):
                assert len(p) == fr
                assert np.all(np.diff(p) > 0), "positions strictly increasing"
            blast = t.column("block_last_doc")[i].as_py()
            assert blast[-1] == docs[-1]
            term = terms[i]
            total_terms_df[term] = total_terms_df.get(term, 0) + df
    for f in sorted(glob.glob(os.path.join(path, "norms", "*.parquet"))):
        t = pq.read_table(f)
        ids = t.column("doc_id").to_numpy()
        assert np.all(np.diff(ids) > 0)
        n_docs_seen += len(ids)
    assert n_docs_seen == manifest["n_docs"] == len(toks)
    assert manifest["sum_total_term_freq"] == sum(len(v) for v in toks.values())
    # global df equals oracle df for every term
    from collections import Counter

    odf = Counter()
    for v in toks.values():
        for term in set(v):
            odf[term] += 1
    from lucenenet_ray.search.query import FIELD_SEP

    body_df = {t: v for t, v in total_terms_df.items() if FIELD_SEP not in t}
    assert body_df == dict(odf)
    # the keyword `source` field is indexed alongside body (multi-field)
    field_df = {t: v for t, v in total_terms_df.items() if FIELD_SEP in t}
    assert field_df and all(t.startswith("source" + FIELD_SEP) for t in field_df)
    assert sum(field_df.values()) == manifest["n_docs"]  # one source per doc


def test_determinism_across_parallelism(ray_session, tmp_path, documents_index):
    """Same corpus, different batch size / bucket partitioning parameters that
    do NOT change logical layout (batch_size) → byte-identical
    index files (SURVEY §4 determinism; FIXTURES §7)."""
    import filecmp

    from lucenenet_ray.index.build import IndexConfig, build_index
    import ray.data as rd

    base_path, _ = documents_index
    p2 = str(tmp_path / "idx2")
    ds = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text", "source"],
    )
    cfg = IndexConfig(index_path=p2, id_min=0, id_max=499, n_buckets=4,
                      batch_size=137,  # different execution shape
                      extra_fields=(("source", "source", False),),
                      payloads="offset")
    build_index(ds, cfg)
    for sub in ("postings", "norms"):
        a_files = sorted(os.listdir(os.path.join(base_path, sub)))
        b_files = sorted(os.listdir(os.path.join(p2, sub)))
        assert a_files == b_files
        for fn in a_files:
            assert filecmp.cmp(
                os.path.join(base_path, sub, fn), os.path.join(p2, sub, fn),
                shallow=False,
            ), f"{sub}/{fn} differs across execution shapes"


def test_exchange_paths_write_equal_bytes(ray_session, tmp_path, monkeypatch):
    """The exchange sized from its bytes (one block → one reducer, no
    split) and the capped exchange (more than SPLIT_GROUP blocks → split
    tasks and the full reducer count) write byte-identical postings and
    norms for the same docs."""
    import filecmp

    import ray.data as rd

    from lucenenet_ray.index import build
    from lucenenet_ray.index.build import SPLIT_GROUP, IndexConfig, build_index

    parts = []
    rule = build.exchange_parts

    def spy(nbytes, n_groups, cpus):
        parts.append(rule(nbytes, n_groups, cpus))
        return parts[-1]

    monkeypatch.setattr(build, "exchange_parts", spy)
    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text", "source"])
    paths = []
    for name, shaped in (("one", ds.repartition(1)),
                         ("many", ds.repartition(3 * SPLIT_GROUP))):
        paths.append(str(tmp_path / name))
        build_index(shaped, IndexConfig(
            index_path=paths[-1], id_min=0, id_max=499, n_buckets=4,
            batch_size=20,  # one map task per input block
            extra_fields=(("source", "source", False),), payloads="offset"))
    assert parts == [1, 4 * 8], parts  # sized path, then the capped path
    for sub in ("postings", "norms"):
        a_files = sorted(os.listdir(os.path.join(paths[0], sub)))
        assert a_files == sorted(os.listdir(os.path.join(paths[1], sub)))
        assert a_files
        for fn in a_files:
            assert filecmp.cmp(os.path.join(paths[0], sub, fn),
                               os.path.join(paths[1], sub, fn),
                               shallow=False), f"{sub}/{fn} differs"


def test_exchange_parts_sizing():
    """One reduce task per EXCHANGE_PART_BYTES, at least one, never more
    than the groups or the cluster cap, monotone in the bytes."""
    from lucenenet_ray.index.build import EXCHANGE_PART_BYTES as B
    from lucenenet_ray.index.build import exchange_parts

    assert exchange_parts(0, 128, 4) == 1  # an empty stream
    assert exchange_parts(890_000, 128, 4) == 1  # build_zipf's wire bytes
    assert exchange_parts(B, 128, 4) == 1
    assert exchange_parts(B + 1, 128, 4) == 2
    for cpus, cap in ((4, 128), (32, 128), (64, 256)):
        assert exchange_parts(10**15, 4096, cpus) == cap
        assert exchange_parts(cap * B, 4096, cpus) == cap
        assert exchange_parts(cap * B + 1, 4096, cpus) == cap
    for n_groups in (1, 4, 32, 128):
        for cpus in (4, 32):
            sizes = [0, 1] + [int(B * 2 ** (e / 2)) for e in range(-4, 40)]
            got = [exchange_parts(n, n_groups, cpus) for n in sizes]
            assert max(got) == n_groups
            assert min(got) == 1
            assert got == sorted(got)


def test_dismax(reader, oracle):
    """DisjunctionMaxScorer: max + tie*(sum-max), float32."""
    from lucenenet_ray.search.query import DisjunctionMaxQuery

    for tie in (0.0, 0.3):
        q = DisjunctionMaxQuery(
            disjuncts=(TermQuery(term="spark"), TermQuery(term="window")),
            tie_breaker=tie,
        )
        td = search(reader, q, k=10)
        # naive: per-doc max/sum of term scores in float32
        exp = []
        for d in oracle.toks:
            scores = []
            for t in ("spark", "window"):
                f = oracle.tf[d].get(t, 0)
                if f:
                    scores.append(oracle._score_one(oracle.wv(t), f, d))
            if not scores:
                continue
            smax = max(scores)
            ssum = np.float32(0.0)
            for s in scores:
                ssum = np.float32(ssum + s)
            exp.append((d, np.float32(smax + np.float32(tie) * (ssum - smax))))
        exp.sort(key=lambda x: (-x[1], x[0]))
        got = [(int(d), np.float32(s)) for d, s in zip(td.docs, td.scores)]
        assert got == [(int(d), np.float32(s)) for d, s in exp[:10]]


def test_search_after_paging(reader):
    """SearchAfter deep paging: page2 = hits strictly after page1's last."""
    from lucenenet_ray.search.searcher import search as _search

    q = _or_query(["spark", "window"])
    full = _search(reader, q, k=20)
    page1 = _search(reader, q, k=10)
    anchor = (float(page1.scores[-1]), int(page1.docs[-1]))
    page2 = _search(reader, q, k=10, after=anchor)
    assert np.array_equal(
        np.concatenate([page1.docs, page2.docs]), full.docs
    )
    assert np.array_equal(
        np.concatenate([page1.scores, page2.scores]), full.scores
    )


def test_rescorer(reader):
    """QueryRescorer: combined = first + w*second, re-ranked."""
    from lucenenet_ray.search.searcher import rescore
    from lucenenet_ray.search.searcher import search as _search

    q1 = _or_query(["spark"])
    first = _search(reader, q1, k=20)
    q2 = _or_query(["window"])
    out = rescore(reader, first, q2, weight=2.0, k=10)
    assert len(out.docs) == 10
    assert set(out.docs.tolist()) <= set(first.docs.tolist())
    # scores only ever increase (second-pass scores are positive)
    first_map = dict(zip(first.docs.tolist(), first.scores.tolist()))
    for d, s in zip(out.docs.tolist(), out.scores.tolist()):
        assert s >= first_map[d] - 1e-6


def test_common_terms_query(reader, oracle):
    """CommonTermsQuery: high-df terms demoted to optional; with MUST
    low-freq occur, docs must match the rare terms."""
    from lucenenet_ray.search.query import common_terms_query

    stats = reader.term_stats(["data", "dup"])
    q = common_terms_query(
        ["data", "dup"], lambda t: stats.get(t, (0, 0))[0], reader.num_docs,
        max_term_frequency=0.5, low_freq_occur=Occur.MUST,
    )
    # "data" is a head term (df > 50%), "dup" is rare -> MUST
    td = search(reader, q, k=500)
    for d in td.docs.tolist():
        assert "dup" in oracle.toks[d]


def test_count_matches(reader, oracle):
    from lucenenet_ray.search.searcher import count_matches

    n = count_matches(reader, _or_query(["spark", "window"]))
    expected = sum(
        1 for v in oracle.toks.values() if "spark" in v or "window" in v
    )
    assert n == expected


def test_more_like_this(reader, corpus):
    from lucenenet_ray.ops.mlt import more_like_this_query
    from lucenenet_ray.search.query import BooleanQuery as BQ

    docs, texts, toks = corpus
    q = more_like_this_query(reader, texts[0])
    assert isinstance(q, BQ) and len(q.clauses) > 0
    td = search(reader, q, k=10)
    # the source document itself should rank (its own terms OR'd)
    assert docs[0] in td.docs.tolist()


def test_min_should_match(reader, oracle):
    """MinShouldMatchSumScorer: ≥ msm optional clauses must match; the score
    still sums every matching clause."""
    terms = ["spark", "window", "dup"]
    q = BooleanQuery(
        clauses=tuple(BooleanClause(Occur.SHOULD, TermQuery(term=t)) for t in terms),
        min_should_match=2,
    )
    td = search(reader, q, k=500)
    for d in td.docs.tolist():
        n = sum(1 for t in terms if t in oracle.toks[d])
        assert n >= 2
    expected = {
        d for d, v in oracle.toks.items()
        if sum(1 for t in terms if t in v) >= 2
    }
    assert set(td.docs.tolist()) == expected
    # score == the plain OR score for those docs
    td_or = search(reader, _or_query(terms), k=500)
    or_map = dict(zip(td_or.docs.tolist(), td_or.scores.tolist()))
    for d, s in zip(td.docs.tolist(), td.scores.tolist()):
        assert s == or_map[d]


def test_check_index_clean_and_detects_corruption(documents_index, tmp_path):
    import shutil as _sh

    from lucenenet_ray.index.check import CorruptIndexError, check_index

    path, _m = documents_index
    stats = check_index(path)
    assert stats["status"] == "clean" and stats["n_docs"] == 500
    # corrupt a postings file → must be detected
    import glob as _g
    import pyarrow.parquet as _pq
    import pyarrow as _pa
    import pytest as _pt

    bad = str(tmp_path / "badidx")
    _sh.copytree(path, bad)
    f = sorted(_g.glob(bad + "/postings/*.parquet"))[0]
    t = _pq.read_table(f)
    dfcol = t.column("df").to_pylist()
    dfcol[0] = dfcol[0] + 1  # lie about df
    t = t.set_column(t.schema.get_field_index("df"), "df",
                     _pa.array(dfcol, type=_pa.int64()))
    _pq.write_table(t, f)
    with _pt.raises(CorruptIndexError):
        check_index(bad)


def test_check_index_detects_bad_block_offsets(ray_session, tmp_path):
    """A bad ``block_doc_off`` entry of a multi-block term (moved by a
    byte, pointing past the doc stream, or missing) is a CorruptIndexError,
    not an IndexError out of the decoder."""
    import shutil

    import pyarrow as pa
    import ray.data as rd

    from lucenenet_ray.index.build import IndexConfig, build_index
    from lucenenet_ray.index.check import CorruptIndexError, check_index

    ids = list(range(300))
    good = str(tmp_path / "good")
    build_index(rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": [f"spark window t{i % 4}" for i in ids]})),
        IndexConfig(index_path=good, id_min=0, id_max=299, n_buckets=1,
                    n_hparts=1))
    assert check_index(good)["status"] == "clean"
    f = os.path.join("postings", "bucket=00000_h00.parquet")
    t = pq.read_table(os.path.join(good, f))
    i = t.column("term").to_pylist().index("spark")
    stream_len = len(t.column("doc_bytes")[i].as_py())

    def shift(o):
        o[1] += 1

    def past_end(o):
        o[1] = stream_len + 1000

    def drop(o):
        o.pop()

    for corrupt in (shift, past_end, drop):
        offs = t.column("block_doc_off").to_pylist()
        assert len(offs[i]) == 3
        corrupt(offs[i])
        bad = str(tmp_path / corrupt.__name__)
        shutil.copytree(good, bad)
        pq.write_table(t.set_column(
            t.schema.get_field_index("block_doc_off"), "block_doc_off",
            pa.array(offs, type=pa.list_(pa.int64()))), os.path.join(bad, f))
        with pytest.raises(CorruptIndexError):
            check_index(bad)


def test_highlighter():
    from lucenenet_ray.ops.highlight import best_fragment

    text = "alpha beta gamma spark window delta epsilon " * 3
    frag, hits = best_fragment(text, {"spark", "window"}, window=6)
    assert "<b>spark</b>" in frag and "<b>window</b>" in frag
    assert hits >= 2
    frag2, hits2 = best_fragment("no match here", {"zz"}, window=4)
    assert hits2 == 0 and "<b>" not in frag2
    assert best_fragment("", {"x"}) == ("", 0)


def test_reducer_bytes_bounded_under_skew():
    """The reducer-sizing rule (build.py _hash_shuffle_merge_write): because
    `bucket` partitions by docID range and `hpart` salts terms, the max
    (bucket, hpart) group bytes shrink ~linearly as n_buckets grows, EVEN
    with one zipf head term owning most of the postings — so 100x corpus
    needs only proportionally more buckets, never a bigger reducer."""
    import numpy as np

    from lucenenet_ray.index.build import IndexConfig, term_hpart

    rng = np.random.default_rng(3)
    n_docs = 40_000
    # zipf vocabulary: term 0 is a head term in ~half the postings
    n_postings = 200_000
    term_ids = np.minimum(rng.zipf(1.3, size=n_postings) - 1, 50)
    doc_ids = rng.integers(0, n_docs, size=n_postings)
    terms = np.array([f"t{i}" for i in range(51)], dtype=object)
    post_terms = terms[term_ids]
    bytes_per_posting = 6  # delta+vint docid + freq, order of magnitude

    def max_group_bytes(n_buckets: int, n_hparts: int) -> int:
        cfg = IndexConfig(index_path="/tmp/unused", id_min=0,
                          id_max=n_docs - 1, n_buckets=n_buckets,
                          n_hparts=n_hparts)
        b = cfg.bucket_of(doc_ids).astype(np.int64)
        hp = np.array([term_hpart(t, n_hparts) for t in post_terms],
                      dtype=np.int64)
        key = b * n_hparts + hp
        _u, cnt = np.unique(key, return_counts=True)
        return int(cnt.max()) * bytes_per_posting

    m8 = max_group_bytes(8, 2)
    m16 = max_group_bytes(16, 2)
    m32 = max_group_bytes(32, 2)
    # doubling buckets must roughly halve the max reducer bytes (1.5x slack)
    assert m16 < m8 / 2 * 1.5
    assert m32 < m16 / 2 * 1.5
    # and the max group stays near the uniform share despite the head term
    share32 = n_postings * bytes_per_posting / (32 * 2)
    assert m32 < share32 * 3
