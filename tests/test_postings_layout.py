"""Per-(bucket, hpart) postings files: a term's lookup opens only its own
hpart's file in each bucket. The one on-disk postings format is pinned:
its parquet schema and the manifest keys that name it."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import SF_DIR

SRC = os.path.join(SF_DIR, "documents.parquet")


@pytest.fixture(scope="module")
def hpart_index(ray_session, tmp_path_factory):
    import ray.data as rd

    from lucenenet_ray.index.build import IndexConfig, build_index

    path = str(tmp_path_factory.mktemp("layout") / "idx")
    build_index(rd.read_parquet(SRC, columns=["doc_id", "text"]),
                IndexConfig(index_path=path, id_min=0, id_max=499,
                            n_buckets=4, n_hparts=4))
    return path


def _all_terms(path):
    return pq.read_table(os.path.join(path, "termstats")).column(
        "term").to_pylist()


def _chunk_key(c):
    return (c.df, c.ttf, c.max_freq, c.max_norm, c.doc_bytes, c.freq_bytes,
            c.pos_bytes, c.block_max_norm.tolist())


def _assert_pushdown_equals_full(path):
    from lucenenet_ray.search.reader import IndexReader

    terms = _all_terms(path)
    cold = IndexReader(path)
    full = IndexReader(path)
    for b in full.bucket_ids:
        got = cold.bucket(b).chunks_for_terms(terms)
        want = full.bucket(b).load_full()
        assert got.keys() == want.keys()
        for t in want:
            assert _chunk_key(got[t]) == _chunk_key(want[t]), (b, t)


def test_one_term_lookup_opens_one_file_per_bucket(hpart_index, monkeypatch):
    from lucenenet_ray.index.build import postings_file_name, term_hpart
    from lucenenet_ray.search import reader as reader_mod
    from lucenenet_ray.search.reader import IndexReader

    r = IndexReader(hpart_index)
    for b in r.bucket_ids:
        assert len(r.bucket(b).postings_files) == 4
    opened = []
    orig = reader_mod._open_parquet

    def recording(source, *a, **kw):
        opened.append(str(source))
        return orig(source, *a, **kw)

    monkeypatch.setattr(reader_mod, "_open_parquet", recording)
    term = "spark"
    for b in r.bucket_ids:
        assert term in r.bucket(b).chunks_for_terms([term])
    want = {os.path.join(hpart_index, "postings",
                         postings_file_name(b, term_hpart(term, 4)))
            for b in r.bucket_ids}
    postings = [f for f in opened if os.sep + "postings" + os.sep in f]
    assert sorted(postings) == sorted(want)


def test_pushdown_lookups_equal_full_load(hpart_index):
    _assert_pushdown_equals_full(hpart_index)


# the postings parquet schema every writer produces: (column, Arrow type)
POSTINGS_SCHEMA = [
    ("bucket", "int32"), ("term", "string"), ("df", "int64"),
    ("ttf", "int64"), ("max_freq", "int32"), ("max_norm", "int32"),
    ("doc_bytes", "large_binary"), ("freq_bytes", "large_binary"),
    ("pos_bytes", "large_binary"),
    ("block_last_doc", "list<element: int64>"),
    ("block_doc_off", "list<element: int64>"),
    ("block_freq_off", "list<element: int64>"),
    ("block_max_freq", "list<element: int32>"),
    ("block_max_norm", "list<element: int32>"),
    ("skip1_last_doc", "list<element: int64>"),
    ("skip1_max_freq", "list<element: int32>"),
    ("skip1_max_norm", "list<element: int32>"),
]


def _postings_schemas(path):
    pdir = os.path.join(path, "postings")
    return {tuple((f.name, str(f.type))
                  for f in pq.read_schema(os.path.join(pdir, name)))
            for name in os.listdir(pdir)}


def _format_keys(path):
    with open(os.path.join(path, "manifest.json")) as f:
        m = json.load(f)
    return m["config"]["codec"], m["format_version"], m["config"]["n_hparts"]


def test_postings_format_is_pinned(hpart_index, tmp_path):
    """An unintended change to the on-disk format fails here: every
    postings file's columns and types, with ``pay_bytes`` after
    ``pos_bytes`` when payloads are on, and the manifest's format keys."""
    import ray.data as rd

    from lucenenet_ray.index.build import IndexConfig, build_index

    assert _postings_schemas(hpart_index) == {tuple(POSTINGS_SCHEMA)}
    assert _format_keys(hpart_index) == ("for", 1, 4)

    ids = list(range(40))
    path = str(tmp_path / "payloads")
    build_index(rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": [f"spark window merge t{i % 4}" for i in ids]})),
        IndexConfig(index_path=path, id_min=0, id_max=39, n_buckets=2,
                    n_hparts=2, payloads="offset"))
    at = POSTINGS_SCHEMA.index(("pos_bytes", "large_binary")) + 1
    with_pay = (POSTINGS_SCHEMA[:at] + [("pay_bytes", "large_binary")]
                + POSTINGS_SCHEMA[at:])
    assert _postings_schemas(path) == {tuple(with_pay)}
    assert _format_keys(path) == ("for", 1, 2)


def test_merge_group_encodes_the_group_in_one_call(monkeypatch):
    """A (bucket, hpart) group whose terms are split over shuffled wire rows,
    with positions and payloads, is encoded by ONE ``encode_postings`` call,
    and each output row is that term's one-term encode in doc order, with
    its per-doc position and payload runs moved in doc order."""
    import numpy as np

    from lucenenet_ray.index import build
    from lucenenet_ray.index.codec import encode_postings, write_vints

    rng = np.random.default_rng(29)
    dfs = {"": 300, "alpha": 1, "beta": 129, "gamma": 3000, "delta": 2}
    rows, want = [], {}
    for term, df in dfs.items():
        docs = rng.choice(10**9, size=df, replace=False).astype(np.int64)
        freqs = rng.integers(1 if term else 0, 5, size=df)
        norms = rng.integers(0, 256, size=df).astype(np.uint8)
        pos = [write_vints(rng.integers(0, 999, size=f).astype(np.uint64))
               .tobytes() if term else b"" for f in freqs]
        pay = [write_vints(rng.integers(0, 99, size=f).astype(np.uint64))
               .tobytes() if term else b"" for f in freqs]
        o = np.argsort(docs)
        want[term] = (encode_postings(docs[o], freqs[o], norms[o], None),
                      b"".join(pos[i] for i in o), b"".join(pay[i] for i in o),
                      norms[o].tobytes() if term == "" else b"",
                      (int(freqs.sum()), int(freqs.max()), int(norms.max())))
        cuts = np.sort(rng.choice(np.arange(1, df), size=min(df - 1, 3),
                                  replace=False)) if df > 1 else []
        for a, b in zip([0, *cuts], [*cuts, df]):
            rows.append((term, docs[a:b], freqs[a:b], norms[a:b],
                         b"".join(pos[a:b]), b"".join(pay[a:b])))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    group = build.wire_table(
        pa.array([r[0] for r in rows], type=pa.string()),
        np.full(len(rows), 3), np.zeros(len(rows), dtype=np.int64),
        np.array([len(r[1]) for r in rows]),
        np.concatenate([r[1] for r in rows]),
        np.concatenate([r[2] for r in rows]),
        np.concatenate([r[3] for r in rows]),
        [r[4] for r in rows], [r[5] for r in rows])

    calls = []

    def counting(*a, **kw):
        calls.append(1)
        return encode_postings(*a, **kw)

    monkeypatch.setattr(build, "encode_postings", counting)
    out = build._merge_group(group, True)
    assert len(calls) == 1
    assert out.column("term").to_pylist() == sorted(dfs)
    for i, term in enumerate(out.column("term").to_pylist()):
        enc, pos, pay, doclen_norms, stats = want[term]
        row = {c: out.column(c)[i].as_py() for c in out.column_names}
        assert row["bucket"] == 3 and row["df"] == dfs[term]
        assert (row["ttf"], row["max_freq"], row["max_norm"]) == stats
        assert row["doc_bytes"] == enc["doc_bytes"]
        assert row["freq_bytes"] == enc["freq_bytes"]
        assert row["pos_bytes"] == pos and row["pay_bytes"] == pay
        assert row["doclen_norm_bytes"] == doclen_norms
        for k in ("block_last_doc", "block_doc_off", "block_freq_off",
                  "block_max_freq", "block_max_norm", "skip1_last_doc"):
            assert row[k] == enc[k].tolist(), (term, k)


def test_reader_lists_the_postings_dir_once(hpart_index, monkeypatch):
    """An IndexReader lists its postings dir once and hands each bucket its
    hpart → file map: no per-bucket glob."""
    import glob

    from lucenenet_ray.index.build import postings_file_name
    from lucenenet_ray.search.reader import IndexReader

    pdir = os.path.join(hpart_index, "postings")
    listings, globs = [], []
    real_listdir, real_glob = os.listdir, glob.glob

    def listdir(path="."):
        listings.append(os.path.normpath(str(path)))
        return real_listdir(path)

    def globbing(pattern, *a, **kw):
        globs.append(str(pattern))
        return real_glob(pattern, *a, **kw)

    monkeypatch.setattr(os, "listdir", listdir)
    monkeypatch.setattr(glob, "glob", globbing)
    r = IndexReader(hpart_index)
    assert len(r.bucket_ids) == 4
    for b in r.bucket_ids:
        assert r.bucket(b).postings_files == [
            os.path.join(pdir, postings_file_name(b, h)) for h in range(4)]
        assert "spark" in r.bucket(b).chunks_for_terms(["spark"])
    assert listings.count(pdir) == 1
    assert not [g for g in globs if os.sep + "postings" + os.sep in g]
