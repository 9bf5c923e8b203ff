"""Per-(bucket, hpart) postings files: a term's lookup opens only its own
hpart's file in each bucket; files named without an hpart (indexes written
before per-hpart merges) are read for every term."""

import os
import shutil

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
    cold = IndexReader(path, full_buckets=False)
    full = IndexReader(path)
    for b in full.bucket_ids:
        got = cold.bucket(b).chunks_for_terms(terms, full=False)
        want = full.bucket(b).load_full()
        assert got.keys() == want.keys()
        for t in want:
            assert _chunk_key(got[t]) == _chunk_key(want[t]), (b, t)


def test_one_term_lookup_opens_one_file_per_bucket(hpart_index, monkeypatch):
    from lucenenet_ray.index.build import postings_file_name, term_hpart
    from lucenenet_ray.search.reader import IndexReader

    r = IndexReader(hpart_index, full_buckets=False)
    for b in r.bucket_ids:
        assert len(r.bucket(b).postings_files) == 4
    opened = []
    orig = pq.read_table

    def recording(source, *a, **kw):
        opened.append(str(source))
        return orig(source, *a, **kw)

    monkeypatch.setattr(pq, "read_table", recording)
    term = "spark"
    for b in r.bucket_ids:
        assert term in r.bucket(b).chunks_for_terms([term], full=False)
    want = {os.path.join(hpart_index, "postings",
                         postings_file_name(b, term_hpart(term, 4)))
            for b in r.bucket_ids}
    postings = [f for f in opened if os.sep + "postings" + os.sep in f]
    assert sorted(postings) == sorted(want)


def test_pushdown_lookups_equal_full_load(hpart_index):
    _assert_pushdown_equals_full(hpart_index)


def test_files_without_hpart_are_read_for_every_term(hpart_index, tmp_path):
    """One legacy ``bucket=NNNNN.parquet`` file per bucket (the layout of
    indexes merged before per-hpart merges) answers every term."""
    legacy = str(tmp_path / "legacy")
    shutil.copytree(hpart_index, legacy)
    pdir = os.path.join(legacy, "postings")
    for b in range(4):
        files = sorted(f for f in os.listdir(pdir)
                       if f.startswith(f"bucket={b:05d}_h"))
        t = pa.concat_tables([pq.read_table(os.path.join(pdir, f))
                              for f in files])
        for f in files:
            os.remove(os.path.join(pdir, f))
        pq.write_table(t.sort_by("term"),
                       os.path.join(pdir, f"bucket={b:05d}.parquet"))
    _assert_pushdown_equals_full(legacy)
