"""AddIndexes analog + shard-at-a-time resumable build: merged-from-shards
index must answer queries identically to the direct whole-corpus index."""

import json
import os

import numpy as np
import pytest


@pytest.fixture(scope="module")
def incremental_index(ray_session, tmp_path_factory):
    import ray.data as rd

    from lucenenet_ray.index.build import IndexConfig
    from lucenenet_ray.index.build import build_index_incremental

    out = str(tmp_path_factory.mktemp("inc") / "merged")
    src = "/root/testdata/sf0.001/documents.parquet"

    def shard(lo, hi):
        def factory():
            ds = rd.read_parquet(src, columns=["doc_id", "text"])
            return ds.filter(lambda r: lo <= r["doc_id"] < hi)

        return factory

    cfg = IndexConfig(index_path="IGNORED", id_min=0, id_max=499, n_buckets=4)
    manifest = build_index_incremental(
        [("s0", shard(0, 250)), ("s1", shard(250, 500))], out, cfg
    )
    return out, manifest


def test_incremental_matches_direct(incremental_index, documents_index):
    from lucenenet_ray.search.query import parse_query
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import search

    inc_path, manifest = incremental_index
    direct_path, _ = documents_index
    ri = IndexReader(inc_path)
    rdir = IndexReader(direct_path)
    assert ri.num_docs == rdir.num_docs
    assert ri.sum_total_term_freq == rdir.sum_total_term_freq
    for qt in ["spark window", '"batch merge"', "data", "vector AND dup", "dup"]:
        q = parse_query(qt)
        a = search(rdir, q, k=10)
        b = search(ri, q, k=10)
        assert np.array_equal(a.docs, b.docs), qt
        assert np.array_equal(a.scores, b.scores), qt
        assert a.total_hits == b.total_hits
        # pruning stays lossless on the merged index too
        c = search(ri, q, k=10, prune=True)
        assert np.array_equal(b.docs, c.docs) and np.array_equal(b.scores, c.scores)


def test_merge_manifest_lineage(incremental_index):
    """One manifest write: the build's atomic replace carries the lineage
    (runs before the rerun below rewrites the manifest)."""
    inc_path, manifest = incremental_index
    with open(os.path.join(inc_path, "manifest.json")) as f:
        on_disk = json.load(f)
    assert on_disk == json.loads(json.dumps(manifest))
    assert [s["shard"] for s in on_disk["shard_lineage"]] == ["s0", "s1"]
    assert not os.path.exists(os.path.join(inc_path, ".manifest.tmp"))


def test_resume_skips_built_shards(incremental_index, ray_session):
    """Re-running the incremental build must skip existing shard checkpoints."""
    import ray.data as rd

    from lucenenet_ray.index.build import IndexConfig
    from lucenenet_ray.index.build import build_index_incremental

    inc_path, _ = incremental_index
    src = "/root/testdata/sf0.001/documents.parquet"

    def fail_factory():  # would blow up if actually called
        raise AssertionError("shard should have been skipped")

    cfg = IndexConfig(index_path="IGNORED", id_min=0, id_max=499, n_buckets=4)
    manifest = build_index_incremental(
        [("s0", fail_factory), ("s1", fail_factory)], inc_path, cfg
    )
    assert all("skipped" in s["status"] for s in manifest["shard_lineage"])


def _build(ds, path, **kw):
    from lucenenet_ray.index.build import IndexConfig, build_index

    cfg = IndexConfig(**{"index_path": path, "id_min": 0, "id_max": 499,
                         "n_buckets": 4, **kw})
    build_index(ds, cfg)
    return path


def test_merged_bytes_equal_direct_build(ray_session, tmp_path):
    """Two shards merged = the direct build of the same docs, byte for
    byte, with payload streams and a keyword field riding through."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from bench import index_digest
    from conftest import SF_DIR
    from lucenenet_ray.index.merge_indexes import merge_indexes

    ds = rd.read_parquet(os.path.join(SF_DIR, "documents.parquet"),
                         columns=["doc_id", "text", "source"])
    kw = dict(n_hparts=4, payloads="offset",
              extra_fields=(("source", "source", False),))
    direct = _build(ds, str(tmp_path / "direct"), **kw)
    # interleaved docIDs: every bucket and most chunks span both shards
    shards = [_build(ds.filter(lambda r, k=k: (r["doc_id"] % 3 == 0) == k),
                     str(tmp_path / f"shard{int(k)}"), **kw)
              for k in (True, False)]
    merged = str(tmp_path / "merged")
    m = merge_indexes(shards, merged)
    assert index_digest(merged) == index_digest(direct)
    assert pq.read_table(os.path.join(merged, "termstats")).equals(
        pq.read_table(os.path.join(direct, "termstats")))
    with open(os.path.join(direct, "manifest.json")) as f:
        d = json.load(f)
    assert m["buckets"] == d["buckets"]
    assert m["n_docs"] == d["n_docs"]
    assert m["sum_total_term_freq"] == d["sum_total_term_freq"]


def test_merge_of_mixed_hparts_equals_direct_build(ray_session, tmp_path):
    """Sources built at 1 and 4 hparts merged into 2 hparts = the direct
    2-hpart build of the same docs: same postings and norms bytes, same
    termstats."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from bench import index_digest
    from conftest import SF_DIR
    from lucenenet_ray.index.merge_indexes import merge_indexes

    ds = rd.read_parquet(os.path.join(SF_DIR, "documents.parquet"),
                         columns=["doc_id", "text"])
    direct = _build(ds, str(tmp_path / "direct"), n_hparts=2)
    shards = [_build(ds.filter(lambda r, k=k: (r["doc_id"] % 3 == 0) == k),
                     str(tmp_path / f"shard{h}"), n_hparts=h)
              for k, h in ((True, 1), (False, 4))]
    merged = str(tmp_path / "merged")
    m = merge_indexes(shards, merged, n_hparts=2)
    assert m["config"]["n_hparts"] == 2
    assert index_digest(merged) == index_digest(direct)
    assert pq.read_table(os.path.join(merged, "termstats")).equals(
        pq.read_table(os.path.join(direct, "termstats")))


@pytest.mark.parametrize("key,value", [("n_buckets", 2), ("n_hparts", 4),
                                       ("store_positions", False)])
def test_merge_rejects_mismatched_layouts(ray_session, tmp_path, key, value):
    import pyarrow as pa
    import ray.data as rd

    from lucenenet_ray.index.merge_indexes import merge_indexes

    def ds(lo):
        ids = list(range(lo, lo + 20))
        return rd.from_arrow(pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": [f"spark window merge {i}" for i in ids]}))

    a = _build(ds(0), str(tmp_path / "a"), n_hparts=2)
    b = _build(ds(100), str(tmp_path / "b"), **{"n_hparts": 2, key: value})
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match=key):
        merge_indexes([a, b], out)
    assert not os.path.exists(os.path.join(out, "postings"))


@pytest.mark.parametrize("key,value", [("codec", "vint"), ("codec", None),
                                       ("n_hparts", None)])
def test_manifest_of_another_layout_is_rejected(ray_session, tmp_path, key,
                                                value):
    """An index whose manifest names another postings layout (or none, the
    v0 default), or no hpart count, is refused by every reader of the
    format: merge_indexes, IndexReader and check_index."""
    import pyarrow as pa
    import ray.data as rd

    from lucenenet_ray.index.check import check_index
    from lucenenet_ray.index.merge_indexes import merge_indexes
    from lucenenet_ray.search.reader import IndexReader

    ids = list(range(20))
    a = _build(rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": [f"spark window merge {i}" for i in ids]})),
        str(tmp_path / "a"), n_hparts=2)
    mpath = os.path.join(a, "manifest.json")
    with open(mpath) as f:
        m = json.load(f)
    if value is None:
        del m["config"][key]
    else:
        m["config"][key] = value
    with open(mpath, "w") as f:
        json.dump(m, f)
    out = str(tmp_path / "out")
    for read in (lambda: merge_indexes([a], out), lambda: IndexReader(a),
                 lambda: check_index(a)):
        with pytest.raises(ValueError, match=f"config.{key}"):
            read()
    assert not os.path.exists(os.path.join(out, "postings"))


def test_merge_outputs_state_dropped_sidecars(ray_session, tmp_path):
    """Merge, expunge and split outputs carry no term-vector sidecar: the
    config says store_term_vectors=False and the manifest names the
    source sidecars that were dropped."""
    import pyarrow as pa
    import ray.data as rd

    from lucenenet_ray.index.deletes import delete_documents, expunge_deletes
    from lucenenet_ray.index.merge_indexes import merge_indexes
    from lucenenet_ray.index.split import split_index

    ids = list(range(0, 40))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": [f"spark window t{i % 4}" for i in ids]}))
    src = _build(ds, str(tmp_path / "src"), id_max=39,
                 store_term_vectors=True)
    assert os.path.isdir(os.path.join(src, "termvectors"))
    plain = _build(ds, str(tmp_path / "plain"), id_max=39)

    ddir = str(tmp_path / "dels")
    delete_documents(ddir, ["t1"])
    paths = [str(tmp_path / d) for d in ("merged", "exp", "lo", "hi")]
    outs = [merge_indexes([src], paths[0]),
            expunge_deletes(src, paths[1], deletes_path=ddir),
            *split_index(src, paths[2], paths[3], 20)]
    for m, out in zip(outs, paths, strict=True):
        assert m["config"]["store_term_vectors"] is False
        assert m["dropped_sidecars"] == ["termvectors"]
        assert not os.path.exists(os.path.join(out, "termvectors"))
    assert merge_indexes([plain], str(tmp_path / "m2"))[
        "dropped_sidecars"] == []
