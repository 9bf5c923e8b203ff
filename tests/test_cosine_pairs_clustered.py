"""Cluster-bucketed exact-verify near-dup (ops/knn.py
cosine_pairs_clustered): equals the exact all-pairs result restricted to
same-cluster membership; plus a driver-scan guard asserting the
retrieval-extras ops never row-iterate a corpus-scale Dataset on the
driver (VERDICT r3 findings #1-#4)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

SF_DIR = "/root/testdata/sf0.001"
THR, K = 0.4, 8


def _emb():
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    m = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    order = np.argsort(ids)
    return ids[order], m[order]


def _brute_clusters(ids, m):
    seeds = m[ids < K]
    cl = np.argmax(m @ seeds.T, axis=1)
    return cl


def test_clustered_equals_exact_within_cluster(ray_session):
    from lucenenet_ray.ops.knn import cosine_pairs, cosine_pairs_clustered

    ds = rd.read_parquet(f"{SF_DIR}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    exact = cosine_pairs(ds, THR)
    clus = cosine_pairs_clustered(ds, THR, n_clusters=K)

    ids, m = _emb()
    cl = _brute_clusters(ids, m)
    cmap = dict(zip(ids.tolist(), cl.tolist()))
    want = sorted(
        (a, b) for a, b in zip(exact.column("id_a").to_pylist(),
                               exact.column("id_b").to_pylist())
        if cmap[a] == cmap[b])
    got = list(zip(clus.column("id_a").to_pylist(),
                   clus.column("id_b").to_pylist()))
    assert got == want
    # the restriction must bite (otherwise the test proves nothing) while
    # still keeping the planted near-dups that share a cluster
    assert 0 < len(got) < exact.num_rows


def test_clustered_block_invariance(ray_session):
    from lucenenet_ray.ops.knn import cosine_pairs_clustered

    ds1 = rd.read_parquet(f"{SF_DIR}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    ds2 = ds1.repartition(7)
    a = cosine_pairs_clustered(ds1, THR, n_clusters=K)
    b = cosine_pairs_clustered(ds2, THR, n_clusters=K)
    assert a.equals(b)


class _NoRowScan:
    """Context manager failing the test if corpus Datasets are row-iterated
    or row-filtered with a Python callable on the driver."""

    def __enter__(self):
        import ray.data

        self._ds = ray.data.Dataset
        self._filter = self._ds.filter
        self._iter_rows = self._ds.iter_rows
        ds_cls = self._ds
        orig_filter = self._filter

        def guarded_filter(self, fn=None, *a, **kw):
            if callable(fn):
                raise AssertionError(
                    "per-row Dataset.filter(callable) on the driver path")
            return orig_filter(self, fn, *a, **kw)

        def guarded_iter_rows(self, *a, **kw):
            raise AssertionError("Dataset.iter_rows on the driver path")

        ds_cls.filter = guarded_filter
        ds_cls.iter_rows = guarded_iter_rows
        return self

    def __exit__(self, *exc):
        self._ds.filter = self._filter
        self._ds.iter_rows = self._iter_rows
        return False


def test_retrieval_extras_never_row_scan(ray_session, tmp_path):
    """coreset / clustered-near-dup run with per-row Dataset access
    forbidden (VERDICT r3: 'add a pytest asserting the embeddings table is
    never row-iterated on the driver')."""
    from lucenenet_ray.ops.coreset import kcenter_greedy
    from lucenenet_ray.ops.knn import cosine_pairs_clustered

    emb = rd.read_parquet(f"{SF_DIR}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    with _NoRowScan():
        sel = kcenter_greedy(emb, rounds=4, seed_id=0)
        assert sel.num_rows == 4
        cp = cosine_pairs_clustered(emb, THR, n_clusters=K)
        assert cp.num_rows > 0


def test_mmr_never_row_scans(ray_session, tmp_path):
    """mmr_rerank fetches candidate vectors without per-row filters."""
    import os

    from lucenenet_ray.ops.mmr import mmr_rerank

    pytest.importorskip("lucenenet_ray.search.reader")
    from lucenenet_ray.index.build import IndexConfig, build_index
    from lucenenet_ray.search.query import parse_query
    from lucenenet_ray.search.reader import IndexReader

    idx = str(tmp_path / "idx")
    ds = rd.read_parquet(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"])
    build_index(ds, IndexConfig(index_path=idx, id_min=0, id_max=499,
                                n_buckets=2))
    emb = rd.read_parquet(f"{SF_DIR}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    with _NoRowScan():
        out = mmr_rerank(IndexReader(idx), parse_query("spark window"),
                         emb, n_cand=10, rounds=5)
    assert out.num_rows > 0
