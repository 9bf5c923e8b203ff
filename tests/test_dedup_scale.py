"""Scale-shape tests for the flagship exact-dedup pre-pass (VERDICT r4
'What's wrong #1/#2'): the guard must never materialize url partials on
the driver on the over-threshold path, and the at-scale fallback must be
the vectorized per-partition kernel — zero per-url-group Python calls."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd


def _mk_pages(n_urls=200, dup_every=3, seed=7):
    """Synthetic pages with cross-batch dups and exact (url, warc_ts)
    ties that differ only in html bytes."""
    rng = np.random.default_rng(seed)
    urls, tss, htmls = [], [], []
    for i in range(n_urls):
        u = f"http://site{i % 37}.example/p/{i}"
        k = 1 + (i % dup_every == 0) * int(rng.integers(1, 4))
        base = int(rng.integers(1, 10**6))
        for j in range(k):
            urls.append(u)
            # half the dup urls tie on ts (differ in html), half differ in ts
            tss.append(base + (0 if (i % 6 == 0) else j))
            htmls.append(f"<html>v{j}-{i}</html>".encode())
    perm = rng.permutation(len(urls))
    return pa.table({
        "url": pa.array([urls[p] for p in perm], type=pa.string()),
        "warc_ts": pa.array([tss[p] for p in perm],
                            type=pa.timestamp("us")),
        "html": pa.array([htmls[p] for p in perm], type=pa.binary()),
    })


def keep_latest_by_url(group: pa.Table) -> pa.Table:
    """Per-url reference: keep the row with the greatest warc_ts (ties:
    lexicographically greatest html bytes)."""
    if group.num_rows == 1:
        return group
    idx = pc.sort_indices(
        group, sort_keys=[("warc_ts", "descending"), ("html", "descending")]
    )
    return group.take(idx[:1])


def _reference_dedup(t: pa.Table) -> pa.Table:
    out = []
    for u in sorted(set(t.column("url").to_pylist())):
        g = t.filter(pc.equal(t.column("url"), u))
        out.append(keep_latest_by_url(g))
    return pa.concat_tables(out)


def _sorted(t: pa.Table) -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=[("url", "ascending")]))


class _NoDriverFetch:
    """Fails the test if the dedup path fetches Dataset blocks to the
    driver (to_arrow_refs) or reads a parquet column there
    (pyarrow.parquet.read_table): over the threshold, the guard must run
    from the footers alone, before any column read."""

    def __enter__(self):
        import pyarrow.parquet
        import ray.data

        self._ds_cls = ray.data.Dataset
        self._orig_refs = self._ds_cls.to_arrow_refs
        self._orig_read = pyarrow.parquet.read_table

        def no_refs(ds_self, *a, **kw):
            raise AssertionError(
                "to_arrow_refs on the over-threshold dedup path")

        def no_read(*a, **kw):
            raise AssertionError(
                "driver-side read_table on the over-threshold dedup path")

        self._ds_cls.to_arrow_refs = no_refs
        pyarrow.parquet.read_table = no_read
        return self

    def __exit__(self, *exc):
        import pyarrow.parquet

        self._ds_cls.to_arrow_refs = self._orig_refs
        pyarrow.parquet.read_table = self._orig_read
        return False


def test_partition_kernel_matches_per_group_reference():
    from lucenenet_ray.pipelines.flagship import \
        _keep_latest_partition_kernel

    t = _mk_pages()
    got = _sorted(_keep_latest_partition_kernel(t))
    want = _sorted(_reference_dedup(t))
    assert got.equals(want)


def test_dedup_latest_pages_fallback_vectorized_and_driverless(
        ray_session, tmp_path):
    from lucenenet_ray.pipelines.flagship import dedup_latest_pages

    import pyarrow.parquet as pq

    t = _mk_pages(n_urls=120)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)
    ds = rd.read_parquet(path)
    with _NoDriverFetch():
        out_ds = dedup_latest_pages(path, ds, max_broadcast_urls=0)
        out = _sorted(pa.Table.from_pylist(out_ds.take_all()))
    want = _sorted(_reference_dedup(t))
    cols = sorted(t.column_names)
    assert out.select(cols).cast(want.select(cols).schema).equals(
        want.select(cols))


def test_dedup_fallback_block_invariance(ray_session, tmp_path):
    """Same bytes out at any input partitioning (the co-location property
    the polars-hash exchange must provide): the same pages written once
    and read at 2 vs 13 blocks."""
    from lucenenet_ray.pipelines.flagship import dedup_latest_pages

    import pyarrow.parquet as pq

    t = _mk_pages(n_urls=150, seed=11)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path, row_group_size=16)

    def run(n_blocks: int) -> pa.Table:
        ds = rd.read_parquet(path, override_num_blocks=n_blocks)
        out = dedup_latest_pages(path, ds, max_broadcast_urls=0)
        return _sorted(pa.Table.from_pylist(out.take_all()))

    assert run(2).equals(run(13))


def test_dedup_partition_is_pinned():
    """The fallback exchange's url → partition map is md5-derived (the
    docID hash), so it is fixed by the url alone: golden values."""
    from lucenenet_ray.pipelines.flagship import dedup_partition

    urls = pa.array(["http://site0.example/p/0", "https://example.com/",
                     "http://a.b/c?d=e", "http://site36.example/p/999"])
    assert dedup_partition(urls, 64).to_pylist() == [15, 3, 53, 40]
    assert dedup_partition(urls, 7).to_pylist() == [1, 5, 5, 3]


def _write_pages(tmp_path, t: pa.Table, row_group_size: int = 8) -> str:
    import pyarrow.parquet as pq

    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path, row_group_size=row_group_size)
    return path


def _is_reference(out_ds, t: pa.Table) -> bool:
    """The Dataset's rows equal the per-url reference dedup of ``t``."""
    out = _sorted(pa.Table.from_pylist(out_ds.take_all()))
    want = _sorted(_reference_dedup(t))
    cols = sorted(t.column_names)
    return out.select(cols).cast(want.select(cols).schema).equals(
        want.select(cols))


def test_dedup_broadcast_path_exact_across_blocks(ray_session, tmp_path):
    """Below the threshold (the driver pre-pass), exact (url, max warc_ts)
    ties and older rows are dropped wherever their rows sit: the same
    pages read at 1, 3 and 11 blocks give the per-url reference."""
    from lucenenet_ray.pipelines.flagship import dedup_latest_pages

    t = _mk_pages(n_urls=120)
    path = _write_pages(tmp_path, t, row_group_size=4)
    for n_blocks in (1, 3, 11):
        ds = rd.read_parquet(path, override_num_blocks=n_blocks)
        assert _is_reference(dedup_latest_pages(path, ds), t), n_blocks


def test_dedup_exchange_any_partition_count(ray_session, tmp_path):
    """The fallback exchange co-locates every url's rows at any partition
    count, so its output is the reference at 1 and at 7 partitions."""
    from lucenenet_ray.pipelines.flagship import _dedup_shuffle_vectorized

    t = _mk_pages(n_urls=90, seed=5)
    path = _write_pages(tmp_path, t)
    for k in (1, 7):
        ds = rd.read_parquet(path, override_num_blocks=4)
        assert _is_reference(_dedup_shuffle_vectorized(ds, k), t), k


def test_page_docs_reads_pages_once_and_prepass_stays_off_ray(
        ray_session, tmp_path, monkeypatch):
    """On a small pages file ``page_docs`` makes exactly one Ray Data read
    (the page read), and the dedup pre-pass neither materializes a Dataset
    nor fetches blocks: its narrow columns are read on the driver."""
    import ray.data

    from lucenenet_ray.pipelines.flagship import page_docs
    from lucenenet_ray.sources.pages import doc_id_for_url

    t = _mk_pages(n_urls=60, seed=3)
    t = t.append_column("lang", pa.array(["en"] * t.num_rows))
    path = _write_pages(tmp_path, t)

    reads = []
    real_read = ray.data.read_parquet

    def counting_read(*a, **kw):
        reads.append(a)
        return real_read(*a, **kw)

    def forbidden(name):
        def f(*a, **kw):
            raise AssertionError(f"{name} in the dedup pre-pass")
        return f

    with monkeypatch.context() as m:
        m.setattr(ray.data, "read_parquet", counting_read)
        m.setattr(ray.data.Dataset, "materialize", forbidden("materialize"))
        m.setattr(ray.data.Dataset, "to_arrow_refs",
                  forbidden("to_arrow_refs"))
        ds = page_docs(path)
    assert len(reads) == 1
    got = sorted(r["doc_id"] for r in ds.take_all())
    assert got == sorted(doc_id_for_url(u) for u in
                         set(t.column("url").to_pylist()))
