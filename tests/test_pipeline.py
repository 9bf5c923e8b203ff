"""End-to-end pages pipeline tests: dedup keep-latest, extraction in the
pipeline, flagship entry, and the __ray_entry__ contract shape."""

import os

import numpy as np
import pytest


@pytest.fixture(scope="module")
def pages_index(ray_session, tmp_path_factory):
    from lucenenet_ray.pipelines.flagship import index_pages
    from lucenenet_ray.sources.pages import pages_parquet

    pages = pages_parquet("/root/testdata/sf0.001")
    path = str(tmp_path_factory.mktemp("pidx") / "pages")
    manifest = index_pages(pages, path, n_buckets=4)
    return path, manifest, pages


def test_dedup_keeps_latest(pages_index, corpus):
    """URLs with duplicate rows must be indexed once, from the LATEST
    warc_ts version (IndexWriter.UpdateDocument last-writer-wins,
    IndexWriter.cs:1538-1556)."""
    import pyarrow.parquet as pq

    from lucenenet_ray.sources.pages import doc_id_for_url, url_for

    path, manifest, pages = pages_index
    t = pq.read_table(pages)
    n_unique = len(set(t.column("url").to_pylist()))
    assert t.num_rows > n_unique  # fixture really has dups
    assert manifest["n_docs"] == n_unique

    # the duplicated urls (doc_id % 23 == 0) must carry the NEWER (full-length)
    # text: check doc_len in norms matches the analyzed golden of the latest
    # row, through the per-language analyzer dispatch (lang column)
    from lucenenet_ray.analysis.lang import MultiLangAnalyzer
    import glob

    ml = MultiLangAnalyzer()
    norm_lens = {}
    for f in glob.glob(os.path.join(path, "norms", "*.parquet")):
        nt = pq.read_table(f)
        for d, l in zip(nt.column("doc_id").to_pylist(), nt.column("doc_len").to_pylist()):
            norm_lens[d] = l
    urls = t.column("url").to_pylist()
    tss = t.column("warc_ts").to_pylist()
    golden = t.column("text").to_pylist()
    langs = t.column("lang").to_pylist()
    latest = {}
    for u, ts, g, lg in zip(urls, tss, golden, langs):
        if u not in latest or ts > latest[u][0]:
            latest[u] = (ts, g, lg)
    for u, (_ts, g, lg) in list(latest.items())[:50]:
        did = doc_id_for_url(u)
        expected_len = len(ml(g, lg)[0])
        assert norm_lens[did] == expected_len, u


def test_flagship_queries_return_hits(pages_index):
    from lucenenet_ray.search.query import parse_query
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import search

    path, _m, _p = pages_index
    r = IndexReader(path)
    td = search(r, parse_query("spark window"), k=10)
    assert len(td.docs) == 10 and td.total_hits > 0
    assert np.all(np.diff(td.scores.astype(np.float64)) <= 0)  # score desc


def test_ray_entry_contract(ray_session):
    import __ray_entry__ as e

    qs = e.queries()
    sqls = e.oracle_sql()
    assert set(sqls) <= set(qs), "every oracle key must have a query"
    df = e.entry()
    assert len(df) >= 0 and "doc_id" in df.columns

    # spot-run two cheap entries at sf0.001
    out = qs["collection_stats"]("/root/testdata/sf0.001")
    assert out.num_rows == 1

    import duckdb

    con = duckdb.connect()
    con.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        "read_parquet('/root/testdata/sf0.001/documents.parquet')"
    )
    want = con.sql(sqls["collection_stats"]).df()
    got = out.to_pandas()
    assert int(got["n_docs"][0]) == int(want["n_docs"][0])
    assert int(got["sum_total_term_freq"][0]) == int(want["sum_total_term_freq"][0])


def test_distributed_searcher_matches_sequential(documents_index):
    """Actor-pool scatter/gather must return identical TopDocs to the
    sequential path (TopDocs.Merge semantics across actors)."""
    import numpy as np

    from lucenenet_ray.search.query import parse_query
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import search
    from lucenenet_ray.search.serve import DistributedSearcher

    path, _m = documents_index
    ds = DistributedSearcher(path, n_actors=2)
    try:
        r = IndexReader(path)
        for qt in ["spark window", '"batch merge"', "data", "vector AND dup"]:
            q = parse_query(qt)
            a = search(r, q, k=10)
            b = ds.search(q, k=10, prune=True)
            assert np.array_equal(a.docs, b.docs), qt
            assert np.array_equal(a.scores, b.scores), qt
            c = ds.search(q, k=10, prune=False)
            assert a.total_hits == c.total_hits and c.total_hits_relation == "eq"
    finally:
        ds.shutdown()


def test_searcher_manager_maybe_refresh(documents_index, tmp_path):
    """SearcherManager.MaybeRefresh semantics (SearcherManager.cs:61):
    no commit-point change → False and the same reader; a tombstone append
    moves the version stamp → True, and subsequent searches see the delete
    without restarting the actor pool."""
    import os
    import numpy as np

    from lucenenet_ray.index.deletes import delete_documents
    from lucenenet_ray.search.query import parse_query
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import search
    from lucenenet_ray.search.serve import DistributedSearcher

    # private view of the shared index (symlinks) so the default
    # <index>/deletes sidecar doesn't pollute the session fixture
    src, _m = documents_index
    path = str(tmp_path / "idx")
    os.mkdir(path)
    for name in os.listdir(src):
        os.symlink(os.path.join(src, name), os.path.join(path, name))

    ds = DistributedSearcher(path, n_actors=2)
    try:
        q = parse_query("vector dup data")
        before = ds.search(q, k=20, prune=False)
        assert ds.maybe_refresh() is False  # nothing changed

        delete_documents(os.path.join(path, "deletes"), ["dup"])
        assert ds.maybe_refresh() is True   # tombstone generation appended
        assert ds.maybe_refresh() is False  # idempotent

        after = ds.search(q, k=20, prune=False)
        golden = search(IndexReader(path), q, k=20)
        assert after.total_hits < before.total_hits
        assert np.array_equal(after.docs, golden.docs)
        assert np.array_equal(after.scores, golden.scores)
    finally:
        ds.shutdown()


def test_distributed_searcher_round2_query_types(documents_index, tmp_path):
    """Round-2 query types must survive plan pickling to QueryServer actors:
    MultiPhrase, sloppy phrase, multi-term rewrites, synonyms-from-parser,
    and tombstone deletes shipped via the plan."""
    import numpy as np

    from lucenenet_ray.analysis.filters import SynonymMap
    from lucenenet_ray.index.deletes import delete_documents
    from lucenenet_ray.search.query import MultiPhraseQuery, parse_query
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import plan_query, search
    from lucenenet_ray.search.serve import DistributedSearcher

    path, _m = documents_index
    ds = DistributedSearcher(path, n_actors=2)
    try:
        r = IndexReader(path)
        syn = SynonymMap({"merge": ["line"]}, expand=False)
        queries = [
            parse_query('"merge batch"~3'),
            parse_query("sp* window"),
            parse_query("spqrk~ data"),
            parse_query('"batch merge"', synonyms=syn),
            MultiPhraseQuery(slots=((("batch",), 0), (("merge", "line"), 1)),
                             slop=2),
        ]
        for q in queries:
            a = search(r, q, k=10)
            b = ds.search(q, k=10, prune=True)
            assert np.array_equal(a.docs, b.docs), q
            assert np.array_equal(a.scores, b.scores), q
    finally:
        ds.shutdown()

    # deletes ride the plan: a reader WITH tombstones plans, actors (opened
    # without the sidecar) must still mask the dead docs
    ddir = str(tmp_path / "dels")
    delete_documents(ddir, ["dup"])
    rdel = IndexReader(path, deletes_path=ddir)
    q = parse_query("vector dup data")
    plan = plan_query(rdel, q)
    assert plan.deleted_terms == ("dup",)
    ds2 = DistributedSearcher(path, n_actors=2)
    try:
        import ray

        a = search(rdel, q, k=20)
        parts = ray.get([w.search_plan.remote(plan, 20, True)
                         for w in ds2.actors])
        import numpy as np

        docs = np.concatenate([p[0] for p in parts])
        scores = np.concatenate([p[1] for p in parts])
        from lucenenet_ray.search.searcher import _topk

        d, s = _topk(docs, scores, 20)
        assert np.array_equal(a.docs, d)
        assert np.array_equal(a.scores, s)
    finally:
        ds2.shutdown()


def test_query_registry_window_is_all_oracle_backed():
    """The driver grades only the FIRST 50 queries() entries: every one of
    those must have an oracle, the BM25 rank-identity family must lead, and
    no-oracle entries must sit at the very end (round-2 VERDICT item 2)."""
    import __ray_entry__ as e

    qs = list(e.queries().keys())
    osql = e.oracle_sql()
    window = qs[:50]
    assert all(q in osql for q in window), [q for q in window if q not in osql]
    # headline contract leads the window
    for name in list(e.BM25_QUERIES) + list(e.BM25_PHRASES) + list(
            e.BM25_SLOP_PHRASES) + ["numeric_range_filter"]:
        assert name in window[:10], name
    # no dangling oracle
    assert all(q in qs for q in osql)


def test_changed_engine_source_gives_new_cache_path(tmp_path, monkeypatch):
    """A gate index is cached under a key that includes the engine's
    source, so an index written by other engine code is never reused;
    source outside the engine (here ``search/``) leaves the key alone."""
    import shutil

    from lucenenet_ray.pipelines import flagship

    pkg = tmp_path / "lucenenet_ray"
    for sub in ("index", "analysis", "extract", "search", "pipelines"):
        shutil.copytree(os.path.join(flagship._PKG_DIR, sub), pkg / sub,
                        ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(flagship, "_PKG_DIR", str(pkg))
    built = []

    def fake_build(sf_dir, path):  # stands in for the index build
        os.makedirs(path)
        open(os.path.join(path, "manifest.json"), "w").close()
        built.append(path)

    monkeypatch.setattr(flagship, "index_documents", fake_build)
    monkeypatch.setattr(flagship, "_INDEX_CACHE", {})

    def cache_path():
        flagship.engine_fingerprint.cache_clear()
        return flagship.documents_index_for("/root/testdata/sf0.001",
                                            cache_root=str(tmp_path / "c"))

    base = cache_path()
    assert cache_path() == base and built == [base]
    with open(pkg / "search" / "searcher.py", "a") as f:
        f.write("\n# not an engine source\n")
    assert cache_path() == base
    for src in ("index/build.py", "analysis/standard.py",
                "extract/__init__.py", "pipelines/flagship.py"):
        before = cache_path()
        with open(pkg / src, "a") as f:
            f.write("\n# changed\n")
        assert cache_path() != before, src
    assert len(built) == 5 and len(set(built)) == 5
    flagship.engine_fingerprint.cache_clear()
