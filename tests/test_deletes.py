"""Tombstone deletes + physical expunge (IndexWriter.DeleteDocuments /
ForceMergeDeletes analogs — reference Index/IndexWriter.cs:1596-1720,
BufferedUpdatesStream.cs)."""

import hashlib
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucenenet_ray.index.deletes import (
    delete_documents,
    expunge_deletes,
    load_deleted_terms,
)
from lucenenet_ray.search.query import (
    BooleanClause,
    BooleanQuery,
    MatchAllDocsQuery,
    Occur,
    TermQuery,
    parse_query,
)
from lucenenet_ray.search.reader import IndexReader
from lucenenet_ray.search.searcher import search

SF_DIR = "/root/testdata/sf0.001"


def _docs_with_term(corpus, term):
    docs, _texts, toks = corpus
    return {d for d in docs if term in toks[d]}


def test_delete_log_roundtrip(tmp_path):
    d = str(tmp_path / "dels")
    assert load_deleted_terms(d) == ()
    g0 = delete_documents(d, ["foo", "bar"])
    g1 = delete_documents(d, ["baz"])
    assert (g0, g1) == (0, 1)
    assert load_deleted_terms(d) == ("bar", "baz", "foo")


def test_tombstones_hide_docs_keep_stats(documents_index, corpus, tmp_path):
    path, _m = documents_index
    ddir = str(tmp_path / "dels")
    delete_documents(ddir, ["dup"])
    r0 = IndexReader(path)  # no deletes
    r1 = IndexReader(path, deletes_path=ddir)
    dead = _docs_with_term(corpus, "dup")
    assert dead, "fixture term must exist"

    q = BooleanQuery(clauses=(
        BooleanClause(Occur.SHOULD, TermQuery(term="spark")),
        BooleanClause(Occur.SHOULD, TermQuery(term="window")),
    ))
    td0 = search(r0, q, k=50)
    td1 = search(r1, q, k=50)
    assert not (set(td1.docs.tolist()) & dead)
    # stats unchanged until merge: surviving docs keep identical scores
    s0 = {int(d): float(s) for d, s in zip(td0.docs, td0.scores)}
    for d, s in zip(td1.docs, td1.scores):
        if int(d) in s0:
            assert s0[int(d)] == float(s)
    # pruned path agrees with exhaustive under deletes
    td1p = search(r1, q, k=50, prune=True)
    assert td1p.docs.tolist() == td1.docs.tolist()
    assert [float(x) for x in td1p.scores] == [float(x) for x in td1.scores]


def test_tombstone_matchall_and_count(documents_index, corpus, tmp_path):
    path, _m = documents_index
    ddir = str(tmp_path / "dels")
    delete_documents(ddir, ["dup"])
    r1 = IndexReader(path, deletes_path=ddir)
    dead = _docs_with_term(corpus, "dup")
    td = search(r1, MatchAllDocsQuery(), k=10_000)
    assert td.total_hits == r1.num_docs - len(dead)


def _index_digest(path):
    h = hashlib.sha256()
    for sub in ("postings", "norms"):
        d = os.path.join(path, sub)
        for fn in sorted(os.listdir(d)):
            t = pq.read_table(os.path.join(d, fn))
            h.update(fn.encode())
            for col in sorted(t.column_names):
                for chunk in t.column(col).chunks:
                    for buf in chunk.buffers():
                        if buf is not None:
                            h.update(buf)
    return h.hexdigest()


def test_expunge_matches_direct_build(documents_index, corpus, tmp_path,
                                      ray_session):
    """ForceMergeDeletes contract: the expunged index equals an index built
    directly over the corpus minus the deleted docs — stats fold away."""
    import ray.data as rd

    from lucenenet_ray.index.build import IndexConfig, build_index

    path, _m = documents_index
    ddir = str(tmp_path / "dels")
    delete_documents(ddir, ["dup"])
    out = str(tmp_path / "expunged")
    man = expunge_deletes(path, out, deletes_path=ddir)

    dead = _docs_with_term(corpus, "dup")
    docs, _texts, _toks = corpus
    assert man["n_docs"] == len(docs) - len(dead)

    # direct build over the filtered corpus with the same layout config
    src = os.path.join(SF_DIR, "documents.parquet")
    t = pq.read_table(src, columns=["doc_id", "text", "source"])
    keep = ~np.isin(t.column("doc_id").to_numpy(), np.array(sorted(dead)))
    direct_path = str(tmp_path / "direct")
    with open(os.path.join(path, "manifest.json")) as f:
        import json

        cfg0 = json.load(f)["config"]
    cfg = IndexConfig(
        index_path=direct_path,
        id_min=cfg0["id_min"], id_max=cfg0["id_max"],
        n_buckets=cfg0["n_buckets"], n_hparts=cfg0["n_hparts"],
        extra_fields=tuple(tuple(x) for x in cfg0["extra_fields"]),
        payloads=cfg0.get("payloads"),
    )
    import pyarrow as pa

    build_index(rd.from_arrow(t.filter(pa.array(keep))), cfg,
                text_col="text", id_col="doc_id")

    assert _index_digest(out) == _index_digest(direct_path)

    # and the expunged index searches identically to the direct build
    r_e = IndexReader(out)
    r_d = IndexReader(direct_path)
    q = parse_query("spark window")
    te, tdq = search(r_e, q, k=20), search(r_d, q, k=20)
    assert te.docs.tolist() == tdq.docs.tolist()
    assert [float(x) for x in te.scores] == [float(x) for x in tdq.scores]


def _small_index(path, texts, deletes=None, **kw):
    """Build (doc_id, text) rows at ``path`` with a fixed 4-bucket layout
    over ids 0..39 (bucket b holds ids 10b..10b+9)."""
    import shutil

    import pyarrow as pa
    import ray.data as rd

    from lucenenet_ray.index.build import IndexConfig, build_index

    shutil.rmtree(path, ignore_errors=True)
    ids = sorted(texts)
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "text": [texts[i] for i in ids]})
    cfg = IndexConfig(index_path=path, id_min=0, id_max=39, n_buckets=4,
                      **kw)
    build_index(rd.from_arrow(t), cfg)
    return path


def _survivors(texts, term):
    from lucenenet_ray.analysis import analyze

    return {i: x for i, x in texts.items() if term not in analyze(x)[0]}


def test_expunge_fully_deleted_bucket(ray_session, tmp_path):
    """Every doc of bucket 0 is tombstoned (and a few elsewhere): the
    expunged index equals the direct build of the survivors and bucket 0
    leaves no files."""
    kw = dict(n_hparts=2, payloads="offset")
    texts = {i: ("zap " if i < 10 or i % 7 == 0 else "")
             + f"spark window w{i % 5} merge batch"
             for i in range(40)}
    src = _small_index(str(tmp_path / "src"), texts, **kw)
    ddir = str(tmp_path / "dels")
    delete_documents(ddir, ["zap"])
    out = str(tmp_path / "expunged")
    man = expunge_deletes(src, out, deletes_path=ddir)

    live = _survivors(texts, "zap")
    direct = _small_index(str(tmp_path / "direct"), live, **kw)
    assert man["n_docs"] == len(live)
    assert [b["bucket"] for b in man["buckets"]] == [1, 2, 3]
    assert _index_digest(out) == _index_digest(direct)
    for sub in ("postings", "norms"):
        assert not [f for f in os.listdir(os.path.join(out, sub))
                    if f.startswith("bucket=00000")]


def test_expunge_after_rebuild_at_same_path(ray_session, tmp_path):
    """An index rebuilt with different docs at a path that was already
    expunged once expunges to the direct build of its own survivors (no
    per-process state keyed by path survives the rebuild)."""
    src = str(tmp_path / "src")
    first = {i: ("zap " if i % 2 else "") + "alpha" for i in range(40)}
    _small_index(src, first)
    d1 = str(tmp_path / "dels1")
    delete_documents(d1, ["zap"])
    expunge_deletes(src, str(tmp_path / "out1"), deletes_path=d1)

    second = {i: ("zap " if i % 3 == 0 else "") + "gamma " * (i % 4 + 3)
              + "epsilon" for i in range(1, 40, 2)}
    _small_index(src, second)
    d2 = str(tmp_path / "dels2")
    delete_documents(d2, ["zap"])
    out2 = str(tmp_path / "out2")
    man = expunge_deletes(src, out2, deletes_path=d2)

    live = _survivors(second, "zap")
    direct = _small_index(str(tmp_path / "direct"), live)
    assert man["n_docs"] == len(live)
    assert _index_digest(out2) == _index_digest(direct)
