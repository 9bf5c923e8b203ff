"""IndexWriter / IndexSearcher facade (lucenenet_ray/api.py) — the
reference's primary API surface mapped to shards + federation +
tombstones + merge policy."""

import pytest

from lucenenet_ray.search.query import TermQuery, field_term


def _docs(texts, src=None):
    return [{"text": t, **({"source": src} if src else {})} for t in texts]


def test_writer_commit_and_search(ray_session, tmp_path):
    from lucenenet_ray.api import IndexSearcher, IndexWriter

    w = IndexWriter(str(tmp_path / "w"), n_buckets=2)
    w.add_documents(_docs(["alpha beta", "beta gamma", "gamma delta"]))
    g1 = w.commit()
    w.add_documents(_docs(["alpha epsilon", "delta beta"]))
    g2 = w.commit()
    assert g2 == g1 + 1 and w.num_shards == 2

    s = IndexSearcher(w.reader())
    td = s.search("beta", n=10)
    assert sorted(td.docs.tolist()) == [0, 1, 4]
    # string query == query tree
    td2 = s.search(TermQuery(term="beta"), n=10)
    assert td2.to_list() == td.to_list()
    # empty commit is a no-op
    assert w.commit() == g2


def test_delete_ordering_matches_writer_contract(ray_session, tmp_path):
    """A delete affects only docs added BEFORE the call — committed or
    buffered — never docs added after (delete-queue ordering)."""
    from lucenenet_ray.api import IndexSearcher, IndexWriter

    w = IndexWriter(str(tmp_path / "w"), n_buckets=2)
    w.add_documents(_docs(["target one", "clean doc"]))
    w.commit()
    w.add_document({"text": "target two buffered"})   # buffered, pre-delete
    w.delete_documents("target")
    w.add_document({"text": "target three survives"})  # post-delete
    w.commit()

    td = IndexSearcher(w.reader()).search("target", n=10)
    # only the post-delete add survives; ids assign at commit, so the
    # buffer-deleted doc never consumed one (docIDs are ephemeral in the
    # reference too — compaction renumbers)
    assert td.docs.tolist() == [2]


def test_update_document_last_writer_wins(ray_session, tmp_path):
    from lucenenet_ray.api import IndexSearcher, IndexWriter

    w = IndexWriter(str(tmp_path / "w"), n_buckets=2,
                    extra_fields=(("source", "source", False),))
    w.add_document({"text": "old version alpha", "source": "k1"})
    w.add_document({"text": "other beta", "source": "k2"})
    w.commit()
    w.update_document(field_term("source", "k1"),
                      {"text": "new version alpha", "source": "k1"})
    w.commit()
    s = IndexSearcher(w.reader())
    td = s.search(TermQuery(term=field_term("source", "k1")), n=10)
    assert td.docs.tolist() == [2]  # the re-added doc, old one tombstoned
    assert IndexSearcher(w.reader()).search("version", n=10).docs.tolist() \
        == [2]


def test_force_merge_preserves_results_and_deletes(ray_session, tmp_path):
    from lucenenet_ray.api import IndexSearcher, IndexWriter
    from lucenenet_ray.index.merge_policy import TieredMergePolicy

    w = IndexWriter(str(tmp_path / "w"), n_buckets=2,
                    merge_policy=TieredMergePolicy(
                        max_merge_at_once_explicit=3))
    for i in range(4):
        w.add_documents(_docs([f"common t{i} alpha", f"common t{i} beta"]))
        w.commit()
    w.delete_documents("t1")
    before = IndexSearcher(w.reader()).search("common", n=20)
    assert w.num_shards == 4
    w.force_merge(1)
    assert w.num_shards == 1
    after = IndexSearcher(w.reader()).search("common", n=20)
    # same live docs; scores may differ because the merge RECLAIMS the
    # deletes (df/avgdl stop counting purged docs — reference behavior)
    assert sorted(after.docs.tolist()) == sorted(before.docs.tolist())
    assert 2 not in after.docs.tolist() and 3 not in after.docs.tolist()
    # merged shard starts with an empty tombstone log; a FRESH delete on
    # the merged index still works
    w.delete_documents("t2")
    td = IndexSearcher(w.reader()).search("common", n=20)
    assert {4, 5}.isdisjoint(td.docs.tolist())


def test_writer_reopen_persists_state(ray_session, tmp_path):
    from lucenenet_ray.api import IndexSearcher, IndexWriter

    root = str(tmp_path / "w")
    w = IndexWriter(root, n_buckets=2)
    w.add_documents(_docs(["alpha one", "beta two"]))
    w.commit()
    del w

    w2 = IndexWriter(root, n_buckets=2)
    assert w2.num_shards == 1
    w2.add_document({"text": "gamma three"})
    w2.commit()
    td = IndexSearcher(w2.reader()).search("gamma", n=10)
    assert td.docs.tolist() == [2]  # doc ids continue, no overlap


def test_stored_fields_doc_retrieval(ray_session, tmp_path):
    """IndexSearcher.Doc(docID): stored fields come back for hits, survive
    merges, and unknown ids return None."""
    from lucenenet_ray.api import IndexWriter
    from lucenenet_ray.index.merge_policy import TieredMergePolicy

    w = IndexWriter(str(tmp_path / "w"), n_buckets=2,
                    stored_fields=("text", "title"),
                    merge_policy=TieredMergePolicy(
                        max_merge_at_once_explicit=3))
    w.add_document({"text": "alpha beta", "title": "Doc Zero"})
    w.add_document({"text": "beta gamma", "title": "Doc One"})
    w.commit()
    w.add_document({"text": "gamma delta", "title": "Doc Two"})
    w.commit()

    s = w.searcher()
    hit = s.search("gamma", n=1).docs.tolist()[0]
    d = s.doc(hit)
    assert d["doc_id"] == hit and d["title"] in ("Doc One", "Doc Two")
    assert s.doc(0)["title"] == "Doc Zero"
    assert s.doc(999) is None
    assert s.doc(1, columns=["title"]) == {"title": "Doc One"}

    w.force_merge(1)
    assert w.num_shards == 1
    s2 = w.searcher()
    assert s2.doc(2)["text"] == "gamma delta"
    assert s2.doc(0)["title"] == "Doc Zero"


def test_force_merge_drops_fully_deleted_source(ray_session, tmp_path):
    """A source whose every doc is deleted is dropped inside the merge:
    the other source's survivors land in one merged shard with reclaimed
    stats, and the merge leaves no temporary index dirs."""
    import os

    from lucenenet_ray.api import IndexSearcher, IndexWriter

    root = str(tmp_path / "w")
    w = IndexWriter(root, n_buckets=2)
    w.add_documents(_docs(["gone alpha", "gone beta"]))
    w.commit()
    w.add_documents(_docs(["keep gamma", "gone delta", "keep epsilon"]))
    w.commit()
    w.delete_documents("gone")
    w.force_merge(1)

    assert w.num_shards == 1
    r = w.reader()
    assert r.num_docs == 2  # the tombstoned docs no longer count
    assert IndexSearcher(r).search("keep", n=10).docs.tolist() == [2, 4]
    assert IndexSearcher(r).search("gone", n=10).total_hits == 0
    shards = os.listdir(os.path.join(root, "shards"))
    assert not [d for d in shards if d.startswith(".exp_")]
    assert os.path.basename(w._m["shards"][0]["path"]).startswith("merged_")


def _del_files(deletes_dir):
    import glob
    import os

    return sorted(glob.glob(os.path.join(deletes_dir, "del-*.parquet")))


def test_buffered_deletes_write_one_generation_per_shard(ray_session,
                                                         tmp_path):
    """Deletes and updates between two commits reach each committed shard
    as ONE tombstone generation; the new shard gets none."""
    from lucenenet_ray.api import IndexSearcher, IndexWriter

    w = IndexWriter(str(tmp_path / "w"), n_buckets=2,
                    extra_fields=(("key", "key", False),))
    for i in range(2):
        w.add_documents([{"text": f"alpha s{i} d{j}", "key": f"k{i}{j}"}
                         for j in range(3)])
        w.commit()
    for k in ("k00", "k11", "k12"):
        w.delete_documents(field_term("key", k))
    for k in ("k01", "k10"):
        w.update_document(field_term("key", k),
                          {"text": f"beta {k}", "key": k})
    old = list(w._m["shards"])
    assert all(not _del_files(sh["deletes"]) for sh in old)  # buffered
    w.commit()
    assert [len(_del_files(sh["deletes"])) for sh in old] == [1, 1]
    assert not _del_files(w._m["shards"][-1]["deletes"])

    s = IndexSearcher(w.reader())
    assert sorted(s.search("alpha", n=20).docs.tolist()) == [2]
    assert sorted(s.search("beta", n=20).docs.tolist()) == [6, 7]


def test_pending_delete_is_hidden_by_reader_before_commit(ray_session,
                                                          tmp_path):
    from lucenenet_ray.api import IndexSearcher, IndexWriter

    w = IndexWriter(str(tmp_path / "w"), n_buckets=2)
    w.add_documents(_docs(["gone alpha", "keep alpha"]))
    w.commit()
    w.delete_documents("gone")
    assert not _del_files(w._m["shards"][0]["deletes"])
    td = IndexSearcher(w.reader()).search("alpha", n=10)
    assert td.docs.tolist() == [1]
    assert len(_del_files(w._m["shards"][0]["deletes"])) == 1


def test_pending_delete_is_applied_by_force_merge(ray_session, tmp_path):
    """A delete followed directly by a merge (no commit, no reader) is
    flushed first, so the merge drops the doc and reclaims its stats."""
    from lucenenet_ray.api import IndexSearcher, IndexWriter

    w = IndexWriter(str(tmp_path / "w"), n_buckets=2)
    w.add_documents(_docs(["gone alpha", "keep alpha"]))
    w.commit()
    w.add_documents(_docs(["keep beta", "gone beta"]))
    w.commit()
    w.delete_documents("gone")
    w.force_merge(1)
    assert w.num_shards == 1
    r = w.reader()
    assert r.num_docs == 2
    assert sorted(IndexSearcher(r).search("keep", n=10).docs.tolist()) == [1, 2]
    assert IndexSearcher(r).search("gone", n=10).total_hits == 0


def test_update_without_commit_leaves_old_doc_live(ray_session, tmp_path):
    """update_document is atomic at commit: a writer dropped after the
    update, before commit, leaves neither its delete nor its add."""
    from lucenenet_ray.api import IndexSearcher, IndexWriter

    root = str(tmp_path / "w")
    kw = {"n_buckets": 2, "extra_fields": (("key", "key", False),)}
    w = IndexWriter(root, **kw)
    w.add_documents([{"text": "old alpha", "key": "k1"},
                     {"text": "other beta", "key": "k2"}])
    w.commit()
    w.update_document(field_term("key", "k1"),
                      {"text": "new alpha", "key": "k1"})
    del w

    s = IndexSearcher(IndexWriter(root, **kw).reader())
    assert s.search(TermQuery(term=field_term("key", "k1")),
                    n=10).docs.tolist() == [0]
    assert s.search("old", n=10).docs.tolist() == [0]
    assert s.search("new", n=10).total_hits == 0


def test_buffered_delete_check_analyzes_each_doc_once(monkeypatch, tmp_path):
    """Deletes against buffered docs analyze each doc's analyzed columns at
    most once, however many delete calls follow."""
    import lucenenet_ray.analysis as analysis
    from lucenenet_ray.api import IndexWriter

    calls = []
    real = analysis.analyze

    def counted(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(analysis, "analyze", counted)
    w = IndexWriter(str(tmp_path / "w"),
                    extra_fields=(("title", "title", True),
                                  ("key", "key", False)))
    w.add_documents([{"text": f"body{i} common", "title": f"Head{i} Line",
                      "key": f"k{i}"} for i in range(6)])
    for i in range(4):
        w.delete_documents(f"nomatch{i}", field_term("title", f"nothere{i}"),
                           field_term("key", f"x{i}"))
    assert len(calls) == 12  # 6 docs × (text, title), not × 4 calls
    w.delete_documents("body1", field_term("title", "head2"),
                       field_term("key", "k3"))
    assert [d["key"] for d in w._buffer] == ["k0", "k4", "k5"]
    assert len(calls) == 12


def test_shard_bytes_do_not_depend_on_writer_root(ray_session, tmp_path):
    """The same docs committed under roots of different path length give
    shard dirs of equal byte totals: no manifest records its own path."""
    import os

    from lucenenet_ray.api import IndexWriter
    from lucenenet_ray.index.merge_policy import _dir_bytes

    totals = []
    for root in (tmp_path / "a", tmp_path / "a_much_longer_writer_root"):
        w = IndexWriter(str(root), n_buckets=2)
        w.add_documents(_docs(["alpha beta", "beta gamma", "gamma delta"]))
        w.commit()
        shard = w._m["shards"][0]["path"]
        with open(os.path.join(shard, "manifest.json")) as f:
            assert str(root) not in f.read()
        totals.append(_dir_bytes(shard))
    assert totals[0] == totals[1]


def test_writer_hparts_sizing():
    """Powers of two in [1, 8], monotone in the bytes: 1 for small
    inputs, 8 from n_buckets × 8 × the group size on."""
    from lucenenet_ray.index.build import WRITER_GROUP_BYTES as G
    from lucenenet_ray.index.build import writer_hparts

    for nb in (1, 4, 8):
        for small in (0, 1, 50 * 300, nb * G):
            assert writer_hparts(small, nb) == 1
        assert writer_hparts(nb * G + 1, nb) == 2
        assert writer_hparts(nb * 4 * G, nb) == 4
        sizes = [0] + [int(nb * G * 2 ** (e / 4)) for e in range(-8, 24)]
        got = [writer_hparts(n, nb) for n in sizes]
        assert all(h in (1, 2, 4, 8) for h in got)
        assert got == sorted(got)
        for n in (nb * 8 * G, nb * 8 * G + 1, nb * 1000 * G):
            assert writer_hparts(n, nb) == 8


def _postings_files(shard):
    import os

    return sorted(os.listdir(os.path.join(shard, "postings")))


def test_small_commit_writes_one_postings_file_per_bucket(ray_session,
                                                          tmp_path):
    import json
    import os

    from lucenenet_ray.api import IndexWriter

    w = IndexWriter(str(tmp_path / "w"), n_buckets=4)
    w.add_documents(_docs([f"common word{i} w{i % 7}" for i in range(50)]))
    w.commit()
    shard = w._m["shards"][0]["path"]
    with open(os.path.join(shard, "manifest.json")) as f:
        m = json.load(f)
    assert m["config"]["n_hparts"] == 1 and len(m["buckets"]) == 4
    assert _postings_files(shard) == [
        f"bucket={b:05d}_h00.parquet" for b in range(4)]


def test_mixed_hpart_shards_search_and_merge_like_one_build(
        ray_session, tmp_path, monkeypatch):
    """A writer holding an 8-hpart shard and a 1-hpart shard answers the
    same TopDocs before and after force_merge, bit-identical to one direct
    build of the same docs."""
    import json
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from conftest import SF_DIR
    from lucenenet_ray.api import IndexSearcher, IndexWriter
    from lucenenet_ray.index import build
    from lucenenet_ray.index.build import IndexConfig, build_index
    from lucenenet_ray.search.reader import IndexReader

    texts = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                          columns=["text"]).column("text").to_pylist()[:120]
    w = IndexWriter(str(tmp_path / "w"), n_buckets=4)
    w.add_documents(_docs(texts[:70]))
    with monkeypatch.context() as mp:  # a tiny group size forces 8 hparts
        mp.setattr(build, "WRITER_GROUP_BYTES", 1)
        w.commit()
    w.add_documents(_docs(texts[70:]))
    w.commit()

    def hparts():
        out = []
        for sh in w._m["shards"]:
            with open(os.path.join(sh["path"], "manifest.json")) as f:
                out.append(json.load(f)["config"]["n_hparts"])
        return out

    assert hparts() == [8, 1]
    assert len(_postings_files(w._m["shards"][0]["path"])) == 32

    direct = str(tmp_path / "direct")
    build_index(rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": texts})),
        IndexConfig(index_path=direct, id_min=0, id_max=len(texts) - 1,
                    n_buckets=4))
    want = IndexSearcher(IndexReader(direct))
    queries = ["spark window", '"batch merge"', "data", "vector AND dup",
               "sp*", "merge -window"]

    def check(s):
        for q in queries:
            a, b = want.search(q, n=10), s.search(q, n=10)
            assert np.array_equal(a.docs, b.docs), q
            assert a.scores.dtype == b.scores.dtype
            assert a.scores.tobytes() == b.scores.tobytes(), q
            assert a.total_hits == b.total_hits, q

    check(w.searcher())
    assert w.force_merge(1) == 1
    assert hparts() == [1]
    check(w.searcher())
