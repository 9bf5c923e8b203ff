"""The reader's term dictionary (``search/reader.py`` ``TermDict``): the
row-group min/max ``term`` statistics route a lookup to the one row group
that can hold the term, a row group is read once per reader, and a file
without statistics, a split termstats dir and a warmed query actor give the
same answers as before."""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

N_DOCS, PER_DOC = 400, 25  # 10,000 distinct words


def _word(i: int) -> str:
    s = ""
    for _ in range(3):
        i, r = divmod(i, 26)
        s += chr(ord("a") + r)
    return "zq" + s


@pytest.fixture(scope="module")
def dict_index(ray_session, tmp_path_factory):
    """Two buckets, one hpart: each bucket's single postings file holds
    ~5,000 terms, so it has three row groups at ``row_group_size=2048``."""
    import ray.data as rd

    from lucenenet_ray.index.build import IndexConfig, build_index

    rows = [{"doc_id": d,
             "text": " ".join([_word(d + N_DOCS * j) for j in range(PER_DOC)]
                              + ["common"] + (["half"] if d % 2 else []))}
            for d in range(N_DOCS)]
    path = str(tmp_path_factory.mktemp("termdict") / "idx")
    build_index(rd.from_items(rows),
                IndexConfig(index_path=path, id_min=0, id_max=N_DOCS - 1,
                            n_buckets=2, n_hparts=1))
    return path


def _chunk_key(c):
    return (c.df, c.ttf, c.max_freq, c.max_norm, c.doc_bytes, c.freq_bytes,
            c.pos_bytes, c.block_max_norm.tolist(), c.docs().tolist())


def _postings_file(path, b):
    from lucenenet_ray.search.reader import IndexReader

    (f,) = IndexReader(path).bucket(b).postings_files
    return f


def _record_row_group_reads(monkeypatch):
    from lucenenet_ray.search import reader as reader_mod

    reads = []
    orig = reader_mod._open_parquet

    def opening(path):
        pf = orig(path)
        real = pf.read_row_groups

        def read_row_groups(groups, *a, **kw):
            reads.append((os.path.basename(path), list(groups)))
            return real(groups, *a, **kw)

        pf.read_row_groups = read_row_groups
        return pf

    monkeypatch.setattr(reader_mod, "_open_parquet", opening)
    return reads


def test_lookup_reads_only_the_row_group_that_holds_the_term(
        dict_index, monkeypatch):
    from lucenenet_ray.search.reader import IndexReader

    full = IndexReader(dict_index)
    reads = _record_row_group_reads(monkeypatch)
    for b in full.bucket_ids:
        f = _postings_file(dict_index, b)
        name = os.path.basename(f)
        pf = pq.ParquetFile(f)
        assert pf.metadata.num_row_groups >= 3
        groups = [pf.read_row_group(g, columns=["term"]).column("term")
                  .to_pylist() for g in range(pf.metadata.num_row_groups)]
        want = full.bucket(b).load_full()
        present = {}
        for g, terms in enumerate(groups):
            present[terms[0]] = present[terms[-1]] = g
        absent = ["", "a", "\U0010ffff"]  # below the min, above the max
        absent += [terms[-1] + "\x00" for terms in groups[:-1]]  # between
        for term, g in present.items():
            reads.clear()
            got = IndexReader(dict_index).bucket(b).chunks_for_terms([term])
            assert reads == [(name, [g])], term
            assert _chunk_key(got[term]) == _chunk_key(want[term])
        for term in absent:
            reads.clear()
            r = IndexReader(dict_index)
            r.bucket(b).bloom_path = None  # reach the dictionary itself
            assert r.bucket(b).chunks_for_terms([term]) == {}
            assert reads == [], term
        # a second lookup in a row group that was read reads nothing
        r = IndexReader(dict_index)
        r.bucket(b).chunks_for_terms([groups[1][0]])
        reads.clear()
        got = r.bucket(b).chunks_for_terms([groups[1][1], groups[1][-1]])
        assert reads == [] and len(got) == 2


def test_file_without_statistics_finds_every_term(dict_index, tmp_path):
    from lucenenet_ray.search.reader import IndexReader

    bare = str(tmp_path / "bare")
    shutil.copytree(dict_index, bare)
    for b in (0, 1):
        f = _postings_file(bare, b)
        pq.write_table(pq.read_table(f), f, row_group_size=2048,
                       write_statistics=False)
        md = pq.ParquetFile(f).metadata
        assert md.num_row_groups >= 3
        assert all(md.row_group(0).column(j).statistics is None
                   for j in range(md.num_columns))
    want, got = IndexReader(dict_index), IndexReader(bare)
    for b in want.bucket_ids:
        full = want.bucket(b).load_full()
        found = got.bucket(b).chunks_for_terms(list(full))
        assert found.keys() == full.keys()
        for t in full:
            assert _chunk_key(found[t]) == _chunk_key(full[t]), t


def test_split_termstats_dir_gives_the_same_stats(dict_index, tmp_path):
    from lucenenet_ray.search.reader import IndexReader

    split = str(tmp_path / "split")
    shutil.copytree(dict_index, split)
    ts = os.path.join(split, "termstats")
    (one,) = os.listdir(ts)
    t = pq.read_table(os.path.join(ts, one))
    os.remove(os.path.join(ts, one))
    # interleaved halves: both files span the whole term range
    odd = pc.equal(pc.bit_wise_and(pa.array(range(t.num_rows)), 1), 1)
    pq.write_table(t.filter(pc.invert(odd)), os.path.join(ts, "part-0.parquet"))
    pq.write_table(t.filter(odd), os.path.join(ts, "part-1.parquet"))
    terms = t.column("term").to_pylist() + ["", "absent", "zz\U0010ffff"]
    a, b = IndexReader(dict_index), IndexReader(split)
    want = a.term_stats(terms)
    assert len(want) == t.num_rows
    assert b.term_stats(terms) == want
    for lo, hi in [("zqa", "zqb"), (None, "half"), ("half", None),
                   ("zqaab", "zqaac")]:
        assert (b.terms_in_range(lo, hi) == a.terms_in_range(lo, hi)
                == sorted(x for x in t.column("term").to_pylist()
                          if (lo is None or x >= lo)
                          and (hi is None or x < hi)))


def test_warm_builds_no_postings_chunk(dict_index, monkeypatch):
    from lucenenet_ray.search.query import parse_query
    from lucenenet_ray.search.reader import IndexReader, PostingsChunk
    from lucenenet_ray.search.searcher import plan_query, search
    from lucenenet_ray.search.serve import QueryServer

    made = []
    orig = PostingsChunk.__init__

    def counting(self, *a, **kw):
        made.append(1)
        orig(self, *a, **kw)

    monkeypatch.setattr(PostingsChunk, "__init__", counting)
    reader = IndexReader(dict_index)
    server = QueryServer(dict_index, reader.bucket_ids)
    n = server.warm()
    assert made == []
    assert n == sum(b["n_terms"] for b in reader.manifest["buckets"])
    q = parse_query("half " + _word(3))
    d, s, total = server.search_plan(plan_query(reader, q), 10, prune=False)
    assert 0 < len(made) <= 2 * len(reader.bucket_ids)
    td = search(reader, q, k=10)
    assert d.tolist() == td.docs.tolist() and s.tolist() == td.scores.tolist()
    assert total == td.total_hits
