"""Numeric doc-values: base column, update log, field sort, expressions.

Reference semantics: ``IndexWriter.UpdateNumericDocValues``
(Index/IndexWriter.cs:1764-1796), stacked update generations
(ReaderAndUpdates.cs), ``TopFieldCollector`` numeric sort, and
``Lucene.Net.Expressions`` JavascriptCompiler/SimpleBindings
(Tests: TestNumericDocValuesUpdates.cs, TestExpressionSorts.cs,
JS/TestJavascriptCompiler.cs).
"""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from tests.conftest import SF_DIR


@pytest.fixture(scope="module")
def dv_index(documents_index):
    """documents index + docvalues built for n_chars (index_documents builds
    them as part of the standard path)."""
    path, manifest = documents_index
    assert os.path.exists(os.path.join(path, "docvalues"))
    return path


def _base_n_chars():
    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "n_chars"])
    return dict(zip(t.column("doc_id").to_pylist(),
                    t.column("n_chars").to_pylist()))


def test_base_docvalues_match_source(dv_index):
    from lucenenet_ray.search.reader import IndexReader

    r = IndexReader(dv_index)
    want = _base_n_chars()
    seen = 0
    for b in r.bucket_ids:
        bd = r.bucket(b)
        doc_ids = bd.norms()[0]
        vals = r.numeric_docvalues(b, "n_chars")
        for d, v in zip(doc_ids, vals):
            assert int(v) == want[int(d)]
            seen += 1
    assert seen == len(want)


def test_update_overrides_matching_docs(dv_index, corpus, tmp_path):
    from lucenenet_ray.index.docvalues import update_numeric_docvalue
    from lucenenet_ray.search.reader import IndexReader

    docs, _texts, toks = corpus
    udir = str(tmp_path / "dvu")
    update_numeric_docvalue(udir, "dup", "n_chars", 7)
    r = IndexReader(dv_index, dv_updates_path=udir)
    want = _base_n_chars()
    expected_updated = {d for d in docs if "dup" in toks[d]}
    assert expected_updated, "test corpus must contain 'dup' docs"
    got_updated = set()
    for b in r.bucket_ids:
        bd = r.bucket(b)
        doc_ids = bd.norms()[0]
        vals = r.numeric_docvalues(b, "n_chars")
        for d, v in zip(doc_ids, vals):
            if int(v) == 7 and want[int(d)] != 7:
                got_updated.add(int(d))
            elif int(d) not in expected_updated:
                assert int(v) == want[int(d)]
    assert got_updated == expected_updated


def test_later_generation_wins(dv_index, corpus, tmp_path):
    from lucenenet_ray.index.docvalues import update_numeric_docvalue
    from lucenenet_ray.search.reader import IndexReader

    docs, _texts, toks = corpus
    udir = str(tmp_path / "dvu2")
    update_numeric_docvalue(udir, "dup", "n_chars", 100)
    update_numeric_docvalue(udir, "dup", "n_chars", 200)
    r = IndexReader(dv_index, dv_updates_path=udir)
    dup_docs = {d for d in docs if "dup" in toks[d]}
    for b in r.bucket_ids:
        bd = r.bucket(b)
        doc_ids = bd.norms()[0]
        vals = r.numeric_docvalues(b, "n_chars")
        for d, v in zip(doc_ids, vals):
            if int(d) in dup_docs:
                assert int(v) == 200


def test_sort_by_docvalue_oracle(dv_index, corpus):
    from lucenenet_ray.search.query import TermQuery
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import search_sorted_by_docvalue

    docs, _texts, toks = corpus
    want_nc = _base_n_chars()
    matches = [d for d in docs if "spark" in toks[d]]
    expect = sorted(((d, want_nc[d]) for d in matches),
                    key=lambda x: (-x[1], x[0]))[:15]
    r = IndexReader(dv_index)
    got = search_sorted_by_docvalue(r, TermQuery(term="spark"), "n_chars",
                                    k=15, reverse=True)
    assert got == expect


def test_sort_ascending(dv_index, corpus):
    from lucenenet_ray.search.query import TermQuery
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import search_sorted_by_docvalue

    docs, _texts, toks = corpus
    want_nc = _base_n_chars()
    matches = [d for d in docs if "spark" in toks[d]]
    expect = sorted(((d, want_nc[d]) for d in matches),
                    key=lambda x: (x[1], x[0]))[:10]
    r = IndexReader(dv_index)
    got = search_sorted_by_docvalue(r, TermQuery(term="spark"), "n_chars",
                                    k=10, reverse=False)
    assert got == expect


# ---------------------------------------------------------------------------
# expressions


def test_expression_arithmetic():
    from lucenenet_ray.search.expressions import compile_expression

    e = compile_expression("2 + 3 * 4 - 1")
    assert e.evaluate({}) == 13.0
    e = compile_expression("(2 + 3) * 4")
    assert e.evaluate({}) == 20.0
    e = compile_expression("-x + 10")
    assert e.evaluate({"x": 4.0}) == 6.0
    e = compile_expression("x % 3")
    assert e.evaluate({"x": 10.0}) == 1.0


def test_expression_functions_and_vars():
    from lucenenet_ray.search.expressions import compile_expression

    e = compile_expression("sqrt(x) + ln(y)")
    assert e.variables == ("x", "y")
    v = e.evaluate({"x": np.array([4.0, 9.0]), "y": np.array([1.0, np.e])})
    assert np.allclose(v, [2.0, 4.0])
    e = compile_expression("min(a, b) + max(a, b)")
    assert e.evaluate({"a": 3.0, "b": 5.0}) == 8.0
    e = compile_expression("pow(2, 10)")
    assert e.evaluate({}) == 1024.0


def test_expression_ternary_comparison_boolean():
    from lucenenet_ray.search.expressions import compile_expression

    e = compile_expression("x > 5 ? 100 : 1")
    assert e.evaluate({"x": 7.0}) == 100.0
    assert e.evaluate({"x": 3.0}) == 1.0
    e = compile_expression("(x > 1 && x < 10) || x == 42")
    assert e.evaluate({"x": 5.0}) == 1.0
    assert e.evaluate({"x": 42.0}) == 1.0
    assert e.evaluate({"x": 11.0}) == 0.0
    e = compile_expression("!(x == 0)")
    assert e.evaluate({"x": 0.0}) == 0.0


def test_expression_errors():
    from lucenenet_ray.search.expressions import compile_expression

    with pytest.raises(ValueError):
        compile_expression("1 +")
    with pytest.raises(ValueError):
        compile_expression("nosuchfn(1)")
    with pytest.raises(ValueError):
        compile_expression("min(1)")
    e = compile_expression("bogusvar + 1")
    with pytest.raises(KeyError):
        e.evaluate({})


def test_numeric_range_filter(dv_index, corpus):
    """NumericDocValuesRangeQuery as a MUST clause: matches = term docs with
    n_chars in range; score = bm25 + 1.0f constant."""
    from lucenenet_ray.search.query import (
        BooleanClause,
        BooleanQuery,
        NumericDocValuesRangeQuery,
        Occur,
        TermQuery,
    )
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import search

    docs, _texts, toks = corpus
    want_nc = _base_n_chars()
    r = IndexReader(dv_index)
    base = search(r, TermQuery(term="spark"), k=r.num_docs)
    expect = {}
    for d, s in base.to_list():
        if 300 <= want_nc[d] <= 449:
            expect[d] = np.float32(np.float32(s) + np.float32(1.0))
    q = BooleanQuery(clauses=(
        BooleanClause(Occur.MUST, TermQuery(term="spark")),
        BooleanClause(Occur.MUST, NumericDocValuesRangeQuery(
            field="n_chars", lower=300, upper=449)),
    ))
    td = search(r, q, k=r.num_docs)
    got = dict(td.to_list())
    assert got == {d: float(v) for d, v in expect.items()}


def test_numeric_range_sees_dv_updates(dv_index, corpus, tmp_path):
    """Range filter over UPDATED values: docs pushed out of / into range by
    an update generation are excluded / included."""
    from lucenenet_ray.index.docvalues import update_numeric_docvalue
    from lucenenet_ray.search.query import NumericDocValuesRangeQuery
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import search

    docs, _texts, toks = corpus
    want_nc = _base_n_chars()
    udir = str(tmp_path / "dvu3")
    update_numeric_docvalue(udir, "dup", "n_chars", 10_000)
    r = IndexReader(dv_index, dv_updates_path=udir)
    td = search(r, NumericDocValuesRangeQuery(field="n_chars", lower=10_000),
                k=r.num_docs)
    dup_docs = {d for d in docs if "dup" in toks[d]}
    base_hits = {d for d in docs if want_nc[d] >= 10_000}
    assert set(int(d) for d in td.docs) == dup_docs | base_hits
    assert dup_docs, "corpus must contain dup docs"


def test_expression_sort_matches_manual(dv_index, corpus):
    from lucenenet_ray.search.expressions import expression_sort
    from lucenenet_ray.search.query import TermQuery
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.searcher import search

    r = IndexReader(dv_index)
    q = TermQuery(term="spark")
    td = search(r, q, k=r.num_docs)
    want_nc = _base_n_chars()
    manual = {}
    for d, s in td.to_list():
        manual[d] = np.float64(np.float32(s)) + np.sqrt(
            np.float64(want_nc[d])) / np.float64(100.0)
    expect = sorted(manual.items(), key=lambda x: (-x[1], x[0]))[:12]
    got = expression_sort(r, q, "_score + sqrt(n_chars) / 100", k=12)
    assert [(d, float(v)) for d, v in expect] == got


def test_docvalues_load_without_read_schema(tmp_path, monkeypatch):
    """Numeric and binary doc values load with ``pq.read_schema`` unusable
    (each call leaks native memory in pyarrow 16.1); docs without a value
    and a field the docvalues file lacks read 0 / b""."""
    import pyarrow as pa

    from lucenenet_ray.search.reader import BucketData

    norms = str(tmp_path / "norms.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([3, 5, 9], type=pa.int64()),
        "doc_len": pa.array([1, 1, 1], type=pa.int32()),
        "norm": pa.array([1, 1, 1], type=pa.int32())}), norms)
    dv = str(tmp_path / "docvalues.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([5, 9, 11], type=pa.int64()),
        "n": pa.array([50, 90, 110], type=pa.int64()),
        "head": pa.array([b"five", b"nine", b"x"], type=pa.binary())}), dv)

    def no_schema(*_a, **_kw):
        raise AssertionError("pq.read_schema called")

    monkeypatch.setattr(pq, "read_schema", no_schema)
    bd = BucketData(0, norms, {}, 1, docvalues_path=dv)
    assert bd.docvalues("n").tolist() == [0, 50, 90]
    assert bd.binary_docvalues("head").tolist() == [b"", b"five", b"nine"]
    assert bd.docvalues("absent").tolist() == [0, 0, 0]
    assert bd.binary_docvalues("absent").tolist() == [b"", b"", b""]
