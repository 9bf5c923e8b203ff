"""Grouped facets (search/group_facets.py) — TermGroupFacetCollector
contract: distinct-group counts per facet value, minCount/size gates,
count-desc/value-asc vs value-asc ordering, missing-facet groups."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucenenet_ray.search.group_facets import group_facets

# doc layout: group g1 has docs in facets a+b, g2 in a, g3 in a (one doc
# with NO facet → g3 also feeds missing via doc 7), g4 ONLY missing.
DOCS = [
    # (doc_id, group, facet)
    (0, "g1", "a"), (1, "g1", "a"), (2, "g1", "b"),
    (3, "g2", "a"),
    (4, "g3", "a"), (5, "g3", None),
    (6, "g4", None), (7, "g4", ""),
]


@pytest.fixture(scope="module")
def docs_path(tmp_path_factory, ray_session):
    p = str(tmp_path_factory.mktemp("gf") / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([d for d, _, _ in DOCS], type=pa.int64()),
        "source": pa.array([g for _, g, _ in DOCS], type=pa.string()),
        "lang": pa.array([f for _, _, f in DOCS], type=pa.string()),
    }), p)
    return p


def test_counts_order_and_totals(docs_path):
    res = group_facets(range(8), docs_path)
    # a: g1,g2,g3 = 3 groups; b: g1 = 1 group
    assert res.entries == [("a", 3), ("b", 1)]
    assert res.total_count == 4          # sum of pair counts, pre-size
    assert res.total_missing_count == 2  # g3 (null) + g4 (null/empty)


def test_min_count_and_size(docs_path):
    res = group_facets(range(8), docs_path, min_count=2)
    assert res.entries == [("a", 3)]
    assert res.total_count == 4  # totalCount ignores minCount (ref :79)
    res = group_facets(range(8), docs_path, size=1)
    assert res.entries == [("a", 3)]


def test_order_by_value(docs_path):
    res = group_facets(range(8), docs_path, order_by_count=False)
    assert res.entries == [("a", 3), ("b", 1)]  # already lexicographic
    # tie case: restrict hits so a and b both have 1 group
    res = group_facets([2, 3], docs_path, order_by_count=True)
    assert res.entries == [("a", 1), ("b", 1)]  # tie → value asc


def test_hit_subset_and_prefix(docs_path):
    # only g1's docs hit → a:1, b:1
    res = group_facets([0, 2], docs_path)
    assert dict(res.entries) == {"a": 1, "b": 1}
    assert res.total_missing_count == 0
    res = group_facets(range(8), docs_path, facet_prefix="b")
    assert res.entries == [("b", 1)]
    assert res.total_count == 1  # prefix-filtered values don't count
    assert res.total_missing_count == 2  # prefix does NOT feed missing


def test_empty_hits(docs_path):
    res = group_facets([], docs_path)
    assert res.entries == [] and res.total_count == 0
    assert res.total_missing_count == 0
    t = res.to_table()
    assert t.num_rows == 0
    assert t.column_names == ["facet", "group_count", "total_count",
                              "missing_count"]


def test_driver_state_is_label_bounded(docs_path):
    """VERDICT r4 #3: the driver must only materialize the (facet, count)
    LABEL table — never the distinct (group, facet) pair set. Guard:
    every Dataset.take_all on the path returns at most
    |distinct facets| + 1 rows (the '' missing arm), even though the
    pair cardinality here (5) exceeds that bound (3)."""
    import ray.data

    ds_cls = ray.data.Dataset
    orig = ds_cls.take_all
    seen = []

    def guarded(self, *a, **kw):
        out = orig(self, *a, **kw)
        seen.append(len(out))
        return out

    ds_cls.take_all = guarded
    try:
        res = group_facets(range(8), docs_path)
    finally:
        ds_cls.take_all = orig
    assert res.entries == [("a", 3), ("b", 1)]
    n_labels = 3  # facets: a, b, '' (missing arm)
    assert seen and all(n <= n_labels for n in seen), seen


def test_numpy_hits_equal_generator_hits(docs_path):
    """A numpy id array and a generator of the same (unsorted) ids feed
    the collector the same hit set."""
    import numpy as np

    ids = [7, 2, 0, 5, 3]
    a = group_facets(np.array(ids, dtype=np.int64), docs_path)
    g = group_facets((i for i in ids), docs_path)
    assert a.entries == g.entries == [("a", 2), ("b", 1)]
    assert (a.total_count, a.total_missing_count) == \
        (g.total_count, g.total_missing_count)
