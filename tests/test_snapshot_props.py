"""Snapshot diff (CDC) + JSON props rollup."""

import numpy as np
import pyarrow as pa
import pytest

from lucenenet_ray.ops.neardup import md5_int31
from lucenenet_ray.ops.snapshot_diff import (STATUSES, _side_rows,
                                             snapshot_diff_counts)


def _docs(texts, parallelism=3):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": list(range(len(texts))), "text": texts})) \
        .repartition(parallelism)


def test_side_rows_membership_and_mutation():
    t = pa.table({"doc_id": list(range(40)), "text": ["x"] * 40})
    old = _side_rows(t, 0)
    new = _side_rows(t, 1)
    want_old = [d for d in range(40) if md5_int31(f"old:{d}") % 4 != 0]
    want_new = [d for d in range(40) if md5_int31(f"new:{d}") % 4 != 0]
    assert old.column("key").to_pylist() == want_old
    assert new.column("key").to_pylist() == want_new
    # changed docs differ in digest, others don't
    oh = dict(zip(old.column("key").to_pylist(),
                  old.column("h").to_pylist()))
    nh = dict(zip(new.column("key").to_pylist(),
                  new.column("h").to_pylist()))
    for d in set(oh) & set(nh):
        chg = md5_int31(f"chg:{d}") % 5 == 0
        assert (oh[d] != nh[d]) == chg


def test_diff_counts_match_bruteforce(ray_session):
    n = 120
    t = snapshot_diff_counts(_docs(["doc %d body" % i for i in range(n)], 5))
    got = dict(zip(t.column("status").to_pylist(),
                   t.column("n_docs").to_pylist()))
    want = {s: 0 for s in STATUSES}
    for d in range(n):
        in_old = md5_int31(f"old:{d}") % 4 != 0
        in_new = md5_int31(f"new:{d}") % 4 != 0
        chg = md5_int31(f"chg:{d}") % 5 == 0
        if in_old and in_new:
            want["changed" if chg else "unchanged"] += 1
        elif in_new:
            want["added"] += 1
        elif in_old:
            want["removed"] += 1
    assert got == want
    assert sum(got.values()) <= n and min(got.values()) >= 0
    assert t.column("status").to_pylist() == list(STATUSES)


def test_props_extract(ray_session):
    import ray.data as rd

    from lucenenet_ray.ops.cohort import props_extract_stats

    ds = rd.from_arrow(pa.table({
        "event_type": ["a", "a", "b", "a"],
        "value": [1.25, 2.0, 0.1, 3.0],
        "props": ['{"k": 5}', '{"k": 15}', '{"k": 5}', '{"k": 17}'],
    })).repartition(3)
    t = props_extract_stats(ds)
    rows = list(zip(t.column("event_type").to_pylist(),
                    t.column("k_bucket").to_pylist(),
                    t.column("n_events").to_pylist(),
                    t.column("value_centi_sum").to_pylist()))
    assert rows == [("a", 0, 1, 125), ("a", 1, 2, 500), ("b", 0, 1, 10)]


def test_group_split_no_leakage(ray_session):
    import ray.data as rd

    from lucenenet_ray.ops.domains import (group_split_counts,
                                           synth_domains)
    from lucenenet_ray.ops.neardup import md5_int31

    n = 400
    ds = rd.from_arrow(pa.table({"doc_id": list(range(n))})).repartition(5)
    t = group_split_counts(ds)
    rows = {s: (d, c) for s, d, c in zip(
        t.column("split").to_pylist(),
        t.column("n_domains").to_pylist(),
        t.column("n_docs").to_pylist())}
    # totals conserved
    assert sum(c for _d, c in rows.values()) == n
    # structural no-leakage: each domain maps to exactly one split
    doms = set(synth_domains(list(range(n))))
    per_split = {"train": set(), "val": set(), "test": set()}
    for dm in doms:
        b = md5_int31(f"gsplit:{dm}") % 10
        per_split["train" if b < 8 else ("val" if b == 8 else "test")].add(dm)
    assert {s: len(v) for s, v in per_split.items()} == {
        s: d for s, (d, _c) in rows.items()}
    assert t.column("split").to_pylist() == ["train", "val", "test"]


def test_revenue_by_nation_hand_worked(ray_session):
    import numpy as np
    import ray.data as rd

    from lucenenet_ray.ops.tpch_join import revenue_by_nation

    li = rd.from_arrow(pa.table({
        "l_orderkey": pa.array([1, 1, 2, 3], type=pa.int64()),
        "l_extendedprice": pa.array([100.0, 50.0, 10.0, 7.0]),
        "l_discount": pa.array([0.1, 0.0, 0.5, 0.0]),
    })).repartition(3)
    orders = rd.from_arrow(pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], type=pa.int64()),
        "o_custkey": pa.array([10, 11, 10, 11], type=pa.int64()),
    })).repartition(2)
    cust = pa.table({"c_custkey": pa.array([10, 11], type=pa.int64()),
                     "c_nationkey": pa.array([0, 1], type=pa.int64())})
    nat = pa.table({"n_nationkey": pa.array([0, 1], type=pa.int64()),
                    "n_name": pa.array(["ALPHA", "BETA"])})
    t = revenue_by_nation(li, orders, cust, nat)
    rows = dict(zip(t.column("n_name").to_pylist(),
                    t.column("rev_centi").to_pylist()))
    # order 1 -> cust10 (ALPHA): 90.00 + 50.00; order 3 -> ALPHA: 7.00
    # order 2 -> cust11 (BETA): 5.00; order 4: no lineitems
    assert rows == {"ALPHA": 14700, "BETA": 500}


def test_record_linkage_bruteforce(ray_session):
    import numpy as np
    import ray.data as rd

    from lucenenet_ray.ops.linkage import (SEGS, THRESH, W_AREA_A,
                                           W_AREA_D, W_SEG_A, W_SEG_D,
                                           _records, link_records)

    n = 200
    tbl = pa.table({
        "c_custkey": pa.array(list(range(n)), type=pa.int64()),
        "c_nationkey": pa.array([i % 25 for i in range(n)],
                                type=pa.int64()),
        "c_mktsegment": pa.array([SEGS[i % 5] for i in range(n)]),
        "c_acctbal": pa.array([float((i * 37) % 9000) for i in range(n)]),
    })
    got = link_records(rd.from_arrow(tbl).repartition(5))

    A = _records(tbl, "A")
    B = _records(tbl, "B")

    def rows(t):
        return list(zip(*[t.column(c).to_pylist()
                          for c in ("key", "bucket", "nation", "seg",
                                    "area")]))

    ra, rb = rows(A), rows(B)
    cand = match = tf = tb = 0
    for ka, ba_, na, sa, aa in ra:
        for kb, bb, nb, sb, ab in rb:
            if ba_ != bb or na != nb:
                continue
            cand += 1
            sc = ((W_AREA_A if aa == ab else W_AREA_D)
                  + (W_SEG_A if sa == sb else W_SEG_D))
            if sc >= THRESH:
                match += 1
                if ka == kb:
                    tf += 1
            if ka == kb:
                tb += 1
    total = len({k for k, *_ in ra} & {k for k, *_ in rb})
    want = (cand, match, tf, tb, total)
    assert tuple(got.column(c)[0].as_py() for c in (
        "n_candidates", "n_matches", "n_true_found",
        "n_true_in_blocks", "n_true_total")) == want
    assert total > tb > 0  # blocking recall loss is real and measured
