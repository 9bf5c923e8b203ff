"""Quality benchmark analog (QualityStats.cs semantics via quality_eval)."""


def test_quality_eval_invariants(ray_session):
    import importlib

    m = importlib.import_module("__ray_entry__")
    t = m.queries()["quality_eval"]("/root/testdata/sf0.001")
    rows = t.to_pylist()
    assert len(rows) == 8
    for r in rows:
        assert 1 <= r["num_ret"] <= 20
        assert 0 <= r["mrr_rank"] <= 5
        assert r["p5_num"] <= min(5, r["num_ret"])
        assert r["p10_num"] <= min(10, r["num_ret"])
        assert r["p5_num"] <= r["p10_num"] <= r["good_total"]
        assert r["good_total"] <= r["num_rel"]
        # AvP numerator only when something relevant was found
        assert (r["avp_scaled"] > 0) == (r["good_total"] > 0)
        # first relevant inside top-5 iff cumulative count at 5 is > 0
        assert (r["mrr_rank"] > 0) == (r["p5_num"] > 0)
