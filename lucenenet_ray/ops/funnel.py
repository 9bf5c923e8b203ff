"""Funnel analysis over an event log — the classic product-analytics
primitive (no reference analog; SURVEY §2.11 bonus family): how many
users reach each ordered step, where step i counts only if it happens
strictly AFTER the user's first completion of step i-1.

Ray shape: ONE hash shuffle (groupby(user_id).map_groups). Inside each
group the step cascade is a vectorized argsort + searchsorted pass, no
per-row Python beyond the step loop (len(steps) iterations). Output is
(step, n_users) — group-count-sized, never corpus-sized.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

DEFAULT_STEPS = ("view", "click", "purchase")


def user_funnel_depth(types: np.ndarray, ts: np.ndarray,
                      steps: tuple[str, ...]) -> int:
    """How many funnel steps this one user completed in order: step 0 at
    the user's earliest `steps[0]` event, each later step at its earliest
    occurrence STRICTLY after the previous step's timestamp."""
    t_prev = -np.inf
    depth = 0
    for step in steps:
        mask = types == step
        if depth > 0:
            mask &= ts > t_prev
        if not mask.any():
            break
        t_prev = ts[mask].min()
        depth += 1
    return depth


def funnel_group(t: pa.Table, steps: tuple[str, ...] = DEFAULT_STEPS
                 ) -> pa.Table:
    """One user's events → a single row (max step depth reached)."""
    types = np.asarray(t.column("event_type").to_pylist())
    ts = t.column("ts").cast(pa.int64()).to_numpy()
    depth = user_funnel_depth(types, ts, steps)
    return pa.table({
        "user_id": pa.array([t.column("user_id")[0].as_py()],
                            type=pa.int64()),
        "depth": pa.array([depth], type=pa.int64()),
    })


def funnel(ds, steps: tuple[str, ...] = DEFAULT_STEPS):
    """events Dataset → (step, step_ord, n_users) funnel counts."""
    depths = ds.groupby("user_id").map_groups(
        lambda t: funnel_group(t, steps), batch_format="pyarrow")
    # bounded-collect: depth-histogram rows (≤ n_steps)
    rows = depths.groupby("depth").count().take_all()
    by_depth = {int(r["depth"]): int(r["count()"]) for r in rows}
    total = 0
    out_step, out_ord, out_n = [], [], []
    # n_users at step i = users whose depth > i
    for i, step in enumerate(steps):
        n = sum(c for d, c in by_depth.items() if d > i)
        out_step.append(step)
        out_ord.append(i + 1)
        out_n.append(n)
        total += n
    return pa.table({
        "step": pa.array(out_step, type=pa.string()),
        "step_ord": pa.array(out_ord, type=pa.int64()),
        "n_users": pa.array(out_n, type=pa.int64()),
    })
