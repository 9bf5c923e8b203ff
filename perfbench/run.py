"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build_zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 \\
        --trace 1 --span-file spans.jsonl
    python3 perfbench/run.py --report spans.jsonl

The command works from any directory; it indexes the package checked out
next to this directory. It runs the workload in a child process in its own
session, with a wall-time limit, then stops every process of that session
and removes its private temp directory (``.pb/<pid>`` in the checkout).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken
from the span file of a traced run, and the run's own end-to-end numbers are
printed above them as the tracing overhead reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

WALL_LIMIT_S = 170.0
MAX_CPUS = 4

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_cpu_s": "1/s",
    "query_cpu_ms": "ms",
    "open_cpu_ms": "ms",
    "index_bytes_per_doc": "B",
}
# per-layer metrics every workload exercises (the trace report prints more)
PER_LAYER = (
    "extract.busy_s", "extract.pages", "analysis.busy_s",
    "build.invert_busy_s", "build.invert_rows_out", "build.invert_bytes_out",
    "build.reduce_busy_s", "build.reduce_max_group_s", "build.term_rows",
    "build.termstats_s", "build.idle_cpu_s", "codec.encode_busy_s",
    "codec.encode_calls", "query.parse_ms", "searcher.plan_ms",
    "searcher.score_ms", "searcher.score_or_ms", "searcher.score_and_ms",
    "searcher.score_phrase_ms", "searcher.score_prefix_ms",
    "searcher.inproc_pruned_ms", "searcher.inproc_exhaustive_ms",
)


def ray_cpus() -> int:
    """The engine's fixed CPU count: 4, or fewer if this process may use fewer."""
    return min(MAX_CPUS, len(os.sched_getaffinity(0)))


def layer_lines(m: dict[str, float]) -> list[str]:
    """The per-layer table of a traced run's metrics."""
    from perfbench import trace

    lines = ["per-layer metrics (traced run):"]
    for name, (unit, moves) in trace.LAYER_METRICS.items():
        lines.append(f"  {name:32s} {m[name]:14.4f} {unit:6s} -> {moves}")
    shares = trace.busy_shares(m)
    lines.append("build busy-time shares: " + ", ".join(
        f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    return lines


# -- the run inside its own session ------------------------------------------

def in_session(args) -> int:
    from perfbench import trace, workloads

    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(args.out, "trace")
        os.makedirs(trace_dir)
    out = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 args.out, ROOT, ray_cpus(), trace_dir)
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
             f"ray_cpus {ray_cpus()} trace {args.trace}"]
    lines.append("operations: " + ", ".join(
        f"{k} {v} attempted/{out.failed.get(k, 0)} failed"
        for k, v in sorted(out.attempted.items())))
    lines.append("checks: " + ", ".join(
        f"{k} {out.check_runs[k] - out.checks.get(k, 0)}/{out.check_runs[k]}"
        for k in sorted(out.check_runs)))
    label = "end-to-end (traced: tracing overhead reference)" if args.trace \
        else "end-to-end"
    lines.append(label + ": " + ", ".join(
        f"{k} {out.metrics.get(k, float('nan')):.4f} {u}"
        for k, u in END_TO_END.items()))
    lines.append("detail: " + ", ".join(f"{k} {v:.4g}" if isinstance(v, float)
                                        else f"{k} {v}"
                                        for k, v in sorted(out.extra.items())))
    if args.trace:
        if args.span_file:
            trace.write_span_file(trace_dir, args.span_file)
        lm = trace.report(trace.load_spans(trace_dir))
        lines.extend(layer_lines(lm))
        metrics = {k: {"value": lm[k], "unit": trace.LAYER_METRICS[k][0]}
                   for k in PER_LAYER}
    else:
        metrics = {k: {"value": out.metrics.get(k, float("nan")), "unit": u}
                   for k, u in END_TO_END.items()}
    bad = [k for k, v in metrics.items()
           if not isinstance(v["value"], (int, float)) or math.isnan(v["value"])]
    with open(os.path.join(args.out, "summary.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    if bad:
        print(f"perfbench: no value measured for {bad}", file=sys.stderr)
        return 1
    result = {"correct": out.correct,
              "attempted": sum(out.attempted.values()),
              "failed": sum(out.failed.values()),
              "metrics": metrics}
    with open(os.path.join(args.out, "result.json"), "w") as f:
        json.dump(result, f)
    return 0


# -- the supervisor -------------------------------------------------------------

def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            out.append(int(name))
    return out


def stop_session_processes(sid: int, grace_s: float) -> None:
    """Wait up to ``grace_s`` for the session to end, then kill what is left
    and wait until it is gone."""
    deadline = time.monotonic() + grace_s
    while session_pids(sid) and time.monotonic() < deadline:
        time.sleep(0.2)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = session_pids(sid)
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        while session_pids(sid) and time.monotonic() < deadline:
            time.sleep(0.1)


def supervise(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "lucenenet_ray", "__init__.py")):
        print(f"perfbench: no lucenenet_ray package next to {HERE}", file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".pb")
    tmp = os.path.join(base, f"{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    span_file = os.path.abspath(args.span_file) if args.span_file else None
    cmd = [sys.executable, os.path.abspath(__file__), "--in-session",
           "--out", tmp, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if span_file:
        cmd += ["--span-file", span_file]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, env.get("PYTHONPATH")) if p)
    try:
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                 start_new_session=True)
        try:
            rc = child.wait(timeout=WALL_LIMIT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {args.workload} exceeded the {WALL_LIMIT_S:.0f} s "
                  "wall-time limit; stopping it", file=sys.stderr)
            stop_session_processes(child.pid, 0.0)
            child.wait()
            return 3
        stop_session_processes(child.pid, 15.0)
        if rc != 0:
            print(f"perfbench: {args.workload} failed (exit {rc})", file=sys.stderr)
            return rc if rc > 0 else 1
        with open(os.path.join(tmp, "summary.txt")) as f:
            sys.stdout.write(f.read())
        with open(os.path.join(tmp, "result.json")) as f:
            result = json.load(f)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--span-file", help="keep the traced run's spans here")
    ap.add_argument("--report", metavar="SPAN_FILE",
                    help="print the per-layer metrics of a saved span file")
    ap.add_argument("--in-session", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.report:
        from perfbench import trace

        with open(args.report) as f:
            spans = [json.loads(line) for line in f if line.strip()]
        print("\n".join(layer_lines(trace.report(spans))))
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if args.in_session:
        return in_session(args)
    return supervise(args)


if __name__ == "__main__":
    sys.exit(main())
