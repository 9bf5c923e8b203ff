"""Span tracing for the traced benchmark run, and the per-layer report.

``install()`` wraps each layer entry point in a span wrapper. Each wrapper is
patched where the calling module looks the name up (``index.build`` binds
``encode_postings`` at import, so the wrapper replaces that name in
``index.build``). The driver calls ``install()`` itself; Ray workers call it
through ``worker_setup``, Ray's ``worker_process_setup_hook``. Functions
that Ray pickles by reference resolve to the patched name in the worker.

Spans (name, start, end, parent, pid, rows/bytes) stay in memory. Hot
per-document and per-term calls (the analyzer, the postings encoder) are
folded into one aggregate child span per enclosing span instead of one span
per call. A worker appends its finished spans to ``spans-<pid>.jsonl`` in the
trace directory whenever a root span ends; the driver writes its spans when
the run ends. ``report()`` turns the span files into per-layer metrics.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import statistics
import time

ENV_DIR = "PERFBENCH_TRACE_DIR"

# (module, attribute path, span name, mode). mode "span" records one span per
# call; "agg" folds calls into the enclosing span's aggregate child.
PATCHES = (
    ("lucenenet_ray.pipelines.flagship", "dedup_latest_pages", "flagship.dedup", "span"),
    ("lucenenet_ray.extract.html", "ExtractHTML.__call__", "extract", "span"),
    ("lucenenet_ray.analysis.standard", "StandardAnalyzer.__call__", "analysis", "agg"),
    ("lucenenet_ray.index.build", "invert_batch_fn", "build.invert", "span"),
    ("lucenenet_ray.index.build", "_merge_write_group", "build.reduce_group", "span"),
    ("lucenenet_ray.index.build", "encode_postings", "codec.encode", "agg"),
    ("lucenenet_ray.index.build", "write_termstats", "build.termstats", "span"),
    ("lucenenet_ray.search.query", "parse_query", "query.parse", "span"),
    ("lucenenet_ray.search.searcher", "plan_query", "searcher.plan", "span"),
    ("lucenenet_ray.search.serve", "plan_query", "searcher.plan", "span"),
    ("lucenenet_ray.search.searcher", "score_bucket", "searcher.score_bucket", "span"),
    ("lucenenet_ray.search.serve", "QueryServer.search_plan", "serve.search_plan", "span"),
    ("lucenenet_ray.search.serve", "QueryServer.warm", "reader.warm", "span"),
    ("lucenenet_ray.api", "IndexWriter.commit", "api.commit", "span"),
    ("lucenenet_ray.api", "IndexWriter.update_document", "api.update", "span"),
    ("lucenenet_ray.api", "IndexWriter.maybe_merge", "api.merge", "span"),
    ("lucenenet_ray.api", "IndexWriter.searcher", "api.open", "span"),
)


class Tracer:
    """In-memory span recorder of one process."""

    def __init__(self, out_dir: str, flush_roots: bool):
        self.out_dir = out_dir
        self.flush_roots = flush_roots
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.n = 0

    def start(self, name: str, **attrs) -> dict:
        self.n += 1
        sp = {"id": f"{self.pid}:{self.n}", "name": name, "pid": self.pid,
              "parent": self.stack[-1]["id"] if self.stack else None,
              "start": time.perf_counter(), "agg": {}, **attrs}
        self.stack.append(sp)
        return sp

    def end(self, sp: dict, **attrs) -> None:
        sp["end"] = time.perf_counter()
        sp.update(attrs)
        while self.stack and self.stack[-1] is not sp:
            self.stack.pop()  # an exception unwound inner spans
        if self.stack:
            self.stack.pop()
        for name, (cnt, dur) in sp.pop("agg").items():
            self.n += 1
            self.spans.append({"id": f"{self.pid}:{self.n}", "name": name,
                               "pid": self.pid, "parent": sp["id"],
                               "start": sp["start"], "end": sp["start"] + dur,
                               "count": cnt, "folded": True})
        self.spans.append(sp)
        if self.flush_roots and not self.stack:
            self.flush()

    def add_agg(self, name: str, dur: float) -> None:
        if not self.stack:
            sp = self.start(name + ".root")
            sp["agg"][name] = [1, dur]
            self.end(sp)
            return
        a = self.stack[-1]["agg"].setdefault(name, [0, 0.0])
        a[0] += 1
        a[1] += dur

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as f:
            for sp in self.spans:
                f.write(json.dumps(sp) + "\n")
        self.spans = []


_TRACER: Tracer | None = None


def _meta(name: str, args: tuple, out) -> dict:
    if name == "extract":
        return {"rows": args[1].num_rows}
    if name == "build.invert":
        return {"rows": out.num_rows, "bytes": out.nbytes}
    return {}


def _wrap(fn, name: str, mode: str):
    if mode == "agg":
        @functools.wraps(fn)
        def agg(*args, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                if _TRACER is not None:
                    _TRACER.add_agg(name, time.perf_counter() - t0)
        agg.__perfbench_wrapped__ = fn
        return agg

    @functools.wraps(fn)
    def span(*args, **kw):
        tr = _TRACER
        if tr is None:
            return fn(*args, **kw)
        sp = tr.start(name)
        out = None
        try:
            out = fn(*args, **kw)
            return out
        finally:
            tr.end(sp, **(_meta(name, args, out) if out is not None else {}))
    span.__perfbench_wrapped__ = fn
    return span


def install(out_dir: str, flush_roots: bool) -> None:
    """Start recording in this process and patch every layer entry point."""
    global _TRACER
    if _TRACER is not None:
        return
    _TRACER = Tracer(out_dir, flush_roots)
    for mod_name, attr, name, mode in PATCHES:
        owner = importlib.import_module(mod_name)
        *path, leaf = attr.split(".")
        for p in path:
            owner = getattr(owner, p)
        fn = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        if hasattr(fn, "__perfbench_wrapped__"):
            continue
        setattr(owner, leaf, _wrap(fn, name, mode))


def uninstall() -> None:
    """Stop recording in this process and restore the patched names."""
    global _TRACER
    if _TRACER is None:
        return
    _TRACER = None
    for mod_name, attr, _name, _mode in PATCHES:
        owner = importlib.import_module(mod_name)
        *path, leaf = attr.split(".")
        for p in path:
            owner = getattr(owner, p)
        fn = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        if hasattr(fn, "__perfbench_wrapped__"):
            setattr(owner, leaf, fn.__perfbench_wrapped__)


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker process."""
    out_dir = os.environ.get(ENV_DIR)
    if out_dir:
        install(out_dir, flush_roots=True)


def span(name: str, **attrs):
    """Benchmark-side span (an operation of the workload); a no-op context
    when tracing is off. Returns the span dict so callers can add attrs."""
    return _Span(name, attrs)


class _Span:
    def __init__(self, name: str, attrs: dict):
        self.name, self.attrs, self.sp = name, attrs, None

    def __enter__(self) -> dict:
        if _TRACER is not None:
            self.sp = _TRACER.start(self.name, **self.attrs)
            return self.sp
        return dict(self.attrs)

    def __exit__(self, *exc) -> None:
        if self.sp is not None:
            _TRACER.end(self.sp)


def finish() -> None:
    """Write the driver's spans (end of the run) and stop tracing."""
    if _TRACER is not None:
        _TRACER.flush()
    uninstall()


# -- report --------------------------------------------------------------------

# Per-layer metrics: name -> (unit, end-to-end metric it should move).
LAYER_METRICS = {
    "flagship.dedup_s": ("s", "ops_per_cpu_s on build_*"),
    "flagship.dedup_rows_dropped": ("count", "(input check)"),
    "extract.busy_s": ("s", "ops_per_cpu_s on build_templated"),
    "extract.pages": ("count", "(work count)"),
    "analysis.busy_s": ("s", "ops_per_cpu_s on build_templated"),
    "build.invert_busy_s": ("s", "ops_per_cpu_s on build_*"),
    "build.invert_rows_out": ("count", "(exchange volume)"),
    "build.invert_bytes_out": ("B", "(exchange volume)"),
    "build.reduce_busy_s": ("s", "ops_per_cpu_s on build_zipf"),
    "build.reduce_max_group_s": ("s", "build wall time (detail build_wall_s) on build_zipf"),
    "build.term_rows": ("count", "index_bytes_per_doc, open_cpu_ms"),
    "build.termstats_s": ("s", "ops_per_cpu_s on build_*"),
    "build.idle_cpu_s": ("s", "build wall time (detail build_wall_s) on build_*"),
    "codec.encode_busy_s": ("s", "ops_per_cpu_s on build_zipf"),
    "codec.encode_calls": ("count", "ops_per_cpu_s on build_zipf"),
    "reader.warm_s": ("s", "open_cpu_ms on serve_mixed; serve_open_cpu_ms (detail) on build_*"),
    "query.parse_ms": ("ms", "query_cpu_ms"),
    "searcher.plan_ms": ("ms", "query_cpu_ms"),
    "searcher.score_ms": ("ms", "query_cpu_ms"),
    "searcher.score_or_ms": ("ms", "query_cpu_ms"),
    "searcher.score_and_ms": ("ms", "query_cpu_ms"),
    "searcher.score_phrase_ms": ("ms", "query_cpu_ms"),
    "searcher.score_prefix_ms": ("ms", "query_cpu_ms"),
    "searcher.inproc_pruned_ms": ("ms", "query_cpu_ms"),
    "searcher.inproc_exhaustive_ms": ("ms", "query_cpu_ms"),
    "serve.hop_ms": ("ms", "query_cpu_ms on serve_mixed; serve_query_cpu_ms (detail) on build_*"),
    "api.commit_s": ("s", "ops_per_cpu_s on update_nrt"),
    "api.update_ms": ("ms", "ops_per_cpu_s on update_nrt"),
    "api.merge_s": ("s", "ops_per_cpu_s on update_nrt"),
    "api.shards": ("count", "query_cpu_ms on update_nrt"),
    "api.open_ms": ("ms", "open_cpu_ms on update_nrt"),
    "multi_reader.first_query_ms": ("ms", "open_cpu_ms on update_nrt"),
    "multi_reader.query_ms": ("ms", "query_cpu_ms on update_nrt"),
}

def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for fn in sorted(os.listdir(trace_dir)):
        if fn.startswith("spans-") and fn.endswith(".jsonl"):
            with open(os.path.join(trace_dir, fn)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def write_span_file(trace_dir: str, path: str) -> None:
    with open(path, "w") as f:
        for sp in load_spans(trace_dir):
            f.write(json.dumps(sp) + "\n")


def _med(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def report(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one run's spans.

    Operations are the benchmark's own spans (``op.*``, all in the driver).
    Every other span is attributed to the operation that encloses it: by
    parent within the driver, by time for worker processes (one client
    thread runs one operation at a time). Build-layer numbers are means per
    index build over the timed builds (the set-up build when a workload
    times none); query-layer numbers are medians over timed queries."""
    by_id = {s["id"]: s for s in spans}
    ops = sorted((s for s in spans if s["name"].startswith("op.")),
                 key=lambda s: s["start"])
    starts = [o["start"] for o in ops]

    def op_of(s: dict) -> dict | None:
        p = s
        while p is not None and not p["name"].startswith("op."):
            p = by_id.get(p["parent"]) if p.get("parent") else None
        if p is not None:
            return p
        root = s
        while root.get("parent") in by_id:
            root = by_id[root["parent"]]
        i = bisect.bisect_right(starts, root["start"]) - 1
        while i >= 0:
            o = ops[i]
            if o["start"] <= root["start"] <= o["end"]:
                return o
            i -= 1
        return None

    children: dict[str, float] = {}
    for s in spans:
        if s.get("parent"):
            children[s["parent"]] = children.get(s["parent"], 0.0) + (
                s["end"] - s["start"])
    per_op: dict[str, list[dict]] = {}
    for s in spans:
        if s["name"].startswith("op."):
            continue
        o = op_of(s)
        if o is not None:
            per_op.setdefault(o["id"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_t(s):
        return dur(s) - children.get(s["id"], 0.0)

    m: dict[str, float] = {k: 0.0 for k in LAYER_METRICS}

    # -- build layers ------------------------------------------------------
    builds = [o for o in ops if o.get("builds") and o.get("phase") == "timed"]
    if not builds:
        builds = [o for o in ops if o.get("builds")]
    nb = max(1, len(builds))
    for o in builds:
        ss = per_op.get(o["id"], [])
        busy = 0.0
        groups = []
        for s in ss:
            n = s["name"]
            if n == "flagship.dedup":
                m["flagship.dedup_s"] += dur(s)
            elif n == "extract":
                m["extract.busy_s"] += self_t(s)
                m["extract.pages"] += s.get("rows", 0)
            elif n == "analysis" and by_id.get(s["parent"], {}).get("name") == "build.invert":
                m["analysis.busy_s"] += dur(s)
            elif n == "build.invert":
                m["build.invert_busy_s"] += self_t(s)
                m["build.invert_rows_out"] += s.get("rows", 0)
                m["build.invert_bytes_out"] += s.get("bytes", 0)
            elif n == "build.reduce_group":
                m["build.reduce_busy_s"] += dur(s)
                groups.append(dur(s))
            elif n == "codec.encode":
                m["codec.encode_busy_s"] += dur(s)
                m["codec.encode_calls"] += s.get("count", 0)
            elif n == "build.termstats":
                m["build.termstats_s"] += dur(s)
            if n in ("extract", "build.invert", "build.reduce_group") and s["pid"] != o["pid"]:
                busy += dur(s)
        m["build.reduce_max_group_s"] += max(groups, default=0.0)
        m["build.term_rows"] += o.get("term_rows", 0)
        m["flagship.dedup_rows_dropped"] += o.get("dedup_dropped", 0)
        m["build.idle_cpu_s"] += max(0.0, o.get("cpus", 0) * o.get("wall", dur(o)) - busy)
    for k in ("flagship.dedup_s", "flagship.dedup_rows_dropped", "extract.busy_s",
              "extract.pages", "analysis.busy_s", "build.invert_busy_s",
              "build.invert_rows_out", "build.invert_bytes_out",
              "build.reduce_busy_s", "build.reduce_max_group_s", "build.term_rows",
              "build.termstats_s", "build.idle_cpu_s", "codec.encode_busy_s",
              "codec.encode_calls"):
        m[k] /= nb

    # -- query layers -------------------------------------------------------
    queries = [o for o in ops if o["name"] == "op.query" and o.get("phase") == "timed"]
    parse, plan, score, hop = [], [], [], []
    by_cls: dict[str, list[float]] = {}
    first, rest = [], []
    for o in queries:
        ss = per_op.get(o["id"], [])
        p = sum(dur(s) for s in ss if s["name"] == "query.parse")
        pl = sum(dur(s) for s in ss if s["name"] == "searcher.plan")
        actor = [dur(s) for s in ss if s["name"] == "serve.search_plan"]
        sc = max(actor) if actor else sum(
            dur(s) for s in ss if s["name"] == "searcher.score_bucket")
        parse.append(p * 1e3)
        plan.append(pl * 1e3)
        score.append(sc * 1e3)
        by_cls.setdefault(o.get("cls", "?"), []).append(sc * 1e3)
        if o.get("after_reopen") is not None:
            (first if o["after_reopen"] else rest).append(dur(o) * 1e3)
    m["query.parse_ms"] = _med(parse)
    m["searcher.plan_ms"] = _med(plan)
    m["searcher.score_ms"] = _med(score)
    for cls in ("or", "and", "phrase", "prefix"):
        m[f"searcher.score_{cls}_ms"] = _med(by_cls.get(cls, []))
    # the pool's warm queries: timed on serve_mixed, the "serve" pass of a build
    for o in ops:
        if o["name"] != "op.query" or o.get("phase") not in ("timed", "serve"):
            continue
        ss = per_op.get(o["id"], [])
        actor = [dur(s) for s in ss if s["name"] == "serve.search_plan"]
        if actor:
            hop.append((dur(o) - sum(dur(s) for s in ss if s["name"] in (
                "query.parse", "searcher.plan")) - max(actor)) * 1e3)
    m["serve.hop_ms"] = _med(hop)
    m["multi_reader.first_query_ms"] = _med(first)
    m["multi_reader.query_ms"] = _med(rest)
    for prune, key in ((True, "searcher.inproc_pruned_ms"),
                       (False, "searcher.inproc_exhaustive_ms")):
        m[key] = _med([dur(o) * 1e3 for o in ops if o["name"] == "op.inproc"
                       and o.get("prune") is prune])

    # -- open / serve / api -------------------------------------------------
    warms = []
    for o in ops:
        if o["name"] == "op.open":
            w = [dur(s) for s in per_op.get(o["id"], []) if s["name"] == "reader.warm"]
            if w:
                warms.append(max(w))
    m["reader.warm_s"] = _med(warms)
    timed = [s for s in spans if not s["name"].startswith("op.")
             and (op_of(s) or {}).get("phase") == "timed"]
    for name, key, scale in (("api.commit", "api.commit_s", 1.0),
                             ("api.update", "api.update_ms", 1e3),
                             ("api.merge", "api.merge_s", 1.0),
                             ("api.open", "api.open_ms", 1e3)):
        m[key] = _med([dur(s) * scale for s in timed if s["name"] == name])
    shards = [o["shards"] for o in ops if "shards" in o]
    m["api.shards"] = float(shards[-1]) if shards else 0.0
    return m


def busy_shares(m: dict[str, float]) -> dict[str, float]:
    """Each build layer's share of the summed build busy time, from the
    metrics of ``report``."""
    parts = {
        "flagship.dedup_s": m["flagship.dedup_s"],
        "extract.busy_s": m["extract.busy_s"],
        "analysis.busy_s": m["analysis.busy_s"],
        "build.invert_busy_s": m["build.invert_busy_s"],
        "build.reduce_busy_s": m["build.reduce_busy_s"],
        "build.termstats_s": m["build.termstats_s"],
    }
    tot = sum(parts.values()) or 1.0
    return {k: v / tot for k, v in parts.items()}
