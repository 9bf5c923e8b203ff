"""The benchmark's workloads, run against the engine in its own Ray session.

One client thread drives each workload in a closed loop: an operation is
issued only after the previous one returned. ``run_workload`` returns the
end-to-end metrics, per-type operation counts and the outcome of every
correctness check.

The timed end-to-end metrics are CPU time, not wall time: on a shared host
the wall time of the same run moves by up to 2x with the load of other
guests, while the kernel leaves the time the host takes a CPU away (steal)
out of a process's CPU time. Work the engine runs in Ray workers is counted
with ``session_cpu_s`` (every process of the run's session), work it runs in
the driver with ``time.process_time`` (every thread of the driver). Wall
times (``time.perf_counter``) are kept beside them in ``extra``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from perfbench import gen, oracle, trace

N_BUCKETS = 8
N_HPARTS = 4
SERVE_ACTORS = 2
SERVE_SLICE = 100   # queries per CPU-time sample of serve_mixed
OBJECT_STORE_BYTES = 400 * 1024 * 1024


@dataclass
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    templated: gen.CorpusSpec = gen.TEMPLATED
    zipf: gen.CorpusSpec = gen.ZIPF
    serve_urls: int = 200
    serve_queries: int = 1000
    check_queries: int = 64         # on the last built index, in-process
    opens: int = 20                 # fresh readers opened on it
    query_passes: int = 8           # timed passes over the check queries
    inproc_checks: int = 150        # serve_mixed queries re-run in-process
    update: gen.UpdateSpec = gen.UPDATE


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    checks: dict[str, int] = field(default_factory=dict)   # name -> failures
    check_runs: dict[str, int] = field(default_factory=dict)

    def op(self, kind: str, fn, *args, **kw):
        """Run one operation of ``kind``; a raised error counts as failed."""
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        try:
            return fn(*args, **kw)
        except Exception:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            traceback.print_exc()
            return None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.check_runs[name] = self.check_runs.get(name, 0) + 1
        if not ok:
            self.checks[name] = self.checks.get(name, 0) + 1
            if self.checks[name] <= 3:
                print(f"CHECK FAILED {name}: {detail}", flush=True)

    @property
    def correct(self) -> bool:
        return not self.checks


# -- process accounting --------------------------------------------------------

def peak_rss_mb() -> float:
    """Largest VmHWM of this driver and of the Ray workers in its session."""
    sid = os.getsid(0)
    best = 0
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        pid = int(name)
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            if int(fields[3]) != sid:
                continue
            if pid != os.getpid():
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    cmd = f.read()
                if b"default_worker.py" not in cmd and not cmd.startswith(b"ray::"):
                    continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        best = max(best, int(line.split()[1]))
        except (OSError, IndexError, ValueError):
            continue
    return best / 1024.0


CLK_TCK = os.sysconf("SC_CLK_TCK")
# (pid, start time) -> user + system ticks when last seen
_cpu_seen: dict[tuple[int, int], int] = {}


def session_cpu_s() -> float:
    """CPU seconds used so far by this session's processes: the driver, Ray's
    daemons and workers. Ray reaps the workers it stops without adding their
    time to its own, so a process that has exited counts with the CPU time it
    had when this was last called."""
    sid = os.getsid(0)
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            _cpu_seen[(int(name), int(fields[19]))] = int(fields[11]) + int(fields[12])
    return sum(_cpu_seen.values()) / CLK_TCK


class Rss:
    def __init__(self) -> None:
        self.peak = 0.0

    def sample(self) -> None:
        self.peak = max(self.peak, peak_rss_mb())


# -- the engine's session ------------------------------------------------------

def start_session(root: str, tmp: str, cpus: int, trace_dir: str | None) -> None:
    """A local Ray session with ``cpus`` CPUs whose workers import the
    checked-out package (and trace, when ``trace_dir`` is set)."""
    import logging

    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    runtime_env = None
    if trace_dir:
        runtime_env = {"worker_process_setup_hook": "perfbench.trace.worker_setup",
                       "env_vars": {trace.ENV_DIR: trace_dir}}
    kw = {}
    # AF_UNIX socket paths are limited to 107 bytes and Ray nests its sockets
    # 63 bytes below its temp dir; below a deeper checkout Ray keeps its own
    if len(tmp) <= 44:
        kw["_temp_dir"] = tmp
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             runtime_env=runtime_env, **kw)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_session() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


# -- shared pieces -------------------------------------------------------------

def write_pages(pages, path: str) -> str:
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    pq.write_table(pages, os.path.join(path, "part-0.parquet"),
                   row_group_size=512)
    return path


def build_once(pages: str, index: str, out: Outcome, cpus: int, phase: str):
    """One flagship build; returns (manifest, wall seconds, CPU seconds of
    the session) or None."""
    from lucenenet_ray.pipelines import flagship

    shutil.rmtree(index, ignore_errors=True)
    with trace.span("op.build", phase=phase, builds=True, cpus=cpus) as sp:
        c0, t0 = session_cpu_s(), time.perf_counter()
        m = out.op("build", flagship.index_pages, pages, index,
                   n_buckets=N_BUCKETS, n_hparts=N_HPARTS)
        wall = time.perf_counter() - t0
        cpu = session_cpu_s() - c0
        if m is not None:
            import pyarrow.parquet as pq

            rows = pq.read_metadata(os.path.join(pages, "part-0.parquet")).num_rows
            sp["wall"] = wall
            sp["term_rows"] = sum(b["n_terms"] for b in m["buckets"])
            sp["dedup_dropped"] = rows - m["n_docs"]
    return None if m is None else (m, wall, cpu)


def check_build(m: dict, index: str, corpus: gen.Corpus, orc: oracle.Bm25Oracle,
                terms: list[str], out: Outcome) -> None:
    from lucenenet_ray.search.reader import IndexReader

    out.check("n_docs", m["n_docs"] == corpus.n_urls,
              f"{m['n_docs']} != {corpus.n_urls}")
    dropped = corpus.pages.num_rows - m["n_docs"]
    out.check("dedup_dropped", dropped == corpus.n_dup_rows,
              f"{dropped} != {corpus.n_dup_rows}")
    got = IndexReader(index).term_stats(terms)
    for t in terms:
        exp = orc.term_stats(t)
        out.check("term_stats", tuple(got.get(t, (0, 0))) == exp,
                  f"{t}: {got.get(t)} != {exp}")


def check_result(q: gen.BenchQuery, td, expected, out: Outcome,
                 exact_total: bool) -> None:
    docs = td.docs.tolist()
    ok = oracle.same_top(expected, docs, td.scores)
    out.check(f"top10_{q.cls}", ok,
              f"{q.text}: {docs[:3]} vs {expected[0][:3]}")
    if exact_total or q.cls != "or":
        out.check(f"total_hits_{q.cls}", td.total_hits == expected[2],
                  f"{q.text}: {td.total_hits} != {expected[2]}")


def same_topdocs(a, b) -> bool:
    return (np.array_equal(a.docs, b.docs)
            and np.array_equal(np.asarray(a.scores, np.float32).view(np.int32),
                               np.asarray(b.scores, np.float32).view(np.int32)))


def query_inproc(reader, q: gen.BenchQuery, out: Outcome, phase: str):
    """One exhaustive in-process query; returns (TopDocs or None, seconds)."""
    from lucenenet_ray.search import query as qmod
    from lucenenet_ray.search.searcher import search

    def run():
        return search(reader, qmod.parse_query(q.text), k=10)

    with trace.span("op.query", phase=phase, cls=q.cls):
        t0 = time.perf_counter()
        td = out.op("query", run)
        dt = time.perf_counter() - t0
    return td, dt


def prune_pair(reader, q: gen.BenchQuery, out: Outcome, phase: str, flip: bool):
    """The OR query in-process with pruning on and off (order alternates)."""
    from lucenenet_ray.search import query as qmod
    from lucenenet_ray.search.searcher import search

    parsed = qmod.parse_query(q.text)
    res = {}
    for prune in ((False, True) if flip else (True, False)):
        with trace.span("op.inproc", phase=phase, prune=prune):
            res[prune] = out.op("query", search, reader, parsed, k=10, prune=prune)
    if res[True] is not None and res[False] is not None:
        out.check("pruned_eq_exhaustive", same_topdocs(res[True], res[False]),
                  q.text)


def pick_checks(queries: list[gen.BenchQuery], n: int) -> list[gen.BenchQuery]:
    """``n`` queries, classes round-robin, first of each class first."""
    by = {c: [q for q in queries if q.cls == c] for c, _ in gen.QUERY_SHARES}
    picked = []
    i = 0
    while len(picked) < n and any(by.values()):
        for c, _ in gen.QUERY_SHARES:
            if i < len(by[c]) and len(picked) < n:
                picked.append(by[c][i])
        i += 1
    return picked


def committed_shards(writer_root: str) -> list[dict]:
    """The shards of the writer's last commit, from its manifest on disk."""
    import json

    with open(os.path.join(writer_root, "writer_manifest.json")) as f:
        return json.load(f)["shards"]


def med(xs) -> float:
    return float(statistics.median(xs)) if xs else float("nan")


# -- workloads -----------------------------------------------------------------

@dataclass
class Inputs:
    """A workload's generated inputs and their expected outputs."""

    corpus: gen.Corpus | None = None
    orc: oracle.Bm25Oracle | None = None
    terms: list[str] = field(default_factory=list)
    queries: list[gen.BenchQuery] = field(default_factory=list)
    expected: dict = field(default_factory=dict)
    pages: str = ""
    warm_pages: str = ""
    index: str = ""
    script: gen.UpdateScript | None = None
    root: str = ""
    seed: int = 0


def prepare_build(kind: str, seed: int, sizes: Sizes, tmp: str) -> Inputs:
    spec = sizes.templated if kind == "build_templated" else sizes.zipf
    corpus = gen.make_corpus(seed, spec, kind)
    orc = oracle.Bm25Oracle(corpus.tokens)
    checks = pick_checks(gen.make_queries(seed, corpus.tokens, 400,
                                          or_terms=(2, 2), prefix_len=(3, 3)),
                         sizes.check_queries)
    head = gen.rank_bands(corpus.tokens)[0][0]
    checks = [gen.BenchQuery("or", head, (head,))] + checks
    return Inputs(
        corpus=corpus, orc=orc,
        terms=oracle.sample_terms(corpus.tokens, np.random.default_rng([seed, 3])),
        queries=checks, expected={q: orc.top_k(q) for q in checks},
        pages=write_pages(corpus.pages, os.path.join(tmp, "pages")),
        # the warm-up build indexes a tenth of the rows
        warm_pages=write_pages(corpus.pages.slice(0, corpus.pages.num_rows // 10),
                               os.path.join(tmp, "warm_pages")),
        index=os.path.join(tmp, "index"))


def end_setup(out: Outcome, setup0: tuple[float, float]) -> None:
    """Set-up ends: its CPU seconds are ``setup_s``, its wall time extra."""
    out.metrics["setup_s"] = session_cpu_s() - setup0[0]
    out.extra["setup_wall_s"] = time.perf_counter() - setup0[1]


def run_build(inp: Inputs, seconds: float, cpus: int, sizes: Sizes,
              out: Outcome, rss: Rss, setup0: tuple[float, float]) -> None:
    """build_templated / build_zipf: the flagship build, repeated; then fresh
    readers over the last index answer the check queries, and a
    DistributedSearcher serves them."""
    from lucenenet_ray.search.reader import IndexReader

    corpus, orc, checks, expected = inp.corpus, inp.orc, inp.queries, inp.expected
    index = inp.index
    digests = set()
    rates, walls, opens, open_walls, lats, sizes_b = [], [], [], [], [], []

    # the warm-up build: same pipeline, a tenth of the pages
    build_once(inp.warm_pages, index, out, cpus, "setup")
    end_setup(out, setup0)
    t_timed = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - t_timed < seconds:
        n += 1
        r = build_once(inp.pages, index, out, cpus, "timed")
        rss.sample()
        if r is None:
            continue
        m, wall, cpu = r
        rates.append(m["n_docs"] / cpu)
        walls.append(wall)
        sizes_b.append(oracle.dir_bytes(index) / m["n_docs"])
        digests.add(oracle.index_digest(index))
        check_build(m, index, corpus, orc, inp.terms, out)
    out.check("digest_stable", len(digests) == 1, str(digests))
    if not rates:
        return
    # fresh readers answering their first query, then the check queries
    for _ in range(sizes.opens):
        with trace.span("op.open", phase="timed"):
            c0, t0 = time.process_time(), time.perf_counter()
            reader = out.op("open", IndexReader, index)
            td, _ = query_inproc(reader, checks[0], out, "timed") if reader else (None, 0)
            opens.append(time.process_time() - c0)
            open_walls.append(time.perf_counter() - t0)
        if td is not None:
            check_result(checks[0], td, expected[checks[0]], out, True)
    # first pass: checked against the oracle, and fills the reader's caches
    first = {}
    for i, q in enumerate(checks[1:]):
        td, _ = query_inproc(reader, q, out, "setup")
        if td is not None:
            check_result(q, td, expected[q], out, True)
            first[q] = td
        if q.cls == "or":
            prune_pair(reader, q, out, "timed", flip=bool(i % 2))
    # timed passes: the same queries on the warm reader
    pass_cpu = []
    for _ in range(sizes.query_passes):
        cpu = 0.0
        for q in checks[1:]:
            c0 = time.process_time()
            td, dt = query_inproc(reader, q, out, "timed")
            cpu += time.process_time() - c0
            if td is not None:
                lats.append(dt)
                if q in first:
                    out.check("same_as_first_pass", same_topdocs(td, first[q]),
                              q.text)
        pass_cpu.append(cpu / len(checks[1:]))
    serve_checks(index, checks, first, out)
    out.metrics["ops_per_cpu_s"] = med(rates)
    out.metrics["open_cpu_ms"] = med(opens) * 1e3
    out.metrics["query_cpu_ms"] = med(pass_cpu) * 1e3
    out.metrics["index_bytes_per_doc"] = med(sizes_b)
    out.extra.update({"timed_builds": n, "n_docs": corpus.n_urls,
                      "pages_rows": corpus.pages.num_rows,
                      "dup_rows": corpus.n_dup_rows,
                      "build_cpu_s": [round(corpus.n_urls / r, 3) for r in rates],
                      "build_wall_s": [round(w, 3) for w in walls],
                      "open_wall_ms": med(open_walls) * 1e3,
                      "query_wall_p50_ms": med(lats) * 1e3})


def serve_checks(index: str, checks: list[gen.BenchQuery], inproc: dict,
                 out: Outcome) -> None:
    """The check queries through a DistributedSearcher over ``index``: a cold
    pass, then a warm one, each equal to the in-process results ``inproc``.
    This puts the serve layer in a build workload's traced run; its CPU and
    wall times go to the detail line only, because the CPU time of a query
    that hops between processes moves with the host by more than the
    benchmark's bounds (see ``serve_mixed`` in the README)."""
    from lucenenet_ray.search import query as qmod
    from lucenenet_ray.search.serve import DistributedSearcher

    with trace.span("op.open", phase="serve"):
        c0, t0 = session_cpu_s(), time.perf_counter()
        ds = out.op("open", DistributedSearcher, index, n_actors=SERVE_ACTORS)
        if ds is not None:
            out.op("query", ds.search, qmod.parse_query(checks[0].text), k=10)
        out.extra["serve_open_cpu_ms"] = (session_cpu_s() - c0) * 1e3
        out.extra["serve_open_wall_ms"] = (time.perf_counter() - t0) * 1e3
    if ds is None:
        return
    try:
        for phase in ("setup", "serve"):
            c0, t0 = session_cpu_s(), time.perf_counter()
            for q in checks[1:]:
                with trace.span("op.query", phase=phase, cls=q.cls):
                    td = out.op("query", ds.search, qmod.parse_query(q.text), k=10)
                if td is not None and q in inproc:
                    out.check("distributed_eq_inproc", same_topdocs(td, inproc[q]),
                              q.text)
        n = len(checks) - 1
        out.extra["serve_query_cpu_ms"] = (session_cpu_s() - c0) / n * 1e3
        out.extra["serve_query_wall_ms"] = (time.perf_counter() - t0) / n * 1e3
    finally:
        ds.shutdown()


def prepare_serve(seed: int, sizes: Sizes, tmp: str) -> Inputs:
    corpus = gen.make_corpus(seed, sizes.zipf, "serve_mixed",
                             n_urls=sizes.serve_urls)
    orc = oracle.Bm25Oracle(corpus.tokens)
    queries = gen.make_queries(seed, corpus.tokens, sizes.serve_queries)
    return Inputs(
        corpus=corpus, orc=orc,
        terms=oracle.sample_terms(corpus.tokens, np.random.default_rng([seed, 3])),
        queries=queries, expected={q: orc.top_k(q) for q in set(queries)},
        pages=write_pages(corpus.pages, os.path.join(tmp, "pages")),
        index=os.path.join(tmp, "index"))


def run_serve(inp: Inputs, seconds: float, cpus: int, sizes: Sizes,
              out: Outcome, rss: Rss, setup0: tuple[float, float]) -> None:
    """serve_mixed: a Zipf index served by DistributedSearcher."""
    from lucenenet_ray.search import query as qmod
    from lucenenet_ray.search.reader import IndexReader
    from lucenenet_ray.search.serve import DistributedSearcher
    from lucenenet_ray.search.searcher import search

    corpus, orc, terms, queries, expected = (inp.corpus, inp.orc, inp.terms,
                                             inp.queries, inp.expected)
    pages, index = inp.pages, inp.index
    r = build_once(pages, index, out, cpus, "setup")
    if r is None:
        return
    m, _wall, _cpu = r
    check_build(m, index, corpus, orc, terms, out)
    with trace.span("op.open", phase="setup"):
        c0, t0 = session_cpu_s(), time.perf_counter()
        ds = out.op("open", DistributedSearcher, index, n_actors=SERVE_ACTORS)
        if ds is not None:
            out.op("query", ds.search, qmod.parse_query(queries[0].text), k=10)
        c_open, t_open = session_cpu_s() - c0, time.perf_counter() - t0
    if ds is None:
        return
    # the warm pass: every query once, checked against the oracle
    results = {}
    try:
        for q in queries:
            with trace.span("op.query", phase="setup", cls=q.cls):
                td = out.op("query", lambda: ds.search(qmod.parse_query(q.text), k=10))
            if td is not None:
                results.setdefault(q, td)
                check_result(q, td, expected[q], out, exact_total=False)
        end_setup(out, setup0)
        out.metrics["open_cpu_ms"] = c_open * 1e3
        out.extra["open_wall_ms"] = t_open * 1e3
        out.metrics["index_bytes_per_doc"] = oracle.dir_bytes(index) / m["n_docs"]
        rss.sample()

        lats: list[float] = []
        slice_cpu: list[float] = []
        t_query = 0.0
        rounds = 0
        t_timed = time.perf_counter()
        while rounds == 0 or time.perf_counter() - t_timed < seconds:
            for j in range(0, len(queries), SERVE_SLICE):
                part = queries[j:j + SERVE_SLICE]
                c0 = session_cpu_s()
                for q in part:
                    with trace.span("op.query", phase="timed", cls=q.cls):
                        t0 = time.perf_counter()
                        td = out.op("query",
                                    lambda: ds.search(qmod.parse_query(q.text), k=10))
                        dt = time.perf_counter() - t0
                        lats.append(dt)
                        t_query += dt
                    if td is not None and q in results:
                        out.check("same_as_warm_pass", same_topdocs(td, results[q]),
                                  q.text)
                slice_cpu.append((session_cpu_s() - c0) / len(part))
            rounds += 1
            rss.sample()
        # in-process search on the same (warmed) index must agree with the pool
        reader = IndexReader(index)
        for b in reader.bucket_ids:
            reader.bucket(b).load_full()
        for i, q in enumerate(queries[:sizes.inproc_checks]):
            if q not in results:
                continue
            local = out.op("query", search, reader, qmod.parse_query(q.text),
                           k=10, prune=True)
            if local is not None:
                out.check("distributed_eq_inproc", same_topdocs(local, results[q]),
                          q.text)
            if q.cls == "or":
                prune_pair(reader, q, out, "timed", flip=bool(i % 2))
    finally:
        ds.shutdown()
    out.metrics["query_cpu_ms"] = med(slice_cpu) * 1e3
    out.metrics["ops_per_cpu_s"] = 1e3 / out.metrics["query_cpu_ms"]
    out.extra.update({"rounds": rounds, "queries": len(lats),
                      "qps_wall": len(lats) / t_query,
                      "query_wall_p50_ms": med(lats) * 1e3,
                      "query_wall_p99_ms": float(np.percentile(lats, 99)) * 1e3
                      if len(lats) >= 1000 else float("nan"),
                      "n_docs": m["n_docs"]})


def prepare_update(seed: int, sizes: Sizes, tmp: str) -> Inputs:
    return Inputs(script=gen.UpdateScript(seed, sizes.update),
                  root=os.path.join(tmp, "writer"), seed=seed)


def run_update(inp: Inputs, seconds: float, cpus: int, sizes: Sizes,
               out: Outcome, rss: Rss, setup0: tuple[float, float]) -> None:
    """update_nrt: IndexWriter rounds beside reads through reopened searchers."""
    import json

    import pyarrow as pa

    from lucenenet_ray.api import IndexWriter
    from lucenenet_ray.extract import ExtractHTML
    from lucenenet_ray.index.merge_policy import TieredMergePolicy
    from lucenenet_ray.search import query as qmod
    from lucenenet_ray.search.query import MatchAllDocsQuery, TermQuery, field_term

    script = inp.script
    base = script.base()
    extract = ExtractHTML()
    model = oracle.LiveModel()
    writer = IndexWriter(
        inp.root, n_buckets=N_BUCKETS // 2,
        extra_fields=(("key", "key", False),),
        # merge whenever two shards exist: every round ends on one shard
        merge_policy=TieredMergePolicy(max_merge_at_once=2, segs_per_tier=2.0,
                                       floor_segment_bytes=1 << 40))

    def texts(docs) -> list[str]:
        t = extract(pa.table({"html": pa.array([h.encode() for _k, h, _w in docs],
                                               type=pa.binary())}))
        return t.column("text").to_pylist()

    def key_q(k: str):
        return TermQuery(term=field_term("key", k))

    stats = {"writer_cpu": [], "writer_s": [], "docs": [], "refresh_cpu": [],
             "refresh": [], "query_cpu": [], "lat": [], "bytes": []}

    def ingest(rd: gen.UpdateRound | None, phase: str):
        """Extract the pages, then add, update, delete and commit."""
        adds = base if rd is None else rd.adds
        updates = rd.updates if rd else []
        with trace.span("op.ingest", phase=phase, builds=True, cpus=cpus) as sp:
            add_texts, upd_texts = texts(adds), texts(updates)
            c0, t0 = session_cpu_s(), time.perf_counter()
            for (k, _h, _w), x in zip(adds, add_texts):
                out.op("add", writer.add_document, {"text": x, "key": k})
            for (k, _h, _w), x in zip(updates, upd_texts):
                out.op("update", writer.update_document, field_term("key", k),
                       {"text": x, "key": k})
            for k in rd.deletes if rd else ():
                out.op("delete", writer.delete_documents, field_term("key", k))
            tc = time.perf_counter()
            gen_no = out.op("commit", writer.commit)
            t1 = time.perf_counter()
            c1 = session_cpu_s()
            sp["wall"] = t1 - tc
            if gen_no is not None:
                shard = committed_shards(inp.root)[-1]["path"]
                with open(os.path.join(shard, "manifest.json")) as f:
                    sp["term_rows"] = sum(b["n_terms"] for b in json.load(f)["buckets"])
        if rd:
            model.delete(rd.deletes)
        model.commit([k for k, _h, _w in adds + updates])
        return gen_no is not None, c1 - c0, t1 - t0, t1

    def round_(rd: gen.UpdateRound | None, phase: str) -> None:
        ok, writer_cpu, writer_s, t_commit = ingest(rd, phase)
        if not ok:
            return
        c_commit = time.process_time()
        # reopen: commit returned -> a new searcher answered its first query
        qs = rd.queries if rd else gen.make_queries(
            inp.seed, {i: w for i, (_k, _h, w) in enumerate(base)}, 4)
        with trace.span("op.open", phase=phase):
            searcher = out.op("open", writer.searcher)
            if searcher is None:
                return
            with trace.span("op.query", phase=phase, cls=qs[0].cls,
                            after_reopen=True):
                out.op("query", searcher.search, qmod.parse_query(qs[0].text), 10)
        refresh = time.perf_counter() - t_commit
        refresh_cpu = time.process_time() - c_commit
        live_bytes = sum(oracle.dir_bytes(p) for sh in committed_shards(inp.root)
                         for p in (sh["path"], sh["deletes"]) if os.path.isdir(p))
        lat = []
        query_cpu = 0.0
        n_or = 0
        for i, q in enumerate(qs[1:]):
            with trace.span("op.query", phase=phase, cls=q.cls, after_reopen=False):
                c0, t0 = time.process_time(), time.perf_counter()
                out.op("query", searcher.search, qmod.parse_query(q.text), 10)
                lat.append(time.perf_counter() - t0)
                query_cpu += time.process_time() - c0
            if q.cls == "or" and n_or < 2:
                n_or += 1
                prune_pair(searcher.reader, q, out, phase, flip=bool(i % 2))
        # the live-document model, on a sample of this round's keys
        for k in rd.deletes[:5] if rd else ():
            td = out.op("query", searcher.search, key_q(k), 10)
            if td is not None:
                out.check("deleted_key_gone", td.total_hits == 0, k)
        for k, _h, _w in (rd.updates[:5] + rd.adds[:1]) if rd else ():
            td = out.op("query", searcher.search, key_q(k), 10)
            if td is not None:
                out.check("newest_doc_only", td.docs.tolist() == [model.newest[k]],
                          f"{k}: {td.docs.tolist()} != {[model.newest[k]]}")
        td = out.op("query", searcher.search, MatchAllDocsQuery(), 10)
        if td is not None:
            out.check("live_count", td.total_hits == model.live_count,
                      f"{td.total_hits} != {model.live_count}")
        with trace.span("op.merge", phase=phase) as sp:
            cm, tm = session_cpu_s(), time.perf_counter()
            out.op("merge", writer.maybe_merge)
            writer_s += time.perf_counter() - tm
            writer_cpu += session_cpu_s() - cm
            sp["shards"] = writer.num_shards
        if phase == "timed":
            stats["writer_cpu"].append(writer_cpu)
            stats["writer_s"].append(writer_s)
            stats["docs"].append(len(rd.adds) + len(rd.updates))
            stats["refresh_cpu"].append(refresh_cpu)
            stats["refresh"].append(refresh)
            stats["query_cpu"].append(query_cpu)
            stats["bytes"].append(live_bytes / model.live_count)
            stats["lat"].extend(lat)
        rss.sample()

    round_(None, "setup")  # the first commit
    end_setup(out, setup0)
    t_timed = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - t_timed < seconds:
        round_(script.next_round(), "timed")
        n += 1
    out.metrics["ops_per_cpu_s"] = sum(stats["docs"]) / sum(stats["writer_cpu"])
    out.metrics["open_cpu_ms"] = med(stats["refresh_cpu"]) * 1e3
    out.metrics["query_cpu_ms"] = sum(stats["query_cpu"]) / len(stats["lat"]) * 1e3
    # the first timed round's: later rounds start from a merged shard, which
    # is smaller per doc, and how many rounds fit in a run varies
    out.metrics["index_bytes_per_doc"] = (stats["bytes"] or [float("nan")])[0]
    out.extra.update({"timed_rounds": n, "shards_end": writer.num_shards,
                      "live_docs": model.live_count,
                      "update_docs_per_wall_s": sum(stats["docs"]) / sum(stats["writer_s"]),
                      "refresh_wall_ms": med(stats["refresh"]) * 1e3,
                      "query_wall_p50_ms": med(stats["lat"]) * 1e3})


WORKLOADS = {
    "build_templated": (lambda seed, sizes, tmp: prepare_build(
        "build_templated", seed, sizes, tmp), run_build),
    "build_zipf": (lambda seed, sizes, tmp: prepare_build(
        "build_zipf", seed, sizes, tmp), run_build),
    "serve_mixed": (prepare_serve, run_serve),
    "update_nrt": (prepare_update, run_update),
}


def run_workload(name: str, seed: int, seconds: float, tmp: str, root: str,
                 cpus: int, trace_dir: str | None, sizes: Sizes | None = None
                 ) -> Outcome:
    """Generate the inputs, start the session, run ``name``, stop the
    session. Set-up time runs from the session start."""
    sizes = sizes or Sizes()
    prepare, run = WORKLOADS[name]
    out = Outcome()
    rss = Rss()
    t0 = time.perf_counter()
    inputs = prepare(seed, sizes, tmp)
    out.extra["prepare_s"] = time.perf_counter() - t0
    if trace_dir:
        trace.install(trace_dir, flush_roots=False)
    setup0 = (session_cpu_s(), time.perf_counter())
    start_session(root, tmp, cpus, trace_dir)
    out.extra["session_start_s"] = time.perf_counter() - setup0[1]
    try:
        run(inputs, seconds, cpus, sizes, out, rss, setup0)
        rss.sample()
        out.extra["run_s"] = time.perf_counter() - setup0[1]
    finally:
        t1 = time.perf_counter()
        stop_session()
        trace.finish()
        out.extra["stop_s"] = time.perf_counter() - t1
    out.metrics["peak_rss_mb"] = rss.peak
    return out
