#!/usr/bin/env python3
"""perfbench: the benchmark of the ethpos reproduction.

    python3 perfbench/run.py --workload paper|churn|server --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. It builds the release `ethpos-cli` and
the tracer `perfbench/tracer` from source into $CARGO_TARGET_DIR
(default `.bench_build`), runs one workload, checks every document the
program returns and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, measured with tracing off; with
--trace 1 they are the per-layer ones of a separate traced run. Earlier
stdout lines print the workload's detail metrics by name and unit.
Outputs (documents, Chrome trace, counters) go to `.bench_out/`.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import measure
import plan
from client import LoopResult, ServerProcess, closed_loop, exchange, submit_and_wait

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TABLE2 = ["4685", "4066", "3622", "3107", "502"]
SEARCH_HEADLINES = {"search-conflict": ("conflict_epoch", 1576),
                    "search-non-slashable-horizon": ("horizon", 7657)}
PRESET_CONFLICTS = [4695, 1974]
# Every end-to-end time is `measure.low` of samples spread over the run.
# Set-up: paper and churn take LIST_SLOT // jobs set-ups (at least one)
# before each job of a pass, outside the pass's wall, and LIST_SLOT after
# the last pass; the server restarts SERVER_SETUPS times on the warmed
# cache. The server loop runs in slices of SERVER_SLICE_S; a slice's
# sample is its median round and its server CPU per round.
LIST_SLOT = 4
SERVER_SETUPS = 15
SERVER_SLICE_S = 1.0
# The probe's time at the reference host speed (see HostProbe), and how
# many threads each workload's probe runs: as many as its program keeps
# busy (None: all CPUs).
PROBE_REF_S = 0.04
PROBE_THREADS = {"paper": None, "churn": 1, "server": None}


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, build failure, ...)."""


class Run:
    """One finished process: wall and CPU seconds, peak RSS, exit code."""

    def __init__(self, wall, cpu, rss_mb, rc, err):
        self.wall, self.cpu, self.rss_mb, self.rc, self.err = wall, cpu, rss_mb, rc, err


class Ctx:
    def __init__(self, args, cli, tracer, probe):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.cli = cli
        self.tracer = tracer
        self.probe_binary = probe
        self.threads = len(os.sched_getaffinity(0))
        self.probe = None
        self.out = os.path.join(ROOT, ".bench_out", f"{args.workload}-{args.seed}-t{args.trace}")
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.attempted = 0
        self.failures = []
        self.details = []

    def path(self, *parts):
        return os.path.join(self.out, *parts)

    def fail(self, message):
        self.failures.append(message)
        print(f"perfbench: FAIL {message}", file=sys.stderr)

    def detail(self, name, value, unit, note=""):
        self.details.append((name, value, unit, note))


# ─── building ──────────────────────────────────────────────────────────

def build():
    """Builds the three binaries (a no-op when fresh); returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isfile(os.path.join(ROOT, "crates", "cli", "Cargo.toml"))):
        raise BenchError(f"{ROOT} is not an ethpos checkout (no Cargo.toml / crates/cli)")
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                               ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "ethpos-cli"],
                ["cargo", "build", "--release", "--offline", "--manifest-path",
                 os.path.join(HERE, "tracer", "Cargo.toml")],
                ["cargo", "build", "--release", "--offline", "--manifest-path",
                 os.path.join(HERE, "probe", "Cargo.toml")]):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "ethpos-cli"),
            os.path.join(target, "release", "perfbench-tracer"),
            os.path.join(target, "release", "perfbench-probe"))


# ─── processes ─────────────────────────────────────────────────────────

def spawn(cmd):
    """Runs `cmd` to completion; wall clock from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = proc.stderr.read().decode(errors="replace")
    proc.stderr.close()
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
               proc.returncode, err)


class HostProbe:
    """The host-speed probe (`perfbench/probe`) as a co-process: a fixed
    piece of work, independent of the repository, timed once at the start
    and after every measured item of a run."""

    def __init__(self, binary, threads):
        self.threads = threads
        self.proc = subprocess.Popen([binary], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True, bufsize=1)
        self.samples = []
        self.sample()

    def sample(self):
        self.proc.stdin.write(f"{self.threads}\n")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the host-speed probe exited")
        self.samples.append(float(line))

    def factor(self):
        """Reference speed over the run's speed: the probe's reference
        time over its low time in the run."""
        return PROBE_REF_S / self.threads / measure.low(self.samples)

    def stop(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def probed(ctx, item):
    """Runs `item()`, then the host-speed probe when the run has one."""
    result = item()
    if ctx.probe is not None:
        ctx.probe.sample()
    return result


def run_cli(ctx, args, out, threads=None, extra=()):
    cmd = [ctx.cli, *args, "--threads", str(threads or ctx.threads), "--out", out, *extra]
    ctx.attempted += 1
    run = spawn(cmd)
    if run.rc != 0:
        ctx.fail(f"`{' '.join(cmd[1:])}` exited {run.rc}: {run.err.strip()[-300:]}")
    return run


def list_setups(ctx, count=LIST_SLOT):
    """`count` set-ups of `ethpos-cli --list`, spawn to exit: process
    start, which every job pays."""
    def once():
        ctx.attempted += 1
        run = spawn([ctx.cli, "--list"])
        if run.rc != 0:
            ctx.fail(f"`--list` exited {run.rc}")
        return run.wall
    return [once() for _ in range(count)]


def parallel(ctx, tasks):
    """Runs callables `ctx.threads` at a time (for single-threaded
    reference runs after the timed window)."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=ctx.threads) as pool:
        return list(pool.map(lambda task: task(), tasks))


def read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def read_json(path):
    data = read(path)
    return None if data is None else json.loads(data)


# ─── document checks ───────────────────────────────────────────────────

def headline_error(job_id, doc):
    """The seed-independent numbers each document must show (None if ok)."""
    if job_id == "experiments":
        table2 = [e for e in doc if e["experiment"] == "Table2Slashable"]
        got = [row[1] for row in table2[0]["tables"][0]["rows"]] if table2 else None
        return None if got == TABLE2 else f"Table 2 column {got} != {TABLE2}"
    if job_id in SEARCH_HEADLINES:
        field, want = SEARCH_HEADLINES[job_id]
        got = doc["best"][field]
        return None if got == want else f"best {field} {got} != {want}"
    if job_id == "presets":
        got = [row["conflict_epoch"] for row in doc["rows"]]
        return None if got == PRESET_CONFLICTS else f"conflict epochs {got}"
    if job_id == "churn":
        got = doc["rows"][0]["epochs_run"]
        return None if got == plan.CHURN_EPOCHS else f"epochs_run {got}"
    return None


def check_document(ctx, job_id, path):
    try:
        error = headline_error(job_id, json.loads(read(path) or b"null"))
    except (ValueError, KeyError, IndexError, TypeError) as err:
        error = f"unreadable document: {err!r}"
    if error:
        ctx.fail(f"{job_id}: {error}")


def check_same_bytes(ctx, what, got, want):
    if got is None or got != want:
        ctx.fail(f"{what}: document differs from the reference")


def check_counters(ctx, counters):
    """Exact work counters must repeat bit for bit: compare with the
    counters an earlier run of the same binaries, workload, seed and mode
    left in this checkout, and leave them for the next one."""
    digest = hashlib.sha256()
    for binary in (ctx.cli, ctx.tracer):
        with open(binary, "rb") as f:
            digest.update(f.read())
    path = os.path.join(ROOT, ".bench_out", "counters", digest.hexdigest()[:16],
                        f"{ctx.workload}-{ctx.seed}-t{ctx.trace}.json")
    previous = read_json(path)
    if previous is not None and previous != counters:
        diff = sorted(k for k in set(previous) | set(counters)
                      if previous.get(k) != counters.get(k))
        ctx.fail(f"exact counters differ from an earlier run of seed {ctx.seed}: {diff}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counters, f, sort_keys=True, indent=1)


# ─── batch workloads (paper, churn) ────────────────────────────────────

class Pass:
    """One pass over the job list: its wall and CPU, the largest job RSS,
    and each job's per-run walls and CPU times (`walls[id]`, `cpus[id]`)."""

    def __init__(self, directory):
        self.dir = directory
        self.wall = self.cpu = self.rss_mb = 0.0
        self.walls, self.cpus = {}, {}


def cli_pass(ctx, jobs, tag, metrics=False, reps=True, setups=None):
    """Runs the job list once, in order, verifying each document as it
    arrives. `wall` is the time until every document is verified. With a
    `setups` list, set-ups taken before each job are appended to it and
    left out of `wall`."""
    result = Pass(ctx.path(tag))
    os.makedirs(result.dir)
    for job in jobs:
        doc = os.path.join(result.dir, f"{job.id}.doc")
        extra = []
        if job.route == "search":
            extra += ["--stats-out", os.path.join(result.dir, f"{job.id}.stats.json")]
        if metrics:
            extra += ["--metrics-out", os.path.join(result.dir, f"{job.id}.metrics.json"),
                      "--metrics-format", "json"]

        def item():
            before = [] if setups is None else list_setups(ctx, max(1, LIST_SLOT // len(jobs)))
            t0 = time.perf_counter()
            runs = [run_cli(ctx, job.args, doc, extra=extra)
                    for _ in range(job.reps if reps else 1)]
            check_document(ctx, job.id, doc)
            return before, time.perf_counter() - t0, runs

        before, wall, runs = probed(ctx, item)
        if setups is not None:
            setups += before
        result.wall += wall
        for run in runs:
            result.walls.setdefault(job.id, []).append(run.wall)
            result.cpus.setdefault(job.id, []).append(run.cpu)
            result.cpu += run.cpu
            result.rss_mb = max(result.rss_mb, run.rss_mb)
    return result


def timed_passes(ctx, jobs):
    """Passes until the next one would end past --seconds (at least one),
    with set-ups spread over them (see LIST_SLOT). Returns (passes,
    set-up times)."""
    passes, setups = [], []
    start = time.perf_counter()
    while True:
        passes.append(cli_pass(ctx, jobs, f"pass{len(passes)}", setups=setups))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > ctx.seconds:
            return passes, setups + probed(ctx, lambda: list_setups(ctx))


def reference_checks(ctx, jobs, passes):
    """Every document of every pass must equal the first pass's, and the
    first pass's must equal a --threads 1 run of the same seed, byte for
    byte; search work counters must match too."""
    first = passes[0].dir
    for p in passes[1:]:
        for job in jobs:
            check_same_bytes(ctx, f"{job.id} ({os.path.basename(p.dir)})",
                             read(os.path.join(p.dir, f"{job.id}.doc")),
                             read(os.path.join(first, f"{job.id}.doc")))
    ref = ctx.path("threads1")
    os.makedirs(ref)

    def reference(job):
        extra = []
        if job.route == "search":
            extra = ["--stats-out", os.path.join(ref, f"{job.id}.stats.json")]
        return lambda: run_cli(ctx, job.args, os.path.join(ref, f"{job.id}.doc"), 1, extra)

    parallel(ctx, [reference(job) for job in jobs])
    for job in jobs:
        check_same_bytes(ctx, f"{job.id} (--threads 1)",
                         read(os.path.join(ref, f"{job.id}.doc")),
                         read(os.path.join(first, f"{job.id}.doc")))
        if job.route == "search":
            a = read_json(os.path.join(ref, f"{job.id}.stats.json"))
            b = read_json(os.path.join(first, f"{job.id}.stats.json"))
            if a is None or a != b:
                ctx.fail(f"{job.id}: search stats differ across --threads")


def search_counters(directory, jobs):
    counters = {}
    for job in jobs:
        if job.route == "search":
            stats = read_json(os.path.join(directory, f"{job.id}.stats.json")) or {}
            for key, value in stats.items():
                counters[f"{job.id}.{key}"] = value
    return counters


def batch_e2e(ctx, jobs):
    passes, setups = timed_passes(ctx, jobs)
    reference_checks(ctx, jobs, passes)
    check_counters(ctx, search_counters(passes[0].dir, jobs))
    med = statistics.median

    def job_sum(selected, field="walls"):
        """One pass's time over `selected` jobs: each job's low time over
        all its runs in the run, times its runs per pass."""
        return sum(job.reps * measure.low([t for p in passes for t in getattr(p, field)[job.id]])
                   for job in selected)

    ctx.detail("passes", len(passes), "count")
    ctx.detail("pass_wall_median_s", med(p.wall for p in passes), "s",
               "median pass, documents checked")
    if ctx.workload == "paper":
        ctx.detail("search_s", job_sum([j for j in jobs if j.route == "search"]), "s",
                   "three search jobs")
        ctx.detail("montecarlo_s", job_sum([j for j in jobs if j.id in ("fig10", "sweep")]),
                   "s", "fig10 + sweep")
        ctx.detail("experiments_s", job_sum([j for j in jobs if j.reps > 1]), "s",
                   "experiments + presets, 5 runs each")
    return {"setup_s": measure.low(setups), "wall_s": job_sum(jobs),
            "cpu_s": job_sum(jobs, "cpus"), "peak_rss_mb": med(p.rss_mb for p in passes)}


# ─── traced runs ───────────────────────────────────────────────────────

def run_tracer(ctx, plan_fields, tag="tracer"):
    plan_path, out_path = ctx.path(f"{tag}-plan.json"), ctx.path(f"{tag}-out.json")
    docs = ctx.path(f"{tag}-docs")
    os.makedirs(docs, exist_ok=True)
    fields = dict(plan_fields, workload=ctx.workload, threads=ctx.threads, out_dir=docs,
                  probe_seed=ctx.seed)
    with open(plan_path, "w") as f:
        json.dump(fields, f)
    ctx.attempted += 1
    run = spawn([ctx.tracer, plan_path, out_path])
    if run.rc != 0:
        raise BenchError(f"tracer exited {run.rc}: {run.err.strip()[-500:]}")
    return read_json(out_path), docs


def tracer_jobs(jobs):
    return [{"id": j.id, "route": j.route, "body": j.body_json(),
             "sample_every": j.sample_every} for j in jobs]


def pool_from_metrics(series, threads):
    """pool.busy_ratio and pool.tasks from the ethpos_chunk_pool_* series."""
    busy = series.get("ethpos_chunk_pool_worker_busy_micros_total", 0)
    wall = series.get("ethpos_chunk_pool_wall_micros_total", 0)
    tasks = series.get("ethpos_chunk_pool_tasks_completed_total", 0)
    return {"pool.busy_ratio": busy / (threads * wall) if wall else 0.0, "pool.tasks": tasks}


def metrics_file_series(path):
    out = {}
    doc = read_json(path) or {"metrics": []}
    for family in doc["metrics"]:
        for series in family["series"]:
            if "value" in series:
                out[family["name"]] = out.get(family["name"], 0) + series["value"]
    return out


def check_outcomes(ctx, job, cli_doc_path, outcome):
    """The traced run's partition outcomes must equal the CLI document's rows."""
    doc = read_json(cli_doc_path)
    for row, got in zip(doc["rows"], outcome):
        for key in ("conflict_epoch", "epochs_run", "double_vote_epochs",
                    "first_finalization", "max_byzantine_proportion", "branches_total"):
            if row[key] != got[key]:
                ctx.fail(f"{job.id}/{row['scenario']}: traced {key} {got[key]} != {row[key]}")
    if len(doc["rows"]) != len(outcome):
        ctx.fail(f"{job.id}: traced {len(outcome)} scenarios, CLI {len(doc['rows'])}")


def batch_trace(ctx, jobs):
    """The traced run of the job list and the tracer without spans,
    interleaved with three untraced CLI passes, then a pass with
    --metrics-out. The traced outputs are checked against the CLI's."""
    setup = statistics.median(list_setups(ctx))
    before = cli_pass(ctx, jobs, "plain", reps=False)
    traced, docs = run_tracer(ctx, {"jobs": tracer_jobs(jobs)})
    between = cli_pass(ctx, jobs, "plain-between", reps=False)
    untraced, _ = run_tracer(ctx, {"jobs": tracer_jobs(jobs), "spans": False}, "untraced")
    after = cli_pass(ctx, jobs, "plain-after", reps=False)
    with_metrics = cli_pass(ctx, jobs, "metrics", metrics=True, reps=False)
    series = {}
    for job in jobs:
        for k, v in metrics_file_series(os.path.join(with_metrics.dir,
                                                     f"{job.id}.metrics.json")).items():
            series[k] = series.get(k, 0) + v
    counters = traced["counters"]
    for job in jobs:
        cli_doc = os.path.join(before.dir, f"{job.id}.doc")
        for p in (between, after):
            check_same_bytes(ctx, f"{job.id} ({os.path.basename(p.dir)})",
                             read(os.path.join(p.dir, f"{job.id}.doc")), read(cli_doc))
        if job.route == "execute":
            check_same_bytes(ctx, f"{job.id} (traced)", read(os.path.join(docs, f"{job.id}.doc")),
                             read(cli_doc))
        elif job.route == "search":
            got = read_json(os.path.join(docs, f"{job.id}.stats.json"))
            if got != read_json(os.path.join(before.dir, f"{job.id}.stats.json")):
                ctx.fail(f"{job.id}: traced search stats differ from the CLI's --stats-out")
            best = read_json(cli_doc)["best"]
            for key, value in traced["outcomes"][job.id].items():
                if best[key] != value:
                    ctx.fail(f"{job.id}: traced best {key} {value} != {best[key]}")
        elif job.route == "walk":
            table = read_json(os.path.join(docs, f"{job.id}.mc.json"))
            if table not in read_json(cli_doc)["tables"]:
                ctx.fail(f"{job.id}: traced Monte Carlo table is not in the CLI's document")
        elif job.route == "partition":
            check_outcomes(ctx, job, cli_doc, traced["outcomes"][job.id])
    check_counters(ctx, counters)
    events = traced["traceEvents"]
    # The program's own time for each job: the fastest of its three
    # untraced CLI runs. The host's speed drifts by 10-20 % over tens of
    # seconds and a slow phase only ever adds time, so the fastest run is
    # the closest to the work itself.
    cli_s = {job.id: min(p.walls[job.id][0] for p in (before, between, after))
             for job in jobs}
    metrics = layer_metrics(events, counters)
    metrics.update(pool_from_metrics(series, ctx.threads))
    probes = sum(e["dur"] for e in events if e["name"] == measure.PROBE)
    root = sum(e["dur"] for e in events if e["name"] == "bench.workload")
    metrics["obs.trace_overhead"] = (root - probes) / untraced["wall_us"]
    metrics["obs.metrics_overhead"] = with_metrics.wall / min(
        p.wall for p in (before, between, after))
    metrics["cli.overhead_ms"] = cli_overhead_ms(jobs, cli_s, events)
    metrics["attrib.coverage"] = measure.coverage(
        events, sum(w - setup for w in cli_s.values()) * 1e6)
    measure.write_chrome_trace(ctx.path("trace.json"), events)
    return metrics


def cli_overhead_ms(jobs, cli_s, events):
    """CLI wall minus the in-process time of the same work, for the jobs
    the traced run executes whole (`execute` and `partition` routes)."""
    gaps = []
    for job in jobs:
        if job.route not in ("execute", "partition"):
            continue
        inside = sum(e["dur"] for e in events if e["args"]["job"] == job.id
                     and e["name"] in ("core.execute", "sim.step", "sim.finish",
                                       "request.parse", "request.hash"))
        gaps.append(cli_s[job.id] * 1e3 - inside / 1e3)
    return statistics.median(gaps) if gaps else 0.0


def layer_metrics(events, counters):
    """Per-layer metrics derived from the spans and exact counters."""
    med = statistics.median
    m = {}

    def med_or0(values, scale=1.0):
        return med(values) * scale if values else 0.0

    m["request.parse_us"] = med_or0(measure.durations(events, "request.parse"))
    m["request.hash_us"] = med_or0(measure.durations(events, "request.hash"))
    for kind in ("experiment", "sweep", "partition"):
        m[f"core.execute_s.{kind}"] = med_or0(
            measure.durations(events, "core.execute", kind=kind), 1e-6)
    for objective in plan.SEARCH_OBJECTIVES:
        m[f"search.run_s.{objective}"] = sum(
            measure.durations(events, "search.run", objective=objective)) / 1e6
    for key in ("evaluations", "stream_epochs", "pair_epochs", "checkpoint_hits",
                "checkpoint_records"):
        m[f"search.{key}"] = counters.get(f"search.{key}", 0)
    # `SearchStats::memoized_fraction`: evaluations that built no
    # simulator or forked one mid-run, over all evaluations.
    evaluations = counters.get("search.evaluations", 0)
    memoized = counters.get("search.reconstructed", 0) + counters.get("search.checkpoint_hits", 0)
    m["search.memoized_fraction"] = memoized / evaluations if evaluations else 0.0
    m["walk_mc.run_s"] = sum(measure.durations(events, "walk_mc.run")) / 1e6
    m["walk_mc.walker_epochs"] = counters.get("walk_mc.walker_epochs", 0)
    steps_ms = [d / 1e3 for d in measure.durations(events, "sim.step")]
    summary = measure.summarize(steps_ms)
    m["sim.step_ms.p50"] = summary["p50"] or 0.0
    m["sim.step_ms.tail"] = summary["tail"] or 0.0
    m["sim.step_ms.tail_pct"] = summary["tail_pct"] or 0.0
    m["sim.step_ms.count"] = summary["count"]
    m["sim.step_s"] = sum(steps_ms) / 1e3
    m["sim.epochs"] = counters.get("sim.epochs", 0)
    m["state.mark_ms"] = med_or0(measure.durations(events, "state.mark"), 1e-3)
    m["state.advance_ms"] = med_or0(measure.durations(events, "state.advance"), 1e-3)
    m["state.clone_us"] = med_or0(measure.durations(events, "state.clone"))
    m["state.cohorts_peak"] = counters.get("state.cohorts_peak", 0)
    m["stats.binomial_draws"] = counters.get("stats.binomial_draws", 0)
    m["stats.binomial_members"] = counters.get("stats.binomial_members", 0)
    replay = [e for e in events if e["name"] == "stats.binomial"]
    draws = sum(int(e["args"]["draws"]) for e in replay)
    m["stats.binomial_ns"] = sum(e["dur"] for e in replay) * 1e3 / draws if draws else 0.0
    m["server.cache_load_us"] = med_or0(measure.durations(events, "server.cache_load"))
    m["server.cache_store_ms"] = med_or0(measure.durations(events, "server.cache_store"), 1e-3)
    m["attrib.step_reconcile"] = step_reconcile(events)
    return m


def step_reconcile(events):
    """(mark + advance) / step, summed over the probed epochs."""
    def key(e):
        return (e["args"]["job"], e["args"]["scenario"], e["args"]["epoch"])
    probed = {}
    for e in events:
        if e["name"] in ("state.mark", "state.advance"):
            probed[key(e)] = probed.get(key(e), 0.0) + e["dur"]
    steps = sum(e["dur"] for e in events if e["name"] == "sim.step" and key(e) in probed)
    return sum(probed.values()) / steps if steps else 0.0


def check_attribution(ctx, metrics):
    if metrics["attrib.coverage"] < 0.9:
        ctx.fail(f"attrib.coverage {metrics['attrib.coverage']:.3f} < 0.90")
    reconcile = metrics["attrib.step_reconcile"]
    if reconcile and not 0.5 <= reconcile <= 1.5:
        ctx.fail(f"state.mark + state.advance = {reconcile:.2f} x sim.step at the probed epochs")


# ─── the server workload ───────────────────────────────────────────────

class ServerSession:
    """Warm the hot set, restart on the same cache dir (timed: set-up),
    and fetch every hot reply once as the byte-exact expectation."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.plan = plan.ServerPlan(ctx.seed)
        self.cache = ctx.path("cache")
        warm = ServerProcess(ctx.cli, self.cache, ctx.threads)
        warm.start()
        self.hashes = []
        try:
            for i in range(len(plan.HOT_SET)):
                ctx.attempted += 1
                _, submit, _ = submit_and_wait(warm.addr, self.plan.hot_body(i))
                self.hashes.append(submit.json()["artifact"])
        finally:
            warm.stop()
        self.server = None

        def restart():
            if self.server is not None:
                self.server.stop()
            self.server = ServerProcess(ctx.cli, self.cache, ctx.threads)
            ctx.attempted += 1
            return self.server.start()

        self.setups = [probed(ctx, restart) for _ in range(SERVER_SETUPS)]
        self.expected, self.docs = [], []
        try:
            for i in range(len(plan.HOT_SET)):
                ctx.attempted += 1
                r = exchange(self.server.addr, "POST", "/v1/jobs", self.plan.hot_body(i))
                if r.status != 200:
                    ctx.fail(f"warmed request {i} answered {r.status}")
                self.expected.append(r.body)
                self.docs.append(r.json().get("document", "") if r.status == 200 else "")
        except BaseException:
            self.server.stop()
            raise

    def loop(self, seconds, record_spans=False, first_round=0, t0=None, slice_s=SERVER_SLICE_S):
        """The closed loop for `seconds`, in slices of `slice_s` (one slice
        when None); each slice records its median round and server CPU per
        round."""
        before = self.server.metrics()
        result = LoopResult()
        result.next_round = first_round
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            cpu0 = self.server.cpu_seconds()
            part = probed(self.ctx, lambda: closed_loop(
                self.server.addr, self.plan, plan.SERVER_CLIENTS,
                min(slice_s or seconds, seconds), self.expected, record_spans,
                result.next_round, t0))
            part.cpu = self.server.cpu_seconds() - cpu0
            result.merge(part)
        after = self.server.metrics()
        result.scrape = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        self.ctx.attempted += result.attempted
        for failure in result.failures:
            self.ctx.fail(failure)
        hits = result.scrape.get("ethpos_server_cache_hits_total", 0)
        misses = result.scrape.get("ethpos_server_cache_misses_total", 0)
        if hits != len(result.hot) or misses != len(result.cold):
            self.ctx.fail(f"/metrics counts {hits:.0f} hits / {misses:.0f} misses, the client "
                          f"saw {len(result.hot)} / {len(result.cold)}")
        return result

    def check_documents(self, loops):
        """Hot documents and every cold document against the CLI's."""
        ctx = self.ctx
        refs = ctx.path("refs")
        os.makedirs(refs)
        tasks = []
        for i, (_, args) in enumerate(plan.HOT_SET):
            tasks.append(lambda i=i, args=args: run_cli(ctx, args, os.path.join(refs, f"hot-{i}")))
        cold = {seed: doc for loop in loops for seed, doc in loop.cold_docs.items()}
        for seed in cold:
            args = plan.cold_request(seed)[1]
            tasks.append(lambda seed=seed, args=args:
                         run_cli(ctx, args, os.path.join(refs, f"cold-{seed}"), 1))
        parallel(ctx, tasks)
        for i, doc in enumerate(self.docs):
            check_same_bytes(ctx, f"hot request {i}", doc.encode(),
                             read(os.path.join(refs, f"hot-{i}")))
        for seed, doc in cold.items():
            check_same_bytes(ctx, f"cold seed {seed}", doc.encode(),
                             read(os.path.join(refs, f"cold-{seed}")))
        return refs

    def stop(self):
        self.server.stop()


def server_details(ctx, loop):
    hot_ms = [h[0] * 1e3 for h in loop.hot]
    s = measure.summarize(hot_ms)
    ctx.detail("hot_p50_ms", s["p50"], "ms", f"n={s['count']}")
    if len(hot_ms) >= 1000:
        ctx.detail("hot_p99_ms", measure.percentile(hot_ms, 99), "ms", f"n={s['count']}")
    ctx.detail("hot_tail_ms", s["tail"], "ms", f"p{s['tail_pct']} n={s['count']}")
    ctx.detail("hot_rps", len(loop.hot) / loop.window, "1/s")
    cold = measure.summarize([c[0] for c in loop.cold])
    ctx.detail("cold_p50_s", cold["p50"], "s", f"n={cold['count']}")
    ctx.detail("rounds", len(loop.round_walls), "count",
               f"{plan.ROUND_HOT} hot + 1 cold each")


def server_e2e(ctx):
    session = ServerSession(ctx)
    try:
        loop = session.loop(ctx.seconds)
        rss = session.server.peak_rss_mb()
    finally:
        session.stop()
    session.check_documents([loop])
    server_details(ctx, loop)
    ctx.detail("slices", len(loop.slices), "count", f"{SERVER_SLICE_S} s each")
    ctx.detail("round_median_s", statistics.median(loop.round_walls), "s", "over the whole loop")
    return {"setup_s": measure.low(session.setups),
            "wall_s": measure.low([wall for wall, _ in loop.slices]),
            "cpu_s": measure.low([cpu for _, cpu in loop.slices]), "peak_rss_mb": rss}


def server_trace(ctx):
    session = ServerSession(ctx)
    spans_t0 = time.perf_counter()
    try:
        # One slice each: client span ids are unique within a closed loop.
        plain = session.loop(ctx.seconds / 2, slice_s=None)
        traced = session.loop(ctx.seconds / 2, record_spans=True, first_round=plain.next_round,
                              t0=spans_t0, slice_s=None)
    finally:
        session.stop()
    refs = session.check_documents([plain, traced])
    server_details(ctx, traced)
    cold_seeds = sorted(traced.cold_docs)[:5]
    bodies = [json.dumps(body, sort_keys=True) for body, _ in plan.HOT_SET]
    cold_bodies = [json.dumps(plan.cold_request(s)[0], sort_keys=True) for s in cold_seeds]
    result, docs = run_tracer(ctx, {
        "jobs": [], "parse_bodies": bodies + cold_bodies, "parse_repeat": 50,
        "hot_cache_dir": session.cache, "hot_hashes": session.hashes, "hot_repeat": 20,
        "cold_store_dir": ctx.path("store"), "cold_bodies": cold_bodies})
    for i in range(len(plan.HOT_SET)):
        check_same_bytes(ctx, f"hot artifact {i} (traced)", read(os.path.join(docs, f"hot-{i}.doc")),
                         read(os.path.join(refs, f"hot-{i}")))
    for i, seed in enumerate(cold_seeds):
        check_same_bytes(ctx, f"cold seed {seed} (traced)",
                         read(os.path.join(docs, f"cold-{i}.doc")),
                         read(os.path.join(refs, f"cold-{seed}")))
    events = result["traceEvents"] + traced.events
    metrics = layer_metrics(events, result["counters"])
    med = statistics.median
    ttfb = measure.summarize([h[2] * 1e6 for h in traced.hot])
    hits, misses = len(traced.hot), len(traced.cold)
    metrics.update({
        "server.connect_us": med(h[1] for h in traced.hot) * 1e6,
        "server.ttfb_us.p50": ttfb["p50"], "server.ttfb_us.tail": ttfb["tail"],
        "server.transfer_us": med(h[3] for h in traced.hot) * 1e6,
        "server.hit_ratio": hits / (hits + misses),
        "server.scraped_hits": traced.scrape.get("ethpos_server_cache_hits_total", 0),
        "server.queue_wait_ms": med(c[1] for c in traced.cold) * 1e3,
        "server.run_ms": med(c[2] for c in traced.cold) * 1e3,
        "server.polls_per_cold": statistics.mean(c[3] for c in traced.cold),
        # Same request mix, half the window each: traced / untraced time
        # per completed request.
        "obs.trace_overhead": (traced.window / traced.attempted) / (plain.window / plain.attempted),
        # From outside, the server's time splits only into its client-seen
        # phases: the share of the clients' time the request spans cover
        # (the rest is the client's own work between requests).
        "attrib.coverage": measure.coverage(traced.events,
                                            plan.SERVER_CLIENTS * traced.window * 1e6),
    })
    metrics.update(pool_from_metrics(traced.scrape, ctx.threads))
    # The cold job on the CLI with and without --metrics-out (a resident
    # server always records metrics).
    args = plan.cold_request(cold_seeds[0])[1]
    off = [run_cli(ctx, args, ctx.path("cold-plain.doc")).wall for _ in range(5)]
    on = [run_cli(ctx, args, ctx.path("cold-metrics.doc"),
                  extra=["--metrics-out", ctx.path("cold.metrics.json")]).wall for _ in range(5)]
    metrics["obs.metrics_overhead"] = med(on) / med(off)
    # Fastest against fastest: the overhead (~ms) is smaller than the
    # run-to-run noise of the job.
    execute = measure.durations(result["traceEvents"], "core.execute")
    metrics["cli.overhead_ms"] = min(off) * 1e3 - min(execute) / 1e3
    measure.write_chrome_trace(ctx.path("trace.json"), events)
    return metrics


# ─── main ──────────────────────────────────────────────────────────────

def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def run_workload(ctx, layer_names):
    jobs = {"paper": plan.paper_jobs, "churn": plan.churn_jobs}.get(ctx.workload)
    if ctx.trace == 0:
        ctx.probe = HostProbe(ctx.probe_binary, PROBE_THREADS[ctx.workload] or ctx.threads)
        try:
            metrics = server_e2e(ctx) if jobs is None else batch_e2e(ctx, jobs(ctx.seed))
        finally:
            ctx.probe.stop()
        factor = ctx.probe.factor()
        ctx.detail("host.probe_low_ms", measure.low(ctx.probe.samples) * 1e3, "ms",
                   f"{ctx.probe.threads} thread(s), n={len(ctx.probe.samples)}")
        ctx.detail("host.probe_med_ms", statistics.median(ctx.probe.samples) * 1e3, "ms")
        ctx.detail("host.factor", factor, "ratio", "reference speed / the run's")
        for name in ("wall_s", "cpu_s", "setup_s"):
            ctx.detail(f"{name}.raw", metrics[name], "s", "before host-speed scaling")
            metrics[name] *= factor
        return metrics
    # A layer the workload does not exercise reports 0.
    metrics = dict.fromkeys(layer_names, 0.0)
    metrics.update(server_trace(ctx) if jobs is None else batch_trace(ctx, jobs(ctx.seed)))
    check_attribution(ctx, metrics)
    return metrics


def main(argv):
    args = parse_args(argv)
    try:
        e2e_units, layer_units, workloads = load_declared()
        if args.workload not in workloads:
            raise BenchError(f"unknown workload `{args.workload}` (one of {workloads})")
        ctx = Ctx(args, *build())
        metrics = run_workload(ctx, layer_units)
    except (BenchError, OSError, RuntimeError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    units = layer_units if args.trace else e2e_units
    if set(metrics) != set(units):
        print(f"perfbench: metric set mismatch: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    for name, value, unit, note in ctx.details:
        print(f"{name:<32} {value:>14.6g} {unit:<6} {note}")
    for name in units:
        print(f"{name:<32} {metrics[name]:>14.6g} {units[name]}")
    failed = len(ctx.failures)
    print(f"{'fail_ratio':<32} {failed / max(ctx.attempted, 1):>14.6g} ratio "
          f"{failed}/{ctx.attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(ctx.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
