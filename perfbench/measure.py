"""Timing summaries, spans and their attribution to layers."""

import json
import math
import statistics
import time

# The repo's layers, by module (see README.md). A span named
# `<layer>.<call>` is time spent in that layer; `bench.*` and `client.*`
# spans are the benchmark's own.
LAYERS = ("cli", "server", "request", "core", "search", "sim", "walk_mc", "pool",
          "state", "stats", "obs")

# The traced run's state probes (see tracer/src/main.rs): work the
# program itself never does, left out of coverage and tracing overhead.
PROBE = "bench.probe"

TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
MIN_BEYOND = 10

# The end-to-end times are the LOW_PCT-th percentile of a run's samples
# (see `low`).
LOW_PCT = 10


def rank(q, count):
    """Nearest rank of the q-th percentile among `count` samples (1-based;
    the epsilon keeps q = 99.9 of 10 000 from rounding up to 9991)."""
    return max(1, math.ceil(q * count / 100 - 1e-9))


def percentile(values, q):
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[rank(q, len(ordered)) - 1]


def low(values):
    """The time the program takes when the host lets it run at full
    speed: the nearest-rank LOW_PCT-th percentile of samples spread over
    the run. A shared host slows everything on it by up to 2x for tens of
    seconds at a time, in CPU time as much as in wall time, and a slow
    phase only ever adds time; the median of a run moves with how much of
    the run such phases cover, the low percentile much less."""
    return percentile(values, LOW_PCT)


def tail_percentile(count):
    """The highest ladder percentile with at least MIN_BEYOND samples
    above its rank, or None when even the median has fewer."""
    best = None
    for q in TAIL_LADDER:
        if count - rank(q, count) >= MIN_BEYOND:
            best = q
    return best


def summarize(values):
    """Median plus the highest percentile with >= 10 samples beyond it,
    with the sample count: {"count", "p50", "tail_pct", "tail"}."""
    count = len(values)
    if count == 0:
        return {"count": 0, "p50": None, "tail_pct": None, "tail": None}
    q = tail_percentile(count)
    return {"count": count, "p50": statistics.median(values), "tail_pct": q,
            "tail": percentile(values, q) if q is not None else None}


class Spans:
    """Benchmark-side span recorder (Chrome trace-event shape, in memory).

    Times are microseconds on the `time.perf_counter` clock, relative to
    `t0` (default: the recorder's creation). Each span has an id, its
    parent's id (0 for a root) and the job (or request) id it belongs to.
    """

    def __init__(self, pid, first_id=1, t0=None):
        self.pid = pid
        self.t0 = time.perf_counter() if t0 is None else t0
        self.events = []
        self._next = first_id

    def us(self, t):
        return (t - self.t0) * 1e6

    def add(self, name, start, end, parent=0, job="", tid=1, **args):
        """Records a finished span from perf_counter timestamps; returns its id."""
        span_id = self._next
        self._next += 1
        self.events.append({
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": round(self.us(start), 3), "dur": round((end - start) * 1e6, 3),
            "pid": self.pid, "tid": tid,
            "args": dict(args, id=span_id, parent=parent, job=job),
        })
        return span_id


def self_times(events):
    """Each span's duration minus the part its child spans cover."""
    child_total = {}
    for e in events:
        key = (e["pid"], e["args"]["parent"])
        child_total[key] = child_total.get(key, 0.0) + e["dur"]
    return [e["dur"] - child_total.get((e["pid"], e["args"]["id"]), 0.0) for e in events]


def outside_probes(events):
    """The events that are not inside a PROBE span."""
    by_id = {(e["pid"], e["args"]["id"]): e for e in events}

    def probed(e):
        while e is not None:
            if e["name"] == PROBE:
                return True
            e = by_id.get((e["pid"], e["args"]["parent"]))
        return False

    return [e for e in events if not probed(e)]


def layer_time(events):
    """Layer self-time (us) outside the probes: the time the spans
    attribute to the program's layers."""
    events = outside_probes(events)
    return sum(t for e, t in zip(events, self_times(events)) if e["cat"] in LAYERS)


def coverage(events, wall_us):
    """Share of `wall_us` -- the program's own time for the same work,
    measured without tracing -- that the layer spans account for."""
    return layer_time(events) / wall_us if wall_us > 0 else 0.0


def durations(events, name, **match):
    """Durations (us) of the spans called `name` whose args match."""
    return [e["dur"] for e in events if e["name"] == name
            and all(e["args"].get(k) == v for k, v in match.items())]


def write_chrome_trace(path, events):
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
