"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The server and host-speed tests spawn the release `ethpos-cli` and
`perfbench-probe` from $CARGO_TARGET_DIR (default `.bench_build`); each is
skipped when its binary is not built (`python3 perfbench/run.py ...`
builds both).
"""

import os
import shutil
import tempfile
import unittest

import measure
import plan
import run
from client import LoopResult, ServerProcess, closed_loop, exchange, submit_and_wait

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RELEASE = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "release")
CLI = os.path.join(RELEASE, "ethpos-cli")
PROBE = os.path.join(RELEASE, "perfbench-probe")


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_job_lists(self):
        self.assertEqual(plan.paper_jobs(7), plan.paper_jobs(7))
        self.assertEqual(plan.churn_jobs(7), plan.churn_jobs(7))

    def test_seed_reaches_every_seeded_job(self):
        a, b = plan.paper_jobs(7), plan.paper_jobs(8)
        seeded = {"fig10", "sweep", "search-conflict", "search-non-slashable-horizon",
                  "search-proportion"}
        for x, y in zip(a, b):
            self.assertEqual(x.id, y.id)
            self.assertEqual(x.args != y.args, x.id in seeded, x.id)
        self.assertNotEqual(plan.churn_jobs(7), plan.churn_jobs(8))

    def test_cli_args_and_request_body_carry_the_same_seed(self):
        for job in plan.paper_jobs(3) + plan.churn_jobs(3):
            if "seed" in job.body:
                i = job.args.index("--seed")
                self.assertEqual(job.args[i + 1], str(job.body["seed"]), job.id)

    def test_same_seed_same_request_order(self):
        a, b = plan.ServerPlan(5), plan.ServerPlan(5)
        for client in range(3):
            for index in range(4):
                self.assertEqual(a.round(client, index), b.round(client, index))
        self.assertNotEqual(a.round(0, 0), plan.ServerPlan(6).round(0, 0))

    def test_rounds_mix_and_fresh_cold_seeds(self):
        p = plan.ServerPlan(5)
        cold = []
        for client in range(2):
            for index in range(50):
                ops = p.round(client, index)
                self.assertEqual(len(ops), plan.ROUND_HOT + 1)
                kinds = [kind for kind, _ in ops]
                self.assertEqual(kinds.count("cold"), 1)
                cold += [seed for kind, seed in ops if kind == "cold"]
        self.assertEqual(len(cold), len(set(cold)))
        self.assertTrue(all(seed >= 1 << 40 for seed in cold))


class PercentileRule(unittest.TestCase):
    def test_tail_is_the_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(measure.tail_percentile(19))
        self.assertEqual(measure.tail_percentile(20), 50)
        self.assertEqual(measure.tail_percentile(64), 75)
        self.assertEqual(measure.tail_percentile(100), 90)
        self.assertEqual(measure.tail_percentile(1000), 99)
        self.assertEqual(measure.tail_percentile(10_000), 99.9)

    def test_summary_reports_median_tail_and_count(self):
        values = list(range(1, 101))
        s = measure.summarize(values[::-1])
        self.assertEqual(s, {"count": 100, "p50": 50.5, "tail_pct": 90, "tail": 90})
        self.assertEqual(measure.summarize([3.0] * 5),
                         {"count": 5, "p50": 3.0, "tail_pct": None, "tail": None})

    def test_nearest_rank(self):
        self.assertEqual(measure.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(measure.percentile([5, 1, 4, 2, 3], 100), 5)

    def test_low_is_the_nearest_rank_tenth_percentile(self):
        self.assertEqual(measure.low(list(range(20, 0, -1))), 2)
        self.assertEqual(measure.low(list(range(1, 101))), 10)
        # Under ten samples it is the fastest one.
        self.assertEqual(measure.low([7.0, 3.0, 5.0, 4.0]), 3.0)


class Attribution(unittest.TestCase):
    def test_self_time_and_coverage(self):
        spans = measure.Spans(pid=1, t0=0.0)
        root = spans.add("bench.workload", 0.0, 1.0)
        step = spans.add("sim.step", 0.0, 0.6, parent=root)
        spans.add("state.advance", 0.1, 0.4, parent=step)
        spans.add("request.parse", 0.7, 0.95, parent=root)
        events = spans.events
        self.assertEqual([round(t, 6) for t in measure.self_times(events)],
                         [0.15e6, 0.3e6, 0.3e6, 0.25e6])
        # Against the untraced wall of the same work, not the root span.
        self.assertAlmostEqual(measure.coverage(events, 1e6), 0.85)
        self.assertAlmostEqual(measure.coverage(events, 1.7e6), 0.5)

    def test_probe_subtrees_are_not_the_program_s_time(self):
        spans = measure.Spans(pid=1, t0=0.0)
        root = spans.add("bench.workload", 0.0, 1.0)
        spans.add("sim.step", 0.0, 0.5, parent=root)
        probe = spans.add("bench.probe", 0.5, 0.9, parent=root)
        spans.add("state.mark", 0.5, 0.7, parent=probe)
        spans.add("state.advance", 0.7, 0.9, parent=probe)
        events = spans.events
        self.assertEqual([e["name"] for e in measure.outside_probes(events)],
                         ["bench.workload", "sim.step"])
        self.assertAlmostEqual(measure.layer_time(events), 0.5e6)
        self.assertAlmostEqual(measure.coverage(events, 0.5e6), 1.0)


@unittest.skipUnless(os.path.exists(PROBE), f"{PROBE} is not built")
class HostSpeed(unittest.TestCase):
    def test_factor_is_the_reference_over_the_probe_s_low_time(self):
        probe = run.HostProbe(PROBE, 2)
        try:
            for _ in range(9):
                probe.sample()
        finally:
            probe.stop()
        self.assertEqual(len(probe.samples), 10)
        self.assertTrue(all(0 < s < 5 for s in probe.samples))
        # Ten samples: the low time is the fastest.
        self.assertAlmostEqual(probe.factor(), run.PROBE_REF_S / 2 / min(probe.samples))


@unittest.skipUnless(os.path.exists(CLI), f"{CLI} is not built")
class ServerClient(unittest.TestCase):
    """The client against a spawned server on a tiny request set."""

    HOT = [({"kind": "partition", "validators": 400}, None),
           ({"kind": "experiment", "experiments": ["table1"], "format": "text"}, None)]

    def setUp(self):
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="test-", dir=os.path.join(ROOT, ".bench_out"))
        self.server = ServerProcess(CLI, os.path.join(self.dir, "cache"), 1)
        self.assertGreater(self.server.start(), 0)

    def tearDown(self):
        self.server.stop()
        shutil.rmtree(self.dir)

    def test_cold_then_hot_then_closed_loop(self):
        p = plan.ServerPlan(9, hot_set=self.HOT, round_hot=3, validators=400)
        addr = self.server.addr
        expected = []
        for i in range(len(self.HOT)):
            doc, submit, observed = submit_and_wait(addr, p.hot_body(i))
            self.assertEqual(submit.status, 202)
            self.assertGreaterEqual(observed["polls"], 1)
            hit = exchange(addr, "POST", "/v1/jobs", p.hot_body(i))
            self.assertEqual(hit.status, 200)
            self.assertEqual(hit.json()["document"], doc)
            expected.append(hit.body)
        before = self.server.metrics()
        result = closed_loop(addr, p, clients=2, seconds=0.2, expected_hot=expected)
        after = self.server.metrics()
        self.assertEqual(result.failures, [])
        # Each client runs at least one round of its own.
        self.assertGreaterEqual(len(result.round_walls), 2)
        self.assertEqual(len(result.hot), 3 * len(result.round_walls))
        self.assertEqual(len(result.cold), len(result.round_walls))
        hits = "ethpos_server_cache_hits_total"
        misses = "ethpos_server_cache_misses_total"
        self.assertEqual(after[hits] - before[hits], len(result.hot))
        self.assertEqual(after[misses] - before[misses], len(result.cold))
        self.assertEqual(len(result.cold_docs), len(result.cold))
        # A later slice continues the rounds (fresh cold seeds) and merges
        # into one result with a (median round, CPU per round) per slice.
        later = closed_loop(addr, p, clients=1, seconds=0.0, expected_hot=expected,
                            first_round=result.next_round)
        merged = LoopResult()
        for part, cpu in ((result, 0.4), (later, 0.1)):
            part.cpu = cpu
            merged.merge(part)
        self.assertEqual(later.failures, [])
        self.assertEqual(len(merged.slices), 2)
        self.assertEqual(merged.slices[1], (later.round_walls[0], 0.1))
        self.assertEqual(len(merged.cold_docs), len(result.cold) + 1)

    def test_wrong_hot_body_is_a_failure(self):
        p = plan.ServerPlan(9, hot_set=self.HOT[:1], round_hot=2, validators=400)
        submit_and_wait(self.server.addr, p.hot_body(0))
        result = closed_loop(self.server.addr, p, clients=1, seconds=0.0,
                             expected_hot=[b"not the document"])
        self.assertEqual(len(result.failures), 2)
        self.assertEqual(result.hot, [])


if __name__ == "__main__":
    unittest.main()
