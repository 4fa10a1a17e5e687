"""Seeded inputs of the three workloads.

Everything a workload sends to the program is generated here from the
workload seed, so the same seed gives the same job list, the same
request order and the same cold seeds. The program only ever sees the
generated inputs.

A job is one `ethpos-cli` invocation together with the equivalent
service request body: the program guarantees that both produce the same
document (`JobRequest` is the single execution path), which is what the
traced run and the server workload rely on.
"""

import json
import random

VALIDATORS = 1_000_000

# The paper's experiments at n = 10^6 on the cohort backend (one job).
EXPERIMENTS = ["fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "table1", "table2", "table3"]

SEARCH_OBJECTIVES = ["conflict", "non-slashable-horizon", "proportion"]

CHURN_TIMELINE = "churn@0:0=0.5,0.5"
# 40 epochs: cohorts have fragmented (a peak of ~74 k; the cost per
# epoch grows superlinearly), and a job takes about 1 s, so a run holds
# some twenty of them and their median is steady on a shared host.
CHURN_EPOCHS = 40

# Server traffic: each client's round is ROUND_HOT cache hits plus one
# cold request (a miss that runs a preset partition job). No production
# traffic exists, so the share is taken from the repo's own use of the
# server: the CI `server-smoke` job submits one cold request and repeats
# it once (it asserts exactly 1 miss and 1 hit on /metrics), and the
# README quickstart does the same. One hit per miss.
ROUND_HOT = 1

# One client: the server runs cold jobs one at a time on a single runner,
# so with more clients a cold request's time depends on how the clients'
# rounds happen to line up, which swings from run to run.
SERVER_CLIENTS = 1

# The hot set, warmed before timing: documents from ~1 KB (partition
# report) to ~1 MB (fig2 JSON at n = 10^6).
HOT_SET = [
    ({"kind": "partition", "validators": VALIDATORS},
     ["partition", "--validators", str(VALIDATORS), "--format", "json"]),
    ({"kind": "partition", "validators": VALIDATORS, "format": "text"},
     ["partition", "--validators", str(VALIDATORS), "--format", "text"]),
    ({"kind": "experiment", "experiments": ["fig2"], "validators": VALIDATORS},
     ["fig2", "--validators", str(VALIDATORS), "--format", "json"]),
    ({"kind": "experiment", "experiments": ["table2", "table3"], "validators": VALIDATORS},
     ["table2", "table3", "--validators", str(VALIDATORS), "--format", "json"]),
    ({"kind": "experiment", "experiments": ["table1"], "format": "text"},
     ["table1", "--format", "text"]),
    ({"kind": "experiment", "experiments": ["fig3"]},
     ["fig3", "--format", "json"]),
    ({"kind": "search", "objective": "non-slashable-horizon"},
     ["search", "--objective", "non-slashable-horizon", "--format", "json"]),
]


class Job:
    """One CLI invocation and its request body.

    `route` names the layer entry point the traced run drives it through
    (see `tracer/src/main.rs`). `reps` is how often a pass repeats it.
    """

    def __init__(self, id, args, body, route, reps=1, sample_every=0):
        self.id = id
        self.args = list(args)
        self.body = body
        self.route = route
        self.reps = reps
        self.sample_every = sample_every

    def body_json(self):
        return json.dumps(self.body, sort_keys=True)

    def __eq__(self, other):
        return vars(self) == vars(other)

    def __repr__(self):
        return f"Job({self.id!r})"


def _seed(rng):
    return rng.randrange(1, 2**32)


def paper_jobs(seed):
    """The `paper` job list: fig10, sweep, three searches, the experiments
    at n = 10^6 and the partition presets. The seed feeds every seeded job;
    the short experiments and presets jobs repeat so their median is
    steady."""
    rng = random.Random(f"paper/{seed}")
    fig10_seed, sweep_seed = _seed(rng), _seed(rng)
    jobs = [
        Job("fig10", ["fig10", "--seed", str(fig10_seed)],
            {"kind": "experiment", "experiments": ["fig10"], "seed": fig10_seed}, "walk"),
        Job("sweep", ["sweep", "--seed", str(sweep_seed)],
            {"kind": "sweep", "seed": sweep_seed}, "execute"),
    ]
    for objective in SEARCH_OBJECTIVES:
        s = _seed(rng)
        jobs.append(Job(f"search-{objective}",
                        ["search", "--objective", objective, "--seed", str(s)],
                        {"kind": "search", "objective": objective, "seed": s}, "search"))
    jobs.append(Job("experiments", EXPERIMENTS + ["--validators", str(VALIDATORS)],
                    {"kind": "experiment", "experiments": EXPERIMENTS,
                     "validators": VALIDATORS}, "execute", reps=5))
    jobs.append(Job("presets", ["partition", "--validators", str(VALIDATORS)],
                    {"kind": "partition", "validators": VALIDATORS}, "partition",
                    reps=5, sample_every=50))
    for job in jobs:
        job.args += ["--format", "json"]
    return jobs


def churn_jobs(seed):
    """The `churn` job: §5.3 membership churn at n = 10^6 for CHURN_EPOCHS epochs."""
    s = _seed(random.Random(f"churn/{seed}"))
    args = ["partition", "--timeline", CHURN_TIMELINE, "--strategy", "dual-active",
            "--validators", str(VALIDATORS), "--epochs", str(CHURN_EPOCHS),
            "--seed", str(s), "--format", "json"]
    body = {"kind": "partition", "timelines": [CHURN_TIMELINE], "strategy": "dual-active",
            "validators": VALIDATORS, "epochs": CHURN_EPOCHS, "seed": s}
    return [Job("churn", args, body, "partition", sample_every=4)]


def cold_request(seed, validators=VALIDATORS):
    """A preset partition request that misses the cache (fresh seed)."""
    return ({"kind": "partition", "validators": validators, "seed": seed},
            ["partition", "--validators", str(validators), "--seed", str(seed),
             "--format", "json"])


class ServerPlan:
    """Per-client request streams for the closed loop.

    `round(client, index)` is that client's round `index`: `round_hot`
    hot indices into `hot_set` and one fresh cold seed, in a seeded
    order, as a pure function of (seed, client, index).
    """

    def __init__(self, seed, hot_set=HOT_SET, round_hot=ROUND_HOT, validators=VALIDATORS):
        self.seed = seed
        self.hot_set = hot_set
        self.round_hot = round_hot
        self.validators = validators

    def hot_body(self, index):
        return json.dumps(self.hot_set[index][0], sort_keys=True).encode()

    def cold_body(self, seed):
        return json.dumps(cold_request(seed, self.validators)[0], sort_keys=True).encode()

    def round(self, client, index):
        rng = random.Random(f"server/{self.seed}/{client}/{index}")
        ops = [("hot", rng.randrange(len(self.hot_set))) for _ in range(self.round_hot)]
        # Above 2^40: never the hot set's seed (0), and distinct across
        # clients and rounds with overwhelming probability.
        ops.insert(rng.randrange(len(ops) + 1), ("cold", rng.randrange(1 << 40, 1 << 62)))
        return ops
