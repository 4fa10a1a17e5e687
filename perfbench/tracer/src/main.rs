//! `perfbench-tracer` — the traced half of the perfbench benchmark.
//!
//! Reads a plan written by `perfbench/run.py`, drives its jobs
//! in-process through each layer's public functions and records one span
//! per call: name (`<layer>.<call>`), start, end, parent span and job id.
//! The spans live in memory and are written once, at the end, as a
//! Chrome trace-event file together with the exact work counters the
//! layers already keep (`SearchStats`, `ChurnStats`, `ForkStats`) and
//! the outcomes `run.py` checks against the CLI's documents. Nothing
//! inside the program is instrumented for this.
//!
//! ```text
//! perfbench-tracer <plan.json> <out.json>
//! ```
//!
//! Job routes (the plan's `route` field):
//!
//! * `execute` — `JobRequest::{parse, request_hash, execute}`; the
//!   document is written to `<out_dir>/<id>.doc`.
//! * `search` — parse, hash, then `SearchSpec::run_with_stats`.
//! * `walk` — a `fig10` request: the analytic generator
//!   (`run_experiment`) plus the §5.3 Monte Carlo table
//!   (`experiments::simulated::fig10_monte_carlo`, which runs
//!   `run_bouncing_walks`); the table is written to `<out_dir>/<id>.mc.json`
//!   for `run.py` to compare with the CLI's fig10 document.
//! * `partition` — parse, hash, then every scenario stepped with
//!   `PartitionSim::step` on the cohort backend. Every `sample_every`-th
//!   epoch each live branch is first cloned and the clone is marked and
//!   advanced through `StateBackend::{mark_class_counted, advance_epoch}`
//!   (the copy-on-write clone, marking, advance and the binomial draws
//!   each get their own span, all under one `bench.probe` span), so the
//!   state layer's cost is timed at the same epochs as the step that pays
//!   it. The probe is extra work the CLI never does: `run.py` leaves the
//!   `bench.probe` subtrees out of coverage and tracing overhead.
//!
//! With `"spans": false` in the plan the same jobs run without recording
//! spans and without probes; the output then carries only the total wall
//! time (`wall_us`), the untraced side of `obs.trace_overhead`.
//!
//! The plan's `parse_bodies`, `hot_*` and `cold_*` fields drive the
//! server layers: request parsing and hashing over the traffic mix,
//! `ArtifactCache::load_document` over the warmed hot set, and execute
//! plus `ArtifactCache::store` for cold requests.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ethpos_core::experiments::{run_experiment, simulated, Experiment};
use ethpos_core::{BackendKind, JobRequest};
use ethpos_server::ArtifactCache;
use ethpos_sim::partition::MarkingPlan;
use ethpos_sim::{PartitionConfig, PartitionSim};
use ethpos_state::backend::StateBackend;
use ethpos_state::participation::{
    TIMELY_HEAD_FLAG_INDEX, TIMELY_SOURCE_FLAG_INDEX, TIMELY_TARGET_FLAG_INDEX,
};
use ethpos_state::{CohortState, ParticipationFlags};
use ethpos_stats::{seeded_rng, Binomial};
use ethpos_types::{ChainConfig, Root};
use rand::rngs::StdRng;
use serde_json::Value;

/// One finished span. Times are microseconds since the tracer started.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    job: String,
    start_us: f64,
    end_us: f64,
    args: Vec<(&'static str, String)>,
}

/// In-memory span recorder with an explicit parent stack. A disabled
/// recorder runs the calls and records nothing.
struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u64>,
    next_id: u64,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 1,
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` (a `<layer>.<call>` id).
    fn span<T>(
        &mut self,
        name: &'static str,
        job: &str,
        args: Vec<(&'static str, String)>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_us = self.now_us();
        let out = f(self);
        let end_us = self.now_us();
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            name,
            job: job.to_string(),
            start_us,
            end_us,
            args,
        });
        out
    }
}

/// Exact counters and checked outcomes, rendered into the output file.
#[derive(Default)]
struct Report {
    counters: BTreeMap<String, u64>,
    /// Pre-rendered JSON values keyed by job id.
    outcomes: BTreeMap<String, String>,
}

impl Report {
    fn add(&mut self, key: impl Into<String>, value: u64) {
        *self.counters.entry(key.into()).or_insert(0) += value;
    }

    fn max(&mut self, key: impl Into<String>, value: u64) {
        let slot = self.counters.entry(key.into()).or_insert(0);
        *slot = (*slot).max(value);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [plan_path, out_path] = args.as_slice() else {
        eprintln!("usage: perfbench-tracer <plan.json> <out.json>");
        return ExitCode::from(2);
    };
    match run(plan_path, out_path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench-tracer: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run(plan_path: &str, out_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(plan_path).map_err(|e| format!("{plan_path}: {e}"))?;
    let plan: Value = serde_json::from_str(&text).map_err(|e| format!("{plan_path}: {e}"))?;
    let workload = str_field(&plan, "workload")?.to_string();
    let threads = u64_field(&plan, "threads")? as usize;
    let out_dir = str_field(&plan, "out_dir")?.to_string();
    let mut rng = seeded_rng(u64_field(&plan, "probe_seed")?);

    let mut tracer = Tracer::new(plan.get("spans").and_then(Value::as_bool) != Some(false));
    let mut report = Report::default();
    let started = Instant::now();
    tracer.span(
        "bench.workload",
        &workload,
        vec![],
        |tr| -> Result<(), String> {
            for job in array_field(&plan, "jobs")? {
                let id = str_field(job, "id")?;
                let route = str_field(job, "route")?;
                let body = str_field(job, "body")?;
                let sample_every = match tr.enabled {
                    true => u64_field(job, "sample_every").unwrap_or(0),
                    false => 0,
                };
                let mut request = parse_and_hash(tr, id, body)?;
                request.set_threads(threads);
                match route {
                    "execute" => {
                        let kind = request.kind();
                        let output =
                            tr.span("core.execute", id, vec![("kind", kind.into())], |_| {
                                request.execute()
                            });
                        write_doc(&out_dir, id, &output.document)?;
                    }
                    "search" => run_search(tr, &mut report, id, &request, &out_dir)?,
                    "walk" => run_walk(tr, &mut report, id, &request, &out_dir)?,
                    "partition" => {
                        run_partition(tr, &mut report, id, &request, sample_every, &mut rng)?;
                    }
                    other => return Err(format!("job `{id}`: unknown route `{other}`")),
                }
            }
            run_server_layers(tr, &plan, &out_dir)
        },
    )?;
    let wall_us = started.elapsed().as_secs_f64() * 1e6;
    write_output(out_path, &tracer, &report, wall_us)
}

fn parse_and_hash(tr: &mut Tracer, job: &str, body: &str) -> Result<JobRequest, String> {
    let request = tr
        .span("request.parse", job, vec![], |_| JobRequest::parse(body))
        .map_err(|e| format!("job `{job}`: {e}"))?;
    tr.span("request.hash", job, vec![], |_| {
        black_box(request.request_hash())
    });
    Ok(request)
}

fn run_search(
    tr: &mut Tracer,
    report: &mut Report,
    job: &str,
    request: &JobRequest,
    out_dir: &str,
) -> Result<(), String> {
    let JobRequest::Search { spec, .. } = request else {
        return Err(format!(
            "job `{job}`: route `search` needs a search request"
        ));
    };
    let objective = spec.objective.id();
    let (frontier, stats) = tr.span(
        "search.run",
        job,
        vec![("objective", objective.into())],
        |_| spec.run_with_stats(),
    );
    for (name, value) in [
        ("evaluations", stats.evaluations),
        ("reconstructed", stats.reconstructed),
        ("checkpoint_records", stats.checkpoint_records),
        ("checkpoint_hits", stats.checkpoint_hits),
        ("stream_epochs", stats.stream_epochs),
        ("pair_epochs", stats.pair_epochs),
    ] {
        report.add(format!("search.{name}"), value);
        report.add(format!("search.{objective}.{name}"), value);
    }
    let stats_json = serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?;
    std::fs::write(
        Path::new(out_dir).join(format!("{job}.stats.json")),
        stats_json,
    )
    .map_err(|e| format!("{out_dir}: {e}"))?;
    report.outcomes.insert(
        job.to_string(),
        format!(
            "{{\"conflict_epoch\": {}, \"horizon\": {}}}",
            opt_json(frontier.best.conflict_epoch),
            opt_json(frontier.best.horizon)
        ),
    );
    Ok(())
}

fn run_walk(
    tr: &mut Tracer,
    report: &mut Report,
    job: &str,
    request: &JobRequest,
    out_dir: &str,
) -> Result<(), String> {
    let JobRequest::Run {
        experiments, mc, ..
    } = request
    else {
        return Err(format!(
            "job `{job}`: route `walk` needs an experiment request"
        ));
    };
    for &experiment in experiments {
        if experiment != Experiment::Fig10ThresholdProbability {
            return Err(format!("job `{job}`: route `walk` runs fig10 only"));
        }
        tr.span(
            "core.experiment",
            job,
            vec![("experiment", experiment.id().into())],
            |_| black_box(run_experiment(experiment)),
        );
        // `run_experiment_with` appends this table at β₀ = 0.33; run.py
        // checks it against the CLI's document, so a changed β₀ fails.
        let table = tr.span("walk_mc.run", job, vec![], |_| {
            simulated::fig10_monte_carlo(0.33, mc)
        });
        let table = serde_json::to_string(&table).map_err(|e| e.to_string())?;
        std::fs::write(Path::new(out_dir).join(format!("{job}.mc.json")), table)
            .map_err(|e| format!("{out_dir}: {e}"))?;
        // Walker-epochs of the Monte Carlo configuration the program
        // parsed from the request.
        report.add("walk_mc.walker_epochs", mc.walkers as u64 * mc.epochs);
    }
    Ok(())
}

fn run_partition(
    tr: &mut Tracer,
    report: &mut Report,
    job: &str,
    request: &JobRequest,
    sample_every: u64,
    rng: &mut StdRng,
) -> Result<(), String> {
    let JobRequest::Partition { spec, .. } = request else {
        return Err(format!(
            "job `{job}`: route `partition` needs a partition request"
        ));
    };
    if spec.backend != BackendKind::Cohort {
        return Err(format!(
            "job `{job}`: the traced run steps the cohort backend only"
        ));
    }
    let mut rows = Vec::new();
    for (index, scenario) in spec.scenarios.iter().enumerate() {
        // The configuration `partition::run_scenario_with_stats` builds.
        let byzantine = (scenario.beta0 * spec.n as f64).round() as usize;
        let config = PartitionConfig {
            chain: ChainConfig::paper(),
            n: spec.n,
            byzantine,
            timeline: scenario.timeline.clone(),
            max_epochs: scenario.epochs,
            seed: spec.seed,
            stop_on_conflict: scenario.stop_on_conflict,
            stop_on_finalization: false,
            record_every: u64::MAX,
        };
        let compiled = scenario
            .timeline
            .compile((spec.n - byzantine) as u64)
            .map_err(|e| format!("job `{job}`: {e}"))?;
        let mut sim = PartitionSim::<CohortState>::with_backend(config, scenario.strategy.build())
            .map_err(|e| format!("job `{job}`: {e}"))?;
        while !sim.is_finished() {
            let epoch = sim.current_epoch();
            let steps = compiled.steps();
            let event_now = steps.iter().any(|s| s.epoch() == epoch);
            if sample_every > 0 && epoch > 0 && epoch % sample_every == 0 && !event_now {
                if let Some(step) = steps.iter().rev().find(|s| s.epoch() <= epoch) {
                    let at = (index, epoch);
                    let args = vec![
                        ("scenario", index.to_string()),
                        ("epoch", epoch.to_string()),
                    ];
                    tr.span("bench.probe", job, args, |tr| {
                        probe_branches(tr, report, job, &sim, step.plan(), at, rng)
                    });
                }
            }
            let args = vec![
                ("scenario", index.to_string()),
                ("epoch", epoch.to_string()),
            ];
            tr.span("sim.step", job, args, |_| sim.step());
        }
        let churn = sim.churn_stats();
        let fork = sim.fork_stats();
        report.add("stats.binomial_draws", churn.draws);
        report.add("stats.binomial_members", churn.members);
        report.add("sim.forks", fork.forks);
        for b in sim.live_branches() {
            if let Some(frag) = sim.branch(b).fragmentation() {
                report.max("state.cohorts_peak", frag.cohorts);
            }
        }
        let outcome = tr.span("sim.finish", job, vec![], |_| sim.finish());
        report.add("sim.epochs", outcome.epochs_run);
        let first_finalization: Vec<String> = outcome
            .branches
            .iter()
            .map(|b| opt_json(b.first_finalization_epoch))
            .collect();
        let max_beta = outcome
            .branches
            .iter()
            .fold(0.0f64, |acc, b| acc.max(b.max_byzantine_proportion));
        rows.push(format!(
            "{{\"scenario\": {}, \"conflict_epoch\": {}, \"epochs_run\": {}, \
             \"double_vote_epochs\": {}, \"first_finalization\": [{}], \
             \"max_byzantine_proportion\": {max_beta:?}, \"branches_total\": {}, \
             \"churn_draws\": {}, \"churn_members\": {}}}",
            json_str(&scenario.name),
            opt_json(outcome.conflicting_finalization_epoch),
            outcome.epochs_run,
            outcome.double_vote_epochs,
            first_finalization.join(", "),
            outcome.branches.len(),
            churn.draws,
            churn.members,
        ));
    }
    report
        .outcomes
        .insert(job.to_string(), format!("[{}]", rows.join(", ")));
    Ok(())
}

/// The state-layer probe: clone each live branch at the start of epoch
/// `at.1` of scenario `at.0`, then mark and advance the clone the way `PartitionSim::step`
/// marks and advances the branch itself (honest classes only — the
/// Byzantine class is one cohort and its decision belongs to the
/// schedule), and replay the clone's binomial draws on their own.
fn probe_branches(
    tr: &mut Tracer,
    report: &mut Report,
    job: &str,
    sim: &PartitionSim<CohortState>,
    plan: &MarkingPlan,
    at: (usize, u64),
    rng: &mut StdRng,
) {
    let (scenario, epoch) = at;
    let mut flags = ParticipationFlags::EMPTY;
    flags.set(TIMELY_SOURCE_FLAG_INDEX);
    flags.set(TIMELY_TARGET_FLAG_INDEX);
    flags.set(TIMELY_HEAD_FLAG_INDEX);
    for b in sim.live_branches() {
        let args = || {
            vec![
                ("scenario", scenario.to_string()),
                ("epoch", epoch.to_string()),
                ("branch", b.as_u64().to_string()),
            ]
        };
        let mut state = tr.span("state.clone", job, args(), |_| sim.branch(b).clone());
        if let Some(frag) = state.fragmentation() {
            report.max("state.cohorts_peak", frag.cohorts);
        }
        let mut draws: Vec<(u64, f64)> = Vec::new();
        tr.span("state.mark", job, args(), |_| {
            for &class in plan.pinned_classes(b).unwrap_or(&[]) {
                state.mark_class(class, flags);
            }
            for group in plan.churn_groups() {
                let Some(position) = group.branches.iter().position(|x| *x == b) else {
                    continue;
                };
                let p = group.marginal[position];
                for &class in &group.classes {
                    state.mark_class_counted(class, flags, &mut |count| {
                        draws.push((count, p));
                        Binomial::new(count, p).sample(&mut *rng)
                    });
                }
            }
        });
        let root = Root::from_u64(epoch + 1);
        tr.span("state.advance", job, args(), |_| {
            state.advance_epoch(Some(root))
        });
        tr.span("state.drop", job, args(), |_| drop(state));
        report.add("state.probes", 1);
        if !draws.is_empty() {
            let mut replay_args = args();
            replay_args.push(("draws", draws.len().to_string()));
            tr.span("stats.binomial", job, replay_args, |_| {
                let total: u64 = draws
                    .iter()
                    .map(|&(count, p)| Binomial::new(count, p).sample(&mut *rng))
                    .sum();
                black_box(total)
            });
        }
    }
}

fn run_server_layers(tr: &mut Tracer, plan: &Value, out_dir: &str) -> Result<(), String> {
    let bodies = optional_array(plan, "parse_bodies");
    let repeat = u64_field(plan, "parse_repeat").unwrap_or(1);
    for _ in 0..repeat {
        for body in bodies {
            let body = body
                .as_str()
                .ok_or("parse_bodies entries must be strings")?;
            parse_and_hash(tr, "server", body)?;
        }
    }
    let hashes = optional_array(plan, "hot_hashes");
    if !hashes.is_empty() {
        let dir = str_field(plan, "hot_cache_dir")?;
        let cache = ArtifactCache::open(dir).map_err(|e| format!("{dir}: {e}"))?;
        let repeat = u64_field(plan, "hot_repeat").unwrap_or(1);
        for round in 0..repeat {
            for (i, hash) in hashes.iter().enumerate() {
                let hash = hash.as_str().ok_or("hot_hashes entries must be strings")?;
                let doc = tr.span("server.cache_load", "server", vec![], |_| {
                    cache.load_document(hash)
                });
                let doc = doc.ok_or_else(|| format!("hot artifact {hash} is not cached"))?;
                if round == 0 {
                    write_doc(out_dir, &format!("hot-{i}"), &doc)?;
                }
            }
        }
    }
    let cold = optional_array(plan, "cold_bodies");
    if !cold.is_empty() {
        let dir = str_field(plan, "cold_store_dir")?;
        let store = ArtifactCache::open(dir).map_err(|e| format!("{dir}: {e}"))?;
        let threads = u64_field(plan, "threads")? as usize;
        for (i, body) in cold.iter().enumerate() {
            let id = format!("cold-{i}");
            let body = body.as_str().ok_or("cold_bodies entries must be strings")?;
            let mut request = parse_and_hash(tr, &id, body)?;
            request.set_threads(threads);
            let hash = request.request_hash();
            let kind = request.kind();
            let output = tr.span("core.execute", &id, vec![("kind", kind.into())], |_| {
                request.execute()
            });
            tr.span("server.cache_store", &id, vec![], |_| {
                store.store(&hash, &output)
            })
            .map_err(|e| format!("{dir}: {e}"))?;
            write_doc(out_dir, &id, &output.document)?;
        }
    }
    Ok(())
}

fn write_doc(out_dir: &str, id: &str, document: &str) -> Result<(), String> {
    std::fs::write(Path::new(out_dir).join(format!("{id}.doc")), document)
        .map_err(|e| format!("{out_dir}: {e}"))
}

fn write_output(path: &str, tracer: &Tracer, report: &Report, wall_us: f64) -> Result<(), String> {
    let mut out = format!("{{\"wall_us\": {wall_us:.3},\n\"traceEvents\": [");
    for (i, span) in tracer.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let layer = span.name.split('.').next().unwrap_or(span.name);
        let _ = write!(
            out,
            "\n{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {}, \"parent\": {}, \"job\": {}",
            json_str(span.name),
            json_str(layer),
            span.start_us,
            span.end_us - span.start_us,
            span.id,
            span.parent,
            json_str(&span.job)
        );
        for (key, value) in &span.args {
            let _ = write!(out, ", {}: {}", json_str(key), json_str(value));
        }
        out.push_str("}}");
    }
    out.push_str("\n],\n\"counters\": {");
    for (i, (key, value)) in report.counters.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}{}: {value}", json_str(key));
    }
    out.push_str("},\n\"outcomes\": {");
    for (i, (key, value)) in report.outcomes.iter().enumerate() {
        let sep = if i > 0 { ",\n" } else { "\n" };
        let _ = write!(out, "{sep}{}: {value}", json_str(key));
    }
    out.push_str("}}\n");
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn opt_json(value: Option<u64>) -> String {
    value.map_or_else(|| "null".into(), |v| v.to_string())
}

fn str_field<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("plan: missing string `{key}`"))
}

fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("plan: missing integer `{key}`"))
}

fn array_field<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], String> {
    value
        .get(key)
        .and_then(Value::as_array)
        .map(Vec::as_slice)
        .ok_or_else(|| format!("plan: missing array `{key}`"))
}

fn optional_array<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    array_field(value, key).unwrap_or(&[])
}
