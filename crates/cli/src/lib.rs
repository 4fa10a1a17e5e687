//! Argument parsing and rendering for `ethpos-cli`, split out of the
//! binary so the logic is unit-testable.
//!
//! The CLI regenerates paper experiments through
//! [`ethpos_core::experiments::run_experiment_with`]: each positional
//! argument is an experiment id (`fig2` … `table3`) or `all`, and
//! `--format` selects rendered text (default) or JSON. JSON output is
//! always a single document: one object per selected experiment, wrapped
//! in an array when more than one experiment is selected.
//!
//! The `sweep` subcommand runs [`ethpos_core::sweep::SweepSpec`] grids
//! instead of the paper's fixed parameters: `--grid axis=v1,v2,…`
//! replaces an axis (`beta0`, `p0`, `walkers`, `validators`,
//! `semantics`), and `--walkers` / `--epochs` / `--seed` set the scalar
//! Monte-Carlo knobs. `--threads` bounds the worker pool everywhere; by
//! the workspace's determinism model it can change wall-clock time but
//! never a single output byte.
//!
//! `--validators N` switches on the discrete spec-arithmetic
//! cross-checks at registry size `N` (fig2, table2, table3, and the
//! sweep's `t_disc` column), and `--backend dense|cohort` picks the
//! state representation they run on — the cohort-compressed backend
//! makes `N = 1000000` interactive.
//!
//! The `search` subcommand runs the [`ethpos_search`] adversary-strategy
//! search: `--objective` picks the damage metric, `--budget` the number
//! of candidate evaluations, and the frontier report comes back as text
//! or JSON — byte-identical for any `--threads` value, like everything
//! else.
//!
//! The `partition` subcommand runs k-branch partition timelines
//! ([`ethpos_core::partition`]): `--timeline` selects a preset
//! (`three-branch`, `heal-resplit`) or a raw spec
//! (`split@0:0=0.34,0.33,0.33; heal@400:0<-1`, repeatable for a batch),
//! `--strategy`/`--beta0`/`--epochs` override the adversary and sizing,
//! and the batch fans over the worker pool — byte-identical for any
//! `--threads`.
//!
//! The `chaos` subcommand runs randomized campaigns
//! ([`ethpos_core::chaos`]): `--budget` cases are sampled (timeline ×
//! adversary × stake split), every run is checked against safety and
//! liveness oracles derived from the paper's closed forms, and any
//! unexpected violation is minimized by the timeline-aware shrinker
//! before it is reported — byte-identical for any `--threads`.
//!
//! `--out <path>` (any mode) writes the document to a file instead of
//! stdout, so CI jobs collect artifacts without shell redirection.
//! `--regen-golden <dir>` rewrites the golden-snapshot corpus under
//! `<dir>` (normally `tests/golden`, including the chaos replay corpus
//! under `<dir>/chaos`) after an intentional behaviour change.

#![warn(missing_docs)]

use ethpos_core::experiments::{Experiment, McConfig};
use ethpos_core::partition::{self, PartitionSpec, StrategyKind};
use ethpos_core::sweep::SweepSpec;
use ethpos_core::{BackendKind, ChaosSpec, DocumentFormat, JobRequest};
use ethpos_search::{Objective, SearchSpec};

/// Usage text printed on `--help` and argument errors.
pub const USAGE: &str = "\
ethpos-cli — reproduce the tables and figures of
'Byzantine Attacks Exploiting Penalties in Ethereum PoS' (DSN 2024)

USAGE:
    ethpos-cli [EXPERIMENT]... [OPTIONS]
    ethpos-cli sweep [--grid AXIS=V1,V2,...]... [OPTIONS]
    ethpos-cli search [--objective ID] [--budget N] [OPTIONS]
    ethpos-cli partition [--timeline SPEC]... [OPTIONS]
    ethpos-cli chaos [--budget N] [--seed S] [OPTIONS]
    ethpos-cli serve [--addr A] [--cache-dir D] [--threads N]
    ethpos-cli --regen-golden <dir>
    ethpos-cli --list

ARGS:
    EXPERIMENT    fig2 fig3 fig6 fig7 fig8 fig9 fig10 table1 table2 table3
                  frontier partition, or `all` for every experiment in
                  paper order
    sweep         run a parameter grid (β0 × p0 × walkers × semantics)
                  over the §5.3 Monte Carlo and the §5.2 closed forms
    search        search the adversary strategy space (duty-cycle genomes
                  over both branches) for the worst-case damage-vs-cost
                  Pareto frontier, evaluated on the exact discrete
                  protocol
    partition     run k-branch partition timelines (splits, heals, churn)
                  the paper cannot express, at paper-true population
                  sizes on the cohort backend
    chaos         run a randomized campaign (sampled timelines ×
                  adversaries × stake splits) against safety/liveness
                  oracles; unexpected violations are shrunk to minimal
                  reproducers
    serve         run the resident experiment service: a JSON API over
                  every mode above, behind a content-addressed artifact
                  cache (identical requests are answered byte-identically
                  without re-simulating), with GET /metrics and
                  GET /healthz

OPTIONS:
    --format <text|json>    Output format [default: text]
    --out <path>            Write the document to a file instead of stdout
    --stats-out <path>      (search, partition, chaos) also write the run's
                            work counters (prefix-memo checkpoint hits,
                            fork depths, churn count-draws per cohort) as a
                            separate JSON artifact — the main document
                            stays byte-identical
    --metrics-out <path>    (any run mode) enable the metrics registry and
                            write its exposition (chunk-pool throughput,
                            per-stage epoch timings, cohort fragmentation
                            gauges, per-mode work counters) at the end of
                            the run — the main document stays
                            byte-identical
    --metrics-format <prom|json>
                            Exposition format of --metrics-out: Prometheus
                            text or a JSON snapshot [default: prom]
    --trace-out <path>      (any run mode) enable span tracing and write a
                            Chrome trace-event JSON (load it in
                            chrome://tracing or Perfetto) at the end of
                            the run — the main document stays
                            byte-identical
    --threads <N>           Worker threads, 0 = all hardware threads
                            [default: 0]; never changes the output bytes
    --walkers <N>           Monte-Carlo walkers [default: 20000]
    --epochs <N>            Monte-Carlo epoch horizon
                            [default: 8000; sweep: 3000]
    --seed <N>              Monte-Carlo root seed [default: 42; sweep: 11]
    --validators <N>        Run the discrete protocol cross-checks (fig2,
                            table2, table3; sweep: the t_disc column) at
                            registry size N — spec scale (1000000) is
                            interactive on the cohort backend
    --backend <dense|cohort> State backend of the discrete cross-checks
                            [default: cohort]; both produce identical
                            results, dense is the O(n·epochs) reference
    --grid <AXIS=V1,V2,..>  (sweep only, repeatable) replace a sweep axis:
                            beta0, p0, walkers, validators,
                            semantics (paper|spec)
    --objective <ID>        (search) damage metric: conflict, proportion,
                            non-slashable-horizon [default: conflict]
    --budget <N>            (search, chaos) candidate / case count
                            [default: 256]
    --beta0 <X>             (search, partition) initial Byzantine
                            proportion [default: mode-specific]
    --p0 <X>                (search) honest split [default: 0.5]
    --max-period <N>        (search) duty-period bound of the exhaustive
                            grid [default: 3]
    --timeline <SPEC>       (partition, repeatable) a preset name
                            (three-branch, heal-resplit) or a raw spec:
                            `;`-separated split@E:B=W1,W2,…
                            churn@E:B=W1,W2,… heal@E:S<-B1+B2 events
                            [default: both presets]
    --strategy <ID>         (partition) adversary strategy for raw specs:
                            dual-active, semi-active, threshold-seeker,
                            rotate, rotate-dwell [default: rotate-dwell]
    --addr <HOST:PORT>      (serve) listen address [default: 127.0.0.1:4280;
                            port 0 picks a free port]
    --cache-dir <DIR>       (serve) artifact cache directory
                            [default: .ethpos-cache]
    --regen-golden <dir>    Rewrite the golden-snapshot corpus fixtures
                            (the five paper scenarios plus the chaos
                            replay corpus under <dir>/chaos) into <dir>
    --list                  List experiment ids with their paper reference
    --help                  Show this help";

/// Output format selected with `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Rendered tables and series summaries.
    Text,
    /// The full experiment outputs (every series point) as JSON.
    Json,
}

/// Exposition format selected with `--metrics-format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// Prometheus text exposition (`# HELP` / `# TYPE` / samples).
    #[default]
    Prometheus,
    /// The registry's JSON snapshot.
    Json,
}

/// The observability outputs of one invocation — `--metrics-out`,
/// `--metrics-format` and `--trace-out`, valid in every run mode.
/// Recording is **off** unless the corresponding output is requested,
/// and by the workspace's determinism model turning it on never changes
/// a byte of the main document (or of `--stats-out`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsOutputs {
    /// `--metrics-out` destination; the metrics registry records iff
    /// this is set.
    pub metrics_out: Option<String>,
    /// `--metrics-format` [default: prom].
    pub metrics_format: MetricsFormat,
    /// `--trace-out` destination; span tracing records iff this is set.
    pub trace_out: Option<String>,
}

impl ObsOutputs {
    /// True when neither output was requested.
    pub fn is_empty(&self) -> bool {
        self.metrics_out.is_none() && self.trace_out.is_none()
    }
}

/// What one invocation should do.
#[derive(Debug, Clone, PartialEq)]
pub enum Cli {
    /// Run the selected experiments and print them.
    Run {
        /// Experiments in the order they will run.
        experiments: Vec<Experiment>,
        /// Selected output format.
        format: Format,
        /// Monte-Carlo sizing/seeding/threading for the simulation-backed
        /// cross-checks (currently: the fig10 walker Monte Carlo).
        mc: McConfig,
        /// `--out` destination (stdout when absent).
        out: Option<String>,
        /// Metrics/trace outputs (`--metrics-out`, `--trace-out`).
        obs: ObsOutputs,
    },
    /// Run a parameter sweep (`sweep`).
    Sweep {
        /// The grid to evaluate.
        spec: SweepSpec,
        /// Selected output format.
        format: Format,
        /// `--out` destination (stdout when absent).
        out: Option<String>,
        /// Metrics/trace outputs (`--metrics-out`, `--trace-out`).
        obs: ObsOutputs,
    },
    /// Run an adversary strategy search (`search`).
    Search {
        /// The search to run.
        spec: SearchSpec,
        /// Selected output format.
        format: Format,
        /// `--out` destination (stdout when absent).
        out: Option<String>,
        /// `--stats-out` destination for the prefix-memo work counters
        /// (no artifact when absent; never part of the frontier
        /// document).
        stats_out: Option<String>,
        /// Metrics/trace outputs (`--metrics-out`, `--trace-out`).
        obs: ObsOutputs,
    },
    /// Run partition timelines (`partition`).
    Partition {
        /// The scenario batch to run.
        spec: PartitionSpec,
        /// Selected output format.
        format: Format,
        /// `--out` destination (stdout when absent).
        out: Option<String>,
        /// `--stats-out` destination for the batch's fork and churn-draw
        /// counters (no artifact when absent; never part of the report
        /// document).
        stats_out: Option<String>,
        /// Metrics/trace outputs (`--metrics-out`, `--trace-out`).
        obs: ObsOutputs,
    },
    /// Run a randomized chaos campaign (`chaos`).
    Chaos {
        /// The campaign to run.
        spec: ChaosSpec,
        /// Selected output format.
        format: Format,
        /// `--out` destination (stdout when absent).
        out: Option<String>,
        /// `--stats-out` destination for the campaign's fork and
        /// churn-draw counters (no artifact when absent; never part of
        /// the report document).
        stats_out: Option<String>,
        /// Metrics/trace outputs (`--metrics-out`, `--trace-out`).
        obs: ObsOutputs,
    },
    /// Run the resident experiment service (`serve`).
    Serve {
        /// `--addr` listen address (`host:port`; port 0 = ephemeral).
        addr: String,
        /// `--cache-dir` artifact cache directory.
        cache_dir: String,
        /// `--threads` worker budget handed to every job (0 = all
        /// cores).
        threads: usize,
    },
    /// Rewrite the golden-snapshot corpus (`--regen-golden <dir>`).
    RegenGolden {
        /// Destination directory (normally `tests/golden`).
        dir: String,
    },
    /// Print the experiment table (`--list`).
    List,
    /// Print [`USAGE`] (`--help`).
    Help,
}

impl Cli {
    /// The `--out` destination, if one was given.
    pub fn out(&self) -> Option<&str> {
        match self {
            Cli::Run { out, .. }
            | Cli::Sweep { out, .. }
            | Cli::Search { out, .. }
            | Cli::Partition { out, .. }
            | Cli::Chaos { out, .. } => out.as_deref(),
            Cli::Serve { .. } | Cli::RegenGolden { .. } | Cli::List | Cli::Help => None,
        }
    }

    /// The `--stats-out` destination, if one was given (search,
    /// partition and chaos only).
    pub fn stats_out(&self) -> Option<&str> {
        match self {
            Cli::Search { stats_out, .. }
            | Cli::Partition { stats_out, .. }
            | Cli::Chaos { stats_out, .. } => stats_out.as_deref(),
            _ => None,
        }
    }

    /// The observability outputs, if this is a run mode.
    pub fn obs(&self) -> Option<&ObsOutputs> {
        match self {
            Cli::Run { obs, .. }
            | Cli::Sweep { obs, .. }
            | Cli::Search { obs, .. }
            | Cli::Partition { obs, .. }
            | Cli::Chaos { obs, .. } => Some(obs),
            Cli::Serve { .. } | Cli::RegenGolden { .. } | Cli::List | Cli::Help => None,
        }
    }
}

/// A failed parse: the message to print before [`USAGE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Unknown id, unknown flag or malformed option value.
    Usage(String),
}

/// Flag values accumulated by the first parsing pass, before the mode
/// (experiments vs sweep vs search) is known.
#[derive(Debug, Default)]
struct RawFlags {
    format: Option<Format>,
    threads: Option<usize>,
    walkers: Option<usize>,
    epochs: Option<u64>,
    seed: Option<u64>,
    validators: Option<usize>,
    backend: Option<BackendKind>,
    grids: Vec<String>,
    objective: Option<Objective>,
    budget: Option<usize>,
    beta0: Option<f64>,
    p0: Option<f64>,
    max_period: Option<u8>,
    timelines: Vec<String>,
    strategy: Option<StrategyKind>,
    regen_golden: Option<String>,
    addr: Option<String>,
    cache_dir: Option<String>,
    out: Option<String>,
    stats_out: Option<String>,
    metrics_out: Option<String>,
    metrics_format: Option<MetricsFormat>,
    trace_out: Option<String>,
}

impl RawFlags {
    /// Assembles the `--metrics-out` / `--metrics-format` /
    /// `--trace-out` trio, rejecting a format with nowhere to go.
    fn obs_outputs(&self) -> Result<ObsOutputs, CliError> {
        if self.metrics_format.is_some() && self.metrics_out.is_none() {
            return Err(CliError::Usage(
                "--metrics-format needs --metrics-out <path>".into(),
            ));
        }
        Ok(ObsOutputs {
            metrics_out: self.metrics_out.clone(),
            metrics_format: self.metrics_format.unwrap_or_default(),
            trace_out: self.trace_out.clone(),
        })
    }
}

/// Parses command-line arguments (without the program name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, CliError> {
    let mut experiments = Vec::new();
    let mut sweep = false;
    let mut search = false;
    let mut partition = false;
    let mut chaos = false;
    let mut serve = false;
    let mut flags = RawFlags::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        // `--opt value` and `--opt=value` are both accepted.
        let mut flag_value = |name: &str| -> Result<Option<String>, CliError> {
            if arg == name {
                return iter
                    .next()
                    .map(Some)
                    .ok_or_else(|| CliError::Usage(format!("{name} needs a value")));
            }
            if let Some(rest) = arg.strip_prefix(&format!("{name}=")) {
                return Ok(Some(rest.to_string()));
            }
            Ok(None)
        };
        if let Some(value) = flag_value("--format")? {
            flags.format = Some(parse_format(&value)?);
        } else if let Some(value) = flag_value("--threads")? {
            flags.threads = Some(parse_count("--threads", &value, true)?);
        } else if let Some(value) = flag_value("--walkers")? {
            flags.walkers = Some(parse_count("--walkers", &value, false)?);
        } else if let Some(value) = flag_value("--epochs")? {
            flags.epochs = Some(parse_count("--epochs", &value, false)? as u64);
        } else if let Some(value) = flag_value("--seed")? {
            flags.seed = Some(
                value
                    .parse::<u64>()
                    .map_err(|_| CliError::Usage(format!("--seed `{value}` is not a u64")))?,
            );
        } else if let Some(value) = flag_value("--validators")? {
            flags.validators = Some(parse_count("--validators", &value, false)?);
        } else if let Some(value) = flag_value("--backend")? {
            flags.backend = Some(BackendKind::from_id(&value).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown backend `{value}` (expected `dense` or `cohort`)"
                ))
            })?);
        } else if let Some(value) = flag_value("--grid")? {
            flags.grids.push(value);
        } else if let Some(value) = flag_value("--objective")? {
            flags.objective = Some(Objective::from_id(&value).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown objective `{value}` (expected conflict, proportion \
                     or non-slashable-horizon)"
                ))
            })?);
        } else if let Some(value) = flag_value("--budget")? {
            flags.budget = Some(parse_count("--budget", &value, false)?);
        } else if let Some(value) = flag_value("--beta0")? {
            flags.beta0 = Some(parse_unit("--beta0", &value)?);
        } else if let Some(value) = flag_value("--p0")? {
            flags.p0 = Some(parse_unit("--p0", &value)?);
        } else if let Some(value) = flag_value("--max-period")? {
            let n = parse_count("--max-period", &value, false)?;
            if n > 8 {
                return Err(CliError::Usage(format!(
                    "--max-period `{n}` is too fine (the exhaustive grid \
                     grows combinatorially; use ≤ 8)"
                )));
            }
            flags.max_period = Some(n as u8);
        } else if let Some(value) = flag_value("--timeline")? {
            flags.timelines.push(value);
        } else if let Some(value) = flag_value("--strategy")? {
            flags.strategy = Some(StrategyKind::from_id(&value).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown strategy `{value}` (expected dual-active, semi-active, \
                     threshold-seeker, rotate or rotate-dwell)"
                ))
            })?);
        } else if let Some(value) = flag_value("--regen-golden")? {
            flags.regen_golden = Some(value);
        } else if let Some(value) = flag_value("--addr")? {
            flags.addr = Some(value);
        } else if let Some(value) = flag_value("--cache-dir")? {
            flags.cache_dir = Some(value);
        } else if let Some(value) = flag_value("--out")? {
            flags.out = Some(value);
        } else if let Some(value) = flag_value("--stats-out")? {
            flags.stats_out = Some(value);
        } else if let Some(value) = flag_value("--metrics-out")? {
            flags.metrics_out = Some(value);
        } else if let Some(value) = flag_value("--metrics-format")? {
            flags.metrics_format = Some(parse_metrics_format(&value)?);
        } else if let Some(value) = flag_value("--trace-out")? {
            flags.trace_out = Some(value);
        } else {
            match arg.as_str() {
                "--help" | "-h" => return Ok(Cli::Help),
                "--list" => return Ok(Cli::List),
                other if other.starts_with('-') => {
                    return Err(CliError::Usage(format!("unknown option `{other}`")));
                }
                "sweep" => sweep = true,
                "search" => search = true,
                "partition" => partition = true,
                "chaos" => chaos = true,
                "serve" => serve = true,
                "all" => experiments.extend(Experiment::all()),
                id => {
                    let experiment = Experiment::from_id(id).ok_or_else(|| {
                        CliError::Usage(format!(
                            "unknown experiment `{id}` (try --list for the valid ids)"
                        ))
                    })?;
                    experiments.push(experiment);
                }
            }
        }
    }
    if [sweep, search, partition, chaos, serve]
        .iter()
        .filter(|&&m| m)
        .count()
        > 1
    {
        return Err(CliError::Usage(
            "`sweep`, `search`, `partition`, `chaos` and `serve` are different \
             subcommands"
                .into(),
        ));
    }
    if !serve && (flags.addr.is_some() || flags.cache_dir.is_some()) {
        return Err(CliError::Usage(
            "--addr and --cache-dir are only valid with the `serve` subcommand".into(),
        ));
    }
    if let Some(dir) = flags.regen_golden {
        if sweep || search || partition || chaos || serve || !experiments.is_empty() {
            return Err(CliError::Usage(
                "--regen-golden stands alone (it rewrites the fixture corpus)".into(),
            ));
        }
        return Ok(Cli::RegenGolden { dir });
    }
    if serve {
        return build_serve(&experiments, flags);
    }
    if sweep {
        return build_sweep(&experiments, flags);
    }
    if search {
        return build_search(&experiments, flags);
    }
    if partition {
        return build_partition(&experiments, flags);
    }
    if chaos {
        return build_chaos(&experiments, flags);
    }
    build_run(experiments, flags)
}

fn build_partition(experiments: &[Experiment], flags: RawFlags) -> Result<Cli, CliError> {
    if let Some(extra) = experiments.first() {
        return Err(CliError::Usage(format!(
            "`partition` cannot be combined with experiment ids (got `{}`)",
            extra.id()
        )));
    }
    if let Some(grid) = flags.grids.first() {
        return Err(CliError::Usage(format!(
            "--grid {grid} is only valid with the `sweep` subcommand"
        )));
    }
    if flags.walkers.is_some() {
        return Err(CliError::Usage(
            "--walkers is a Monte-Carlo knob; `partition` runs one exact \
             simulation per timeline"
                .into(),
        ));
    }
    for (name, valid_with, set) in [
        ("--objective", "`search`", flags.objective.is_some()),
        ("--budget", "`search` and `chaos`", flags.budget.is_some()),
        ("--max-period", "`search`", flags.max_period.is_some()),
        ("--p0", "`search`", flags.p0.is_some()),
    ] {
        if set {
            return Err(CliError::Usage(format!(
                "{name} is only valid with the {valid_with} subcommand(s) \
                 (partition splits are set by the timeline weights)"
            )));
        }
    }
    let strategy = flags.strategy.unwrap_or(StrategyKind::RotateDwell);
    // Raw-timeline defaults live in core so the request API resolves
    // identical scenarios (identical bytes, identical cache addresses).
    let beta0 = flags.beta0.unwrap_or(partition::RAW_TIMELINE_BETA0);
    let epochs = flags.epochs.unwrap_or(partition::RAW_TIMELINE_EPOCHS);
    let mut scenarios = if flags.timelines.is_empty() {
        partition::preset_scenarios()
    } else {
        flags
            .timelines
            .iter()
            .map(|arg| {
                partition::resolve_scenario(arg, strategy, beta0, epochs)
                    .map_err(|err| CliError::Usage(err.to_string()))
            })
            .collect::<Result<Vec<_>, CliError>>()?
    };
    // Explicit flags override preset-carried knobs too, so
    // `partition --timeline three-branch --beta0 0.3` means what it says.
    for scenario in &mut scenarios {
        if let Some(beta0) = flags.beta0 {
            scenario.beta0 = beta0;
        }
        if let Some(epochs) = flags.epochs {
            scenario.epochs = epochs;
        }
        if let Some(strategy) = flags.strategy {
            scenario.strategy = strategy;
        }
        // After overrides: a strategy that cannot observe this timeline
        // is a usage error, not a mid-run panic.
        partition::validate_scenario(scenario).map_err(|err| CliError::Usage(err.to_string()))?;
    }
    let defaults = PartitionSpec::default();
    let obs = flags.obs_outputs()?;
    Ok(Cli::Partition {
        spec: PartitionSpec {
            scenarios,
            n: flags.validators.unwrap_or(defaults.n),
            backend: flags.backend.unwrap_or(defaults.backend),
            seed: flags.seed.unwrap_or(defaults.seed),
            threads: flags.threads.unwrap_or(defaults.threads),
        },
        format: flags.format.unwrap_or(Format::Text),
        out: flags.out,
        stats_out: flags.stats_out,
        obs,
    })
}

fn build_chaos(experiments: &[Experiment], flags: RawFlags) -> Result<Cli, CliError> {
    if let Some(extra) = experiments.first() {
        return Err(CliError::Usage(format!(
            "`chaos` cannot be combined with experiment ids (got `{}`)",
            extra.id()
        )));
    }
    if let Some(grid) = flags.grids.first() {
        return Err(CliError::Usage(format!(
            "--grid {grid} is only valid with the `sweep` subcommand"
        )));
    }
    if flags.walkers.is_some() {
        return Err(CliError::Usage(
            "--walkers is a Monte-Carlo knob; `chaos` sizes itself with --budget".into(),
        ));
    }
    // The campaign samples its own stake splits and adversaries — the
    // search/partition shape knobs have nothing to bind to.
    for (name, set) in [
        ("--objective", flags.objective.is_some()),
        ("--max-period", flags.max_period.is_some()),
        ("--p0", flags.p0.is_some()),
        ("--beta0", flags.beta0.is_some()),
    ] {
        if set {
            return Err(CliError::Usage(format!(
                "{name} has no meaning under `chaos` (the campaign samples \
                 stake splits and adversaries from --seed)"
            )));
        }
    }
    reject_partition_flags(&flags)?;
    let mut spec = ChaosSpec::default();
    if let Some(budget) = flags.budget {
        spec.budget = budget as u64;
    }
    if let Some(seed) = flags.seed {
        spec.seed = seed;
    }
    if let Some(epochs) = flags.epochs {
        spec.max_epochs = epochs;
    }
    if let Some(n) = flags.validators {
        spec.n = n;
    }
    if let Some(backend) = flags.backend {
        spec.backend = backend;
    }
    if let Some(threads) = flags.threads {
        spec.threads = threads;
    }
    let obs = flags.obs_outputs()?;
    Ok(Cli::Chaos {
        spec,
        format: flags.format.unwrap_or(Format::Text),
        out: flags.out,
        stats_out: flags.stats_out,
        obs,
    })
}

fn build_serve(experiments: &[Experiment], flags: RawFlags) -> Result<Cli, CliError> {
    if let Some(extra) = experiments.first() {
        return Err(CliError::Usage(format!(
            "`serve` cannot be combined with experiment ids (got `{}`) — \
             submit them to POST /v1/jobs instead",
            extra.id()
        )));
    }
    // Every run-shaping and output flag belongs to a *request*, not to
    // the service: the server takes them per-job from the JSON body and
    // serves documents over HTTP, so a flag here could only be ignored.
    for (name, set) in [
        ("--format", flags.format.is_some()),
        ("--walkers", flags.walkers.is_some()),
        ("--epochs", flags.epochs.is_some()),
        ("--seed", flags.seed.is_some()),
        ("--validators", flags.validators.is_some()),
        ("--backend", flags.backend.is_some()),
        ("--grid", !flags.grids.is_empty()),
        ("--objective", flags.objective.is_some()),
        ("--budget", flags.budget.is_some()),
        ("--beta0", flags.beta0.is_some()),
        ("--p0", flags.p0.is_some()),
        ("--max-period", flags.max_period.is_some()),
        ("--timeline", !flags.timelines.is_empty()),
        ("--strategy", flags.strategy.is_some()),
        ("--out", flags.out.is_some()),
        ("--stats-out", flags.stats_out.is_some()),
        ("--metrics-out", flags.metrics_out.is_some()),
        ("--metrics-format", flags.metrics_format.is_some()),
        ("--trace-out", flags.trace_out.is_some()),
    ] {
        if set {
            return Err(CliError::Usage(format!(
                "{name} is a per-request knob; pass it in the JSON body of \
                 POST /v1/jobs (`serve` only takes --addr, --cache-dir and \
                 --threads)"
            )));
        }
    }
    let defaults = ethpos_server::ServerConfig::default();
    Ok(Cli::Serve {
        addr: flags.addr.unwrap_or(defaults.addr),
        cache_dir: flags.cache_dir.unwrap_or(defaults.cache_dir),
        threads: flags.threads.unwrap_or(defaults.threads),
    })
}

/// Rejects the search-only flags (and the search/partition-shared
/// `--beta0`) in plain-run and `sweep` modes (`hint` is appended to the
/// error when the mode has an equivalent of its own).
fn reject_search_flags(flags: &RawFlags, hint: &str) -> Result<(), CliError> {
    for (name, valid_with, set) in [
        ("--objective", "`search`", flags.objective.is_some()),
        ("--budget", "`search` and `chaos`", flags.budget.is_some()),
        ("--beta0", "`search` and `partition`", flags.beta0.is_some()),
        ("--p0", "`search`", flags.p0.is_some()),
        ("--max-period", "`search`", flags.max_period.is_some()),
    ] {
        if set {
            return Err(CliError::Usage(format!(
                "{name} is only valid with the {valid_with} subcommand(s){hint}"
            )));
        }
    }
    Ok(())
}

/// Rejects `--stats-out` in the modes that produce no work-counter
/// artifact.
fn reject_stats_out(flags: &RawFlags) -> Result<(), CliError> {
    if flags.stats_out.is_some() {
        return Err(CliError::Usage(
            "--stats-out is only valid with the `search`, `partition` and `chaos` subcommands"
                .into(),
        ));
    }
    Ok(())
}

/// Rejects the partition-only flags in non-`partition` modes.
fn reject_partition_flags(flags: &RawFlags) -> Result<(), CliError> {
    for (name, set) in [
        ("--timeline", !flags.timelines.is_empty()),
        ("--strategy", flags.strategy.is_some()),
    ] {
        if set {
            return Err(CliError::Usage(format!(
                "{name} is only valid with the `partition` subcommand"
            )));
        }
    }
    Ok(())
}

fn build_run(mut experiments: Vec<Experiment>, flags: RawFlags) -> Result<Cli, CliError> {
    if let Some(grid) = flags.grids.first() {
        return Err(CliError::Usage(format!(
            "--grid {grid} is only valid with the `sweep` subcommand"
        )));
    }
    reject_search_flags(&flags, "")?;
    reject_partition_flags(&flags)?;
    reject_stats_out(&flags)?;
    if experiments.is_empty() {
        return Err(CliError::Usage("no experiment selected".into()));
    }
    // Order-preserving dedup: `ethpos-cli all fig2` runs fig2 once.
    let mut seen = Vec::new();
    experiments.retain(|e| {
        let fresh = !seen.contains(e);
        seen.push(*e);
        fresh
    });
    let defaults = McConfig::default();
    let obs = flags.obs_outputs()?;
    Ok(Cli::Run {
        experiments,
        format: flags.format.unwrap_or(Format::Text),
        mc: McConfig {
            threads: flags.threads.unwrap_or(defaults.threads),
            walkers: flags.walkers.unwrap_or(defaults.walkers),
            epochs: flags.epochs.unwrap_or(defaults.epochs),
            seed: flags.seed.unwrap_or(defaults.seed),
            validators: flags.validators,
            backend: flags.backend.unwrap_or(defaults.backend),
        },
        out: flags.out,
        obs,
    })
}

fn build_search(experiments: &[Experiment], flags: RawFlags) -> Result<Cli, CliError> {
    if let Some(extra) = experiments.first() {
        return Err(CliError::Usage(format!(
            "`search` cannot be combined with experiment ids (got `{}`)",
            extra.id()
        )));
    }
    if let Some(grid) = flags.grids.first() {
        return Err(CliError::Usage(format!(
            "--grid {grid} is only valid with the `sweep` subcommand"
        )));
    }
    if flags.walkers.is_some() {
        return Err(CliError::Usage(
            "--walkers is a Monte-Carlo knob; `search` sizes itself with --budget".into(),
        ));
    }
    reject_partition_flags(&flags)?;
    let mut spec = SearchSpec::new(flags.objective.unwrap_or(Objective::Conflict));
    if let Some(beta0) = flags.beta0 {
        spec.beta0 = beta0;
    }
    if let Some(p0) = flags.p0 {
        spec.p0 = p0;
    }
    if let Some(n) = flags.validators {
        spec.n = n;
    }
    if let Some(backend) = flags.backend {
        spec.backend = backend;
    }
    if let Some(epochs) = flags.epochs {
        spec.epochs = epochs;
    }
    if let Some(budget) = flags.budget {
        spec.budget = budget;
    }
    if let Some(max_period) = flags.max_period {
        spec.max_period = max_period;
    }
    if let Some(seed) = flags.seed {
        spec.seed = seed;
    }
    if let Some(threads) = flags.threads {
        spec.threads = threads;
    }
    let obs = flags.obs_outputs()?;
    Ok(Cli::Search {
        spec,
        format: flags.format.unwrap_or(Format::Text),
        out: flags.out,
        stats_out: flags.stats_out,
        obs,
    })
}

fn build_sweep(experiments: &[Experiment], flags: RawFlags) -> Result<Cli, CliError> {
    if let Some(extra) = experiments.first() {
        return Err(CliError::Usage(format!(
            "`sweep` cannot be combined with experiment ids (got `{}`)",
            extra.id()
        )));
    }
    reject_search_flags(&flags, " (sweep replaces axes with --grid axis=…)")?;
    reject_partition_flags(&flags)?;
    reject_stats_out(&flags)?;
    let mut spec = SweepSpec::default();
    if let Some(threads) = flags.threads {
        spec.threads = threads;
    }
    if let Some(walkers) = flags.walkers {
        spec.walkers = vec![walkers];
    }
    if let Some(epochs) = flags.epochs {
        spec.epochs = epochs;
    }
    if let Some(seed) = flags.seed {
        spec.seed = seed;
    }
    if let Some(validators) = flags.validators {
        spec.validators = vec![validators];
    }
    if let Some(backend) = flags.backend {
        spec.backend = backend;
    }
    // Grid directives come last so `--grid walkers=…` wins over
    // `--walkers` regardless of flag order.
    for grid in &flags.grids {
        spec.apply_grid(grid).map_err(CliError::Usage)?;
    }
    let obs = flags.obs_outputs()?;
    Ok(Cli::Sweep {
        spec,
        format: flags.format.unwrap_or(Format::Text),
        out: flags.out,
        obs,
    })
}

fn parse_format(value: &str) -> Result<Format, CliError> {
    match value {
        "text" => Ok(Format::Text),
        "json" => Ok(Format::Json),
        other => Err(CliError::Usage(format!(
            "unknown format `{other}` (expected `text` or `json`)"
        ))),
    }
}

fn parse_metrics_format(value: &str) -> Result<MetricsFormat, CliError> {
    match value {
        "prom" => Ok(MetricsFormat::Prometheus),
        "json" => Ok(MetricsFormat::Json),
        other => Err(CliError::Usage(format!(
            "unknown metrics format `{other}` (expected `prom` or `json`)"
        ))),
    }
}

fn parse_unit(name: &str, value: &str) -> Result<f64, CliError> {
    value
        .parse::<f64>()
        .ok()
        .filter(|x| *x > 0.0 && *x < 1.0)
        .ok_or_else(|| CliError::Usage(format!("{name} `{value}` is not a float in (0, 1)")))
}

fn parse_count(name: &str, value: &str, zero_ok: bool) -> Result<usize, CliError> {
    value
        .parse::<usize>()
        .ok()
        .filter(|&n| zero_ok || n > 0)
        .ok_or_else(|| {
            CliError::Usage(format!(
                "{name} `{value}` is not a {} integer",
                if zero_ok { "non-negative" } else { "positive" }
            ))
        })
}

/// The `--stats-out` artifact of one invocation: destination path and
/// rendered JSON contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsArtifact {
    /// Where `--stats-out` asked the artifact to go.
    pub path: String,
    /// The work counters as pretty-printed JSON (newline-terminated).
    pub json: String,
}

/// A generic side-channel artifact: destination path and rendered
/// contents (Prometheus text, JSON snapshot or Chrome trace JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Destination path.
    pub path: String,
    /// Rendered contents (newline-terminated).
    pub contents: String,
}

/// Everything one invocation produced: the main document plus the
/// optional side-channel artifacts. The document bytes never depend on
/// which artifacts were requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArtifacts {
    /// The main document ([`run`]'s return value).
    pub document: String,
    /// The `--stats-out` artifact (search, partition and chaos).
    pub stats: Option<StatsArtifact>,
    /// The `--metrics-out` artifact (any run mode).
    pub metrics: Option<Artifact>,
    /// The `--trace-out` artifact (any run mode).
    pub trace: Option<Artifact>,
}

/// Executes a parsed invocation and returns everything to print.
pub fn run(cli: &Cli) -> String {
    run_with_stats(cli).0
}

/// [`run_with_stats`] plus the `--metrics-out` / `--trace-out`
/// artifacts. Recording is enabled (process-globally) before the run
/// iff the corresponding output was requested, and the registry /
/// trace ring are rendered once the run is done. Instrumentation is
/// observation-only: the document and `--stats-out` bytes are identical
/// with and without it.
pub fn run_full(cli: &Cli) -> RunArtifacts {
    let obs = cli.obs().cloned().unwrap_or_default();
    if obs.metrics_out.is_some() {
        ethpos_obs::set_metrics_enabled(true);
    }
    if obs.trace_out.is_some() {
        ethpos_obs::set_trace_enabled(true);
    }
    let (document, stats) = run_with_stats(cli);
    let metrics = obs.metrics_out.map(|path| Artifact {
        path,
        contents: match obs.metrics_format {
            MetricsFormat::Prometheus => ethpos_obs::global().render_prometheus(),
            MetricsFormat::Json => ethpos_obs::global().render_json(),
        },
    });
    let trace = obs.trace_out.map(|path| Artifact {
        path,
        contents: ethpos_obs::tracer().export_chrome_json(),
    });
    RunArtifacts {
        document,
        stats,
        metrics,
        trace,
    }
}

/// [`run`] plus the `--stats-out` artifact when the invocation asked
/// for one (search, partition and chaos). The main document is byte-identical
/// with and without `--stats-out` — the counters never leak into it.
pub fn run_with_stats(cli: &Cli) -> (String, Option<StatsArtifact>) {
    let Some(request) = job_request(cli) else {
        return (run_plain(cli), None);
    };
    let output = request.execute();
    let stats = match (cli.stats_out(), output.stats) {
        (Some(path), Some(json)) => Some(StatsArtifact {
            path: path.to_string(),
            json,
        }),
        _ => None,
    };
    (output.document, stats)
}

/// The [`JobRequest`] equivalent of a run-mode invocation (`None` for
/// the non-run modes). This is the single execution path shared with
/// `ethpos-server`: a command line and the equivalent API request
/// canonicalize to the same request and produce byte-identical
/// documents.
pub fn job_request(cli: &Cli) -> Option<JobRequest> {
    let doc = |format: Format| match format {
        Format::Text => DocumentFormat::Text,
        Format::Json => DocumentFormat::Json,
    };
    match cli {
        Cli::Run {
            experiments,
            format,
            mc,
            ..
        } => Some(JobRequest::Run {
            experiments: experiments.clone(),
            mc: *mc,
            format: doc(*format),
        }),
        Cli::Sweep { spec, format, .. } => Some(JobRequest::Sweep {
            spec: spec.clone(),
            format: doc(*format),
        }),
        Cli::Search { spec, format, .. } => Some(JobRequest::Search {
            spec: spec.clone(),
            format: doc(*format),
        }),
        Cli::Partition { spec, format, .. } => Some(JobRequest::Partition {
            spec: spec.clone(),
            format: doc(*format),
        }),
        Cli::Chaos { spec, format, .. } => Some(JobRequest::Chaos {
            spec: spec.clone(),
            format: doc(*format),
        }),
        Cli::Serve { .. } | Cli::RegenGolden { .. } | Cli::List | Cli::Help => None,
    }
}

/// The non-run modes of [`run`].
fn run_plain(cli: &Cli) -> String {
    match cli {
        Cli::Help => format!("{USAGE}\n"),
        Cli::List => {
            let mut out = String::from("id       paper reference\n");
            for e in Experiment::all() {
                out.push_str(&format!("{:<8} {}\n", e.id(), e.title()));
            }
            out
        }
        Cli::Serve { addr, .. } => {
            // The binary routes this variant through `ethpos_server`; this
            // arm keeps `run` total for library callers.
            format!("serve is a resident mode: run the `ethpos-cli` binary ({addr})\n")
        }
        Cli::RegenGolden { dir } => {
            // The binary routes this variant through [`regen_golden`] so
            // a failure exits non-zero; this arm keeps `run` total for
            // library callers.
            regen_golden(dir).unwrap_or_else(|err| format!("error: {err}\n"))
        }
        Cli::Run { .. }
        | Cli::Sweep { .. }
        | Cli::Search { .. }
        | Cli::Partition { .. }
        | Cli::Chaos { .. } => {
            unreachable!("run modes are handled by `run_with_stats`")
        }
    }
}

/// Rewrites the golden-snapshot corpus into `dir` and returns the
/// confirmation message (one line per fixture).
///
/// # Errors
///
/// Returns a rendered error when the corpus cannot be written — the
/// binary prints it to stderr and exits non-zero, so a scripted
/// `--regen-golden && git diff` cannot silently keep stale fixtures.
pub fn regen_golden(dir: &str) -> Result<String, String> {
    match ethpos_core::golden::regenerate(std::path::Path::new(dir)) {
        Ok(written) => Ok(written
            .into_iter()
            .map(|file| format!("regenerated {dir}/{file}\n"))
            .collect()),
        Err(err) => Err(format!("cannot write the golden corpus to `{dir}`: {err}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethpos_core::stake_model::PenaltySemantics;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_id_parses_to_its_experiment() {
        for e in Experiment::all() {
            if e == Experiment::PartitionTimelines {
                // The word `partition` is the full-size subcommand; the
                // smoke experiment still runs through `all`.
                assert!(matches!(
                    parse_args(args(&["partition"])),
                    Ok(Cli::Partition { .. })
                ));
                continue;
            }
            if e == Experiment::ChaosCampaign {
                // Same shadowing for `chaos`.
                assert!(matches!(
                    parse_args(args(&["chaos"])),
                    Ok(Cli::Chaos { .. })
                ));
                continue;
            }
            match parse_args(args(&[e.id()])) {
                Ok(Cli::Run {
                    experiments,
                    format,
                    mc,
                    out,
                    obs,
                }) => {
                    assert_eq!(experiments, vec![e]);
                    assert_eq!(out, None);
                    assert_eq!(format, Format::Text);
                    assert_eq!(mc, McConfig::default());
                    assert!(obs.is_empty());
                }
                other => panic!("{}: parsed to {other:?}", e.id()),
            }
        }
    }

    #[test]
    fn all_expands_in_paper_order() {
        let Ok(Cli::Run { experiments, .. }) = parse_args(args(&["all"])) else {
            panic!("`all` did not parse");
        };
        assert_eq!(experiments, Experiment::all().to_vec());
    }

    #[test]
    fn unknown_id_is_a_usage_error() {
        for bad in ["fig42", "table9", "figure2", ""] {
            let err = parse_args(args(&[bad]));
            assert!(
                matches!(err, Err(CliError::Usage(_))),
                "`{bad}` parsed to {err:?}"
            );
        }
    }

    #[test]
    fn format_flag_both_spellings() {
        for argv in [
            args(&["fig2", "--format", "json"]),
            args(&["--format=json", "fig2"]),
        ] {
            let Ok(Cli::Run { format, .. }) = parse_args(argv) else {
                panic!("format flag did not parse");
            };
            assert_eq!(format, Format::Json);
        }
        assert!(matches!(
            parse_args(args(&["fig2", "--format", "yaml"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(args(&["fig2", "--format"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn no_experiment_is_a_usage_error() {
        assert!(matches!(parse_args(args(&[])), Err(CliError::Usage(_))));
    }

    #[test]
    fn duplicate_selection_runs_once_even_when_not_adjacent() {
        let Ok(Cli::Run { experiments, .. }) = parse_args(args(&["all", "fig2"])) else {
            panic!("`all fig2` did not parse");
        };
        assert_eq!(experiments, Experiment::all().to_vec());
    }

    #[test]
    fn mc_knobs_reach_the_config() {
        let cli = parse_args(args(&[
            "fig10",
            "--threads=4",
            "--walkers",
            "1000",
            "--epochs=500",
            "--seed",
            "7",
        ]))
        .unwrap();
        let Cli::Run { mc, .. } = cli else {
            panic!("not a run: {cli:?}");
        };
        assert_eq!(
            mc,
            McConfig {
                threads: 4,
                walkers: 1000,
                epochs: 500,
                seed: 7,
                ..McConfig::default()
            }
        );
        // zero walkers / epochs are rejected, zero threads means "all"
        assert!(parse_args(args(&["fig10", "--walkers", "0"])).is_err());
        assert!(parse_args(args(&["fig10", "--epochs", "0"])).is_err());
        assert!(parse_args(args(&["fig10", "--threads", "0"])).is_ok());
    }

    #[test]
    fn validators_and_backend_reach_the_config() {
        let cli = parse_args(args(&[
            "fig2",
            "--validators",
            "1000000",
            "--backend=cohort",
        ]))
        .unwrap();
        let Cli::Run { mc, .. } = cli else {
            panic!("not a run: {cli:?}");
        };
        assert_eq!(mc.validators, Some(1_000_000));
        assert_eq!(mc.backend, BackendKind::Cohort);
        let cli = parse_args(args(&["table2", "--validators=600", "--backend", "dense"])).unwrap();
        let Cli::Run { mc, .. } = cli else {
            panic!("not a run: {cli:?}");
        };
        assert_eq!(mc.validators, Some(600));
        assert_eq!(mc.backend, BackendKind::Dense);
        // defaults: cross-checks off, cohort backend
        let Ok(Cli::Run { mc, .. }) = parse_args(args(&["fig2"])) else {
            panic!("fig2 did not parse");
        };
        assert_eq!(mc.validators, None);
        assert_eq!(mc.backend, BackendKind::Cohort);
        // rejections
        assert!(parse_args(args(&["fig2", "--validators", "0"])).is_err());
        assert!(parse_args(args(&["fig2", "--backend", "sparse"])).is_err());
    }

    #[test]
    fn sweep_accepts_validators_scalar_and_grid() {
        let Ok(Cli::Sweep { spec, .. }) = parse_args(args(&[
            "sweep",
            "--validators",
            "1200",
            "--backend",
            "cohort",
        ])) else {
            panic!("sweep did not parse");
        };
        assert_eq!(spec.validators, vec![1200]);
        assert_eq!(spec.backend, BackendKind::Cohort);
        // the grid axis wins over the scalar, like walkers
        let Ok(Cli::Sweep { spec, .. }) = parse_args(args(&[
            "sweep",
            "--grid",
            "validators=600,1000000",
            "--validators",
            "1200",
        ])) else {
            panic!("sweep did not parse");
        };
        assert_eq!(spec.validators, vec![600, 1_000_000]);
    }

    #[test]
    fn fig2_cross_check_rides_along_at_small_n() {
        let cli = parse_args(args(&[
            "fig2",
            "--validators",
            "20",
            "--backend",
            "cohort",
            "--epochs",
            "64",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&run(&cli)).unwrap();
        let tables = value.get("tables").and_then(|v| v.as_array()).unwrap();
        assert_eq!(tables.len(), 2); // closed-form + discrete cross-check
        let text = serde_json::to_string(&tables[1]).unwrap();
        assert!(text.contains("cohort backend"), "{text}");
    }

    #[test]
    fn sweep_parses_with_grid_directives() {
        let cli = parse_args(args(&[
            "sweep",
            "--grid",
            "beta0=0.3,0.32",
            "--grid=semantics=paper,spec",
            "--walkers",
            "500",
            "--epochs",
            "200",
            "--threads",
            "2",
            "--seed=9",
        ]))
        .unwrap();
        let Cli::Sweep { spec, format, .. } = cli else {
            panic!("not a sweep: {cli:?}");
        };
        assert_eq!(format, Format::Text);
        assert_eq!(spec.beta0, vec![0.3, 0.32]);
        assert_eq!(
            spec.semantics,
            vec![PenaltySemantics::Paper, PenaltySemantics::Spec]
        );
        assert_eq!(spec.walkers, vec![500]);
        assert_eq!(spec.epochs, 200);
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.seed, 9);
    }

    #[test]
    fn grid_walkers_wins_over_scalar_walkers() {
        let Ok(Cli::Sweep { spec, .. }) = parse_args(args(&[
            "sweep",
            "--grid",
            "walkers=100,200",
            "--walkers",
            "5000",
        ])) else {
            panic!("sweep did not parse");
        };
        assert_eq!(spec.walkers, vec![100, 200]);
    }

    #[test]
    fn sweep_misuse_is_a_usage_error() {
        // grid without sweep
        assert!(matches!(
            parse_args(args(&["fig2", "--grid", "beta0=0.3"])),
            Err(CliError::Usage(_))
        ));
        // sweep with an experiment id
        assert!(matches!(
            parse_args(args(&["sweep", "fig2"])),
            Err(CliError::Usage(_))
        ));
        // malformed directives surface the sweep parser's message
        assert!(matches!(
            parse_args(args(&["sweep", "--grid", "gamma=1"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(args(&["sweep", "--grid", "beta0=2"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn search_parses_with_objective_defaults() {
        let Ok(Cli::Search {
            spec,
            format,
            out,
            stats_out,
            obs,
        }) = parse_args(args(&["search"]))
        else {
            panic!("bare search did not parse");
        };
        assert_eq!(format, Format::Text);
        assert_eq!(out, None);
        assert_eq!(stats_out, None);
        assert!(obs.is_empty());
        assert_eq!(spec, SearchSpec::new(Objective::Conflict));
        // the delay objective switches β0 and the horizon
        let Ok(Cli::Search { spec, .. }) =
            parse_args(args(&["search", "--objective", "non-slashable-horizon"]))
        else {
            panic!("search did not parse");
        };
        assert_eq!(spec.objective, Objective::NonSlashableHorizon);
        assert_eq!(spec.beta0, 0.33);
        assert_eq!(spec.epochs, 8192);
    }

    #[test]
    fn search_knobs_reach_the_spec() {
        let Ok(Cli::Search { spec, .. }) = parse_args(args(&[
            "search",
            "--objective=conflict",
            "--budget",
            "64",
            "--beta0=0.25",
            "--p0",
            "0.6",
            "--validators",
            "1200",
            "--backend=dense",
            "--epochs",
            "700",
            "--max-period",
            "2",
            "--seed=5",
            "--threads",
            "3",
        ])) else {
            panic!("search did not parse");
        };
        assert_eq!(spec.budget, 64);
        assert_eq!(spec.beta0, 0.25);
        assert_eq!(spec.p0, 0.6);
        assert_eq!(spec.n, 1200);
        assert_eq!(spec.backend, BackendKind::Dense);
        assert_eq!(spec.epochs, 700);
        assert_eq!(spec.max_period, 2);
        assert_eq!(spec.seed, 5);
        assert_eq!(spec.threads, 3);
    }

    #[test]
    fn search_misuse_is_a_usage_error() {
        for bad in [
            &["search", "fig2"] as &[&str],
            &["search", "--objective", "mayhem"],
            &["search", "--budget", "0"],
            &["search", "--beta0", "1.5"],
            &["search", "--max-period", "40"],
            &["search", "--grid", "beta0=0.3"],
            &["search", "--walkers", "100"],
            &["search", "sweep"],
            &["fig2", "--objective", "conflict"],
            &["fig2", "--budget", "9"],
            &["sweep", "--beta0", "0.3"],
        ] {
            assert!(
                matches!(parse_args(args(bad)), Err(CliError::Usage(_))),
                "{bad:?} was accepted"
            );
        }
    }

    #[test]
    fn out_flag_is_captured_in_every_mode() {
        let cli = parse_args(args(&["fig2", "--out", "a.json"])).unwrap();
        assert_eq!(cli.out(), Some("a.json"));
        let cli = parse_args(args(&["sweep", "--out=b.json"])).unwrap();
        assert_eq!(cli.out(), Some("b.json"));
        let cli = parse_args(args(&["search", "--out", "c.json"])).unwrap();
        assert_eq!(cli.out(), Some("c.json"));
        let cli = parse_args(args(&["chaos", "--out", "d.json"])).unwrap();
        assert_eq!(cli.out(), Some("d.json"));
        assert_eq!(parse_args(args(&["--list"])).unwrap().out(), None);
        assert!(parse_args(args(&["fig2", "--out"])).is_err());
    }

    #[test]
    fn obs_flags_are_captured_in_every_run_mode() {
        for mode in [
            &["fig2"] as &[&str],
            &["sweep"],
            &["search"],
            &["partition"],
            &["chaos"],
        ] {
            let mut argv = args(mode);
            argv.extend(args(&[
                "--metrics-out",
                "m.prom",
                "--metrics-format=json",
                "--trace-out",
                "t.json",
            ]));
            let cli = parse_args(argv).unwrap();
            let obs = cli.obs().unwrap_or_else(|| panic!("{mode:?}: no obs"));
            assert_eq!(obs.metrics_out.as_deref(), Some("m.prom"));
            assert_eq!(obs.metrics_format, MetricsFormat::Json);
            assert_eq!(obs.trace_out.as_deref(), Some("t.json"));
        }
        // defaults: everything off, Prometheus exposition
        let cli = parse_args(args(&["fig2", "--metrics-out", "m.prom"])).unwrap();
        let obs = cli.obs().unwrap();
        assert_eq!(obs.metrics_format, MetricsFormat::Prometheus);
        assert_eq!(obs.trace_out, None);
        assert!(!obs.is_empty());
        // trace alone is fine too
        let cli = parse_args(args(&["partition", "--trace-out=t.json"])).unwrap();
        assert_eq!(cli.obs().unwrap().metrics_out, None);
    }

    #[test]
    fn obs_flag_misuse_is_a_usage_error() {
        for bad in [
            // a format with nowhere to go
            &["fig2", "--metrics-format", "prom"] as &[&str],
            &["chaos", "--metrics-format=json"],
            // unknown exposition format
            &["fig2", "--metrics-out", "m", "--metrics-format", "yaml"],
            // missing values
            &["fig2", "--metrics-out"],
            &["fig2", "--trace-out"],
        ] {
            assert!(
                matches!(parse_args(args(bad)), Err(CliError::Usage(_))),
                "{bad:?} was accepted"
            );
        }
    }

    #[test]
    fn frontier_experiment_is_listed_and_runs_in_all() {
        assert_eq!(
            Experiment::from_id("frontier"),
            Some(Experiment::AttackFrontier)
        );
        let Ok(Cli::Run { experiments, .. }) = parse_args(args(&["all"])) else {
            panic!("`all` did not parse");
        };
        assert!(experiments.contains(&Experiment::AttackFrontier));
    }

    #[test]
    fn search_run_emits_valid_json() {
        let cli = parse_args(args(&[
            "search",
            "--validators",
            "120",
            "--beta0=0.34",
            "--epochs",
            "60",
            "--budget",
            "10",
            "--max-period=2",
            "--threads",
            "1",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&run(&cli)).unwrap();
        assert_eq!(
            value.get("objective").and_then(|v| v.as_str()),
            Some("conflict")
        );
        let rows = value.get("rows").and_then(|v| v.as_array()).unwrap();
        assert!(!rows.is_empty());
        assert!(value.get("best").is_some());
    }

    #[test]
    fn json_run_emits_one_valid_document() {
        let cli = parse_args(args(&["table2", "--format", "json"])).unwrap();
        let out = run(&cli);
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(
            value.get("experiment").and_then(|v| v.as_str()),
            Some("Table2Slashable")
        );
        assert!(value.get("tables").is_some());

        let cli = parse_args(args(&["fig8", "table1", "--format", "json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&run(&cli)).unwrap();
        let items = value.as_array().expect("array for multiple experiments");
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn partition_parses_with_preset_defaults() {
        let Ok(Cli::Partition {
            spec, format, out, ..
        }) = parse_args(args(&["partition"]))
        else {
            panic!("bare partition did not parse");
        };
        assert_eq!(format, Format::Text);
        assert_eq!(out, None);
        assert_eq!(spec, PartitionSpec::default());
        assert_eq!(spec.n, 1_000_000);
        assert_eq!(spec.backend, BackendKind::Cohort);
        assert_eq!(spec.scenarios.len(), 2);
    }

    #[test]
    fn partition_knobs_reach_the_spec() {
        let Ok(Cli::Partition { spec, .. }) = parse_args(args(&[
            "partition",
            "--timeline",
            "three-branch",
            "--timeline=split@0:0=0.5,0.5",
            "--strategy",
            "dual-active",
            "--beta0=0.3",
            "--epochs",
            "700",
            "--validators",
            "3000",
            "--backend=dense",
            "--seed=4",
            "--threads",
            "2",
        ])) else {
            panic!("partition did not parse");
        };
        assert_eq!(spec.scenarios.len(), 2);
        // explicit flags override the preset's own knobs too
        for scenario in &spec.scenarios {
            assert_eq!(scenario.strategy, StrategyKind::DualActive);
            assert_eq!(scenario.beta0, 0.3);
            assert_eq!(scenario.epochs, 700);
        }
        assert_eq!(spec.n, 3000);
        assert_eq!(spec.backend, BackendKind::Dense);
        assert_eq!(spec.seed, 4);
        assert_eq!(spec.threads, 2);
    }

    #[test]
    fn partition_misuse_is_a_usage_error() {
        for bad in [
            &["partition", "fig2"] as &[&str],
            &["partition", "sweep"],
            &["partition", "--timeline", "gibberish"],
            &["partition", "--timeline", "split@0:0=0.5"],
            &["partition", "--strategy", "mayhem"],
            &["partition", "--walkers", "100"],
            &["partition", "--objective", "conflict"],
            &["partition", "--p0", "0.5"],
            &["partition", "--grid", "beta0=0.3"],
            &["fig2", "--timeline", "three-branch"],
            &["sweep", "--strategy", "rotate"],
            &["search", "--timeline", "three-branch"],
            &["--regen-golden", "dir", "fig2"],
            &["partition", "--regen-golden", "dir"],
            // the paper's two-branch machine cannot observe k ≠ 2
            &[
                "partition",
                "--timeline",
                "split@0:0=0.4,0.3,0.3",
                "--strategy",
                "semi-active",
            ],
            &[
                "partition",
                "--timeline",
                "three-branch",
                "--strategy",
                "semi-active",
            ],
            &[
                "partition",
                "--timeline",
                "heal-resplit",
                "--strategy",
                "semi-active",
            ],
        ] {
            assert!(
                matches!(parse_args(args(bad)), Err(CliError::Usage(_))),
                "{bad:?} was accepted"
            );
        }
    }

    #[test]
    fn semi_active_is_accepted_on_two_branch_timelines() {
        let Ok(Cli::Partition { spec, .. }) = parse_args(args(&[
            "partition",
            "--timeline",
            "split@0:0=0.5,0.5",
            "--strategy",
            "semi-active",
        ])) else {
            panic!("two-branch semi-active did not parse");
        };
        assert_eq!(spec.scenarios[0].strategy, StrategyKind::SemiActive);
    }

    #[test]
    fn partition_run_emits_valid_json() {
        let cli = parse_args(args(&[
            "partition",
            "--validators",
            "3000",
            "--threads",
            "1",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&run(&cli)).unwrap();
        assert_eq!(value.get("n").and_then(|v| v.as_u64()), Some(3000));
        let rows = value.get("rows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("scenario").and_then(|v| v.as_str()),
            Some("three-branch")
        );
        assert!(rows[0].get("conflict_epoch").is_some());
    }

    #[test]
    fn regen_golden_writes_the_paper_and_chaos_fixtures() {
        let dir = std::env::temp_dir().join(format!("ethpos-golden-{}", std::process::id()));
        let cli = parse_args(args(&["--regen-golden", dir.to_str().unwrap()])).unwrap();
        assert_eq!(
            cli,
            Cli::RegenGolden {
                dir: dir.to_str().unwrap().into()
            }
        );
        let message = run(&cli);
        // five paper scenarios + the three chaos replay fixtures
        assert_eq!(message.lines().count(), 8, "{message}");
        for scenario in ethpos_core::golden::scenarios() {
            let path = dir.join(scenario.file_name());
            assert!(path.exists(), "{path:?} missing");
        }
        for name in [
            "expected_attack_exemplar.json",
            "shrunk_conflict_floor.json",
            "shrunk_liveness_grace.json",
        ] {
            let path = dir.join("chaos").join(name);
            assert!(path.exists(), "{path:?} missing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_parses_with_defaults() {
        let Ok(Cli::Chaos {
            spec,
            format,
            out,
            stats_out,
            obs,
        }) = parse_args(args(&["chaos"]))
        else {
            panic!("bare chaos did not parse");
        };
        assert_eq!(format, Format::Text);
        assert_eq!(out, None);
        assert_eq!(stats_out, None);
        assert!(obs.is_empty());
        assert_eq!(spec, ChaosSpec::default());
        assert_eq!(spec.n, 1_000_000);
        assert_eq!(spec.backend, BackendKind::Cohort);
        assert_eq!(spec.budget, 256);
        assert_eq!(spec.seed, 1);
    }

    #[test]
    fn chaos_knobs_reach_the_spec() {
        let Ok(Cli::Chaos { spec, .. }) = parse_args(args(&[
            "chaos",
            "--budget",
            "64",
            "--seed=9",
            "--epochs",
            "2048",
            "--validators",
            "65536",
            "--backend=dense",
            "--threads",
            "2",
        ])) else {
            panic!("chaos did not parse");
        };
        assert_eq!(spec.budget, 64);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.max_epochs, 2048);
        assert_eq!(spec.n, 65536);
        assert_eq!(spec.backend, BackendKind::Dense);
        assert_eq!(spec.threads, 2);
    }

    #[test]
    fn chaos_misuse_is_a_usage_error() {
        for bad in [
            &["chaos", "fig2"] as &[&str],
            &["chaos", "sweep"],
            &["chaos", "search"],
            &["chaos", "partition"],
            &["chaos", "--budget", "0"],
            &["chaos", "--walkers", "100"],
            &["chaos", "--grid", "beta0=0.3"],
            // the campaign samples its own splits and adversaries
            &["chaos", "--beta0", "0.3"],
            &["chaos", "--p0", "0.5"],
            &["chaos", "--objective", "conflict"],
            &["chaos", "--max-period", "2"],
            &["chaos", "--timeline", "three-branch"],
            &["chaos", "--strategy", "rotate"],
            &["chaos", "--regen-golden", "dir"],
        ] {
            assert!(
                matches!(parse_args(args(bad)), Err(CliError::Usage(_))),
                "{bad:?} was accepted"
            );
        }
    }

    #[test]
    fn chaos_run_emits_valid_json() {
        let cli = parse_args(args(&[
            "chaos",
            "--budget",
            "3",
            "--seed=5",
            "--validators",
            "4096",
            "--epochs",
            "256",
            "--threads",
            "1",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&run(&cli)).unwrap();
        assert_eq!(value.get("budget").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(value.get("seed").and_then(|v| v.as_u64()), Some(5));
        let rows = value.get("rows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(value.get("counts").is_some());
        let violations = value.get("violations").and_then(|v| v.as_array()).unwrap();
        assert!(violations.is_empty(), "healthy engine, no violations");
    }

    #[test]
    fn sweep_run_emits_valid_json() {
        let cli = parse_args(args(&[
            "sweep",
            "--grid",
            "beta0=0.3,0.333",
            "--walkers",
            "256",
            "--epochs",
            "100",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&run(&cli)).unwrap();
        assert_eq!(value.get("epochs").and_then(|v| v.as_u64()), Some(100));
        let rows = value.get("rows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
    }
}
