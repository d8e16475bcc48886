//! # mimo-benchmark
//!
//! The repository's benchmark: four workloads, each run in one process,
//! with set-up timed apart from stepping over many repetitions, and — with
//! `--trace` — a per-layer split of the time measured on a rebuild of the
//! runtime from each layer's public calls.
//! See `README.md` beside this crate for the workloads, the metrics and
//! their bounds.

pub mod alloc;
pub mod fleet;
pub mod host;
pub mod opt;
pub mod stats;
pub mod trace;

use std::time::Instant;

use mimo_fleet::{ClusterStats, FleetStats};

use crate::fleet::ChipKind;
use crate::opt::OptScale;
use crate::stats::{fast_total, median, Metric};
use crate::trace::{Layer, Tracer};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 2016;

/// End-to-end metrics every workload reports untraced, in report order.
pub const END_TO_END: [&str; 4] = [
    "setup_s",
    "core_epoch_ns",
    "peak_rss_mib",
    "energy_per_ginst_j",
];

/// Per-layer metrics every workload reports traced, in report order.
pub const PER_LAYER: [&str; 9] = [
    "governor.decide_ns",
    "governor.decide_p99_ns",
    "plant.apply_ns",
    "plant.apply_p99_ns",
    "plant.config_change_ratio",
    "retarget.set_targets_ns",
    "retarget.changed_ratio",
    "design.synth_ms",
    "trace.overhead_pct",
];

/// Fewest measured repetitions, however long they take.
const MIN_REPS: usize = 3;

/// Measured repetitions never exceed this many, however short they are.
const MAX_REPS: usize = 1000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 cores, uniform budget: governor and plant do nearly all the work.
    Chip16Uniform,
    /// 16 cores, proportional budget under a tight cap, LLC contention and
    /// scheduled sensor faults: retarget re-solves every epoch.
    Chip16Contended,
    /// 64 chips × 64 cores, sharded, with budget exchanges.
    Cluster64x64,
    /// Figures 9 and 10: design synthesis and optimizer-driven runs.
    PaperOpt,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Chip16Uniform,
        Workload::Chip16Contended,
        Workload::Cluster64x64,
        Workload::PaperOpt,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chip16Uniform => "chip16_uniform",
            Workload::Chip16Contended => "chip16_contended",
            Workload::Cluster64x64 => "cluster64x64",
            Workload::PaperOpt => "paper_opt",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes of the workloads, and how long to measure them.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Seconds of measured repetitions after the warm-up; at least
    /// [`MIN_REPS`] run however long they take.
    pub measure_s: f64,
    /// Epochs of each chip workload.
    pub chip_epochs: usize,
    /// Chips of the cluster workload.
    pub cluster_chips: usize,
    /// Cores per chip of the cluster workload.
    pub cluster_cores: usize,
    /// Epochs of the cluster workload.
    pub cluster_epochs: usize,
    /// Applications and instruction budget of `paper_opt`.
    pub opt: OptScale,
}

impl Scale {
    /// The sizes the benchmark measures, for `BENCHMARK.json`'s
    /// `run_seconds` of 20.
    pub fn full() -> Self {
        Scale {
            measure_s: 20.0,
            chip_epochs: 10_000,
            cluster_chips: 64,
            cluster_cores: 64,
            cluster_epochs: 100,
            opt: OptScale {
                apps: None,
                budget_g: 2.0,
            },
        }
    }

    /// Sizes that run in moments, for tests: [`MIN_REPS`] repetitions.
    pub fn smoke() -> Self {
        Scale {
            measure_s: 0.0,
            chip_epochs: 400,
            cluster_chips: 4,
            cluster_cores: 8,
            cluster_epochs: 40,
            opt: OptScale {
                apps: Some(vec!["astar", "milc"]),
                budget_g: 0.05,
            },
        }
    }
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Every configuration seed derives from this.
    pub seed: u64,
    /// Also run the traced rebuild.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
}

/// What an invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced medians over repetitions).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run; empty without `--trace`).
    pub layers: Vec<Metric>,
    /// The workload's digest, identical across repetitions.
    pub digest: u64,
    /// Stepping time of each measured repetition, seconds.
    pub rep_run_s: Vec<f64>,
    /// Operations measured: core-epochs, or grid cells for `paper_opt`.
    pub attempted: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Metric `name`, end to end or per layer.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.layers)
            .find(|m| m.name == name)
    }
}

/// Runs one invocation. Check failures land in [`Outcome::errors`].
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let result = match opts.workload {
        Workload::Chip16Uniform => chip(opts, ChipKind::Uniform, &mut out),
        Workload::Chip16Contended => chip(opts, ChipKind::Contended, &mut out),
        Workload::Cluster64x64 => cluster(opts, &mut out),
        Workload::PaperOpt => paper_opt(opts, &mut out),
    };
    if let Err(e) = result {
        out.errors.push(e);
    }
    let failed_pct = if out.correct() { 0.0 } else { 100.0 };
    out.end_to_end
        .push(Metric::new("failed_pct", failed_pct, "%"));
    out
}

/// Timings of one repetition.
struct Timing {
    /// Design synthesis, seconds.
    design_s: f64,
    /// Runtime construction, seconds.
    build_s: f64,
    /// Stepping, seconds.
    run_s: f64,
    /// Stepping time of every unit of work — the whole run, each chip, or
    /// each grid cell — seconds.
    units: Vec<f64>,
}

/// The repetitions of one invocation.
struct Reps {
    /// The single-threaded measured repetitions.
    measured: Vec<Timing>,
    /// Peak RSS through the warm-up and the first measured repetition.
    peak_rss_mib: f64,
}

impl Reps {
    fn median(&self, f: impl Fn(&Timing) -> f64) -> f64 {
        median(&self.measured.iter().map(f).collect::<Vec<_>>())
    }

    /// Each unit's fast stepping time over the repetitions, summed.
    fn step_s(&self) -> f64 {
        let rows: Vec<Vec<f64>> = self.measured.iter().map(|t| t.units.clone()).collect();
        fast_total(&rows)
    }

    /// The timing metrics of a run of `core_epochs` simulated core-epochs.
    fn metrics(&self, core_epochs: f64) -> [Metric; 4] {
        [
            Metric::new("setup_s", self.median(|t| t.design_s + t.build_s), "s"),
            Metric::new("core_epoch_ns", self.step_s() * 1e9 / core_epochs, "ns"),
            Metric::new("run_s", self.median(|t| t.run_s), "s"),
            Metric::new("peak_rss_mib", self.peak_rss_mib, "MiB"),
        ]
    }
}

/// One warm-up repetition on [`host::worker_threads`] threads, then
/// single-threaded measured ones until [`Scale::measure_s`] have been spent
/// measuring and at least [`MIN_REPS`] ran.
///
/// The warm-up exercises the worker pool, and comparing its results with
/// the measured repetitions' checks that they do not depend on the thread
/// count. Timing stays single-threaded because multi-threaded wall time on
/// a small shared host varies far more between invocations than any
/// regression bound allows. Peak RSS is read after the first measured
/// repetition, so it does not grow with the number of repetitions.
fn repeat(
    opts: &Options,
    mut rep: impl FnMut(usize) -> Result<Timing, String>,
) -> Result<Reps, String> {
    rep(host::worker_threads())?;
    let mut measured = vec![rep(1)?];
    let peak_rss_mib = host::peak_rss_mib()
        .ok_or_else(|| "peak RSS unavailable (no /proc/self/status VmHWM)".to_string())?;
    let start = Instant::now();
    while measured.len() < MIN_REPS
        || (start.elapsed().as_secs_f64() < opts.scale.measure_s && measured.len() < MAX_REPS)
    {
        measured.push(rep(1)?);
    }
    Ok(Reps {
        measured,
        peak_rss_mib,
    })
}

/// The warm-up's results; every later repetition must reproduce them.
struct Reference<S> {
    first: Option<S>,
    seen: usize,
    mismatches: Vec<String>,
}

impl<S: PartialEq> Reference<S> {
    fn new() -> Self {
        Reference {
            first: None,
            seen: 0,
            mismatches: Vec::new(),
        }
    }

    fn check(&mut self, stats: S, digest: impl Fn(&S) -> u64) {
        match &self.first {
            None => self.first = Some(stats),
            Some(first) if stats != *first || digest(&stats) != digest(first) => {
                self.mismatches.push(format!(
                    "rep {}: digest {:#018x} differs from the warm-up's {:#018x}",
                    self.seen,
                    digest(&stats),
                    digest(first)
                ));
            }
            Some(_) => {}
        }
        self.seen += 1;
    }

    /// The warm-up's results, with any mismatch moved into `errors`.
    fn finish(self, errors: &mut Vec<String>) -> S {
        errors.extend(self.mismatches);
        self.first.expect("the warm-up always runs")
    }
}

fn ratio(name: &str, part: u64, whole: u64) -> Metric {
    Metric::new(name, part as f64 / whole.max(1) as f64, "ratio")
}

/// Mean self time, p50/p99 and allocations per span of a per-call layer.
fn per_call(t: &Tracer, layer: Layer, name: &str, out: &mut Vec<Metric>) {
    let (calls, allocs) = t.totals(layer);
    if calls == 0 {
        return;
    }
    out.push(Metric::new(
        format!("{name}_ns"),
        t.self_ns(layer) / calls as f64,
        "ns",
    ));
    for (p, tag) in [(50.0, "p50"), (99.0, "p99")] {
        if let Some(ns) = t.percentile_ns(layer, p) {
            out.push(Metric::new(format!("{name}_{tag}_ns"), ns, "ns"));
        }
    }
    let prefix = name.split('.').next().unwrap_or(name);
    out.push(Metric::new(
        format!("{prefix}.allocs_per_call"),
        allocs as f64 / calls as f64,
        "allocs",
    ));
}

/// The governor, retarget and plant layers every workload has.
fn call_layers(t: &Tracer, out: &mut Vec<Metric>) {
    let c = t.counts();
    per_call(t, Layer::Governor, "governor.decide", out);
    per_call(t, Layer::Retarget, "retarget.set_targets", out);
    out.push(ratio(
        "retarget.changed_ratio",
        c.retarget_changes,
        c.retargets,
    ));
    per_call(t, Layer::Plant, "plant.apply", out);
    out.push(ratio(
        "plant.config_change_ratio",
        c.config_changes,
        c.applies,
    ));
    out.push(ratio(
        "plant.phase_change_ratio",
        c.phase_changes,
        c.applies,
    ));
}

/// Counts the fleet rebuilds collect besides the spans.
struct RuntimeCounts {
    banked_decisions: u64,
    core_epochs: u64,
    chip_epochs: u64,
    fault_epochs: u64,
    latches: u64,
    throttle_events: u64,
    contended_beats: u64,
    llc: bool,
}

/// The layers of the chip beat.
fn runtime_layers(t: &Tracer, n: &RuntimeCounts, out: &mut Vec<Metric>) {
    call_layers(t, out);
    out.push(ratio(
        "governor.banked_ratio",
        n.banked_decisions,
        t.totals(Layer::Governor).0,
    ));
    let per_chip_epoch = |layer: Layer| t.self_ns(layer) / n.chip_epochs as f64;
    per_call(t, Layer::Engine, "engine.overhead", out);
    out.push(ratio("engine.fault_ratio", n.fault_epochs, n.core_epochs));
    out.push(Metric::new("engine.quarantines", n.latches as f64, "count"));
    per_call(t, Layer::Arbiter, "arbiter.arbitrate", out);
    out.push(ratio(
        "arbiter.throttle_ratio",
        n.throttle_events,
        n.core_epochs,
    ));
    if n.llc {
        out.push(Metric::new(
            "llc.update_ns",
            per_chip_epoch(Layer::Llc),
            "ns",
        ));
        out.push(ratio(
            "llc.contended_ratio",
            n.contended_beats,
            n.chip_epochs,
        ));
        let (_, allocs) = t.totals(Layer::Llc);
        out.push(ratio("llc.allocs_per_call", allocs, n.chip_epochs));
    }
    for (p, tag) in [(50.0, "p50"), (99.0, "p99")] {
        if let Some(ns) = t.beat_percentile_ns(p) {
            out.push(Metric::new(
                format!("chip.step_epoch_us_{tag}"),
                ns / 1e3,
                "us",
            ));
        }
    }
    out.push(Metric::new(
        "chip.unattributed_ns",
        per_chip_epoch(Layer::Chip),
        "ns",
    ));
}

fn trace_overhead(traced_s: f64, untraced_s: f64, t: &Tracer, out: &mut Vec<Metric>) {
    out.push(Metric::new(
        "trace.overhead_pct",
        100.0 * (traced_s / untraced_s - 1.0),
        "%",
    ));
    out.push(Metric::new("trace.clock_ns", t.clock_ns(), "ns"));
}

fn expect_positive(stats: &FleetStats, what: &str, errors: &mut Vec<String>) {
    let ok = stats.energy_j.is_finite()
        && stats.energy_j > 0.0
        && stats.instructions_g.is_finite()
        && stats.instructions_g > 0.0;
    if !ok {
        errors.push(format!("{what}: no finite positive energy and work"));
    }
}

fn chip(opts: &Options, kind: ChipKind, out: &mut Outcome) -> Result<(), String> {
    let cfg = fleet::chip_config(kind, opts.scale.chip_epochs, opts.seed);
    let mut reference = Reference::new();
    let mut ctrl = None;
    let reps = repeat(opts, |threads| {
        let rep = fleet::chip_rep(&cfg.clone().workers(threads), opts.seed)?;
        ctrl.get_or_insert(rep.ctrl);
        reference.check(rep.stats, FleetStats::digest);
        Ok(Timing {
            design_s: rep.design_s,
            build_s: rep.build_s,
            run_s: rep.run_s,
            units: vec![rep.run_s],
        })
    })?;
    let first = reference.finish(&mut out.errors);
    let ctrl = ctrl.expect("the warm-up always runs");
    out.digest = first.digest();
    expect_positive(&first, "chip", &mut out.errors);
    let faulted: Vec<(usize, u64, bool)> = first
        .per_core
        .iter()
        .filter(|c| c.fault_epochs > 0 || c.quarantined)
        .map(|c| (c.core, c.fault_epochs, c.quarantined))
        .collect();
    let expected_faults = match kind {
        ChipKind::Uniform => faulted.is_empty(),
        // Core 5 quarantines for good; core 9 degrades for three epochs.
        ChipKind::Contended => {
            faulted.len() == 2 && faulted[0].0 == 5 && faulted[0].2 && faulted[1] == (9, 3, false)
        }
    };
    if !expected_faults {
        out.errors.push(format!(
            "unexpected faults (core, epochs, quarantined): {faulted:?}"
        ));
    }

    let core_epochs = (cfg.n_cores * cfg.epochs) as u64;
    out.rep_run_s = reps.measured.iter().map(|t| t.run_s).collect();
    out.attempted = core_epochs * reps.measured.len() as u64;
    out.end_to_end.extend(reps.metrics(core_epochs as f64));
    out.end_to_end.extend([
        Metric::new(
            "energy_per_ginst_j",
            first.energy_j / first.instructions_g,
            "J/Ginst",
        ),
        Metric::new("ips_err_pct", first.agg_ips_err_pct, "%"),
        Metric::new("power_err_pct", first.agg_power_err_pct, "%"),
        Metric::new("cap_violation_pct", first.cap_violation_pct, "%"),
        Metric::new(
            "faulted_pct",
            100.0 * first.fault_epochs as f64 / core_epochs as f64,
            "%",
        ),
    ]);
    if !opts.trace {
        return Ok(());
    }

    let run = fleet::traced_chip(&cfg, &ctrl)?;
    let tracer = &run.tracer;
    out.attempted += core_epochs;
    if let Some(mismatch) = fleet::chip_mismatch(0, &run.stats, &first) {
        out.errors.push(mismatch);
    }
    let counts = RuntimeCounts {
        banked_decisions: run.banked_decisions,
        core_epochs,
        chip_epochs: cfg.epochs as u64,
        fault_epochs: run.stats.fault_epochs,
        latches: run.latches,
        throttle_events: run.stats.throttle_events,
        contended_beats: run.contended_beats,
        llc: cfg.llc.is_some(),
    };
    runtime_layers(tracer, &counts, &mut out.layers);
    out.layers.extend([
        Metric::new("design.synth_ms", reps.median(|t| t.design_s) * 1e3, "ms"),
        Metric::new(
            "build.us_per_core",
            reps.median(|t| t.build_s) * 1e6 / cfg.n_cores as f64,
            "us",
        ),
    ]);
    trace_overhead(run.step_s, reps.step_s(), tracer, &mut out.layers);
    Ok(())
}

fn cluster(opts: &Options, out: &mut Outcome) -> Result<(), String> {
    let s = &opts.scale;
    let cfg = fleet::cluster_config(
        s.cluster_chips,
        s.cluster_cores,
        s.cluster_epochs,
        opts.seed,
    );
    let mut reference = Reference::new();
    let mut ctrl = None;
    let reps = repeat(opts, |threads| {
        let sharded = cfg.clone().shards(threads.min(cfg.n_chips));
        let rep = fleet::cluster_rep(&sharded, opts.seed)?;
        let units = rep.stats.per_chip.iter().map(|c| c.wall_s).collect();
        ctrl.get_or_insert(rep.ctrl);
        reference.check(rep.stats, ClusterStats::digest);
        Ok(Timing {
            design_s: rep.design_s,
            build_s: rep.build_s,
            run_s: rep.run_s,
            units,
        })
    })?;
    let first = reference.finish(&mut out.errors);
    let ctrl = ctrl.expect("the warm-up always runs");
    out.digest = first.digest();
    for chip in &first.per_chip {
        expect_positive(chip, "cluster chip", &mut out.errors);
    }
    if first.fault_epochs != 0 {
        out.errors
            .push("faults in a fault-free cluster".to_string());
    }

    let core_epochs = (first.total_cores * cfg.epochs) as u64;
    out.rep_run_s = reps.measured.iter().map(|t| t.run_s).collect();
    out.attempted = core_epochs * reps.measured.len() as u64;
    out.end_to_end.extend(reps.metrics(core_epochs as f64));
    out.end_to_end.extend([
        Metric::new(
            "energy_per_ginst_j",
            first.energy_j / first.instructions_g,
            "J/Ginst",
        ),
        Metric::new("ips_err_pct", first.agg_ips_err_pct, "%"),
        Metric::new("power_err_pct", first.agg_power_err_pct, "%"),
        Metric::new(
            "faulted_pct",
            100.0 * first.fault_epochs as f64 / core_epochs as f64,
            "%",
        ),
    ]);
    if !opts.trace {
        return Ok(());
    }

    let run = fleet::traced_cluster(&cfg, &ctrl)?;
    let tracer = &run.tracer;
    out.attempted += core_epochs;
    let mismatch = (run.stats.per_chip.iter().zip(&first.per_chip))
        .enumerate()
        .find_map(|(i, (a, b))| fleet::chip_mismatch(i, a, b));
    if let Some(mismatch) = mismatch {
        out.errors.push(mismatch);
    } else if run.stats != first || run.stats.digest() != first.digest() {
        out.errors.push(format!(
            "rebuilt ClusterStats digest {:#018x} != runtime {:#018x}",
            run.stats.digest(),
            first.digest()
        ));
    }
    let counts = RuntimeCounts {
        banked_decisions: run.banked_decisions,
        core_epochs,
        chip_epochs: (cfg.n_chips * cfg.epochs) as u64,
        fault_epochs: run.stats.fault_epochs,
        latches: run.latches,
        throttle_events: run.throttle_events,
        contended_beats: run.contended_beats,
        llc: cfg.llc.is_some(),
    };
    runtime_layers(tracer, &counts, &mut out.layers);
    // Only the warm-up ran sharded: its statistics are the reference.
    let chip_wall: f64 = first.per_chip.iter().map(|c| c.wall_s).sum();
    out.layers.extend([
        Metric::new(
            "cluster.exchange_us",
            tracer.self_ns(Layer::Cluster) / run.windows.max(1) as f64 / 1e3,
            "us",
        ),
        ratio(
            "cluster.rebudget_move_ratio",
            run.stats.rebudget_moves,
            run.stats.exchanges,
        ),
        Metric::new(
            "shard.busy_ratio",
            chip_wall / (first.shards as f64 * first.wall_s),
            "ratio",
        ),
        Metric::new("design.synth_ms", reps.median(|t| t.design_s) * 1e3, "ms"),
        Metric::new(
            "build.us_per_core",
            reps.median(|t| t.build_s) * 1e6 / first.total_cores as f64,
            "us",
        ),
    ]);
    trace_overhead(run.step_s, reps.step_s(), tracer, &mut out.layers);
    Ok(())
}

fn paper_opt(opts: &Options, out: &mut Outcome) -> Result<(), String> {
    let scale = &opts.scale.opt;
    let mut reference = Reference::new();
    let mut warmed = None;
    let mut designs = Vec::new();
    let reps = repeat(opts, |jobs| {
        let rep = opt::rep(scale, opts.seed, jobs)?;
        designs.push(rep.design);
        reference.check(opt::digest(&rep.results), |&d| d);
        warmed.get_or_insert((rep.results, rep.cache));
        Ok(Timing {
            design_s: rep.design.total_s(),
            build_s: 0.0,
            run_s: rep.run_s,
            units: rep.cell_s,
        })
    })?;
    out.digest = reference.finish(&mut out.errors);
    let (results, cache) = warmed.expect("the warm-up always runs");
    if results
        .iter()
        .any(|r| !(r.avg_mimo.is_finite() && r.avg_mimo > 0.0))
    {
        out.errors.push("non-finite E×D averages".to_string());
    }

    // The cell replay counts the simulated epochs and checks every cell.
    let cells = opt::cells(scale);
    let deployed = opt::Deployed::new(&cache, scale, opts.seed)?;
    let runs = opt::replay(&deployed, &cells, host::worker_threads())?;
    if let Err(e) = opt::check(&results, &cells, &runs) {
        out.errors.push(e);
    }
    let epochs: u64 = runs.iter().map(|r| r.epochs).sum();
    let energy_j: f64 = runs.iter().map(|r| r.energy_j).sum();
    let instructions_g: f64 = runs.iter().map(|r| r.instructions_g).sum();

    out.rep_run_s = reps.measured.iter().map(|t| t.run_s).collect();
    out.attempted = (cells.len() * reps.measured.len()) as u64;
    let gaps = opt::ed_gaps_pp(&results);
    out.end_to_end.extend(reps.metrics(epochs as f64));
    out.end_to_end.extend([
        Metric::new("energy_per_ginst_j", energy_j / instructions_g, "J/Ginst"),
        Metric::new("ed_gap_2in_pp", gaps[0], "pp"),
        Metric::new("ed_gap_3in_pp", gaps[1], "pp"),
    ]);
    if !opts.trace {
        return Ok(());
    }

    let traced = opt::traced(&deployed, &cells, &runs)?;
    let tracer = &traced.tracer;
    out.attempted += cells.len() as u64;
    call_layers(tracer, &mut out.layers);
    for (arch, decisions, ns) in &traced.governor {
        out.layers.push(Metric::new(
            format!("opt.governor_ns.{}", arch.label()),
            ns / (*decisions).max(1) as f64,
            "ns",
        ));
    }
    out.layers.extend([
        Metric::new(
            "opt.rest_ns",
            tracer.self_ns(Layer::Opt) / traced.epochs as f64,
            "ns",
        ),
        Metric::new("opt.epochs", traced.epochs as f64, "count"),
    ]);
    // The warm-up's design times are cold-cache outliers; skip them.
    let measured = &designs[1..];
    let ms =
        |f: fn(&opt::DesignTimes) -> f64| median(&measured.iter().map(f).collect::<Vec<_>>()) * 1e3;
    out.layers.extend([
        Metric::new("design.synth_ms", ms(opt::DesignTimes::total_s), "ms"),
        Metric::new("design.baseline_ms", ms(|d| d.baseline_s), "ms"),
        Metric::new("design.mimo_2in_ms", ms(|d| d.mimo_2in_s), "ms"),
        Metric::new("design.mimo_3in_ms", ms(|d| d.mimo_3in_s), "ms"),
        Metric::new("design.heuristic_ms", ms(|d| d.heuristic_s), "ms"),
        Metric::new("design.decoupled_ms", ms(|d| d.decoupled_s), "ms"),
    ]);
    trace_overhead(traced.step_s, reps.step_s(), tracer, &mut out.layers);
    Ok(())
}
