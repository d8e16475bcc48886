//! The `paper_opt` workload: Figures 9 and 10, the paper's own design and
//! optimization workflow.
//!
//! A repetition warms a fresh `DesignCache` with every design the two
//! experiments use (the set-up) and then runs
//! `experiments::optimization_experiment` for both. The grid cells are
//! also replayed one by one through the public runner functions, with the
//! experiment's seed formula: untimed to count simulated epochs and check
//! every normalized E×D against the experiment's, and traced to split a
//! cell's time into governor, plant and runner.

use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use mimo_core::decoupled::DecoupledGovernor;
use mimo_core::design::ValidatedDesign;
use mimo_core::digest::Fnv1a;
use mimo_core::governor::{FixedGovernor, Governor, MimoGovernor};
use mimo_core::heuristic::{HeuristicOptimizer, SensitivityRanking};
use mimo_core::optimizer::{Metric, MAX_TRIES};
use mimo_exp::cache::DesignCache;
use mimo_exp::experiments::{optimization_experiment, ExpConfig, OptResult};
use mimo_exp::par::par_map;
use mimo_exp::runner::{run_optimization, run_self_directed, OptimizationStats};
use mimo_exp::setup;
use mimo_exp::timing::TimingSink;
use mimo_linalg::Vector;
use mimo_sim::fault::{FaultInjector, FaultPlan};
use mimo_sim::workload::production_names;
use mimo_sim::{InputSet, Plant, PlantConfig, Processor};

use crate::trace::{Layer, TimedGov, TimedPlant, Tracer};

/// The two experiments and the E×D change vs Baseline the paper reports
/// for MIMO in each (Figure 9: −16 %, Figure 10: −25 %).
pub const EXPERIMENTS: [(InputSet, Metric, f64); 2] = [
    (InputSet::FreqCache, Metric::EnergyDelay, -16.0),
    (InputSet::FreqCacheRob, Metric::EnergyDelay, -25.0),
];

/// Problem size of the workload.
#[derive(Debug, Clone)]
pub struct OptScale {
    /// Applications, `None` for the 24 production applications.
    pub apps: Option<Vec<&'static str>>,
    /// Instructions each cell runs, billions.
    pub budget_g: f64,
}

impl OptScale {
    fn apps(&self) -> Vec<&'static str> {
        self.apps.clone().unwrap_or_else(production_names)
    }
}

/// Design synthesis time by kind, seconds, summed over both experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesignTimes {
    /// `baseline_config` grid profiles.
    pub baseline_s: f64,
    /// The two-input MIMO design.
    pub mimo_2in_s: f64,
    /// The three-input MIMO design.
    pub mimo_3in_s: f64,
    /// `heuristic_ranking` profiles.
    pub heuristic_s: f64,
    /// The decoupled SISO pair.
    pub decoupled_s: f64,
}

impl DesignTimes {
    /// All design synthesis.
    pub fn total_s(&self) -> f64 {
        self.baseline_s + self.mimo_2in_s + self.mimo_3in_s + self.heuristic_s + self.decoupled_s
    }
}

/// Fills `cache` with every entry the two experiments look up, in their
/// lookup order, timing each kind.
fn warm(cache: &DesignCache, seed: u64) -> Result<DesignTimes, String> {
    let mut times = DesignTimes::default();
    let mut clock = Instant::now();
    let mut lap = || {
        let s = clock.elapsed().as_secs_f64();
        clock = Instant::now();
        s
    };
    for (input_set, metric, _) in EXPERIMENTS {
        cache.baseline_config(input_set, metric, seed);
        times.baseline_s += lap();
        let mimo = cache.design_mimo(input_set, seed);
        match input_set {
            InputSet::FreqCache => times.mimo_2in_s += lap(),
            InputSet::FreqCacheRob => times.mimo_3in_s += lap(),
        }
        mimo.map_err(|e| e.to_string())?;
        cache.heuristic_ranking(input_set, seed);
        times.heuristic_s += lap();
        if input_set == InputSet::FreqCache {
            let decoupled = cache.decoupled_governor(seed);
            times.decoupled_s += lap();
            decoupled.map_err(|e| e.to_string())?;
        }
    }
    Ok(times)
}

/// One untraced repetition.
pub struct OptRep {
    /// Design synthesis by kind.
    pub design: DesignTimes,
    /// Both experiments, seconds.
    pub run_s: f64,
    /// Wall time of every grid cell, in [`cells`] order, seconds.
    pub cell_s: Vec<f64>,
    /// Figure 9 and Figure 10 results.
    pub results: Vec<OptResult>,
    /// The warmed cache, reused by the replays.
    pub cache: DesignCache,
}

/// Warms a fresh cache and runs both experiments on `jobs` threads.
pub fn rep(scale: &OptScale, seed: u64, jobs: usize) -> Result<OptRep, String> {
    let cache = DesignCache::new();
    let design = warm(&cache, seed)?;
    let cfg = ExpConfig {
        budget_g: scale.budget_g,
        apps: scale.apps.clone(),
        seed,
        emit: false,
        jobs,
        cache: cache.clone(),
        timing: TimingSink::enabled(),
        ..ExpConfig::full()
    };
    let t = Instant::now();
    let results = EXPERIMENTS
        .iter()
        .enumerate()
        .map(|(e, &(input_set, metric, _))| {
            cfg.timing.subcommand(&format!("fig{}", 9 + e), || {
                optimization_experiment(&cfg, input_set, metric).map_err(|e| e.to_string())
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let run_s = t.elapsed().as_secs_f64();
    let cell_s = cfg
        .timing
        .subcommands()
        .iter()
        .flat_map(|s| &s.cells)
        .map(|c| c.wall_s)
        .collect();
    Ok(OptRep {
        design,
        run_s,
        cell_s,
        results,
        cache,
    })
}

/// Digest of both results: every normalized E×D and every average.
pub fn digest(results: &[OptResult]) -> u64 {
    let mut h = Fnv1a::new();
    for r in results {
        for row in &r.rows {
            h.write_f64(row.mimo);
            h.write_f64(row.heuristic);
            h.write_f64(row.decoupled.unwrap_or(f64::NAN));
        }
        h.write_f64(r.avg_mimo);
        h.write_f64(r.avg_heuristic);
        h.write_f64(r.avg_decoupled.unwrap_or(f64::NAN));
    }
    h.finish()
}

/// MIMO's measured E×D change vs Baseline minus the paper's, in
/// percentage points, per experiment.
pub fn ed_gaps_pp(results: &[OptResult]) -> Vec<f64> {
    results
        .iter()
        .zip(EXPERIMENTS)
        .map(|(r, (_, _, paper))| (100.0 * (r.avg_mimo - 1.0) - paper).abs())
        .collect()
}

/// The architectures of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// Fixed profiling-chosen inputs.
    Baseline,
    /// The MIMO LQG controller under the optimizer.
    Mimo,
    /// The heuristic's own search.
    Heuristic,
    /// Two SISO LQG loops under the optimizer.
    Decoupled,
}

impl Arch {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Arch::Baseline => "baseline",
            Arch::Mimo => "mimo",
            Arch::Heuristic => "heuristic",
            Arch::Decoupled => "decoupled",
        }
    }
}

/// One grid cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into [`EXPERIMENTS`].
    pub exp: usize,
    /// Application index within the experiment.
    pub k: usize,
    /// Application name.
    pub app: &'static str,
    /// Architecture.
    pub arch: Arch,
}

impl Cell {
    fn label(&self) -> String {
        format!("fig{} {}/{}", 9 + self.exp, self.app, self.arch.label())
    }
}

/// Every cell, experiment by experiment, in `optimization_experiment`'s
/// order (application-major).
pub fn cells(scale: &OptScale) -> Vec<Cell> {
    let apps = scale.apps();
    let mut cells = Vec::new();
    for (exp, (input_set, _, _)) in EXPERIMENTS.iter().enumerate() {
        let archs: &[Arch] = if *input_set == InputSet::FreqCache {
            &[Arch::Baseline, Arch::Mimo, Arch::Heuristic, Arch::Decoupled]
        } else {
            &[Arch::Baseline, Arch::Mimo, Arch::Heuristic]
        };
        for (k, &app) in apps.iter().enumerate() {
            cells.extend(archs.iter().map(|&arch| Cell { exp, k, app, arch }));
        }
    }
    cells
}

/// The cached designs one experiment deploys.
struct Designs {
    baseline: PlantConfig,
    mimo: Arc<ValidatedDesign>,
    ranking: SensitivityRanking,
    decoupled: Option<DecoupledGovernor>,
}

/// The cached designs of both experiments (all cache hits once warmed).
pub struct Deployed {
    designs: Vec<Designs>,
    seed: u64,
    budget_g: f64,
}

impl Deployed {
    /// Reads every design from a warmed `cache`.
    pub fn new(cache: &DesignCache, scale: &OptScale, seed: u64) -> Result<Self, String> {
        let designs = EXPERIMENTS
            .iter()
            .map(|&(input_set, metric, _)| {
                Ok(Designs {
                    baseline: cache.baseline_config(input_set, metric, seed),
                    mimo: cache
                        .design_mimo(input_set, seed)
                        .map_err(|e| e.to_string())?,
                    ranking: cache.heuristic_ranking(input_set, seed),
                    decoupled: match input_set {
                        InputSet::FreqCache => {
                            Some(cache.decoupled_governor(seed).map_err(|e| e.to_string())?)
                        }
                        InputSet::FreqCacheRob => None,
                    },
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Deployed {
            designs,
            seed,
            budget_g: scale.budget_g,
        })
    }

    /// The cell's fresh plant, with the experiment's seed formula.
    fn plant(&self, cell: &Cell) -> Result<Processor, String> {
        let (input_set, _, _) = EXPERIMENTS[cell.exp];
        setup::try_plant(cell.app, input_set, self.seed + 1000 + cell.k as u64)
            .map_err(|e| e.to_string())
    }

    /// The cell's governor, built as `optimization_experiment` builds it.
    fn governor(&self, cell: &Cell) -> Box<dyn Governor + Send> {
        let (input_set, metric, _) = EXPERIMENTS[cell.exp];
        let d = &self.designs[cell.exp];
        match cell.arch {
            Arch::Baseline => Box::new(FixedGovernor::new(Vector::from_slice(
                &d.baseline.to_actuation(input_set),
            ))),
            Arch::Mimo => Box::new(MimoGovernor::new(d.mimo.controller.clone())),
            Arch::Heuristic => {
                let grids = input_set
                    .grids()
                    .iter()
                    .map(|g| g.values().to_vec())
                    .collect();
                Box::new(HeuristicOptimizer::new(
                    grids,
                    d.ranking.clone(),
                    metric,
                    MAX_TRIES,
                ))
            }
            Arch::Decoupled => Box::new(
                d.decoupled
                    .clone()
                    .expect("decoupled cells exist only in the two-input experiment"),
            ),
        }
    }

    /// Runs the cell's governor on `plant` through its public runner.
    fn run(&self, cell: &Cell, gov: &mut dyn Governor, plant: &mut Processor) -> OptimizationStats {
        let (_, metric, _) = EXPERIMENTS[cell.exp];
        match cell.arch {
            Arch::Baseline | Arch::Heuristic => {
                run_self_directed(gov, plant, metric, self.budget_g)
            }
            Arch::Mimo | Arch::Decoupled => run_optimization(gov, plant, metric, self.budget_g),
        }
    }
}

/// One replayed cell.
#[derive(Debug, Clone, Copy)]
pub struct CellRun {
    /// E·D per billion instructions.
    pub ed_product: f64,
    /// Energy, joules.
    pub energy_j: f64,
    /// Instructions, billions.
    pub instructions_g: f64,
    /// Simulated epochs, priming included.
    pub epochs: u64,
}

/// Replays every cell untraced on `jobs` threads.
pub fn replay(deployed: &Deployed, cells: &[Cell], jobs: usize) -> Result<Vec<CellRun>, String> {
    par_map(jobs, cells.to_vec(), |_, cell| {
        let mut plant = deployed.plant(&cell)?;
        let mut gov = deployed.governor(&cell);
        let stats = deployed.run(&cell, &mut *gov, &mut plant);
        Ok(CellRun {
            ed_product: stats.ed_product,
            energy_j: stats.energy_j,
            instructions_g: stats.instructions_g,
            epochs: plant.totals().epochs,
        })
    })
    .into_iter()
    .collect()
}

/// Checks every normalized E×D of `results` against the replayed cells,
/// bit for bit.
pub fn check(results: &[OptResult], cells: &[Cell], runs: &[CellRun]) -> Result<(), String> {
    let base_of = |i: usize| {
        let c = &cells[i];
        let base = cells
            .iter()
            .position(|b| b.exp == c.exp && b.k == c.k && b.arch == Arch::Baseline)
            .expect("every application has a baseline cell");
        runs[base].ed_product
    };
    for (i, cell) in cells.iter().enumerate() {
        let row = &results[cell.exp].rows[cell.k];
        let expected = match cell.arch {
            Arch::Baseline => continue,
            Arch::Mimo => row.mimo,
            Arch::Heuristic => row.heuristic,
            Arch::Decoupled => row.decoupled.unwrap_or(f64::NAN),
        };
        let replayed = runs[i].ed_product / base_of(i);
        if replayed.to_bits() != expected.to_bits() {
            return Err(format!(
                "{}: replayed E×D ratio {replayed} != experiment {expected}",
                cell.label()
            ));
        }
    }
    Ok(())
}

/// What the traced replay hands back.
pub struct TracedOpt {
    /// The spans and counts.
    pub tracer: Rc<Tracer>,
    /// Cell runs with the governor traced (plants excluded), seconds.
    pub step_s: f64,
    /// Simulated epochs over all cells.
    pub epochs: u64,
    /// `(decisions, governor self ns)` per architecture.
    pub governor: Vec<(Arch, u64, f64)>,
}

/// Replays every cell serially with a traced governor, then replays each
/// cell's plant from the recorded decisions with a traced `apply_into`.
/// `untraced` supplies each cell's epoch count (to reserve the decision
/// log) and its statistics, which the traced cell must reproduce exactly.
pub fn traced(
    deployed: &Deployed,
    cells: &[Cell],
    untraced: &[CellRun],
) -> Result<TracedOpt, String> {
    let tracer = Tracer::new(Layer::Opt);
    let mut step_s = 0.0;
    let mut epochs = 0;
    let mut governor: Vec<(Arch, u64, f64)> = Vec::new();
    for (cell, expected) in cells.iter().zip(untraced) {
        let n_inputs = EXPERIMENTS[cell.exp].0.len();
        let mut plant = deployed.plant(cell)?;
        let mut gov = TimedGov::new(deployed.governor(cell), Rc::clone(&tracer));
        gov.record_decisions(expected.epochs as usize * n_inputs);
        let (decisions_before, _) = tracer.totals(Layer::Governor);
        let gov_ns_before = tracer.self_ns(Layer::Governor);
        let start = tracer.mark(Layer::Idle);
        let stats = deployed.run(cell, &mut gov, &mut plant);
        step_s += tracer.mark(Layer::Opt).duration_since(start).as_secs_f64();
        let decided = tracer.totals(Layer::Governor).0 - decisions_before;
        let gov_ns = tracer.self_ns(Layer::Governor) - gov_ns_before;
        match governor.iter_mut().find(|(a, _, _)| *a == cell.arch) {
            Some(entry) => {
                entry.1 += decided;
                entry.2 += gov_ns;
            }
            None => governor.push((cell.arch, decided, gov_ns)),
        }
        let totals = plant.totals();
        epochs += totals.epochs;
        if stats.ed_product.to_bits() != expected.ed_product.to_bits()
            || totals.epochs != expected.epochs
        {
            return Err(format!(
                "{}: traced cell differs from the untraced replay",
                cell.label()
            ));
        }
        replay_plant(deployed, cell, &gov.take_decisions(), &plant, &tracer)?;
    }
    Ok(TracedOpt {
        tracer,
        step_s,
        epochs,
        governor,
    })
}

/// Steps a fresh copy of the cell's plant through the runner's priming
/// and then `decisions`, timing each `apply_into`, and checks that it ends
/// with the traced cell's plant totals.
fn replay_plant(
    deployed: &Deployed,
    cell: &Cell,
    decisions: &[f64],
    traced: &Processor,
    tracer: &Rc<Tracer>,
) -> Result<(), String> {
    let n_inputs = EXPERIMENTS[cell.exp].0.len();
    let decided = (decisions.len() / n_inputs) as u64;
    let priming = traced.totals().epochs - decided;
    let mut plant = TimedPlant::new(
        FaultInjector::new(deployed.plant(cell)?, FaultPlan::none()),
        Rc::clone(tracer),
    );
    match cell.arch {
        // `run_self_directed` primes with one observed epoch.
        Arch::Baseline | Arch::Heuristic if priming == 1 => {
            plant.observe();
        }
        // `run_optimization` primes at the midrange configuration.
        Arch::Mimo | Arch::Decoupled => {
            for _ in 0..priming {
                plant
                    .inner_mut()
                    .inner_mut()
                    .step_config(PlantConfig::midrange());
            }
        }
        _ => return Err(format!("unexpected priming of {priming} epochs")),
    }
    let mut u = Vector::zeros(n_inputs);
    let mut y = Vector::zeros(2);
    tracer.mark(Layer::Idle);
    for decision in decisions.chunks(n_inputs) {
        u.as_mut_slice().copy_from_slice(decision);
        plant.apply_into(&u, &mut y).map_err(|e| e.to_string())?;
    }
    let (a, b) = (plant.inner().inner().totals(), traced.totals());
    if a.energy_j.to_bits() != b.energy_j.to_bits()
        || a.instructions_g.to_bits() != b.instructions_g.to_bits()
        || a.epochs != b.epochs
    {
        return Err(format!(
            "{}: replayed plant totals differ from the runner's",
            cell.label()
        ));
    }
    Ok(())
}
