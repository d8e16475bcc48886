//! One function per paper artifact (figure/table). The `fig*` binaries and
//! the integration tests call these; each returns structured results and
//! can print a report with CSV output.
//!
//! The per-figure grids — (workload, governor, configuration) cells — run
//! on the index-ordered [`par_map`] scoped threads: each cell
//! owns its own seeded plant, seeds are derived from the cell index with
//! the same formulas the serial code used, and reduction/emission always
//! walks cells in index order, so every CSV is bit-identical at any
//! `--jobs` count (and to the historical serial output).

use std::time::Instant;

use mimo_core::design::DesignFlow;
use mimo_core::governor::{Governor, MimoGovernor};
use mimo_core::heuristic::{HeuristicOptimizer, HeuristicTracker};
use mimo_core::optimizer::{Metric, MAX_TRIES};
use mimo_core::weights::WeightSet;
use mimo_core::ControlError;
use mimo_linalg::Vector;
use mimo_sim::workload::{is_non_responsive, production_names};
use mimo_sim::InputSet;

use crate::cache::DesignCache;
use crate::par::par_map;
use crate::qoe::BatterySchedule;
use crate::report::{self, Comparison, ResultsDir};
use crate::runner::{
    run_optimization, run_schedule, run_self_directed, run_tracking, ScheduleTrace, TrackingStats,
};
use crate::timing::TimingSink;
use crate::{setup, TARGET_IPS, TARGET_POWER};

/// Experiment sizing knobs; `full()` reproduces the paper-scale runs,
/// `quick()` keeps integration tests fast.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Instruction budget per optimization run, billions.
    pub budget_g: f64,
    /// Epochs per tracking run.
    pub tracking_epochs: usize,
    /// Epochs for time-varying runs (Figure 12 uses 10 000).
    pub schedule_epochs: usize,
    /// Restrict to a subset of apps (`None` = the full production set).
    pub apps: Option<Vec<&'static str>>,
    /// Base RNG seed.
    pub seed: u64,
    /// Whether to print reports and write CSVs.
    pub emit: bool,
    /// Worker threads for grid cells (1 = serial; results are identical
    /// at any value).
    pub jobs: usize,
    /// Memoized design-flow products, shared across subcommands.
    pub cache: DesignCache,
    /// Where CSVs and other artifacts land.
    pub results: ResultsDir,
    /// Wall-clock recorder for `--timing` (disabled by default).
    pub timing: TimingSink,
}

impl ExpConfig {
    /// Paper-scale configuration.
    pub fn full() -> Self {
        ExpConfig {
            budget_g: 2.0,
            tracking_epochs: 4000,
            schedule_epochs: 10_000,
            apps: None,
            seed: 2016,
            emit: true,
            jobs: 1,
            cache: DesignCache::new(),
            results: ResultsDir::discover(),
            timing: TimingSink::disabled(),
        }
    }

    /// Small configuration for tests.
    pub fn quick() -> Self {
        ExpConfig {
            apps: Some(vec!["astar", "milc", "mcf", "gamess", "dealII", "povray"]),
            budget_g: 1.2,
            tracking_epochs: 1200,
            schedule_epochs: 2000,
            emit: false,
            ..ExpConfig::full()
        }
    }

    fn app_list(&self) -> Vec<&'static str> {
        self.apps.clone().unwrap_or_else(production_names)
    }

    /// Fans `items` across up to `jobs` scoped threads ([`par_map`]),
    /// timing each cell under its label; results (and timing records) come
    /// back in cell order.
    fn grid<T, R, F>(&self, labels: &[String], items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        debug_assert_eq!(labels.len(), items.len());
        let timed = par_map(self.jobs, items, |i, t| {
            let start = Instant::now();
            let r = f(i, t);
            (r, start.elapsed().as_secs_f64())
        });
        timed
            .into_iter()
            .enumerate()
            .map(|(i, (r, wall_s))| {
                self.timing.record_cell(&labels[i], wall_s);
                r
            })
            .collect()
    }
}

/// Attaches a grid-cell label (workload/architecture) to an error so one
/// failing cell reports *which* cell instead of aborting the sweep
/// anonymously.
fn cell_err(label: &str, e: impl std::fmt::Display) -> ControlError {
    ControlError::ValidationFailed {
        what: format!("cell {label}: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Figure 6 — weight-choice sensitivity (Table V)
// ---------------------------------------------------------------------------

/// One Figure 6 data point.
#[derive(Debug, Clone)]
pub struct Fig06Point {
    /// Weight-set label (Equal / Inputs / Power / Size).
    pub label: String,
    /// Epochs to steady state for frequency (None = did not converge).
    pub steady_freq: Option<usize>,
    /// Epochs to steady state for cache size.
    pub steady_cache: Option<usize>,
    /// Average IPS tracking error, percent.
    pub err_ips_pct: f64,
    /// Average power tracking error, percent.
    pub err_power_pct: f64,
}

/// Runs the Table V weight sets on `namd` tracking (2.5 BIPS, 2 W).
///
/// # Errors
///
/// Propagates design failures (weight sets that cannot even be synthesized
/// are reported as non-convergent instead).
pub fn fig06(cfg: &ExpConfig) -> mimo_core::Result<Vec<Fig06Point>> {
    let targets = Vector::from_slice(&[TARGET_IPS, TARGET_POWER]);
    let cells = WeightSet::table_v();
    let labels: Vec<String> = cells
        .iter()
        .map(|ws| format!("fig06/{}", ws.label))
        .collect();
    let points = cfg.grid(&labels, cells, |i, ws| -> mimo_core::Result<Fig06Point> {
        let label = ws.label.clone();
        // Figure 6 studies raw weight choices: design without the RSA loop
        // so bad choices show their true (possibly non-convergent) colors.
        // The sensitivity sweep uses a lower weight scale than the
        // production controller so that the four Table V points span the
        // sluggish-to-ripply spectrum the paper illustrates (only the
        // relative ordering of the sets is meaningful).
        let mut flow = DesignFlow::two_input().with_weights(ws);
        flow.input_weight_scale = 3e4;
        let mut training = setup::training_plants(InputSet::FreqCache, cfg.seed);
        match flow.run_multi(training.iter_mut()) {
            Ok(result) => {
                let mut gov = MimoGovernor::new(result.into_controller());
                let mut plant = setup::try_plant("namd", InputSet::FreqCache, cfg.seed + 40)
                    .map_err(|e| cell_err(&labels[i], e))?;
                // Convergence from initial conditions, within namd's first
                // program phase.
                let epochs = cfg.tracking_epochs.min(2400);
                let stats = run_tracking(&mut gov, &mut plant, &targets, epochs, false);
                Ok(Fig06Point {
                    label,
                    steady_freq: stats.steady_epoch[0],
                    steady_cache: stats.steady_epoch[1],
                    err_ips_pct: stats.avg_err_pct[0],
                    err_power_pct: stats.avg_err_pct[1],
                })
            }
            // A weight set that cannot even be synthesized is a finding
            // (non-convergent), not a harness failure.
            Err(_) => Ok(Fig06Point {
                label,
                steady_freq: None,
                steady_cache: None,
                err_ips_pct: f64::NAN,
                err_power_pct: f64::NAN,
            }),
        }
    });
    let points: Vec<Fig06Point> = points.into_iter().collect::<mimo_core::Result<_>>()?;
    if cfg.emit {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.label.clone(),
                    fmt_steady(p.steady_freq),
                    fmt_steady(p.steady_cache),
                    report::fmt(p.err_ips_pct, 1),
                    report::fmt(p.err_power_pct, 1),
                ]
            })
            .collect();
        println!(
            "{}",
            report::ascii_table(
                &[
                    "weights",
                    "steady(freq)",
                    "steady(cache)",
                    "err IPS %",
                    "err P %"
                ],
                &rows
            )
        );
        let _ = cfg.results.write_csv(
            "fig06_weights.csv",
            &[
                "label",
                "steady_freq",
                "steady_cache",
                "err_ips_pct",
                "err_power_pct",
            ],
            &rows,
        );
    }
    Ok(points)
}

fn fmt_steady(s: Option<usize>) -> String {
    s.map_or("no-conv".to_string(), |e| e.to_string())
}

// ---------------------------------------------------------------------------
// Figure 7 — model error vs state dimension
// ---------------------------------------------------------------------------

/// One Figure 7 data point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig07Point {
    /// State dimension of the realized model.
    pub dimension: usize,
    /// Validation error for IPS, percent.
    pub err_ips_pct: f64,
    /// Validation error for power, percent.
    pub err_power_pct: f64,
}

/// Sweeps the model dimension {2, 4, 6, 8} and measures validation error.
///
/// # Errors
///
/// Propagates identification failures.
pub fn fig07(cfg: &ExpConfig) -> mimo_core::Result<Vec<Fig07Point>> {
    // (na, feedthrough): dim = na·O (+ I if strictly proper).
    let sweep = [(1, true), (1, false), (2, false), (3, false)];
    let mut points = Vec::new();
    for (na, ft) in sweep {
        let mut flow = DesignFlow::two_input().with_arx_na(na);
        flow.direct_feedthrough = ft;
        let mut training = setup::training_plants(InputSet::FreqCache, cfg.seed);
        let result = flow.run_multi(training.iter_mut())?;
        let mut validation = setup::validation_plants(InputSet::FreqCache, cfg.seed);
        let errors = flow.measure_model_error(&result, validation.iter_mut())?;
        points.push(Fig07Point {
            dimension: result.model.state_dim(),
            err_ips_pct: errors[0] * 100.0,
            err_power_pct: errors[1] * 100.0,
        });
    }
    if cfg.emit {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.dimension.to_string(),
                    report::fmt(p.err_ips_pct, 1),
                    report::fmt(p.err_power_pct, 1),
                ]
            })
            .collect();
        println!(
            "{}",
            report::ascii_table(&["dimension", "max err IPS %", "max err P %"], &rows)
        );
        let _ = cfg.results.write_csv(
            "fig07_dimension.csv",
            &["dimension", "err_ips_pct", "err_power_pct"],
            &rows,
        );
        println!(
            "{}",
            report::comparison_table(
                "Figure 7",
                &[Comparison::new(
                    "dimension picked",
                    "4 (errors plateau after)",
                    &format!("{}", best_dimension(&points)),
                )]
            )
        );
    }
    Ok(points)
}

/// The smallest dimension within 5% of the best achievable error.
pub fn best_dimension(points: &[Fig07Point]) -> usize {
    let best = points
        .iter()
        .map(|p| p.err_ips_pct + p.err_power_pct)
        .fold(f64::INFINITY, f64::min);
    points
        .iter()
        .find(|p| p.err_ips_pct + p.err_power_pct <= 1.05 * best)
        .map_or(4, |p| p.dimension)
}

// ---------------------------------------------------------------------------
// Figure 8 — uncertainty guardband vs convergence time
// ---------------------------------------------------------------------------

/// One Figure 8 run (per guardband level).
#[derive(Debug, Clone)]
pub struct Fig08Point {
    /// "High" (50%/30%) or "Low" (30%/20%).
    pub label: String,
    /// Epochs to steady state for frequency, averaged over apps.
    pub steady_freq: f64,
    /// Epochs to steady state for cache, averaged over apps.
    pub steady_cache: f64,
}

/// Designs with the paper's High (50% IPS / 30% power) and Low (30%/20%)
/// guardbands and measures convergence time on responsive apps.
///
/// # Errors
///
/// Propagates design failures.
pub fn fig08(cfg: &ExpConfig) -> mimo_core::Result<Vec<Fig08Point>> {
    let targets = Vector::from_slice(&[TARGET_IPS, TARGET_POWER]);
    // §VIII-C's mechanism: betting on a smaller guardband lets the designer
    // reduce the input weights (a more aggressive controller), provided RSA
    // still passes at that guardband. The High design keeps the production
    // weights; the Low design quarters them.
    let apps = ["namd", "gamess", "cactusADM", "sphinx3"];
    let specs = [
        ("High Uncertainty", [0.5, 0.3], 1.0),
        ("Low Uncertainty", [0.3, 0.2], 4.0),
    ];

    // Stage 1: synthesize the two guardband designs (independent cells).
    let design_labels: Vec<String> = specs
        .iter()
        .map(|(label, _, _)| format!("fig08/design/{label}"))
        .collect();
    let designs = cfg.grid(&design_labels, specs.to_vec(), |i, (_, gb, weight_div)| {
        let mut flow = DesignFlow::two_input();
        flow.input_weight_scale /= weight_div;
        let mut training = setup::training_plants(InputSet::FreqCache, cfg.seed);
        let result = flow
            .run_multi(training.iter_mut())
            .map_err(|e| cell_err(&design_labels[i], e))?;
        // RSA must confirm the design is stable at its guardband.
        flow.rsa_redesign(&result, &gb)
            .map_err(|e| cell_err(&design_labels[i], e))
    });
    let designs: Vec<_> = designs.into_iter().collect::<mimo_core::Result<_>>()?;

    // Stage 2: every (design, app) tracking run is its own cell. Measure
    // within the first program phase (convergence from initial conditions,
    // as in the paper's figure); per-app seeds match the serial formula.
    let epochs = cfg.tracking_epochs.min(2200);
    let cells: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|d| (0..apps.len()).map(move |k| (d, k)))
        .collect();
    let labels: Vec<String> = cells
        .iter()
        .map(|&(d, k)| format!("fig08/{}/{}", specs[d].0, apps[k]))
        .collect();
    let runs = cfg.grid(&labels, cells, |i, (d, k)| {
        let mut gov = MimoGovernor::new(designs[d].controller.clone());
        let mut plant = setup::try_plant(apps[k], InputSet::FreqCache, cfg.seed + 60 + k as u64)
            .map_err(|e| cell_err(&labels[i], e))?;
        Ok(run_tracking(&mut gov, &mut plant, &targets, epochs, false))
    });
    let runs: Vec<TrackingStats> = runs.into_iter().collect::<mimo_core::Result<_>>()?;

    let mut points = Vec::new();
    for (d, run_block) in runs.chunks(apps.len()).enumerate() {
        let mut sum_f = 0.0;
        let mut sum_c = 0.0;
        let mut n = 0.0;
        for stats in run_block {
            if let (Some(f), Some(c)) = (stats.steady_epoch[0], stats.steady_epoch[1]) {
                sum_f += f as f64;
                sum_c += c as f64;
                n += 1.0;
            }
        }
        points.push(Fig08Point {
            label: specs[d].0.to_string(),
            steady_freq: if n > 0.0 { sum_f / n } else { f64::NAN },
            steady_cache: if n > 0.0 { sum_c / n } else { f64::NAN },
        });
    }
    if cfg.emit {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.label.clone(),
                    report::fmt(p.steady_freq, 0),
                    report::fmt(p.steady_cache, 0),
                ]
            })
            .collect();
        println!(
            "{}",
            report::ascii_table(
                &["design", "steady(freq) epochs", "steady(cache) epochs"],
                &rows
            )
        );
        let _ = cfg.results.write_csv(
            "fig08_guardband.csv",
            &["label", "steady_freq", "steady_cache"],
            &rows,
        );
    }
    Ok(points)
}

// ---------------------------------------------------------------------------
// Figures 9/10 + §VIII-F table — optimization experiments
// ---------------------------------------------------------------------------

/// Per-app normalized E·D^(k−1) for each architecture.
#[derive(Debug, Clone)]
pub struct OptRow {
    /// Application name.
    pub app: &'static str,
    /// MIMO result normalized to Baseline.
    pub mimo: f64,
    /// Heuristic result normalized to Baseline.
    pub heuristic: f64,
    /// Decoupled result normalized to Baseline (`None` for 3-input runs).
    pub decoupled: Option<f64>,
}

/// Full optimization-experiment output.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Per-app rows.
    pub rows: Vec<OptRow>,
    /// Geometric-mean-free simple averages across apps.
    pub avg_mimo: f64,
    /// See `avg_mimo`.
    pub avg_heuristic: f64,
    /// See `avg_mimo`.
    pub avg_decoupled: Option<f64>,
}

/// Runs the E·D^(k−1) optimization comparison for an input set (Figure 9
/// with 2 inputs + `EnergyDelay`, Figure 10 with 3 inputs, the §VIII-F
/// table with `Energy`/`EnergyDelaySquared`).
///
/// # Errors
///
/// Propagates design failures.
pub fn optimization_experiment(
    cfg: &ExpConfig,
    input_set: InputSet,
    metric: Metric,
) -> mimo_core::Result<OptResult> {
    let with_decoupled = input_set == InputSet::FreqCache;
    // All four architecture designs come from the shared cache: every
    // figure/table that deploys the same (input_set, seed) design reuses
    // one synthesis instead of re-running excitation + DARE.
    let baseline_cfg = cfg.cache.baseline_config(input_set, metric, cfg.seed);
    let mimo = cfg.cache.design_mimo(input_set, cfg.seed)?;
    let ranking = cfg.cache.heuristic_ranking(input_set, cfg.seed);
    let decoupled = if with_decoupled {
        Some(cfg.cache.decoupled_governor(cfg.seed)?)
    } else {
        None
    };
    let grids: Vec<Vec<f64>> = input_set
        .grids()
        .iter()
        .map(|g| g.values().to_vec())
        .collect();

    // One grid cell per (app, architecture); each owns a fresh plant with
    // the serial code's seed formula, so the normalized numbers are
    // identical at any job count.
    let archs: &[&str] = if with_decoupled {
        &["baseline", "mimo", "heuristic", "decoupled"]
    } else {
        &["baseline", "mimo", "heuristic"]
    };
    let apps = cfg.app_list();
    let cells: Vec<(usize, usize)> = (0..apps.len())
        .flat_map(|k| (0..archs.len()).map(move |a| (k, a)))
        .collect();
    let labels: Vec<String> = cells
        .iter()
        .map(|&(k, a)| {
            format!(
                "opt_{}in_k{}/{}/{}",
                input_set.len(),
                metric.exponent(),
                apps[k],
                archs[a]
            )
        })
        .collect();
    let products = cfg.grid(&labels, cells, |i, (k, a)| -> mimo_core::Result<f64> {
        let seed = cfg.seed + 1000 + k as u64;
        let mut plant =
            setup::try_plant(apps[k], input_set, seed).map_err(|e| cell_err(&labels[i], e))?;
        let run = match archs[a] {
            "baseline" => {
                let mut gov = mimo_core::governor::FixedGovernor::new(Vector::from_slice(
                    &baseline_cfg.to_actuation(input_set),
                ));
                run_self_directed(&mut gov, &mut plant, metric, cfg.budget_g)
            }
            "mimo" => {
                let mut gov = MimoGovernor::new(mimo.controller.clone());
                run_optimization(&mut gov, &mut plant, metric, cfg.budget_g)
            }
            "heuristic" => {
                let mut gov =
                    HeuristicOptimizer::new(grids.clone(), ranking.clone(), metric, MAX_TRIES);
                run_self_directed(&mut gov, &mut plant, metric, cfg.budget_g)
            }
            _ => {
                let mut gov = decoupled
                    .clone()
                    .expect("decoupled arch only when designed");
                run_optimization(&mut gov, &mut plant, metric, cfg.budget_g)
            }
        };
        Ok(run.ed_product)
    });
    let products: Vec<f64> = products.into_iter().collect::<mimo_core::Result<_>>()?;

    let mut rows = Vec::new();
    for (k, app) in apps.into_iter().enumerate() {
        let cell = |a: usize| products[k * archs.len() + a];
        let base = cell(0);
        rows.push(OptRow {
            app,
            mimo: cell(1) / base,
            heuristic: cell(2) / base,
            decoupled: with_decoupled.then(|| cell(3) / base),
        });
    }

    let n = rows.len() as f64;
    let avg_mimo = rows.iter().map(|r| r.mimo).sum::<f64>() / n;
    let avg_heuristic = rows.iter().map(|r| r.heuristic).sum::<f64>() / n;
    let avg_decoupled =
        with_decoupled.then(|| rows.iter().filter_map(|r| r.decoupled).sum::<f64>() / n);

    let result = OptResult {
        rows,
        avg_mimo,
        avg_heuristic,
        avg_decoupled,
    };
    if cfg.emit {
        emit_opt(cfg, &result, input_set, metric);
    }
    Ok(result)
}

fn emit_opt(cfg: &ExpConfig, result: &OptResult, input_set: InputSet, metric: Metric) {
    let k = metric.exponent();
    let title = format!(
        "E×D^{} normalized to Baseline ({} inputs)",
        k - 1,
        input_set.len()
    );
    let mut rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.app.to_string(),
                report::fmt(r.mimo, 3),
                report::fmt(r.heuristic, 3),
                r.decoupled.map_or("-".into(), |d| report::fmt(d, 3)),
            ]
        })
        .collect();
    rows.push(vec![
        "AVG".into(),
        report::fmt(result.avg_mimo, 3),
        report::fmt(result.avg_heuristic, 3),
        result
            .avg_decoupled
            .map_or("-".into(), |d| report::fmt(d, 3)),
    ]);
    println!("\n== {title} ==");
    println!(
        "{}",
        report::ascii_table(&["app", "MIMO", "Heuristic", "Decoupled"], &rows)
    );
    let name = format!("opt_{}in_k{}.csv", input_set.len(), k);
    let _ = cfg
        .results
        .write_csv(&name, &["app", "mimo", "heuristic", "decoupled"], &rows);
}

// ---------------------------------------------------------------------------
// Figure 11 — tracking multiple references
// ---------------------------------------------------------------------------

/// Per-app tracking errors for one architecture.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Application name.
    pub app: &'static str,
    /// Whether the app belongs to the paper's non-responsive set.
    pub non_responsive: bool,
    /// Average IPS error, percent — per architecture (MIMO, Heuristic,
    /// Decoupled).
    pub err_ips: [f64; 3],
    /// Average power error, percent — same order.
    pub err_power: [f64; 3],
}

/// Figure 11 output with per-class averages.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// Per-app rows.
    pub rows: Vec<Fig11Row>,
    /// Average (IPS, power) errors over responsive apps, per architecture.
    pub responsive_avg: [(f64, f64); 3],
    /// Same for non-responsive apps.
    pub non_responsive_avg: [(f64, f64); 3],
}

/// Runs the §VIII-D tracking comparison across the production set.
///
/// # Errors
///
/// Propagates design failures.
pub fn fig11(cfg: &ExpConfig) -> mimo_core::Result<Fig11Result> {
    let targets = Vector::from_slice(&[TARGET_IPS, TARGET_POWER]);
    let mimo = cfg.cache.design_mimo(InputSet::FreqCache, cfg.seed)?;
    let ranking = cfg.cache.heuristic_ranking(InputSet::FreqCache, cfg.seed);
    let decoupled = cfg.cache.decoupled_governor(cfg.seed)?;
    let grids: Vec<Vec<f64>> = InputSet::FreqCache
        .grids()
        .iter()
        .map(|g| g.values().to_vec())
        .collect();

    // One grid cell per (app, architecture); arch index 0/1/2 = MIMO /
    // Heuristic / Decoupled, as in the row arrays.
    const ARCHS: [&str; 3] = ["mimo", "heuristic", "decoupled"];
    let apps = cfg.app_list();
    let cells: Vec<(usize, usize)> = (0..apps.len())
        .flat_map(|k| (0..ARCHS.len()).map(move |a| (k, a)))
        .collect();
    let labels: Vec<String> = cells
        .iter()
        .map(|&(k, a)| format!("fig11/{}/{}", apps[k], ARCHS[a]))
        .collect();
    let errs = cfg.grid(
        &labels,
        cells,
        |i, (k, a)| -> mimo_core::Result<(f64, f64)> {
            let seed = cfg.seed + 2000 + k as u64;
            let mut plant = setup::try_plant(apps[k], InputSet::FreqCache, seed)
                .map_err(|e| cell_err(&labels[i], e))?;
            let mut mimo_gov;
            let mut heur_gov;
            let mut dec_gov;
            let gov: &mut dyn Governor = match a {
                0 => {
                    mimo_gov = MimoGovernor::new(mimo.controller.clone());
                    &mut mimo_gov
                }
                1 => {
                    heur_gov =
                        HeuristicTracker::new(grids.clone(), ranking.clone(), targets.clone());
                    &mut heur_gov
                }
                _ => {
                    dec_gov = decoupled.clone();
                    &mut dec_gov
                }
            };
            let stats: TrackingStats =
                run_tracking(gov, &mut plant, &targets, cfg.tracking_epochs, false);
            Ok((stats.avg_err_pct[0], stats.avg_err_pct[1]))
        },
    );
    let errs: Vec<(f64, f64)> = errs.into_iter().collect::<mimo_core::Result<_>>()?;

    let mut rows = Vec::new();
    for (k, app) in apps.into_iter().enumerate() {
        let mut err_ips = [0.0; 3];
        let mut err_power = [0.0; 3];
        for a in 0..ARCHS.len() {
            let (ips, power) = errs[k * ARCHS.len() + a];
            err_ips[a] = ips;
            err_power[a] = power;
        }
        rows.push(Fig11Row {
            app,
            non_responsive: is_non_responsive(app),
            err_ips,
            err_power,
        });
    }

    let class_avg = |non_resp: bool| -> [(f64, f64); 3] {
        let class: Vec<&Fig11Row> = rows
            .iter()
            .filter(|r| r.non_responsive == non_resp)
            .collect();
        let n = class.len().max(1) as f64;
        let mut out = [(0.0, 0.0); 3];
        for (a, slot) in out.iter_mut().enumerate() {
            slot.0 = class.iter().map(|r| r.err_ips[a]).sum::<f64>() / n;
            slot.1 = class.iter().map(|r| r.err_power[a]).sum::<f64>() / n;
        }
        out
    };
    let result = Fig11Result {
        responsive_avg: class_avg(false),
        non_responsive_avg: class_avg(true),
        rows,
    };
    if cfg.emit {
        let table_rows: Vec<Vec<String>> = result
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.app.to_string(),
                    if r.non_responsive { "non-resp" } else { "resp" }.into(),
                    report::fmt(r.err_ips[0], 1),
                    report::fmt(r.err_power[0], 1),
                    report::fmt(r.err_ips[1], 1),
                    report::fmt(r.err_power[1], 1),
                    report::fmt(r.err_ips[2], 1),
                    report::fmt(r.err_power[2], 1),
                ]
            })
            .collect();
        println!(
            "{}",
            report::ascii_table(
                &[
                    "app",
                    "class",
                    "MIMO ips%",
                    "MIMO p%",
                    "Heur ips%",
                    "Heur p%",
                    "Dec ips%",
                    "Dec p%"
                ],
                &table_rows
            )
        );
        let _ = cfg.results.write_csv(
            "fig11_tracking.csv",
            &[
                "app", "class", "mimo_ips", "mimo_p", "heur_ips", "heur_p", "dec_ips", "dec_p",
            ],
            &table_rows,
        );
        println!(
            "{}",
            report::comparison_table(
                "Figure 11(a) — responsive avg IPS error",
                &[
                    Comparison::new("MIMO", "7%", &report::fmt(result.responsive_avg[0].0, 1)),
                    Comparison::new(
                        "Heuristic",
                        "13%",
                        &report::fmt(result.responsive_avg[1].0, 1)
                    ),
                    Comparison::new(
                        "Decoupled",
                        "24%",
                        &report::fmt(result.responsive_avg[2].0, 1)
                    ),
                ]
            )
        );
    }
    Ok(result)
}

// ---------------------------------------------------------------------------
// Figure 12 — time-varying tracking
// ---------------------------------------------------------------------------

/// Per-architecture trace of a time-varying run on one app.
#[derive(Debug, Clone)]
pub struct Fig12Run {
    /// Application name.
    pub app: &'static str,
    /// Architecture name.
    pub arch: &'static str,
    /// Full trace (outputs + references).
    pub trace: ScheduleTrace,
}

/// Runs the battery/QoE time-varying tracking of §VIII-E on `astar` and
/// `milc`.
///
/// # Errors
///
/// Propagates design failures.
pub fn fig12(cfg: &ExpConfig) -> mimo_core::Result<Vec<Fig12Run>> {
    let schedule = BatterySchedule::paper_default().schedule(cfg.schedule_epochs);
    let mimo = cfg.cache.design_mimo(InputSet::FreqCache, cfg.seed)?;
    let ranking = cfg.cache.heuristic_ranking(InputSet::FreqCache, cfg.seed);
    let decoupled = cfg.cache.decoupled_governor(cfg.seed)?;
    let grids: Vec<Vec<f64>> = InputSet::FreqCache
        .grids()
        .iter()
        .map(|g| g.values().to_vec())
        .collect();
    let first_targets = schedule[0].targets.clone();

    // One grid cell per (app, architecture).
    const APPS: [&str; 2] = ["astar", "milc"];
    const ARCHS: [&str; 3] = ["MIMO", "Heuristic", "Decoupled"];
    let cells: Vec<(usize, &'static str)> = (0..APPS.len())
        .flat_map(|k| ARCHS.iter().map(move |&arch| (k, arch)))
        .collect();
    let labels: Vec<String> = cells
        .iter()
        .map(|&(k, arch)| format!("fig12/{}/{arch}", APPS[k]))
        .collect();
    let runs = cfg.grid(
        &labels,
        cells,
        |i, (k, arch)| -> mimo_core::Result<Fig12Run> {
            let app = APPS[k];
            let mut plant = setup::try_plant(app, InputSet::FreqCache, cfg.seed + 3000 + k as u64)
                .map_err(|e| cell_err(&labels[i], e))?;
            let trace = match arch {
                "MIMO" => {
                    let mut gov = MimoGovernor::new(mimo.controller.clone());
                    run_schedule(&mut gov, &mut plant, &schedule, cfg.schedule_epochs)
                }
                "Heuristic" => {
                    let mut gov = HeuristicTracker::new(
                        grids.clone(),
                        ranking.clone(),
                        first_targets.clone(),
                    );
                    run_schedule(&mut gov, &mut plant, &schedule, cfg.schedule_epochs)
                }
                _ => {
                    let mut gov = decoupled.clone();
                    run_schedule(&mut gov, &mut plant, &schedule, cfg.schedule_epochs)
                }
            };
            Ok(Fig12Run { app, arch, trace })
        },
    );
    let runs: Vec<Fig12Run> = runs.into_iter().collect::<mimo_core::Result<_>>()?;
    if cfg.emit {
        // CSV: one decimated trace per app (epoch, ref, mimo, heur, dec).
        for app in ["astar", "milc"] {
            let per_arch: Vec<&Fig12Run> = runs.iter().filter(|r| r.app == app).collect();
            let len = per_arch[0].trace.outputs.len();
            let stride = (len / 500).max(1);
            let mut rows = Vec::new();
            for t in (0..len).step_by(stride) {
                rows.push(vec![
                    t.to_string(),
                    report::fmt(per_arch[0].trace.references[t][0], 3),
                    report::fmt(per_arch[0].trace.outputs[t][0], 3),
                    report::fmt(per_arch[1].trace.outputs[t][0], 3),
                    report::fmt(per_arch[2].trace.outputs[t][0], 3),
                ]);
            }
            let _ = cfg.results.write_csv(
                &format!("fig12_{app}.csv"),
                &["epoch", "ref_ips", "mimo_ips", "heur_ips", "dec_ips"],
                &rows,
            );
        }
        let mut cmp = Vec::new();
        for r in &runs {
            cmp.push(Comparison::new(
                &format!("{} on {}: avg |IPS err|", r.arch, r.app),
                "MIMO tracks closest",
                &format!("{}%", report::fmt(r.trace.ips_tracking_error_pct(), 1)),
            ));
        }
        println!("{}", report::comparison_table("Figure 12", &cmp));
    }
    Ok(runs)
}

// ---------------------------------------------------------------------------
// Fleet scaling — many-core runtime under a chip power budget
// ---------------------------------------------------------------------------

/// Sweeps fleet sizes N ∈ {1, 4, 16, 64}, all cores sharing one
/// synthesized two-input MIMO design under a proportional
/// chip-power arbiter. Returns one run's statistics per N, in sweep order.
///
/// # Errors
///
/// Propagates controller-design failures and fleet configuration/run
/// failures, naming the failing fleet size.
pub fn fleet_scale(cfg: &ExpConfig) -> mimo_core::Result<Vec<mimo_fleet::FleetStats>> {
    let design = cfg.cache.design_mimo(InputSet::FreqCache, cfg.seed)?;
    let epochs = cfg.tracking_epochs.min(1000);

    // Each fleet is one chip stepped on one thread; the sweep stays serial
    // at the harness level.
    let mut points = Vec::new();
    for &n in &[1usize, 4, 16, 64] {
        let label = format!("fleet-scale/n{n}");
        let fleet_cfg = mimo_fleet::FleetConfig::new(n)
            .epochs(epochs)
            .seed(cfg.seed);
        let stats = mimo_fleet::FleetRunner::with_shared_controller(fleet_cfg, &design.controller)
            .and_then(mimo_fleet::FleetRunner::run)
            .map_err(|e| cell_err(&label, e))?;
        points.push(stats);
    }

    if cfg.emit {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|s| {
                vec![
                    s.n_cores.to_string(),
                    s.workers.to_string(),
                    s.epochs.to_string(),
                    s.policy.clone(),
                    report::fmt(s.agg_ips_err_pct, 2),
                    report::fmt(s.agg_power_err_pct, 2),
                    report::fmt(s.avg_chip_power_w, 3),
                    report::fmt(s.peak_chip_power_w, 3),
                    report::fmt(s.cap_violation_pct, 2),
                    format!("{:016x}", s.digest()),
                ]
            })
            .collect();
        // No wall clock in the CSV or the console table: results must be
        // bit-identical across runs and job counts (CI diffs them). Timing
        // belongs to the benchmark.
        let path = cfg.results.write_csv(
            "fleet_scale.csv",
            &[
                "n_cores",
                "workers",
                "epochs",
                "policy",
                "ips_err_pct",
                "power_err_pct",
                "avg_chip_w",
                "peak_chip_w",
                "cap_violation_pct",
                "digest",
            ],
            &rows,
        );
        if let Ok(p) = path {
            println!("wrote {}", p.display());
        }
        let cmp: Vec<Comparison> = points
            .iter()
            .map(|s| {
                Comparison::new(
                    &format!("N={} avg chip power", s.n_cores),
                    &format!("cap {} W", report::fmt(s.chip_cap_w, 1)),
                    &format!("{} W", report::fmt(s.avg_chip_power_w, 3)),
                )
            })
            .collect();
        println!("{}", report::comparison_table("Fleet scaling", &cmp));
    }
    Ok(points)
}

// ---------------------------------------------------------------------------
// Cluster scaling — hierarchical multi-chip fleet under a datacenter budget
// ---------------------------------------------------------------------------

/// One cluster-scaling data point: a chips × cores-per-chip grid cell,
/// run at one or more shard counts.
#[derive(Debug, Clone)]
pub struct ClusterScalePoint {
    /// Cluster statistics from the first shard count run (every
    /// deterministic field is shard-invariant).
    pub stats: mimo_fleet::ClusterStats,
    /// `(shard count, digest)` for every run of this cell; all digests
    /// must match.
    pub digests: Vec<(usize, u64)>,
}

/// Sweeps cluster shapes (chips × cores per chip) up to 256 total cores,
/// every core sharing one synthesized MIMO design and keeping only its
/// own controller state, each chip under its own arbiter and shared-LLC contention model, and the
/// cluster arbiter re-dividing the datacenter cap every exchange window.
///
/// With `shards = None` each shape runs at shard counts {1, 2, 4, 8}
/// (capped at the chip count) and all runs of a shape must produce
/// bit-identical digests; `Some(s)` pins a single shard count — the CSV
/// is byte-identical either way, which is what the CI determinism job
/// diffs.
///
/// # Errors
///
/// Propagates controller-design failures and cluster configuration/run
/// failures, naming the failing `(chips, cores, shards)` cell.
pub fn cluster_scale(
    cfg: &ExpConfig,
    shards: Option<usize>,
) -> mimo_core::Result<Vec<ClusterScalePoint>> {
    use mimo_sim::llc::LlcConfig;

    let design = cfg.cache.design_mimo(InputSet::FreqCache, cfg.seed)?;
    let epochs = cfg.tracking_epochs.min(400);
    // 16, 64, and 256 total cores.
    let grid = [(4usize, 4usize), (4, 16), (16, 16)];

    // The cluster runner drives its own shard threads, so the sweep stays
    // serial at the harness level (same reasoning as fleet_scale).
    let mut points = Vec::new();
    for &(chips, cores) in &grid {
        let shard_counts: Vec<usize> = match shards {
            Some(s) => vec![s.clamp(1, chips)],
            None => {
                let mut v: Vec<usize> = [1usize, 2, 4, 8].iter().map(|&s| s.min(chips)).collect();
                v.dedup();
                v
            }
        };
        let mut first: Option<mimo_fleet::ClusterStats> = None;
        let mut digests = Vec::with_capacity(shard_counts.len());
        for &s in &shard_counts {
            let label = format!("cluster-scale/c{chips}x{cores}/s{s}");
            let ccfg = mimo_fleet::ClusterConfig::new(chips, cores)
                .epochs(epochs)
                .shards(s)
                // A mildly starved way budget (two-thirds of the roomy
                // default), so contention coupling is actually exercised.
                .llc_contention(LlcConfig::for_cores(cores).total_ways(4 * cores))
                .seed(cfg.seed);
            let started = Instant::now();
            let stats = mimo_fleet::ClusterRunner::with_shared_controller(ccfg, &design.controller)
                .and_then(mimo_fleet::ClusterRunner::run)
                .map_err(|e| cell_err(&label, e))?;
            cfg.timing
                .record_cell(&label, started.elapsed().as_secs_f64());
            // Per-chip stepping wall-clock (rendezvous waits excluded) —
            // recorded under --timing, never written to the CSV.
            if cfg.timing.is_enabled() {
                for (i, chip) in stats.per_chip.iter().enumerate() {
                    cfg.timing
                        .record_cell(&format!("{label}/chip{i}"), chip.wall_s);
                }
            }
            digests.push((s, stats.digest()));
            if first.is_none() {
                first = Some(stats);
            }
        }
        points.push(ClusterScalePoint {
            stats: first.expect("at least one shard count per cell"),
            digests,
        });
    }

    if cfg.emit {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                let s = &p.stats;
                vec![
                    s.n_chips.to_string(),
                    (s.total_cores / s.n_chips.max(1)).to_string(),
                    s.total_cores.to_string(),
                    s.epochs.to_string(),
                    s.exchange_period.to_string(),
                    s.exchanges.to_string(),
                    s.rebudget_moves.to_string(),
                    report::fmt(s.agg_ips_err_pct, 2),
                    report::fmt(s.agg_power_err_pct, 2),
                    report::fmt(s.avg_cluster_power_w, 3),
                    report::fmt(s.peak_window_power_w, 3),
                    report::fmt(s.cluster_cap_w, 3),
                    format!("{:016x}", p.digests[0].1),
                ]
            })
            .collect();
        // No shards or wall-clock columns: the file must be byte-identical
        // no matter which shard count produced it (CI diffs --shards 1/2/4
        // outputs directly); per-chip wall goes to BENCH_harness.json.
        let path = cfg.results.write_csv(
            "cluster_scale.csv",
            &[
                "n_chips",
                "cores_per_chip",
                "total_cores",
                "epochs",
                "exchange_period",
                "exchanges",
                "rebudget_moves",
                "ips_err_pct",
                "power_err_pct",
                "avg_cluster_w",
                "peak_window_w",
                "cluster_cap_w",
                "digest",
            ],
            &rows,
        );
        if let Ok(p) = path {
            println!("wrote {}", p.display());
        }
        let mut cmp = Vec::new();
        for p in &points {
            let s = &p.stats;
            let all_match = p.digests.iter().all(|&(_, d)| d == p.digests[0].1);
            cmp.push(Comparison::new(
                &format!(
                    "{}×{} ({} cores) deterministic across shards",
                    s.n_chips,
                    s.total_cores / s.n_chips.max(1),
                    s.total_cores
                ),
                "bit-identical",
                if all_match {
                    "bit-identical"
                } else {
                    "MISMATCH"
                },
            ));
            cmp.push(Comparison::new(
                &format!(
                    "{}×{} budget motion",
                    s.n_chips,
                    s.total_cores / s.n_chips.max(1)
                ),
                "cluster arbiter moves budget between chips",
                &format!(
                    "{} of {} exchanges moved caps",
                    s.rebudget_moves, s.exchanges
                ),
            ));
        }
        println!("{}", report::comparison_table("Cluster scaling", &cmp));
    }
    Ok(points)
}

// ---------------------------------------------------------------------------
// Fault sweep — graceful degradation under injected faults
// ---------------------------------------------------------------------------

/// One fault-sweep data point: a transient fault rate × arbitration policy
/// combination on a 16-core fleet.
#[derive(Debug, Clone)]
pub struct FaultSweepPoint {
    /// Per-epoch transient fault probability injected on every core.
    pub fault_rate: f64,
    /// Fleet statistics for the run (includes quarantine bookkeeping).
    pub stats: mimo_fleet::FleetStats,
}

/// Sweeps transient fault rates × arbitration policies on a 16-core MIMO
/// fleet and reports how tracking error, quarantine counts, and throughput
/// degrade as the fault process intensifies.
///
/// The zero-rate column doubles as a regression anchor: it must quarantine
/// nothing and fault no epochs, because a zero rate leaves the fault
/// injector completely transparent.
///
/// # Errors
///
/// Propagates controller-design failures and fleet configuration/run
/// failures, naming the failing `(rate, policy)` cell.
pub fn fault_sweep(cfg: &ExpConfig) -> mimo_core::Result<Vec<FaultSweepPoint>> {
    fault_sweep_traced(cfg, None).map(|(points, _)| points)
}

/// Like [`fault_sweep`], but when `telemetry` is provided every run carries
/// per-core sinks and the telemetry of the sweep's final run — the highest
/// fault rate under the last policy, the most eventful configuration — is
/// returned for export (e.g. the `mimo-exp fault-sweep --trace` flag).
///
/// # Errors
///
/// Same conditions as [`fault_sweep`].
pub fn fault_sweep_traced(
    cfg: &ExpConfig,
    telemetry: Option<mimo_core::telemetry::TelemetryConfig>,
) -> mimo_core::Result<(Vec<FaultSweepPoint>, Option<mimo_fleet::FleetTelemetry>)> {
    use mimo_fleet::ArbitrationPolicy;

    let design = cfg.cache.design_mimo(InputSet::FreqCache, cfg.seed)?;
    let epochs = cfg.tracking_epochs.min(600);
    let n = 16;
    let rates = [0.0, 0.002, 0.01, 0.05];
    let policies = [
        ArbitrationPolicy::Uniform,
        ArbitrationPolicy::Proportional,
        ArbitrationPolicy::PriorityWeighted,
    ];

    let mut points = Vec::new();
    let mut last_telemetry = None;
    for &rate in &rates {
        for &policy in &policies {
            let mut fleet_cfg = mimo_fleet::FleetConfig::new(n)
                .epochs(epochs)
                .policy(policy)
                .seed(cfg.seed)
                .fault_rate(rate);
            if let Some(t) = &telemetry {
                fleet_cfg = fleet_cfg.observer(t.clone());
            }
            let label = format!("fault-sweep/r{rate}/{policy:?}");
            let (stats, tele) =
                mimo_fleet::FleetRunner::with_shared_controller(fleet_cfg, &design.controller)
                    .and_then(mimo_fleet::FleetRunner::run_traced)
                    .map_err(|e| cell_err(&label, e))?;
            if tele.is_enabled() {
                last_telemetry = Some(tele);
            }
            points.push(FaultSweepPoint {
                fault_rate: rate,
                stats,
            });
        }
    }

    if cfg.emit {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                let s = &p.stats;
                vec![
                    report::fmt(p.fault_rate, 4),
                    s.policy.clone(),
                    s.epochs.to_string(),
                    report::fmt(s.agg_ips_err_pct, 2),
                    report::fmt(s.agg_power_err_pct, 2),
                    report::fmt(s.avg_chip_power_w, 3),
                    report::fmt(s.cap_violation_pct, 2),
                    s.fault_epochs.to_string(),
                    s.quarantined_cores.to_string(),
                    format!("{:016x}", s.digest()),
                ]
            })
            .collect();
        // Like fleet_scale.csv: no wall-clock column, so the file is
        // byte-stable for the CI determinism diff.
        let path = cfg.results.write_csv(
            "fault_sweep.csv",
            &[
                "fault_rate",
                "policy",
                "epochs",
                "ips_err_pct",
                "power_err_pct",
                "avg_chip_w",
                "cap_violation_pct",
                "fault_epochs",
                "quarantined_cores",
                "digest",
            ],
            &rows,
        );
        if let Ok(p) = path {
            println!("wrote {}", p.display());
        }
        let mut cmp = Vec::new();
        for p in &points {
            let s = &p.stats;
            cmp.push(Comparison::new(
                &format!("rate {} / {}", report::fmt(p.fault_rate, 4), s.policy),
                if p.fault_rate == 0.0 {
                    "0 faulted epochs, 0 quarantines"
                } else {
                    "completes; errors bounded"
                },
                &format!(
                    "ips err {}%, {} faulted, {} quarantined",
                    report::fmt(s.agg_ips_err_pct, 1),
                    s.fault_epochs,
                    s.quarantined_cores
                ),
            ));
        }
        println!("{}", report::comparison_table("Fault sweep", &cmp));
    }
    Ok((points, last_telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_limits_apps() {
        let cfg = ExpConfig::quick();
        assert_eq!(cfg.app_list().len(), 6);
        let full = ExpConfig::full();
        assert_eq!(full.app_list().len(), 24);
    }

    #[test]
    fn best_dimension_picks_elbow() {
        let pts = vec![
            Fig07Point {
                dimension: 2,
                err_ips_pct: 30.0,
                err_power_pct: 20.0,
            },
            Fig07Point {
                dimension: 4,
                err_ips_pct: 11.0,
                err_power_pct: 9.0,
            },
            Fig07Point {
                dimension: 6,
                err_ips_pct: 11.0,
                err_power_pct: 9.0,
            },
            Fig07Point {
                dimension: 8,
                err_ips_pct: 10.5,
                err_power_pct: 9.0,
            },
        ];
        assert_eq!(best_dimension(&pts), 4);
    }
}
