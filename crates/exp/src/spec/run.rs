//! Executes a [`RunSpec`] and checks its assertions.
//!
//! Paper scenarios dispatch to the exact `experiments::*` functions the
//! subcommands always ran — including each subcommand's post-run checks
//! and paper-comparison summaries — so a spec-driven `fig06` and the
//! `fig06` alias are the same run producing the same bytes. Loop scenarios
//! drive the epoch-loop runner; cluster scenarios hand their parsed
//! `ClusterConfig`, with `--epochs`/`--shards` written on, to the cluster
//! runtime, which validates it again.
//! Each writes a deterministic `<name>.csv` summary (no shard or
//! wall-clock columns, so the file is byte-identical at any parallelism —
//! that is what `asserts.invariant` diffs).

use mimo_core::decoupled::StaticDecoupled;
use mimo_core::engine::{rel_tracking_error, ReferenceStep};
use mimo_core::governor::fast_governor;
use mimo_core::optimizer::Metric;
use mimo_core::telemetry::TelemetryConfig;
use mimo_fleet::ClusterConfig;
use mimo_linalg::Vector;
use mimo_sim::InputSet;

use crate::experiments::{self, ExpConfig};
use crate::report::{self, ResultsDir};
use crate::runner::run_schedule;
use crate::setup;

use super::model::{GovernorKind, LoopSpec, OutputChannel, PaperExperiment, RunSpec, Scenario};

/// Ring capacity per core when `--trace` is on: enough to keep every
/// epoch of a CI-sized sweep and the recent tail of a full one.
const TRACE_CAPACITY: usize = 256;

/// CLI flags that override what a spec declares.
#[derive(Debug, Clone, Default)]
pub struct RunOverrides {
    /// `--epochs`: overrides the spec's epoch count (and gates off
    /// digest assertions recorded at a different count).
    pub epochs: Option<usize>,
    /// `--shards`: overrides a cluster spec's shard count.
    pub shards: Option<usize>,
    /// `--trace`: JSONL telemetry path (fault-sweep only).
    pub trace: Option<String>,
}

/// What a run produced, for assertion checking.
struct Outcome {
    /// Effective epoch count (gates digest assertions).
    epochs: usize,
    /// Deterministic stats digest (cluster kind).
    digest: Option<u64>,
    /// Mean `[ips, power]` tracking error, percent.
    err_pct: Option<[f64; 2]>,
    /// Quarantined cores (cluster kind).
    quarantined: Option<usize>,
    /// CSVs this run wrote (relative names), for invariance diffing.
    csvs: Vec<String>,
}

/// Runs `spec` under `cfg`, then checks every assertion; assertion
/// failures are collected (not short-circuited) so one run reports every
/// broken expectation.
///
/// # Errors
///
/// The run's own failure, or the newline-joined list of failed
/// assertions.
pub fn run_spec(cfg: &ExpConfig, spec: &RunSpec, ov: &RunOverrides) -> Result<(), String> {
    let outcome = execute(cfg, spec, ov)?;
    check_asserts(cfg, spec, ov, &outcome)
}

fn execute(cfg: &ExpConfig, spec: &RunSpec, ov: &RunOverrides) -> Result<Outcome, String> {
    match &spec.scenario {
        Scenario::Paper(exp) => run_paper(cfg, *exp, ov).map(|()| Outcome {
            epochs: cfg.tracking_epochs,
            digest: None,
            err_pct: None,
            quarantined: None,
            csvs: Vec::new(),
        }),
        Scenario::Loop(l) => run_loop(cfg, &spec.name, l, ov),
        Scenario::Cluster(c) => run_cluster(cfg, &spec.name, c, ov),
    }
}

// ---------------------------------------------------------------------------
// Paper kind — the subcommands' own run paths
// ---------------------------------------------------------------------------

/// Dispatches a paper experiment, byte-identical to its subcommand.
fn run_paper(cfg: &ExpConfig, exp: PaperExperiment, ov: &RunOverrides) -> Result<(), String> {
    match exp {
        PaperExperiment::Fig06 => experiments::fig06(cfg).map(drop).map_err(|e| e.to_string()),
        PaperExperiment::Fig07 => experiments::fig07(cfg).map(drop).map_err(|e| e.to_string()),
        PaperExperiment::Fig08 => experiments::fig08(cfg).map(drop).map_err(|e| e.to_string()),
        PaperExperiment::Fig09 => run_fig09(cfg),
        PaperExperiment::Fig10 => run_fig10(cfg),
        PaperExperiment::Fig11 => experiments::fig11(cfg).map(drop).map_err(|e| e.to_string()),
        PaperExperiment::Fig12 => experiments::fig12(cfg).map(drop).map_err(|e| e.to_string()),
        PaperExperiment::TabOpt => run_tab_opt(cfg),
        PaperExperiment::FleetScale => run_fleet_scale(cfg),
        PaperExperiment::ClusterScale => run_cluster_scale(cfg, ov.shards),
        PaperExperiment::FaultSweep => run_fault_sweep(cfg, ov.trace.as_deref()),
    }
}

fn run_fig09(cfg: &ExpConfig) -> Result<(), String> {
    let r = experiments::optimization_experiment(cfg, InputSet::FreqCache, Metric::EnergyDelay)
        .map_err(|e| e.to_string())?;
    println!("paper: MIMO -16%, Heuristic -4%, Decoupled +3% | measured: MIMO {:+.1}%, Heuristic {:+.1}%, Decoupled {:+.1}%",
        (r.avg_mimo - 1.0) * 100.0, (r.avg_heuristic - 1.0) * 100.0,
        (r.avg_decoupled.unwrap_or(f64::NAN) - 1.0) * 100.0);
    Ok(())
}

fn run_fig10(cfg: &ExpConfig) -> Result<(), String> {
    let r = experiments::optimization_experiment(cfg, InputSet::FreqCacheRob, Metric::EnergyDelay)
        .map_err(|e| e.to_string())?;
    println!(
        "paper: MIMO -25%, Heuristic -12% | measured: MIMO {:+.1}%, Heuristic {:+.1}%",
        (r.avg_mimo - 1.0) * 100.0,
        (r.avg_heuristic - 1.0) * 100.0
    );
    Ok(())
}

fn run_tab_opt(cfg: &ExpConfig) -> Result<(), String> {
    let e = experiments::optimization_experiment(cfg, InputSet::FreqCache, Metric::Energy)
        .map_err(|e| e.to_string())?;
    let ed2 =
        experiments::optimization_experiment(cfg, InputSet::FreqCache, Metric::EnergyDelaySquared)
            .map_err(|e| e.to_string())?;
    let dec = |r: &experiments::OptResult| (r.avg_decoupled.unwrap_or(f64::NAN) - 1.0) * 100.0;
    println!("E    — paper: MIMO -9%, Heuristic -1%, Decoupled 0% | measured: {:+.1}% / {:+.1}% / {:+.1}%",
        (e.avg_mimo-1.0)*100.0, (e.avg_heuristic-1.0)*100.0, dec(&e));
    println!("E×D² — paper: MIMO -18%, Heuristic -7%, Decoupled -4% | measured: {:+.1}% / {:+.1}% / {:+.1}%",
        (ed2.avg_mimo-1.0)*100.0, (ed2.avg_heuristic-1.0)*100.0, dec(&ed2));
    Ok(())
}

fn run_fleet_scale(cfg: &ExpConfig) -> Result<(), String> {
    experiments::fleet_scale(cfg).map_err(|e| e.to_string())?;
    println!("done; {}", cfg.results.join("fleet_scale.csv").display());
    Ok(())
}

fn run_cluster_scale(cfg: &ExpConfig, shards: Option<usize>) -> Result<(), String> {
    let points = experiments::cluster_scale(cfg, shards).map_err(|e| e.to_string())?;
    for p in &points {
        if !p.digests.iter().all(|&(_, d)| d == p.digests[0].1) {
            return Err(format!(
                "shard count changed results at {} chips x {} cores: {:?}",
                p.stats.n_chips,
                p.stats.total_cores / p.stats.n_chips.max(1),
                p.digests
            ));
        }
    }
    println!("done; {}", cfg.results.join("cluster_scale.csv").display());
    Ok(())
}

fn run_fault_sweep(cfg: &ExpConfig, trace: Option<&str>) -> Result<(), String> {
    let telemetry = trace.map(|_| TelemetryConfig::trace(TRACE_CAPACITY));
    let (points, tele) =
        experiments::fault_sweep_traced(cfg, telemetry).map_err(|e| e.to_string())?;
    for p in &points {
        if p.fault_rate == 0.0 {
            if p.stats.fault_epochs != 0 {
                return Err(format!("zero-rate run faulted ({})", p.stats.policy));
            }
            if p.stats.quarantined_cores != 0 {
                return Err(format!(
                    "zero-rate run quarantined cores ({})",
                    p.stats.policy
                ));
            }
        }
    }
    if let Some(path) = trace {
        let tele = tele.ok_or("--trace enabled telemetry but the sweep returned none")?;
        tele.save_jsonl(path)
            .map_err(|e| format!("write JSONL trace: {e}"))?;
        println!(
            "wrote {path} ({} cores, {} quarantines)",
            tele.per_core.len(),
            tele.quarantines().len()
        );
    }
    println!("done; {}", cfg.results.join("fault_sweep.csv").display());
    Ok(())
}

// ---------------------------------------------------------------------------
// Loop kind
// ---------------------------------------------------------------------------

/// The reference schedule a loop spec's phases describe.
fn schedule(l: &LoopSpec) -> Vec<ReferenceStep> {
    l.phases
        .iter()
        .map(|p| ReferenceStep {
            epoch: p.epoch,
            targets: Vector::from_slice(&[p.ips, p.power]),
        })
        .collect()
}

fn run_loop(
    cfg: &ExpConfig,
    name: &str,
    l: &LoopSpec,
    ov: &RunOverrides,
) -> Result<Outcome, String> {
    let epochs = ov.epochs.unwrap_or(l.epochs);
    let mut gov = match l.governor {
        GovernorKind::Mimo => {
            let design = cfg
                .cache
                .design_mimo(l.input_set, l.seed)
                .map_err(|e| e.to_string())?;
            fast_governor(design.controller.clone())
        }
        GovernorKind::Decoupled => {
            let pair: StaticDecoupled = cfg
                .cache
                .decoupled_governor(l.seed)
                .and_then(|g| g.with_storage())
                .map_err(|e| e.to_string())?;
            Box::new(pair)
        }
    };
    let mut plant = setup::try_plant(&l.app, l.input_set, l.seed).map_err(|e| e.to_string())?;
    let trace = run_schedule(gov.as_mut(), &mut plant, &schedule(l), epochs);

    // Whole-run mean tracking error per channel.
    let mut total = [0.0f64; 2];
    for (y, r) in trace.outputs.iter().zip(&trace.references) {
        for (ch, acc) in total.iter_mut().enumerate() {
            *acc += rel_tracking_error(y[ch], r[ch]);
        }
    }
    let n = trace.outputs.len().max(1) as f64;
    let err_pct = [total[0] / n * 100.0, total[1] / n * 100.0];

    // Per-phase summary rows (only phases the run actually reached).
    let csv = format!("{name}.csv");
    if cfg.emit {
        let mut rows = Vec::new();
        for (i, phase) in l.phases.iter().enumerate() {
            if phase.epoch >= epochs {
                break;
            }
            let end = l
                .phases
                .get(i + 1)
                .map_or(epochs, |next| next.epoch.min(epochs));
            let span = &trace.outputs[phase.epoch..end];
            let mut mean = [0.0f64; 2];
            let mut err = [0.0f64; 2];
            for y in span {
                for ch in 0..2 {
                    mean[ch] += y[ch];
                    err[ch] +=
                        rel_tracking_error(y[ch], if ch == 0 { phase.ips } else { phase.power });
                }
            }
            let n = span.len().max(1) as f64;
            rows.push(vec![
                i.to_string(),
                phase.epoch.to_string(),
                end.to_string(),
                report::fmt(phase.ips, 4),
                report::fmt(phase.power, 4),
                report::fmt(mean[0] / n, 4),
                report::fmt(mean[1] / n, 4),
                report::fmt(err[0] / n * 100.0, 2),
                report::fmt(err[1] / n * 100.0, 2),
            ]);
        }
        let path = cfg
            .results
            .write_csv(
                &csv,
                &[
                    "phase",
                    "start_epoch",
                    "end_epoch",
                    "ref_ips",
                    "ref_power",
                    "mean_ips",
                    "mean_power",
                    "ips_err_pct",
                    "power_err_pct",
                ],
                &rows,
            )
            .map_err(|e| format!("write {csv}: {e}"))?;
        println!("wrote {}", path.display());
    }
    Ok(Outcome {
        epochs,
        digest: None,
        err_pct: Some(err_pct),
        quarantined: None,
        csvs: vec![csv],
    })
}

// ---------------------------------------------------------------------------
// Cluster kind
// ---------------------------------------------------------------------------

fn run_cluster(
    cfg: &ExpConfig,
    name: &str,
    cluster: &ClusterConfig,
    ov: &RunOverrides,
) -> Result<Outcome, String> {
    let mut cluster_cfg = cluster.clone();
    if let Some(epochs) = ov.epochs {
        cluster_cfg.epochs = epochs;
    }
    if let Some(shards) = ov.shards {
        cluster_cfg.shards = shards;
    }
    let design = cfg
        .cache
        .design_mimo(cluster_cfg.input_set, cluster_cfg.seed)
        .map_err(|e| e.to_string())?;
    let epochs = cluster_cfg.epochs;
    let stats = mimo_fleet::ClusterRunner::with_shared_controller(cluster_cfg, &design.controller)
        .and_then(mimo_fleet::ClusterRunner::run)
        .map_err(|e| e.to_string())?;
    let digest = stats.digest();

    let csv = format!("{name}.csv");
    if cfg.emit {
        // No shards or wall-clock columns: the file must be
        // byte-identical across re-runs (asserts.invariant diffs it).
        let row = vec![
            stats.n_chips.to_string(),
            (stats.total_cores / stats.n_chips.max(1)).to_string(),
            stats.total_cores.to_string(),
            stats.epochs.to_string(),
            stats.exchange_period.to_string(),
            stats.exchanges.to_string(),
            stats.rebudget_moves.to_string(),
            report::fmt(stats.agg_ips_err_pct, 2),
            report::fmt(stats.agg_power_err_pct, 2),
            report::fmt(stats.avg_cluster_power_w, 3),
            report::fmt(stats.peak_window_power_w, 3),
            report::fmt(stats.cluster_cap_w, 3),
            stats.quarantined_cores.to_string(),
            stats.fault_epochs.to_string(),
            format!("{digest:016x}"),
        ];
        let path = cfg
            .results
            .write_csv(
                &csv,
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
                    "quarantined",
                    "fault_epochs",
                    "digest",
                ],
                &[row],
            )
            .map_err(|e| format!("write {csv}: {e}"))?;
        println!("wrote {}", path.display());
    }
    Ok(Outcome {
        epochs,
        digest: Some(digest),
        err_pct: Some([stats.agg_ips_err_pct, stats.agg_power_err_pct]),
        quarantined: Some(stats.quarantined_cores),
        csvs: vec![csv],
    })
}

// ---------------------------------------------------------------------------
// Assertions
// ---------------------------------------------------------------------------

fn check_asserts(
    cfg: &ExpConfig,
    spec: &RunSpec,
    ov: &RunOverrides,
    outcome: &Outcome,
) -> Result<(), String> {
    let a = &spec.asserts;
    let mut failures = Vec::new();
    let mut checked = 0usize;
    let mut skipped = 0usize;

    for csv in &a.csv {
        checked += 1;
        let path = cfg.results.join(csv);
        if !path.is_file() {
            failures.push(format!("asserts.csv: {} was not produced", path.display()));
        }
    }

    for d in &a.digest {
        if outcome.epochs != d.epochs {
            skipped += 1; // recorded at a different epoch count
            continue;
        }
        checked += 1;
        match outcome.digest {
            Some(got) if got == d.value => {}
            Some(got) => failures.push(format!(
                "asserts.digest: expected {:016x} at {} epochs, got {got:016x}",
                d.value, d.epochs
            )),
            None => failures.push("asserts.digest: this scenario kind has no digest".into()),
        }
    }

    for t in &a.tracking_error {
        if t.epochs.is_some_and(|e| e != outcome.epochs) {
            skipped += 1;
            continue;
        }
        checked += 1;
        let ch = match t.output {
            OutputChannel::Ips => 0,
            OutputChannel::Power => 1,
        };
        match outcome.err_pct {
            Some(err) if err[ch] <= t.max_pct => {}
            Some(err) => failures.push(format!(
                "asserts.tracking_error: {} error {:.2}% exceeds max_pct {}",
                t.output.name(),
                err[ch],
                t.max_pct
            )),
            None => failures.push("asserts.tracking_error: this scenario kind reports none".into()),
        }
    }

    if let Some(q) = &a.quarantined {
        if q.epochs.is_some_and(|e| e != outcome.epochs) {
            skipped += 1;
        } else {
            checked += 1;
            match outcome.quarantined {
                Some(n) if n >= q.min && n <= q.max => {}
                Some(n) => failures.push(format!(
                    "asserts.quarantined: {n} quarantined cores outside [{}, {}]",
                    q.min,
                    if q.max == usize::MAX {
                        "inf".to_string()
                    } else {
                        q.max.to_string()
                    }
                )),
                None => {
                    failures.push("asserts.quarantined: this scenario kind reports none".into())
                }
            }
        }
    }

    if let Some(inv) = &a.invariant {
        match check_invariance(cfg, spec, ov, outcome, &inv.jobs, &inv.shards) {
            Ok(n) => checked += n,
            Err(msg) => failures.push(msg),
        }
    }

    if cfg.emit && failures.is_empty() {
        println!(
            "asserts: {checked} passed{}",
            if skipped > 0 {
                format!(", {skipped} skipped (epoch-gated)")
            } else {
                String::new()
            }
        );
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Re-runs the scenario at each listed worker/shard count into a scratch
/// results directory and byte-compares the produced CSVs against the base
/// run's. Returns the number of comparisons performed.
fn check_invariance(
    cfg: &ExpConfig,
    spec: &RunSpec,
    ov: &RunOverrides,
    outcome: &Outcome,
    jobs: &[usize],
    shards: &[usize],
) -> Result<usize, String> {
    // Which files to diff: the scenario's own CSV plus any asserted ones.
    let mut files: Vec<&str> = outcome.csvs.iter().map(String::as_str).collect();
    for csv in &spec.asserts.csv {
        if !files.contains(&csv.as_str()) {
            files.push(csv);
        }
    }
    if files.is_empty() {
        return Err("asserts.invariant: nothing to diff — list the CSVs in asserts.csv".into());
    }

    let scratch_root = cfg.results.join(".spec-invariant");
    let mut comparisons = 0usize;
    let variants = jobs
        .iter()
        .map(|&n| ("jobs", n))
        .chain(shards.iter().map(|&n| ("shards", n)));
    let mut result = Ok(());
    'outer: for (param, n) in variants {
        let scratch = scratch_root.join(format!("{}-{param}{n}", spec.name));
        let mut cfg2 = cfg.clone();
        cfg2.results = ResultsDir::new(&scratch);
        let mut ov2 = ov.clone();
        match (&spec.scenario, param) {
            (Scenario::Paper(_), "jobs") => cfg2.jobs = n,
            (Scenario::Paper(_) | Scenario::Cluster(_), _) => ov2.shards = Some(n),
            // One thread steps a loop; the re-run checks run-to-run
            // determinism.
            (Scenario::Loop(_), _) => {}
        }
        if let Err(e) = execute(&cfg2, spec, &ov2) {
            result = Err(format!(
                "asserts.invariant: re-run at {param}={n} failed: {e}"
            ));
            break;
        }
        for file in &files {
            comparisons += 1;
            let base = std::fs::read(cfg.results.join(file));
            let variant = std::fs::read(scratch.join(file));
            match (base, variant) {
                (Ok(a), Ok(b)) if a == b => {}
                (Ok(_), Ok(_)) => {
                    result = Err(format!(
                        "asserts.invariant: {file} differs at {param}={n} (must be byte-identical)"
                    ));
                    break 'outer;
                }
                (Err(e), _) => {
                    result = Err(format!("asserts.invariant: read base {file}: {e}"));
                    break 'outer;
                }
                (_, Err(e)) => {
                    result = Err(format!(
                        "asserts.invariant: re-run at {param}={n} produced no {file}: {e}"
                    ));
                    break 'outer;
                }
            }
        }
    }
    // Scratch runs are throwaway; never leave them in the results dir.
    let _ = std::fs::remove_dir_all(&scratch_root);
    result.map(|()| comparisons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_str;

    #[test]
    fn loop_schedule_follows_the_phases() {
        let spec = parse_str(
            "schema = 1\nname = \"x\"\nkind = \"loop\"\n[loop]\napp = \"astar\"\nepochs = 10\n\
             [[loop.phases]]\nepoch = 0\nips = 3.0\npower = 1.9\n\
             [[loop.phases]]\nepoch = 5\nips = 2.0\npower = 1.2\n",
        )
        .unwrap();
        let Scenario::Loop(l) = &spec.scenario else {
            panic!("{:?}", spec.scenario)
        };
        let sched = schedule(l);
        assert_eq!(sched.len(), 2);
        assert_eq!(sched[1].epoch, 5);
        assert_eq!(sched[1].targets[1], 1.2);
    }
}
