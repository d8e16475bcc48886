//! Epoch-loop drivers and metrics.
//!
//! Three drivers, matching the paper's three controller uses (§V):
//!
//! * [`run_tracking`] — fixed references (§VIII-D, Figures 6, 8, 11).
//! * [`run_schedule`] — time-varying references (§VIII-E, Figure 12).
//! * [`run_optimization`] — optimizer-driven E·D^(k−1) minimization
//!   (§VIII-F/G, Figures 9, 10).
//!
//! Every driver is a thin configuration of the shared
//! [`mimo_core::engine::EpochLoop`]: the engine owns the epoch cadence
//! (decide → apply → record), history recording, and the
//! [`TrackingStats`] reduction, so the drivers differ only in how they
//! retarget the governor and when they stop.

use mimo_core::engine::{rel_tracking_error, EpochLoop, ScheduleCursor};
use mimo_core::governor::Governor;
use mimo_core::optimizer::{Metric, Optimizer, MAX_TRIES};
use mimo_linalg::Vector;
use mimo_sim::{Plant, PlantConfig, Processor};

pub use mimo_core::engine::{ReferenceStep, TrackingStats};

/// Drives `gov` against `plant` toward fixed `targets` for `epochs`.
pub fn run_tracking(
    gov: &mut dyn Governor,
    plant: &mut Processor,
    targets: &Vector,
    epochs: usize,
    keep_trace: bool,
) -> TrackingStats {
    let mut lp = EpochLoop::new(gov, plant);
    lp.set_targets(targets);
    lp.prime();
    lp.record_history(epochs);
    for _ in 0..epochs {
        lp.step();
    }
    lp.summarize(targets, keep_trace)
}

/// Time-varying-run result: the full output trace plus the reference
/// applied at each epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleTrace {
    /// Measured outputs per epoch.
    pub outputs: Vec<Vector>,
    /// Reference in force per epoch.
    pub references: Vec<Vector>,
}

impl ScheduleTrace {
    /// Mean |IPS − IPS₀| / IPS₀ over the run, in percent.
    ///
    /// Degenerate references (zero or non-finite IPS targets) contribute
    /// a defined per-epoch error via
    /// [`mimo_core::engine::rel_tracking_error`] instead of a NaN or
    /// infinity that would poison the mean.
    pub fn ips_tracking_error_pct(&self) -> f64 {
        let mut acc = 0.0;
        for (y, r) in self.outputs.iter().zip(&self.references) {
            acc += rel_tracking_error(y[0], r[0]);
        }
        acc / self.outputs.len().max(1) as f64 * 100.0
    }
}

/// Drives `gov` through a piecewise-constant reference schedule (§VIII-E).
pub fn run_schedule(
    gov: &mut dyn Governor,
    plant: &mut Processor,
    schedule: &[ReferenceStep],
    epochs: usize,
) -> ScheduleTrace {
    let mut cursor = ScheduleCursor::new(schedule);
    let mut lp = EpochLoop::new(gov, plant);
    lp.prime();
    lp.record_history(epochs);
    let mut references = Vec::with_capacity(epochs);
    lp.set_targets(cursor.current());
    for t in 0..epochs {
        let targets = cursor.advance(t, |step| lp.set_targets(step));
        lp.step();
        references.push(targets.clone());
    }
    let (_, outputs) = lp.into_histories();
    ScheduleTrace {
        outputs,
        references,
    }
}

/// Optimization-run result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizationStats {
    /// `E·D^(k−1)` per billion instructions over the run.
    pub ed_product: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Total time in seconds.
    pub time_s: f64,
    /// Instructions executed, billions.
    pub instructions_g: f64,
}

/// Epochs the tracking loop is given to converge on each optimizer trial.
const CONVERGE_EPOCHS: usize = 200;
/// Epochs averaged to score a trial.
const SCORE_EPOCHS: usize = 80;

/// Runs a *tracking* governor (MIMO or Decoupled) under the §V optimizer
/// until `budget_g` billions of instructions complete; returns the
/// energy/delay metrics for the executed work.
pub fn run_optimization(
    gov: &mut dyn Governor,
    plant: &mut Processor,
    metric: Metric,
    budget_g: f64,
) -> OptimizationStats {
    // §VI-B: every search starts from the midrange configuration.
    let mid = PlantConfig::midrange();
    let mut last = [0.0f64; 2];
    for _ in 0..SCORE_EPOCHS {
        let obs = plant.step_config(mid);
        last = [obs.ips_bips, obs.power_w];
    }
    let [start_ips, start_p] = last;
    let y = Vector::from_slice(&last);
    let mut opt = Optimizer::new(metric, start_ips, start_p, MAX_TRIES);

    let mut lp = EpochLoop::new(gov, plant);
    lp.seed_outputs(&y);
    // The one target vector every trial and restart refills.
    let mut target = Vector::from_slice(&opt.targets());
    lp.set_targets(&target);

    // The scoring window as a running sum of [IPS, power] and a count:
    // added from zero in epoch order and scaled once, as averaging the
    // stored window would, so the score is the same to the bit and the
    // window allocates nothing.
    let mut window_sum = [0.0f64; 2];
    let mut window_len = 0usize;
    let mut epochs_on_trial = 0usize;
    while lp.plant().totals().instructions_g < budget_g {
        // `EpochLoop::step` reads the same flag internally; the plant does
        // not advance in between, so both reads agree.
        let phase_changed = lp.plant().phase_changed();
        if phase_changed && opt.is_done() {
            // §V: a new search starts when the application changes phases.
            let y = lp.outputs();
            opt.restart(y[0], y[1]);
            target.as_mut_slice().copy_from_slice(&opt.targets());
            lp.set_targets(&target);
            epochs_on_trial = 0;
            window_sum = [0.0; 2];
            window_len = 0;
        }
        lp.step();
        epochs_on_trial += 1;
        if !opt.is_done() {
            if epochs_on_trial > CONVERGE_EPOCHS - SCORE_EPOCHS {
                let y = lp.outputs();
                window_sum[0] += y[0];
                window_sum[1] += y[1];
                window_len += 1;
            }
            if epochs_on_trial >= CONVERGE_EPOCHS {
                let scale = 1.0 / window_len.max(1) as f64;
                // Past its last trial the search holds the best point found.
                let next = opt
                    .observe(window_sum[0] * scale, window_sum[1] * scale)
                    .unwrap_or_else(|| opt.targets());
                target.as_mut_slice().copy_from_slice(&next);
                lp.set_targets(&target);
                window_sum = [0.0; 2];
                window_len = 0;
                epochs_on_trial = 0;
            }
        }
    }
    stats_from(lp.plant(), metric)
}

/// Runs a self-contained governor (Baseline, or the Heuristic's own
/// optimization search) until the instruction budget completes.
pub fn run_self_directed(
    gov: &mut dyn Governor,
    plant: &mut Processor,
    metric: Metric,
    budget_g: f64,
) -> OptimizationStats {
    let mut lp = EpochLoop::new(gov, plant);
    lp.prime();
    while lp.plant().totals().instructions_g < budget_g {
        lp.step();
    }
    stats_from(lp.plant(), metric)
}

fn stats_from(plant: &Processor, metric: Metric) -> OptimizationStats {
    let t = plant.totals();
    OptimizationStats {
        ed_product: t.energy_delay_product(metric.exponent() as u32),
        energy_j: t.energy_j,
        time_s: t.time_s,
        instructions_g: t.instructions_g,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup;
    use mimo_core::governor::{FixedGovernor, MimoGovernor};
    use mimo_sim::InputSet;

    #[test]
    fn tracking_zero_epochs_returns_zeroed_stats() {
        // Regression: summarize() used to underflow on an empty history.
        let mut gov = FixedGovernor::new(Vector::from_slice(&[1.3, 6.0]));
        let mut plant = setup::plant("namd", InputSet::FreqCache, 1);
        let targets = Vector::from_slice(&[2.5, 2.0]);
        let stats = run_tracking(&mut gov, &mut plant, &targets, 0, true);
        assert_eq!(stats.avg_err_pct, vec![0.0, 0.0]);
        assert_eq!(stats.final_outputs, Vector::zeros(2));
        assert_eq!(stats.steady_epoch, vec![None, None]);
        assert_eq!(stats.trace, Some(vec![]));
    }

    #[test]
    fn tracking_single_epoch_is_finite() {
        let mut gov = FixedGovernor::new(Vector::from_slice(&[1.3, 6.0]));
        let mut plant = setup::plant("astar", InputSet::FreqCache, 2);
        let targets = Vector::from_slice(&[2.5, 2.0]);
        let stats = run_tracking(&mut gov, &mut plant, &targets, 1, false);
        assert!(stats.avg_err_pct.iter().all(|e| e.is_finite()));
        // The single observed epoch is the "final quarter".
        assert!(stats.final_outputs[0] > 0.0);
        assert!(stats.final_outputs[1] > 0.0);
    }

    #[test]
    fn tracking_shorter_than_warmup_still_averages() {
        // Fewer epochs than WARMUP_EPOCHS: the warm-up window shrinks to a
        // quarter of the run instead of swallowing it whole.
        let mut gov = FixedGovernor::new(Vector::from_slice(&[1.3, 6.0]));
        let mut plant = setup::plant("namd", InputSet::FreqCache, 3);
        let targets = Vector::from_slice(&[2.5, 2.0]);
        let stats = run_tracking(&mut gov, &mut plant, &targets, 40, false);
        assert!(stats.avg_err_pct.iter().all(|e| e.is_finite() && *e > 0.0));
    }

    #[test]
    fn tracking_with_fixed_governor_reports_errors() {
        let mut gov = FixedGovernor::new(Vector::from_slice(&[1.3, 6.0]));
        let mut plant = setup::plant("namd", InputSet::FreqCache, 1);
        let targets = Vector::from_slice(&[2.5, 2.0]);
        let stats = run_tracking(&mut gov, &mut plant, &targets, 800, false);
        assert_eq!(stats.avg_err_pct.len(), 2);
        assert!(stats.avg_err_pct[0] > 0.0);
        // Fixed inputs settle immediately.
        assert_eq!(stats.steady_epoch, vec![Some(0), Some(0)]);
        assert!(stats.trace.is_none());
    }

    #[test]
    fn mimo_tracking_beats_fixed_on_namd() {
        let mut mimo = MimoGovernor::new(
            setup::design_mimo(InputSet::FreqCache, 2)
                .unwrap()
                .controller,
        );
        let mut plant = setup::plant("namd", InputSet::FreqCache, 3);
        let targets = Vector::from_slice(&[2.5, 2.0]);
        let mimo_stats = run_tracking(&mut mimo, &mut plant, &targets, 3000, false);

        let mut fixed = FixedGovernor::new(Vector::from_slice(&[1.0, 4.0]));
        let mut plant2 = setup::plant("namd", InputSet::FreqCache, 3);
        let fixed_stats = run_tracking(&mut fixed, &mut plant2, &targets, 3000, false);

        let mimo_total: f64 = mimo_stats.avg_err_pct.iter().sum();
        let fixed_total: f64 = fixed_stats.avg_err_pct.iter().sum();
        assert!(
            mimo_total < fixed_total,
            "MIMO {mimo_stats:?} vs fixed {fixed_stats:?}"
        );
        // MIMO should track power well on a responsive app.
        assert!(
            mimo_stats.avg_err_pct[1] < 12.0,
            "power error {:?}",
            mimo_stats.avg_err_pct
        );
    }

    #[test]
    fn schedule_switches_references() {
        let mut gov = FixedGovernor::new(Vector::from_slice(&[1.3, 6.0]));
        let mut plant = setup::plant("astar", InputSet::FreqCache, 4);
        let schedule = vec![
            ReferenceStep {
                epoch: 0,
                targets: Vector::from_slice(&[2.0, 1.5]),
            },
            ReferenceStep {
                epoch: 50,
                targets: Vector::from_slice(&[1.0, 1.0]),
            },
        ];
        let trace = run_schedule(&mut gov, &mut plant, &schedule, 100);
        assert_eq!(trace.outputs.len(), 100);
        assert_eq!(trace.references[0][0], 2.0);
        assert_eq!(trace.references[99][0], 1.0);
        assert!(trace.ips_tracking_error_pct() >= 0.0);
    }

    #[test]
    fn schedule_error_is_defined_for_degenerate_references() {
        // A zero or non-finite reference must not turn the mean into
        // NaN/inf; each such epoch contributes a bounded error instead.
        let mk = |ips: f64| ScheduleTrace {
            outputs: vec![Vector::from_slice(&[2.0, 1.0]); 4],
            references: vec![Vector::from_slice(&[ips, 1.0]); 4],
        };
        assert_eq!(mk(0.0).ips_tracking_error_pct(), 100.0);
        assert_eq!(mk(f64::NAN).ips_tracking_error_pct(), 100.0);
        assert_eq!(mk(f64::INFINITY).ips_tracking_error_pct(), 100.0);
        // Healthy references are unchanged: |2 − 4| / 4 = 50%.
        assert_eq!(mk(4.0).ips_tracking_error_pct(), 50.0);
        // An empty trace reports zero error, not 0/0.
        let empty = ScheduleTrace {
            outputs: vec![],
            references: vec![],
        };
        assert_eq!(empty.ips_tracking_error_pct(), 0.0);
    }

    #[test]
    fn optimization_run_consumes_budget() {
        let mut gov = MimoGovernor::new(
            setup::design_mimo(InputSet::FreqCache, 5)
                .unwrap()
                .controller,
        );
        let mut plant = setup::plant("gamess", InputSet::FreqCache, 6);
        let stats = run_optimization(&mut gov, &mut plant, Metric::EnergyDelay, 0.05);
        assert!(stats.instructions_g >= 0.05);
        assert!(stats.ed_product.is_finite() && stats.ed_product > 0.0);
        assert!(stats.energy_j > 0.0 && stats.time_s > 0.0);
    }
}
