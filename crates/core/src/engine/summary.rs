//! Epoch-history metrics shared by every driver.
//!
//! The experiment runners and the fleet runtime both reduce per-epoch
//! histories to the paper's metrics — average tracking error after
//! warm-up, steady-state epochs, final-window means. Centralizing the
//! arithmetic keeps the reductions bit-identical across drivers.

use mimo_linalg::Vector;

/// Epochs discarded from the front of a run when computing averages
/// (controller warm-up) in the experiment drivers.
pub const WARMUP_EPOCHS: usize = 200;

/// Warm-up epochs excluded from fleet tracking-error accumulation while
/// the per-core loops converge onto their references: a fifth of the run,
/// capped at 200 epochs.
pub fn fleet_warmup(total_epochs: usize) -> usize {
    (total_epochs / 5).min(200)
}

/// Relative tracking error `|y − r| / |r|`, guarded against degenerate
/// references.
///
/// For a healthy positive reference this is bit-identical to the naive
/// `((y − r) / r).abs()`. The guards only engage at the edges:
///
/// * non-finite measurement or reference → `1.0` (a full miss, instead of
///   letting a NaN poison every downstream average);
/// * `|r| ≤ 1e-9` (a zero reference, e.g. an idle core assigned no IPS
///   share) → `0.0` when the measurement matches to the same tolerance,
///   `1.0` otherwise — a defined value instead of dividing by zero.
pub fn rel_tracking_error(y: f64, r: f64) -> f64 {
    if !y.is_finite() || !r.is_finite() {
        return 1.0;
    }
    if r.abs() <= 1e-9 {
        return if (y - r).abs() <= 1e-9 { 0.0 } else { 1.0 };
    }
    ((y - r) / r).abs()
}

/// Tracking-run metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackingStats {
    /// Average |y − y₀| / y₀ per output, in percent, after warm-up.
    pub avg_err_pct: Vec<f64>,
    /// Epochs until each *input* last changed by more than one grid step
    /// (the paper's "epochs to achieve steady state" per input); `None`
    /// if the input never settles.
    pub steady_epoch: Vec<Option<usize>>,
    /// Mean outputs over the final quarter of the run.
    pub final_outputs: Vector,
    /// Recorded output trace (per epoch) when requested.
    pub trace: Option<Vec<Vector>>,
}

/// Reduces recorded input/output histories to [`TrackingStats`] against
/// fixed `targets`.
pub fn summarize(
    u_hist: &[Vector],
    y_hist: &[Vector],
    targets: &Vector,
    grids: &[Vec<f64>],
    keep_trace: bool,
) -> TrackingStats {
    let epochs = y_hist.len();
    let o = targets.len();
    let warm = WARMUP_EPOCHS.min(epochs / 4);

    let mut avg_err_pct = vec![0.0; o];
    let mut n = 0usize;
    for y in &y_hist[warm..] {
        for c in 0..o {
            avg_err_pct[c] += rel_tracking_error(y[c], targets[c]) * 100.0;
        }
        n += 1;
    }
    for e in &mut avg_err_pct {
        *e /= n.max(1) as f64;
    }

    // Steady-state epoch per input: last time the input moved by more than
    // one grid step from its final value.
    let n_inputs = grids.len();
    let mut steady_epoch = vec![None; n_inputs];
    if let Some(last_u) = u_hist.last() {
        for i in 0..n_inputs {
            let step = grid_step(&grids[i]);
            let final_v = last_u[i];
            let mut last_move = 0usize;
            for (t, u) in u_hist.iter().enumerate() {
                if (u[i] - final_v).abs() > step * 1.01 {
                    last_move = t + 1;
                }
            }
            // The input never settles if it was still away from its final
            // value in the last tenth of the run.
            steady_epoch[i] = if last_move < epochs.saturating_sub(epochs / 10) {
                Some(last_move)
            } else {
                None
            };
        }
    }

    // Mean over the final quarter; an empty run has no final window (the
    // unguarded `epochs - quarter` underflowed when epochs == 0).
    let quarter = (epochs / 4).max(1).min(epochs);
    let mut final_outputs = Vector::zeros(o);
    for y in &y_hist[epochs - quarter..] {
        final_outputs += y;
    }
    if quarter > 0 {
        final_outputs = final_outputs.scale(1.0 / quarter as f64);
    }

    TrackingStats {
        avg_err_pct,
        steady_epoch,
        final_outputs,
        trace: keep_trace.then(|| y_hist.to_vec()),
    }
}

/// The smallest spacing of a sorted actuator grid (floored at `1e-9` so a
/// duplicate-valued grid cannot yield a zero step).
pub fn grid_step(grid: &[f64]) -> f64 {
    grid.windows(2)
        .map(|w| w[1] - w[0])
        .fold(f64::INFINITY, f64::min)
        .max(1e-9)
}

/// Streaming per-channel tracking-error accumulator with a warm-up window,
/// as used by the fleet runtime: epochs before `warmup` advance the clock
/// but contribute no error samples.
#[derive(Debug, Clone)]
pub struct TrackingErrorAccumulator {
    epoch: usize,
    warmup: usize,
    sums: Vec<f64>,
    samples: u64,
}

impl TrackingErrorAccumulator {
    /// Creates an accumulator over `channels` outputs that ignores the
    /// first `warmup` recorded epochs.
    pub fn new(channels: usize, warmup: usize) -> Self {
        TrackingErrorAccumulator {
            epoch: 0,
            warmup,
            sums: vec![0.0; channels],
            samples: 0,
        }
    }

    /// Records one epoch's measurement against the reference in force.
    ///
    /// # Panics
    ///
    /// Panics if `y` or `target` has fewer channels than the accumulator.
    pub fn record(&mut self, y: &Vector, target: &Vector) {
        self.record_slices(y.as_slice(), target.as_slice());
    }

    /// [`TrackingErrorAccumulator::record`] over plain slices, for
    /// callers that keep the reference in a flat table.
    ///
    /// # Panics
    ///
    /// Panics if `y` or `target` has fewer channels than the accumulator.
    pub fn record_slices(&mut self, y: &[f64], target: &[f64]) {
        if self.epoch >= self.warmup {
            for c in 0..self.sums.len() {
                self.sums[c] += rel_tracking_error(y[c], target[c]);
            }
            self.samples += 1;
        }
        self.epoch += 1;
    }

    /// Average tracking error for `channel`, in percent, over the recorded
    /// post-warm-up epochs (0 when nothing was recorded).
    pub fn avg_pct(&self, channel: usize) -> f64 {
        100.0 * self.sums[channel] / self.samples.max(1) as f64
    }

    /// Post-warm-up epochs recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_error_matches_naive_for_positive_refs() {
        for (y, r) in [(2.3, 2.5), (0.0, 1.9), (5.0, 0.1), (1.0, 1.0)] {
            assert_eq!(
                rel_tracking_error(y, r).to_bits(),
                ((y - r) / r).abs().to_bits()
            );
        }
    }

    #[test]
    fn rel_error_guards_zero_reference() {
        assert_eq!(rel_tracking_error(0.0, 0.0), 0.0);
        assert_eq!(rel_tracking_error(5e-10, 0.0), 0.0);
        assert_eq!(rel_tracking_error(1.0, 0.0), 1.0);
        assert_eq!(rel_tracking_error(1.0, 5e-10), 1.0);
    }

    #[test]
    fn rel_error_guards_non_finite_values() {
        assert_eq!(rel_tracking_error(f64::NAN, 2.0), 1.0);
        assert_eq!(rel_tracking_error(2.0, f64::NAN), 1.0);
        assert_eq!(rel_tracking_error(f64::INFINITY, 2.0), 1.0);
        assert_eq!(rel_tracking_error(2.0, f64::NEG_INFINITY), 1.0);
    }

    #[test]
    fn fleet_warmup_is_a_capped_fifth() {
        assert_eq!(fleet_warmup(0), 0);
        assert_eq!(fleet_warmup(100), 20);
        assert_eq!(fleet_warmup(10_000), 200);
    }

    #[test]
    fn accumulator_skips_warmup_and_averages() {
        let mut acc = TrackingErrorAccumulator::new(2, 2);
        let target = Vector::from_slice(&[2.0, 1.0]);
        // Two warm-up epochs: huge errors that must not count.
        acc.record(&Vector::from_slice(&[20.0, 10.0]), &target);
        acc.record(&Vector::from_slice(&[20.0, 10.0]), &target);
        assert_eq!(acc.samples(), 0);
        assert_eq!(acc.avg_pct(0), 0.0);
        // Two counted epochs at 50% / 100% error.
        acc.record(&Vector::from_slice(&[1.0, 2.0]), &target);
        acc.record(&Vector::from_slice(&[3.0, 0.0]), &target);
        assert_eq!(acc.samples(), 2);
        assert!((acc.avg_pct(0) - 50.0).abs() < 1e-12);
        assert!((acc.avg_pct(1) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_handles_empty_history() {
        let targets = Vector::from_slice(&[2.5, 2.0]);
        let grids = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let stats = summarize(&[], &[], &targets, &grids, true);
        assert_eq!(stats.avg_err_pct, vec![0.0, 0.0]);
        assert_eq!(stats.steady_epoch, vec![None, None]);
        assert_eq!(stats.final_outputs, Vector::zeros(2));
        assert_eq!(stats.trace, Some(vec![]));
    }

    #[test]
    fn grid_step_floors_at_epsilon() {
        assert_eq!(grid_step(&[1.0, 1.0, 1.0]), 1e-9);
        assert!((grid_step(&[0.5, 0.6, 0.8]) - 0.1).abs() < 1e-12);
    }
}
