//! The Heuristic baseline (Table IV): a sophisticated rule-based
//! controller in the style of Zhang & Hoffmann \[41\] and Isci et al. \[8\].
//!
//! Two stages, as §VII-C describes:
//!
//! 1. **Feature ranking** — the adaptive features (frequency, cache, ROB)
//!    are ranked by their profiled impact on each output.
//! 2. **Threshold rules** — for tracking, the controller compares each
//!    output with its reference and steps the ranked features using
//!    experimentally tuned thresholds; for optimization, it runs an
//!    iterative per-feature search (in rank order) over a bounded number
//!    of trials.
//!
//! Thresholds and dwell constants are tuned offline on the training set —
//! and, unlike MIMO's weights, they do not adapt at runtime, which is
//! exactly the weakness the paper's evaluation exposes.

use mimo_linalg::Vector;
use mimo_sim::Plant;

use crate::governor::Governor;
use crate::optimizer::Metric;

/// Profiled sensitivity of each output to each input.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRanking {
    /// |ΔIPS| / IPS when the input sweeps min→max, per input.
    pub perf_impact: Vec<f64>,
    /// |Δpower| / power when the input sweeps min→max, per input.
    pub power_impact: Vec<f64>,
    /// Input indices ordered by combined impact, highest first.
    pub order: Vec<usize>,
}

impl SensitivityRanking {
    /// Inputs ranked by performance impact, highest first.
    pub fn perf_order(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.perf_impact.len()).collect();
        idx.sort_by(|&a, &b| self.perf_impact[b].total_cmp(&self.perf_impact[a]));
        idx
    }

    /// Inputs ranked by power impact, highest first.
    pub fn power_order(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.power_impact.len()).collect();
        idx.sort_by(|&a, &b| self.power_impact[b].total_cmp(&self.power_impact[a]));
        idx
    }

    /// A canned ranking for when profiling is impossible — e.g. installing
    /// a fallback governor on a live, quarantined core. Frequency (input 0)
    /// is assumed dominant, with the remaining knobs in index order; that
    /// matches what [`profile_sensitivity`] measures on every training
    /// workload for the paper's input sets.
    pub fn frequency_first(num_inputs: usize) -> Self {
        let impact: Vec<f64> = (0..num_inputs).map(|i| 1.0 / (i + 1) as f64).collect();
        SensitivityRanking {
            perf_impact: impact.clone(),
            power_impact: impact,
            order: (0..num_inputs).collect(),
        }
    }
}

/// Profiles a plant's input sensitivities by sweeping each input from min
/// to max with the others pinned at midrange, dwelling `settle` epochs at
/// each end (like the ranking step of \[8\]).
///
/// # Panics
///
/// Panics if the plant reports an empty actuator grid (every real
/// actuator has at least one setting).
pub fn profile_sensitivity<P: Plant + ?Sized>(plant: &mut P, settle: usize) -> SensitivityRanking {
    let grids = plant.input_grids();
    let n = grids.len();
    let mid: Vec<f64> = grids.iter().map(|g| g[g.len() / 2]).collect();
    let mut perf_impact = vec![0.0; n];
    let mut power_impact = vec![0.0; n];

    let measure = |plant: &mut P, u: &Vector| -> (f64, f64) {
        let mut acc = Vector::zeros(2);
        for _ in 0..settle {
            let _ = plant.apply(u);
        }
        let reps = settle.max(1);
        for _ in 0..reps {
            let y = plant.apply(u);
            acc += &y;
        }
        (acc[0] / reps as f64, acc[1] / reps as f64)
    };

    for i in 0..n {
        plant.reset();
        let mut u_lo = Vector::from_slice(&mid);
        u_lo[i] = grids[i][0];
        let (ips_lo, p_lo) = measure(plant, &u_lo);
        let mut u_hi = Vector::from_slice(&mid);
        // input_grids() never returns empty grids (every actuator has at
        // least one setting), so the last element exists.
        u_hi[i] = grids[i][grids[i].len() - 1];
        let (ips_hi, p_hi) = measure(plant, &u_hi);
        perf_impact[i] = (ips_hi - ips_lo).abs() / ips_lo.max(1e-9);
        power_impact[i] = (p_hi - p_lo).abs() / p_lo.max(1e-9);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ca = perf_impact[a] + power_impact[a];
        let cb = perf_impact[b] + power_impact[b];
        cb.total_cmp(&ca)
    });
    SensitivityRanking {
        perf_impact,
        power_impact,
        order,
    }
}

/// Relative error deadband before the tracker acts (tuned on the training
/// set).
const TRACK_DEADBAND: f64 = 0.04;
/// Epochs averaged between tracker actions. Rule-based managers act on
/// coarse OS-like periods, far slower than the 50 µs MIMO loop.
const TRACK_WINDOW: usize = 25;
/// Epochs spent re-classifying the application after a phase change.
const CLASSIFY_EPOCHS: usize = 20;
/// Training-set-calibrated efficiency cutoff (BIPS per watt at the probe
/// configuration) separating "compute" from "memory-bound" classes. Like
/// every statically tuned threshold, it misclassifies production apps
/// whose miss behavior differs from the training set — the paper's
/// perlbench/dealII failure mode.
const CLASS_CUTOFF_BIPS_PER_W: f64 = 1.45;

/// The workload class the rules are specialized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AppClass {
    Compute,
    MemoryBound,
}

/// The tracking-mode heuristic controller.
#[derive(Debug, Clone)]
pub struct HeuristicTracker {
    grids: Vec<Vec<f64>>,
    ranking: SensitivityRanking,
    /// Current grid index per input.
    idx: Vec<usize>,
    targets: Vector,
    /// Running sum of the measurements in the current action window.
    win_sum: Vector,
    /// Number of measurements accumulated in `win_sum`.
    win_n: usize,
    /// Knob orders precomputed per `[class][objective]` (class: compute /
    /// memory-bound; objective: power / perf) so the per-epoch rules never
    /// allocate.
    orders: [[Vec<usize>; 2]; 2],
    class: AppClass,
    classify_left: usize,
    classify_acc: (f64, f64, usize),
}

impl HeuristicTracker {
    /// Creates a tracker starting from the midrange configuration.
    pub fn new(grids: Vec<Vec<f64>>, ranking: SensitivityRanking, targets: Vector) -> Self {
        let idx = grids.iter().map(|g| g.len() / 2).collect();
        // Cache (input 1) promoted to the front for memory-bound code.
        let promote_cache = |mut order: Vec<usize>| {
            if let Some(pos) = order.iter().position(|&i| i == 1) {
                order.remove(pos);
                order.insert(0, 1);
            }
            order
        };
        let orders = [
            [ranking.power_order(), ranking.perf_order()],
            [
                promote_cache(ranking.power_order()),
                promote_cache(ranking.perf_order()),
            ],
        ];
        let win_sum = Vector::zeros(targets.len());
        HeuristicTracker {
            grids,
            ranking,
            idx,
            targets,
            win_sum,
            win_n: 0,
            orders,
            class: AppClass::Compute,
            classify_left: CLASSIFY_EPOCHS,
            classify_acc: (0.0, 0.0, 0),
        }
    }

    /// The knob order the current class prescribes: compute code tunes the
    /// frequency first; memory-bound code leads with the cache.
    fn class_order(&self, for_perf: bool) -> &[usize] {
        let class = match self.class {
            AppClass::Compute => 0,
            AppClass::MemoryBound => 1,
        };
        &self.orders[class][usize::from(for_perf)]
    }

    #[cfg(test)]
    fn actuation(&self) -> Vector {
        Vector::from_fn(self.grids.len(), |i| self.grids[i][self.idx[i]])
    }

    fn clear_window(&mut self) {
        self.win_sum.fill(0.0);
        self.win_n = 0;
    }

    /// Steps input `i` by `dir` grid positions, clamped; returns whether it
    /// moved.
    fn nudge(&mut self, i: usize, dir: isize) -> bool {
        let cur = self.idx[i] as isize;
        let max = self.grids[i].len() as isize - 1;
        let next = (cur + dir).clamp(0, max);
        let moved = next != cur;
        self.idx[i] = next as usize;
        moved
    }

    /// The per-epoch rule evaluation behind `decide_into`: consumes one
    /// measurement and possibly moves the grid indices.
    fn update(&mut self, y: &Vector, phase_changed: bool) {
        if phase_changed {
            // Re-classify against the statically tuned cutoff.
            self.classify_left = CLASSIFY_EPOCHS;
            self.classify_acc = (0.0, 0.0, 0);
            self.clear_window();
        }
        if self.classify_left > 0 {
            self.classify_left -= 1;
            self.classify_acc.0 += y[0];
            self.classify_acc.1 += y[1];
            self.classify_acc.2 += 1;
            if self.classify_left == 0 && self.classify_acc.2 > 0 {
                let ips = self.classify_acc.0 / self.classify_acc.2 as f64;
                let p = (self.classify_acc.1 / self.classify_acc.2 as f64).max(1e-9);
                self.class = if ips / p < CLASS_CUTOFF_BIPS_PER_W {
                    AppClass::MemoryBound
                } else {
                    AppClass::Compute
                };
            }
            return;
        }
        if self.win_sum.len() != y.len() {
            // Output dimension changed under us; restart the window.
            self.win_sum = Vector::zeros(y.len());
            self.win_n = 0;
        }
        self.win_sum += y;
        self.win_n += 1;
        if self.win_n < TRACK_WINDOW {
            return;
        }
        let inv = 1.0 / self.win_n as f64;
        let avg_ips = self.win_sum[0] * inv;
        let avg_p = self.win_sum[1] * inv;
        self.clear_window();

        let ips0 = self.targets[0].max(1e-9);
        let p0 = self.targets[1].max(1e-9);
        let e_p = (avg_p - p0) / p0; // >0: over power budget
        let e_ips = (ips0 - avg_ips) / ips0; // >0: too slow

        let n = self.grids.len();
        // Rule 1 (power is the critical output): over budget → step down the
        // strongest power knob (per the class-specialized order) that can
        // still move.
        if e_p > TRACK_DEADBAND {
            for k in 0..n {
                let i = self.class_order(false)[k];
                if self.nudge(i, -1) {
                    break;
                }
            }
        } else if e_ips > TRACK_DEADBAND {
            // Rule 2: too slow and power headroom available → step up the
            // strongest performance knob for this class.
            if e_p < -TRACK_DEADBAND {
                for k in 0..n {
                    let i = self.class_order(true)[k];
                    if self.nudge(i, 1) {
                        break;
                    }
                }
            }
        } else if e_ips < -TRACK_DEADBAND && e_p < -TRACK_DEADBAND {
            // Rule 3: faster than needed with power to spare → trim the
            // weakest performance knob to save energy.
            for k in (0..n).rev() {
                let i = self.class_order(true)[k];
                if self.nudge(i, -1) {
                    break;
                }
            }
        }
    }
}

impl HeuristicTracker {
    /// Borrows the profiled ranking the rules were tuned from.
    pub fn ranking(&self) -> &SensitivityRanking {
        &self.ranking
    }
}

impl Governor for HeuristicTracker {
    fn name(&self) -> &str {
        "Heuristic"
    }

    fn num_inputs(&self) -> usize {
        self.grids.len()
    }

    fn set_targets(&mut self, y0: &Vector) {
        if self.targets.len() == y0.len() {
            self.targets.copy_from(y0);
        } else {
            self.targets = y0.clone();
        }
    }

    fn decide_into(
        &mut self,
        y: &Vector,
        phase_changed: bool,
        out: &mut Vector,
    ) -> crate::Result<()> {
        self.update(y, phase_changed);
        for i in 0..self.grids.len() {
            out[i] = self.grids[i][self.idx[i]];
        }
        Ok(())
    }

    fn reset(&mut self) {
        for (i, g) in self.grids.iter().enumerate() {
            self.idx[i] = g.len() / 2;
        }
        self.clear_window();
        self.class = AppClass::Compute;
        self.classify_left = CLASSIFY_EPOCHS;
        self.classify_acc = (0.0, 0.0, 0);
    }
}

/// Epochs dwelt per candidate configuration in the optimization search.
const OPT_DWELL: usize = 40;

/// The optimization-mode heuristic: an iterative per-feature search in
/// rank order (similar to \[10\], \[23\], \[41\], \[42\]), capped at `max_tries`
/// configurations, restarted on phase changes.
#[derive(Debug, Clone)]
pub struct HeuristicOptimizer {
    grids: Vec<Vec<f64>>,
    ranking: SensitivityRanking,
    metric: Metric,
    max_tries: usize,
    // Search state.
    idx: Vec<usize>,
    best_idx: Vec<usize>,
    best_score: f64,
    feature_pos: usize, // which ranked feature is being searched
    candidate: usize,   // which setting of that feature is being tried
    tries: usize,
    dwell: usize,
    acc_ips: f64,
    acc_p: f64,
    acc_n: usize,
    done: bool,
}

impl HeuristicOptimizer {
    /// Creates the search, starting from the midrange configuration.
    pub fn new(
        grids: Vec<Vec<f64>>,
        ranking: SensitivityRanking,
        metric: Metric,
        max_tries: usize,
    ) -> Self {
        let idx: Vec<usize> = grids.iter().map(|g| g.len() / 2).collect();
        HeuristicOptimizer {
            best_idx: idx.clone(),
            idx,
            grids,
            ranking,
            metric,
            max_tries,
            best_score: f64::NEG_INFINITY,
            feature_pos: 0,
            candidate: 0,
            tries: 0,
            dwell: 0,
            acc_ips: 0.0,
            acc_p: 0.0,
            acc_n: 0,
            done: false,
        }
    }

    #[cfg(test)]
    fn actuation(&self) -> Vector {
        Vector::from_fn(self.grids.len(), |i| self.grids[i][self.idx[i]])
    }

    /// Whether the search has exhausted its budget.
    pub fn is_done(&self) -> bool {
        self.done
    }

    fn advance_candidate(&mut self) {
        loop {
            if self.feature_pos >= self.ranking.order.len() || self.tries >= self.max_tries {
                self.done = true;
                self.idx.copy_from_slice(&self.best_idx);
                return;
            }
            let feat = self.ranking.order[self.feature_pos];
            // Probe a spread of settings (ends + middle) rather than every
            // grid point, like bounded search heuristics do.
            let g_len = self.grids[feat].len();
            let probes = [0, g_len / 2, g_len - 1];
            if self.candidate >= probes.len() {
                // Move to the next ranked feature with the best so far fixed.
                self.idx.copy_from_slice(&self.best_idx);
                self.feature_pos += 1;
                self.candidate = 0;
                continue;
            }
            self.idx.copy_from_slice(&self.best_idx);
            self.idx[feat] = probes[self.candidate];
            self.candidate += 1;
            self.tries += 1;
            return;
        }
    }

    /// The per-epoch search step behind `decide_into`.
    fn update(&mut self, y: &Vector, phase_changed: bool) {
        if phase_changed {
            self.reset();
        }
        if self.done {
            return;
        }
        self.acc_ips += y[0];
        self.acc_p += y[1];
        self.acc_n += 1;
        self.dwell += 1;
        if self.dwell >= OPT_DWELL {
            let ips = self.acc_ips / self.acc_n as f64;
            let p = self.acc_p / self.acc_n as f64;
            let score = self.metric.score(ips, p);
            if score > self.best_score {
                self.best_score = score;
                self.best_idx.copy_from_slice(&self.idx);
            }
            self.dwell = 0;
            self.acc_ips = 0.0;
            self.acc_p = 0.0;
            self.acc_n = 0;
            self.advance_candidate();
        }
    }
}

impl Governor for HeuristicOptimizer {
    fn name(&self) -> &str {
        "Heuristic"
    }

    fn num_inputs(&self) -> usize {
        self.grids.len()
    }

    fn set_targets(&mut self, _y0: &Vector) {
        // The optimizer mode ignores external targets; it maximizes its
        // metric directly.
    }

    fn decide_into(
        &mut self,
        y: &Vector,
        phase_changed: bool,
        out: &mut Vector,
    ) -> crate::Result<()> {
        self.update(y, phase_changed);
        for i in 0..self.grids.len() {
            out[i] = self.grids[i][self.idx[i]];
        }
        Ok(())
    }

    fn reset(&mut self) {
        for (i, g) in self.grids.iter().enumerate() {
            let mid = g.len() / 2;
            self.idx[i] = mid;
            self.best_idx[i] = mid;
        }
        self.best_score = f64::NEG_INFINITY;
        self.feature_pos = 0;
        self.candidate = 0;
        self.tries = 0;
        self.dwell = 0;
        self.acc_ips = 0.0;
        self.acc_p = 0.0;
        self.acc_n = 0;
        self.done = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_sim::{InputSet, ProcessorBuilder};

    fn grids2() -> Vec<Vec<f64>> {
        vec![
            (0..16).map(|i| 0.5 + 0.1 * i as f64).collect(),
            vec![2.0, 4.0, 6.0, 8.0],
        ]
    }

    fn ranking2() -> SensitivityRanking {
        SensitivityRanking {
            perf_impact: vec![1.0, 0.3],
            power_impact: vec![1.5, 0.4],
            order: vec![0, 1],
        }
    }

    #[test]
    fn profiling_ranks_frequency_first_on_compute_bound() {
        let mut p = ProcessorBuilder::new()
            .app("namd")
            .seed(1)
            .input_set(InputSet::FreqCache)
            .build()
            .unwrap();
        let r = profile_sensitivity(&mut p, 30);
        // For compute-bound namd, frequency dominates both outputs.
        assert_eq!(r.order[0], 0, "impacts: {r:?}");
        assert!(r.perf_impact[0] > r.perf_impact[1]);
        assert_eq!(r.perf_order()[0], 0);
        assert_eq!(r.power_order()[0], 0);
    }

    #[test]
    fn tracker_cuts_power_when_over_budget() {
        let mut t = HeuristicTracker::new(grids2(), ranking2(), Vector::from_slice(&[2.5, 2.0]));
        let start = t.actuation();
        // Report sustained over-power.
        let mut u = start.clone();
        for _ in 0..CLASSIFY_EPOCHS + 4 * TRACK_WINDOW {
            u = t.decide(&Vector::from_slice(&[2.5, 3.0]), false);
        }
        assert!(u[0] < start[0], "frequency should drop: {start:?} → {u:?}");
    }

    #[test]
    fn tracker_speeds_up_with_headroom() {
        let mut t = HeuristicTracker::new(grids2(), ranking2(), Vector::from_slice(&[2.5, 2.0]));
        let start = t.actuation();
        let mut u = start.clone();
        for _ in 0..CLASSIFY_EPOCHS + 4 * TRACK_WINDOW {
            // Too slow, lots of power headroom.
            u = t.decide(&Vector::from_slice(&[1.0, 1.0]), false);
        }
        assert!(u[0] > start[0], "frequency should rise: {start:?} → {u:?}");
    }

    #[test]
    fn tracker_holds_inside_deadband() {
        let mut t = HeuristicTracker::new(grids2(), ranking2(), Vector::from_slice(&[2.5, 2.0]));
        let start = t.actuation();
        let mut u = start.clone();
        for _ in 0..CLASSIFY_EPOCHS + 4 * TRACK_WINDOW {
            u = t.decide(&Vector::from_slice(&[2.51, 1.99]), false);
        }
        assert_eq!(u, start);
    }

    #[test]
    fn tracker_trims_when_overshooting_both() {
        let mut t = HeuristicTracker::new(grids2(), ranking2(), Vector::from_slice(&[1.0, 2.0]));
        let start = t.actuation();
        let mut u = start.clone();
        for _ in 0..CLASSIFY_EPOCHS + 4 * TRACK_WINDOW {
            // Much faster than needed, power below budget.
            u = t.decide(&Vector::from_slice(&[2.0, 1.0]), false);
        }
        assert!(u != start, "should trim some knob: {u:?}");
    }

    #[test]
    fn tracker_reset_restores_midrange() {
        let mut t = HeuristicTracker::new(grids2(), ranking2(), Vector::from_slice(&[2.5, 2.0]));
        let start = t.actuation();
        for _ in 0..CLASSIFY_EPOCHS + 5 * TRACK_WINDOW {
            let _ = t.decide(&Vector::from_slice(&[0.5, 3.5]), false);
        }
        t.reset();
        assert_eq!(t.actuation(), start);
    }

    #[test]
    fn optimizer_search_terminates_and_improves() {
        // Synthetic scoring: score is maximized at the highest frequency
        // (ips = f, p = 1). The search should land near the top setting.
        let mut opt = HeuristicOptimizer::new(grids2(), ranking2(), Metric::EnergyDelay, 10);
        let mut u = opt.actuation();
        for _ in 0..OPT_DWELL * 40 {
            if opt.is_done() {
                break;
            }
            let ips = u[0]; // pretend IPS equals frequency
            u = opt.decide(&Vector::from_slice(&[ips, 1.0]), false);
        }
        assert!(opt.is_done());
        let f = opt.actuation()[0];
        assert!(f >= 1.9, "search stopped at {f} GHz");
    }

    #[test]
    fn optimizer_respects_max_tries() {
        let mut opt = HeuristicOptimizer::new(grids2(), ranking2(), Metric::Energy, 2);
        let mut epochs = 0;
        let mut u = opt.actuation();
        while !opt.is_done() && epochs < OPT_DWELL * 20 {
            u = opt.decide(&Vector::from_slice(&[u[0], 1.0]), false);
            epochs += 1;
        }
        // 2 tries × OPT_DWELL epochs plus bookkeeping.
        assert!(epochs <= OPT_DWELL * 4, "took {epochs} epochs");
    }

    #[test]
    fn optimizer_restarts_on_phase_change() {
        let mut opt = HeuristicOptimizer::new(grids2(), ranking2(), Metric::Energy, 6);
        let mut u = opt.actuation();
        while !opt.is_done() {
            u = opt.decide(&Vector::from_slice(&[u[0], 1.0]), false);
        }
        assert!(opt.is_done());
        let _ = opt.decide(&Vector::from_slice(&[1.0, 1.0]), true);
        assert!(!opt.is_done(), "phase change must restart the search");
    }
}
