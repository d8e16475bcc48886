//! Fast Optimization Leveraging Tracking — §V and §VI-B.
//!
//! Instead of searching the low-level configuration space, the optimizer
//! searches the small 2-D *target* space: it proposes `(IPS₀, P₀)` pairs,
//! lets the tracking controller realize each one, and hill-climbs the
//! metric `IPS^k / P` (maximizing it minimizes `E·D^(k−1)`):
//!
//! * "Up" — ask for much more IPS at slightly more power,
//! * "Down" — ask for slightly less IPS at much less power,
//!
//! keeping a move only if the *achieved* score improves, reversing
//! direction otherwise, with no backtracking and at most `MaxTries`
//! trials (Table III: 10). A new search starts when the application
//! changes phase.

/// The metric being minimized, `E·D^(k−1)` — maximize `IPS^k / P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Minimize energy (k = 1): maximize `IPS / P`.
    Energy,
    /// Minimize energy × delay (k = 2): maximize `IPS² / P`.
    EnergyDelay,
    /// Minimize energy × delay² (k = 3): maximize `IPS³ / P`.
    EnergyDelaySquared,
}

impl Metric {
    /// The IPS exponent `k`.
    pub fn exponent(&self) -> i32 {
        match self {
            Metric::Energy => 1,
            Metric::EnergyDelay => 2,
            Metric::EnergyDelaySquared => 3,
        }
    }

    /// The score `IPS^k / P` (higher is better).
    pub fn score(&self, ips: f64, power: f64) -> f64 {
        if power <= 0.0 {
            return 0.0;
        }
        ips.max(0.0).powi(self.exponent()) / power
    }
}

/// Search direction in the (IPS, P) target plane (Figure 5b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Higher IPS, slightly higher power.
    Up,
    /// Slightly lower IPS, much lower power.
    Down,
}

impl Direction {
    fn reversed(self) -> Self {
        match self {
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
        }
    }
}

/// Default `MaxTries` (Table III).
pub const MAX_TRIES: usize = 10;

/// The big step factor applied to the "free" axis of a move.
const BIG_STEP: f64 = 0.18;
/// The small step factor applied to the "costly" axis of a move. It must
/// still move the costly axis decisively: the tracking controller steers
/// mainly by the power reference, so a power step inside the noise floor
/// makes the trial indistinguishable from the previous point.
const SMALL_STEP: f64 = 0.15;

/// The target-space hill climber.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimizer {
    metric: Metric,
    max_tries: usize,
    tries: usize,
    direction: Direction,
    prev_score: f64,
    best_score: f64,
    best_point: (f64, f64),
    targets: (f64, f64),
    done: bool,
}

impl Optimizer {
    /// Starts a search with initial targets (typically the outputs measured
    /// at the midrange configuration, §VI-B).
    pub fn new(metric: Metric, initial_ips: f64, initial_power: f64, max_tries: usize) -> Self {
        Optimizer {
            metric,
            max_tries,
            tries: 0,
            direction: Direction::Up,
            prev_score: f64::NEG_INFINITY,
            best_score: f64::NEG_INFINITY,
            best_point: (initial_ips.max(1e-6), initial_power.max(1e-6)),
            targets: (initial_ips.max(1e-6), initial_power.max(1e-6)),
            done: false,
        }
    }

    /// The metric under optimization.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The current `[IPS₀, P₀]` targets for the tracking controller.
    pub fn targets(&self) -> [f64; 2] {
        [self.targets.0, self.targets.1]
    }

    /// Whether the search has exhausted its trials.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Trials consumed so far.
    pub fn tries_used(&self) -> usize {
        self.tries
    }

    /// Reports the outputs *achieved* after the controller converged on
    /// the current targets, and advances the search. Returns the next
    /// targets, or `None` once `MaxTries` is exhausted (the search holds
    /// the best point found).
    pub fn observe(&mut self, achieved_ips: f64, achieved_power: f64) -> Option<[f64; 2]> {
        if self.done {
            return None;
        }
        let score = self.metric.score(achieved_ips, achieved_power);
        // §VI-B: "If the resulting value of the measure IPS^k/P is higher
        // than the previous one, the algorithm continues to explore more
        // points in the same direction. Otherwise, it reverses."
        if score <= self.prev_score {
            self.direction = self.direction.reversed();
        }
        self.prev_score = score;
        if score > self.best_score {
            self.best_score = score;
            self.best_point = (achieved_ips.max(1e-6), achieved_power.max(1e-6));
        }
        self.tries += 1;
        if self.tries >= self.max_tries {
            // Hold the best point found.
            self.targets = self.best_point;
            self.done = true;
            return None;
        }
        // Propose the next target from the achieved point (the system may
        // not have reached the previous target; search from reality).
        let (ips, p) = (achieved_ips.max(1e-6), achieved_power.max(1e-6));
        self.targets = match self.direction {
            Direction::Up => (ips * (1.0 + BIG_STEP), p * (1.0 + SMALL_STEP)),
            Direction::Down => (ips * (1.0 - SMALL_STEP * 0.5), p * (1.0 - BIG_STEP)),
        };
        Some(self.targets())
    }

    /// Restarts the search (phase change detected, §V): back to the given
    /// starting outputs with a fresh trial budget.
    pub fn restart(&mut self, ips: f64, power: f64) {
        self.tries = 0;
        self.direction = Direction::Up;
        self.prev_score = f64::NEG_INFINITY;
        self.best_score = f64::NEG_INFINITY;
        self.best_point = (ips.max(1e-6), power.max(1e-6));
        self.targets = (ips.max(1e-6), power.max(1e-6));
        self.done = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_scores() {
        assert!((Metric::Energy.score(2.0, 1.0) - 2.0).abs() < 1e-12);
        assert!((Metric::EnergyDelay.score(2.0, 1.0) - 4.0).abs() < 1e-12);
        assert!((Metric::EnergyDelaySquared.score(2.0, 2.0) - 4.0).abs() < 1e-12);
        assert_eq!(Metric::EnergyDelay.score(1.0, 0.0), 0.0);
    }

    #[test]
    fn exhausts_max_tries() {
        let mut opt = Optimizer::new(Metric::EnergyDelay, 1.0, 1.0, 5);
        let mut steps = 0;
        while opt.observe(1.0, 1.0).is_some() {
            steps += 1;
        }
        assert!(opt.is_done());
        assert_eq!(opt.tries_used(), 5);
        assert_eq!(steps, 4); // the 5th observe returns None
                              // Further observes are inert.
        assert!(opt.observe(10.0, 1.0).is_none());
    }

    #[test]
    fn climbs_toward_better_scores_on_a_synthetic_plant() {
        // Synthetic plant: achieving a target (ips, p) costs p = ips^1.5
        // (superlinear power). The optimal E·D point for this plant is at
        // the high-IPS end within limits; the optimizer should raise IPS.
        let mut opt = Optimizer::new(Metric::EnergyDelay, 1.0, 1.0, MAX_TRIES);
        let mut ips = 1.0;
        let mut best_seen: f64 = Metric::EnergyDelay.score(ips, ips.powf(1.5));
        let mut t = opt.targets();
        loop {
            // The plant achieves the requested IPS (capped) with its power law.
            ips = t[0].clamp(0.2, 3.0);
            let p = ips.powf(1.5);
            best_seen = best_seen.max(Metric::EnergyDelay.score(ips, p));
            match opt.observe(ips, p) {
                Some(next) => t = next,
                None => break,
            }
        }
        // Score improves over the starting point: ips² / ips^1.5 = ips^0.5,
        // so higher ips is better — the optimizer must have pushed up.
        assert!(ips > 1.5, "final IPS {ips}");
        assert!(best_seen > 1.2, "best score {best_seen}");
    }

    #[test]
    fn descends_when_down_is_better() {
        // Plant where power rises with the cube of IPS: for E (k=1) the
        // score ips/p = ips^{-2} favors LOW ips. Start with Up, fail, and
        // the optimizer must reverse to Down.
        let mut opt = Optimizer::new(Metric::Energy, 1.0, 1.0, MAX_TRIES);
        let mut t = opt.targets();
        let mut final_ips = 1.0_f64;
        let _ = final_ips;
        loop {
            let ips = t[0].clamp(0.1, 3.0);
            let p = ips.powi(3).max(1e-6);
            final_ips = ips;
            match opt.observe(ips, p) {
                Some(next) => t = next,
                None => break,
            }
        }
        assert!(final_ips < 1.0, "should have walked down, got {final_ips}");
    }

    #[test]
    fn restart_resets_budget_and_direction() {
        let mut opt = Optimizer::new(Metric::EnergyDelay, 1.0, 1.0, 3);
        while opt.observe(1.0, 1.0).is_some() {}
        assert!(opt.is_done());
        opt.restart(2.0, 1.5);
        assert!(!opt.is_done());
        assert_eq!(opt.tries_used(), 0);
        let t = opt.targets();
        assert!((t[0] - 2.0).abs() < 1e-12);
        assert!((t[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn up_move_shape_matches_figure_5() {
        let mut opt = Optimizer::new(Metric::EnergyDelay, 1.0, 1.0, MAX_TRIES);
        // First move is Up: next IPS target grows much more than power.
        let next = opt.observe(1.0, 1.0).unwrap();
        let ips_growth = next[0] / 1.0;
        let p_growth = next[1] / 1.0;
        assert!(ips_growth > p_growth, "up move: {ips_growth} vs {p_growth}");
    }

    #[test]
    fn targets_never_negative() {
        let mut opt = Optimizer::new(Metric::Energy, 0.0, 0.0, MAX_TRIES);
        let t = opt.targets();
        assert!(t[0] > 0.0 && t[1] > 0.0);
        let next = opt.observe(0.0, 0.0).unwrap();
        assert!(next[0] > 0.0 && next[1] > 0.0);
    }
}
