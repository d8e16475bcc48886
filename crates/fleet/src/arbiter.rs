//! Chip-level power-budget arbitration.
//!
//! The paper's controller governs one core; §VII sketches the decentralized
//! extension — per-core MIMO controllers coordinated by a chip-level
//! authority (the shape ControlPULP realizes in PMU firmware). The
//! [`BudgetArbiter`] is that authority: each epoch it aggregates the cores'
//! measured power, compares the total against the chip cap, and hands every
//! core a fresh `[IPS, power]` reference that its local LQG loop then
//! tracks. Arbitration operates purely on targets — the per-core
//! controllers remain untouched, which is what makes the scheme
//! decentralized.

use mimo_linalg::Vector;

use crate::stats::ChipSummary;

/// How the chip cap is split across cores each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbitrationPolicy {
    /// Every core gets `cap / n` regardless of demand.
    Uniform,
    /// Budgets proportional to each core's measured power draw — cores
    /// that demonstrably use power keep it, idle cores donate headroom.
    Proportional,
    /// Budgets proportional to static per-core priority weights.
    PriorityWeighted,
}

impl ArbitrationPolicy {
    /// Stable label used in CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            ArbitrationPolicy::Uniform => "uniform",
            ArbitrationPolicy::Proportional => "proportional",
            ArbitrationPolicy::PriorityWeighted => "priority",
        }
    }
}

/// One core's observation consumed by the arbiter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreObs {
    /// Measured performance, BIPS.
    pub ips: f64,
    /// Measured power, watts.
    pub power: f64,
}

/// The chip-level budget arbiter.
#[derive(Debug, Clone)]
pub struct BudgetArbiter {
    cap_w: f64,
    policy: ArbitrationPolicy,
    base_targets: [f64; 2],
    priorities: Vec<f64>,
    /// Epochs in which measured chip power exceeded the cap.
    violations: u64,
    epochs: u64,
    power_sum: f64,
    peak_power: f64,
    /// Chip power total of the most recent arbitration (pure store of an
    /// already-computed value — recording it changes no floating point).
    last_power: f64,
    /// Per-core grants issued below the nominal power target (one per
    /// throttled core per epoch).
    throttle_events: u64,
}

/// Floor on the per-core power target as a fraction of the nominal target;
/// keeps throttled cores controllable (a zero-power reference would ask
/// the LQG loop for an unreachable point and wind up its integrator).
pub(crate) const MIN_TARGET_FRACTION: f64 = 0.2;

impl BudgetArbiter {
    /// Creates an arbiter for `priorities.len()` cores under `cap_w`.
    pub fn new(
        cap_w: f64,
        policy: ArbitrationPolicy,
        base_targets: [f64; 2],
        priorities: Vec<f64>,
    ) -> Self {
        assert!(!priorities.is_empty(), "arbiter needs at least one core");
        assert!(cap_w > 0.0, "cap must be positive");
        BudgetArbiter {
            cap_w,
            policy,
            base_targets,
            priorities,
            violations: 0,
            epochs: 0,
            power_sum: 0.0,
            peak_power: 0.0,
            last_power: 0.0,
            throttle_events: 0,
        }
    }

    /// Number of cores arbitrated.
    pub fn n_cores(&self) -> usize {
        self.priorities.len()
    }

    /// The chip cap in watts.
    pub fn cap_w(&self) -> f64 {
        self.cap_w
    }

    /// Replaces the chip cap — how the cluster arbiter retunes a chip at
    /// an epoch exchange. Takes effect from the next arbitration.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or non-positive cap.
    pub fn set_cap(&mut self, cap_w: f64) {
        assert!(
            cap_w.is_finite() && cap_w > 0.0,
            "cap {cap_w} must be finite and positive"
        );
        self.cap_w = cap_w;
    }

    /// Measured chip power total of the most recent arbitration epoch.
    pub fn last_chip_power_w(&self) -> f64 {
        self.last_power
    }

    /// Epochs observed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Epochs in which the measured chip power exceeded the cap.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Total per-core power grants issued below the nominal target — one
    /// event per throttled core per epoch. Counted by pure comparison on
    /// the granted targets, so enabling the counter changes no
    /// floating-point results.
    pub fn throttle_events(&self) -> u64 {
        self.throttle_events
    }

    /// Mean measured chip power over all observed epochs.
    pub fn avg_chip_power_w(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.power_sum / self.epochs as f64
        }
    }

    /// Highest measured chip power in any epoch.
    pub fn peak_chip_power_w(&self) -> f64 {
        self.peak_power
    }

    /// Consumes this epoch's per-core observations (indexed by core) and
    /// returns each core's next `[IPS, power]` targets.
    ///
    /// Deterministic: inputs are indexed by core and every reduction runs
    /// in core order, so the result depends only on the observations.
    pub fn arbitrate(&mut self, observed: &[CoreObs]) -> Vec<Vector> {
        self.arbitrate_with_quarantine(observed, &[])
    }

    /// Like [`BudgetArbiter::arbitrate`], but pins every quarantined core
    /// (marked `true` in `quarantined`, indexed by core; an empty slice
    /// means none) at the floor power target and redistributes the freed
    /// budget across the healthy cores per the policy. With no quarantined
    /// cores this evaluates the exact floating-point operations of the
    /// unmasked path, keeping fault-free runs bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `observed` (or a non-empty `quarantined`) does not have
    /// one entry per core.
    pub fn arbitrate_with_quarantine(
        &mut self,
        observed: &[CoreObs],
        quarantined: &[bool],
    ) -> Vec<Vector> {
        let mut targets = Vec::with_capacity(self.n_cores());
        self.grant_each(observed, quarantined, |_, grant| {
            targets.push(Vector::from_slice(&grant))
        });
        targets
    }

    /// [`BudgetArbiter::arbitrate_with_quarantine`] writing each core's
    /// `[IPS, power]` grant into the flat table `out` instead of
    /// allocating them — the chip beat's path, allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `observed` or `out` (or a non-empty `quarantined`) does
    /// not have one entry per core.
    pub fn arbitrate_into(
        &mut self,
        observed: &[CoreObs],
        quarantined: &[bool],
        out: &mut [[f64; 2]],
    ) {
        assert_eq!(out.len(), self.n_cores(), "target count");
        self.grant_each(observed, quarantined, |i, grant| out[i] = grant);
    }

    /// The arbitration both entry points share: books this epoch's chip
    /// power and hands `grant` each core's `[IPS, power]` grant, in core
    /// order. The allocating wrapper builds its `Vector`s straight from
    /// the grants, with no intermediate table.
    fn grant_each(
        &mut self,
        observed: &[CoreObs],
        quarantined: &[bool],
        mut grant: impl FnMut(usize, [f64; 2]),
    ) {
        assert_eq!(observed.len(), self.n_cores(), "observation count");
        assert!(
            quarantined.is_empty() || quarantined.len() == self.n_cores(),
            "quarantine mask length"
        );
        let [base_ips, base_power] = self.base_targets;
        let floor = MIN_TARGET_FRACTION * base_power;
        let is_q = |i: usize| quarantined.get(i).copied().unwrap_or(false);
        let n_quarantined = (0..self.n_cores()).filter(|&i| is_q(i)).count();

        // A quarantined core's sensor is exactly what failed, so its entry
        // in the observation table is a stale last-good reading. Chip power
        // accounting substitutes the pinned floor target for those cores;
        // with nothing quarantined this is the plain sum, bit for bit.
        let total: f64 = observed
            .iter()
            .enumerate()
            .map(|(i, o)| if is_q(i) { floor } else { o.power })
            .sum();
        self.epochs += 1;
        self.power_sum += total;
        self.last_power = total;
        if total > self.peak_power {
            self.peak_power = total;
        }
        if total > self.cap_w {
            self.violations += 1;
        }

        // Quarantined cores are pinned at the floor (their fallback
        // governors should coast, not chase an aggressive target) and the
        // budget they free up is shared among the healthy cores. With none
        // quarantined every share reduces to the plain split bit for bit:
        // `cap - 0.0 * floor` is `cap`, and the healthy sums are the full
        // sums in the same order.
        let healthy_n = self.n_cores() - n_quarantined;
        let healthy_cap = (self.cap_w - n_quarantined as f64 * floor).max(0.0);
        let healthy_total: f64 = observed
            .iter()
            .enumerate()
            .filter(|&(i, _)| !is_q(i))
            .map(|(_, o)| o.power)
            .sum();
        let healthy_weight_sum: f64 = self
            .priorities
            .iter()
            .enumerate()
            .filter(|&(i, _)| !is_q(i))
            .map(|(_, &w)| w)
            .sum();
        let mut throttled = 0u64;
        for (i, obs) in observed.iter().enumerate() {
            let p_target = if is_q(i) || healthy_n == 0 {
                floor
            } else {
                let budget = match self.policy {
                    ArbitrationPolicy::Uniform => healthy_cap / healthy_n as f64,
                    ArbitrationPolicy::Proportional => {
                        if healthy_total > 0.0 {
                            healthy_cap * obs.power / healthy_total
                        } else {
                            healthy_cap / healthy_n as f64
                        }
                    }
                    ArbitrationPolicy::PriorityWeighted => {
                        healthy_cap * self.priorities[i] / healthy_weight_sum
                    }
                };
                // A core never asks for more than its nominal target; under
                // pressure it is throttled toward (but not below) the floor.
                budget.clamp(floor, base_power)
            };
            if p_target < base_power {
                throttled += 1;
            }
            // Performance references scale with the granted power share so
            // the local loop chases a consistent (IPS, P) pair.
            let ips_target = base_ips * (p_target / base_power);
            grant(i, [ips_target, p_target]);
        }
        self.throttle_events += throttled;
    }
}

/// The cluster-level budget arbiter: re-divides a datacenter power cap
/// across chips at every epoch exchange.
///
/// Where the [`BudgetArbiter`] hands *cores* `[IPS, power]` references
/// every epoch, the `ClusterArbiter` hands *chips* power caps every K
/// epochs, from each chip's last published [`ChipSummary`]. The same
/// [`ArbitrationPolicy`] vocabulary applies — uniform, proportional to
/// measured chip power, or priority-weighted — and the same two guard
/// rails: a chip never receives more than its nominal cap, and never less
/// than its floor (its core count times the per-core floor target), except
/// when the cluster cap itself cannot cover the summed floors, in which
/// case every floor is scaled proportionally so no chip ever sees a
/// negative or zero budget.
///
/// Determinism: `rebudget` reduces the chip-indexed summaries in chip
/// order and is pure in its inputs, so cluster results are bit-identical
/// at any shard count.
#[derive(Debug, Clone)]
pub struct ClusterArbiter {
    cap_w: f64,
    policy: ArbitrationPolicy,
    /// Per-chip nominal caps (the cap each chip was configured with).
    nominal: Vec<f64>,
    /// Per-chip floors: `n_cores * MIN_TARGET_FRACTION * base_power`,
    /// matching what the chip's own arbiter pins a fully-quarantined chip
    /// to.
    floors: Vec<f64>,
    priorities: Vec<f64>,
    /// Most recently granted caps, indexed by chip.
    caps: Vec<f64>,
    exchanges: u64,
    /// Exchanges in which at least one chip's cap moved (bitwise).
    rebudget_moves: u64,
}

impl ClusterArbiter {
    /// Creates an arbiter over `nominal.len()` chips under `cap_w`.
    ///
    /// # Panics
    ///
    /// Panics on empty/mismatched per-chip vectors, a non-positive cap, or
    /// a floor above its chip's nominal cap.
    pub fn new(
        cap_w: f64,
        policy: ArbitrationPolicy,
        nominal: Vec<f64>,
        floors: Vec<f64>,
        priorities: Vec<f64>,
    ) -> Self {
        assert!(
            !nominal.is_empty(),
            "cluster arbiter needs at least one chip"
        );
        assert_eq!(nominal.len(), floors.len(), "floor count");
        assert_eq!(nominal.len(), priorities.len(), "priority count");
        assert!(cap_w.is_finite() && cap_w > 0.0, "cap must be positive");
        for (i, (&f, &n)) in floors.iter().zip(&nominal).enumerate() {
            assert!(f > 0.0 && f <= n, "chip {i}: floor {f} vs nominal {n}");
        }
        let caps = nominal.clone();
        ClusterArbiter {
            cap_w,
            policy,
            nominal,
            floors,
            priorities,
            caps,
            exchanges: 0,
            rebudget_moves: 0,
        }
    }

    /// Number of chips arbitrated.
    pub fn n_chips(&self) -> usize {
        self.nominal.len()
    }

    /// The cluster power cap in watts.
    pub fn cap_w(&self) -> f64 {
        self.cap_w
    }

    /// The most recently granted per-chip caps, indexed by chip.
    pub fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// Epoch exchanges processed so far (bootstrap excluded).
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Exchanges in which at least one chip's cap changed bit-wise — the
    /// count of times the cluster actually moved budget between chips.
    pub fn rebudget_moves(&self) -> u64 {
        self.rebudget_moves
    }

    /// Divides the cluster cap before any epoch has run (no summaries
    /// exist yet): all chips healthy, zero measured power, so every policy
    /// degrades to the uniform split. Does not count as an exchange.
    pub fn bootstrap(&mut self) -> Vec<f64> {
        let blank: Vec<ChipSummary> = (0..self.n_chips())
            .map(|chip| ChipSummary {
                chip,
                n_cores: 1,
                window_epochs: 0,
                avg_power_w: 0.0,
                avg_ips: 0.0,
                quarantined_cores: 0,
            })
            .collect();
        self.caps = self.compute(&blank);
        self.caps.clone()
    }

    /// Consumes the chips' window summaries (indexed by chip) and returns
    /// each chip's next power cap. Reductions run in chip order.
    ///
    /// A chip whose every core is quarantined is pinned at its floor and
    /// its headroom is redistributed to the healthy chips; when the
    /// cluster cap is below the sum of floors, every floor scales
    /// proportionally instead (no chip budget ever reaches zero).
    ///
    /// # Panics
    ///
    /// Panics if `summaries` does not have one entry per chip.
    pub fn rebudget(&mut self, summaries: &[ChipSummary]) -> Vec<f64> {
        let caps = self.compute(summaries);
        self.exchanges += 1;
        if caps
            .iter()
            .zip(&self.caps)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            self.rebudget_moves += 1;
        }
        self.caps = caps;
        self.caps.clone()
    }

    fn compute(&self, summaries: &[ChipSummary]) -> Vec<f64> {
        assert_eq!(summaries.len(), self.n_chips(), "summary count");
        let n = self.n_chips();
        let floor_sum: f64 = self.floors.iter().sum();
        if self.cap_w < floor_sum {
            // Proportional floor scaling: every chip below its floor, none
            // negative, and the grants still sum to the cluster cap.
            return self
                .floors
                .iter()
                .map(|&f| self.cap_w * f / floor_sum)
                .collect();
        }
        let dead = |i: usize| {
            summaries[i].n_cores > 0 && summaries[i].quarantined_cores == summaries[i].n_cores
        };
        let dead_floor: f64 = (0..n).filter(|&i| dead(i)).map(|i| self.floors[i]).sum();
        let healthy: Vec<usize> = (0..n).filter(|&i| !dead(i)).collect();
        if healthy.is_empty() {
            // Every chip fully quarantined: pin the whole cluster at floors.
            return self.floors.clone();
        }
        let avail = self.cap_w - dead_floor;
        if let [only] = healthy[..] {
            // Single eligible chip: grant the whole remainder directly.
            // (Clamping `avail` itself — rather than `avail * w / w_sum`,
            // which is not bit-exactly `avail` in IEEE arithmetic — is what
            // lets a one-chip cluster reproduce the configured chip cap bit
            // for bit.)
            return (0..n)
                .map(|i| {
                    if i == only {
                        avail.clamp(self.floors[i], self.nominal[i])
                    } else {
                        self.floors[i]
                    }
                })
                .collect();
        }
        let weight = |i: usize| match self.policy {
            ArbitrationPolicy::Uniform => 1.0,
            ArbitrationPolicy::Proportional => summaries[i].avg_power_w,
            ArbitrationPolicy::PriorityWeighted => self.priorities[i],
        };
        let mut weight_sum: f64 = healthy.iter().map(|&i| weight(i)).sum();
        let uniform = weight_sum <= 0.0; // zero-power proportional window
        if uniform {
            weight_sum = healthy.len() as f64;
        }
        (0..n)
            .map(|i| {
                if dead(i) {
                    self.floors[i]
                } else {
                    let w = if uniform { 1.0 } else { weight(i) };
                    let budget = avail * w / weight_sum;
                    budget.clamp(self.floors[i], self.nominal[i])
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(powers: &[f64]) -> Vec<CoreObs> {
        powers
            .iter()
            .map(|&p| CoreObs { ips: 2.0, power: p })
            .collect()
    }

    #[test]
    fn uniform_splits_evenly() {
        let mut arb = BudgetArbiter::new(4.0, ArbitrationPolicy::Uniform, [3.0, 1.9], vec![1.0; 4]);
        let t = arb.arbitrate(&obs(&[2.0, 0.5, 0.5, 0.5]));
        for target in &t {
            assert!((target[1] - 1.0).abs() < 1e-12, "{target:?}");
        }
    }

    #[test]
    fn proportional_follows_demand() {
        let mut arb = BudgetArbiter::new(
            2.0,
            ArbitrationPolicy::Proportional,
            [3.0, 1.9],
            vec![1.0; 2],
        );
        let t = arb.arbitrate(&obs(&[1.5, 0.5]));
        // 3:1 demand ratio → 1.5 W vs 0.5 W budgets.
        assert!((t[0][1] - 1.5).abs() < 1e-12, "{:?}", t[0]);
        assert!((t[1][1] - 0.5).abs() < 1e-12, "{:?}", t[1]);
        // IPS targets scale with the granted power share.
        assert!(t[0][0] > t[1][0]);
    }

    #[test]
    fn priority_weights_split_budget() {
        let mut arb = BudgetArbiter::new(
            3.0,
            ArbitrationPolicy::PriorityWeighted,
            [3.0, 1.9],
            vec![2.0, 1.0],
        );
        let t = arb.arbitrate(&obs(&[1.0, 1.0]));
        assert!((t[0][1] - 1.9).abs() < 1e-12, "capped at base: {:?}", t[0]);
        assert!((t[1][1] - 1.0).abs() < 1e-12, "{:?}", t[1]);
    }

    #[test]
    fn targets_never_exceed_base_or_fall_below_floor() {
        let mut arb =
            BudgetArbiter::new(100.0, ArbitrationPolicy::Uniform, [3.0, 1.9], vec![1.0; 2]);
        // Huge cap: clamp at base targets.
        let t = arb.arbitrate(&obs(&[1.0, 1.0]));
        assert_eq!(t[0].as_slice(), &[3.0, 1.9]);
        // Tiny cap: floor at 20% of base.
        let mut tight =
            BudgetArbiter::new(0.01, ArbitrationPolicy::Uniform, [3.0, 1.9], vec![1.0; 2]);
        let t = tight.arbitrate(&obs(&[1.0, 1.0]));
        assert!((t[0][1] - 0.2 * 1.9).abs() < 1e-12);
    }

    #[test]
    fn violations_and_aggregates_track() {
        let mut arb = BudgetArbiter::new(2.0, ArbitrationPolicy::Uniform, [3.0, 1.9], vec![1.0; 2]);
        arb.arbitrate(&obs(&[0.5, 0.5])); // 1.0 W, under
        arb.arbitrate(&obs(&[1.5, 1.5])); // 3.0 W, over
        assert_eq!(arb.epochs(), 2);
        assert_eq!(arb.violations(), 1);
        assert!((arb.avg_chip_power_w() - 2.0).abs() < 1e-12);
        assert!((arb.peak_chip_power_w() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn throttle_events_count_below_nominal_grants() {
        // Huge cap: every grant clamps at the base target, no throttling.
        let mut roomy =
            BudgetArbiter::new(100.0, ArbitrationPolicy::Uniform, [3.0, 1.9], vec![1.0; 2]);
        roomy.arbitrate(&obs(&[1.0, 1.0]));
        assert_eq!(roomy.throttle_events(), 0);
        // Tight cap: both cores throttled, every epoch.
        let mut tight =
            BudgetArbiter::new(1.0, ArbitrationPolicy::Uniform, [3.0, 1.9], vec![1.0; 2]);
        tight.arbitrate(&obs(&[1.0, 1.0]));
        tight.arbitrate(&obs(&[1.0, 1.0]));
        assert_eq!(tight.throttle_events(), 4);
        // Quarantined cores pinned at the floor count as throttled too.
        let mut q = BudgetArbiter::new(100.0, ArbitrationPolicy::Uniform, [3.0, 1.9], vec![1.0; 2]);
        q.arbitrate_with_quarantine(&obs(&[1.0, 1.0]), &[true, false]);
        assert_eq!(q.throttle_events(), 1);
    }

    #[test]
    fn quarantine_pins_floor_and_redistributes() {
        let mut arb = BudgetArbiter::new(4.0, ArbitrationPolicy::Uniform, [3.0, 1.9], vec![1.0; 4]);
        let t = arb.arbitrate_with_quarantine(&obs(&[1.0; 4]), &[true, false, false, false]);
        let floor = 0.2 * 1.9;
        assert!((t[0][1] - floor).abs() < 1e-12, "{:?}", t[0]);
        // The freed budget flows to the three healthy cores.
        let share = ((4.0 - floor) / 3.0).clamp(floor, 1.9);
        for target in &t[1..] {
            assert!((target[1] - share).abs() < 1e-12, "{target:?}");
        }
        // Quarantined IPS reference scales down with the power floor.
        assert!(t[0][0] < t[1][0]);
    }

    #[test]
    fn all_false_mask_is_bit_identical_to_unmasked() {
        let powers = [1.7, 0.3, 0.9, 1.1];
        for policy in [
            ArbitrationPolicy::Uniform,
            ArbitrationPolicy::Proportional,
            ArbitrationPolicy::PriorityWeighted,
        ] {
            let pri = vec![2.0, 1.0, 1.0, 0.5];
            let mut a = BudgetArbiter::new(3.3, policy, [3.0, 1.9], pri.clone());
            let mut b = BudgetArbiter::new(3.3, policy, [3.0, 1.9], pri);
            let ta = a.arbitrate(&obs(&powers));
            let tb = b.arbitrate_with_quarantine(&obs(&powers), &[false; 4]);
            for (x, y) in ta.iter().zip(&tb) {
                assert_eq!(x[0].to_bits(), y[0].to_bits(), "{policy:?}");
                assert_eq!(x[1].to_bits(), y[1].to_bits(), "{policy:?}");
            }
        }
    }

    #[test]
    fn arbitrate_into_reuses_the_buffer_bit_for_bit() {
        let powers = [1.7, 0.3, 0.9, 1.1];
        for policy in [
            ArbitrationPolicy::Uniform,
            ArbitrationPolicy::Proportional,
            ArbitrationPolicy::PriorityWeighted,
        ] {
            for mask in [&[][..], &[false, true, false, false][..]] {
                let pri = vec![2.0, 1.0, 1.0, 0.5];
                let mut a = BudgetArbiter::new(3.3, policy, [3.0, 1.9], pri.clone());
                let mut b = BudgetArbiter::new(3.3, policy, [3.0, 1.9], pri);
                let mut out = vec![[f64::NAN; 2]; 4];
                for _ in 0..2 {
                    let fresh = a.arbitrate_with_quarantine(&obs(&powers), mask);
                    b.arbitrate_into(&obs(&powers), mask, &mut out);
                    for (x, y) in fresh.iter().zip(&out) {
                        assert_eq!(x[0].to_bits(), y[0].to_bits(), "{policy:?}");
                        assert_eq!(x[1].to_bits(), y[1].to_bits(), "{policy:?}");
                    }
                }
                assert_eq!(a.throttle_events(), b.throttle_events());
            }
        }
    }

    #[test]
    fn fully_quarantined_fleet_pins_everyone_at_floor() {
        let mut arb = BudgetArbiter::new(
            2.0,
            ArbitrationPolicy::Proportional,
            [3.0, 1.9],
            vec![1.0; 2],
        );
        let t = arb.arbitrate_with_quarantine(&obs(&[1.0, 1.0]), &[true, true]);
        for target in &t {
            assert!((target[1] - 0.2 * 1.9).abs() < 1e-12, "{target:?}");
        }
    }

    #[test]
    fn zero_power_proportional_degrades_to_uniform() {
        let mut arb = BudgetArbiter::new(
            1.0,
            ArbitrationPolicy::Proportional,
            [3.0, 1.9],
            vec![1.0; 2],
        );
        let t = arb.arbitrate(&obs(&[0.0, 0.0]));
        assert!((t[0][1] - t[1][1]).abs() < 1e-12);
    }

    #[test]
    fn set_cap_retunes_subsequent_arbitrations() {
        let mut arb = BudgetArbiter::new(4.0, ArbitrationPolicy::Uniform, [3.0, 1.9], vec![1.0; 4]);
        let before = arb.arbitrate(&obs(&[1.0; 4]));
        arb.set_cap(2.0);
        let after = arb.arbitrate(&obs(&[1.0; 4]));
        assert!((before[0][1] - 1.0).abs() < 1e-12);
        assert!((after[0][1] - 0.5).abs() < 1e-12);
        assert!((arb.last_chip_power_w() - 4.0).abs() < 1e-12);
    }

    // --- ClusterArbiter -------------------------------------------------

    /// 4-core chips with the default targets: floor = 4 · 0.2 · 1.9.
    fn summaries(avg_powers: &[f64]) -> Vec<ChipSummary> {
        avg_powers
            .iter()
            .enumerate()
            .map(|(chip, &p)| ChipSummary {
                chip,
                n_cores: 4,
                window_epochs: 25,
                avg_power_w: p,
                avg_ips: 8.0,
                quarantined_cores: 0,
            })
            .collect()
    }

    fn cluster(cap: f64, policy: ArbitrationPolicy, chips: usize) -> ClusterArbiter {
        let floor: f64 = 4.0 * 0.2 * 1.9;
        ClusterArbiter::new(
            cap,
            policy,
            vec![4.8; chips],
            vec![floor; chips],
            vec![1.0; chips],
        )
    }

    #[test]
    fn cluster_uniform_splits_and_clamps_to_nominal() {
        let mut arb = cluster(19.2, ArbitrationPolicy::Uniform, 4);
        let caps = arb.rebudget(&summaries(&[3.0, 1.0, 1.0, 1.0]));
        for &c in &caps {
            assert!((c - 4.8).abs() < 1e-12, "{caps:?}");
        }
        assert_eq!(arb.exchanges(), 1);
    }

    #[test]
    fn cluster_proportional_follows_chip_demand() {
        let mut arb = cluster(8.0, ArbitrationPolicy::Proportional, 2);
        let caps = arb.rebudget(&summaries(&[3.0, 1.0]));
        // 3:1 demand split of 8 W → 6 W vs 2 W, clamped to nominal 4.8.
        assert!((caps[0] - 4.8).abs() < 1e-12, "{caps:?}");
        assert!((caps[1] - 2.0).abs() < 1e-12, "{caps:?}");
        assert_eq!(arb.rebudget_moves(), 1);
    }

    #[test]
    fn single_chip_cluster_grants_the_exact_cap() {
        // Bit-exactness, not approximation: this is what lets a one-chip
        // cluster reproduce the single-chip golden digests.
        for policy in [
            ArbitrationPolicy::Uniform,
            ArbitrationPolicy::Proportional,
            ArbitrationPolicy::PriorityWeighted,
        ] {
            let mut arb = cluster(4.8, policy, 1);
            let caps = arb.rebudget(&summaries(&[3.7]));
            assert_eq!(caps[0].to_bits(), 4.8f64.to_bits(), "{policy:?}");
            let boot = cluster(4.8, policy, 1).bootstrap();
            assert_eq!(boot[0].to_bits(), 4.8f64.to_bits(), "{policy:?}");
        }
    }

    #[test]
    fn dead_chip_pinned_at_floor_and_budget_redistributed() {
        let mut arb = cluster(12.0, ArbitrationPolicy::Uniform, 3);
        let mut s = summaries(&[2.0, 2.0, 2.0]);
        s[1].quarantined_cores = 4; // every core on chip 1 quarantined
        let caps = arb.rebudget(&s);
        let floor: f64 = 4.0 * 0.2 * 1.9;
        assert_eq!(caps[1].to_bits(), floor.to_bits());
        // The freed budget flows to the healthy chips (capped at nominal).
        let share = ((12.0 - floor) / 2.0).clamp(floor, 4.8);
        assert!((caps[0] - share).abs() < 1e-12, "{caps:?}");
        assert!((caps[2] - share).abs() < 1e-12, "{caps:?}");
        // Partial quarantine is NOT dead: the chip's own arbiter handles it.
        let mut partial = summaries(&[2.0, 2.0, 2.0]);
        partial[1].quarantined_cores = 3;
        let caps = arb.rebudget(&partial);
        assert!(caps[1] > floor, "{caps:?}");
    }

    #[test]
    fn all_chips_dead_pins_every_floor() {
        let mut arb = cluster(12.0, ArbitrationPolicy::Proportional, 2);
        let mut s = summaries(&[2.0, 2.0]);
        s[0].quarantined_cores = 4;
        s[1].quarantined_cores = 4;
        let caps = arb.rebudget(&s);
        let floor: f64 = 4.0 * 0.2 * 1.9;
        assert_eq!(caps[0].to_bits(), floor.to_bits());
        assert_eq!(caps[1].to_bits(), floor.to_bits());
    }

    #[test]
    fn cap_below_floor_sum_scales_floors_proportionally() {
        // 3 chips, floor 1.52 each, floor sum 4.56 — cap 2.28 is half.
        let mut arb = cluster(2.28, ArbitrationPolicy::Proportional, 3);
        let caps = arb.rebudget(&summaries(&[2.0, 0.1, 9.0]));
        let floor: f64 = 4.0 * 0.2 * 1.9;
        for &c in &caps {
            assert!(c > 0.0, "no negative or zero grants: {caps:?}");
            assert!((c - 0.5 * floor).abs() < 1e-12, "{caps:?}");
        }
        // Grants still sum to the cluster cap.
        assert!((caps.iter().sum::<f64>() - 2.28).abs() < 1e-12);
    }

    #[test]
    fn zero_power_window_degrades_to_uniform() {
        let mut arb = cluster(4.0, ArbitrationPolicy::Proportional, 2);
        let caps = arb.rebudget(&summaries(&[0.0, 0.0]));
        assert_eq!(caps[0].to_bits(), caps[1].to_bits());
        assert!(caps[0] >= 4.0 * 0.2 * 1.9);
    }

    #[test]
    fn unmoved_exchange_does_not_count_as_a_move() {
        let mut arb = cluster(19.2, ArbitrationPolicy::Uniform, 4);
        arb.bootstrap();
        arb.rebudget(&summaries(&[1.0; 4]));
        arb.rebudget(&summaries(&[1.0; 4]));
        assert_eq!(arb.exchanges(), 2);
        // Uniform split of an ample cap clamps at nominal every time — the
        // caps never move.
        assert_eq!(arb.rebudget_moves(), 0);
    }
}
