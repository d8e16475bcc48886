//! Shared last-level-cache contention between the cores of a chip.
//!
//! The per-core plant models a *private* way-gated L2: each core's miss
//! curve depends only on its own granted ways. Real chips share the LLC —
//! ways handed to one core are ways its neighbors cannot fill, so their
//! effective miss traffic rises (the THEAS observation). [`SharedLlc`]
//! closes that loop at the chip level: once per epoch it reads every
//! core's applied way allocation (in core order), compares the summed
//! demand against a fixed chip-wide way budget, and produces one
//! miss-pressure multiplier per core. The chip runtime installs each
//! multiplier into the core's plant, where it scales the miss-traffic
//! jitter fed to the CPI model — raising only the L1/L2 miss components,
//! never the base CPI.
//!
//! Determinism contract: `update` is pure in its inputs (no RNG, no
//! iteration-order freedom — the reduction runs in core order), so the
//! model is bit-identical at any worker or shard count as long as it is
//! evaluated at the chip's arbitrate beat. When the summed demand fits the
//! budget every penalty is exactly `1.0`, and a penalty of `1.0`
//! multiplies the jitter bit-transparently — an uncontended chip
//! reproduces the no-LLC-model run bit for bit.

use crate::cache::L2_FULL_WAYS;
use crate::error::SimError;

/// Configuration of the chip-wide shared-LLC contention model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlcConfig {
    /// Total LLC ways the chip can serve at once. Summed per-core demand
    /// beyond this budget creates contention.
    pub total_ways: usize,
    /// Strength of the coupling: the miss-pressure multiplier grows as
    /// `1 + sensitivity * overflow * neighbor_share`. `0.0` disables the
    /// coupling (penalties stay exactly `1.0`).
    pub sensitivity: f64,
}

impl LlcConfig {
    /// The default provisioning for an `n_cores` chip: three quarters of
    /// the full per-core demand (`6` of [`L2_FULL_WAYS`]` = 8` ways per
    /// core), so contention appears exactly when most cores chase the
    /// upper half of the way grid at once.
    #[must_use]
    pub fn for_cores(n_cores: usize) -> Self {
        LlcConfig {
            total_ways: (3 * L2_FULL_WAYS / 4) * n_cores,
            sensitivity: 1.0,
        }
    }

    /// Sets the chip-wide way budget (builder style).
    #[must_use]
    pub fn total_ways(mut self, ways: usize) -> Self {
        self.total_ways = ways;
        self
    }

    /// Sets the contention sensitivity (builder style).
    #[must_use]
    pub fn sensitivity(mut self, sensitivity: f64) -> Self {
        self.sensitivity = sensitivity;
        self
    }

    /// Checks the configuration for an `n_cores` chip.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadLlcConfig`] when the budget cannot grant
    /// every core at least one way, the sensitivity is negative or
    /// non-finite, or the largest penalty [`SharedLlc::update`] can reach
    /// is not finite.
    pub fn validate(&self, n_cores: usize) -> Result<(), SimError> {
        if self.total_ways < n_cores {
            return Err(SimError::BadLlcConfig {
                what: format!(
                    "total_ways = {} cannot give each of {n_cores} cores one way",
                    self.total_ways
                ),
            });
        }
        if !self.sensitivity.is_finite() || self.sensitivity < 0.0 {
            return Err(SimError::BadLlcConfig {
                what: format!("sensitivity = {} must be finite and >= 0", self.sensitivity),
            });
        }
        // A core applies at most L2_FULL_WAYS ways, which bounds the
        // overflow; the neighbor share in `update` is at most 1.
        let budget = self.total_ways as f64;
        let max_demand = L2_FULL_WAYS as f64 * n_cores as f64;
        if max_demand > budget {
            let worst = 1.0 + self.sensitivity * ((max_demand - budget) / budget);
            if !worst.is_finite() {
                return Err(SimError::BadLlcConfig {
                    what: format!(
                        "sensitivity = {:e} makes the largest penalty {worst} for \
                         {n_cores} cores on {} ways; it must stay finite",
                        self.sensitivity, self.total_ways
                    ),
                });
            }
        }
        Ok(())
    }
}

/// The chip-level contention state: one miss-pressure multiplier per core,
/// refreshed once per epoch from the applied way allocations.
#[derive(Debug, Clone)]
pub struct SharedLlc {
    cfg: LlcConfig,
    penalties: Vec<f64>,
}

impl SharedLlc {
    /// Creates the model for `n_cores` cores, all penalties at `1.0`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadLlcConfig`] when `cfg` fails
    /// [`LlcConfig::validate`] for this core count.
    pub fn new(cfg: LlcConfig, n_cores: usize) -> Result<Self, SimError> {
        cfg.validate(n_cores)?;
        Ok(SharedLlc {
            cfg,
            penalties: vec![1.0; n_cores],
        })
    }

    /// The model's configuration.
    #[must_use]
    pub fn config(&self) -> LlcConfig {
        self.cfg
    }

    /// Number of cores sharing the LLC.
    #[must_use]
    pub fn n_cores(&self) -> usize {
        self.penalties.len()
    }

    /// Recomputes every core's penalty from this epoch's applied way
    /// allocations (indexed by core). Reductions run in core order.
    ///
    /// When the summed demand fits the budget, every penalty is exactly
    /// `1.0`. Above the budget, core `i`'s penalty is
    /// `1 + sensitivity * overflow * (others_i / total)` — it grows with
    /// the *neighbors'* share of the pressure, so ways granted to one core
    /// raise the others' miss traffic more than its own.
    ///
    /// # Panics
    ///
    /// Panics if `applied_ways` does not have one entry per core.
    pub fn update(&mut self, applied_ways: &[f64]) {
        assert_eq!(
            applied_ways.len(),
            self.penalties.len(),
            "way-vector length"
        );
        let budget = self.cfg.total_ways as f64;
        let total: f64 = applied_ways.iter().sum();
        if total <= budget || total <= 0.0 {
            self.penalties.fill(1.0);
            return;
        }
        let overflow = (total - budget) / budget;
        for (p, &ways) in self.penalties.iter_mut().zip(applied_ways) {
            let others = total - ways;
            *p = 1.0 + self.cfg.sensitivity * overflow * (others / total);
        }
    }

    /// The current miss-pressure multiplier for `core`.
    #[must_use]
    pub fn penalty(&self, core: usize) -> f64 {
        self.penalties[core]
    }

    /// All per-core multipliers, indexed by core.
    #[must_use]
    pub fn penalties(&self) -> &[f64] {
        &self.penalties
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_budget_is_exactly_one() {
        let mut llc = SharedLlc::new(LlcConfig::for_cores(4), 4).unwrap();
        llc.update(&[6.0, 6.0, 6.0, 6.0]); // 24 == budget
        assert!(llc
            .penalties()
            .iter()
            .all(|p| p.to_bits() == 1.0f64.to_bits()));
        llc.update(&[2.0, 2.0, 2.0, 2.0]);
        assert!(llc
            .penalties()
            .iter()
            .all(|p| p.to_bits() == 1.0f64.to_bits()));
    }

    #[test]
    fn over_budget_penalizes_everyone() {
        let mut llc = SharedLlc::new(LlcConfig::for_cores(4), 4).unwrap();
        llc.update(&[8.0; 4]); // 32 ways vs 24 budget
        for i in 0..4 {
            assert!(llc.penalty(i) > 1.0, "core {i}");
        }
        // Symmetric demand → symmetric penalty.
        assert_eq!(llc.penalty(0).to_bits(), llc.penalty(3).to_bits());
    }

    #[test]
    fn neighbors_grab_hurts_more_than_own() {
        // Core 0 holds 2 ways, cores 1-3 grab 8 each: core 0 suffers the
        // most (largest neighbor share), the grabbers the least.
        let mut llc = SharedLlc::new(LlcConfig::for_cores(4), 4).unwrap();
        llc.update(&[2.0, 8.0, 8.0, 8.0]);
        assert!(llc.penalty(0) > llc.penalty(1));
        assert!(llc.penalty(1) > 1.0);
    }

    #[test]
    fn update_is_deterministic() {
        let mut a = SharedLlc::new(LlcConfig::for_cores(3), 3).unwrap();
        let mut b = a.clone();
        let ways = [8.0, 6.0, 8.0];
        a.update(&ways);
        b.update(&ways);
        for i in 0..3 {
            assert_eq!(a.penalty(i).to_bits(), b.penalty(i).to_bits());
        }
    }

    #[test]
    fn zero_sensitivity_disables_coupling() {
        let cfg = LlcConfig::for_cores(2).sensitivity(0.0);
        let mut llc = SharedLlc::new(cfg, 2).unwrap();
        llc.update(&[8.0, 8.0]);
        assert_eq!(llc.penalty(0).to_bits(), 1.0f64.to_bits());
        assert_eq!(llc.penalty(1).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(LlcConfig::for_cores(4).total_ways(3).validate(4).is_err());
        assert!(LlcConfig::for_cores(4)
            .sensitivity(-1.0)
            .validate(4)
            .is_err());
        assert!(LlcConfig::for_cores(4)
            .sensitivity(f64::NAN)
            .validate(4)
            .is_err());
        assert!(LlcConfig::for_cores(4).validate(4).is_ok());
    }

    #[test]
    fn sensitivity_whose_largest_penalty_overflows_is_rejected() {
        // 4 cores at 8 ways each on a 4-way budget overflow by 7×.
        let cfg = LlcConfig::for_cores(4).total_ways(4).sensitivity(1e308);
        let err = cfg.validate(4).unwrap_err().to_string();
        assert!(err.contains("largest penalty inf"), "{err}");
        // The worst case it guards: every core at the top of the way grid.
        let mut llc = SharedLlc {
            cfg,
            penalties: vec![1.0; 4],
        };
        llc.update(&[L2_FULL_WAYS as f64; 4]);
        assert!(!llc.penalty(0).is_finite());
        // A budget the cores cannot overflow accepts any finite value.
        let roomy = LlcConfig::for_cores(4).total_ways(4 * L2_FULL_WAYS);
        assert!(roomy.sensitivity(1e308).validate(4).is_ok());
        // The largest finite worst case passes, and `update` stays finite.
        let edge = LlcConfig::for_cores(4)
            .total_ways(4)
            .sensitivity(f64::MAX / 8.0);
        assert!(edge.validate(4).is_ok());
        let mut llc = SharedLlc::new(edge, 4).unwrap();
        llc.update(&[L2_FULL_WAYS as f64; 4]);
        assert!(llc.penalty(0).is_finite());
    }
}
