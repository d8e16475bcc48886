//! The single-chip fleet runtime: one [`Chip`] stepped to completion.
//!
//! Every core owns a plant and a governor, and each 50 µs epoch is one
//! [`Chip::step_epoch`] beat — step every core in core order, arbitrate
//! over the core-indexed observation table with the chip's
//! [`BudgetArbiter`](crate::BudgetArbiter), refresh the shared-LLC
//! penalties, retarget. That beat is written once, in [`Chip`];
//! [`FleetRunner`] only builds the chip, steps it `epochs` times on the
//! calling thread, and drains the results.
//!
//! Determinism: core seeds derive from the base seed and core index only,
//! and the arbiter reduces in core order, so a run is a pure function of
//! its configuration. A one-chip [`ClusterRunner`](crate::ClusterRunner)
//! over the lifted config steps the same [`Chip`] and reproduces a fleet
//! run bit for bit.
//!
//! Parallelism lives one level up: the cluster runtime shards whole chips
//! across scoped threads.

use std::time::Instant;

use mimo_core::governor::{FastController, Governor};
use mimo_core::lqg::LqgController;

use crate::chip::Chip;
use crate::config::{CoreSpec, FleetConfig};
use crate::error::Result;
use crate::stats::FleetStats;
use crate::telemetry::FleetTelemetry;

/// Runs a fleet of independently governed cores under one chip budget.
pub struct FleetRunner {
    chip: Chip,
    epochs: usize,
}

impl FleetRunner {
    /// Builds the fleet, creating each core's governor through `factory`
    /// (called with the core index and resolved spec).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Chip::build`].
    pub fn new<F>(cfg: FleetConfig, mut factory: F) -> Result<Self>
    where
        F: FnMut(usize, &CoreSpec) -> Box<dyn Governor + Send>,
    {
        let epochs = cfg.epochs;
        let chip = Chip::build(0, cfg, &mut factory)?;
        Ok(FleetRunner { chip, epochs })
    }

    /// Builds the fleet around one synthesized MIMO controller — the
    /// paper's deployment model, where a single offline design is shared
    /// by homogeneous cores that each keep only their own state.
    ///
    /// The controller is converted once, by
    /// [`FastController::new`], so a shape that matches a reference
    /// architecture steps on stack-allocated fixed-size kernels, and every
    /// core's governor shares that one converted design. When
    /// [`FleetConfig::banked`] is on (the default) and the shape matches,
    /// the healthy cores additionally step as one structure-of-arrays
    /// [`GovernorBank`](crate::GovernorBank) batch (see
    /// [`Chip::build_banked`]). Both fast paths are bit-identical to the
    /// dynamic per-cell one — the fleet digests do not move.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FleetRunner::new`].
    pub fn with_shared_controller(cfg: FleetConfig, ctrl: &LqgController) -> Result<Self> {
        let epochs = cfg.epochs;
        let chip = Chip::build_banked(0, cfg, &FastController::new(ctrl))?;
        Ok(FleetRunner { chip, epochs })
    }

    /// Number of cores in the fleet.
    pub fn n_cores(&self) -> usize {
        self.chip.n_cores()
    }

    /// Runs the configured number of epochs and returns fleet statistics.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction (which validated the
    /// configuration); the `Result` is kept for API stability.
    pub fn run(self) -> Result<FleetStats> {
        self.run_traced().map(|(stats, _)| stats)
    }

    /// Like [`FleetRunner::run`], but also returns the run's
    /// [`FleetTelemetry`] — populated per-core when the config enabled
    /// telemetry via [`FleetConfig::observer`], empty otherwise.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FleetRunner::run`].
    pub fn run_traced(mut self) -> Result<(FleetStats, FleetTelemetry)> {
        let started = Instant::now();
        for _ in 0..self.epochs {
            self.chip.step_epoch();
        }
        self.chip.add_wall(started.elapsed().as_secs_f64());
        Ok(self.chip.into_results())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbitrationPolicy;
    use crate::error::FleetError;
    use mimo_core::governor::FixedGovernor;
    use mimo_linalg::Vector;
    use mimo_sim::llc::LlcConfig;

    fn fixed_factory() -> impl FnMut(usize, &CoreSpec) -> Box<dyn Governor + Send> {
        |_, _| Box::new(FixedGovernor::new(Vector::from_slice(&[1.3, 6.0])))
    }

    fn small() -> FleetConfig {
        FleetConfig::new(4)
            .epochs(80)
            .policy(ArbitrationPolicy::Proportional)
            .seed(7)
    }

    #[test]
    fn contended_fleet_differs_from_the_uncontended_one() {
        // 1 way/core of budget vs the 6 ways/core the governor holds:
        // sustained contention must bite.
        let tight = LlcConfig::for_cores(4).total_ways(4);
        let contended = FleetRunner::new(small().llc_contention(tight), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        let plain = FleetRunner::new(small(), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        assert_ne!(contended.digest(), plain.digest());
    }

    #[test]
    fn stats_cover_all_cores_and_accumulate_energy() {
        let stats = FleetRunner::new(small(), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(stats.n_cores, 4);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.per_core.len(), 4);
        assert_eq!(stats.epochs, 80);
        assert!(stats.energy_j > 0.0);
        assert!(stats.instructions_g > 0.0);
        assert!(stats.avg_chip_power_w > 0.0);
        assert!(stats.peak_chip_power_w >= stats.avg_chip_power_w);
        for (i, c) in stats.per_core.iter().enumerate() {
            assert_eq!(c.core, i);
            assert!(c.avg_power_w > 0.0, "{c:?}");
        }
    }

    #[test]
    fn different_seed_changes_results() {
        let a = FleetRunner::new(small(), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        let b = FleetRunner::new(small().seed(8), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        assert_ne!(a, b);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn governor_plant_input_mismatch_rejected() {
        let cfg = small(); // FreqCache → 2 inputs
        let err = FleetRunner::new(cfg, |_, _| {
            Box::new(FixedGovernor::new(Vector::from_slice(&[1.3, 6.0, 48.0])))
        });
        assert!(matches!(err, Err(FleetError::InvalidConfig { .. })));
    }

    #[test]
    fn traced_run_matches_untraced_digest_and_fills_telemetry() {
        use mimo_core::telemetry::TelemetryConfig;
        let plain = FleetRunner::new(small(), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        let (traced, telemetry) = FleetRunner::new(
            small().observer(TelemetryConfig::trace(32)),
            fixed_factory(),
        )
        .unwrap()
        .run_traced()
        .unwrap();
        // Observing must not perturb the control pipeline.
        assert_eq!(plain, traced);
        assert_eq!(plain.digest(), traced.digest());
        assert!(telemetry.is_enabled());
        assert_eq!(telemetry.per_core.len(), 4);
        assert_eq!(telemetry.epochs(), 4 * 80);
        for (i, core) in telemetry.per_core.iter().enumerate() {
            assert_eq!(core.core, i);
            assert_eq!(core.trace.len(), 32);
            // Ring keeps the newest records.
            assert_eq!(core.trace.last().unwrap().epoch, 79);
            assert_eq!(core.summary.epochs, 80);
        }
        // Untraced runs return an empty (disabled) telemetry.
        let (_, empty) = FleetRunner::new(small(), fixed_factory())
            .unwrap()
            .run_traced()
            .unwrap();
        assert!(!empty.is_enabled());
    }

    #[test]
    fn zero_epochs_returns_zeroed_stats() {
        let stats = FleetRunner::new(small().epochs(0), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(stats.epochs, 0);
        assert_eq!(stats.cap_violation_epochs, 0);
        assert_eq!(stats.energy_j, 0.0);
        assert_eq!(stats.agg_ips_err_pct, 0.0);
    }
}
