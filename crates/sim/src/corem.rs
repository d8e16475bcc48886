//! Interval performance model of the out-of-order core.
//!
//! Per epoch we compute cycles-per-instruction from first-order
//! interval-analysis components (Karkhanis & Smith style, the same
//! modeling tradition the paper cites as \[28\]):
//!
//! ```text
//! CPI = CPI_base(ILP, issue width, ROB)
//!     + CPI_L1   (L1-miss/L2-hit stalls, partially overlapped)
//!     + CPI_L2   (memory stalls, divided by the exposed MLP)
//!     + CPI_br   (branch-misprediction flushes)
//! ```
//!
//! Two architecture couplings make the control problem genuinely MIMO:
//!
//! * memory latency is wall-clock, so raising the *frequency* inflates the
//!   miss penalty in cycles — frequency helps compute-bound phases and is
//!   nearly useless for memory-bound ones;
//! * the *ROB size* gates both the exploitable ILP and the memory-level
//!   parallelism, so it interacts with both the cache and the frequency.

use crate::cache::{l1_mpki_steady, l2_mpki_steady, CacheState, L2_LATENCY_CYCLES, MEM_LATENCY_NS};
use crate::config::PlantConfig;
use crate::workload::Phase;

/// Machine issue width (Table III: 3-issue out of order).
pub const ISSUE_WIDTH: f64 = 3.0;

/// Pipeline refill penalty per branch mispredict, in cycles.
pub const BRANCH_PENALTY_CYCLES: f64 = 14.0;

/// Fraction of L2-hit latency that the out-of-order window cannot hide.
const L1_MISS_EXPOSURE: f64 = 0.35;

/// ROB size at which a phase's intrinsic ILP is fully exposed.
const ROB_KNEE: f64 = 96.0;

/// Effective ILP after the ROB window limit.
///
/// `rob_sens = 0` means the phase hits its intrinsic ILP with any window;
/// `rob_sens = 1` means ILP scales as `(rob / 96)^0.5` below the knee.
pub fn effective_ilp(phase: &Phase, rob_entries: usize) -> f64 {
    let window = (rob_entries as f64 / ROB_KNEE).min(1.0);
    let factor = window.powf(0.5 * phase.rob_sens * 2.0);
    (phase.ilp * ((1.0 - phase.rob_sens) + phase.rob_sens * factor)).max(0.05)
}

/// Memory-level parallelism exposed by a ROB of the given size.
///
/// Grows with the square root of the window, saturating at the phase's
/// intrinsic `mem_parallelism`.
pub fn effective_mlp(phase: &Phase, rob_entries: usize) -> f64 {
    let window = (rob_entries as f64 / 128.0).clamp(0.05, 1.0);
    (1.0 + (phase.mem_parallelism - 1.0) * window.sqrt()).max(1.0)
}

/// The per-component CPI breakdown for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiBreakdown {
    /// Issue/ILP-limited base CPI.
    pub base: f64,
    /// L1-miss (L2-hit) stall CPI.
    pub l1: f64,
    /// L2-miss (memory) stall CPI.
    pub l2: f64,
    /// Branch-flush CPI.
    pub branch: f64,
}

impl CpiBreakdown {
    /// Total CPI.
    pub fn total(&self) -> f64 {
        self.base + self.l1 + self.l2 + self.branch
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        1.0 / self.total()
    }
}

/// The CPI-model terms fixed by a phase, a configuration and the active L2
/// way count: everything but the per-epoch miss jitter and cache warmth.
///
/// The plant keeps one and rebuilds it only when its configuration or its
/// smoothed phase moves, which spares the three `powf` and one `sqrt`
/// behind these terms on every other epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CpiTerms {
    base: f64,
    l1_mpki_steady: f64,
    l2_mpki_steady: f64,
    mem_latency_cycles: f64,
    mlp: f64,
    branch: f64,
}

impl CpiTerms {
    pub(crate) fn new(phase: &Phase, config: &PlantConfig, l2_ways: usize) -> Self {
        let ilp = effective_ilp(phase, config.rob_entries);
        CpiTerms {
            base: 1.0 / ilp.min(ISSUE_WIDTH),
            l1_mpki_steady: l1_mpki_steady(phase, config.l1_ways()),
            l2_mpki_steady: l2_mpki_steady(phase, l2_ways),
            mem_latency_cycles: MEM_LATENCY_NS * config.freq_ghz,
            mlp: effective_mlp(phase, config.rob_entries),
            branch: phase.branch_mpki / 1000.0 * BRANCH_PENALTY_CYCLES,
        }
    }

    /// The breakdown with `cache`'s warm-up transient and `mpki_jitter`
    /// applied to the miss traffic.
    pub(crate) fn breakdown(&self, cache: &CacheState, mpki_jitter: f64) -> CpiBreakdown {
        let l1_mpki = self.l1_mpki_steady * mpki_jitter;
        let l1 = l1_mpki / 1000.0 * L2_LATENCY_CYCLES * L1_MISS_EXPOSURE;

        let l2_mpki = cache.with_cold_misses(self.l2_mpki_steady) * mpki_jitter;
        let l2 = l2_mpki / 1000.0 * self.mem_latency_cycles / self.mlp;

        CpiBreakdown {
            base: self.base,
            l1,
            l2,
            branch: self.branch,
        }
    }
}

/// Computes the CPI breakdown for a phase under a configuration.
///
/// `cache` supplies the active L2 ways and the transient-aware L2 miss
/// rate; `mpki_jitter` is a multiplicative non-determinism factor
/// (interrupts, input-dependent behavior) applied to the miss traffic,
/// nominally `1.0`.
pub fn cpi(
    phase: &Phase,
    config: &PlantConfig,
    cache: &CacheState,
    mpki_jitter: f64,
) -> CpiBreakdown {
    CpiTerms::new(phase, config, cache.ways()).breakdown(cache, mpki_jitter)
}

/// Performance in billions of instructions per second for a phase under a
/// configuration (no transient stalls).
pub fn bips(phase: &Phase, config: &PlantConfig, cache: &CacheState, mpki_jitter: f64) -> f64 {
    cpi(phase, config, cache, mpki_jitter).ipc() * config.freq_ghz
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::lookup;

    fn warm_cache(ways: usize) -> CacheState {
        CacheState::new(ways)
    }

    #[test]
    fn compute_bound_scales_with_frequency() {
        let p = lookup("namd").unwrap().phases()[0];
        let cache = warm_cache(8);
        let slow = PlantConfig {
            freq_ghz: 0.5,
            ..PlantConfig::max()
        };
        let fast = PlantConfig::max();
        let b_slow = bips(&p, &slow, &cache, 1.0);
        let b_fast = bips(&p, &fast, &cache, 1.0);
        // Near-linear scaling for compute-bound code: 4x freq → ≥3.2x perf.
        assert!(b_fast / b_slow > 3.2, "ratio {}", b_fast / b_slow);
    }

    #[test]
    fn memory_bound_barely_scales_with_frequency() {
        let p = lookup("lbm").unwrap().phases()[0];
        let cache = warm_cache(8);
        let slow = PlantConfig {
            freq_ghz: 0.5,
            ..PlantConfig::max()
        };
        let fast = PlantConfig::max();
        let ratio = bips(&p, &fast, &cache, 1.0) / bips(&p, &slow, &cache, 1.0);
        assert!(ratio < 2.1, "memory-bound freq scaling ratio {ratio}");
    }

    #[test]
    fn responsive_apps_can_reach_the_ips_target() {
        // §VII-B1 targets 2.5 BIPS; every responsive app must reach it at
        // some configuration (we check the max configuration, warm cache).
        for name in crate::workload::responsive_production_names() {
            let app = lookup(name).unwrap();
            let best = app
                .phases()
                .iter()
                .map(|p| bips(p, &PlantConfig::max(), &warm_cache(8), 1.0))
                .fold(0.0_f64, f64::max);
            assert!(best >= 2.4, "{name} peaks at {best:.2} BIPS");
        }
    }

    #[test]
    fn non_responsive_apps_cannot_reach_the_ips_target() {
        for name in crate::workload::NON_RESPONSIVE {
            let app = lookup(name).unwrap();
            // Even the best phase at the max configuration stays below 2.5.
            let best = app
                .phases()
                .iter()
                .map(|p| bips(p, &PlantConfig::max(), &warm_cache(8), 1.0))
                .fold(0.0_f64, f64::max);
            assert!(best < 2.45, "{name} reaches {best:.2} BIPS");
        }
    }

    #[test]
    fn training_apps_reach_the_target() {
        for name in crate::workload::TRAINING_SET {
            let app = lookup(name).unwrap();
            let best = app
                .phases()
                .iter()
                .map(|p| bips(p, &PlantConfig::max(), &warm_cache(8), 1.0))
                .fold(0.0_f64, f64::max);
            assert!(best >= 2.4, "{name} peaks at {best:.2} BIPS");
        }
    }

    #[test]
    fn cache_helps_cache_sensitive_phases() {
        let p = lookup("milc").unwrap().phases()[0];
        let small = PlantConfig {
            l2_ways: 2,
            ..PlantConfig::max()
        };
        let big = PlantConfig::max();
        let b_small = bips(&p, &small, &warm_cache(2), 1.0);
        let b_big = bips(&p, &big, &warm_cache(8), 1.0);
        assert!(b_big > 1.2 * b_small, "cache speedup {}", b_big / b_small);
    }

    #[test]
    fn cache_barely_helps_streamers() {
        let p = lookup("libquantum").unwrap().phases()[0];
        let small = PlantConfig {
            l2_ways: 2,
            ..PlantConfig::max()
        };
        let b_small = bips(&p, &small, &warm_cache(2), 1.0);
        let b_big = bips(&p, &PlantConfig::max(), &warm_cache(8), 1.0);
        assert!(
            b_big < 1.15 * b_small,
            "streamer speedup {}",
            b_big / b_small
        );
    }

    #[test]
    fn rob_helps_window_limited_phases() {
        let p = lookup("lbm").unwrap().phases()[0]; // high rob_sens + MLP
        let small_rob = PlantConfig {
            rob_entries: 16,
            ..PlantConfig::max()
        };
        let b_small = bips(&p, &small_rob, &warm_cache(8), 1.0);
        let b_big = bips(&p, &PlantConfig::max(), &warm_cache(8), 1.0);
        assert!(b_big > 1.3 * b_small, "ROB speedup {}", b_big / b_small);
    }

    #[test]
    fn ipc_never_exceeds_issue_width() {
        for app in crate::workload::catalog() {
            for p in app.phases() {
                let c = cpi(p, &PlantConfig::max(), &warm_cache(8), 1.0);
                assert!(c.ipc() <= ISSUE_WIDTH + 1e-12);
            }
        }
    }

    #[test]
    fn jitter_moves_miss_components_only() {
        let p = lookup("milc").unwrap().phases()[0];
        let cfg = PlantConfig::baseline();
        let cache = warm_cache(6);
        let lo = cpi(&p, &cfg, &cache, 0.8);
        let hi = cpi(&p, &cfg, &cache, 1.2);
        assert_eq!(lo.base, hi.base);
        assert_eq!(lo.branch, hi.branch);
        assert!(lo.l1 < hi.l1);
        assert!(lo.l2 < hi.l2);
    }

    #[test]
    fn effective_ilp_monotone_in_rob() {
        let p = Phase {
            rob_sens: 0.8,
            ..Phase::nominal()
        };
        let mut prev = 0.0;
        for rob in [16, 32, 48, 64, 96, 128] {
            let ilp = effective_ilp(&p, rob);
            assert!(ilp >= prev);
            prev = ilp;
        }
        assert!((effective_ilp(&p, 128) - p.ilp).abs() < 1e-9);
    }

    #[test]
    fn effective_mlp_bounded() {
        let p = Phase {
            mem_parallelism: 6.0,
            ..Phase::nominal()
        };
        assert!(effective_mlp(&p, 16) >= 1.0);
        assert!(effective_mlp(&p, 128) <= 6.0 + 1e-12);
        assert!(effective_mlp(&p, 128) > effective_mlp(&p, 16));
    }

    #[test]
    fn breakdown_total_is_sum() {
        let p = Phase::nominal();
        let c = cpi(&p, &PlantConfig::baseline(), &warm_cache(6), 1.0);
        let sum = c.base + c.l1 + c.l2 + c.branch;
        assert!((c.total() - sum).abs() < 1e-15);
        assert!((c.ipc() * c.total() - 1.0).abs() < 1e-12);
    }
}
