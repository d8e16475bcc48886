//! Cache hierarchy model: way-gating and warm-up dynamics.
//!
//! The paper resizes the L1 and L2 by power-gating ways together —
//! (L2, L1) associativity pairs (8,4), (6,3), (4,2), (2,1). Two effects
//! matter to the controller:
//!
//! 1. **Steady-state miss rates** grow as ways shrink. We model per-phase
//!    miss curves as a power law `mpki(w) = mpki_full · (w_full / w)^s`
//!    where `s` is the phase's cache sensitivity — streaming phases have
//!    `s ≈ 0.25` (caching barely helps), blocked kernels `s ≈ 2+`.
//! 2. **Transient warm-up** after enabling ways: newly powered ways are
//!    cold and refill over tens of microseconds. This is one of the main
//!    plant *dynamics* the identified state-space model must capture, and
//!    it is why cache actuation carries a high control-effort weight
//!    (§IV-B2).

use crate::workload::Phase;

/// Full (ungated) L2 associativity.
pub const L2_FULL_WAYS: usize = 8;

/// L2 hit latency in core cycles (Table III: 18 cycles).
pub const L2_LATENCY_CYCLES: f64 = 18.0;

/// Main-memory latency in nanoseconds. Table III gives 125 cycles at the
/// 1.3 GHz baseline clock; memory latency is wall-clock, so in cycles it
/// scales with frequency.
pub const MEM_LATENCY_NS: f64 = 125.0 / 1.3;

/// Fraction of an epoch's fill completed per epoch after a resize
/// (first-order warm-up with a ~6-epoch time constant).
const WARMUP_RATE: f64 = 0.16;

/// Extra misses while cold, as a multiple of the steady-state rate.
const COLD_MISS_FACTOR: f64 = 1.8;

/// Steady-state L2 misses per kilo-instruction for a phase at `ways`
/// active L2 ways.
///
/// # Panics
///
/// Panics if `ways` is zero.
pub fn l2_mpki_steady(phase: &Phase, ways: usize) -> f64 {
    assert!(ways > 0, "cache must keep at least one way");
    phase.l2_mpki * (L2_FULL_WAYS as f64 / ways as f64).powf(phase.cache_sens)
}

/// Steady-state L1-miss-L2-hit traffic per kilo-instruction at `l1_ways`
/// active L1 ways (full = 4). L1 miss curves are shallower than L2's.
///
/// # Panics
///
/// Panics if `l1_ways` is zero.
pub fn l1_mpki_steady(phase: &Phase, l1_ways: usize) -> f64 {
    assert!(l1_ways > 0, "L1 must keep at least one way");
    phase.l1_mpki * (4.0 / l1_ways as f64).powf(0.5 * phase.cache_sens)
}

/// Warm-up state of the gated caches.
///
/// `warmth = 1.0` means fully warm; after enabling ways it drops toward
/// the fraction of the cache that held data, then recovers first-order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheState {
    warmth: f64,
    ways: usize,
}

impl CacheState {
    /// A fully warm cache at the given L2 way count.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(ways: usize) -> Self {
        assert!(ways > 0);
        CacheState { warmth: 1.0, ways }
    }

    /// Current warmth in `[0, 1]`.
    pub fn warmth(&self) -> f64 {
        self.warmth
    }

    /// Current active L2 ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Applies a resize. Growing leaves the new ways cold (warmth falls to
    /// `old/new` of its prior value); shrinking keeps the surviving ways'
    /// contents but loses a little locality (small warmth penalty).
    pub fn resize(&mut self, new_ways: usize) {
        assert!(new_ways > 0);
        if new_ways > self.ways {
            self.warmth *= self.ways as f64 / new_ways as f64;
        } else if new_ways < self.ways {
            self.warmth = (self.warmth * 0.95).min(1.0);
        }
        self.ways = new_ways;
    }

    /// Advances one epoch of warm-up.
    pub fn tick(&mut self) {
        self.warmth += (1.0 - self.warmth) * WARMUP_RATE;
        self.warmth = self.warmth.min(1.0);
    }

    /// Effective L2 MPKI for `phase` right now, including the cold-miss
    /// transient.
    pub fn effective_l2_mpki(&self, phase: &Phase) -> f64 {
        self.with_cold_misses(l2_mpki_steady(phase, self.ways))
    }

    /// Scales a steady-state L2 miss rate by the current cold-miss
    /// transient.
    pub(crate) fn with_cold_misses(&self, steady: f64) -> f64 {
        steady * (1.0 + COLD_MISS_FACTOR * (1.0 - self.warmth))
    }
}

impl Default for CacheState {
    fn default() -> Self {
        CacheState::new(L2_FULL_WAYS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(sens: f64, mpki: f64) -> Phase {
        Phase {
            cache_sens: sens,
            l2_mpki: mpki,
            ..Phase::nominal()
        }
    }

    #[test]
    fn steady_mpki_grows_as_ways_shrink() {
        let p = phase(1.5, 2.0);
        let full = l2_mpki_steady(&p, 8);
        let half = l2_mpki_steady(&p, 4);
        let min = l2_mpki_steady(&p, 2);
        assert!(full < half && half < min);
        assert!((full - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sensitivity_controls_growth() {
        let shallow = phase(0.25, 10.0);
        let steep = phase(2.5, 1.0);
        let shallow_ratio = l2_mpki_steady(&shallow, 2) / l2_mpki_steady(&shallow, 8);
        let steep_ratio = l2_mpki_steady(&steep, 2) / l2_mpki_steady(&steep, 8);
        assert!(
            shallow_ratio < 1.6,
            "streaming barely cares: {shallow_ratio}"
        );
        assert!(
            steep_ratio > 10.0,
            "blocked kernel collapses: {steep_ratio}"
        );
    }

    #[test]
    fn l1_curve_is_shallower() {
        let p = phase(2.0, 2.0);
        let l2_ratio = l2_mpki_steady(&p, 2) / l2_mpki_steady(&p, 8);
        let l1_ratio = l1_mpki_steady(&p, 1) / l1_mpki_steady(&p, 4);
        assert!(l1_ratio < l2_ratio);
    }

    #[test]
    fn growing_cools_the_cache() {
        let mut c = CacheState::new(4);
        assert_eq!(c.warmth(), 1.0);
        c.resize(8);
        assert!((c.warmth() - 0.5).abs() < 1e-12);
        assert_eq!(c.ways(), 8);
    }

    #[test]
    fn shrinking_keeps_most_warmth() {
        let mut c = CacheState::new(8);
        c.resize(4);
        assert!(c.warmth() > 0.9);
    }

    #[test]
    fn warmup_recovers_first_order() {
        let mut c = CacheState::new(4);
        c.resize(8);
        let w0 = c.warmth();
        for _ in 0..10 {
            c.tick();
        }
        let w10 = c.warmth();
        assert!(w10 > w0);
        for _ in 0..100 {
            c.tick();
        }
        assert!(c.warmth() > 0.999);
    }

    #[test]
    fn cold_cache_misses_more() {
        let p = phase(1.0, 3.0);
        let mut c = CacheState::new(4);
        c.resize(8);
        let cold = c.effective_l2_mpki(&p);
        for _ in 0..200 {
            c.tick();
        }
        let warm = c.effective_l2_mpki(&p);
        assert!(cold > warm * 1.5, "cold {cold} vs warm {warm}");
        assert!((warm - l2_mpki_steady(&p, 8)).abs() < 1e-3);
    }

    #[test]
    fn noop_resize_keeps_warmth() {
        let mut c = CacheState::new(8);
        c.resize(8);
        assert_eq!(c.warmth(), 1.0);
    }

    #[test]
    fn memory_latency_constant_is_wall_clock() {
        // 125 cycles at 1.3 GHz ≈ 96 ns.
        assert!((MEM_LATENCY_NS - 96.15).abs() < 0.1);
    }
}
