//! Proof that a whole chip beat performs zero heap allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator. Two 16-core
//! chips are warmed up — one under the uniform policy, where every core
//! holds its steady grant, and one under a throttling proportional cap
//! with LLC contention, where every core's grant moves every epoch — and
//! then a window of `Chip::step_epoch` calls — governor decide, plant
//! apply, arbitration, LLC update, retarget — must not move the counter,
//! on the banked path the shared-controller runtime steps and on the
//! per-cell path alike.
//!
//! Everything runs from ONE `#[test]` function: the counter is
//! process-global, so concurrent tests in the same binary would pollute
//! the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mimo_core::governor::{fast_governor, FastController};
use mimo_core::lqg::{LqgController, LqgDesign};
use mimo_core::StateSpace;
use mimo_fleet::{ArbitrationPolicy, Chip, FleetConfig};
use mimo_linalg::Matrix;
use mimo_sim::config::{cache_grid, frequency_grid};
use mimo_sim::llc::LlcConfig;
use mimo_sysid::scale::ChannelScaler;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Asserts `window` performs zero allocations. The counter is
/// process-global and the libtest harness occasionally allocates on its
/// own threads mid-window, so a non-zero count is retried: a hot path
/// that truly allocates does so on every attempt, while harness noise
/// (rare to begin with) vanishes across three independent windows.
fn assert_alloc_free(label: &str, mut window: impl FnMut()) {
    let mut deltas = Vec::new();
    for _ in 0..3 {
        let before = allocations();
        window();
        let delta = allocations() - before;
        if delta == 0 {
            return;
        }
        deltas.push(delta);
    }
    panic!("{label} allocated on every attempt: {deltas:?}");
}

/// A two-input (frequency, cache) controller over the plant's own grids.
fn controller() -> LqgController {
    let model = StateSpace::new(
        Matrix::diag(&[0.7, 0.6]),
        Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6]]),
        Matrix::identity(2),
        Matrix::zeros(2, 2),
    )
    .unwrap();
    LqgDesign {
        process_noise: Matrix::identity(2).scale(1e-4),
        measurement_noise: Matrix::identity(2).scale(1e-4),
        output_weights: vec![1.0, 1.0],
        input_weights: vec![0.1, 0.1],
        integral_weight: 0.05,
        input_scaler: ChannelScaler::from_ranges(&[(0.5, 2.0), (2.0, 8.0)]),
        output_scaler: ChannelScaler::from_ranges(&[(0.0, 5.0), (0.0, 3.0)]),
        input_grids: vec![
            frequency_grid().values().to_vec(),
            cache_grid().values().to_vec(),
        ],
        model,
    }
    .build()
    .unwrap()
}

#[test]
fn chip_epoch_beat_is_allocation_free() {
    let ctrl = controller();
    let uniform = FleetConfig::new(16)
        .policy(ArbitrationPolicy::Uniform)
        .epochs(400)
        .seed(5);
    // Under a throttling cap the proportional arbiter hands every core a
    // new grant each epoch, so retarget re-solves the steady state on
    // every core; the shared LLC moves the plants' miss penalties too.
    let contended = FleetConfig::new(16)
        .policy(ArbitrationPolicy::Proportional)
        .power_cap(12.8)
        .llc_contention(LlcConfig::for_cores(16).total_ways(64))
        .epochs(400)
        .seed(5);
    for (name, cfg) in [("uniform", uniform), ("contended", contended)] {
        let banked = Chip::build_banked(0, cfg.clone(), &FastController::new(&ctrl)).unwrap();
        let per_cell = Chip::build(0, cfg, &mut |_, _| fast_governor(ctrl.clone())).unwrap();
        for (path, mut chip) in [("banked", banked), ("per-cell", per_cell)] {
            let label = format!("{name} {path} chip");
            // Warm-up: the first arbitration moves every reference off the
            // base targets; from then on the uniform grant repeats bit for
            // bit, and the contended grants keep moving.
            for _ in 0..20 {
                chip.step_epoch();
            }
            assert_alloc_free(&label, || {
                for _ in 0..100 {
                    chip.step_epoch();
                }
            });
            let (stats, _) = chip.into_results();
            assert_eq!(stats.quarantined_cores, 0, "{label}");
            if name == "contended" {
                assert!(stats.throttle_events > 0, "{label}: the cap never bit");
            }
        }
    }
}
