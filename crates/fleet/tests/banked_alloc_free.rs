//! Proof that a `GovernorBank`'s steady-state epoch performs zero heap
//! allocations.
//!
//! Mirrors `mimo-core`'s `alloc_free` suite for the bank `benchmark/`'s
//! traced rebuild steps: a counting `#[global_allocator]` wraps the
//! system allocator, the bank is warmed up (including one screened
//! failure), and then full load → step → decide epochs — with
//! unchanged-reference retargets and occasional screened measurements —
//! must not move the counter.
//!
//! Everything runs from ONE `#[test]` function: the counter is
//! process-global, so concurrent tests in the same binary would pollute
//! the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mimo_core::lqg::{LqgController, LqgDesign};
use mimo_core::StateSpace;
use mimo_fleet::GovernorBank;
use mimo_linalg::{Matrix, Vector};
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

fn controller() -> LqgController {
    let model = StateSpace::new(
        Matrix::diag(&[0.7, 0.6]),
        Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6]]),
        Matrix::identity(2),
        Matrix::zeros(2, 2),
    )
    .unwrap();
    let grid: Vec<f64> = (0..201).map(|i| -1.0 + 0.01 * i as f64).collect();
    LqgDesign {
        process_noise: Matrix::identity(2).scale(1e-4),
        measurement_noise: Matrix::identity(2).scale(1e-4),
        output_weights: vec![1.0, 1.0],
        input_weights: vec![0.1, 0.1],
        integral_weight: 0.05,
        input_scaler: ChannelScaler::from_ranges(&[(-1.0, 1.0), (-1.0, 1.0)]),
        output_scaler: ChannelScaler::from_ranges(&[(-5.0, 5.0), (-5.0, 5.0)]),
        input_grids: vec![grid.clone(), grid],
        model,
    }
    .build()
    .unwrap()
}

fn y_of(slot: usize, epoch: usize) -> [f64; 2] {
    let x = epoch as f64 * 0.171 + slot as f64 * 1.3;
    [0.4 * x.sin(), 0.2 * (2.9 * x).cos()]
}

#[test]
fn banked_epoch_hot_path_is_allocation_free() {
    let proto = controller()
        .into_static::<2, 2, 2, 6>()
        .expect("shape matches");
    let mut bank: GovernorBank<2, 2, 2, 6> = GovernorBank::new(&proto);
    let n = 16;
    let base = Vector::from_slice(&[0.6, 0.4]);
    for core in 0..n {
        let slot = bank.enroll(core);
        bank.set_target(slot, &base);
    }

    // Warm-up: steady epochs, plus one screened failure.
    for epoch in 0..8 {
        for slot in 0..n {
            let mut y = y_of(slot, epoch);
            if epoch == 3 && slot == 5 {
                y[0] = f64::NAN;
            }
            bank.load_measurement(slot, &y);
        }
        bank.step_all();
        for slot in 0..n {
            let _ = bank.decision(slot);
        }
    }

    // The steady-state window: full epochs, unchanged-reference
    // retargets, and a screened failure mid-window — all allocation-free.
    assert_alloc_free("banked epochs", || {
        for epoch in 8..40 {
            for slot in 0..n {
                let mut y = y_of(slot, epoch);
                if epoch == 20 && slot == 11 {
                    y[0] = f64::NAN;
                }
                bank.load_measurement(slot, &y);
            }
            bank.step_all();
            for slot in 0..n {
                let out = bank.decision(slot);
                if epoch == 20 && slot == 11 {
                    assert!(out.is_err(), "screened slot must report the failure");
                } else {
                    assert!(out.is_ok());
                }
            }
            for slot in 0..n {
                bank.set_target(slot, &base);
            }
        }
    });
}
