//! Memory pin for the shared-controller fleet: per core, a
//! `FleetRunner::with_shared_controller` fleet holds only what differs
//! between cores — the plant, the loop, the controller state — and not a
//! copy of the synthesized design.
//!
//! A `#[global_allocator]` counts live heap bytes. The heap growth of a
//! 128-core fleet minus that of a 64-core fleet, over 64, is the per-core
//! cost with every per-fleet constant (the one converted design, the
//! arbiter's fixed state) cancelled out. A per-core copy of the gains,
//! scalers, grids, LU factors and Kalman record adds about 2.5 KB per
//! core, which the bound does not allow.
//!
//! Everything runs from ONE `#[test]` function: the counter is
//! process-global, so concurrent tests in the same binary would pollute
//! the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use mimo_core::lqg::{LqgController, LqgDesign};
use mimo_core::StateSpace;
use mimo_fleet::{FleetConfig, FleetRunner};
use mimo_linalg::Matrix;
use mimo_sim::config::{cache_grid, frequency_grid};
use mimo_sysid::scale::ChannelScaler;

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Per-core heap bound, set between the two layouts: with one shared
/// design a core holds about 3.5 KB of heap, with a per-core copy of the
/// design about 6.0 KB.
const MAX_BYTES_PER_CORE: i64 = 4_700;

/// A two-input (frequency, cache), 4-state controller over the plant's own
/// grids: the shape the fleet and cluster benchmarks deploy.
fn controller() -> LqgController {
    let model = StateSpace::new(
        Matrix::diag(&[0.75, 0.65, 0.55, 0.45]),
        Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6], &[0.3, 0.3], &[0.2, 0.1]]),
        Matrix::from_rows(&[&[1.0, 0.2, 0.5, 0.0], &[0.1, 1.0, 0.0, 0.4]]),
        Matrix::zeros(2, 2),
    )
    .unwrap();
    LqgDesign {
        process_noise: Matrix::identity(4).scale(1e-4),
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

/// Live heap bytes a freshly built `n`-core shared-controller fleet holds.
fn fleet_bytes(n: usize, ctrl: &LqgController) -> i64 {
    let before = LIVE.load(Ordering::Relaxed);
    let runner = FleetRunner::with_shared_controller(FleetConfig::new(n).epochs(10), ctrl).unwrap();
    let held = LIVE.load(Ordering::Relaxed) - before;
    drop(runner);
    held
}

#[test]
fn shared_controller_fleet_holds_no_per_core_design() {
    let ctrl = controller();
    // Warm-up: lazily built tables are paid once, outside the measurement.
    fleet_bytes(64, &ctrl);
    let per_core = (fleet_bytes(128, &ctrl) - fleet_bytes(64, &ctrl)) / 64;
    eprintln!("shared-controller fleet: {per_core} heap bytes per core");
    assert!(
        per_core < MAX_BYTES_PER_CORE,
        "{per_core} heap bytes per core; the bound is {MAX_BYTES_PER_CORE}"
    );
}
