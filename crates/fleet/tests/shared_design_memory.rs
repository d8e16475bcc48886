//! Memory pin for the shared-controller fleet: per core, a
//! `FleetRunner::with_shared_controller` fleet holds only what is the
//! core's own — the plant, the loop's buffers, the governor's state — and
//! neither a copy of the synthesized design, nor a copy of the actuator
//! grids, nor fault buffers a fault-free core never uses, nor controller
//! scratch.
//!
//! A `#[global_allocator]` counts live heap bytes and live blocks. The
//! growth of a 128-core fleet minus that of a 64-core fleet, over 64, is
//! the per-core cost with every per-fleet constant (the one converted
//! design, the arbiter's fixed state) cancelled out. A per-core copy of
//! the gains, scalers, grids, LU factors and Kalman record adds about
//! 2.5 KB per core, a per-core copy of the actuator grids about 300 B,
//! and idle fault buffers about 300 B; the bounds allow none of them.
//!
//! Everything runs from ONE `#[test]` function: the counters are
//! process-global, so concurrent tests in the same binary would pollute
//! the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use mimo_core::lqg::{LqgController, LqgDesign};
use mimo_core::StateSpace;
use mimo_fleet::{FleetConfig, FleetRunner};
use mimo_linalg::Matrix;
use mimo_sim::config::{cache_grid, frequency_grid};
use mimo_sim::fault::{FaultInjector, FaultPlan};
use mimo_sim::ProcessorBuilder;
use mimo_sysid::scale::ChannelScaler;

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);
static BLOCKS: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicI64 = AtomicI64::new(0);

fn count_alloc(size: usize) {
    LIVE.fetch_add(size as i64, Ordering::Relaxed);
    BLOCKS.fetch_add(1, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        BLOCKS.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Per-core heap bound, just above the measured 1,319 B: about 990 B of
/// core cell inline in the chip's cell vector (the plant, the fault
/// wrapper's fixed fields, the epoch loop), the boxed governor (152 B:
/// its shared design's `Arc` and its state), the loop's four
/// measurement/actuation buffers, the core's reference and error
/// accumulator, and the chip's per-core tables. Before the actuator grid
/// copy, the idle fault buffers, the controller scratch and the plant's
/// app-name copy went, a core held 2,141 B in 16 blocks.
const MAX_BYTES_PER_CORE: i64 = 1_400;

/// Per-core bound on live heap blocks, just above the measured 9.
const MAX_BLOCKS_PER_CORE: i64 = 10;

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

/// Live heap bytes and blocks a freshly built `n`-core shared-controller
/// fleet holds.
fn fleet_footprint(n: usize, ctrl: &LqgController) -> (i64, i64) {
    let (bytes, blocks) = (LIVE.load(Ordering::Relaxed), BLOCKS.load(Ordering::Relaxed));
    let runner = FleetRunner::with_shared_controller(FleetConfig::new(n).epochs(10), ctrl).unwrap();
    let held = (
        LIVE.load(Ordering::Relaxed) - bytes,
        BLOCKS.load(Ordering::Relaxed) - blocks,
    );
    drop(runner);
    held
}

/// Allocations `FaultInjector::new` makes around an already built plant.
fn injector_allocs(plan: FaultPlan) -> i64 {
    let plant = ProcessorBuilder::new().app("astar").build().unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let injector = FaultInjector::new(plant, plan);
    let made = ALLOCS.load(Ordering::Relaxed) - before;
    drop(injector);
    made
}

#[test]
fn shared_controller_fleet_holds_no_per_core_design() {
    let ctrl = controller();
    // Warm-up: lazily built tables are paid once, outside the measurement.
    fleet_footprint(64, &ctrl);
    let (bytes_128, blocks_128) = fleet_footprint(128, &ctrl);
    let (bytes_64, blocks_64) = fleet_footprint(64, &ctrl);
    let per_core = (bytes_128 - bytes_64) / 64;
    let blocks_per_core = (blocks_128 - blocks_64) / 64;
    eprintln!(
        "shared-controller fleet: {per_core} heap bytes and {blocks_per_core} live allocations per core"
    );
    assert!(
        per_core < MAX_BYTES_PER_CORE,
        "{per_core} heap bytes per core; the bound is {MAX_BYTES_PER_CORE}"
    );
    assert!(
        blocks_per_core < MAX_BLOCKS_PER_CORE,
        "{blocks_per_core} live allocations per core; the bound is {MAX_BLOCKS_PER_CORE}"
    );

    // A plan that cannot fire costs the injector nothing of its own.
    assert_eq!(injector_allocs(FaultPlan::none()), 0);
    assert_eq!(injector_allocs(FaultPlan::transient(0.0, 3, 1)), 0);
    // One that can fire holds its buffers: the two per-channel vectors,
    // plus the transient list when it has a transient process.
    assert_eq!(injector_allocs(FaultPlan::transient(0.01, 3, 1)), 3);
}
