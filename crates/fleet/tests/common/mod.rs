//! The counting allocator and the controller both per-core footprint
//! tests share. Each test binary installs the allocator for itself, so
//! the counters see only that binary's own heap.

// Each test binary uses part of the counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use mimo_core::lqg::{LqgController, LqgDesign};
use mimo_core::StateSpace;
use mimo_linalg::Matrix;
use mimo_sim::config::{cache_grid, frequency_grid};
use mimo_sysid::scale::ChannelScaler;

/// Per-core heap bound of a shared-controller core, fleet or cluster,
/// just above the measured 889 B: about 600 B of core cell inline in the
/// chip's cell vector (the plant, the fault wrapper's epoch counter and
/// null state pointer, the epoch loop with null sink and history
/// pointers, the error accumulator), the boxed governor (152 B: its
/// shared design's `Arc` and its state), the loop's four
/// measurement/actuation buffers, the accumulator's sums, and the chip's
/// per-core tables. Before the actuator grid copy, the idle fault
/// buffers, the controller scratch and the plant's app-name copy went, a
/// core held 2,141 B in 16 blocks; before the fault state, sink and
/// history were boxed and the per-core grant and spec copies went, 1,319 B
/// in 9.
pub const MAX_BYTES_PER_CORE: i64 = 950;

/// Per-core bound on live heap blocks: at most the measured 6.
pub const MAX_BLOCKS_PER_CORE: i64 = 7;

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

/// Live heap bytes and blocks of what `build` returns, measured while it
/// is still alive.
pub fn held<T>(build: impl FnOnce() -> T) -> (i64, i64) {
    let (bytes, blocks) = (LIVE.load(Ordering::Relaxed), BLOCKS.load(Ordering::Relaxed));
    let built = build();
    let held = (
        LIVE.load(Ordering::Relaxed) - bytes,
        BLOCKS.load(Ordering::Relaxed) - blocks,
    );
    drop(built);
    held
}

/// Allocations `f` makes.
pub fn allocations<T>(f: impl FnOnce() -> T) -> i64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let made = f();
    let count = ALLOCS.load(Ordering::Relaxed) - before;
    drop(made);
    count
}

/// Checks `(per_core_bytes, per_core_blocks)` against the shared bounds.
pub fn assert_within_bounds(what: &str, per_core: i64, blocks_per_core: i64) {
    eprintln!("{what}: {per_core} heap bytes and {blocks_per_core} live allocations per core");
    assert!(
        per_core < MAX_BYTES_PER_CORE,
        "{what}: {per_core} heap bytes per core; the bound is {MAX_BYTES_PER_CORE}"
    );
    assert!(
        blocks_per_core < MAX_BLOCKS_PER_CORE,
        "{what}: {blocks_per_core} live allocations per core; the bound is {MAX_BLOCKS_PER_CORE}"
    );
}

/// A two-input (frequency, cache), 4-state controller over the plant's own
/// grids: the shape the fleet and cluster benchmarks deploy.
pub fn controller() -> LqgController {
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
