//! Heap use of `Processor::sweep`: per candidate, never per epoch.
//!
//! A counting `#[global_allocator]` wraps the system allocator. A sweep of
//! the 128-configuration three-input grid must allocate the same number of
//! times and the same number of bytes over 40 epochs as over 400, and its
//! bytes must grow with the candidate count only. Run with `--nocapture`
//! to print the heap size of one 128-candidate sweep.
//!
//! Everything is measured from ONE `#[test]` function: the counter is
//! process-global, so concurrent tests in the same binary would pollute
//! the measurement windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mimo_sim::{InputSet, PlantConfig, Processor, ProcessorBuilder};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations and bytes requested by one sweep.
fn measure(plant: &Processor, configs: &[PlantConfig], epochs: usize) -> (u64, u64) {
    let (a0, b0) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let totals = plant.sweep(configs, epochs);
    let counts = (
        ALLOCATIONS.load(Ordering::Relaxed) - a0,
        BYTES.load(Ordering::Relaxed) - b0,
    );
    assert_eq!(totals.len(), configs.len());
    counts
}

#[test]
fn sweep_allocates_per_candidate_not_per_epoch() {
    // The three-input Baseline grid: every other frequency, all cache
    // levels, every other ROB size.
    let mut grid = Vec::new();
    for i in 0..8 {
        for l2_ways in [2, 4, 6, 8] {
            for rob_entries in [32, 64, 96, 128] {
                grid.push(PlantConfig {
                    freq_ghz: ((0.5 + 0.2 * i as f64) * 10.0).round() / 10.0,
                    l2_ways,
                    rob_entries,
                });
            }
        }
    }
    assert_eq!(grid.len(), 128);
    let plant = ProcessorBuilder::new()
        .app("gcc")
        .seed(2016)
        .input_set(InputSet::FreqCacheRob)
        .build()
        .unwrap();

    let short = measure(&plant, &grid, 40);
    let long = measure(&plant, &grid, 400);
    assert_eq!(
        short, long,
        "(allocations, bytes) moved with the epoch count"
    );
    let half = measure(&plant, &grid[..64], 400);
    assert_eq!(half.0, long.0, "allocation count moved with the candidates");
    assert_eq!(2 * half.1, long.1, "bytes are not linear in the candidates");
    let (allocations, bytes) = long;
    println!(
        "sweep of {} candidates: {allocations} allocations, {bytes} B ({} B per candidate)",
        grid.len(),
        bytes / grid.len() as u64
    );
    assert!(bytes <= 256 * grid.len() as u64, "{bytes} B");
}
