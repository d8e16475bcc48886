//! Heap use of the design flow's identification: per record, never per
//! sample.
//!
//! A counting `#[global_allocator]` wraps the system allocator. Recording
//! the excitation, scaling, detrending, the ARX fit, the residual
//! covariance and the validation free-run keep each record in one
//! contiguous buffer, so the identification must allocate the same number
//! of times at 350 epochs per excitation segment as at 700. Synthesis and
//! the RSA loop are left out of the comparison: how often they allocate
//! follows the identified model (Riccati iterations, redesigns), not the
//! record length. Run with `--nocapture` to print the allocations of one
//! two-input `run_multi` + `validate`.
//!
//! Everything is measured from ONE `#[test]` function: the counter is
//! process-global, so concurrent tests in the same binary would pollute
//! the measurement windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mimo_core::design::DesignFlow;
use mimo_sim::workload::{TRAINING_SET, VALIDATION_SET};
use mimo_sim::{InputSet, Processor, ProcessorBuilder};

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

/// Allocations made by `f`, and its value.
fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let a0 = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - a0, value)
}

fn plants(apps: &[&str], seed: u64) -> Vec<Processor> {
    apps.iter()
        .enumerate()
        .map(|(k, app)| {
            ProcessorBuilder::new()
                .app(app)
                .seed(seed + k as u64)
                .input_set(InputSet::FreqCache)
                .build()
                .unwrap()
        })
        .collect()
}

/// Allocations of (identification in `run_multi`, `measure_model_error`,
/// the whole `run_multi` + `validate`) at `segment_epochs`.
fn design_allocations(segment_epochs: usize) -> (u64, u64, u64) {
    let flow = DesignFlow {
        segment_epochs,
        seed: 2016,
        ..DesignFlow::two_input()
    };
    let mut training = plants(&TRAINING_SET, 2016);
    let mut validation = plants(&VALIDATION_SET, 2116);
    let (run, result) = count(|| flow.run_multi(training.iter_mut()).unwrap());
    // `run_multi` ends by synthesizing the controller of its design;
    // synthesizing it again counts that part.
    let design = result.controller.design().clone();
    let (synthesis, _) = count(|| design.build().unwrap());
    let (measure, errors) = count(|| {
        flow.measure_model_error(&result, validation.iter_mut())
            .unwrap()
    });
    assert_eq!(errors.len(), 2);
    let (validate, validated) = count(|| flow.validate(result, validation.iter_mut()).unwrap());
    assert!(validated.rsa.robust);
    (run - synthesis, measure, run + validate)
}

#[test]
fn identification_allocates_per_record_not_per_sample() {
    let (id_short, measure_short, _) = design_allocations(350);
    let (id_long, measure_long, total) = design_allocations(700);
    assert_eq!(
        id_short, id_long,
        "identification allocations moved with the record length"
    );
    assert_eq!(
        measure_short, measure_long,
        "validation allocations moved with the record length"
    );
    println!(
        "two-input design at 700 epochs per segment: identification {id_long}, \
         validation free-run {measure_long}, run_multi + validate {total} allocations"
    );
    // Thousands of samples, a few hundred allocations.
    assert!(id_long + measure_long < 1_000, "{id_long} + {measure_long}");
}
