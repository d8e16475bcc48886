//! Heap use of the design flow: identification allocates per record,
//! never per sample, and the RSA loop per probe, never per frequency.
//!
//! A counting `#[global_allocator]` wraps the system allocator. Recording
//! the excitation, scaling, detrending, the ARX fit, the residual
//! covariance and the validation free-run keep each record in one
//! contiguous buffer, so the identification must allocate the same number
//! of times at 350 epochs per excitation segment as at 700. Synthesis and
//! the RSA loop are left out of that comparison: how often they allocate
//! follows the identified model (Riccati iterations, redesigns), not the
//! record length. The RSA frequency sweep allocates nothing per frequency
//! (the transfer matrix and its largest singular value live in the
//! sweep's workspace and on the stack), so one `robust::analyze` must
//! allocate the same number of times on a 256-point grid as on the
//! 128-point one. (The whole `rsa_redesign` cannot be compared that way:
//! the finer grid sees a higher peak and redesigns once more.) Run with
//! `--nocapture` to print the allocations of one two-input `run_multi` +
//! `validate` and of its RSA loop.
//!
//! The counter is per thread: the test harness's own threads allocate at
//! times that depend on scheduling (a process-wide count read a few
//! allocations apart between the two record lengths on a loaded host).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mimo_core::design::DesignFlow;
use mimo_core::robust::analyze;
use mimo_sim::workload::{TRAINING_SET, VALIDATION_SET};
use mimo_sim::{InputSet, Processor, ProcessorBuilder};

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A `const`-initialized `Cell` has no destructor, so this never
    // allocates and never fails, even while the thread exits.
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made by `f` on this thread, and its value.
fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let a0 = ALLOCATIONS.with(Cell::get);
    let value = f();
    (ALLOCATIONS.with(Cell::get) - a0, value)
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
/// the whole `run_multi` + `validate`) at `segment_epochs`, of one
/// `robust::analyze` of the synthesized design on 128 and on 256
/// frequencies, and of its `rsa_redesign` (with the redesign count).
fn design_allocations(segment_epochs: usize) -> (u64, u64, u64, [u64; 2], (u64, usize)) {
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
    let guardbands: Vec<f64> = errors
        .iter()
        .map(|e| (flow.guardband_multiplier * e).clamp(0.05, 0.8))
        .collect();
    let analyses = [128, 256].map(|grid| {
        count(|| analyze(&result.model, &result.controller, &guardbands, grid).unwrap()).0
    });
    let (rsa, validated) = count(|| flow.rsa_redesign(&result, &guardbands).unwrap());
    let rsa = (rsa, validated.redesigns);
    let (validate, validated) = count(|| flow.validate(result, validation.iter_mut()).unwrap());
    assert!(validated.rsa.robust);
    (run - synthesis, measure, run + validate, analyses, rsa)
}

#[test]
fn design_allocations_follow_the_model_not_the_data() {
    let (id_short, measure_short, _, _, _) = design_allocations(350);
    let (id_long, measure_long, total, [analyze_128, analyze_256], (rsa, redesigns)) =
        design_allocations(700);
    assert_eq!(
        id_short, id_long,
        "identification allocations moved with the record length"
    );
    assert_eq!(
        measure_short, measure_long,
        "validation allocations moved with the record length"
    );
    assert_eq!(
        analyze_128, analyze_256,
        "RSA allocations moved with the frequency grid"
    );
    println!(
        "two-input design at 700 epochs per segment: identification {id_long}, \
         validation free-run {measure_long}, one RSA analysis {analyze_128}, \
         RSA loop ({redesigns} redesigns) {rsa}, run_multi + validate {total} allocations"
    );
    // Thousands of samples, a few hundred allocations.
    assert!(id_long + measure_long < 1_000, "{id_long} + {measure_long}");
}
