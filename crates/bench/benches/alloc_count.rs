//! Per-epoch heap-allocation counts of the controller step and the epoch
//! engine, untraced, faulting, and traced.
//!
//! Not a timing benchmark — a counting `#[global_allocator]` reports
//! exactly how many allocations each hot-path variant performs per epoch,
//! so the zero-allocation claim is a printed, checkable number next to
//! the Criterion timings. Runs under `cargo bench` (any extra harness
//! flags such as `--test` are ignored).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mimo_core::engine::EpochLoop;
use mimo_core::governor::MimoGovernor;
use mimo_core::telemetry::{TelemetryConfig, TelemetrySink};
use mimo_exp::setup;
use mimo_linalg::Vector;
use mimo_sim::fault::{FaultInjector, FaultPlan};
use mimo_sim::InputSet;

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

fn count<F: FnMut()>(epochs: u64, mut f: F) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..epochs {
        f();
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / epochs as f64
}

fn main() {
    const EPOCHS: u64 = 1000;
    let design = setup::design_mimo(InputSet::FreqCache, 1).expect("design");

    let mut ctrl = design.controller.clone();
    ctrl.set_reference(&Vector::from_slice(&[2.8, 1.9]));
    let y = Vector::from_slice(&[2.3, 1.7]);
    let mut out = Vector::zeros(2);
    ctrl.step_into(&y, &mut out); // warm
    let step_into_allocs = count(EPOCHS, || ctrl.step_into(&y, &mut out));

    // The stack-allocated controller the fleet steps after `fast_governor`.
    let mut fixed = design
        .controller
        .clone()
        .into_static::<2, 2, 4, 8>()
        .expect("two-input architecture is 2-in/2-out/4-state");
    fixed.set_reference(&Vector::from_slice(&[2.8, 1.9]));
    fixed.step_into(&y, &mut out); // warm
    let static_step_allocs = count(EPOCHS, || fixed.step_into(&y, &mut out));

    let gov = MimoGovernor::new(design.controller.clone());
    let plant = setup::plant("astar", InputSet::FreqCache, 6);
    let mut lp = EpochLoop::new(gov, plant);
    lp.set_targets(&Vector::from_slice(&[2.8, 1.9]));
    lp.prime();
    for _ in 0..300 {
        lp.step(); // warm: grid statics, phase state, cache resizes
    }
    let engine_allocs = count(EPOCHS, || {
        lp.step();
    });

    // Same engine loop with the plant wrapped in an aggressive fault
    // injector: epochs fault, degrade, and quarantine, and the error path
    // must stay exactly as allocation-free as the healthy one.
    let gov = MimoGovernor::new(design.controller.clone());
    let plant = setup::plant("milc", InputSet::FreqCache, 6);
    let injector = FaultInjector::new(plant, FaultPlan::transient(0.3, 3, 0xFA11));
    let mut lp = EpochLoop::new(gov, injector);
    lp.set_targets(&Vector::from_slice(&[2.8, 1.9]));
    lp.prime();
    for _ in 0..300 {
        lp.step(); // warm: also fills the injector's active-fault list
    }
    let faulting_allocs = count(EPOCHS, || {
        lp.step();
    });
    let faulted = lp.fault_epochs();

    // The traced variant: a full ring-buffer telemetry sink takes every
    // epoch. After the warm-up fills the ring, steady-state epochs only
    // overwrite slots — still zero allocs.
    let gov = MimoGovernor::new(design.controller.clone());
    let plant = setup::plant("astar", InputSet::FreqCache, 6);
    let mut lp = EpochLoop::new(gov, plant);
    lp.set_sink(TelemetrySink::new(&TelemetryConfig::trace(128)));
    lp.set_targets(&Vector::from_slice(&[2.8, 1.9]));
    lp.prime();
    for _ in 0..300 {
        lp.step(); // warm: also fills the trace ring to capacity
    }
    let traced_allocs = count(EPOCHS, || {
        lp.step();
    });
    let traced = lp.sink().map_or(0, |sink| sink.trace.len());

    println!("allocations per epoch over {EPOCHS} epochs:");
    println!("  lqg step_into (scratch)     {step_into_allocs:.3}");
    println!("  lqg step_into (static)      {static_step_allocs:.3}");
    println!("  engine epoch (gov + plant)  {engine_allocs:.3}");
    println!("  faulting engine epoch       {faulting_allocs:.3}  ({faulted} epochs faulted)");
    println!("  traced engine epoch         {traced_allocs:.3}  (ring holds {traced} records)");
    assert_eq!(
        step_into_allocs, 0.0,
        "scratch step must be allocation-free"
    );
    assert_eq!(
        static_step_allocs, 0.0,
        "static step must be allocation-free"
    );
    assert_eq!(
        engine_allocs, 0.0,
        "steady-state engine epoch must be allocation-free"
    );
    assert_eq!(
        faulting_allocs, 0.0,
        "faulting engine epoch must be allocation-free"
    );
    assert!(faulted > 100, "fault process should have fired: {faulted}");
    assert_eq!(
        traced_allocs, 0.0,
        "traced (telemetry-sink) engine epoch must be allocation-free"
    );
    assert_eq!(traced, 128, "trace ring must have filled to capacity");
}
