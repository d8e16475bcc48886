//! Proof that the steady-state epoch hot path performs zero heap
//! allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up the test drives the allocation-free paths — the scratch-based
//! LQG/Kalman updates, `set_reference` with an unchanged reference (the
//! bit-compare path) and with a moving one (the steady-state re-solve),
//! and a full `EpochLoop` epoch over the real `Processor` plant — and
//! asserts the counter does not move. It also pins what sharing one
//! design costs: cloning a static-storage controller or Decoupled pair
//! allocates nothing, and each governor from `FastController::governor`
//! allocates once (its box).
//!
//! Everything is exercised from ONE `#[test]` function: the counter is
//! process-global, so concurrent tests in the same binary would pollute
//! the measurement windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mimo_core::decoupled::{DecoupledGovernor, StaticDecoupled};
use mimo_core::engine::EpochLoop;
use mimo_core::governor::{fast_governor, FastController, Governor, MimoGovernor};
use mimo_core::kalman::{update_kalman, KalmanScratch};
use mimo_core::lqg::LqgDesign;
use mimo_core::storage::DynStore;
use mimo_core::telemetry::{TelemetryConfig, TelemetrySink};
use mimo_core::StateSpace;
use mimo_linalg::{Matrix, Vector};
use mimo_sim::fault::{FaultInjector, FaultPlan};
use mimo_sim::{InputSet, ProcessorBuilder};
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

/// Asserts `window` performs exactly `expected` heap allocations. The
/// counter is process-global and the libtest harness occasionally
/// allocates on its own threads mid-window, so a miss is retried: a path
/// that truly allocates a different number of times does so on every
/// attempt, while harness noise (rare to begin with) vanishes across three
/// independent windows.
fn assert_allocations(label: &str, expected: u64, mut window: impl FnMut()) {
    let mut deltas = Vec::new();
    for _ in 0..3 {
        let before = allocations();
        window();
        let delta = allocations() - before;
        if delta == expected {
            return;
        }
        deltas.push(delta);
    }
    panic!("{label}: expected {expected} allocations on some attempt, saw {deltas:?}");
}

/// Asserts `window` performs zero allocations (see [`assert_allocations`]).
fn assert_alloc_free(label: &str, window: impl FnMut()) {
    assert_allocations(label, 0, window);
}

/// A small 2-state / 2-input / 2-output design whose physical ranges line
/// up with the processor's frequency and cache knobs.
fn design() -> LqgDesign {
    LqgDesign {
        model: StateSpace::new(
            Matrix::diag(&[0.7, 0.6]),
            Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6]]),
            Matrix::identity(2),
            Matrix::zeros(2, 2),
        )
        .unwrap(),
        process_noise: Matrix::identity(2).scale(1e-4),
        measurement_noise: Matrix::identity(2).scale(1e-4),
        output_weights: vec![10.0, 1000.0],
        input_weights: vec![0.01, 0.01],
        integral_weight: 0.05,
        input_scaler: ChannelScaler::from_ranges(&[(0.5, 2.0), (2.0, 8.0)]),
        output_scaler: ChannelScaler::from_ranges(&[(0.0, 4.0), (0.0, 4.0)]),
        input_grids: vec![
            (0..=15).map(|i| 0.5 + 0.1 * f64::from(i)).collect(),
            vec![2.0, 4.0, 6.0, 8.0],
        ],
    }
}

/// [`design`]'s knobs on a 4-state model: the two-input architecture's
/// shape (2-in/2-out/4-state), which `FastController` puts on static
/// storage.
fn freq_cache_design() -> LqgDesign {
    LqgDesign {
        model: StateSpace::new(
            Matrix::diag(&[0.7, 0.6, 0.5, 0.4]),
            Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6], &[0.2, 0.0], &[0.0, 0.2]]),
            Matrix::from_rows(&[&[1.0, 0.0, 0.5, 0.0], &[0.0, 1.0, 0.0, 0.5]]),
            Matrix::zeros(2, 2),
        )
        .unwrap(),
        process_noise: Matrix::identity(4).scale(1e-4),
        ..design()
    }
}

/// A 1-input / 1-output / 2-state loop of a `DecoupledGovernor`, its
/// output normalized over `[0, out_hi]`.
fn siso_design(out_hi: f64) -> LqgDesign {
    LqgDesign {
        model: StateSpace::new(
            Matrix::diag(&[0.7, 0.6]),
            Matrix::from_rows(&[&[0.5], &[0.2]]),
            Matrix::from_rows(&[&[1.0, 0.5]]),
            Matrix::zeros(1, 1),
        )
        .unwrap(),
        process_noise: Matrix::identity(2).scale(1e-4),
        measurement_noise: Matrix::identity(1).scale(1e-4),
        output_weights: vec![10.0],
        input_weights: vec![0.01],
        integral_weight: 0.05,
        input_scaler: ChannelScaler::from_ranges(&[(0.5, 2.0)]),
        output_scaler: ChannelScaler::from_ranges(&[(0.0, out_hi)]),
        input_grids: vec![(0..=15).map(|i| 0.5 + 0.1 * f64::from(i)).collect()],
    }
}

#[test]
fn steady_state_epoch_allocates_nothing() {
    // --- Kalman update_kalman --------------------------------------------
    let ctrl = design().build().unwrap();
    let sys = ctrl.model().clone();
    let l = ctrl.kalman().gain().clone();
    let mut xhat = Vector::zeros(2);
    let mut scratch = KalmanScratch::new(2, 2);
    let u = Vector::from_slice(&[0.2, -0.1]);
    let y = Vector::from_slice(&[0.3, 0.1]);
    let mut update = |xhat: &mut Vector| {
        update_kalman::<DynStore>(
            &l,
            sys.a(),
            sys.b(),
            sys.c(),
            sys.d(),
            xhat,
            &u,
            &y,
            &mut scratch,
        );
    };
    update(&mut xhat); // warm
    assert_alloc_free("update_kalman", || {
        for _ in 0..1000 {
            update(&mut xhat);
        }
    });

    // --- LqgController step_into ----------------------------------------
    let mut ctrl = design().build().unwrap();
    let targets = Vector::from_slice(&[2.5, 2.0]);
    ctrl.set_reference(&targets);
    let y_meas = Vector::from_slice(&[2.3, 1.7]);
    let mut u_out = Vector::zeros(2);
    for _ in 0..50 {
        ctrl.step_into(&y_meas, &mut u_out); // warm
    }
    assert_alloc_free("LqgController::step_into", || {
        for _ in 0..1000 {
            ctrl.step_into(&y_meas, &mut u_out);
        }
    });

    // --- set_reference with an unchanged target -------------------------
    assert_alloc_free("unchanged-target set_reference", || {
        for _ in 0..1000 {
            ctrl.set_reference(&targets);
        }
    });

    // --- set_reference with a moving target -----------------------------
    // A contended chip's arbiter hands out new grants every epoch, so
    // every call re-solves the steady state; that path must be as clean.
    let moved = Vector::from_slice(&[2.6, 1.9]);
    assert_alloc_free("moving-target set_reference", || {
        for _ in 0..500 {
            ctrl.set_reference(&moved);
            ctrl.set_reference(&targets);
        }
    });

    // --- Static-storage step_into ----------------------------------------
    // The stack-allocated controller must be exactly as clean — and
    // bit-identical to the dynamic path while we're watching.
    let mut fixed = design()
        .build()
        .unwrap()
        .into_static::<2, 2, 2, 6>()
        .expect("design shape is 2-in/2-out/2-state");
    fixed.set_reference(&targets);
    assert_alloc_free("static moving-target set_reference", || {
        for _ in 0..500 {
            fixed.set_reference(&moved);
            fixed.set_reference(&targets);
        }
    });
    // Two SISO loops, each re-solved on every call.
    let mut decoupled = DecoupledGovernor::new(
        siso_design(4.0).build().unwrap(),
        siso_design(3.0).build().unwrap(),
    );
    assert_alloc_free("moving-target DecoupledGovernor::set_targets", || {
        for _ in 0..500 {
            decoupled.set_targets(&moved);
            decoupled.set_targets(&targets);
        }
    });
    let mut u_fixed = Vector::zeros(2);
    for _ in 0..50 {
        fixed.step_into(&y_meas, &mut u_fixed); // warm
    }
    assert_alloc_free("static LqgController::step_into", || {
        for _ in 0..1000 {
            fixed.step_into(&y_meas, &mut u_fixed);
        }
    });
    // Bit-identity spot check: from a common reset, both storages must
    // produce identical actuations (the retry-looping windows above may
    // have stepped the two controllers different numbers of times).
    ctrl.reset_state();
    fixed.reset_state();
    for _ in 0..25 {
        ctrl.step_into(&y_meas, &mut u_out);
        fixed.step_into(&y_meas, &mut u_fixed);
        assert_eq!(
            u_fixed[0].to_bits(),
            u_out[0].to_bits(),
            "static path diverged from dynamic"
        );
        assert_eq!(u_fixed[1].to_bits(), u_out[1].to_bits());
    }

    // --- A full EpochLoop epoch over the real processor plant -----------
    let plant = ProcessorBuilder::new()
        .app("namd")
        .seed(5)
        .input_set(InputSet::FreqCache)
        .build()
        .unwrap();
    let gov = MimoGovernor::new(design().build().unwrap());
    let mut lp = EpochLoop::new(gov, plant);
    lp.set_targets(&targets);
    lp.prime();
    // Warm-up covers actuator-grid statics, phase-table state, and the
    // first cache resizes.
    for _ in 0..300 {
        lp.step();
    }
    assert_alloc_free("EpochLoop::step over Processor", || {
        for _ in 0..2000 {
            lp.step();
        }
    });

    // Sanity: the boxed-governor form the fleet uses is equally clean.
    // `fast_governor` picks the static storage here (2-in/2-out/4-state,
    // the two-input architecture), so this window covers the exact
    // monomorphized path the fleet steps.
    let plant = ProcessorBuilder::new()
        .app("astar")
        .seed(9)
        .input_set(InputSet::FreqCache)
        .build()
        .unwrap();
    let gov: Box<dyn Governor + Send> = fast_governor(freq_cache_design().build().unwrap());
    let mut lp = EpochLoop::new(gov, plant);
    lp.set_targets(&targets);
    for _ in 0..300 {
        lp.step();
    }
    assert_alloc_free("boxed-governor EpochLoop::step", || {
        for _ in 0..2000 {
            lp.step();
        }
    });

    // --- Faulting epochs are equally allocation-free ---------------------
    // An aggressive transient process keeps the error path hot: epochs
    // fault, degrade, quarantine, and recover, and none of it may allocate
    // (EpochError carries indices, not strings; the injector reuses its
    // scratch and last-good buffers).
    let plant = ProcessorBuilder::new()
        .app("milc")
        .seed(13)
        .input_set(InputSet::FreqCache)
        .build()
        .unwrap();
    let injector = FaultInjector::new(plant, FaultPlan::transient(0.3, 3, 0xFA11));
    let gov = MimoGovernor::new(design().build().unwrap());
    let mut lp = EpochLoop::new(gov, injector);
    lp.set_targets(&targets);
    // Warm-up fills the injector's active-fault list to its cap and the
    // engine's last-good buffers.
    for _ in 0..300 {
        lp.step();
    }
    assert_alloc_free("faulting EpochLoop::step", || {
        for _ in 0..2000 {
            lp.step();
        }
    });
    assert!(
        lp.fault_epochs() > 100,
        "fault process should have fired: {}",
        lp.fault_epochs()
    );

    // --- Traced epochs are equally allocation-free -------------------------
    // A full ring-buffer telemetry sink rides along: once the ring has
    // filled to capacity (done during warm-up), every further epoch only
    // overwrites slots.
    let plant = ProcessorBuilder::new()
        .app("namd")
        .seed(21)
        .input_set(InputSet::FreqCache)
        .build()
        .unwrap();
    let injector = FaultInjector::new(plant, FaultPlan::transient(0.3, 3, 0xBEEF));
    let gov = MimoGovernor::new(design().build().unwrap());
    let mut lp = EpochLoop::new(gov, injector);
    lp.set_sink(TelemetrySink::new(&TelemetryConfig::trace(128)));
    lp.set_targets(&targets);
    // Warm-up fills the trace ring past capacity so the steady-state
    // window exercises the overwrite path only.
    for _ in 0..300 {
        lp.step();
    }
    assert!(lp.sink().unwrap().trace.len() == 128, "ring must be full");
    assert_alloc_free("traced (TelemetrySink) EpochLoop::step", || {
        for _ in 0..2000 {
            lp.step();
        }
    });
    // assert_alloc_free may run one to three windows; every stepped epoch
    // must have landed in the sink either way.
    let trace = lp.into_parts().2.unwrap().trace;
    let pushed = trace.len() as u64 + trace.dropped();
    assert!(pushed >= 2300, "{pushed}");

    // --- Sharing the design costs no heap ---------------------------------
    // A static-storage clone is an `Arc` clone plus a copy of the inline
    // per-core state, and every governor `FastController` hands out is one
    // box around such a clone: construction cost per core, not per design.
    let ctrl = design()
        .build()
        .unwrap()
        .into_static::<2, 2, 2, 6>()
        .unwrap();
    assert_allocations("StaticStore controller clone", 0, || {
        std::hint::black_box(ctrl.clone());
    });
    let fast = FastController::new(&freq_cache_design().build().unwrap());
    assert!(matches!(fast, FastController::FreqCache(_)), "{fast:?}");
    assert_allocations("governor from FastController::governor", 1, || {
        std::hint::black_box(fast.governor());
    });

    // --- The static Decoupled pair ----------------------------------------
    // Both SISO loops on `StaticStore<1, 1, 2, 4>`, with inline scratch:
    // a clone and a decision allocate nothing.
    let pair = || {
        DecoupledGovernor::new(
            siso_design(4.0).build().unwrap(),
            siso_design(3.0).build().unwrap(),
        )
    };
    let dec_static: StaticDecoupled = pair()
        .with_storage()
        .expect("both loops are 1-in/1-out/2-state");
    assert_allocations("static DecoupledGovernor clone", 0, || {
        std::hint::black_box(dec_static.clone());
    });
    let mut dec = dec_static.clone();
    dec.set_targets(&targets);
    let mut u_dec = Vector::zeros(2);
    for _ in 0..50 {
        dec.decide_into(&y_meas, false, &mut u_dec).unwrap(); // warm
    }
    assert_alloc_free("static DecoupledGovernor::decide_into", || {
        for _ in 0..1000 {
            dec.decide_into(&y_meas, false, &mut u_dec).unwrap();
        }
    });
}
