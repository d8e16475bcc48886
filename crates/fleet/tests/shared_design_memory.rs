//! Memory pin for the shared-controller fleet: per core, a
//! `FleetRunner::with_shared_controller` fleet holds only what is the
//! core's own — the plant, the loop's buffers, the governor's state — and
//! neither a copy of the synthesized design, nor a copy of the actuator
//! grids, nor fault state, a sink or a history a fault-free, untraced
//! core never uses, nor controller scratch, nor a second copy of its
//! grant.
//!
//! A `#[global_allocator]` (in `common`) counts live heap bytes and live
//! blocks. The growth of a 128-core fleet minus that of a 64-core fleet,
//! over 64, is the per-core cost with every per-fleet constant (the one
//! converted design, the arbiter's fixed state) cancelled out. A per-core
//! copy of the gains, scalers, grids, LU factors and Kalman record adds
//! about 2.5 KB per core, a per-core copy of the actuator grids about
//! 300 B, idle fault buffers about 300 B, and the fault wrapper's fixed
//! fields held inline about 190 B; the bounds allow none of them.
//! `cluster_core_memory.rs` holds a cluster core to the same bounds.
//!
//! Everything runs from ONE `#[test]` function: the counters are
//! process-global, so concurrent tests in the same binary would pollute
//! the measurement.

mod common;

use std::mem::size_of;

use common::{allocations, assert_within_bounds, controller, held};
use mimo_core::engine::EpochLoop;
use mimo_core::governor::Governor;
use mimo_core::lqg::LqgController;
use mimo_fleet::{FleetConfig, FleetRunner};
use mimo_sim::fault::{FaultInjector, FaultPlan};
use mimo_sim::{Processor, ProcessorBuilder};

/// Inline bound on an untraced fleet core's epoch loop: the fault-wrapped
/// plant plus the loop's buffers and counters, with one pointer each for
/// the sink and the history (864 B while they were held inline).
const MAX_LOOP_BYTES: usize = 600;

/// Live heap bytes and blocks a freshly built `n`-core shared-controller
/// fleet holds.
fn fleet_footprint(n: usize, ctrl: &LqgController) -> (i64, i64) {
    held(|| FleetRunner::with_shared_controller(FleetConfig::new(n).epochs(10), ctrl).unwrap())
}

/// Allocations `FaultInjector::new` makes around an already built plant.
fn injector_allocs(plan: FaultPlan) -> i64 {
    let plant = ProcessorBuilder::new().app("astar").build().unwrap();
    allocations(|| FaultInjector::new(plant, plan))
}

#[test]
fn shared_controller_fleet_holds_no_per_core_design() {
    let ctrl = controller();
    // Warm-up: lazily built tables are paid once, outside the measurement.
    fleet_footprint(64, &ctrl);
    let (bytes_128, blocks_128) = fleet_footprint(128, &ctrl);
    let (bytes_64, blocks_64) = fleet_footprint(64, &ctrl);
    assert_within_bounds(
        "shared-controller fleet",
        (bytes_128 - bytes_64) / 64,
        (blocks_128 - blocks_64) / 64,
    );

    // A plan that cannot fire costs the injector nothing of its own ...
    assert_eq!(injector_allocs(FaultPlan::none()), 0);
    assert_eq!(injector_allocs(FaultPlan::transient(0.0, 3, 1)), 0);
    // ... and inline, no more than an epoch counter and a null pointer.
    assert!(size_of::<FaultInjector<Processor>>() <= size_of::<Processor>() + 16);
    assert!(
        size_of::<EpochLoop<Box<dyn Governor + Send>, FaultInjector<Processor>>>()
            <= MAX_LOOP_BYTES
    );
    // One that can fire holds its boxed state and that state's buffers:
    // the two per-channel vectors, plus the transient list when it has a
    // transient process.
    assert_eq!(injector_allocs(FaultPlan::transient(0.01, 3, 1)), 4);
}
