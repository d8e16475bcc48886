//! Fleet- and cluster-level bit-parity of banked vs per-cell stepping.
//!
//! `FleetConfig::banked` / `ClusterConfig::banked` only change the
//! execution strategy — structure-of-arrays `GovernorBank` batches vs one
//! boxed governor per core — never the science. These tests prove it on
//! controllers produced by the real design flow, across shard counts, and
//! through the full quarantine choreography: a transient NaN window one
//! core recovers from (fallback rescue), and a permanent actuator fault
//! that re-latches the fallback — both of which evict the core from its
//! chip's bank mid-run.

use mimo_arch::exp::setup;
use mimo_arch::fleet::{ArbitrationPolicy, ClusterConfig, ClusterRunner, FleetConfig, FleetRunner};
use mimo_arch::sim::fault::{FaultKind, FaultSpec};
use mimo_arch::sim::InputSet;

fn faulted_fleet(banked: bool) -> FleetConfig {
    FleetConfig::new(8)
        .epochs(160)
        .policy(ArbitrationPolicy::Proportional)
        .seed(11)
        .banked(banked)
        // Transient: the fallback governor rescues core 2 once the NaN
        // window passes.
        .core_fault(
            2,
            FaultSpec {
                kind: FaultKind::NanMeasurement { channel: 0 },
                start_epoch: 30,
                duration: 12,
            },
        )
        // Permanent: core 5's actuator never recovers, so the fallback
        // re-latches and the arbiter pins the core at the floor budget.
        .core_fault(
            5,
            FaultSpec {
                kind: FaultKind::ActuatorStuckAt {
                    input: 0,
                    value: 0.5,
                },
                start_epoch: 60,
                duration: u64::MAX,
            },
        )
}

#[test]
fn banked_fleet_matches_per_cell_through_quarantine_and_eviction() {
    let ctrl = &setup::design_mimo(InputSet::FreqCache, 2)
        .expect("design")
        .controller;
    let per_cell = FleetRunner::with_shared_controller(faulted_fleet(false), ctrl)
        .unwrap()
        .run()
        .unwrap();
    // The fault plan must actually exercise the eviction path.
    assert!(
        per_cell.quarantined_cores > 0,
        "fault plan stopped quarantining; the parity below would be vacuous"
    );
    let banked = FleetRunner::with_shared_controller(faulted_fleet(true), ctrl)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(per_cell, banked);
    assert_eq!(per_cell.digest(), banked.digest());
}

#[test]
fn banked_three_knob_fleet_matches_per_cell() {
    let ctrl = &setup::design_mimo(InputSet::FreqCacheRob, 3)
        .expect("design")
        .controller;
    let cfg = |banked: bool| {
        FleetConfig::new(6)
            .input_set(InputSet::FreqCacheRob)
            .epochs(120)
            .policy(ArbitrationPolicy::Proportional)
            .seed(23)
            .banked(banked)
            .core_fault(
                1,
                FaultSpec {
                    kind: FaultKind::NanMeasurement { channel: 1 },
                    start_epoch: 40,
                    duration: 10,
                },
            )
    };
    let per_cell = FleetRunner::with_shared_controller(cfg(false), ctrl)
        .unwrap()
        .run()
        .unwrap();
    let banked = FleetRunner::with_shared_controller(cfg(true), ctrl)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(per_cell, banked);
    assert_eq!(per_cell.digest(), banked.digest());
}

#[test]
fn banked_cluster_matches_per_cell_at_any_shard_count() {
    let ctrl = &setup::design_mimo(InputSet::FreqCache, 2)
        .expect("design")
        .controller;
    let cfg = |banked: bool, shards: usize| {
        ClusterConfig::new(4, 4)
            .shards(shards)
            .epochs(120)
            .exchange_period(25)
            .policy(ArbitrationPolicy::Proportional)
            .chip_policy(ArbitrationPolicy::Proportional)
            .seed(13)
            .banked(banked)
            .core_fault(
                1,
                2,
                FaultSpec {
                    kind: FaultKind::NanMeasurement { channel: 0 },
                    start_epoch: 35,
                    duration: 15,
                },
            )
    };
    let per_cell = ClusterRunner::with_shared_controller(cfg(false, 1), ctrl)
        .unwrap()
        .run()
        .unwrap();
    for shards in [1, 2, 4] {
        let banked = ClusterRunner::with_shared_controller(cfg(true, shards), ctrl)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(per_cell, banked, "shards={shards}");
        assert_eq!(per_cell.digest(), banked.digest(), "shards={shards}");
    }
}
