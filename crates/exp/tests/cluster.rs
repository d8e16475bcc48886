//! Integration tests for the hierarchical cluster runtime driven by a real
//! synthesized MIMO controller (the `cluster_scale` deployment model in
//! miniature).

use mimo_exp::setup;
use mimo_fleet::{ClusterConfig, ClusterRunner, FleetConfig, FleetRunner};
use mimo_sim::fault::{FaultKind, FaultSpec};
use mimo_sim::llc::LlcConfig;
use mimo_sim::InputSet;

#[test]
fn one_chip_cluster_matches_the_fleet_runner_with_a_real_controller() {
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let ccfg = ClusterConfig::new(1, 4)
        .epochs(300)
        .exchange_period(50)
        .seed(2016);
    let cluster = ClusterRunner::with_shared_controller(ccfg, &design.controller)
        .expect("cluster")
        .run()
        .expect("validated cluster config");
    let fcfg = FleetConfig::new(4).epochs(300).seed(2016);
    let fleet = FleetRunner::with_shared_controller(fcfg, &design.controller)
        .expect("fleet")
        .run()
        .expect("validated fleet config");
    assert_eq!(cluster.per_chip[0], fleet);
    assert_eq!(cluster.per_chip[0].digest(), fleet.digest());
    assert!(cluster.energy_j > 0.0);
}

#[test]
fn contended_cluster_is_shard_invariant_at_issue_scale() {
    // The acceptance shape: >= 4 chips x >= 16 cores, LLC contention on,
    // digests bit-identical across shard counts {1, 2, 4} (and 8 capped
    // to the chip count, i.e. a duplicate of 4 — run the distinct ones).
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let mk = |shards: usize| {
        ClusterConfig::new(4, 16)
            .epochs(100)
            .exchange_period(20)
            .shards(shards)
            .llc_contention(LlcConfig::for_cores(16).total_ways(4 * 16))
            .seed(2016)
    };
    let base = ClusterRunner::with_shared_controller(mk(1), &design.controller)
        .expect("cluster")
        .run()
        .expect("run");
    assert_eq!(base.total_cores, 64);
    assert!(base.exchanges > 0);
    for shards in [2usize, 4] {
        let other = ClusterRunner::with_shared_controller(mk(shards), &design.controller)
            .expect("cluster")
            .run()
            .expect("run");
        assert_eq!(base, other, "shards = {shards}");
        assert_eq!(base.digest(), other.digest(), "shards = {shards}");
    }
}

#[test]
fn fully_quarantined_chip_frees_its_budget_for_the_others() {
    // Kill every core of chip 1 with permanently-NaN IPS sensors: the chip
    // quarantines whole, the cluster arbiter pins it at the floor, and the
    // healthy chips inherit the freed budget. The cluster cap is set below
    // the nominal sum so the redistribution is visible in the chip caps.
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let nan = FaultSpec {
        kind: FaultKind::NanMeasurement { channel: 0 },
        start_epoch: 10,
        duration: u64::MAX,
    };
    let mk = |shards: usize| {
        let mut cfg = ClusterConfig::new(3, 4)
            .epochs(240)
            .exchange_period(40)
            .power_cap(0.8 * 3.0 * 4.8)
            .shards(shards)
            .seed(2016);
        for core in 0..4 {
            cfg = cfg.core_fault(1, core, nan);
        }
        cfg
    };
    let stats = ClusterRunner::with_shared_controller(mk(1), &design.controller)
        .expect("cluster")
        .run()
        .expect("run");
    assert_eq!(stats.per_chip[1].quarantined_cores, 4);
    assert_eq!(stats.quarantined_cores, 4);
    // The dead chip ends the run pinned at the cluster floor; the healthy
    // chips end with strictly more budget than a uniform three-way split
    // of the (reduced) cluster cap.
    let floor: f64 = 4.0 * 0.2 * 1.9;
    assert_eq!(stats.per_chip[1].chip_cap_w.to_bits(), floor.to_bits());
    let uniform_share = stats.cluster_cap_w / 3.0;
    for chip in [0usize, 2] {
        assert!(
            stats.per_chip[chip].chip_cap_w > uniform_share,
            "chip {chip}: {} vs uniform {}",
            stats.per_chip[chip].chip_cap_w,
            uniform_share
        );
    }
    // And the fault/quarantine process is itself shard-invariant.
    let sharded = ClusterRunner::with_shared_controller(mk(3), &design.controller)
        .expect("cluster")
        .run()
        .expect("run");
    assert_eq!(stats, sharded);
    assert_eq!(stats.digest(), sharded.digest());
}

#[test]
fn cluster_config_boundaries_are_loud() {
    // 0 chips, 0 cores, shard over-subscription, and bad fault targets
    // are errors, not clamps.
    assert!(ClusterConfig::new(0, 4).validate().is_err());
    assert!(ClusterConfig::new(4, 0).validate().is_err());
    assert!(ClusterConfig::new(2, 4).shards(3).validate().is_err());
    assert!(ClusterConfig::new(2, 4)
        .exchange_period(0)
        .validate()
        .is_err());
    let spec = FaultSpec {
        kind: FaultKind::NanMeasurement { channel: 0 },
        start_epoch: 0,
        duration: 1,
    };
    assert!(ClusterConfig::new(2, 4)
        .core_fault(2, 0, spec)
        .validate()
        .is_err());
    assert!(ClusterConfig::new(2, 4)
        .core_fault(1, 4, spec)
        .validate()
        .is_err());
    assert!(ClusterConfig::new(2, 4)
        .core_fault(1, 3, spec)
        .validate()
        .is_ok());
    // A one-chip cluster is legal and shards(0) auto-resolves.
    assert!(ClusterConfig::new(1, 1).shards(0).validate().is_ok());
    assert!(ClusterConfig::new(1, 1).effective_shards() >= 1);
}
