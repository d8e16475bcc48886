//! Integration tests for the fleet runtime driven by a real synthesized
//! MIMO controller (the `fleet_scale` deployment model in miniature).

use mimo_exp::setup;
use mimo_fleet::{ArbitrationPolicy, FleetConfig, FleetRunner};
use mimo_sim::fault::{FaultKind, FaultSpec};
use mimo_sim::InputSet;

fn run(policy: ArbitrationPolicy, cap_w: f64) -> mimo_fleet::FleetStats {
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let cfg = FleetConfig::new(4)
        .epochs(400)
        .policy(policy)
        .power_cap(cap_w)
        .seed(2016);
    FleetRunner::with_shared_controller(cfg, &design.controller)
        .expect("fleet")
        .run()
        .expect("validated fleet config")
}

#[test]
fn faulted_fleet_replays_bit_for_bit() {
    // Same seed must give the same transient fault sequence — and the same
    // quarantine decisions — on every run.
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let run = || {
        let cfg = FleetConfig::new(6)
            .epochs(300)
            .policy(ArbitrationPolicy::Proportional)
            .power_cap(7.2)
            .seed(2016)
            .fault_rate(0.05);
        FleetRunner::with_shared_controller(cfg, &design.controller)
            .expect("fleet")
            .run()
            .expect("validated fleet config")
    };
    let one = run();
    let again = run();
    // PartialEq covers the quarantine bookkeeping too, so this checks the
    // fault + quarantine sequence bit for bit, not just the FP telemetry.
    assert_eq!(one, again);
    assert_eq!(one.digest(), again.digest());
    assert!(
        one.fault_epochs > 0,
        "rate 0.05 over 1800 core-epochs: {one:?}"
    );
}

#[test]
fn nan_sensor_cores_are_quarantined_and_budget_is_respected() {
    // The issue's acceptance scenario: a 16-core fleet where four cores'
    // IPS sensors go permanently NaN mid-run. The fleet must complete,
    // flag exactly those cores as quarantined, and keep chip power within
    // the arbiter's budget.
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let bad_cores = [1, 5, 9, 13];
    let mut cfg = FleetConfig::new(16)
        .epochs(300)
        .policy(ArbitrationPolicy::Proportional)
        .power_cap(19.2)
        .seed(2016);
    for &core in &bad_cores {
        cfg = cfg.core_fault(
            core,
            FaultSpec {
                kind: FaultKind::NanMeasurement { channel: 0 },
                start_epoch: 40,
                duration: u64::MAX,
            },
        );
    }
    let stats = FleetRunner::with_shared_controller(cfg, &design.controller)
        .expect("fleet")
        .run()
        .expect("validated fleet config");
    assert_eq!(stats.quarantined_cores, bad_cores.len(), "{stats:?}");
    for c in &stats.per_core {
        let expected = bad_cores.contains(&c.core);
        assert_eq!(c.quarantined, expected, "core {}: {c:?}", c.core);
        if expected {
            assert!(c.fault_epochs > 0, "{c:?}");
            assert!(c.quarantine_epoch.is_some(), "{c:?}");
        }
    }
    assert!(stats.fault_epochs > 0);
    // The arbiter's power accounting (stale quarantined readings replaced
    // by the pinned floor) must keep the chip within budget...
    assert!(
        stats.avg_chip_power_w <= stats.chip_cap_w,
        "avg power {} exceeds cap {}",
        stats.avg_chip_power_w,
        stats.chip_cap_w
    );
    // ...and so must the ground-truth energy-derived power, up to the slack
    // a blind core can leak: a quarantined plant's physical minimum may sit
    // above the floor target its flying-blind fallback is asked to hold.
    let actual: f64 = stats.per_core.iter().map(|c| c.avg_power_w).sum();
    assert!(
        actual <= 1.05 * stats.chip_cap_w,
        "actual power {} exceeds cap {} by more than 5%",
        actual,
        stats.chip_cap_w
    );
}

#[test]
fn tight_cap_throttles_power_below_generous_cap() {
    // Halving the chip budget must reduce what the fleet actually burns:
    // the arbiter lowers per-core references and the LQG loops follow.
    let generous = run(ArbitrationPolicy::Proportional, 8.0);
    let tight = run(ArbitrationPolicy::Proportional, 2.4);
    assert!(tight.energy_j > 0.0);
    assert!(
        tight.avg_chip_power_w < generous.avg_chip_power_w,
        "tight {tight:?} vs generous {generous:?}"
    );
}

#[test]
fn priority_policy_on_default_cores_is_the_uniform_split() {
    // No spec key or flag sets a per-core priority, so every core weighs
    // 1.0 and the priority share `cap * 1.0 / n` is the uniform `cap / n`
    // bit for bit: `fault-sweep`'s `priority` rows repeat its `uniform`
    // digests. A tight cap makes the split bind, and a quarantined core
    // takes both policies through the healthy-core share.
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let run = |policy| {
        let cfg = FleetConfig::new(8)
            .epochs(300)
            .policy(policy)
            .power_cap(6.0)
            .seed(2016)
            .core_fault(
                3,
                FaultSpec {
                    kind: FaultKind::NanMeasurement { channel: 0 },
                    start_epoch: 40,
                    duration: u64::MAX,
                },
            );
        FleetRunner::with_shared_controller(cfg, &design.controller)
            .expect("fleet")
            .run()
            .expect("validated fleet config")
    };
    let uniform = run(ArbitrationPolicy::Uniform);
    let priority = run(ArbitrationPolicy::PriorityWeighted);
    assert_eq!(uniform.quarantined_cores, 1, "{uniform:?}");
    assert_eq!(priority.digest(), uniform.digest());
    assert_eq!(priority.per_core, uniform.per_core);
    // The split is not vacuous: another policy lands elsewhere.
    assert_ne!(
        run(ArbitrationPolicy::Proportional).digest(),
        uniform.digest()
    );
}
