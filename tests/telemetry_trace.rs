//! The telemetry acceptance scenario: a ring-buffer sink on a 16-core
//! faulted fleet must produce a JSONL trace from which the quarantine
//! epoch and cause of every latched core can be recovered, and whose bytes
//! match a pinned digest. The trace is also topology- and
//! shard-independent: a fleet's JSONL is byte-identical to its one-chip
//! cluster lift's, and a cluster's JSONL is byte-identical at any shard
//! count.

use mimo_arch::core::digest::Fnv1a;
use mimo_arch::exp::setup;
use mimo_arch::fleet::{
    ArbitrationPolicy, ClusterConfig, ClusterRunner, ClusterTelemetry, FleetConfig, FleetRunner,
    FleetStats, FleetTelemetry,
};
use mimo_arch::sim::fault::{FaultKind, FaultSpec};
use mimo_arch::sim::InputSet;
use mimo_arch::telemetry::{CauseCode, TelemetryConfig};

const BAD_CORES: [usize; 4] = [1, 5, 9, 13];

fn nan_ips_from(start_epoch: u64) -> FaultSpec {
    FaultSpec {
        kind: FaultKind::NanMeasurement { channel: 0 },
        start_epoch,
        duration: u64::MAX,
    }
}

/// Runs the 16-core fleet with four permanently-NaN IPS sensors and a
/// 64-record ring on every core.
fn traced_faulted_fleet() -> (FleetStats, FleetTelemetry) {
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let mut cfg = FleetConfig::new(16)
        .epochs(300)
        .policy(ArbitrationPolicy::Proportional)
        .power_cap(19.2)
        .seed(2016)
        .observer(TelemetryConfig::trace(64));
    for &core in &BAD_CORES {
        cfg = cfg.core_fault(core, nan_ips_from(40));
    }
    FleetRunner::with_shared_controller(cfg, &design.controller)
        .expect("fleet")
        .run_traced()
        .expect("validated fleet config")
}

/// Extracts an integer field like `"core":13` from one JSONL line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let start = line.find(key)? + key.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[test]
fn jsonl_trace_recovers_quarantine_epoch_and_cause_per_latched_core() {
    let (stats, telemetry) = traced_faulted_fleet();
    assert_eq!(stats.quarantined_cores, BAD_CORES.len(), "{stats:?}");
    assert!(telemetry.is_enabled());

    // The structured view first: one quarantine event per bad core, with
    // the NaN-measurement cause and the faulted channel attached.
    let events = telemetry.quarantines();
    assert_eq!(events.len(), BAD_CORES.len(), "{events:?}");
    for &core in &BAD_CORES {
        let ev = events
            .iter()
            .find(|e| e.core == Some(core))
            .unwrap_or_else(|| panic!("no quarantine event for core {core}: {events:?}"));
        assert_eq!(ev.cause, CauseCode::NonFiniteMeasurement, "{ev:?}");
        assert_eq!(ev.channel, Some(0), "{ev:?}");
        let reported = stats.per_core[core].quarantine_epoch;
        assert_eq!(Some(ev.epoch), reported, "core {core}");
        // The sensor dies at epoch 40; latching happens at or after that.
        assert!(ev.epoch >= 40, "{ev:?}");
    }

    // Now strictly through the exported JSONL, as an external tool would
    // read it: the quarantine lines alone must recover epoch and cause.
    let mut out = Vec::new();
    telemetry.write_jsonl(&mut out).expect("serialize");
    let text = String::from_utf8(out).expect("utf8");
    let quarantine_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"type\":\"quarantine\""))
        .collect();
    assert_eq!(quarantine_lines.len(), BAD_CORES.len(), "{text}");
    for &core in &BAD_CORES {
        let line = quarantine_lines
            .iter()
            .find(|l| field_u64(l, "\"core\":") == Some(core as u64))
            .unwrap_or_else(|| panic!("no quarantine line for core {core}"));
        assert!(
            line.contains("\"cause\":\"non_finite_measurement\""),
            "{line}"
        );
        assert!(line.contains("\"channel\":0"), "{line}");
        let epoch = field_u64(line, "\"epoch\":").expect("epoch field");
        assert_eq!(Some(epoch), stats.per_core[core].quarantine_epoch, "{line}");
    }

    // Healthy cores emit no quarantine line but still close with a
    // core_end record; every core's trace is bounded by the ring.
    assert_eq!(text.matches("\"type\":\"core_end\"").count(), 16);
    for core in &telemetry.per_core {
        assert!(core.trace.len() <= 64, "core {}", core.core);
        let quarantined = BAD_CORES.contains(&core.core);
        assert_eq!(core.quarantine.is_some(), quarantined, "core {}", core.core);
        if quarantined {
            // A permanently-dead sensor shows up in the injection ledger.
            assert!(core.injected_faults.iter().sum::<u64>() > 0);
        }
    }
}

/// FNV-1a digest of the 16-core faulted fleet's JSONL trace, one byte
/// per absorbed word. Pins the exported bytes: the epoch, quarantine and
/// `core_end` lines of every core.
const FAULTED_FLEET_JSONL_DIGEST: u64 = 0x4eff_2a0b_7b1a_2734;

#[test]
fn jsonl_trace_bytes_are_pinned() {
    let (_, telemetry) = traced_faulted_fleet();
    let mut h = Fnv1a::new();
    for &b in &fleet_jsonl(&telemetry) {
        h.write_u64(u64::from(b));
    }
    assert_eq!(
        h.finish(),
        FAULTED_FLEET_JSONL_DIGEST,
        "the traced JSONL bytes changed: {:#018x}",
        h.finish()
    );
}

fn fleet_jsonl(telemetry: &FleetTelemetry) -> Vec<u8> {
    let mut out = Vec::new();
    telemetry.write_jsonl(&mut out).expect("serialize");
    out
}

fn cluster_jsonl(telemetry: &ClusterTelemetry) -> Vec<u8> {
    let mut out = Vec::new();
    telemetry.write_jsonl(&mut out).expect("serialize");
    out
}

#[test]
fn fleet_jsonl_trace_matches_its_one_chip_cluster_lift() {
    // A traced, faulted 4-core fleet: one permanent NaN sensor (quarantine
    // and fallback) plus random transients on every core.
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let fleet = FleetConfig::new(4)
        .epochs(200)
        .policy(ArbitrationPolicy::Proportional)
        .seed(2016)
        .fault_rate(0.02)
        .core_fault(2, nan_ips_from(30))
        .observer(TelemetryConfig::trace(32));
    let (fstats, ftele) = FleetRunner::with_shared_controller(fleet.clone(), &design.controller)
        .expect("fleet")
        .run_traced()
        .expect("run");
    let (cstats, ctele) =
        ClusterRunner::with_shared_controller(ClusterConfig::from(fleet), &design.controller)
            .expect("cluster")
            .run_traced()
            .expect("run");
    assert!(fstats.quarantined_cores > 0, "{fstats:?}");
    assert_eq!(cstats.per_chip[0], fstats);
    let fleet_bytes = fleet_jsonl(&ftele);
    assert!(!fleet_bytes.is_empty());
    assert_eq!(
        fleet_jsonl(&ctele.per_chip[0]),
        fleet_bytes,
        "the one-chip lift traced differently"
    );
}

#[test]
fn cluster_jsonl_trace_is_identical_across_shard_counts() {
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let traced = |shards: usize| {
        let cfg = ClusterConfig::new(3, 4)
            .epochs(120)
            .exchange_period(20)
            .shards(shards)
            .seed(2016)
            .fault_rate(0.02)
            .core_fault(1, 3, nan_ips_from(25))
            .observer(TelemetryConfig::trace(16));
        ClusterRunner::with_shared_controller(cfg, &design.controller)
            .expect("cluster")
            .run_traced()
            .expect("run")
            .1
    };
    let one = cluster_jsonl(&traced(1));
    let three = cluster_jsonl(&traced(3));
    assert!(!one.is_empty());
    assert_eq!(one, three, "the cluster trace depends on the shard count");
}
