//! Every workload at smoke scale, traced: the rebuild from public calls
//! must reproduce the runtime bit for bit and every repetition must yield
//! the same digest. A runtime change the rebuild no longer mirrors fails
//! here instead of silently mis-attributing time.

use mimo_benchmark::alloc::CountingAllocator;
use mimo_benchmark::{fleet, run, Options, Outcome, Scale, Workload, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn smoke(workload: Workload) -> Outcome {
    let out = run(&Options {
        workload,
        seed: 2016,
        trace: true,
        scale: Scale::smoke(),
    });
    assert!(out.correct(), "{}: {:?}", workload.name(), out.errors);
    assert_eq!(out.rep_run_s.len(), 3);
    for name in END_TO_END.iter().chain(&PER_LAYER) {
        // A p99 needs 1000 spans, and at smoke scale a chip's bank steps
        // only once per beat, 400 times.
        if *name == "governor.decide_p99_ns" && workload != Workload::PaperOpt {
            continue;
        }
        assert!(
            out.metric(name).is_some_and(|m| m.value.is_finite()),
            "{}: {name} missing",
            workload.name()
        );
    }
    out
}

fn value(out: &Outcome, name: &str) -> Option<f64> {
    out.metric(name).map(|m| m.value)
}

#[test]
fn chip16_uniform_rebuild_is_bit_identical() {
    let out = smoke(Workload::Chip16Uniform);
    // The uniform grant never changes after the first beat.
    assert!(value(&out, "retarget.changed_ratio").unwrap() < 0.01);
    // No core is evicted, so the bank makes every decision.
    assert_eq!(value(&out, "governor.banked_ratio"), Some(1.0));
    // `BudgetArbiter` returns a fresh Vec of 16 fresh Vectors per beat.
    assert_eq!(value(&out, "arbiter.allocs_per_call"), Some(17.0));
    assert_eq!(value(&out, "governor.allocs_per_call"), Some(0.0));
    assert_eq!(value(&out, "plant.allocs_per_call"), Some(0.0));
    assert_eq!(value(&out, "faulted_pct"), Some(0.0));
}

#[test]
fn chip16_contended_rebuild_is_bit_identical() {
    let out = smoke(Workload::Chip16Contended);
    assert!(value(&out, "retarget.changed_ratio").unwrap() > 0.5);
    // Core 5's latch, then its fallback's latch on the still-dead sensor.
    assert_eq!(value(&out, "engine.quarantines"), Some(2.0));
    // Once evicted, core 5's fallback decides on its own.
    let banked = value(&out, "governor.banked_ratio").unwrap();
    assert!(banked > 0.9 && banked < 1.0, "{banked}");
    assert!(value(&out, "llc.contended_ratio").unwrap() > 0.0);
    assert!(value(&out, "faulted_pct").unwrap() > 0.0);
}

#[test]
fn cluster_rebuild_is_bit_identical() {
    let out = smoke(Workload::Cluster64x64);
    // Eight-core chips: one Vec plus eight Vectors per beat.
    assert_eq!(value(&out, "arbiter.allocs_per_call"), Some(9.0));
    assert!(value(&out, "cluster.exchange_us").is_some());
    assert!(value(&out, "shard.busy_ratio").unwrap() > 0.0);
}

#[test]
fn paper_opt_replay_is_bit_identical() {
    let out = smoke(Workload::PaperOpt);
    assert!(value(&out, "opt.epochs").unwrap() > 0.0);
    assert!(value(&out, "opt.governor_ns.mimo").is_some());
    assert!(value(&out, "opt.governor_ns.decoupled").is_some());
}

#[test]
fn a_perturbed_core_is_named() {
    let cfg = fleet::chip_config(fleet::ChipKind::Uniform, 50, 3);
    let rep = fleet::chip_rep(&cfg, 3).unwrap();
    assert_eq!(fleet::chip_mismatch(0, &rep.stats, &rep.stats), None);
    let mut bent = rep.stats.clone();
    bent.per_core[7].energy_j = f64::from_bits(bent.per_core[7].energy_j.to_bits() + 1);
    let msg = fleet::chip_mismatch(0, &bent, &rep.stats).unwrap();
    assert!(msg.contains("core 7") && msg.contains("energy_j"), "{msg}");
    let mut bent = rep.stats.clone();
    bent.cap_violation_epochs += 1;
    assert!(fleet::chip_mismatch(0, &bent, &rep.stats).is_some());
}

#[test]
fn benchmark_json_names_what_the_binary_reports() {
    let json = include_str!("../../BENCHMARK.json");
    let names: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END)
        .chain(PER_LAYER)
        .collect();
    for name in names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json lacks {name}"
        );
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        4 + END_TO_END.len() + PER_LAYER.len()
    );
}
