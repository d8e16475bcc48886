//! `setup::baseline_config` chooses what one plant per candidate chose.
//!
//! The grid profile behind the Baseline architecture runs every candidate
//! over one shared noise path (`Processor::sweep`). The reference below is
//! a literal copy of the loop it replaced, which built a fresh plant per
//! candidate and training app and stepped it through `step_config`. Over
//! five base seeds, both input sets and all three metrics, the two must
//! pick the same configuration, bit for bit.

use mimo_core::optimizer::Metric;
use mimo_exp::setup::{baseline_candidates, baseline_config, plant};
use mimo_sim::workload::TRAINING_SET;
use mimo_sim::{InputSet, PlantConfig};

/// The grid profile as it was before the sweep.
fn serial_baseline_config(input_set: InputSet, metric: Metric, seed: u64) -> PlantConfig {
    let freqs: Vec<f64> = (0..8).map(|i| 0.5 + 0.2 * i as f64).collect();
    let caches = [2usize, 4, 6, 8];
    let robs: Vec<usize> = match input_set {
        InputSet::FreqCache => vec![48],
        InputSet::FreqCacheRob => vec![32, 64, 96, 128],
    };
    let mut best = PlantConfig::baseline();
    let mut best_score = f64::INFINITY;
    for &f in &freqs {
        for &c in &caches {
            for &r in &robs {
                let cfg = PlantConfig {
                    freq_ghz: (f * 10.0).round() / 10.0,
                    l2_ways: c,
                    rob_entries: r,
                };
                let mut total = 0.0;
                for (k, name) in TRAINING_SET.iter().enumerate() {
                    let mut p = plant(name, input_set, seed + 900 + k as u64);
                    for _ in 0..400 {
                        let _ = p.step_config(cfg);
                    }
                    total += p.totals().energy_delay_product(metric.exponent() as u32);
                }
                if total < best_score {
                    best_score = total;
                    best = cfg;
                }
            }
        }
    }
    best
}

fn same_config(a: &PlantConfig, b: &PlantConfig) -> bool {
    a.freq_ghz.to_bits() == b.freq_ghz.to_bits()
        && a.l2_ways == b.l2_ways
        && a.rob_entries == b.rob_entries
}

#[test]
fn sweep_chooses_the_serial_loops_configuration() {
    for seed in [2016, 7, 11, 23, 101] {
        for input_set in [InputSet::FreqCache, InputSet::FreqCacheRob] {
            for metric in [
                Metric::Energy,
                Metric::EnergyDelay,
                Metric::EnergyDelaySquared,
            ] {
                let swept = baseline_config(input_set, metric, seed);
                let serial = serial_baseline_config(input_set, metric, seed);
                assert!(
                    same_config(&swept, &serial),
                    "seed {seed} {input_set:?} {metric:?}: sweep {swept:?} != serial {serial:?}"
                );
            }
        }
    }
}

#[test]
fn candidates_are_the_serial_loops_grid_in_its_order() {
    for (input_set, robs) in [
        (InputSet::FreqCache, vec![48]),
        (InputSet::FreqCacheRob, vec![32, 64, 96, 128]),
    ] {
        let mut expected = Vec::new();
        for f in (0..8).map(|i| 0.5 + 0.2 * i as f64) {
            for c in [2, 4, 6, 8] {
                for &r in &robs {
                    expected.push(PlantConfig {
                        freq_ghz: (f * 10.0).round() / 10.0,
                        l2_ways: c,
                        rob_entries: r,
                    });
                }
            }
        }
        let got = baseline_candidates(input_set);
        assert_eq!(got.len(), 32 * robs.len());
        assert!(got.iter().zip(&expected).all(|(a, b)| same_config(a, b)));
    }
}
