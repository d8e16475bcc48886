//! Bit-exact parity of `Processor::sweep` with one plant per configuration.
//!
//! A sweep advances one copy of the plant's seed-driven half (phase
//! schedule, miss jitter, sensor noise) per epoch and steps one
//! configuration-driven core per candidate against it. Its totals must
//! equal, bit for bit, those of cloning the plant once per candidate and
//! calling `step_config` with it every epoch — and those of the uncached
//! model `common::Oracle` (shared with `plant_parity.rs`), which also
//! checks every observation of the per-candidate reference runs. The cases cover both
//! input sets, short-phase `gcc` (phase boundaries inside the window), a
//! candidate equal to the plant's own configuration (no transition), an
//! off-grid candidate (no shared power-table entry), a plant that has
//! already run and carries an LLC penalty, zero epochs and no candidates.

mod common;

use common::{same_obs, same_totals, Oracle};
use mimo_sim::processor::RunTotals;
use mimo_sim::workload::catalog;
use mimo_sim::{InputSet, PlantConfig, Processor, ProcessorBuilder};
use proptest::prelude::*;

fn build(app: &str, seed: u64, set: InputSet) -> Processor {
    ProcessorBuilder::new()
        .app(app)
        .seed(seed)
        .input_set(set)
        .build()
        .unwrap()
}

/// The reference the sweep replaces: a clone of `plant` per candidate,
/// stepped through `step_config`.
fn serial(plant: &Processor, configs: &[PlantConfig], epochs: usize) -> Vec<RunTotals> {
    configs
        .iter()
        .map(|&cfg| {
            let mut p = plant.clone();
            for _ in 0..epochs {
                p.step_config(cfg);
            }
            p.totals()
        })
        .collect()
}

/// Checks `plant.sweep` against the serial reference, entry by entry.
fn check_sweep(plant: &Processor, configs: &[PlantConfig], epochs: usize) -> Result<(), String> {
    let swept = plant.sweep(configs, epochs);
    let expected = serial(plant, configs, epochs);
    if swept.len() != configs.len() {
        return Err(format!(
            "{} totals for {} configs",
            swept.len(),
            configs.len()
        ));
    }
    for ((cfg, got), want) in configs.iter().zip(&swept).zip(&expected) {
        if !same_totals(got, want) {
            return Err(format!("{cfg:?}: sweep {got:?} != serial {want:?}"));
        }
    }
    Ok(())
}

/// Candidates on and off the grid, with the plant's initial (baseline)
/// configuration among them.
fn candidates(set: InputSet) -> Vec<PlantConfig> {
    let mut configs = vec![
        PlantConfig::baseline(),
        PlantConfig::max(),
        PlantConfig::midrange(),
        PlantConfig {
            freq_ghz: 0.7,
            l2_ways: 2,
            rob_entries: 128,
        },
        // Off the grid in every input: no shared power-table entry.
        PlantConfig {
            freq_ghz: 1.25,
            l2_ways: 3,
            rob_entries: 40,
        },
    ];
    if set == InputSet::FreqCache {
        for c in &mut configs {
            c.rob_entries = 48;
        }
    }
    configs
}

#[test]
fn sweep_matches_one_plant_per_candidate_and_the_full_model() {
    for set in [InputSet::FreqCache, InputSet::FreqCacheRob] {
        // `gcc`'s first phase lasts about 900 epochs.
        for (app, seed, epochs) in [("gcc", 13, 1200), ("namd", 2016, 400)] {
            let configs = candidates(set);
            assert_eq!(configs[0], PlantConfig::baseline());
            assert!(configs[4].validate().is_err());
            let plant = build(app, seed, set);
            let swept = plant.sweep(&configs, epochs);
            for (cfg, got) in configs.iter().zip(&swept) {
                let mut p = plant.clone();
                let mut oracle = Oracle::new(app, seed, set);
                let mut boundaries = 0;
                for epoch in 0..epochs {
                    let obs = p.step_config(*cfg);
                    let want = oracle.step_config(*cfg);
                    assert!(
                        same_obs(&obs, &want),
                        "{app} {set:?} {cfg:?} epoch {epoch}: {obs:?} != oracle {want:?}"
                    );
                    boundaries += usize::from(obs.phase_change);
                }
                if app == "gcc" {
                    assert!(boundaries >= 1, "{cfg:?}: no phase boundary in the window");
                }
                assert!(
                    same_totals(got, &p.totals()),
                    "{app} {set:?} {cfg:?}: sweep {got:?} != serial {:?}",
                    p.totals()
                );
                assert!(
                    same_totals(got, &oracle.totals),
                    "{app} {set:?} {cfg:?}: sweep {got:?} != oracle {:?}",
                    oracle.totals
                );
            }
        }
    }
}

#[test]
fn sweep_starts_from_the_plants_current_state_and_leaves_it() {
    for set in [InputSet::FreqCache, InputSet::FreqCacheRob] {
        let mut plant = build("gcc", 7, set);
        for e in 0..150 {
            plant.step_config(candidates(set)[e % 5]);
        }
        plant.set_llc_penalty(1.2);
        let before = plant.clone();
        check_sweep(&plant, &candidates(set), 300).unwrap();
        // The plant did not move: its next epoch is its clone's.
        let (mut a, mut b) = (plant, before);
        assert!(same_totals(&a.totals(), &b.totals()));
        let cfg = PlantConfig::max();
        assert!(same_obs(&a.step_config(cfg), &b.step_config(cfg)));
    }
}

#[test]
fn zero_epochs_and_no_candidates() {
    let mut plant = build("astar", 3, InputSet::FreqCacheRob);
    for _ in 0..20 {
        plant.step_config(PlantConfig::max());
    }
    assert!(plant.sweep(&[], 100).is_empty());
    let configs = candidates(InputSet::FreqCacheRob);
    let totals = plant.sweep(&configs, 0);
    assert_eq!(totals.len(), configs.len());
    for t in &totals {
        assert!(same_totals(t, &plant.totals()), "{t:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_sweeps_match_one_plant_per_candidate(
        app in 0usize..56,
        seed in 0u64..1000,
        three_inputs in 0usize..2,
        prefix in 0usize..200,
        epochs in 0usize..300,
        picks in proptest::collection::vec((0usize..16, 0usize..6, 0usize..9), 0..12)
    ) {
        // Half the cases run `gcc`, whose short phases put boundaries
        // inside most windows.
        let apps = catalog();
        let name = if app < apps.len() { apps[app].name() } else { "gcc" };
        let set = if three_inputs == 1 { InputSet::FreqCacheRob } else { InputSet::FreqCache };
        let mut plant = build(name, seed, set);
        for _ in 0..prefix {
            plant.step_config(PlantConfig::midrange());
        }
        // Grid values, plus an off-grid cache size and ROB size.
        let configs: Vec<PlantConfig> = picks
            .iter()
            .map(|&(f, c, r)| PlantConfig {
                freq_ghz: [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0][f],
                l2_ways: [2, 4, 6, 8, 3, 5][c],
                rob_entries: [16, 32, 48, 64, 80, 96, 112, 128, 40][r],
            })
            .collect();
        let outcome = check_sweep(&plant, &configs, epochs);
        prop_assert!(outcome.is_ok(), "{name} seed {seed} {set:?}: {}", outcome.unwrap_err());
    }
}
