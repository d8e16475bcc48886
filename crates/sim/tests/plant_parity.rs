//! Bit-exact parity of the plant's incremental epoch with the full model.
//!
//! `Processor` reuses every term whose inputs did not change since the
//! last epoch: the configuration's power terms, the phase×configuration
//! CPI terms, the settled phase smoothing, and the quantization of an
//! actuation that repeats the current configuration. The oracle
//! (`common::Oracle`, shared with `config_sweep.rs`) is a literal copy of
//! the uncached model,
//! which recomputes all of them every epoch. Random sequences of held and
//! fresh actuations, off-grid values, both input sets, LLC-penalty
//! changes, direct `step_config` calls, rejected actuations and resets —
//! on short-phase `gcc` half the time, so phase boundaries occur — must
//! leave every `Observation` and `RunTotals` identical bit for bit. The
//! oracle draws its noise from the plant's own `NormalSampler`: this test
//! checks the caching, and `normal_sampler.rs` checks the sampler.

mod common;

use common::{same_obs, same_totals, Oracle};
use mimo_linalg::Vector;
use mimo_sim::workload::catalog;
use mimo_sim::{InputSet, Observation, Plant, PlantConfig, Processor, ProcessorBuilder};
use proptest::prelude::*;

/// One scripted step of a random sequence.
#[derive(Debug, Clone)]
enum Op {
    /// The previous actuation again, the same bits.
    Hold,
    /// A fresh actuation of grid values.
    Grid([f64; 3]),
    /// A fresh actuation anywhere in (and somewhat past) the grids' ranges.
    OffGrid([f64; 3]),
    /// The current configuration's own values as the actuation: after an
    /// off-grid `Direct` step they must still be quantized.
    Echo,
    /// A configuration passed straight to `step_config`; the literal
    /// frequencies `1.2`, `1.7` and `1.9` are one ulp off the grid, and
    /// some cache and ROB sizes are off it too.
    Direct(PlantConfig),
    /// A shared-LLC penalty for the following epochs.
    Llc(f64),
    /// An actuation `apply_into` must reject without advancing.
    Rejected(Vec<f64>),
    Reset,
}

fn op(kind: usize, a: f64, b: f64, c: f64, pick: usize) -> Op {
    let grid = [
        0.5 + 0.1 * (pick % 16) as f64,
        [2.0, 4.0, 6.0, 8.0][pick % 4],
        16.0 * (1 + pick % 8) as f64,
    ];
    match kind {
        0..=27 => Op::Hold,
        28..=49 => Op::Grid(grid),
        50..=67 => Op::OffGrid([2.6 * a, 10.0 * b, 150.0 * c]),
        68..=74 => Op::Echo,
        75..=86 => Op::Direct(PlantConfig {
            freq_ghz: ((0.5 + 0.1 * (pick % 16) as f64) * 10.0).round() / 10.0,
            l2_ways: [2, 3, 4, 5, 6, 8][pick % 6],
            rob_entries: [16, 40, 48, 64, 100, 128][pick % 6],
        }),
        87..=92 => Op::Llc(if a < 0.3 { 1.0 } else { 1.0 + b }),
        93..=96 => Op::Rejected(if a < 0.5 {
            vec![grid[0]]
        } else {
            vec![f64::NAN, grid[1], grid[2]]
        }),
        _ => Op::Reset,
    }
}

/// Plays `script` (each op held for its repeat count) on a plant and the
/// oracle and returns the phase boundaries crossed, or the first epoch at
/// which they disagree.
fn play(
    plant: &mut Processor,
    oracle: &mut Oracle,
    script: &[(Op, usize)],
) -> Result<usize, String> {
    let mut u = PlantConfig::baseline().to_actuation(plant.input_set());
    let mut out = Vector::zeros(2);
    let mut boundaries = 0;
    for (epoch, (op, repeat)) in script.iter().enumerate() {
        for _ in 0..*repeat {
            let expected = match op {
                Op::Hold => oracle.apply(&u),
                Op::Grid(v) | Op::OffGrid(v) => {
                    u = v[..u.len()].to_vec();
                    oracle.apply(&u)
                }
                Op::Echo => {
                    u = plant.config().to_actuation(plant.input_set());
                    oracle.apply(&u)
                }
                Op::Direct(cfg) => {
                    let obs = plant.step_config(*cfg);
                    out[0] = obs.ips_bips;
                    out[1] = obs.power_w;
                    oracle.step_config(*cfg)
                }
                Op::Llc(penalty) => {
                    plant.set_llc_penalty(*penalty);
                    oracle.llc_penalty = *penalty;
                    continue;
                }
                Op::Rejected(bad) => {
                    let before = plant.totals();
                    if plant.apply_into(&Vector::from_slice(bad), &mut out).is_ok() {
                        return Err(format!("op {epoch}: {bad:?} was accepted"));
                    }
                    if !same_totals(&before, &plant.totals()) {
                        return Err(format!("op {epoch}: a rejected actuation advanced"));
                    }
                    continue;
                }
                Op::Reset => {
                    plant.reset();
                    oracle.reset();
                    continue;
                }
            };
            if !matches!(op, Op::Direct(_)) {
                plant
                    .apply_into(&Vector::from_slice(&u), &mut out)
                    .map_err(|e| format!("op {epoch}: {e}"))?;
            }
            let got = Observation {
                ips_bips: out[0],
                power_w: out[1],
                config: plant.config(),
                phase_change: plant.phase_changed(),
            };
            if !same_obs(&got, &expected) {
                return Err(format!(
                    "op {epoch} ({op:?}): {got:?} != oracle {expected:?}"
                ));
            }
            if !same_totals(&plant.totals(), &oracle.totals) {
                return Err(format!(
                    "op {epoch} ({op:?}): totals {:?} != oracle {:?}",
                    plant.totals(),
                    oracle.totals
                ));
            }
            boundaries += usize::from(got.phase_change);
        }
    }
    Ok(boundaries)
}

fn script_strategy() -> impl Strategy<Value = Vec<(Op, usize)>> {
    proptest::collection::vec(
        (
            0usize..100,
            0.0..1.0f64,
            0.0..1.0f64,
            0.0..1.0f64,
            0usize..10_000,
            1usize..120,
        ),
        1..60,
    )
    .prop_map(|steps| {
        steps
            .into_iter()
            .map(|(kind, a, b, c, pick, repeat)| (op(kind, a, b, c, pick), repeat))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_epochs_match_the_full_model_bit_for_bit(
        app in 0usize..56,
        seed in 0u64..1000,
        three_inputs in 0usize..2,
        script in script_strategy()
    ) {
        // Half the cases run `gcc`, whose short phases put boundaries
        // inside most scripts.
        let apps = catalog();
        let name = if app < apps.len() { apps[app].name() } else { "gcc" };
        let set = if three_inputs == 1 { InputSet::FreqCacheRob } else { InputSet::FreqCache };
        let mut plant = ProcessorBuilder::new().app(name).seed(seed).input_set(set).build().unwrap();
        let mut oracle = Oracle::new(name, seed, set);
        let outcome = play(&mut plant, &mut oracle, &script);
        prop_assert!(outcome.is_ok(), "{name} seed {seed} {set:?}: {}", outcome.unwrap_err());
    }
}

/// A long `gcc` run that holds each actuation for hundreds of epochs, so
/// the smoothed phase settles and several phase boundaries pass while the
/// cached terms are in use.
#[test]
fn held_actuations_across_phase_boundaries_match_the_full_model() {
    let script: Vec<(Op, usize)> = (0..12)
        .map(|k| (op(30, 0.0, 0.0, 0.0, 7 * k + 3), 400))
        .collect();
    for set in [InputSet::FreqCache, InputSet::FreqCacheRob] {
        let mut plant = ProcessorBuilder::new()
            .app("gcc")
            .seed(13)
            .input_set(set)
            .build()
            .unwrap();
        let mut oracle = Oracle::new("gcc", 13, set);
        let boundaries = play(&mut plant, &mut oracle, &script).unwrap();
        assert!(
            boundaries >= 3,
            "{set:?}: only {boundaries} phase boundaries"
        );
    }
}
