//! Bit-exact parity of the plant's incremental epoch with the full model.
//!
//! `Processor` reuses every term whose inputs did not change since the
//! last epoch: the configuration's power terms, the phase×configuration
//! CPI terms, the settled phase smoothing, and the quantization of an
//! actuation that repeats the current configuration. The oracle below is a literal copy of the uncached model,
//! which recomputes all of them every epoch. Random sequences of held and
//! fresh actuations, off-grid values, both input sets, LLC-penalty
//! changes, direct `step_config` calls, rejected actuations and resets —
//! on short-phase `gcc` half the time, so phase boundaries occur — must
//! leave every `Observation` and `RunTotals` identical bit for bit. The
//! oracle draws its noise from the plant's own `NormalSampler`: this test
//! checks the caching, and `normal_sampler.rs` checks the sampler.

use mimo_linalg::Vector;
use mimo_sim::cache::{CacheState, L2_LATENCY_CYCLES, MEM_LATENCY_NS};
use mimo_sim::corem::{BRANCH_PENALTY_CYCLES, ISSUE_WIDTH};
use mimo_sim::noise::NormalSampler;
use mimo_sim::power::{transition_cost, DVFS_TABLE};
use mimo_sim::processor::RunTotals;
use mimo_sim::workload::{catalog, lookup, AppProfile, Phase};
use mimo_sim::{InputSet, Observation, Plant, PlantConfig, Processor, ProcessorBuilder, EPOCH_US};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The uncached plant: `Processor` as it was before it reused any term.
struct Oracle {
    seed: u64,
    input_set: InputSet,
    profile: AppProfile,
    config: PlantConfig,
    cache: CacheState,
    rng: StdRng,
    normal: NormalSampler,
    phase_idx: usize,
    phase_left: usize,
    eff: Phase,
    totals: RunTotals,
    llc_penalty: f64,
}

// `ProcessorBuilder::new()` defaults.
const IPS_NOISE: f64 = 0.01;
const POWER_NOISE: f64 = 0.015;
const PROCESS_NOISE: f64 = 0.05;

impl Oracle {
    fn new(app: &str, seed: u64, input_set: InputSet) -> Self {
        let profile = lookup(app).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let first = profile.phases()[0];
        let phase_left = jittered_duration(first.duration_epochs, &mut rng);
        let config = PlantConfig::baseline();
        Oracle {
            seed,
            input_set,
            config,
            cache: CacheState::new(config.l2_ways),
            rng,
            normal: NormalSampler::new(),
            phase_idx: 0,
            phase_left,
            eff: first,
            totals: RunTotals::default(),
            llc_penalty: 1.0,
            profile,
        }
    }

    fn reset(&mut self) {
        *self = Oracle::new(self.profile.name(), self.seed, self.input_set);
    }

    fn apply(&mut self, u: &[f64]) -> Observation {
        let cfg = PlantConfig::from_actuation(u, self.input_set, &self.config).unwrap();
        self.step_config(cfg)
    }

    fn step_config(&mut self, target: PlantConfig) -> Observation {
        let cost = transition_cost(&self.config, &target);
        if target.l2_ways != self.cache.ways() {
            self.cache.resize(target.l2_ways);
        }
        self.config = target;

        let mut phase_changed = false;
        if self.phase_left == 0 {
            self.phase_idx += 1;
            let next = *self.profile.phase(self.phase_idx);
            self.phase_left = jittered_duration(next.duration_epochs, &mut self.rng);
            phase_changed = true;
        } else {
            self.phase_left -= 1;
        }
        let target_phase = *self.profile.phase(self.phase_idx);
        self.eff = lerp_phase(&self.eff, &target_phase, 0.12);
        self.cache.tick();

        let z = self.normal.sample(&mut self.rng);
        let mut jitter = (PROCESS_NOISE * z).exp();
        if self.rng.gen::<f64>() < 0.01 {
            jitter *= 1.5;
        }
        jitter *= self.llc_penalty;
        let ipc = 1.0 / cpi_total(&self.eff, &self.config, &self.cache, jitter);
        let exec_us = (EPOCH_US - cost.stall_us).max(0.0);
        let instr_g = ipc * self.config.freq_ghz * exec_us * 1e-6;
        let true_ips = instr_g / (EPOCH_US * 1e-6);

        let run_power =
            dynamic_power(&self.config, ipc, self.eff.activity) + leakage_power(&self.config);
        let stall_power =
            leakage_power(&self.config) + 0.3 * dynamic_power(&self.config, 0.0, self.eff.activity);
        let mut true_power = (run_power * exec_us + stall_power * cost.stall_us) / EPOCH_US;
        true_power += cost.energy_uj * 1e-6 / (EPOCH_US * 1e-6);

        self.totals.energy_j += true_power * EPOCH_US * 1e-6;
        self.totals.instructions_g += instr_g;
        self.totals.time_s += EPOCH_US * 1e-6;
        self.totals.epochs += 1;

        let ips_meas = true_ips * (1.0 + IPS_NOISE * self.normal.sample(&mut self.rng));
        let power_meas = true_power * (1.0 + POWER_NOISE * self.normal.sample(&mut self.rng));
        Observation {
            ips_bips: ips_meas.max(0.0),
            power_w: power_meas.max(0.0),
            config: self.config,
            phase_change: phase_changed,
        }
    }
}

/// Total CPI of the interval model, every term recomputed.
fn cpi_total(phase: &Phase, config: &PlantConfig, cache: &CacheState, mpki_jitter: f64) -> f64 {
    let window = (config.rob_entries as f64 / 96.0).min(1.0);
    let factor = window.powf(0.5 * phase.rob_sens * 2.0);
    let ilp = (phase.ilp * ((1.0 - phase.rob_sens) + phase.rob_sens * factor)).max(0.05);
    let base = 1.0 / ilp.min(ISSUE_WIDTH);

    let l1_steady = phase.l1_mpki * (4.0 / config.l1_ways() as f64).powf(0.5 * phase.cache_sens);
    let l1_mpki = l1_steady * mpki_jitter;
    let l1 = l1_mpki / 1000.0 * L2_LATENCY_CYCLES * 0.35;

    let l2_steady = phase.l2_mpki * (8.0 / cache.ways() as f64).powf(phase.cache_sens);
    let l2_mpki = l2_steady * (1.0 + 1.8 * (1.0 - cache.warmth())) * mpki_jitter;
    let mem_latency_cycles = MEM_LATENCY_NS * config.freq_ghz;
    let mlp_window = (config.rob_entries as f64 / 128.0).clamp(0.05, 1.0);
    let mlp = (1.0 + (phase.mem_parallelism - 1.0) * mlp_window.sqrt()).max(1.0);
    let l2 = l2_mpki / 1000.0 * mem_latency_cycles / mlp;

    let branch = phase.branch_mpki / 1000.0 * BRANCH_PENALTY_CYCLES;
    base + l1 + l2 + branch
}

fn voltage_for(freq_ghz: f64) -> f64 {
    let table = &DVFS_TABLE;
    if freq_ghz <= table[0].0 {
        return table[0].1;
    }
    for w in table.windows(2) {
        let (f0, v0) = w[0];
        let (f1, v1) = w[1];
        if freq_ghz <= f1 {
            return v0 + (v1 - v0) * (freq_ghz - f0) / (f1 - f0);
        }
    }
    table[table.len() - 1].1
}

fn dynamic_power(config: &PlantConfig, ipc: f64, activity: f64) -> f64 {
    let v = voltage_for(config.freq_ghz);
    let f = config.freq_ghz;
    let util = (ipc / ISSUE_WIDTH).clamp(0.0, 1.0);
    let c_core = 0.25 + 0.34 * util;
    let c_l1 = 0.08 * config.l1_ways() as f64 / 4.0;
    let c_l2 = 0.06 * config.l2_ways as f64 / 8.0;
    let c_rob = 0.15 * config.rob_entries as f64 / 128.0;
    activity * (c_core + c_l1 + c_l2 + c_rob) * v * v * f
}

fn leakage_power(config: &PlantConfig) -> f64 {
    let v = voltage_for(config.freq_ghz) / 1.05;
    let p = 0.16
        + 0.05 * config.l1_ways() as f64 / 4.0
        + 0.10 * config.l2_ways as f64 / 8.0
        + 0.12 * config.rob_entries as f64 / 128.0;
    p * v
}

fn jittered_duration(nominal: usize, rng: &mut StdRng) -> usize {
    let f = 1.0 + 0.15 * (rng.gen::<f64>() * 2.0 - 1.0);
    ((nominal as f64 * f) as usize).max(1)
}

fn lerp_phase(from: &Phase, to: &Phase, alpha: f64) -> Phase {
    let l = |a: f64, b: f64| a + (b - a) * alpha;
    Phase {
        ilp: l(from.ilp, to.ilp),
        l2_mpki: l(from.l2_mpki, to.l2_mpki),
        l1_mpki: l(from.l1_mpki, to.l1_mpki),
        cache_sens: l(from.cache_sens, to.cache_sens),
        rob_sens: l(from.rob_sens, to.rob_sens),
        branch_mpki: l(from.branch_mpki, to.branch_mpki),
        mem_parallelism: l(from.mem_parallelism, to.mem_parallelism),
        activity: l(from.activity, to.activity),
        duration_epochs: to.duration_epochs,
    }
}

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

fn same_obs(a: &Observation, b: &Observation) -> bool {
    a.ips_bips.to_bits() == b.ips_bips.to_bits()
        && a.power_w.to_bits() == b.power_w.to_bits()
        && a.config.freq_ghz.to_bits() == b.config.freq_ghz.to_bits()
        && a.config.l2_ways == b.config.l2_ways
        && a.config.rob_entries == b.config.rob_entries
        && a.phase_change == b.phase_change
}

fn same_totals(a: &RunTotals, b: &RunTotals) -> bool {
    a.energy_j.to_bits() == b.energy_j.to_bits()
        && a.instructions_g.to_bits() == b.instructions_g.to_bits()
        && a.time_s.to_bits() == b.time_s.to_bits()
        && a.epochs == b.epochs
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
