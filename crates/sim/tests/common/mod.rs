//! The uncached plant model both parity tests check against.
//!
//! `plant_parity.rs` pins the incremental `Processor` epoch to it and
//! `config_sweep.rs` pins `Processor::sweep` to it: one copy of the model
//! as it was before the plant reused any term, every term recomputed
//! every epoch.

// Each test binary uses part of the oracle.
#![allow(dead_code)]

use mimo_sim::cache::{CacheState, L2_LATENCY_CYCLES, MEM_LATENCY_NS};
use mimo_sim::corem::{BRANCH_PENALTY_CYCLES, ISSUE_WIDTH};
use mimo_sim::noise::NormalSampler;
use mimo_sim::power::{transition_cost, DVFS_TABLE};
use mimo_sim::processor::RunTotals;
use mimo_sim::workload::{lookup, AppProfile, Phase};
use mimo_sim::{InputSet, Observation, PlantConfig, EPOCH_US};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The uncached plant: `Processor` as it was before it reused any term.
pub struct Oracle {
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
    pub totals: RunTotals,
    pub llc_penalty: f64,
}

// `ProcessorBuilder::new()` defaults.
const IPS_NOISE: f64 = 0.01;
const POWER_NOISE: f64 = 0.015;
const PROCESS_NOISE: f64 = 0.05;

impl Oracle {
    pub fn new(app: &str, seed: u64, input_set: InputSet) -> Self {
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

    pub fn reset(&mut self) {
        *self = Oracle::new(self.profile.name(), self.seed, self.input_set);
    }

    pub fn apply(&mut self, u: &[f64]) -> Observation {
        let cfg = PlantConfig::from_actuation(u, self.input_set, &self.config).unwrap();
        self.step_config(cfg)
    }

    pub fn step_config(&mut self, target: PlantConfig) -> Observation {
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

pub fn same_obs(a: &Observation, b: &Observation) -> bool {
    a.ips_bips.to_bits() == b.ips_bips.to_bits()
        && a.power_w.to_bits() == b.power_w.to_bits()
        && a.config.freq_ghz.to_bits() == b.config.freq_ghz.to_bits()
        && a.config.l2_ways == b.config.l2_ways
        && a.config.rob_entries == b.config.rob_entries
        && a.phase_change == b.phase_change
}

pub fn same_totals(a: &RunTotals, b: &RunTotals) -> bool {
    a.energy_j.to_bits() == b.energy_j.to_bits()
        && a.instructions_g.to_bits() == b.instructions_g.to_bits()
        && a.time_s.to_bits() == b.time_s.to_bits()
        && a.epochs == b.epochs
}
