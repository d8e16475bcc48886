//! The controlled plant: a configurable processor running an application.
//!
//! [`Processor`] ties the workload, core, cache, and power models together
//! behind the paper's control interface: every 50 µs epoch the controller
//! supplies an actuation vector, and the plant returns the measured
//! outputs `[IPS (BIPS), power (W)]`. The plant injects everything the
//! paper's unpredictability matrices account for — program phase changes,
//! miss-rate jitter from interrupts and input-dependent behavior, and
//! sensor noise on both outputs.

use mimo_linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cache::CacheState;
use crate::config::{InputSet, PlantConfig};
use crate::corem::CpiTerms;
use crate::noise::NormalSampler;
use crate::power::{self, ConfigPower, TransitionCost};
use crate::workload::{lookup_shared, AppProfile, Phase};
use crate::{Result, SimError, EPOCH_US};

/// Interface controllers use to drive a plant one epoch at a time.
///
/// Implemented by [`Processor`]; controller code is written against this
/// trait so tests can substitute analytic plants.
pub trait Plant {
    /// Number of actuated inputs.
    fn num_inputs(&self) -> usize;
    /// Number of observed outputs.
    fn num_outputs(&self) -> usize;
    /// Allowed values per input, ascending.
    fn input_grids(&self) -> Vec<Vec<f64>>;
    /// Runs one epoch *holding the current configuration* and returns the
    /// measured outputs — the first reading a controller sees before it
    /// has issued any actuation.
    fn observe(&mut self) -> Vector;
    /// Applies an actuation for one epoch, writing the measured outputs
    /// into `out`. This is the one step a plant implements; the epoch hot
    /// loop calls it, so an implementation should not allocate in steady
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadActuation`] when `u` or `out` has the wrong
    /// number of entries and [`SimError::NonFiniteActuation`] when an
    /// actuation entry is NaN or infinite. On error the plant does not
    /// advance and `out` is left untouched.
    fn apply_into(&mut self, u: &Vector, out: &mut Vector) -> Result<()>;
    /// [`Plant::apply_into`] into a fresh vector, for callers outside the
    /// hot loop.
    ///
    /// # Panics
    ///
    /// Panics with the error when `apply_into` rejects the actuation
    /// (wrong length or non-finite entries).
    fn apply(&mut self, u: &Vector) -> Vector {
        let mut out = Vector::zeros(self.num_outputs());
        if let Err(e) = self.apply_into(u, &mut out) {
            panic!("{e}");
        }
        out
    }
    /// Whether the last epoch crossed a program phase boundary.
    fn phase_changed(&self) -> bool;
    /// Restarts the plant from its initial state.
    fn reset(&mut self);
}

/// Mutable references step the referenced plant.
impl<P: Plant + ?Sized> Plant for &mut P {
    fn num_inputs(&self) -> usize {
        (**self).num_inputs()
    }
    fn num_outputs(&self) -> usize {
        (**self).num_outputs()
    }
    fn input_grids(&self) -> Vec<Vec<f64>> {
        (**self).input_grids()
    }
    fn observe(&mut self) -> Vector {
        (**self).observe()
    }
    fn apply_into(&mut self, u: &Vector, out: &mut Vector) -> Result<()> {
        (**self).apply_into(u, out)
    }
    fn phase_changed(&self) -> bool {
        (**self).phase_changed()
    }
    fn reset(&mut self) {
        (**self).reset();
    }
}

/// Boxed plants step the boxed plant.
impl<P: Plant + ?Sized> Plant for Box<P> {
    fn num_inputs(&self) -> usize {
        (**self).num_inputs()
    }
    fn num_outputs(&self) -> usize {
        (**self).num_outputs()
    }
    fn input_grids(&self) -> Vec<Vec<f64>> {
        (**self).input_grids()
    }
    fn observe(&mut self) -> Vector {
        (**self).observe()
    }
    fn apply_into(&mut self, u: &Vector, out: &mut Vector) -> Result<()> {
        (**self).apply_into(u, out)
    }
    fn phase_changed(&self) -> bool {
        (**self).phase_changed()
    }
    fn reset(&mut self) {
        (**self).reset();
    }
}

/// One epoch's measured outputs plus bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Measured performance in billions of instructions per second.
    pub ips_bips: f64,
    /// Measured power in watts.
    pub power_w: f64,
    /// Configuration actually in effect this epoch (post-quantization).
    pub config: PlantConfig,
    /// Whether a program phase boundary was crossed.
    pub phase_change: bool,
}

/// Cumulative run statistics for energy/delay metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunTotals {
    /// Total energy in joules.
    pub energy_j: f64,
    /// Total committed instructions, in billions.
    pub instructions_g: f64,
    /// Total wall-clock time in seconds.
    pub time_s: f64,
    /// Epochs executed.
    pub epochs: u64,
}

impl RunTotals {
    /// Energy × Delay^(k−1) for the executed work: `E`, `E×D`, `E×D²`, …
    ///
    /// Delay is normalized per billion instructions so runs of different
    /// lengths compare fairly.
    pub fn energy_delay_product(&self, k: u32) -> f64 {
        if self.instructions_g <= 0.0 {
            return f64::INFINITY;
        }
        let e = self.energy_j / self.instructions_g;
        let d = self.time_s / self.instructions_g;
        e * d.powi(k as i32 - 1)
    }

    /// Average IPS in BIPS over the whole run.
    pub fn avg_bips(&self) -> f64 {
        if self.time_s > 0.0 {
            self.instructions_g / self.time_s
        } else {
            0.0
        }
    }

    /// Average power in watts over the whole run.
    pub fn avg_power(&self) -> f64 {
        if self.time_s > 0.0 {
            self.energy_j / self.time_s
        } else {
            0.0
        }
    }
}

/// Builder for [`Processor`].
///
/// # Example
///
/// ```
/// use mimo_sim::ProcessorBuilder;
///
/// # fn main() -> Result<(), mimo_sim::SimError> {
/// let cpu = ProcessorBuilder::new()
///     .app("astar")
///     .seed(1)
///     .sensor_noise(0.01, 0.015)
///     .build()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProcessorBuilder {
    app: String,
    settings: Settings,
}

/// What a built [`Processor`] keeps of its builder: every setting but the
/// application name, which the shared [`AppProfile`] already carries.
#[derive(Debug, Clone, Copy)]
struct Settings {
    seed: u64,
    input_set: InputSet,
    initial: PlantConfig,
    ips_noise: f64,
    power_noise: f64,
    process_noise: f64,
}

impl ProcessorBuilder {
    /// Starts a builder with the paper's defaults: the 3-input plant at the
    /// baseline configuration, running `namd`.
    pub fn new() -> Self {
        ProcessorBuilder {
            app: "namd".to_owned(),
            settings: Settings {
                seed: 0,
                input_set: InputSet::FreqCacheRob,
                initial: PlantConfig::baseline(),
                ips_noise: 0.01,
                power_noise: 0.015,
                process_noise: 0.05,
            },
        }
    }

    /// Selects the application by catalog name.
    pub fn app(mut self, name: &str) -> Self {
        self.app = name.to_owned();
        self
    }

    /// Seeds all stochastic behavior (deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.settings.seed = seed;
        self
    }

    /// Chooses the actuated input set (2-input or 3-input plant).
    pub fn input_set(mut self, set: InputSet) -> Self {
        self.settings.input_set = set;
        self
    }

    /// Sets the relative sensor-noise standard deviations for IPS and
    /// power readings.
    pub fn sensor_noise(mut self, ips: f64, power: f64) -> Self {
        self.settings.ips_noise = ips;
        self.settings.power_noise = power;
        self
    }

    /// Sets the relative process-noise level (miss-traffic jitter).
    pub fn process_noise(mut self, sigma: f64) -> Self {
        self.settings.process_noise = sigma;
        self
    }

    /// Builds the processor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownApp`] for an unknown application name and
    /// [`SimError::InvalidConfig`] for an off-grid initial configuration.
    pub fn build(self) -> Result<Processor> {
        let profile = lookup_shared(&self.app).ok_or_else(|| SimError::UnknownApp {
            name: self.app.clone(),
        })?;
        self.settings.initial.validate()?;
        Ok(Processor::from_parts(self.settings, profile))
    }
}

impl Default for ProcessorBuilder {
    fn default() -> Self {
        ProcessorBuilder::new()
    }
}

/// The simulated processor plant.
///
/// Its state is two halves. The *program* is everything the seed
/// decides: the random stream, the phase schedule and the smoothed phase.
/// The *core* is everything the configuration decides: the configuration
/// itself, the cache, the cached model terms and the run totals. No random
/// draw depends on the configuration, so plants with one seed and
/// different configurations share one program, which is what
/// [`Processor::sweep`] exploits.
#[derive(Debug, Clone)]
pub struct Processor {
    settings: Settings,
    program: Program,
    core: Core,
}

/// The seed-driven half of the plant.
#[derive(Debug, Clone)]
struct Program {
    profile: &'static AppProfile,
    rng: StdRng,
    /// Normal draws from `rng`, holding the spare of the last transform.
    normal: NormalSampler,
    /// Index into the (cyclic) phase sequence.
    phase_idx: usize,
    /// Epochs remaining in the current (jittered) phase.
    phase_left: usize,
    /// First-order-smoothed effective phase parameters (the program does
    /// not switch behavior instantaneously at a phase boundary).
    eff: Phase,
    /// Whether `eff` has reached the f64 fixed point of its smoothing
    /// toward the current phase, so further smoothing changes nothing
    /// until the next phase boundary.
    eff_settled: bool,
    phase_changed: bool,
}

/// The configuration-driven half of the plant.
#[derive(Debug, Clone, Copy)]
struct Core {
    config: PlantConfig,
    cache: CacheState,
    /// CPI terms of the program's smoothed phase under `config`, rebuilt
    /// whenever either moves.
    cpi_terms: CpiTerms,
    /// `config`'s entry in the shared power table; `None` exactly when
    /// `config` is off the grid, where each epoch computes the terms
    /// afresh.
    config_power: Option<&'static ConfigPower>,
    totals: RunTotals,
    /// Shared-LLC miss-pressure multiplier installed by the chip runtime
    /// (see `mimo_sim::llc`). `1.0` — the default, and the value outside
    /// contention — multiplies the miss-traffic jitter bit-transparently,
    /// so plants without a contention model are unaffected.
    llc_penalty: f64,
}

/// Fraction of the gap to the target phase closed per epoch.
const PHASE_SMOOTHING: f64 = 0.12;

impl Processor {
    fn from_parts(settings: Settings, profile: &'static AppProfile) -> Self {
        let program = Program::new(profile, settings.seed);
        let core = Core::new(settings.initial, &program.eff);
        Processor {
            settings,
            program,
            core,
        }
    }

    /// The currently applied configuration.
    pub fn config(&self) -> PlantConfig {
        self.core.config
    }

    /// The active input set.
    pub fn input_set(&self) -> InputSet {
        self.settings.input_set
    }

    /// Cumulative run statistics.
    pub fn totals(&self) -> RunTotals {
        self.core.totals
    }

    /// The shared-LLC miss-pressure multiplier currently applied.
    pub fn llc_penalty(&self) -> f64 {
        self.core.llc_penalty
    }

    /// Installs the shared-LLC miss-pressure multiplier for subsequent
    /// epochs. The chip runtime calls this at the retarget beat with the
    /// value `mimo_sim::llc::SharedLlc` computed from the whole chip's way
    /// allocations; `1.0` restores the uncontended plant bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or sub-unity multiplier — contention can
    /// only add miss pressure.
    pub fn set_llc_penalty(&mut self, penalty: f64) {
        assert!(
            penalty.is_finite() && penalty >= 1.0,
            "llc penalty {penalty} must be finite and >= 1"
        );
        self.core.llc_penalty = penalty;
    }

    /// Runs one epoch with an explicit configuration (used by profiling and
    /// identification flows that bypass actuation vectors).
    ///
    /// Only the terms whose inputs changed since the last epoch are
    /// recomputed. Every floating-point operation that runs is the one the
    /// full model runs, in the same order, so reusing a term never moves a
    /// bit.
    pub fn step_config(&mut self, target: PlantConfig) -> Observation {
        let (jitter, eff_moved) = self.program.advance(self.settings.process_noise);
        let (true_ips, true_power) = self.core.step(target, &self.program.eff, eff_moved, jitter);

        // --- Sensors -------------------------------------------------------
        let (z_ips, z_power) = self.program.sensor_normals();
        let ips_meas = true_ips * (1.0 + self.settings.ips_noise * z_ips);
        let power_meas = true_power * (1.0 + self.settings.power_noise * z_power);

        Observation {
            ips_bips: ips_meas.max(0.0),
            power_w: power_meas.max(0.0),
            config: self.core.config,
            phase_change: self.program.phase_changed,
        }
    }

    /// Runs `epochs` epochs at each of `configs` from this plant's current
    /// state and returns each run's totals, in the order of `configs`. The
    /// plant itself does not move.
    ///
    /// The totals are bit for bit those of cloning the plant once per
    /// configuration and calling [`Processor::step_config`] with it
    /// `epochs` times. That holds exactly, not approximately: the program
    /// half of the plant (phase schedule, miss jitter, sensor noise) is
    /// drawn from the seed alone, so every configuration sees the same
    /// one. The sweep advances one copy of it per epoch and steps one core
    /// state per configuration against it, so it pays for the random draws
    /// once rather than once per configuration, and allocates only the
    /// per-configuration state.
    pub fn sweep(&self, configs: &[PlantConfig], epochs: usize) -> Vec<RunTotals> {
        let mut program = self.program.clone();
        let mut cores = vec![self.core; configs.len()];
        for _ in 0..epochs {
            let (jitter, eff_moved) = program.advance(self.settings.process_noise);
            for (core, &target) in cores.iter_mut().zip(configs) {
                core.step(target, &program.eff, eff_moved, jitter);
            }
            program.sensor_normals();
        }
        cores.iter().map(|core| core.totals).collect()
    }

    /// Whether `u` is bit for bit the actuation of the current on-grid
    /// configuration, which quantizing would give back unchanged.
    fn actuates_current_config(&self, u: &[f64]) -> bool {
        let c = &self.core.config;
        self.core.config_power.is_some()
            && u.len() == self.settings.input_set.len()
            && u[0].to_bits() == c.freq_ghz.to_bits()
            && u[1].to_bits() == (c.l2_ways as f64).to_bits()
            && u.get(2)
                .is_none_or(|r| r.to_bits() == (c.rob_entries as f64).to_bits())
    }
}

impl Program {
    fn new(profile: &'static AppProfile, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let first = profile.phases()[0];
        let phase_left = jittered_duration(first.duration_epochs, &mut rng);
        Program {
            profile,
            rng,
            normal: NormalSampler::new(),
            phase_idx: 0,
            phase_left,
            eff: first,
            eff_settled: false,
            phase_changed: false,
        }
    }

    /// Advances the program one epoch and draws its miss-traffic jitter.
    /// Returns the jitter and whether the smoothed phase moved.
    #[inline(always)]
    fn advance(&mut self, process_noise: f64) -> (f64, bool) {
        self.phase_changed = false;
        if self.phase_left == 0 {
            self.phase_idx += 1;
            let next = *self.profile.phase(self.phase_idx);
            self.phase_left = jittered_duration(next.duration_epochs, &mut self.rng);
            self.phase_changed = true;
            self.eff_settled = false;
        } else {
            self.phase_left -= 1;
        }
        let mut eff_moved = false;
        if !self.eff_settled {
            let target_phase = self.profile.phase(self.phase_idx);
            let next = lerp_phase(&self.eff, target_phase, PHASE_SMOOTHING);
            eff_moved = !same_phase_bits(&next, &self.eff);
            self.eff_settled = !eff_moved;
            self.eff = next;
        }

        // Miss-traffic jitter: log-normal-ish program noise plus rare
        // interrupt spikes.
        let z = self.normal.sample(&mut self.rng);
        let mut jitter = (process_noise * z).exp();
        if self.rng.gen::<f64>() < 0.01 {
            jitter *= 1.5; // interrupt / page-fault burst
        }
        (jitter, eff_moved)
    }

    /// The epoch's two sensor-noise normals, IPS first.
    #[inline(always)]
    fn sensor_normals(&mut self) -> (f64, f64) {
        let z_ips = self.normal.sample(&mut self.rng);
        (z_ips, self.normal.sample(&mut self.rng))
    }
}

impl Core {
    fn new(config: PlantConfig, phase: &Phase) -> Self {
        Core {
            config,
            cache: CacheState::new(config.l2_ways),
            cpi_terms: CpiTerms::new(phase, &config, config.l2_ways),
            config_power: power_entry(&config),
            totals: RunTotals::default(),
            llc_penalty: 1.0,
        }
    }

    /// Runs one epoch at `target` under the program's smoothed phase `eff`
    /// and miss-traffic `jitter`, and returns the true (noise-free) IPS
    /// and power.
    #[inline(always)]
    fn step(
        &mut self,
        target: PlantConfig,
        eff: &Phase,
        eff_moved: bool,
        jitter: f64,
    ) -> (f64, f64) {
        // --- Actuation and transition costs -----------------------------
        // An unmoved configuration costs nothing, and its stall and energy
        // terms below would only add exact zeros.
        let moved = !target.same_bits(&self.config);
        let cost = if moved {
            let cost = power::transition_cost(&self.config, &target);
            if target.l2_ways != self.cache.ways() {
                self.cache.resize(target.l2_ways);
            }
            self.config = target;
            self.config_power = power_entry(&target);
            cost
        } else {
            TransitionCost::default()
        };
        if moved || eff_moved {
            self.cpi_terms = CpiTerms::new(eff, &self.config, self.cache.ways());
        }
        self.cache.tick();

        // --- Performance -----------------------------------------------
        // Shared-LLC contention raises effective miss traffic; at the
        // default 1.0 this multiply is bit-transparent (x * 1.0 == x).
        let jitter = jitter * self.llc_penalty;
        let breakdown = self.cpi_terms.breakdown(&self.cache, jitter);
        let ipc = breakdown.ipc();
        let exec_us = (EPOCH_US - cost.stall_us).max(0.0);
        // instructions [billions] = IPC · f[Gcycles/s] · t[s].
        let instr_g = ipc * self.config.freq_ghz * exec_us * 1e-6;
        let true_ips = instr_g / (EPOCH_US * 1e-6); // BIPS averaged over the epoch

        // --- Power -------------------------------------------------------
        let config_power = match self.config_power {
            Some(entry) => *entry,
            None => ConfigPower::new(&self.config),
        };
        let run_power = config_power.total_power(ipc, eff.activity);
        let mut true_power = run_power * exec_us;
        if moved {
            // During transition stalls the core clock-gates most dynamic
            // power.
            let stall_power =
                config_power.leakage_w + 0.3 * config_power.dynamic_power(0.0, eff.activity);
            true_power = (true_power + stall_power * cost.stall_us) / EPOCH_US
                + cost.energy_uj * 1e-6 / (EPOCH_US * 1e-6);
        } else {
            true_power /= EPOCH_US;
        }

        // --- Accounting ---------------------------------------------------
        self.totals.energy_j += true_power * EPOCH_US * 1e-6;
        self.totals.instructions_g += instr_g;
        self.totals.time_s += EPOCH_US * 1e-6;
        self.totals.epochs += 1;
        (true_ips, true_power)
    }
}

/// The shared power-table entry of an on-grid configuration.
fn power_entry(config: &PlantConfig) -> Option<&'static ConfigPower> {
    config.grid_index().map(|i| &ConfigPower::table()[i])
}

/// Whether two phases are identical bit for bit.
fn same_phase_bits(a: &Phase, b: &Phase) -> bool {
    let bits = |p: &Phase| {
        [
            p.ilp,
            p.l2_mpki,
            p.l1_mpki,
            p.cache_sens,
            p.rob_sens,
            p.branch_mpki,
            p.mem_parallelism,
            p.activity,
        ]
        .map(f64::to_bits)
    };
    bits(a) == bits(b) && a.duration_epochs == b.duration_epochs
}

impl Plant for Processor {
    fn num_inputs(&self) -> usize {
        self.settings.input_set.len()
    }

    fn num_outputs(&self) -> usize {
        2
    }

    fn input_grids(&self) -> Vec<Vec<f64>> {
        self.settings
            .input_set
            .grids()
            .iter()
            .map(|g| g.values().to_vec())
            .collect()
    }

    fn observe(&mut self) -> Vector {
        // One epoch at the current configuration provides the first reading.
        let u = Vector::from_slice(&self.core.config.to_actuation(self.settings.input_set));
        self.apply(&u)
    }

    fn apply_into(&mut self, u: &Vector, out: &mut Vector) -> Result<()> {
        if out.len() != 2 {
            return Err(SimError::BadActuation {
                got: out.len(),
                expected: 2,
            });
        }
        if let Some(channel) = u.iter().position(|v| !v.is_finite()) {
            return Err(SimError::NonFiniteActuation { channel });
        }
        let cfg = if self.actuates_current_config(u.as_slice()) {
            self.core.config
        } else {
            PlantConfig::from_actuation(u.as_slice(), self.settings.input_set, &self.core.config)?
        };
        let obs = self.step_config(cfg);
        out[0] = obs.ips_bips;
        out[1] = obs.power_w;
        Ok(())
    }

    fn phase_changed(&self) -> bool {
        self.program.phase_changed
    }

    fn reset(&mut self) {
        *self = Processor::from_parts(self.settings, self.program.profile);
    }
}

/// Jitters a nominal phase duration by ±15%.
fn jittered_duration(nominal: usize, rng: &mut StdRng) -> usize {
    let f = 1.0 + 0.15 * (rng.gen::<f64>() * 2.0 - 1.0);
    ((nominal as f64 * f) as usize).max(1)
}

/// First-order interpolation of phase parameters.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(name: &str, seed: u64) -> Processor {
        ProcessorBuilder::new()
            .app(name)
            .seed(seed)
            .sensor_noise(0.0, 0.0)
            .process_noise(0.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_unknown_app() {
        assert!(matches!(
            ProcessorBuilder::new().app("crysis").build(),
            Err(SimError::UnknownApp { .. })
        ));
    }

    #[test]
    fn llc_penalty_raises_misses_and_default_is_transparent() {
        let run = |penalty: f64| {
            let mut p = quiet("mcf", 11); // memory-bound: misses dominate
            p.set_llc_penalty(penalty);
            let u = Vector::from_slice(&[1.3, 6.0, 48.0]);
            (0..50).map(|_| p.apply(&u)[0]).sum::<f64>()
        };
        let base = run(1.0);
        // Installing the neutral penalty is bit-identical to never touching
        // the plant (x * 1.0 == x).
        let untouched = {
            let mut p = quiet("mcf", 11);
            let u = Vector::from_slice(&[1.3, 6.0, 48.0]);
            (0..50).map(|_| p.apply(&u)[0]).sum::<f64>()
        };
        assert_eq!(base.to_bits(), untouched.to_bits());
        // Contention pressure lowers performance.
        assert!(run(1.3) < base);
    }

    #[test]
    #[should_panic(expected = "llc penalty")]
    fn llc_penalty_below_one_rejected() {
        quiet("mcf", 1).set_llc_penalty(0.5);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut p = ProcessorBuilder::new()
                .app("astar")
                .seed(seed)
                .build()
                .unwrap();
            let u = Vector::from_slice(&[1.3, 6.0, 48.0]);
            (0..50).map(|_| p.apply(&u)[0]).sum::<f64>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn outputs_positive_and_bounded() {
        let mut p = ProcessorBuilder::new().app("milc").seed(9).build().unwrap();
        for i in 0..200 {
            let f = 0.5 + 0.1 * (i % 16) as f64;
            let y = p.apply(&Vector::from_slice(&[f, 8.0, 128.0]));
            assert!(y[0] > 0.0 && y[0] < 6.0, "IPS {y:?}");
            assert!(y[1] > 0.1 && y[1] < 4.0, "power {y:?}");
        }
    }

    #[test]
    fn frequency_raises_power_and_compute_ips() {
        let mut p = quiet("namd", 1);
        // Settle at low frequency.
        let mut lo = Vector::zeros(2);
        for _ in 0..50 {
            lo = p.apply(&Vector::from_slice(&[0.5, 8.0, 128.0]));
        }
        let mut hi = Vector::zeros(2);
        for _ in 0..50 {
            hi = p.apply(&Vector::from_slice(&[2.0, 8.0, 128.0]));
        }
        assert!(hi[0] > 2.0 * lo[0], "IPS should scale: {lo:?} → {hi:?}");
        assert!(hi[1] > 2.0 * lo[1], "power should scale: {lo:?} → {hi:?}");
    }

    #[test]
    fn responsive_app_reaches_targets_in_situ() {
        // End-to-end check of §VII-B1 feasibility: namd at high config
        // exceeds 2.5 BIPS with power under ~3 W.
        let mut p = quiet("namd", 2);
        let mut y = Vector::zeros(2);
        for _ in 0..100 {
            y = p.apply(&Vector::from_slice(&[2.0, 8.0, 128.0]));
        }
        assert!(y[0] > 2.5, "namd IPS {y:?}");
    }

    #[test]
    fn non_responsive_app_cannot_reach_targets_in_situ() {
        let mut p = quiet("mcf", 2);
        let mut best: f64 = 0.0;
        for _ in 0..300 {
            let y = p.apply(&Vector::from_slice(&[2.0, 8.0, 128.0]));
            best = best.max(y[0]);
        }
        assert!(best < 2.0, "mcf reached {best}");
    }

    #[test]
    fn dvfs_transition_stalls_one_epoch() {
        let mut p = quiet("gamess", 5);
        let u_lo = Vector::from_slice(&[1.0, 8.0, 128.0]);
        for _ in 0..50 {
            p.apply(&u_lo);
        }
        let settled = p.apply(&u_lo)[0];
        // Switch frequency: the transition epoch loses ~5µs of work relative
        // to the next settled epoch at the same new frequency.
        let u_hi = Vector::from_slice(&[1.1, 8.0, 128.0]);
        let transition = p.apply(&u_hi)[0];
        let mut after = 0.0;
        for _ in 0..30 {
            after = p.apply(&u_hi)[0];
        }
        assert!(
            transition < after,
            "transition {transition} vs settled {after}"
        );
        assert!(after > settled, "higher f should win eventually");
    }

    #[test]
    fn cache_growth_shows_warmup_transient() {
        let mut p = quiet("milc", 3);
        let small = Vector::from_slice(&[1.3, 2.0, 128.0]);
        for _ in 0..100 {
            p.apply(&small);
        }
        let big = Vector::from_slice(&[1.3, 8.0, 128.0]);
        let first = p.apply(&big)[0];
        let mut later = 0.0;
        for _ in 0..60 {
            later = p.apply(&big)[0];
        }
        assert!(later > first * 1.05, "warmup: first {first}, later {later}");
    }

    #[test]
    fn totals_accumulate_consistently() {
        let mut p = quiet("astar", 7);
        let u = Vector::from_slice(&[1.3, 6.0, 48.0]);
        for _ in 0..100 {
            p.apply(&u);
        }
        let t = p.totals();
        assert_eq!(t.epochs, 100);
        assert!((t.time_s - 100.0 * 50e-6).abs() < 1e-12);
        assert!(t.energy_j > 0.0);
        assert!(t.instructions_g > 0.0);
        // avg power sanity.
        assert!((0.3..3.0).contains(&t.avg_power()));
        let exd = t.energy_delay_product(2);
        assert!(exd.is_finite() && exd > 0.0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut p = ProcessorBuilder::new().app("wrf").seed(11).build().unwrap();
        let u = Vector::from_slice(&[1.0, 4.0, 64.0]);
        let first: Vec<f64> = (0..20).map(|_| p.apply(&u)[0]).collect();
        p.reset();
        let second: Vec<f64> = (0..20).map(|_| p.apply(&u)[0]).collect();
        assert_eq!(first, second);
        assert_eq!(p.totals().epochs, 20);
    }

    #[test]
    fn phase_changes_are_flagged() {
        let mut p = quiet("gcc", 13); // short phases
        let u = Vector::from_slice(&[1.3, 6.0, 48.0]);
        let mut changes = 0;
        for _ in 0..4000 {
            p.apply(&u);
            if p.phase_changed() {
                changes += 1;
            }
        }
        assert!(changes >= 2, "saw {changes} phase changes");
    }

    #[test]
    fn plant_trait_metadata() {
        let p2 = ProcessorBuilder::new()
            .input_set(InputSet::FreqCache)
            .build()
            .unwrap();
        assert_eq!(p2.num_inputs(), 2);
        assert_eq!(p2.num_outputs(), 2);
        assert_eq!(p2.input_grids().len(), 2);
        assert_eq!(p2.input_grids()[0].len(), 16);
    }

    /// Implements only the required methods, so `apply` is the trait's.
    struct Ramp {
        k: f64,
    }

    impl Plant for Ramp {
        fn num_inputs(&self) -> usize {
            2
        }

        fn num_outputs(&self) -> usize {
            2
        }

        fn input_grids(&self) -> Vec<Vec<f64>> {
            vec![vec![0.0, 1.0], vec![0.0, 1.0]]
        }

        fn observe(&mut self) -> Vector {
            Vector::zeros(2)
        }

        fn apply_into(&mut self, u: &Vector, out: &mut Vector) -> Result<()> {
            if let Some(channel) = u.iter().position(|v| !v.is_finite()) {
                return Err(SimError::NonFiniteActuation { channel });
            }
            self.k += 0.1;
            out[0] = u[0] * self.k;
            out[1] = u[1] / self.k;
            Ok(())
        }

        fn phase_changed(&self) -> bool {
            false
        }

        fn reset(&mut self) {
            self.k = 0.0;
        }
    }

    #[test]
    fn provided_apply_is_bit_equal_to_apply_into() {
        let (mut a, mut b) = (Ramp { k: 0.0 }, Ramp { k: 0.0 });
        let mut out = Vector::zeros(2);
        for t in 0..20 {
            let u = Vector::from_slice(&[0.3 * t as f64, 1.0 / (t + 1) as f64]);
            let y = a.apply(&u);
            b.apply_into(&u, &mut out).unwrap();
            let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&out), "epoch {t}");
        }
    }

    #[test]
    #[should_panic(expected = "actuation channel 1 is NaN or infinite")]
    fn provided_apply_panics_with_the_error() {
        Ramp { k: 0.0 }.apply(&Vector::from_slice(&[1.0, f64::NAN]));
    }

    #[test]
    fn energy_delay_product_orders() {
        // E×D² penalizes slow runs more than E does.
        let fast = RunTotals {
            energy_j: 2.0,
            instructions_g: 1.0,
            time_s: 0.5,
            epochs: 1,
        };
        let slow = RunTotals {
            energy_j: 1.5,
            instructions_g: 1.0,
            time_s: 1.5,
            epochs: 1,
        };
        // Slow run has less energy, so it wins on E...
        assert!(slow.energy_delay_product(1) < fast.energy_delay_product(1));
        // ...but loses on E×D².
        assert!(slow.energy_delay_product(3) > fast.energy_delay_product(3));
    }
}
