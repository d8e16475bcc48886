//! The chip and cluster workloads: their configurations, one untraced
//! repetition through the public runners, and the traced rebuild.
//!
//! The rebuild constructs every chip from public calls exactly as
//! `fleet::chip::build_cells` and `Chip::build_banked` do: per-core
//! `fast_governor`s, plus a `GovernorBank` that decides and retargets for
//! every healthy core until a quarantine evicts it to its own governor. It
//! steps the beat of `Chip::step_epoch` with a tracer boundary around
//! every call into a layer. Its statistics are assembled the way
//! `FleetStats::assemble` and `ClusterStats::assemble` do, so comparing
//! them with the runtime's proves the rebuild still mirrors the runtime
//! bit for bit.

use std::rc::Rc;
use std::time::Instant;

use mimo_core::engine::{fleet_warmup, EpochLoop, StepOutcome, TrackingErrorAccumulator};
use mimo_core::governor::fast_governor;
use mimo_core::heuristic::{HeuristicTracker, SensitivityRanking};
use mimo_core::LqgController;
use mimo_exp::setup;
use mimo_fleet::{
    ArbitrationPolicy, BudgetArbiter, ChipSummary, ClusterArbiter, ClusterConfig, ClusterRunner,
    ClusterStats, CoreObs, CoreSpec, CoreStats, FleetConfig, FleetRunner, FleetStats, GovernorBank,
};
use mimo_linalg::Vector;
use mimo_sim::fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
use mimo_sim::llc::{LlcConfig, SharedLlc};
use mimo_sim::{InputSet, ProcessorBuilder};

use crate::trace::{Layer, TimedGov, TimedPlant, Tracer};

/// The two single-chip workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipKind {
    /// `ArbitrationPolicy::Uniform` under the default 19.2 W cap.
    Uniform,
    /// Proportional at 12.8 W with LLC contention and scheduled faults.
    Contended,
}

/// The 16-core configuration of a chip workload running `epochs` epochs.
pub fn chip_config(kind: ChipKind, epochs: usize, seed: u64) -> FleetConfig {
    let cfg = FleetConfig::new(16).workers(1).epochs(epochs).seed(seed);
    match kind {
        ChipKind::Uniform => cfg.policy(ArbitrationPolicy::Uniform),
        ChipKind::Contended => {
            let (quarter, two_fifths) = ((epochs / 4) as u64, (2 * epochs / 5) as u64);
            cfg.policy(ArbitrationPolicy::Proportional)
                .power_cap(12.8)
                .llc_contention(LlcConfig::for_cores(16).total_ways(64))
                // IPS sensor dead for good from a quarter of the way in:
                // quarantine, then the fallback governor.
                .core_fault(
                    5,
                    FaultSpec {
                        kind: FaultKind::NanMeasurement { channel: 0 },
                        start_epoch: quarter,
                        duration: u64::MAX,
                    },
                )
                // Power sensor out for three epochs at two fifths:
                // degraded, never latched.
                .core_fault(
                    9,
                    FaultSpec {
                        kind: FaultKind::NanMeasurement { channel: 1 },
                        start_epoch: two_fifths,
                        duration: 3,
                    },
                )
        }
    }
}

/// The cluster configuration: `chips` × `cores` on one shard, exchanging
/// budgets every 8 epochs, with LLC contention at four ways per core.
pub fn cluster_config(chips: usize, cores: usize, epochs: usize, seed: u64) -> ClusterConfig {
    ClusterConfig::new(chips, cores)
        .epochs(epochs)
        .exchange_period(8)
        .llc_contention(LlcConfig::for_cores(cores).total_ways(4 * cores))
        .seed(seed)
}

/// One untraced repetition: set-up timed apart from stepping.
pub struct Rep<S> {
    /// Design synthesis, seconds.
    pub design_s: f64,
    /// Runner construction, seconds.
    pub build_s: f64,
    /// Stepping (the runner's `run`), seconds.
    pub run_s: f64,
    /// The runtime's statistics.
    pub stats: S,
    /// The synthesized controller every core runs.
    pub ctrl: LqgController,
}

/// Designs the two-input controller, builds a runtime around it with
/// `build` and steps it with `run`, timing each phase.
fn rep<R, S>(
    seed: u64,
    build: impl FnOnce(&LqgController) -> mimo_fleet::Result<R>,
    run: impl FnOnce(R) -> mimo_fleet::Result<S>,
) -> Result<Rep<S>, String> {
    let t = Instant::now();
    let ctrl = setup::design_mimo(InputSet::FreqCache, seed)
        .map_err(|e| e.to_string())?
        .controller;
    let design_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let runner = build(&ctrl).map_err(|e| e.to_string())?;
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let stats = run(runner).map_err(|e| e.to_string())?;
    Ok(Rep {
        design_s,
        build_s,
        run_s: t.elapsed().as_secs_f64(),
        stats,
        ctrl,
    })
}

/// Designs, builds and runs one single-chip fleet.
pub fn chip_rep(cfg: &FleetConfig, seed: u64) -> Result<Rep<FleetStats>, String> {
    rep(
        seed,
        |ctrl| FleetRunner::with_shared_controller(cfg.clone(), ctrl),
        FleetRunner::run,
    )
}

/// Designs, builds and runs one cluster.
pub fn cluster_rep(cfg: &ClusterConfig, seed: u64) -> Result<Rep<ClusterStats>, String> {
    rep(
        seed,
        |ctrl| ClusterRunner::with_shared_controller(cfg.clone(), ctrl),
        ClusterRunner::run,
    )
}

/// One core of the rebuild: the runtime's `CoreCell`, with timed parties.
struct TracedCore {
    idx: usize,
    spec: CoreSpec,
    lp: EpochLoop<TimedGov, TimedPlant>,
    target: Vector,
    errs: TrackingErrorAccumulator,
    fallback_installed: bool,
}

impl TracedCore {
    /// The runtime's quarantine reaction: swap in the heuristic fallback
    /// once and give it a fresh health record.
    fn handle_quarantine(&mut self) {
        if self.fallback_installed {
            return;
        }
        let grids = self.lp.input_grids().to_vec();
        let ranking = SensitivityRanking::frequency_first(grids.len());
        let fallback = HeuristicTracker::new(grids, ranking, self.target.clone());
        self.lp.governor_mut().replace(Box::new(fallback));
        self.lp.set_targets(&self.target);
        self.lp.reset_health();
        self.fallback_installed = true;
    }
}

/// The bank of the two-input controller every chip workload deploys.
type Bank = GovernorBank<2, 2, 4, 8>;

/// One chip of the rebuild.
struct TracedChip {
    index: usize,
    cfg: FleetConfig,
    cores: Vec<TracedCore>,
    /// Decides and retargets for the enrolled cores, as in the runtime.
    bank: Option<Bank>,
    /// Core index → bank slot; `None` once a quarantine evicted the core.
    bank_slots: Vec<Option<usize>>,
    arbiter: BudgetArbiter,
    llc: Option<SharedLlc>,
    obs: Vec<CoreObs>,
    quarantined: Vec<bool>,
    ways: Vec<f64>,
    epochs_run: usize,
    win_power_sum: f64,
    win_ips_sum: f64,
    win_epochs: u64,
    tracer: Rc<Tracer>,
    /// Fresh quarantine latches seen by the beat.
    latches: u64,
    /// Beats in which the shared LLC raised any core's penalty.
    contended_beats: u64,
    /// Decisions the bank made.
    banked_decisions: u64,
}

impl TracedChip {
    /// Builds chip `index` of `cfg` around clones of `ctrl`.
    fn build(
        index: usize,
        cfg: FleetConfig,
        ctrl: &LqgController,
        tracer: &Rc<Tracer>,
    ) -> Result<Self, String> {
        cfg.validate().map_err(|e| e.to_string())?;
        if cfg.fault_rate > 0.0 {
            return Err("the rebuild mirrors scheduled faults only".into());
        }
        let warmup = fleet_warmup(cfg.epochs);
        let base = Vector::from_slice(&cfg.base_targets);
        let mut cores = Vec::with_capacity(cfg.n_cores);
        for (idx, spec) in cfg.core_specs().into_iter().enumerate() {
            let plant = ProcessorBuilder::new()
                .app(&spec.app)
                .seed(spec.seed)
                .input_set(cfg.input_set)
                .build()
                .map_err(|e| e.to_string())?;
            let mut plan = FaultPlan::none();
            for (core, fspec) in &cfg.core_faults {
                if *core == idx {
                    plan = plan.with_fault(*fspec);
                }
            }
            let gov = TimedGov::new(fast_governor(ctrl.clone()), Rc::clone(tracer));
            let plant = TimedPlant::new(FaultInjector::new(plant, plan), Rc::clone(tracer));
            let mut lp = EpochLoop::new(gov, plant);
            lp.set_core(idx);
            lp.set_targets(&base);
            cores.push(TracedCore {
                idx,
                spec,
                lp,
                target: base.clone(),
                errs: TrackingErrorAccumulator::new(2, warmup),
                fallback_installed: false,
            });
        }
        let n = cores.len();
        // `Chip::build_banked`: enroll every core and replay the base
        // retarget on the bank side.
        let mut bank = if cfg.banked {
            let proto = ctrl
                .clone()
                .into_static::<2, 2, 4, 8>()
                .map_err(|e| format!("the rebuild banks two-input controllers only: {e}"))?;
            Some(Bank::new(&proto))
        } else {
            None
        };
        let mut bank_slots = vec![None; n];
        if let Some(bank) = &mut bank {
            for core in &cores {
                let slot = bank.enroll(core.idx);
                bank.set_target(slot, &base);
                bank_slots[core.idx] = Some(slot);
            }
        }
        let priorities = cores.iter().map(|c| c.spec.priority).collect();
        let arbiter = BudgetArbiter::new(
            cfg.chip_power_cap_w,
            cfg.policy,
            cfg.base_targets,
            priorities,
        );
        let llc = match cfg.llc {
            Some(lcfg) => Some(SharedLlc::new(lcfg, n).map_err(|e| e.to_string())?),
            None => None,
        };
        Ok(TracedChip {
            index,
            cfg,
            cores,
            bank,
            bank_slots,
            arbiter,
            llc,
            obs: vec![
                CoreObs {
                    ips: 0.0,
                    power: 0.0
                };
                n
            ],
            quarantined: vec![false; n],
            ways: vec![0.0; n],
            epochs_run: 0,
            win_power_sum: 0.0,
            win_ips_sum: 0.0,
            win_epochs: 0,
            tracer: Rc::clone(tracer),
            latches: 0,
            contended_beats: 0,
            banked_decisions: 0,
        })
    }

    /// Cores on the chip.
    fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// One beat of `Chip::step_epoch`: decide for the enrolled cores in one
    /// bank step, step every core, arbitrate, update the LLC, retarget,
    /// install the LLC penalties.
    fn step_epoch(&mut self) {
        let tracer = &self.tracer;
        let start = tracer.mark(Layer::Chip);
        let marks = tracer.marks();
        if let Some(bank) = &mut self.bank {
            for core in &self.cores {
                if let Some(slot) = self.bank_slots[core.idx] {
                    bank.load_measurement(slot, core.lp.outputs().as_slice());
                }
            }
            bank.step_all();
            let decisions = bank.len() as u64;
            tracer.mark_calls(Layer::Governor, decisions);
            self.banked_decisions += decisions;
        }
        for core in &mut self.cores {
            let was_latched = core.lp.is_quarantined();
            let outcome = match (&self.bank, self.bank_slots[core.idx]) {
                (Some(bank), Some(slot)) => {
                    tracer.mark(Layer::Chip);
                    core.lp.step_decided(bank.decision(slot))
                }
                _ => core.lp.step(),
            };
            tracer.mark(Layer::Engine);
            let y = core.lp.outputs();
            self.obs[core.idx] = CoreObs {
                ips: y[0],
                power: y[1],
            };
            core.errs.record(y, &core.target);
            if !was_latched && core.lp.is_quarantined() {
                self.latches += 1;
            }
            if matches!(outcome, StepOutcome::Quarantined(_)) {
                core.handle_quarantine();
                if let (Some(bank), Some(slot)) =
                    (self.bank.as_mut(), self.bank_slots[core.idx].take())
                {
                    if let Some(moved) = bank.evict(slot) {
                        self.bank_slots[moved] = Some(slot);
                    }
                }
            }
            self.quarantined[core.idx] = core.lp.is_quarantined();
            if self.llc.is_some() {
                self.ways[core.idx] = core.lp.plant().inner().inner().config().l2_ways as f64;
            }
        }
        tracer.mark(Layer::Chip);
        let targets = self
            .arbiter
            .arbitrate_with_quarantine(&self.obs, &self.quarantined);
        tracer.mark(Layer::Arbiter);
        if let Some(llc) = &mut self.llc {
            llc.update(&self.ways);
            tracer.mark(Layer::Llc);
        }
        self.win_power_sum += self.arbiter.last_chip_power_w();
        self.win_ips_sum += self.obs.iter().map(|o| o.ips).sum::<f64>();
        self.win_epochs += 1;
        for (core, target) in self.cores.iter_mut().zip(&targets) {
            match (self.bank.as_mut(), self.bank_slots[core.idx]) {
                (Some(bank), Some(slot)) => {
                    let changed = (core.target.iter().zip(target.iter()))
                        .any(|(old, new)| old.to_bits() != new.to_bits());
                    core.target.copy_from(target);
                    tracer.mark(Layer::Chip);
                    bank.set_target(slot, target);
                    tracer.mark(Layer::Retarget);
                    tracer.count_retarget(changed);
                }
                _ => {
                    core.target.copy_from(target);
                    core.lp.set_targets(target);
                }
            }
        }
        let end = match &self.llc {
            Some(llc) => {
                let mut contended = false;
                for core in &mut self.cores {
                    let penalty = llc.penalty(core.idx);
                    contended |= penalty > 1.0;
                    core.lp
                        .plant_mut()
                        .inner_mut()
                        .inner_mut()
                        .set_llc_penalty(penalty);
                }
                self.contended_beats += u64::from(contended);
                tracer.mark(Layer::Llc)
            }
            None => tracer.mark(Layer::Chip),
        };
        self.epochs_run += 1;
        tracer.beat(start, marks, end);
    }

    /// `Chip::publish`: drains the window accumulators.
    fn publish(&mut self) -> ChipSummary {
        let epochs = self.win_epochs;
        let mean = |sum: f64| {
            if epochs == 0 {
                0.0
            } else {
                sum / epochs as f64
            }
        };
        let summary = ChipSummary {
            chip: self.index,
            n_cores: self.cores.len(),
            window_epochs: epochs,
            avg_power_w: mean(self.win_power_sum),
            avg_ips: mean(self.win_ips_sum),
            quarantined_cores: self.quarantined.iter().filter(|&&q| q).count(),
        };
        self.win_power_sum = 0.0;
        self.win_ips_sum = 0.0;
        self.win_epochs = 0;
        summary
    }

    /// `Chip::set_power_cap`.
    fn set_power_cap(&mut self, cap_w: f64) {
        self.arbiter.set_cap(cap_w);
        self.cfg.chip_power_cap_w = cap_w;
    }

    /// Arbiter grants below the nominal power target so far.
    fn throttle_events(&self) -> u64 {
        self.arbiter.throttle_events()
    }

    /// Drains the chip into statistics assembled as `FleetStats::assemble`
    /// does.
    fn into_stats(self) -> FleetStats {
        let per_core: Vec<CoreStats> = self
            .cores
            .into_iter()
            .map(|core| {
                let quarantine_epoch = core.lp.quarantine_epoch();
                let totals = core.lp.plant().inner().inner().totals();
                CoreStats {
                    core: core.idx,
                    app: core.spec.app,
                    seed: core.spec.seed,
                    avg_ips_err_pct: core.errs.avg_pct(0),
                    avg_power_err_pct: core.errs.avg_pct(1),
                    avg_power_w: totals.avg_power(),
                    energy_j: totals.energy_j,
                    instructions_g: totals.instructions_g,
                    fault_epochs: core.lp.fault_epochs(),
                    quarantined: quarantine_epoch.is_some(),
                    quarantine_epoch,
                }
            })
            .collect();
        let epochs = self.epochs_run;
        let nf = per_core.len().max(1) as f64;
        let violations = self.arbiter.violations();
        FleetStats {
            n_cores: self.cfg.n_cores,
            workers: 1,
            epochs,
            policy: self.cfg.policy.label().to_string(),
            chip_cap_w: self.cfg.chip_power_cap_w,
            cap_violation_epochs: violations,
            cap_violation_pct: if epochs == 0 {
                0.0
            } else {
                100.0 * violations as f64 / epochs as f64
            },
            avg_chip_power_w: self.arbiter.avg_chip_power_w(),
            peak_chip_power_w: self.arbiter.peak_chip_power_w(),
            agg_ips_err_pct: per_core.iter().map(|c| c.avg_ips_err_pct).sum::<f64>() / nf,
            agg_power_err_pct: per_core.iter().map(|c| c.avg_power_err_pct).sum::<f64>() / nf,
            energy_j: per_core.iter().map(|c| c.energy_j).sum(),
            instructions_g: per_core.iter().map(|c| c.instructions_g).sum(),
            quarantined_cores: per_core.iter().filter(|c| c.quarantined).count(),
            fault_epochs: per_core.iter().map(|c| c.fault_epochs).sum(),
            throttle_events: self.arbiter.throttle_events(),
            wall_s: 0.0,
            epochs_per_sec: 0.0,
            per_core,
        }
    }
}

/// What the traced chip run hands back.
pub struct TracedChipRun {
    /// The spans and counts.
    pub tracer: Rc<Tracer>,
    /// Statistics of the rebuild.
    pub stats: FleetStats,
    /// Stepping wall time with tracing on, seconds.
    pub step_s: f64,
    /// Fresh quarantine latches.
    pub latches: u64,
    /// Beats with LLC contention.
    pub contended_beats: u64,
    /// Decisions the governor bank made.
    pub banked_decisions: u64,
}

/// Rebuilds and steps one chip of `cfg` with tracing.
pub fn traced_chip(cfg: &FleetConfig, ctrl: &LqgController) -> Result<TracedChipRun, String> {
    let tracer = Tracer::new(Layer::Chip);
    let mut chip = TracedChip::build(0, cfg.clone(), ctrl, &tracer)?;
    tracer.reset();
    let t = Instant::now();
    for _ in 0..cfg.epochs {
        chip.step_epoch();
    }
    let step_s = t.elapsed().as_secs_f64();
    let (latches, contended_beats) = (chip.latches, chip.contended_beats);
    let banked_decisions = chip.banked_decisions;
    Ok(TracedChipRun {
        tracer,
        stats: chip.into_stats(),
        step_s,
        latches,
        contended_beats,
        banked_decisions,
    })
}

/// What the traced cluster run hands back.
pub struct TracedClusterRun {
    /// The spans and counts.
    pub tracer: Rc<Tracer>,
    /// Statistics of the rebuild.
    pub stats: ClusterStats,
    /// Stepping wall time with tracing on, seconds.
    pub step_s: f64,
    /// Exchange windows run.
    pub windows: u64,
    /// Fresh quarantine latches across chips.
    pub latches: u64,
    /// Chip beats with LLC contention.
    pub contended_beats: u64,
    /// Arbiter grants below nominal across chips.
    pub throttle_events: u64,
    /// Decisions the chips' governor banks made.
    pub banked_decisions: u64,
}

/// Rebuilds the cluster and steps its chips serially, window by window,
/// with `ClusterArbiter::bootstrap`/`rebudget` at every exchange — the
/// schedule `run_sharded` follows at any shard count.
pub fn traced_cluster(
    cfg: &ClusterConfig,
    ctrl: &LqgController,
) -> Result<TracedClusterRun, String> {
    cfg.validate().map_err(|e| e.to_string())?;
    let tracer = Tracer::new(Layer::Chip);
    let mut chips = (0..cfg.n_chips)
        .map(|c| TracedChip::build(c, cfg.chip_config(c), ctrl, &tracer))
        .collect::<Result<Vec<_>, _>>()?;
    let nominal = chips.iter().map(|c| 1.2 * c.n_cores() as f64).collect();
    let mut arbiter = ClusterArbiter::new(
        cfg.cluster_power_cap_w,
        cfg.policy,
        nominal,
        vec![cfg.chip_floor_w(); cfg.n_chips],
        vec![1.0; cfg.n_chips],
    );
    tracer.reset();
    let t = Instant::now();
    for (chip, cap) in chips.iter_mut().zip(arbiter.bootstrap()) {
        chip.set_power_cap(cap);
    }
    let (epochs, period) = (cfg.epochs, cfg.exchange_period);
    let n_windows = if epochs == 0 {
        0
    } else {
        epochs.div_ceil(period)
    };
    let mut peak_window_power_w = 0.0f64;
    for window in 0..n_windows {
        let win_epochs = (epochs - window * period).min(period);
        for chip in &mut chips {
            for _ in 0..win_epochs {
                chip.step_epoch();
            }
        }
        let summaries: Vec<ChipSummary> = chips.iter_mut().map(TracedChip::publish).collect();
        let window_power: f64 = summaries.iter().map(|s| s.avg_power_w).sum();
        peak_window_power_w = peak_window_power_w.max(window_power);
        if window + 1 < n_windows {
            for (chip, cap) in chips.iter_mut().zip(arbiter.rebudget(&summaries)) {
                chip.set_power_cap(cap);
            }
        }
        tracer.mark(Layer::Cluster);
    }
    let step_s = t.elapsed().as_secs_f64();
    let latches = chips.iter().map(|c| c.latches).sum();
    let contended_beats = chips.iter().map(|c| c.contended_beats).sum();
    let throttle_events = chips.iter().map(TracedChip::throttle_events).sum();
    let banked_decisions = chips.iter().map(|c| c.banked_decisions).sum();
    let per_chip: Vec<FleetStats> = chips.into_iter().map(TracedChip::into_stats).collect();
    let nc = per_chip.len().max(1) as f64;
    let stats = ClusterStats {
        n_chips: per_chip.len(),
        total_cores: per_chip.iter().map(|c| c.n_cores).sum(),
        shards: 1,
        epochs,
        exchange_period: period,
        exchanges: arbiter.exchanges(),
        rebudget_moves: arbiter.rebudget_moves(),
        cluster_cap_w: cfg.cluster_power_cap_w,
        avg_cluster_power_w: per_chip.iter().map(|c| c.avg_chip_power_w).sum(),
        peak_window_power_w,
        agg_ips_err_pct: per_chip.iter().map(|c| c.agg_ips_err_pct).sum::<f64>() / nc,
        agg_power_err_pct: per_chip.iter().map(|c| c.agg_power_err_pct).sum::<f64>() / nc,
        energy_j: per_chip.iter().map(|c| c.energy_j).sum(),
        instructions_g: per_chip.iter().map(|c| c.instructions_g).sum(),
        quarantined_cores: per_chip.iter().map(|c| c.quarantined_cores).sum(),
        fault_epochs: per_chip.iter().map(|c| c.fault_epochs).sum(),
        wall_s: 0.0,
        epochs_per_sec: 0.0,
        per_chip,
    };
    Ok(TracedClusterRun {
        tracer,
        stats,
        step_s,
        windows: n_windows as u64,
        latches,
        contended_beats,
        throttle_events,
        banked_decisions,
    })
}

/// Names the first per-core field where the rebuild and the runtime
/// disagree, or `None` when the statistics are bit-identical.
pub fn chip_mismatch(chip: usize, rebuilt: &FleetStats, runtime: &FleetStats) -> Option<String> {
    for (a, b) in rebuilt.per_core.iter().zip(&runtime.per_core) {
        let fields = [
            ("energy_j", a.energy_j.to_bits() != b.energy_j.to_bits()),
            (
                "instructions_g",
                a.instructions_g.to_bits() != b.instructions_g.to_bits(),
            ),
            ("fault_epochs", a.fault_epochs != b.fault_epochs),
            ("quarantine_epoch", a.quarantine_epoch != b.quarantine_epoch),
        ];
        if let Some((field, _)) = fields.iter().find(|(_, differs)| *differs) {
            return Some(format!(
                "chip {chip} core {}: rebuilt {field} differs from the runtime",
                a.core
            ));
        }
    }
    if rebuilt != runtime || rebuilt.digest() != runtime.digest() {
        return Some(format!(
            "chip {chip}: rebuilt FleetStats digest {:#018x} != runtime {:#018x}",
            rebuilt.digest(),
            runtime.digest()
        ));
    }
    None
}
