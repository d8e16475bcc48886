//! The unified epoch engine: one hot loop for every driver.
//!
//! Every evaluation path in the repo — the experiment runners
//! (tracking, schedules, optimization) and the fleet runtime — repeats
//! the same epoch cadence: read the plant, let the governor decide,
//! apply the actuation, record. [`EpochLoop`] owns that cadence once, so
//! drivers become thin configurations instead of re-implementations, and
//! the loop body routes through the allocation-free `*_into` paths
//! ([`crate::governor::Governor::decide_into`],
//! [`mimo_sim::Plant::apply_into`]) so a steady-state epoch performs zero
//! heap allocations.
//!
//! Bit-exactness contract: stepping a governor/plant pair through
//! [`EpochLoop::step`] produces the same measurements, statistics, and
//! digests as the hand-rolled loops it replaced, because the `*_into`
//! kernels evaluate the same floating-point operations in the same order.

use mimo_linalg::Vector;
use mimo_sim::Plant;

use crate::governor::Governor;
use crate::telemetry::{EpochRecord, Health, RunSummary, TelemetrySink};

mod outcome;
mod schedule;
mod summary;

pub use outcome::{EpochCause, EpochError, StepOutcome};
pub use schedule::{ReferenceStep, ScheduleCursor};
pub use summary::{
    fleet_warmup, grid_step, rel_tracking_error, summarize, TrackingErrorAccumulator,
    TrackingStats, WARMUP_EPOCHS,
};

/// Consecutive failed epochs after which [`EpochLoop::step`] escalates
/// from [`StepOutcome::Degraded`] to [`StepOutcome::Quarantined`].
pub const QUARANTINE_THRESHOLD: u32 = 4;

/// Drives one governor against one plant, epoch by epoch.
///
/// The loop owns the measurement (`y`) and actuation (`u`) buffers and
/// reuses them every epoch; optional history recording powers the
/// [`TrackingStats`] reductions.
///
/// Both type parameters accept owned values, `&mut` borrows, or boxed
/// trait objects (blanket impls forward the traits), so callers choose
/// their ownership model: the experiment runners lend `&mut dyn
/// Governor` / `&mut Processor`, the fleet gives each core an owned
/// `Box<dyn Governor + Send>` + `Processor`.
///
/// Telemetry is an optional [`TelemetrySink`], absent by default: the
/// loop then skips record capture entirely. Install one with
/// [`EpochLoop::set_sink`]; it only reads the loop's buffers, so a traced
/// run steps bit-identically to an untraced one. The sink and the
/// history are boxed, so an untraced loop that records nothing (every
/// fleet core) carries one null pointer for each.
#[derive(Debug)]
pub struct EpochLoop<G: Governor, P: Plant> {
    gov: G,
    plant: P,
    sink: Option<Box<TelemetrySink>>,
    /// Last measured outputs, fed to the governor next epoch.
    y: Vector,
    /// Actuation buffer, rewritten every epoch.
    u: Vector,
    /// Last healthy measurement, restored into `y` on faulted epochs so
    /// downstream consumers (history, fleet observations) stay finite.
    y_good: Vector,
    /// Last healthy actuation, restored into `u` on faulted epochs.
    u_good: Vector,
    /// Per-epoch history, present once [`EpochLoop::record_history`]
    /// enabled it.
    hist: Option<Box<History>>,
    /// Epochs stepped (including faulted ones).
    epoch: u64,
    /// Fleet core id stamped into [`EpochError`]s, if any.
    core: Option<usize>,
    /// Current streak of failed epochs.
    consecutive_faults: u32,
    /// Total failed epochs over the loop's lifetime.
    fault_epochs: u64,
    quarantined: bool,
    /// Epoch at which the loop first quarantined.
    quarantine_epoch: Option<u64>,
}

/// The inputs and outputs of every epoch stepped since recording began.
#[derive(Debug, Default)]
struct History {
    u: Vec<Vector>,
    y: Vec<Vector>,
}

impl History {
    fn push(&mut self, u: &Vector, y: &Vector) {
        self.u.push(u.clone());
        self.y.push(y.clone());
    }
}

impl<G: Governor, P: Plant> EpochLoop<G, P> {
    /// Pairs `gov` with `plant`. The initial measurement is all zeros
    /// (the fleet convention); call [`EpochLoop::prime`] to start from a
    /// real reading instead.
    ///
    /// # Panics
    ///
    /// Panics if the governor actuates a different number of inputs than
    /// the plant exposes.
    pub fn new(gov: G, plant: P) -> Self {
        assert_eq!(
            gov.num_inputs(),
            plant.num_inputs(),
            "governor/plant input count mismatch"
        );
        let y = Vector::zeros(plant.num_outputs());
        let u = Vector::zeros(plant.num_inputs());
        EpochLoop {
            y_good: y.clone(),
            u_good: u.clone(),
            gov,
            plant,
            sink: None,
            y,
            u,
            hist: None,
            epoch: 0,
            core: None,
            consecutive_faults: 0,
            fault_epochs: 0,
            quarantined: false,
            quarantine_epoch: None,
        }
    }

    /// Installs `sink` as the loop's telemetry, replacing any earlier one;
    /// from the next epoch on every record and the first quarantine latch
    /// land in it.
    pub fn set_sink(&mut self, sink: TelemetrySink) {
        self.sink = Some(Box::new(sink));
    }

    /// Obtains the first measurement by running one epoch at the plant's
    /// current configuration (the experiment-runner convention).
    pub fn prime(&mut self) {
        self.y = self.plant.observe();
        if self.y.all_finite() {
            self.y_good.copy_from(&self.y);
        }
    }

    /// Seeds the measurement buffer from outputs obtained externally
    /// (e.g. an optimizer's own priming epochs).
    pub fn seed_outputs(&mut self, y: &Vector) {
        self.y.copy_from(y);
        if self.y.all_finite() {
            self.y_good.copy_from(&self.y);
        }
    }

    /// Forwards reference targets to the governor.
    pub fn set_targets(&mut self, y0: &Vector) {
        self.gov.set_targets(y0);
    }

    /// Enables per-epoch input/output history recording (required by
    /// [`EpochLoop::summarize`]), reserving room for `epochs` entries.
    pub fn record_history(&mut self, epochs: usize) {
        let hist = self.hist.get_or_insert_with(Box::default);
        hist.u.reserve(epochs);
        hist.y.reserve(epochs);
    }

    /// Runs one epoch: the governor consumes the previous measurement and
    /// the plant's phase flag, the plant applies the decided actuation,
    /// and the fresh measurement lands in [`EpochLoop::outputs`] (and the
    /// history when recording is enabled).
    ///
    /// Every epoch is screened at the two trust boundaries: the actuation
    /// leaving the governor and the measurement leaving the plant must be
    /// finite. On any failure the measurement and actuation buffers are
    /// restored to their last healthy values (so `outputs()` and the
    /// recorded history never carry NaN/Inf), the failure streak is
    /// counted, and the verdict reports [`StepOutcome::Degraded`] — or
    /// [`StepOutcome::Quarantined`] once the streak reaches the
    /// quarantine threshold.
    pub fn step(&mut self) -> StepOutcome {
        let epoch = self.epoch;
        self.epoch += 1;
        let result = self.try_epoch();
        self.settle(epoch, result)
    }

    /// Runs one epoch whose governor decision was computed *externally*.
    /// The caller (`benchmark/`'s traced rebuild, deciding through a
    /// `mimo-fleet` governor bank) passes either the decided actuation
    /// in physical units or the
    /// [`EpochCause`] its screening produced; this method then runs the
    /// same screen → apply → screen tail and the same fault/quarantine
    /// bookkeeping as [`EpochLoop::step`], so outcomes, buffers, health
    /// latches, and telemetry are bit-identical to the per-cell path when
    /// the external decision matches what the owned governor would have
    /// decided.
    ///
    /// Note the owned governor is **not** consulted — the caller is
    /// responsible for keeping any governor state consistent.
    ///
    /// # Panics
    ///
    /// Panics if an `Ok` decision's length differs from the plant's input
    /// count.
    pub fn step_decided(
        &mut self,
        decision: std::result::Result<&[f64], EpochCause>,
    ) -> StepOutcome {
        let epoch = self.epoch;
        self.epoch += 1;
        let result = match decision {
            Ok(u) => {
                self.u.as_mut_slice().copy_from_slice(u);
                self.apply_decided()
            }
            Err(cause) => Err(cause),
        };
        self.settle(epoch, result)
    }

    /// The shared epilogue of [`EpochLoop::step`] / [`EpochLoop::step_decided`]:
    /// turns the epoch result into a [`StepOutcome`], maintaining the
    /// last-good buffers, failure streaks, the quarantine latch, and
    /// telemetry.
    fn settle(&mut self, epoch: u64, result: std::result::Result<(), EpochCause>) -> StepOutcome {
        match result {
            Ok(()) => {
                self.consecutive_faults = 0;
                self.y_good.copy_from(&self.y);
                self.u_good.copy_from(&self.u);
                if let Some(hist) = &mut self.hist {
                    hist.push(&self.u, &self.y);
                }
                if let Some(sink) = &mut self.sink {
                    let health = Health::Healthy;
                    let rec =
                        EpochRecord::capture(epoch, self.core, &self.u, &self.y, health, None);
                    sink.trace.push(rec);
                }
                StepOutcome::Healthy
            }
            Err(cause) => {
                self.u.copy_from(&self.u_good);
                self.y.copy_from(&self.y_good);
                self.fault_epochs += 1;
                self.consecutive_faults = self.consecutive_faults.saturating_add(1);
                if let Some(hist) = &mut self.hist {
                    hist.push(&self.u, &self.y);
                }
                let error = EpochError {
                    epoch,
                    core: self.core,
                    cause,
                };
                let escalate = self.quarantined || self.consecutive_faults >= QUARANTINE_THRESHOLD;
                let fresh_latch = escalate && !self.quarantined;
                if fresh_latch {
                    self.quarantined = true;
                    // Keep the *first* latch epoch: a supervisor may
                    // repair the loop with `reset_health` and the loop may
                    // latch again, but the reported onset must not move.
                    self.quarantine_epoch.get_or_insert(epoch);
                }
                // Faulted records carry the restored (finite) buffers.
                if let Some(sink) = &mut self.sink {
                    let health = if escalate {
                        Health::Quarantined
                    } else {
                        Health::Degraded
                    };
                    let cause = Some((&error.cause).into());
                    let rec =
                        EpochRecord::capture(epoch, self.core, &self.u, &self.y, health, cause);
                    sink.trace.push(rec);
                    if fresh_latch {
                        sink.on_quarantine(&error);
                    }
                }
                if escalate {
                    StepOutcome::Quarantined(error)
                } else {
                    StepOutcome::Degraded(error)
                }
            }
        }
    }

    /// The run so far as a [`RunSummary`]: epoch and fault counts plus
    /// the quarantine onset.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            epochs: self.epoch,
            fault_epochs: self.fault_epochs,
            quarantined: self.quarantine_epoch.is_some(),
            quarantine_epoch: self.quarantine_epoch,
        }
    }

    /// The fallible decide → screen → apply → screen pipeline of one
    /// epoch. On error the buffers may hold partial values; `step`
    /// restores them from the last-good copies.
    fn try_epoch(&mut self) -> Result<(), EpochCause> {
        let phase = self.plant.phase_changed();
        self.gov
            .decide_into(&self.y, phase, &mut self.u)
            .map_err(EpochCause::Governor)?;
        self.apply_decided()
    }

    /// The post-decision half of one epoch: screen the actuation, apply
    /// it to the plant, screen the measurement. Shared between
    /// [`EpochLoop::step`] (decision from the owned governor) and
    /// [`EpochLoop::step_decided`] (decision from the caller).
    fn apply_decided(&mut self) -> Result<(), EpochCause> {
        if let Some(channel) = self.u.iter().position(|v| !v.is_finite()) {
            return Err(EpochCause::NonFiniteActuation { channel });
        }
        self.plant
            .apply_into(&self.u, &mut self.y)
            .map_err(EpochCause::Plant)?;
        if let Some(channel) = self.y.iter().position(|v| !v.is_finite()) {
            return Err(EpochCause::NonFiniteMeasurement { channel });
        }
        Ok(())
    }

    /// The most recent measurement.
    pub fn outputs(&self) -> &Vector {
        &self.y
    }

    /// The most recent actuation.
    pub fn last_input(&self) -> &Vector {
        &self.u
    }

    /// Borrows the plant.
    pub fn plant(&self) -> &P {
        &self.plant
    }

    /// Mutably borrows the plant.
    pub fn plant_mut(&mut self) -> &mut P {
        &mut self.plant
    }

    /// Borrows the governor.
    pub fn governor(&self) -> &G {
        &self.gov
    }

    /// Mutably borrows the governor.
    pub fn governor_mut(&mut self) -> &mut G {
        &mut self.gov
    }

    /// Borrows the telemetry sink, if one is installed (e.g. to inspect
    /// its trace mid-run).
    pub fn sink(&self) -> Option<&TelemetrySink> {
        self.sink.as_deref()
    }

    /// The plant's actuator grids (e.g. for building a fallback governor
    /// after a quarantine). The loop keeps no copy: each call asks the
    /// plant, which builds them afresh.
    pub fn input_grids(&self) -> Vec<Vec<f64>> {
        self.plant.input_grids()
    }

    /// Stamps a fleet core id into every subsequent [`EpochError`].
    pub fn set_core(&mut self, core: usize) {
        self.core = Some(core);
    }

    /// Total failed epochs over the loop's lifetime.
    pub fn fault_epochs(&self) -> u64 {
        self.fault_epochs
    }

    /// Whether the loop is currently quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// The epoch at which the loop first quarantined, if it ever did.
    pub fn quarantine_epoch(&self) -> Option<u64> {
        self.quarantine_epoch
    }

    /// Clears the quarantine flag and failure streak — called after the
    /// supervisor repairs the loop (e.g. swaps in a fallback governor).
    /// Lifetime counters (`fault_epochs`, `quarantine_epoch`) are kept
    /// for reporting.
    pub fn reset_health(&mut self) {
        self.quarantined = false;
        self.consecutive_faults = 0;
    }

    /// Reduces the recorded history to [`TrackingStats`] against fixed
    /// `targets` (history recording must be enabled).
    pub fn summarize(&self, targets: &Vector, keep_trace: bool) -> TrackingStats {
        let grids = self.plant.input_grids();
        let empty = History::default();
        let hist = self.hist.as_deref().unwrap_or(&empty);
        summary::summarize(&hist.u, &hist.y, targets, &grids, keep_trace)
    }

    /// Consumes the loop, returning the recorded `(inputs, outputs)`
    /// histories.
    pub fn into_histories(self) -> (Vec<Vector>, Vec<Vector>) {
        self.hist
            .map_or_else(Default::default, |hist| (hist.u, hist.y))
    }

    /// Consumes the loop, returning the governor, plant, and telemetry
    /// sink.
    pub fn into_parts(self) -> (G, P, Option<TelemetrySink>) {
        (self.gov, self.plant, self.sink.map(|sink| *sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::FixedGovernor;

    /// A deterministic 2-in/2-out plant: y = u, counting epochs.
    #[derive(Debug)]
    struct Echo {
        epochs: usize,
    }

    impl Plant for Echo {
        fn num_inputs(&self) -> usize {
            2
        }

        fn num_outputs(&self) -> usize {
            2
        }

        fn input_grids(&self) -> Vec<Vec<f64>> {
            vec![vec![0.0, 1.0, 2.0], vec![0.0, 4.0, 8.0]]
        }

        fn apply_into(&mut self, u: &Vector, out: &mut Vector) -> mimo_sim::Result<()> {
            self.epochs += 1;
            out.copy_from(u);
            Ok(())
        }

        fn observe(&mut self) -> Vector {
            self.epochs += 1;
            Vector::from_slice(&[0.5, 0.5])
        }

        fn phase_changed(&self) -> bool {
            false
        }

        fn reset(&mut self) {
            self.epochs = 0;
        }
    }

    #[test]
    fn step_feeds_actuation_through_plant() {
        let gov = FixedGovernor::new(Vector::from_slice(&[1.0, 4.0]));
        let mut lp = EpochLoop::new(gov, Echo { epochs: 0 });
        assert_eq!(lp.outputs(), &Vector::zeros(2));
        lp.prime();
        assert_eq!(lp.outputs(), &Vector::from_slice(&[0.5, 0.5]));
        assert!(lp.step().is_healthy());
        assert_eq!(lp.outputs(), &Vector::from_slice(&[1.0, 4.0]));
        assert_eq!(lp.last_input(), &Vector::from_slice(&[1.0, 4.0]));
        assert_eq!(lp.plant().epochs, 2);
        assert_eq!(lp.summary().epochs, 1);
        assert_eq!(lp.fault_epochs(), 0);
    }

    #[test]
    fn history_and_summarize_work() {
        let gov = FixedGovernor::new(Vector::from_slice(&[1.0, 4.0]));
        let mut lp = EpochLoop::new(gov, Echo { epochs: 0 });
        lp.record_history(8);
        for _ in 0..8 {
            lp.step();
        }
        let targets = Vector::from_slice(&[1.0, 4.0]);
        let stats = lp.summarize(&targets, true);
        assert_eq!(stats.avg_err_pct, vec![0.0, 0.0]);
        assert_eq!(stats.steady_epoch, vec![Some(0), Some(0)]);
        assert_eq!(stats.final_outputs, targets);
        assert_eq!(stats.trace.as_ref().map(Vec::len), Some(8));
        let (u_hist, y_hist) = lp.into_histories();
        assert_eq!(u_hist.len(), 8);
        assert_eq!(y_hist.len(), 8);
    }

    #[test]
    fn accepts_borrowed_and_boxed_parties() {
        let mut gov = FixedGovernor::new(Vector::from_slice(&[2.0, 8.0]));
        let mut plant = Echo { epochs: 0 };
        {
            let dyn_gov: &mut dyn Governor = &mut gov;
            let mut lp = EpochLoop::new(dyn_gov, &mut plant);
            lp.step();
            assert_eq!(lp.outputs(), &Vector::from_slice(&[2.0, 8.0]));
        }
        let boxed: Box<dyn Governor + Send> = Box::new(gov);
        let mut lp = EpochLoop::new(boxed, plant);
        lp.step();
        assert_eq!(lp.plant().epochs, 2);
    }

    #[test]
    #[should_panic(expected = "input count mismatch")]
    fn input_count_mismatch_panics() {
        let gov = FixedGovernor::new(Vector::from_slice(&[1.0]));
        let _ = EpochLoop::new(gov, Echo { epochs: 0 });
    }

    /// A plant that emits NaN on output 0 for epochs in `[from, to)`.
    #[derive(Debug)]
    struct NanWindow {
        epochs: usize,
        from: usize,
        to: usize,
    }

    impl Plant for NanWindow {
        fn num_inputs(&self) -> usize {
            2
        }

        fn num_outputs(&self) -> usize {
            2
        }

        fn input_grids(&self) -> Vec<Vec<f64>> {
            vec![vec![0.0, 1.0, 2.0], vec![0.0, 4.0, 8.0]]
        }

        fn apply_into(&mut self, u: &Vector, out: &mut Vector) -> mimo_sim::Result<()> {
            let faulted = self.epochs >= self.from && self.epochs < self.to;
            self.epochs += 1;
            out.copy_from(u);
            if faulted {
                out[0] = f64::NAN;
            }
            Ok(())
        }

        fn observe(&mut self) -> Vector {
            Vector::from_slice(&[0.5, 0.5])
        }

        fn phase_changed(&self) -> bool {
            false
        }

        fn reset(&mut self) {
            self.epochs = 0;
        }
    }

    #[test]
    fn faulted_epochs_degrade_then_quarantine_and_restore_buffers() {
        let gov = FixedGovernor::new(Vector::from_slice(&[1.0, 4.0]));
        let plant = NanWindow {
            epochs: 0,
            from: 2,
            to: 2 + QUARANTINE_THRESHOLD as usize,
        };
        let mut lp = EpochLoop::new(gov, plant);
        lp.record_history(8);
        assert!(lp.step().is_healthy());
        assert!(lp.step().is_healthy());
        let good = lp.outputs().clone();
        // First three faults degrade; the fourth crosses the threshold.
        for i in 0..QUARANTINE_THRESHOLD - 1 {
            let outcome = lp.step();
            match outcome {
                StepOutcome::Degraded(ref e) => {
                    assert_eq!(e.epoch, 2 + u64::from(i));
                    assert_eq!(e.core, None);
                    assert_eq!(e.cause, EpochCause::NonFiniteMeasurement { channel: 0 });
                }
                other => panic!("expected Degraded, got {other:?}"),
            }
            // Buffers restored to the last healthy epoch.
            assert_eq!(lp.outputs(), &good);
        }
        match lp.step() {
            StepOutcome::Quarantined(e) => {
                assert_eq!(e.epoch, 1 + u64::from(QUARANTINE_THRESHOLD))
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
        assert!(lp.is_quarantined());
        assert_eq!(
            lp.quarantine_epoch(),
            Some(1 + u64::from(QUARANTINE_THRESHOLD))
        );
        assert_eq!(lp.fault_epochs(), u64::from(QUARANTINE_THRESHOLD));
        // The plant healed: the epoch itself succeeds, but the quarantine
        // latch stays until the supervisor calls reset_health.
        assert!(lp.step().is_healthy());
        assert!(lp.is_quarantined());
        lp.reset_health();
        assert!(!lp.is_quarantined());
        assert!(lp.step().is_healthy());
        // History never recorded a NaN.
        let (u_hist, y_hist) = lp.into_histories();
        assert!(u_hist.iter().all(Vector::all_finite));
        assert!(y_hist.iter().all(Vector::all_finite));
    }

    #[test]
    fn step_decided_matches_step_including_fault_machinery() {
        // Two identical loops: one stepped normally, one via external
        // decisions replicating what the FixedGovernor would decide.
        // Outcomes, buffers, histories, and the quarantine latch must
        // match epoch for epoch.
        let mk = || {
            let gov = FixedGovernor::new(Vector::from_slice(&[1.0, 4.0]));
            let plant = NanWindow {
                epochs: 0,
                from: 2,
                to: 2 + QUARANTINE_THRESHOLD as usize,
            };
            let mut lp = EpochLoop::new(gov, plant);
            lp.record_history(10);
            lp
        };
        let mut solo = mk();
        let mut banked = mk();
        for _ in 0..10 {
            let a = solo.step();
            let b = banked.step_decided(Ok(&[1.0, 4.0]));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(solo.outputs(), banked.outputs());
            assert_eq!(solo.last_input(), banked.last_input());
            assert_eq!(solo.is_quarantined(), banked.is_quarantined());
        }
        assert_eq!(solo.fault_epochs(), banked.fault_epochs());
        assert_eq!(solo.quarantine_epoch(), banked.quarantine_epoch());
        assert_eq!(solo.into_histories(), banked.into_histories());
    }

    #[test]
    fn step_decided_err_counts_as_faulted_epoch() {
        let gov = FixedGovernor::new(Vector::from_slice(&[1.0, 4.0]));
        let mut lp = EpochLoop::new(gov, Echo { epochs: 0 });
        assert!(lp.step_decided(Ok(&[1.0, 4.0])).is_healthy());
        let good = lp.outputs().clone();
        match lp.step_decided(Err(EpochCause::NonFiniteActuation { channel: 1 })) {
            StepOutcome::Degraded(e) => {
                assert_eq!(e.cause, EpochCause::NonFiniteActuation { channel: 1 });
                assert_eq!(e.epoch, 1);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        // Buffers restored; the plant never ran this epoch.
        assert_eq!(lp.outputs(), &good);
        assert_eq!(lp.fault_epochs(), 1);
        // Non-finite actuation passed as Ok is still screened here.
        match lp.step_decided(Ok(&[f64::NAN, 4.0])) {
            StepOutcome::Degraded(e) => {
                assert_eq!(e.cause, EpochCause::NonFiniteActuation { channel: 0 });
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    #[test]
    fn core_id_is_stamped_into_errors() {
        let gov = FixedGovernor::new(Vector::from_slice(&[1.0, 4.0]));
        let plant = NanWindow {
            epochs: 0,
            from: 0,
            to: 1,
        };
        let mut lp = EpochLoop::new(gov, plant);
        lp.set_core(7);
        match lp.step() {
            StepOutcome::Degraded(e) => assert_eq!(e.core, Some(7)),
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_actuation_is_caught_before_the_plant() {
        let gov = FixedGovernor::new(Vector::from_slice(&[1.0, f64::INFINITY]));
        let mut lp = EpochLoop::new(gov, Echo { epochs: 0 });
        match lp.step() {
            StepOutcome::Degraded(e) => {
                assert_eq!(e.cause, EpochCause::NonFiniteActuation { channel: 1 });
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        // The plant never saw the bad actuation.
        assert_eq!(lp.plant().epochs, 0);
    }

    #[test]
    fn sink_sees_every_epoch_and_one_quarantine() {
        use crate::telemetry::{CauseCode, TelemetryConfig, TelemetrySink};
        let gov = || FixedGovernor::new(Vector::from_slice(&[1.0, 4.0]));
        let plant = || NanWindow {
            epochs: 0,
            from: 2,
            to: 2 + QUARANTINE_THRESHOLD as usize + 2,
        };
        let mut plain = EpochLoop::new(gov(), plant());
        let mut lp = EpochLoop::new(gov(), plant());
        lp.set_sink(TelemetrySink::new(&TelemetryConfig::trace(64)));
        plain.set_core(5);
        lp.set_core(5);
        plain.record_history(10);
        lp.record_history(10);
        for _ in 0..10 {
            // Tracing must not perturb the run.
            assert_eq!(lp.step(), plain.step());
        }
        let targets = Vector::from_slice(&[1.0, 4.0]);
        assert_eq!(
            lp.summarize(&targets, true),
            plain.summarize(&targets, true)
        );
        assert!(plain.sink().is_none());
        let sink = lp.sink().expect("sink installed");
        // The first latch is kept even though two more epochs fault while
        // quarantined.
        let q = sink.quarantine.expect("quarantine event captured");
        assert_eq!(q.epoch, 1 + u64::from(QUARANTINE_THRESHOLD));
        assert_eq!(q.core, Some(5));
        assert_eq!(q.channel, Some(0));
        let summary = lp.summary();
        assert_eq!(summary, plain.summary());
        assert_eq!(summary.epochs, 10);
        assert_eq!(summary.fault_epochs, 6);
        assert!(summary.quarantined);
        assert_eq!(summary.quarantine_epoch, lp.quarantine_epoch());
        // The trace labels healthy/degraded/quarantined epochs in order,
        // and faulted records carry the restored (finite) buffers.
        let trace = sink.trace.to_vec();
        assert_eq!(trace.len(), 10);
        let labels: Vec<&str> = trace.iter().map(|r| r.health.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "healthy",
                "healthy",
                "degraded",
                "degraded",
                "degraded",
                "quarantined",
                "quarantined",
                "quarantined",
                "healthy",
                "healthy",
            ]
        );
        // Every faulted record names the NaN measurement as its cause.
        assert!(trace
            .iter()
            .all(|r| r.cause
                == (r.health != Health::Healthy).then_some(CauseCode::NonFiniteMeasurement)));
        assert!(trace
            .iter()
            .flat_map(|r| r.inputs().iter().chain(r.outputs()))
            .all(|v| v.is_finite()));
        // into_parts hands the sink back for draining.
        let (_gov, _plant, sink) = lp.into_parts();
        assert_eq!(sink.expect("sink installed").trace.len(), 10);
    }

    #[test]
    fn set_sink_mid_run_keeps_state_and_no_sink_is_free() {
        use crate::telemetry::{TelemetryConfig, TelemetrySink};
        let gov = FixedGovernor::new(Vector::from_slice(&[1.0, 4.0]));
        let mut lp = EpochLoop::new(gov, Echo { epochs: 0 });
        assert!(lp.sink().is_none());
        lp.step();
        let before = lp.outputs().clone();
        // Installing a sink mid-run keeps epochs, buffers, and health.
        lp.set_sink(TelemetrySink::new(&TelemetryConfig::trace(4)));
        assert_eq!(lp.summary().epochs, 1);
        assert_eq!(lp.outputs(), &before);
        lp.step();
        let sink = lp.sink().expect("sink installed");
        assert_eq!(sink.trace.len(), 1);
        assert_eq!(sink.trace.iter().next().unwrap().epoch, 1);
    }

    #[test]
    fn into_parts_returns_the_sink_with_every_record_of_a_faulted_run() {
        use crate::telemetry::{TelemetryConfig, TelemetrySink};
        use mimo_sim::fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
        let plan = FaultPlan::none().with_fault(FaultSpec {
            kind: FaultKind::NanMeasurement { channel: 0 },
            start_epoch: 2,
            duration: 3,
        });
        let gov = FixedGovernor::new(Vector::from_slice(&[1.0, 4.0]));
        let mut lp = EpochLoop::new(gov, FaultInjector::new(Echo { epochs: 0 }, plan));
        lp.set_sink(TelemetrySink::new(&TelemetryConfig::trace(64)));
        for _ in 0..12 {
            lp.step();
        }
        let (_gov, plant, sink) = lp.into_parts();
        let sink = sink.expect("sink installed");
        let trace = sink.trace.to_vec();
        assert_eq!(trace.len(), 12);
        assert!(trace.iter().enumerate().all(|(t, r)| r.epoch == t as u64));
        let degraded = trace.iter().filter(|r| r.health != Health::Healthy).count();
        assert_eq!(degraded, 3);
        assert_eq!(plant.faulted_epochs(), 3);
        assert_eq!(plant.injected_by_kind()[1], 3);
    }
}
