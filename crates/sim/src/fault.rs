//! Deterministic fault injection around any [`Plant`].
//!
//! Real on-chip controllers spend most of their engineering budget on the
//! *unhappy* path — sensors latch, ADCs return garbage, voltage regulators
//! overshoot. The simulator's plant is too well behaved to exercise any of
//! that, so [`FaultInjector`] wraps a plant and corrupts its interface the
//! way real hardware does:
//!
//! * **Stuck sensor** — a measurement channel latches at its last healthy
//!   reading and stops responding.
//! * **NaN measurement** — a channel returns NaN (an unlocked PLL counter,
//!   an uninitialized energy register).
//! * **Actuator stuck-at** — an input channel ignores commands and stays
//!   pinned at a fixed value.
//! * **Power spike** — the power reading is multiplied by a transient
//!   factor (a di/dt event or a regulator overshoot).
//!
//! Faults come from two sources: a **schedule** ([`FaultSpec`]) of
//! explicitly placed windows, and a **transient process** that starts a
//! short random fault each epoch with probability [`FaultPlan::rate`],
//! driven by a dedicated seeded RNG. Both are deterministic: the same plan
//! and seed produce the same fault sequence, epoch for epoch, which is what
//! lets the fleet runtime keep its bit-identical-across-workers invariant
//! with faults enabled.
//!
//! Bit-exactness contract: an injector with an empty schedule and zero
//! transient rate is a transparent wrapper — it performs no RNG draws and
//! forwards `apply_into` untouched, so fault-free runs reproduce the exact
//! digests of the unwrapped plant. Such an injector also allocates nothing
//! of its own: the plan, its RNG, the transient list, the two per-channel
//! buffers and the counters live in one box that exists only for plans
//! that can fire. The steady-state epoch path performs no heap
//! allocations, faulting or not.

use mimo_linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::processor::Plant;
use crate::Result;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Output `channel` latches at its last healthy reading.
    StuckSensor {
        /// Faulted output channel.
        channel: usize,
    },
    /// Output `channel` reads NaN.
    NanMeasurement {
        /// Faulted output channel.
        channel: usize,
    },
    /// Input `input` ignores commands and stays at `value`.
    ActuatorStuckAt {
        /// Faulted input channel.
        input: usize,
        /// Value the actuator is pinned to.
        value: f64,
    },
    /// The power reading (output channel 1) is multiplied by `factor`.
    PowerSpike {
        /// Multiplicative spike on the power channel.
        factor: f64,
    },
}

/// Number of distinct [`FaultKind`] variants — sizes the per-kind
/// injection counters (see [`FaultInjector::injected_by_kind`]).
pub const FAULT_KIND_COUNT: usize = 4;

impl FaultKind {
    /// Dense index into a `[u64; FAULT_KIND_COUNT]` counter array.
    pub fn index(&self) -> usize {
        match self {
            FaultKind::StuckSensor { .. } => 0,
            FaultKind::NanMeasurement { .. } => 1,
            FaultKind::ActuatorStuckAt { .. } => 2,
            FaultKind::PowerSpike { .. } => 3,
        }
    }

    /// Stable snake_case label used by telemetry reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::StuckSensor { .. } => "stuck_sensor",
            FaultKind::NanMeasurement { .. } => "nan_measurement",
            FaultKind::ActuatorStuckAt { .. } => "actuator_stuck_at",
            FaultKind::PowerSpike { .. } => "power_spike",
        }
    }
}

/// A scheduled fault window: `kind` is active for epochs
/// `[start_epoch, start_epoch + duration)`. Use `duration = u64::MAX` for
/// a permanent fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// First faulted epoch (0-based, counted by the injector).
    pub start_epoch: u64,
    /// Number of faulted epochs (saturating; `u64::MAX` = forever).
    pub duration: u64,
}

impl FaultSpec {
    /// Whether this spec is active at `epoch`.
    fn active_at(&self, epoch: u64) -> bool {
        epoch >= self.start_epoch && epoch - self.start_epoch < self.duration
    }
}

/// The full fault configuration for one injector.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Explicitly scheduled fault windows.
    pub scheduled: Vec<FaultSpec>,
    /// Per-epoch probability of starting a random transient fault.
    /// `0.0` disables the transient process entirely (no RNG draws).
    pub rate: f64,
    /// Length of each random transient, in epochs.
    pub transient_epochs: u64,
    /// Seed for the transient process (independent of the plant's seed).
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan: no scheduled faults, no transients. Wrapping a plant
    /// with this plan is bit-exact pass-through.
    pub fn none() -> Self {
        FaultPlan {
            scheduled: Vec::new(),
            rate: 0.0,
            transient_epochs: 0,
            seed: 0,
        }
    }

    /// A plan with only the random transient process enabled.
    pub fn transient(rate: f64, transient_epochs: u64, seed: u64) -> Self {
        FaultPlan {
            scheduled: Vec::new(),
            rate,
            transient_epochs,
            seed,
        }
    }

    /// Adds a scheduled fault window (builder style).
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.scheduled.push(spec);
        self
    }

    /// Whether the plan can never inject anything.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty() && self.rate <= 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Upper bound on concurrently active transient faults. New transients are
/// skipped (deterministically) while the list is full, so the list a
/// transient plan reserves at construction never grows.
const MAX_ACTIVE_TRANSIENTS: usize = 8;

/// Wraps any [`Plant`], corrupting actuations and measurements according
/// to a deterministic [`FaultPlan`]. See the module docs for the fault
/// model and the bit-exactness contract.
///
/// Inline, the wrapper is its plant, an epoch counter and one pointer:
/// everything a plan that can fire needs lives in one boxed
/// `FaultState`, absent for a plan that cannot.
#[derive(Debug, Clone)]
pub struct FaultInjector<P: Plant> {
    inner: P,
    epoch: u64,
    /// `None` exactly when the plan [`FaultPlan::is_empty`].
    state: Option<Box<FaultState>>,
}

/// The fault machinery of an injector whose plan can fire.
#[derive(Debug, Clone)]
struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
    /// Active transient faults as `(kind, end_epoch)`; reserved only when
    /// the plan has a transient process.
    active: Vec<(FaultKind, u64)>,
    /// Last healthy (pre-fault) reading per output channel, for
    /// [`FaultKind::StuckSensor`].
    last_good: Vector,
    /// Scratch actuation buffer for actuator faults.
    u_scratch: Vector,
    /// Epochs in which at least one fault corrupted the interface.
    faulted_epochs: u64,
    /// Corruptions applied, bucketed by [`FaultKind::index`]. One fault
    /// active for N epochs counts N times.
    injected_by_kind: [u64; FAULT_KIND_COUNT],
}

impl<P: Plant> FaultInjector<P> {
    /// Wraps `inner` with `plan`. A plan that cannot fire
    /// ([`FaultPlan::is_empty`]) allocates nothing here.
    pub fn new(inner: P, plan: FaultPlan) -> Self {
        let state = (!plan.is_empty()).then(|| {
            let active = if plan.rate > 0.0 {
                Vec::with_capacity(MAX_ACTIVE_TRANSIENTS)
            } else {
                Vec::new()
            };
            Box::new(FaultState {
                rng: StdRng::seed_from_u64(plan.seed),
                active,
                last_good: Vector::zeros(inner.num_outputs()),
                u_scratch: Vector::zeros(inner.num_inputs()),
                faulted_epochs: 0,
                injected_by_kind: [0; FAULT_KIND_COUNT],
                plan,
            })
        });
        FaultInjector {
            inner,
            epoch: 0,
            state,
        }
    }

    /// Borrows the wrapped plant.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutably borrows the wrapped plant.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Epochs stepped so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epochs in which at least one fault corrupted the interface.
    pub fn faulted_epochs(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.faulted_epochs)
    }

    /// Corruptions applied so far, bucketed by [`FaultKind::index`]. A
    /// fault active for N epochs counts N times, so the totals measure
    /// exposure, not distinct fault instances.
    pub fn injected_by_kind(&self) -> &[u64; FAULT_KIND_COUNT] {
        match &self.state {
            Some(s) => &s.injected_by_kind,
            None => &[0; FAULT_KIND_COUNT],
        }
    }
}

impl FaultState {
    /// Draws epoch `epoch`'s transient process and expires finished
    /// transients. Zero-rate plans perform no RNG draws at all, keeping
    /// the wrapper bit-exact.
    fn advance_transients(&mut self, epoch: u64) {
        if self.plan.rate <= 0.0 {
            return;
        }
        self.active.retain(|&(_, end)| epoch < end);
        if self.rng.gen::<f64>() < self.plan.rate && self.active.len() < MAX_ACTIVE_TRANSIENTS {
            let kind = match self.rng.gen::<u64>() % 4 {
                0 => FaultKind::StuckSensor {
                    channel: (self.rng.gen::<u64>() % self.last_good.len().max(1) as u64) as usize,
                },
                1 => FaultKind::NanMeasurement {
                    channel: (self.rng.gen::<u64>() % self.last_good.len().max(1) as u64) as usize,
                },
                2 => {
                    let input =
                        (self.rng.gen::<u64>() % self.u_scratch.len().max(1) as u64) as usize;
                    FaultKind::ActuatorStuckAt {
                        input,
                        // Pinned at whatever the last command was; resolved
                        // when the fault is applied.
                        value: f64::NAN,
                    }
                }
                _ => FaultKind::PowerSpike {
                    factor: 1.5 + self.rng.gen::<f64>(),
                },
            };
            let end = epoch.saturating_add(self.plan.transient_epochs.max(1));
            self.active.push((kind, end));
        }
    }

    /// Applies the actuator faults active at `epoch` to `u`, writing the
    /// substituted actuation into the scratch buffer. Returns `true`
    /// (scratch filled) if at least one actuator fault fired.
    fn faulted_input(&mut self, epoch: u64, u: &Vector) -> bool {
        let mut any = false;
        for spec in &self.plan.scheduled {
            if let FaultKind::ActuatorStuckAt { input, value } = spec.kind {
                if spec.active_at(epoch) && input < self.u_scratch.len() {
                    if !any {
                        self.u_scratch.copy_from(u);
                        any = true;
                    }
                    self.u_scratch[input] = value;
                    self.injected_by_kind[spec.kind.index()] += 1;
                }
            }
        }
        for i in 0..self.active.len() {
            if let (FaultKind::ActuatorStuckAt { input, value }, _) = self.active[i] {
                if input >= self.u_scratch.len() {
                    continue;
                }
                if !any {
                    self.u_scratch.copy_from(u);
                    any = true;
                }
                if value.is_finite() {
                    self.u_scratch[input] = value;
                } else {
                    // First activation of a transient stuck-at: latch the
                    // knob at the current command so it stops responding
                    // from here on rather than jumping somewhere new.
                    let pinned = self.u_scratch[input];
                    self.active[i].0 = FaultKind::ActuatorStuckAt {
                        input,
                        value: pinned,
                    };
                }
                self.injected_by_kind[self.active[i].0.index()] += 1;
            }
        }
        any
    }

    /// Applies the sensor faults active at `epoch` to the fresh
    /// measurement in `out`. Returns whether anything was corrupted.
    fn corrupt_output(&mut self, epoch: u64, out: &mut Vector) -> bool {
        let mut any = false;
        // Record the healthy reading before corruption so StuckSensor has
        // a latch value even when it activates this very epoch.
        let n = out.len();
        let apply_kind = |kind: &FaultKind, out: &mut Vector, last_good: &Vector| match *kind {
            FaultKind::StuckSensor { channel } if channel < n => {
                out[channel] = last_good[channel];
                true
            }
            FaultKind::NanMeasurement { channel } if channel < n => {
                out[channel] = f64::NAN;
                true
            }
            FaultKind::PowerSpike { factor } if n > 1 => {
                out[1] *= factor;
                true
            }
            _ => false,
        };
        for i in 0..n {
            if out[i].is_finite() {
                self.last_good[i] = out[i];
            }
        }
        for spec in &self.plan.scheduled {
            if spec.active_at(epoch) && apply_kind(&spec.kind, out, &self.last_good) {
                self.injected_by_kind[spec.kind.index()] += 1;
                any = true;
            }
        }
        for (kind, _) in &self.active {
            if apply_kind(kind, out, &self.last_good) {
                self.injected_by_kind[kind.index()] += 1;
                any = true;
            }
        }
        any
    }

    /// Returns the fault process to its state at construction.
    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.plan.seed);
        self.active.clear();
        for i in 0..self.last_good.len() {
            self.last_good[i] = 0.0;
        }
        self.faulted_epochs = 0;
        self.injected_by_kind = [0; FAULT_KIND_COUNT];
    }
}

impl<P: Plant> Plant for FaultInjector<P> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn input_grids(&self) -> Vec<Vec<f64>> {
        self.inner.input_grids()
    }

    fn observe(&mut self) -> Vector {
        // Priming reads bypass fault accounting: the wrapped plant decides
        // what a first reading looks like.
        self.inner.observe()
    }

    fn apply_into(&mut self, u: &Vector, out: &mut Vector) -> Result<()> {
        let Some(state) = self.state.as_deref_mut() else {
            // Transparent mode: identical call sequence to the bare plant.
            let r = self.inner.apply_into(u, out);
            if r.is_ok() {
                self.epoch += 1;
            }
            return r;
        };
        let epoch = self.epoch;
        self.epoch += 1;
        state.advance_transients(epoch);
        let in_faulted = state.faulted_input(epoch, u);
        let applied = if in_faulted { &state.u_scratch } else { u };
        if let Err(e) = self.inner.apply_into(applied, out) {
            state.faulted_epochs += 1;
            return Err(e);
        }
        let out_faulted = state.corrupt_output(epoch, out);
        if in_faulted || out_faulted {
            state.faulted_epochs += 1;
        }
        Ok(())
    }

    fn phase_changed(&self) -> bool {
        self.inner.phase_changed()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.epoch = 0;
        if let Some(state) = &mut self.state {
            state.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal 2-in/2-out echo plant: y = u.
    #[derive(Debug, Clone)]
    struct Echo;

    impl Plant for Echo {
        fn num_inputs(&self) -> usize {
            2
        }

        fn num_outputs(&self) -> usize {
            2
        }

        fn input_grids(&self) -> Vec<Vec<f64>> {
            vec![vec![0.0, 1.0], vec![0.0, 1.0]]
        }

        fn apply_into(&mut self, u: &Vector, out: &mut Vector) -> Result<()> {
            out.copy_from(u);
            Ok(())
        }

        fn observe(&mut self) -> Vector {
            Vector::zeros(2)
        }

        fn phase_changed(&self) -> bool {
            false
        }

        fn reset(&mut self) {}
    }

    #[test]
    fn injection_counters_bucket_by_kind_and_count_exposure() {
        // NaN sensor for 3 epochs, actuator stuck for 2, spike for 1.
        let plan = FaultPlan::none()
            .with_fault(FaultSpec {
                kind: FaultKind::NanMeasurement { channel: 0 },
                start_epoch: 1,
                duration: 3,
            })
            .with_fault(FaultSpec {
                kind: FaultKind::ActuatorStuckAt {
                    input: 1,
                    value: 0.25,
                },
                start_epoch: 2,
                duration: 2,
            })
            .with_fault(FaultSpec {
                kind: FaultKind::PowerSpike { factor: 2.0 },
                start_epoch: 5,
                duration: 1,
            });
        let mut inj = FaultInjector::new(Echo, plan);
        let u = Vector::from_slice(&[1.0, 1.0]);
        let mut y = Vector::zeros(2);
        for _ in 0..8 {
            inj.apply_into(&u, &mut y).unwrap();
        }
        let by_kind = *inj.injected_by_kind();
        assert_eq!(by_kind[FaultKind::StuckSensor { channel: 0 }.index()], 0);
        assert_eq!(by_kind[FaultKind::NanMeasurement { channel: 0 }.index()], 3);
        assert_eq!(
            by_kind[FaultKind::ActuatorStuckAt {
                input: 0,
                value: 0.0
            }
            .index()],
            2
        );
        assert_eq!(by_kind[FaultKind::PowerSpike { factor: 1.0 }.index()], 1);
        // Faulted epochs are 1,2,3,5 — overlapping faults at epochs 2–3
        // count once here but separately in the per-kind buckets.
        assert_eq!(inj.faulted_epochs(), 4);
        // reset clears the buckets.
        inj.reset();
        assert_eq!(*inj.injected_by_kind(), [0; FAULT_KIND_COUNT]);
        assert_eq!(inj.faulted_epochs(), 0);
    }

    #[test]
    fn kind_labels_and_indices_are_distinct() {
        let kinds = [
            FaultKind::StuckSensor { channel: 0 },
            FaultKind::NanMeasurement { channel: 0 },
            FaultKind::ActuatorStuckAt {
                input: 0,
                value: 0.0,
            },
            FaultKind::PowerSpike { factor: 1.0 },
        ];
        for (i, a) in kinds.iter().enumerate() {
            assert!(a.index() < FAULT_KIND_COUNT);
            for b in &kinds[i + 1..] {
                assert_ne!(a.index(), b.index());
                assert_ne!(a.as_str(), b.as_str());
            }
        }
        assert_eq!(kinds[0].as_str(), "stuck_sensor");
    }

    #[test]
    fn a_high_rate_plan_never_exceeds_the_transient_cap() {
        // A transient starts almost every epoch and lasts far longer than
        // the cap, so the list would grow without the cap.
        let plan = FaultPlan::transient(0.99, 1_000, 42);
        let mut inj = FaultInjector::new(Echo, plan);
        let reserved = inj.state.as_ref().unwrap().active.capacity();
        let u = Vector::from_slice(&[1.0, 1.0]);
        let mut y = Vector::zeros(2);
        let mut peak = 0;
        for _ in 0..500 {
            // Echo never rejects an actuation; NaN outputs are the
            // injector's own corruption.
            inj.apply_into(&u, &mut y).unwrap();
            let active = inj.state.as_ref().unwrap().active.len();
            assert!(active <= MAX_ACTIVE_TRANSIENTS);
            peak = peak.max(active);
        }
        assert_eq!(peak, MAX_ACTIVE_TRANSIENTS, "the cap was never reached");
        // The list a transient plan reserves up front never grows.
        assert_eq!(inj.state.as_ref().unwrap().active.capacity(), reserved);
    }

    #[test]
    fn a_zero_rate_plan_steps_bit_identically_to_the_bare_plant() {
        use crate::ProcessorBuilder;
        let plant = || ProcessorBuilder::new().app("mcf").seed(7).build().unwrap();
        let mut bare = plant();
        let mut inj = FaultInjector::new(plant(), FaultPlan::transient(0.0, 3, 9));
        assert!(inj.state.is_none());
        let mut y_bare = Vector::zeros(2);
        let mut y_inj = Vector::zeros(2);
        for t in 0..2_000 {
            let k = t % 16;
            let u = Vector::from_slice(&[0.5 + 0.1 * k as f64, (1 + k % 8) as f64, 128.0]);
            bare.apply_into(&u, &mut y_bare).unwrap();
            inj.apply_into(&u, &mut y_inj).unwrap();
            assert_eq!(
                y_bare.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y_inj.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "epoch {t}"
            );
        }
        assert_eq!(bare.totals(), inj.inner().totals());
        assert_eq!(inj.faulted_epochs(), 0);
        assert_eq!(inj.epoch(), 2_000);
    }

    #[test]
    fn a_cloned_live_injector_owns_its_fault_state() {
        let plan = FaultPlan::transient(0.5, 3, 42).with_fault(FaultSpec {
            kind: FaultKind::NanMeasurement { channel: 0 },
            start_epoch: 4,
            duration: 2,
        });
        let mut inj = FaultInjector::new(Echo, plan);
        let u = Vector::from_slice(&[1.0, 1.0]);
        let mut y = Vector::zeros(2);
        for _ in 0..10 {
            inj.apply_into(&u, &mut y).unwrap();
        }
        let (counts, faulted) = (*inj.injected_by_kind(), inj.faulted_epochs());
        let mut copy = inj.clone();
        let mut copy_outputs = Vec::new();
        for _ in 0..50 {
            copy.apply_into(&u, &mut y).unwrap();
            copy_outputs.push(y.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
        assert_ne!(*copy.injected_by_kind(), counts, "the clone never faulted");
        // Stepping the clone moved none of the original's counters ...
        assert_eq!(*inj.injected_by_kind(), counts);
        assert_eq!(inj.faulted_epochs(), faulted);
        assert_eq!(inj.epoch(), 10);
        // ... nor its RNG: the original now draws the clone's sequence.
        for (t, expected) in copy_outputs.iter().enumerate() {
            inj.apply_into(&u, &mut y).unwrap();
            let got: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
            assert_eq!(&got, expected, "epoch {}", 10 + t);
        }
        assert_eq!(*inj.injected_by_kind(), *copy.injected_by_kind());
        assert_eq!(inj.faulted_epochs(), copy.faulted_epochs());
    }

    #[test]
    fn an_empty_plan_reports_no_faults() {
        let mut inj = FaultInjector::new(Echo, FaultPlan::transient(0.0, 3, 9));
        let u = Vector::from_slice(&[1.0, 0.0]);
        let mut y = Vector::zeros(2);
        for _ in 0..100 {
            inj.apply_into(&u, &mut y).unwrap();
        }
        assert_eq!(inj.epoch(), 100);
        assert_eq!(*inj.injected_by_kind(), [0; FAULT_KIND_COUNT]);
        assert_eq!(inj.faulted_epochs(), 0);
    }
}
