//! Span tracing for the traced run, recorded from the benchmark's own
//! code around the public calls into each layer.
//!
//! The tracer reads the clock once per layer boundary and charges the time
//! since the previous boundary to the layer that just ended, so spans never
//! overlap and each one is self time. Every boundary also reads the calling
//! thread's allocation counter, which attributes heap allocations to layers
//! exactly. Clock reads are not free: the tracer measures the cost of an
//! empty span when it is built and subtracts it from every reported time.
//!
//! [`TimedGov`] and [`TimedPlant`] are thin wrappers that put those
//! boundaries around `Governor::decide_into`, `Governor::set_targets` and
//! `Plant::apply_into` when the calls happen inside `EpochLoop::step` or
//! the experiment runners, where the benchmark cannot reach in between.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use mimo_core::governor::Governor;
use mimo_linalg::Vector;
use mimo_sim::fault::FaultInjector;
use mimo_sim::{Plant, Processor};

use crate::alloc::allocations;
use crate::stats::Histogram;

/// The layers time is charged to, named after the modules they live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Outside any measured region (benchmark bookkeeping).
    Idle,
    /// `fleet::chip`: the chip beat's own work between layer calls.
    Chip,
    /// `core::engine`: `EpochLoop::step` minus decide and apply.
    Engine,
    /// `core::governor`: `Governor::decide_into`.
    Governor,
    /// `sim::processor` behind `sim::fault`: `Plant::apply_into`.
    Plant,
    /// `Governor::set_targets`, the reference change and its solve.
    Retarget,
    /// `fleet::arbiter`: `BudgetArbiter::arbitrate_with_quarantine`.
    Arbiter,
    /// `sim::llc`: `SharedLlc::update` and the penalty installation.
    Llc,
    /// `fleet::cluster`: publish, rebudget and cap installation.
    Cluster,
    /// `exp::runner`: the optimization runners around the governor.
    Opt,
}

const LAYERS: usize = 10;

/// What one layer accumulated: its spans, their total and distribution,
/// and the allocations made inside them.
#[derive(Clone, Default)]
struct Span {
    /// Spans closed for this layer.
    segments: u64,
    /// Calls the spans covered: one per span, except that a governor bank
    /// step covers one decision per enrolled core.
    items: u64,
    /// Their summed raw duration, nanoseconds.
    total_ns: u64,
    /// Heap allocations made inside them.
    allocs: u64,
    /// Each span's duration net of the boundary cost, per call covered,
    /// nanoseconds.
    hist: Histogram,
}

/// Exact event counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// `set_targets` calls.
    pub retargets: u64,
    /// `set_targets` calls whose target bits differed from the last call.
    pub retarget_changes: u64,
    /// `apply_into` calls.
    pub applies: u64,
    /// Applies after which the quantised plant configuration differed.
    pub config_changes: u64,
    /// Applies that crossed a program phase boundary.
    pub phase_changes: u64,
}

/// Empty spans timed when a tracer is built, to price one boundary.
const CALIBRATION_MARKS: usize = 200_000;

/// The single-threaded span recorder of one traced run.
pub struct Tracer {
    last: Cell<(Instant, u64)>,
    marks: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    /// Whole chip beats, net of the boundaries inside them, nanoseconds.
    beats: RefCell<Histogram>,
    counts: Cell<Counts>,
    /// The layer the wrapped calls' callers belong to: time up to a
    /// wrapped call's entry boundary is charged here.
    outer: Layer,
    clock_ns: f64,
}

impl Tracer {
    /// A tracer whose cost per boundary has been measured, for wrapped
    /// calls made from `outer`.
    pub fn new(outer: Layer) -> Rc<Self> {
        let mut tracer = Tracer {
            last: Cell::new((Instant::now(), allocations())),
            marks: Cell::new(0),
            spans: RefCell::new(vec![Span::default(); LAYERS]),
            beats: RefCell::new(Histogram::default()),
            counts: Cell::new(Counts::default()),
            outer,
            clock_ns: 0.0,
        };
        tracer.reset();
        for _ in 0..CALIBRATION_MARKS {
            tracer.mark(Layer::Idle);
        }
        tracer.clock_ns = {
            let idle = &tracer.spans.borrow()[Layer::Idle as usize];
            idle.total_ns as f64 / idle.segments as f64
        };
        tracer.reset();
        Rc::new(tracer)
    }

    /// Forgets everything recorded so far (e.g. the calls made while the
    /// traced runtime was built) and opens a fresh span.
    pub fn reset(&self) {
        self.spans.replace(vec![Span::default(); LAYERS]);
        self.beats.replace(Histogram::default());
        self.counts.set(Counts::default());
        self.marks.set(0);
        self.last.set((Instant::now(), allocations()));
    }

    /// Closes the span that just ended and charges it to `ended` as one
    /// call; returns the boundary's clock reading.
    pub fn mark(&self, ended: Layer) -> Instant {
        self.mark_calls(ended, 1)
    }

    /// Closes the span that just ended and charges it to `ended` as
    /// `calls` calls (a batch); returns the boundary's clock reading.
    pub fn mark_calls(&self, ended: Layer, calls: u64) -> Instant {
        let now = Instant::now();
        let allocs = allocations();
        let (then, allocs_then) = self.last.replace((now, allocs));
        let ns = u64::try_from(now.duration_since(then).as_nanos()).unwrap_or(u64::MAX);
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[ended as usize];
        span.segments += 1;
        span.items += calls;
        span.total_ns += ns;
        span.allocs += allocs - allocs_then;
        let net = (ns as f64 - self.clock_ns).max(0.0) / calls.max(1) as f64;
        span.hist.record(net as u64);
        self.marks.set(self.marks.get() + 1);
        now
    }

    /// Boundaries marked so far.
    pub fn marks(&self) -> u64 {
        self.marks.get()
    }

    /// Measured cost of one boundary (an empty span), nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Records one whole chip beat that opened at `start`, when
    /// `marks_at_start` boundaries had been marked, and ends now at `end`.
    pub fn beat(&self, start: Instant, marks_at_start: u64, end: Instant) {
        let raw = end.duration_since(start).as_nanos() as f64;
        let inside = (self.marks() - marks_at_start) as f64;
        let net = (raw - inside * self.clock_ns).max(0.0);
        self.beats.borrow_mut().record(net as u64);
    }

    /// Percentile `p` of the chip beats, nanoseconds, when at least ten
    /// beats lie beyond it.
    pub fn beat_percentile_ns(&self, p: f64) -> Option<f64> {
        self.beats.borrow().percentile(p).map(|ns| ns as f64)
    }

    /// `(calls, allocations)` of `layer` so far.
    pub fn totals(&self, layer: Layer) -> (u64, u64) {
        let span = &self.spans.borrow()[layer as usize];
        (span.items, span.allocs)
    }

    /// The exact event counts.
    pub fn counts(&self) -> Counts {
        self.counts.get()
    }

    /// Self time of `layer` net of the boundary cost, nanoseconds.
    pub fn self_ns(&self, layer: Layer) -> f64 {
        let span = &self.spans.borrow()[layer as usize];
        (span.total_ns as f64 - self.clock_ns * span.segments as f64).max(0.0)
    }

    /// Percentile `p` of `layer`'s spans net of the boundary cost, per call
    /// covered, nanoseconds, when at least ten spans lie beyond it.
    pub fn percentile_ns(&self, layer: Layer, p: f64) -> Option<f64> {
        let ns = self.spans.borrow()[layer as usize].hist.percentile(p)?;
        Some(ns as f64)
    }

    /// Counts one retarget call, and whether its target bits changed.
    pub fn count_retarget(&self, changed: bool) {
        self.count(|c| {
            c.retargets += 1;
            c.retarget_changes += u64::from(changed);
        });
    }

    fn count(&self, f: impl FnOnce(&mut Counts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }
}

/// A governor whose `decide_into` and `set_targets` calls are spans.
pub struct TimedGov {
    inner: Box<dyn Governor + Send>,
    tracer: Rc<Tracer>,
    /// Bits of the last targets set (sized for any output count the
    /// plants have, so recording never allocates).
    target_bits: Vec<u64>,
    /// Every successful decision, flattened, when recording is on.
    decisions: Option<Vec<f64>>,
}

impl TimedGov {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Governor + Send>, tracer: Rc<Tracer>) -> Self {
        TimedGov {
            inner,
            tracer,
            target_bits: Vec::with_capacity(4),
            decisions: None,
        }
    }

    /// Swaps the wrapped governor (the fallback installed on quarantine).
    pub fn replace(&mut self, inner: Box<dyn Governor + Send>) {
        self.inner = inner;
    }

    /// Starts recording every successful decision; `capacity` values are
    /// reserved up front so recording allocates nothing while it fits.
    pub fn record_decisions(&mut self, capacity: usize) {
        self.decisions = Some(Vec::with_capacity(capacity));
    }

    /// The decisions recorded so far, flattened in call order.
    pub fn take_decisions(&mut self) -> Vec<f64> {
        self.decisions.take().unwrap_or_default()
    }
}

impl Governor for TimedGov {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn set_targets(&mut self, y0: &Vector) {
        self.tracer.mark(self.tracer.outer);
        self.inner.set_targets(y0);
        self.tracer.mark(Layer::Retarget);
        let changed = self.target_bits.len() != y0.len()
            || y0
                .iter()
                .zip(&self.target_bits)
                .any(|(v, &bits)| v.to_bits() != bits);
        if changed {
            self.target_bits.clear();
            self.target_bits.extend(y0.iter().map(|v| v.to_bits()));
        }
        self.tracer.count_retarget(changed);
    }

    fn decide(&mut self, y: &Vector, phase_changed: bool) -> Vector {
        self.inner.decide(y, phase_changed)
    }

    fn decide_into(
        &mut self,
        y: &Vector,
        phase_changed: bool,
        out: &mut Vector,
    ) -> mimo_core::Result<()> {
        self.tracer.mark(self.tracer.outer);
        let result = self.inner.decide_into(y, phase_changed, out);
        self.tracer.mark(Layer::Governor);
        if let (Ok(()), Some(decisions)) = (&result, &mut self.decisions) {
            decisions.extend_from_slice(out.as_slice());
        }
        result
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A fault-injected processor whose `apply_into` calls end a plant span.
/// The span opens at the preceding boundary (the governor's exit), so it
/// includes the engine's finiteness screen of the actuation.
pub struct TimedPlant {
    inner: FaultInjector<Processor>,
    tracer: Rc<Tracer>,
}

impl TimedPlant {
    /// Wraps `inner`.
    pub fn new(inner: FaultInjector<Processor>, tracer: Rc<Tracer>) -> Self {
        TimedPlant { inner, tracer }
    }

    /// The wrapped injector.
    pub fn inner(&self) -> &FaultInjector<Processor> {
        &self.inner
    }

    /// The wrapped injector, mutably.
    pub fn inner_mut(&mut self) -> &mut FaultInjector<Processor> {
        &mut self.inner
    }
}

impl Plant for TimedPlant {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn input_grids(&self) -> Vec<Vec<f64>> {
        self.inner.input_grids()
    }

    fn apply(&mut self, u: &Vector) -> Vector {
        self.inner.apply(u)
    }

    fn observe(&mut self) -> Vector {
        self.inner.observe()
    }

    fn apply_into(&mut self, u: &Vector, out: &mut Vector) -> mimo_sim::Result<()> {
        let before = self.inner.inner().config();
        let result = self.inner.apply_into(u, out);
        self.tracer.mark(Layer::Plant);
        let plant = self.inner.inner();
        let (config_changed, phase_changed) = (plant.config() != before, plant.phase_changed());
        self.tracer.count(|c| {
            c.applies += 1;
            c.config_changes += u64::from(config_changed);
            c.phase_changes += u64::from(phase_changed);
        });
        result
    }

    fn phase_changed(&self) -> bool {
        self.inner.phase_changed()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_charged_to_the_layer_that_ended() {
        let tracer = Tracer::new(Layer::Chip);
        assert!(tracer.clock_ns() > 0.0);
        tracer.mark(Layer::Chip);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.mark(Layer::Governor);
        tracer.mark(Layer::Governor);
        assert_eq!(tracer.totals(Layer::Governor).0, 2);
        assert_eq!(tracer.totals(Layer::Chip).0, 1);
        assert_eq!(tracer.marks(), 3);
        assert!(tracer.self_ns(Layer::Governor) >= 1_000_000.0);
        assert!(tracer.percentile_ns(Layer::Governor, 50.0).is_none());
        tracer.reset();
        assert_eq!(tracer.totals(Layer::Governor), (0, 0));
    }

    #[test]
    fn a_batch_span_counts_every_call_it_covers() {
        let tracer = Tracer::new(Layer::Chip);
        for _ in 0..20 {
            let start = tracer.mark(Layer::Chip);
            while start.elapsed().as_micros() < 400 {}
            tracer.mark_calls(Layer::Governor, 4);
        }
        assert_eq!(tracer.totals(Layer::Governor).0, 80);
        assert_eq!(tracer.marks(), 40);
        // A typical 400 µs span is worth about 100 µs per call it covers.
        let p50 = tracer.percentile_ns(Layer::Governor, 50.0).unwrap();
        assert!((99_000.0..400_000.0).contains(&p50), "{p50}");
    }
}
