//! The common per-epoch controller interface.
//!
//! Table IV compares four architectures — Baseline, Heuristic, Decoupled,
//! and MIMO. All of them observe the outputs each epoch and produce the
//! next actuation; [`Governor`] is that contract, so the experiment runner
//! treats them uniformly.

use mimo_linalg::Vector;

use crate::error::ControlError;
use crate::lqg::LqgController;
use crate::storage::{DynStore, LqgStorage, StaticStore};

/// Rejects measurements containing NaN or infinite entries. Stateful
/// governors call this before consuming `y`, because folding a non-finite
/// sample into controller state (a Kalman estimate, an integrator) would
/// corrupt every subsequent decision.
pub fn screen_measurement(y: &Vector) -> crate::Result<()> {
    match y.iter().position(|v| !v.is_finite()) {
        Some(channel) => Err(ControlError::NonFiniteMeasurement { channel }),
        None => Ok(()),
    }
}

/// A controller that is invoked once per epoch.
pub trait Governor {
    /// Display name (used in experiment reports).
    fn name(&self) -> &str;

    /// Number of inputs the governor actuates.
    fn num_inputs(&self) -> usize;

    /// Updates the output reference targets (physical units).
    fn set_targets(&mut self, y0: &Vector);

    /// Consumes this epoch's measured outputs and writes the physical
    /// actuation to apply for the next epoch into `out` (which must have
    /// [`Governor::num_inputs`] elements). `phase_changed` reports a
    /// program phase boundary (some governors re-plan on it). This is the
    /// one step a governor implements; the epoch hot loop calls it, so an
    /// implementation should not allocate.
    ///
    /// # Errors
    ///
    /// Stateful implementations return
    /// [`ControlError::NonFiniteMeasurement`] when `y` contains NaN or
    /// infinite entries (consuming one would corrupt controller state);
    /// on error `out` and the governor's state are left untouched.
    fn decide_into(
        &mut self,
        y: &Vector,
        phase_changed: bool,
        out: &mut Vector,
    ) -> crate::Result<()>;

    /// [`Governor::decide_into`] into a fresh vector, for callers outside
    /// the hot loop.
    ///
    /// # Panics
    ///
    /// Panics with the governor's name and the error when `decide_into`
    /// fails, e.g. on a non-finite measurement.
    fn decide(&mut self, y: &Vector, phase_changed: bool) -> Vector {
        let mut out = Vector::zeros(self.num_inputs());
        if let Err(e) = self.decide_into(y, phase_changed, &mut out) {
            panic!("{}: {e}", self.name());
        }
        out
    }

    /// Clears runtime state (not the design).
    fn reset(&mut self);
}

impl<G: Governor + ?Sized> Governor for &mut G {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn num_inputs(&self) -> usize {
        (**self).num_inputs()
    }

    fn set_targets(&mut self, y0: &Vector) {
        (**self).set_targets(y0);
    }

    fn decide(&mut self, y: &Vector, phase_changed: bool) -> Vector {
        (**self).decide(y, phase_changed)
    }

    fn decide_into(
        &mut self,
        y: &Vector,
        phase_changed: bool,
        out: &mut Vector,
    ) -> crate::Result<()> {
        (**self).decide_into(y, phase_changed, out)
    }

    fn reset(&mut self) {
        (**self).reset();
    }
}

impl<G: Governor + ?Sized> Governor for Box<G> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn num_inputs(&self) -> usize {
        (**self).num_inputs()
    }

    fn set_targets(&mut self, y0: &Vector) {
        (**self).set_targets(y0);
    }

    fn decide(&mut self, y: &Vector, phase_changed: bool) -> Vector {
        (**self).decide(y, phase_changed)
    }

    fn decide_into(
        &mut self,
        y: &Vector,
        phase_changed: bool,
        out: &mut Vector,
    ) -> crate::Result<()> {
        (**self).decide_into(y, phase_changed, out)
    }

    fn reset(&mut self) {
        (**self).reset();
    }
}

/// The Baseline architecture: a non-configurable design whose inputs are
/// fixed at profiling-chosen values.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedGovernor {
    actuation: Vector,
}

impl FixedGovernor {
    /// Creates a baseline that always applies `actuation`.
    pub fn new(actuation: Vector) -> Self {
        FixedGovernor { actuation }
    }
}

impl Governor for FixedGovernor {
    fn name(&self) -> &str {
        "Baseline"
    }

    fn num_inputs(&self) -> usize {
        self.actuation.len()
    }

    fn set_targets(&mut self, _y0: &Vector) {}

    fn decide_into(
        &mut self,
        _y: &Vector,
        _phase_changed: bool,
        out: &mut Vector,
    ) -> crate::Result<()> {
        out.copy_from(&self.actuation);
        Ok(())
    }

    fn reset(&mut self) {}
}

/// The MIMO architecture: wraps the LQG tracking controller.
///
/// Generic over the controller's runtime storage: the default dynamic
/// governor is what `design_mimo`-style synthesis hands out, while
/// [`fast_governor`] re-homes a controller into stack storage when its
/// shape matches one of the deployed architectures.
#[derive(Debug, Clone)]
pub struct MimoGovernor<S: LqgStorage = DynStore> {
    ctrl: LqgController<S>,
}

impl<S: LqgStorage> MimoGovernor<S> {
    /// Wraps a synthesized controller.
    pub fn new(ctrl: LqgController<S>) -> Self {
        MimoGovernor { ctrl }
    }

    /// Borrows the underlying controller (e.g. for robustness analysis).
    pub fn controller(&self) -> &LqgController<S> {
        &self.ctrl
    }
}

/// A controller re-homed, once, into the fastest storage for its shape.
///
/// When the dimensions match one of the reference architectures the
/// controller is converted into stack storage
/// ([`StaticStore`]) and its governors step monomorphized fixed-size
/// kernels; any other shape (e.g. Figure 7's state-order sweep) keeps the
/// dynamic path. The conversion builds one shared design; every governor
/// [`FastController::governor`] hands out is a clone that shares it.
///
/// The static path is bit-identical to the dynamic one, so callers can
/// adopt this unconditionally — golden digests do not move.
#[derive(Debug, Clone)]
pub enum FastController {
    /// 2-in/2-out, 4 states: the two-input architectures
    /// (cache+frequency, §VI; na=1, L=1).
    FreqCache(LqgController<StaticStore<2, 2, 4, 8>>),
    /// 3-in/2-out, 5 states: the three-input architecture (§VI-C).
    ThreeKnob(LqgController<StaticStore<3, 2, 5, 10>>),
    /// 1-in/1-out, 2 states: decoupled SISO loops.
    Siso(LqgController<StaticStore<1, 1, 2, 4>>),
    /// 2-in/2-out, 2 states: the unit-test plant used across the suite.
    Test2(LqgController<StaticStore<2, 2, 2, 6>>),
    /// Any other shape, on the dynamic heap-backed storage.
    Dynamic(LqgController),
}

impl FastController {
    /// Picks the storage for `ctrl`'s shape and converts once, carrying the
    /// controller's state bit-exactly.
    pub fn new(ctrl: &LqgController) -> Self {
        let shape = (
            ctrl.num_inputs(),
            ctrl.num_outputs(),
            ctrl.model().state_dim(),
        );
        // NZ = NX + NU + NY, spelled out because stable Rust cannot compute
        // it. The shape was matched, so the conversion cannot fail.
        let shaped = "shape checked above";
        match shape {
            (2, 2, 4) => Self::FreqCache(ctrl.with_storage().expect(shaped)),
            (3, 2, 5) => Self::ThreeKnob(ctrl.with_storage().expect(shaped)),
            (1, 1, 2) => Self::Siso(ctrl.with_storage().expect(shaped)),
            (2, 2, 2) => Self::Test2(ctrl.with_storage().expect(shaped)),
            _ => Self::Dynamic(ctrl.clone()),
        }
    }

    /// A governor stepping a clone of the converted controller: it shares
    /// the design and starts from the converted state. With a static
    /// storage its one heap allocation is the box.
    pub fn governor(&self) -> Box<dyn Governor + Send> {
        match self {
            Self::FreqCache(c) => Box::new(MimoGovernor::new(c.clone())),
            Self::ThreeKnob(c) => Box::new(MimoGovernor::new(c.clone())),
            Self::Siso(c) => Box::new(MimoGovernor::new(c.clone())),
            Self::Test2(c) => Box::new(MimoGovernor::new(c.clone())),
            Self::Dynamic(c) => Box::new(MimoGovernor::new(c.clone())),
        }
    }
}

/// Converts `ctrl` once ([`FastController::new`]) and returns a factory
/// of governors that all share the converted design — the way to hand
/// one synthesized controller to many cores.
pub fn fast_governors(ctrl: &LqgController) -> impl FnMut() -> Box<dyn Governor + Send> {
    let fast = FastController::new(ctrl);
    move || fast.governor()
}

/// Wraps a dynamic controller in the fastest governor available for its
/// shape: one governor from [`fast_governors`].
pub fn fast_governor(ctrl: LqgController) -> Box<dyn Governor + Send> {
    fast_governors(&ctrl)()
}

impl<S: LqgStorage> Governor for MimoGovernor<S> {
    fn name(&self) -> &str {
        "MIMO"
    }

    fn num_inputs(&self) -> usize {
        self.ctrl.num_inputs()
    }

    fn set_targets(&mut self, y0: &Vector) {
        self.ctrl.set_reference(y0);
    }

    fn decide_into(
        &mut self,
        y: &Vector,
        _phase_changed: bool,
        out: &mut Vector,
    ) -> crate::Result<()> {
        screen_measurement(y)?;
        self.ctrl.step_into(y, out);
        Ok(())
    }

    fn reset(&mut self) {
        self.ctrl.reset_state();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_governor_is_constant() {
        let mut g = FixedGovernor::new(Vector::from_slice(&[1.3, 6.0]));
        g.set_targets(&Vector::from_slice(&[99.0, 99.0]));
        let u1 = g.decide(&Vector::from_slice(&[0.0, 0.0]), false);
        let u2 = g.decide(&Vector::from_slice(&[5.0, 5.0]), true);
        assert_eq!(u1, u2);
        assert_eq!(g.num_inputs(), 2);
        assert_eq!(g.name(), "Baseline");
        g.reset();
        assert_eq!(g.decide(&Vector::zeros(2), false), u1);
    }

    /// Implements only the required methods, so `decide` is the trait's.
    struct Ramp {
        k: f64,
    }

    impl Governor for Ramp {
        fn name(&self) -> &str {
            "Ramp"
        }

        fn num_inputs(&self) -> usize {
            2
        }

        fn set_targets(&mut self, _y0: &Vector) {}

        fn decide_into(
            &mut self,
            y: &Vector,
            _phase_changed: bool,
            out: &mut Vector,
        ) -> crate::Result<()> {
            screen_measurement(y)?;
            self.k += 0.1;
            out[0] = y[0] * self.k;
            out[1] = y[1] / self.k;
            Ok(())
        }

        fn reset(&mut self) {
            self.k = 0.0;
        }
    }

    #[test]
    fn provided_decide_is_bit_equal_to_decide_into() {
        let (mut a, mut b) = (Ramp { k: 0.0 }, Ramp { k: 0.0 });
        let mut out = Vector::zeros(2);
        for t in 0..20 {
            let y = Vector::from_slice(&[0.3 * t as f64, 1.0 / (t + 1) as f64]);
            let u = a.decide(&y, false);
            b.decide_into(&y, false, &mut out).unwrap();
            let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&u), bits(&out), "epoch {t}");
        }
    }

    #[test]
    #[should_panic(expected = "Ramp: measurement channel 1 is NaN or infinite")]
    fn provided_decide_panics_with_the_name_and_the_error() {
        Ramp { k: 0.0 }.decide(&Vector::from_slice(&[1.0, f64::NAN]), false);
    }

    #[test]
    fn governor_trait_is_object_safe() {
        let g = FixedGovernor::new(Vector::from_slice(&[1.0]));
        let boxed: Box<dyn Governor> = Box::new(g);
        assert_eq!(boxed.name(), "Baseline");
    }
}
