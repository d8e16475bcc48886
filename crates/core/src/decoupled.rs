//! The Decoupled baseline: two formally designed SISO controllers with no
//! coordination (Table IV).
//!
//! "One changes cache size to control IPS, and the other changes frequency
//! to control power. There is no coordination between the two." Each loop
//! is a full LQG design — identified, weighted, synthesized with the same
//! machinery as MIMO — but each sees only its own input/output pair, so
//! cross couplings (cache→power, frequency→IPS) act as unmodeled
//! disturbances. §VIII-D shows where that breaks down.

use mimo_linalg::Vector;
use mimo_sim::Plant;

use crate::design::DesignFlow;
use crate::governor::Governor;
use crate::lqg::LqgController;
use crate::weights::WeightSet;
use crate::Result;

/// Restricts a [`Plant`] to a single input/output pair; the other inputs
/// are pinned at fixed values. Used to identify the SISO submodels.
#[derive(Debug)]
pub struct SisoView<'a, P: Plant + ?Sized> {
    inner: &'a mut P,
    input_idx: usize,
    output_idx: usize,
    pinned: Vec<f64>,
}

impl<'a, P: Plant + ?Sized> SisoView<'a, P> {
    /// Creates a view exposing `input_idx → output_idx`, pinning all other
    /// inputs to `pinned` (which must list every inner input).
    ///
    /// # Panics
    ///
    /// Panics if the indices or `pinned` are out of range.
    pub fn new(inner: &'a mut P, input_idx: usize, output_idx: usize, pinned: Vec<f64>) -> Self {
        assert!(input_idx < inner.num_inputs());
        assert!(output_idx < inner.num_outputs());
        assert_eq!(pinned.len(), inner.num_inputs());
        SisoView {
            inner,
            input_idx,
            output_idx,
            pinned,
        }
    }
}

impl<P: Plant + ?Sized> Plant for SisoView<'_, P> {
    fn num_inputs(&self) -> usize {
        1
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn input_grids(&self) -> Vec<Vec<f64>> {
        vec![self.inner.input_grids()[self.input_idx].clone()]
    }

    fn apply(&mut self, u: &Vector) -> Vector {
        let mut full = Vector::from_slice(&self.pinned);
        full[self.input_idx] = u[0];
        let y = self.inner.apply(&full);
        Vector::from_slice(&[y[self.output_idx]])
    }

    fn observe(&mut self) -> Vector {
        let y = self.inner.observe();
        Vector::from_slice(&[y[self.output_idx]])
    }

    fn phase_changed(&self) -> bool {
        self.inner.phase_changed()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The two uncoordinated SISO loops.
#[derive(Debug, Clone)]
pub struct DecoupledGovernor {
    /// Cache → IPS loop.
    ips_loop: LqgController,
    /// Frequency → power loop.
    power_loop: LqgController,
    /// Single-element measurement/actuation scratch buffers so the hot
    /// `decide_into` path never allocates.
    y_scratch: Vector,
    u_cache: Vector,
    u_freq: Vector,
}

impl DecoupledGovernor {
    /// Wraps two synthesized SISO controllers (`ips_loop` actuating the
    /// cache, `power_loop` actuating the frequency).
    pub fn new(ips_loop: LqgController, power_loop: LqgController) -> Self {
        DecoupledGovernor {
            ips_loop,
            power_loop,
            y_scratch: Vector::zeros(1),
            u_cache: Vector::zeros(1),
            u_freq: Vector::zeros(1),
        }
    }

    /// Borrows the cache→IPS loop.
    pub fn ips_loop(&self) -> &LqgController {
        &self.ips_loop
    }

    /// Borrows the frequency→power loop.
    pub fn power_loop(&self) -> &LqgController {
        &self.power_loop
    }
}

impl Governor for DecoupledGovernor {
    fn name(&self) -> &str {
        "Decoupled"
    }

    fn num_inputs(&self) -> usize {
        2
    }

    fn set_targets(&mut self, y0: &Vector) {
        // y0 = [IPS target, power target].
        self.y_scratch[0] = y0[0];
        self.ips_loop.set_reference(&self.y_scratch);
        self.y_scratch[0] = y0[1];
        self.power_loop.set_reference(&self.y_scratch);
    }

    fn decide_into(&mut self, y: &Vector, _phase_changed: bool, out: &mut Vector) -> Result<()> {
        crate::governor::screen_measurement(y)?;
        // Each loop sees only its own output; no coordination.
        self.y_scratch[0] = y[0];
        self.ips_loop.step_into(&self.y_scratch, &mut self.u_cache);
        self.y_scratch[0] = y[1];
        self.power_loop.step_into(&self.y_scratch, &mut self.u_freq);
        // Actuation order matches InputSet::FreqCache: [frequency, cache].
        out[0] = self.u_freq[0];
        out[1] = self.u_cache[0];
        Ok(())
    }

    fn reset(&mut self) {
        self.ips_loop.reset_state();
        self.power_loop.reset_state();
    }
}

/// Designs the Decoupled architecture against two-input plants
/// (frequency = input 0, cache = input 1; IPS = output 0, power = output
/// 1), identifying each SISO submodel across the whole training set with
/// the other input pinned at its midrange.
///
/// # Errors
///
/// Propagates identification and synthesis failures from either loop.
pub fn design_decoupled<P: Plant>(plants: &mut [P], seed: u64) -> Result<DecoupledGovernor> {
    let first = plants
        .first()
        .ok_or(crate::ControlError::DimensionMismatch {
            what: "decoupled design needs at least one training plant".into(),
        })?;
    let grids = first.input_grids();
    let pinned: Vec<f64> = grids.iter().map(|g| g[g.len() / 2]).collect();

    let siso_flow = |label: &str, q: f64, r: f64, sd: u64| DesignFlow {
        weights: WeightSet {
            label: label.into(),
            output: vec![q],
            input: vec![r],
        },
        seed: sd,
        ..DesignFlow::two_input()
    };

    // Cache (input 1) → IPS (output 0).
    let ips_ctrl = {
        let mut views: Vec<SisoView<P>> = plants
            .iter_mut()
            .map(|p| SisoView::new(p, 1, 0, pinned.clone()))
            .collect();
        siso_flow("SISO-cache-ips", 10.0, 0.0005, seed)
            .run_multi(views.iter_mut())?
            .into_controller()
    };
    // Frequency (input 0) → power (output 1).
    let power_ctrl = {
        let mut views: Vec<SisoView<P>> = plants
            .iter_mut()
            .map(|p| SisoView::new(p, 0, 1, pinned.clone()))
            .collect();
        siso_flow("SISO-freq-power", 10_000.0, 0.01, seed ^ 0x5151)
            .run_multi(views.iter_mut())?
            .into_controller()
    };
    Ok(DecoupledGovernor::new(ips_ctrl, power_ctrl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_sim::{InputSet, Processor, ProcessorBuilder};

    fn plant(app: &str, seed: u64) -> Processor {
        ProcessorBuilder::new()
            .app(app)
            .seed(seed)
            .input_set(InputSet::FreqCache)
            .build()
            .unwrap()
    }

    #[test]
    fn siso_view_restricts_dimensions() {
        let mut p = plant("namd", 1);
        let mut view = SisoView::new(&mut p, 0, 1, vec![1.3, 6.0]);
        assert_eq!(view.num_inputs(), 1);
        assert_eq!(view.num_outputs(), 1);
        assert_eq!(view.input_grids().len(), 1);
        assert_eq!(view.input_grids()[0].len(), 16); // frequency grid
        let y = view.apply(&Vector::from_slice(&[2.0]));
        assert_eq!(y.len(), 1);
        assert!(y[0] > 0.0); // power
    }

    #[test]
    fn siso_view_pins_other_inputs() {
        let mut p = plant("namd", 2);
        {
            let mut view = SisoView::new(&mut p, 0, 1, vec![0.0, 4.0]);
            let _ = view.apply(&Vector::from_slice(&[1.0]));
        }
        // The cache stayed at the pinned 4 ways.
        assert_eq!(p.config().l2_ways, 4);
        assert!((p.config().freq_ghz - 1.0).abs() < 1e-9);
    }

    #[test]
    fn design_produces_two_siso_loops() {
        let mut ps = vec![plant("namd", 3), plant("leslie3d", 4)];
        let gov = design_decoupled(&mut ps, 77).unwrap();
        assert_eq!(gov.ips_loop().num_inputs(), 1);
        assert_eq!(gov.power_loop().num_inputs(), 1);
        assert_eq!(gov.num_inputs(), 2);
        assert_eq!(gov.name(), "Decoupled");
    }

    #[test]
    fn governor_emits_freq_cache_order() {
        let mut ps = vec![plant("namd", 4)];
        let mut gov = design_decoupled(&mut ps, 78).unwrap();
        gov.set_targets(&Vector::from_slice(&[2.5, 2.0]));
        let u = gov.decide(&Vector::from_slice(&[1.5, 1.2]), false);
        assert_eq!(u.len(), 2);
        // Frequency on the frequency grid, cache on the cache grid.
        assert!((0.5..=2.0).contains(&u[0]), "freq {u:?}");
        assert!([2.0, 4.0, 6.0, 8.0].contains(&u[1]), "cache {u:?}");
    }

    #[test]
    fn reset_clears_loop_state() {
        let mut ps = vec![plant("gobmk", 5)];
        let mut gov = design_decoupled(&mut ps, 79).unwrap();
        gov.set_targets(&Vector::from_slice(&[2.0, 1.5]));
        let _ = gov.decide(&Vector::from_slice(&[1.0, 1.0]), false);
        gov.reset();
        // After reset the first decision from identical measurements is
        // reproducible.
        let a = gov.decide(&Vector::from_slice(&[1.0, 1.0]), false);
        gov.reset();
        let b = gov.decide(&Vector::from_slice(&[1.0, 1.0]), false);
        assert_eq!(a, b);
    }
}
