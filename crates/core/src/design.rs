//! The end-to-end controller design flow of Figure 3.
//!
//! ```text
//! select outputs+targets → decide Q → select inputs → decide R
//!   → generate experimental data → least squares → (A,B,C,D,noise)
//!   → design controller → validate model & estimate error
//!   → decide uncertainty → robust? → deploy
//! ```
//!
//! [`DesignFlow::run`] performs identification and synthesis against a
//! live [`Plant`]; [`DesignFlow::validate`] runs the held-out-application
//! validation, sets the uncertainty guardbands (3× the observed maximum
//! model error, §VI-A2), and iterates the Robust Stability Analysis loop —
//! raising the input weights when the loop is not robust, exactly the
//! remedy §IV-B4 prescribes.

use mimo_linalg::Vector;
use mimo_sim::Plant;
use mimo_sysid::arx::{ArxModel, ArxOrders};
use mimo_sysid::noise::estimate_noise;
use mimo_sysid::realize::to_state_space;
use mimo_sysid::scale::{remove_moving_mean, ChannelScaler};
use mimo_sysid::signal::{identification_waveform, Excitation};
use mimo_sysid::validate::compare;
use mimo_sysid::Samples;

use crate::lqg::{LqgController, LqgDesign};
use crate::robust::{analyze_within, RobustReport, Sweep};
use crate::ss::StateSpace;
use crate::weights::WeightSet;
use crate::{ControlError, Result};

/// Moving-mean window (epochs) for identification detrending: far above
/// the excitation hold times (12–30 epochs), far below phase durations
/// (700+ epochs).
const DETREND_WINDOW: usize = 201;

/// Recorded identification data in physical units: one sample per epoch,
/// each record one contiguous buffer.
#[derive(Debug, Clone)]
pub struct IdentificationData {
    /// Inputs applied per epoch.
    pub u: Samples,
    /// Outputs measured per epoch.
    pub y: Samples,
}

impl IdentificationData {
    /// An empty recording of `inputs`-wide inputs and `outputs`-wide
    /// outputs.
    pub fn new(inputs: usize, outputs: usize) -> Self {
        IdentificationData {
            u: Samples::new(inputs),
            y: Samples::new(outputs),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.u.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.u.is_empty()
    }

    /// Removes every sample, keeping the buffers for the next recording.
    pub fn clear(&mut self) {
        self.u.clear();
        self.y.clear();
    }
}

/// Drives `plant` with an excitation and appends the applied inputs and
/// the measured outputs to `data` (recordings follow each other; the few
/// boundary regression rows between them contribute negligible error
/// relative to thousands of samples). Every epoch steps through
/// [`Plant::apply_into`] with one reused input and one reused output
/// vector.
///
/// # Panics
///
/// Panics with the plant's error if it rejects an actuation, as
/// [`Plant::apply`] does.
pub fn record_excitation<P: Plant + ?Sized>(
    plant: &mut P,
    excitation: &Excitation,
    data: &mut IdentificationData,
) {
    let samples = excitation.samples();
    data.u.extend_from(samples.view());
    data.y.reserve(samples.len());
    let mut u = Vector::zeros(samples.channels());
    let mut y = Vector::zeros(plant.num_outputs());
    for sample in samples.iter() {
        u.as_mut_slice().copy_from_slice(sample);
        if let Err(e) = plant.apply_into(&u, &mut y) {
            panic!("{e}");
        }
        data.y.push(y.as_slice());
    }
}

/// Configuration of the design flow. Defaults mirror Table III.
#[derive(Debug, Clone)]
pub struct DesignFlow {
    /// Input/output cost weights.
    pub weights: WeightSet,
    /// ARX output order (`na`); with `nb = 1` and no feed-through the
    /// state dimension is `na·O + I` (4 for the paper's 2-input system).
    pub arx_na: usize,
    /// Whether the model includes direct feed-through `D` (the deployed
    /// design is strictly proper, as RSA requires).
    pub direct_feedthrough: bool,
    /// Integral-action weight fraction.
    pub integral_weight: f64,
    /// Share of innovation variance attributed to process noise.
    pub process_fraction: f64,
    /// Global scale applied to all input weights when mapping the paper's
    /// weight values onto our normalized coordinates. Only weight *ratios*
    /// are physically meaningful (§IV-B2: "the absolute values of the
    /// weights are unimportant"); this calibration places Table III's
    /// ratios in the well-damped regime of this plant, found by offline
    /// experimentation exactly as the paper prescribes.
    pub input_weight_scale: f64,
    /// Epochs per excitation segment (three segments total).
    pub segment_epochs: usize,
    /// Multiplier from observed validation error to uncertainty guardband
    /// (§VI-A2 uses 3×).
    pub guardband_multiplier: f64,
    /// Frequency-grid resolution for RSA.
    pub rsa_grid: usize,
    /// Redesign attempts before giving up; each one scales the integral
    /// (tracking) weight by 0.4 ([`DesignFlow::rsa_redesign`]).
    pub max_redesigns: usize,
    /// Seed for the excitation generator.
    pub seed: u64,
}

impl DesignFlow {
    /// The two-input design of §VI (frequency + cache).
    pub fn two_input() -> Self {
        DesignFlow {
            weights: WeightSet::table_iii_two_input(),
            arx_na: 1,
            direct_feedthrough: false,
            integral_weight: 0.05,
            process_fraction: 0.3,
            input_weight_scale: 3e5,
            segment_epochs: 700,
            guardband_multiplier: 3.0,
            rsa_grid: 128,
            max_redesigns: 8,
            seed: 20160618, // ISCA 2016
        }
    }

    /// The three-input design of §VI-D (adds the ROB), reusing every other
    /// decision.
    pub fn three_input() -> Self {
        DesignFlow {
            weights: WeightSet::table_iii_three_input(),
            ..Self::two_input()
        }
    }

    /// Overrides the weight set (Table V studies).
    pub fn with_weights(mut self, weights: WeightSet) -> Self {
        self.weights = weights;
        self
    }

    /// Overrides the ARX output order (Figure 7 dimension sweep).
    pub fn with_arx_na(mut self, na: usize) -> Self {
        self.arx_na = na;
        self
    }

    /// Builds the excitation waveform for a plant's grids.
    pub fn excitation_for<P: Plant + ?Sized>(&self, plant: &P, seed: u64) -> Excitation {
        let grids = plant.input_grids();
        let lo: Vec<f64> = grids.iter().map(|g| g[0]).collect();
        let hi: Vec<f64> = grids
            .iter()
            .map(|g| *g.last().expect("nonempty grid"))
            .collect();
        let levels: Vec<usize> = grids.iter().map(Vec::len).collect();
        identification_waveform(self.segment_epochs, &lo, &hi, &levels, seed)
    }

    /// Identification + synthesis against one training plant.
    ///
    /// # Errors
    ///
    /// Propagates identification and synthesis failures; returns
    /// [`ControlError::DimensionMismatch`] if the weight set does not match
    /// the plant's input/output counts.
    pub fn run<P: Plant + ?Sized>(&self, plant: &mut P) -> Result<DesignResult> {
        self.run_multi(std::iter::once(plant))
    }

    /// Identification + synthesis over several training plants (the
    /// paper's four-application training set).
    ///
    /// # Errors
    ///
    /// As [`DesignFlow::run`].
    pub fn run_multi<'p, P, It>(&self, plants: It) -> Result<DesignResult>
    where
        P: Plant + ?Sized + 'p,
        It: IntoIterator<Item = &'p mut P>,
    {
        let mut data = IdentificationData::new(0, 0);
        let mut record_bounds: Vec<usize> = vec![0];
        let mut grids: Option<Vec<Vec<f64>>> = None;
        let mut n_inputs = 0;
        let mut n_outputs = 0;
        for (k, plant) in plants.into_iter().enumerate() {
            if grids.is_none() {
                grids = Some(plant.input_grids());
                n_inputs = plant.num_inputs();
                n_outputs = plant.num_outputs();
                data = IdentificationData::new(n_inputs, n_outputs);
                if self.weights.input.len() != n_inputs || self.weights.output.len() != n_outputs {
                    return Err(ControlError::DimensionMismatch {
                        what: format!(
                            "weight set '{}' has {}in/{}out for a {}in/{}out plant",
                            self.weights.label,
                            self.weights.input.len(),
                            self.weights.output.len(),
                            n_inputs,
                            n_outputs
                        ),
                    });
                }
            }
            plant.reset();
            let excitation = self.excitation_for(plant, self.seed.wrapping_add(k as u64));
            record_excitation(plant, &excitation, &mut data);
            record_bounds.push(data.len());
        }
        let grids = grids.ok_or(ControlError::DimensionMismatch {
            what: "no training plants supplied".into(),
        })?;

        // Scalers: inputs from the physical grids, outputs from the data.
        let ranges: Vec<(f64, f64)> = grids
            .iter()
            .map(|g| (g[0], *g.last().expect("nonempty")))
            .collect();
        let input_scaler = ChannelScaler::from_ranges(&ranges);
        let output_scaler = ChannelScaler::from_data(data.y.view());

        let training_samples = data.len();
        let IdentificationData {
            u: mut u_fit,
            y: mut y_fit,
        } = data;
        input_scaler.normalize_all(u_fit.view_mut());
        output_scaler.normalize_all(y_fit.view_mut());

        // Detrend each application's record separately: slow cross-app and
        // cross-phase output drift is not input-driven and would corrupt
        // the regression (see `remove_moving_mean`).
        for w in record_bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            remove_moving_mean(u_fit.range_mut(a..b), DETREND_WINDOW);
            remove_moving_mean(y_fit.range_mut(a..b), DETREND_WINDOW);
        }

        let orders = ArxOrders {
            na: self.arx_na,
            nb: 1,
            direct_feedthrough: self.direct_feedthrough,
        };
        let arx = ArxModel::fit(u_fit.view(), y_fit.view(), orders)?;
        let realization = to_state_space(&arx);
        let model = StateSpace::from(realization);
        let noise = estimate_noise(arx.residuals(), model.state_dim(), self.process_fraction)?;

        let design = LqgDesign {
            model: model.clone(),
            process_noise: noise.process,
            measurement_noise: noise.measurement,
            output_weights: self.weights.output.clone(),
            input_weights: self
                .weights
                .input
                .iter()
                .map(|w| w * self.input_weight_scale)
                .collect(),
            integral_weight: self.integral_weight,
            input_scaler,
            output_scaler,
            input_grids: grids,
        };
        let controller = design.build()?;
        Ok(DesignResult {
            flow: self.clone(),
            controller,
            model,
            orders,
            training_samples,
            n_inputs,
            n_outputs,
        })
    }

    /// The validation + uncertainty + RSA loop: measures model error on
    /// held-out plants, sets guardbands at `guardband_multiplier × error`,
    /// and de-escalates the integral weight (×0.4 per redesign, see
    /// [`DesignFlow::rsa_redesign`]) until the loop is robust.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ValidationFailed`] if no redesign within the
    /// budget passes RSA; propagates numerical failures.
    pub fn validate<'p, P, It>(
        &self,
        result: DesignResult,
        validation: It,
    ) -> Result<ValidatedDesign>
    where
        P: Plant + ?Sized + 'p,
        It: IntoIterator<Item = &'p mut P>,
    {
        let errors = self.measure_model_error(&result, validation)?;
        // Multiplicative-output uncertainty beyond 100% can never pass the
        // small-gain test for an integral-action loop (T(1) = I), so cap the
        // guardband below 1.
        let guardbands: Vec<f64> = errors
            .iter()
            .map(|e| (self.guardband_multiplier * e).clamp(0.05, 0.8))
            .collect();
        let mut validated = self.rsa_redesign(&result, &guardbands)?;
        validated.max_model_error_frac = errors;
        Ok(validated)
    }

    /// Measures the model's average relative prediction error (fraction,
    /// per output) on held-out plants — §VI-A2's validation step.
    ///
    /// The paper's uncertainty is the *average* prediction error over the
    /// whole execution ("consistently (i.e., on average) X% off"); windowed
    /// maxima would include phase-change transients and be far too
    /// pessimistic.
    ///
    /// # Errors
    ///
    /// Propagates comparison failures.
    pub fn measure_model_error<'p, P, It>(
        &self,
        result: &DesignResult,
        validation: It,
    ) -> Result<Vec<f64>>
    where
        P: Plant + ?Sized + 'p,
        It: IntoIterator<Item = &'p mut P>,
    {
        let design = result.controller.design();
        let mut max_err_frac = vec![0.0_f64; result.n_outputs];
        let x0 = Vector::zeros(result.model.state_dim());
        let mut data = IdentificationData::new(result.n_inputs, result.n_outputs);
        for (k, plant) in validation.into_iter().enumerate() {
            plant.reset();
            let excitation = self.excitation_for(plant, self.seed.wrapping_add(1000 + k as u64));
            data.clear();
            record_excitation(plant, &excitation, &mut data);
            design.input_scaler.normalize_all(data.u.view_mut());
            // Free-run the model on the validation inputs.
            let mut y_pred = result.model.simulate(&x0, data.u.view());
            // Compare in *physical* units — normalized coordinates are
            // centered on the training data and would wildly inflate the
            // relative error of a differently-behaved validation app.
            design.output_scaler.denormalize_all(y_pred.view_mut());
            // Skip the initial transient (the model starts at rest).
            let n = y_pred.len();
            let skip = 50.min(n / 4);
            let report = compare(data.y.range(skip..n), y_pred.range(skip..n), 20)?;
            for (o, &e) in report.mean_rel_error_pct.iter().enumerate() {
                max_err_frac[o] = max_err_frac[o].max(e / 100.0);
            }
        }
        Ok(max_err_frac)
    }

    /// The RSA loop for explicit guardbands: de-escalates the integral
    /// (tracking) weight — §IV-B4's "use lower Q weights relative to R
    /// weights, thereby making the system less ripply" — until the weighted
    /// small-gain peak clears its target. Because the loop has integral
    /// action, `T(1) = I`, so the weighted peak can never drop below the
    /// largest guardband; the target sits halfway between that floor and
    /// the stability bound of 1. Larger guardbands therefore yield more
    /// cautious (slower-converging) controllers — the Figure 8 tradeoff.
    ///
    /// A redesign rebuilds only the LQR gain: the Kalman filter and the
    /// steady-state solver do not depend on the integral weight. A probe
    /// that the budget still allows to be redesigned is swept only up to
    /// its first weighted gain above the target, which rejects it; so a
    /// non-finite response at a later frequency of a rejected probe is
    /// never computed and raises no error. The accepted probe, and the
    /// last one the budget allows, are swept in full.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ValidationFailed`] if the budget of
    /// `max_redesigns` de-escalations is exhausted, or if a guardband of
    /// 1.0 or more makes the test infeasible outright.
    pub fn rsa_redesign(
        &self,
        result: &DesignResult,
        guardbands: &[f64],
    ) -> Result<ValidatedDesign> {
        let floor = guardbands.iter().copied().fold(0.0_f64, f64::max);
        if floor >= 1.0 {
            return Err(ControlError::ValidationFailed {
                what: format!(
                    "guardband {floor:.2} >= 1 is infeasible for an integral-action loop"
                ),
            });
        }
        // Larger uncertainty must leave more stability slack: the margin
        // demanded scales with the guardband (and can never go below the
        // structural floor set by T(1) = I).
        let target_peak = (1.0 - 0.5 * floor).max(floor + 0.05);
        let mut controller = result.controller.clone();
        let mut redesigns = 0;
        let report = loop {
            // A probe that may still be redesigned is dropped at its first
            // weighted gain above the target; the last one the budget
            // allows is swept in full, so the report accepted or quoted in
            // the error is always a complete one.
            let bound = if redesigns < self.max_redesigns {
                target_peak
            } else {
                f64::INFINITY
            };
            let sweep =
                analyze_within(&result.model, &controller, guardbands, self.rsa_grid, bound)?;
            if let Sweep::Complete(report) = sweep {
                if report.robust && report.peak_weighted_gain <= target_peak {
                    break report;
                }
                if redesigns >= self.max_redesigns {
                    if report.robust {
                        // Robust but without the slack margin: accept.
                        break report;
                    }
                    return Err(ControlError::ValidationFailed {
                        what: format!(
                            "not robust after {redesigns} redesigns (peak weighted gain {:.3})",
                            report.peak_weighted_gain
                        ),
                    });
                }
            }
            controller =
                controller.with_integral_weight(controller.design().integral_weight * 0.4)?;
            redesigns += 1;
        };
        Ok(ValidatedDesign {
            controller,
            model: result.model.clone(),
            max_model_error_frac: Vec::new(),
            guardbands: guardbands.to_vec(),
            rsa: report,
            redesigns,
        })
    }
}

/// Output of the identification + synthesis stage.
#[derive(Debug, Clone)]
pub struct DesignResult {
    /// The flow configuration used.
    pub flow: DesignFlow,
    /// The synthesized (not yet RSA-validated) controller.
    pub controller: LqgController,
    /// The identified normalized model.
    pub model: StateSpace,
    /// ARX orders used.
    pub orders: ArxOrders,
    /// Total identification samples recorded.
    pub training_samples: usize,
    /// Plant input count.
    pub n_inputs: usize,
    /// Plant output count.
    pub n_outputs: usize,
}

impl DesignResult {
    /// Consumes the result, returning the controller.
    pub fn into_controller(self) -> LqgController {
        self.controller
    }
}

/// Output of the validation + RSA stage.
#[derive(Debug, Clone)]
pub struct ValidatedDesign {
    /// The final, robust controller.
    pub controller: LqgController,
    /// The identified model.
    pub model: StateSpace,
    /// Maximum observed model error per output (fraction).
    pub max_model_error_frac: Vec<f64>,
    /// The uncertainty guardbands used for RSA (fraction).
    pub guardbands: Vec<f64>,
    /// The final RSA report.
    pub rsa: RobustReport,
    /// How many integral-weight de-escalations (×0.4 each) were needed.
    pub redesigns: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_sim::{InputSet, ProcessorBuilder};

    fn training_plant(app: &str, seed: u64) -> mimo_sim::Processor {
        ProcessorBuilder::new()
            .app(app)
            .seed(seed)
            .input_set(InputSet::FreqCache)
            .build()
            .unwrap()
    }

    #[test]
    fn two_input_design_has_table_iii_dimension() {
        let mut plant = training_plant("namd", 1);
        let result = DesignFlow::two_input().run(&mut plant).unwrap();
        // na=1, O=2, I=2, strictly proper → dim 4 (Table III).
        assert_eq!(result.model.state_dim(), 4);
        assert_eq!(result.controller.num_inputs(), 2);
        assert_eq!(result.controller.num_outputs(), 2);
        assert!(result.training_samples > 1000);
    }

    #[test]
    fn identified_model_is_stable_and_has_positive_dc_gains() {
        let mut plant = training_plant("sjeng", 3);
        let result = DesignFlow::two_input().run(&mut plant).unwrap();
        assert!(result.model.spectral_radius().unwrap() < 1.0);
        let dc = result.model.dc_gain().unwrap();
        // Frequency (input 0) raises both IPS (output 0) and power (1).
        assert!(dc[(0, 0)] > 0.0, "freq→IPS gain {dc:?}");
        assert!(dc[(1, 0)] > 0.0, "freq→power gain {dc:?}");
        // Cache (input 1) raises power.
        assert!(dc[(1, 1)] > 0.0, "cache→power gain {dc:?}");
    }

    #[test]
    fn multi_app_training_works() {
        let mut p1 = training_plant("namd", 1);
        let mut p2 = training_plant("gobmk", 2);
        let plants: Vec<&mut mimo_sim::Processor> = vec![&mut p1, &mut p2];
        let result = DesignFlow::two_input().run_multi(plants).unwrap();
        assert!(result.training_samples > 3000);
    }

    #[test]
    fn weight_mismatch_rejected() {
        let mut plant = ProcessorBuilder::new()
            .app("namd")
            .input_set(InputSet::FreqCacheRob)
            .build()
            .unwrap();
        // Two-input weights on a three-input plant.
        assert!(matches!(
            DesignFlow::two_input().run(&mut plant),
            Err(ControlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn three_input_flow_matches_three_input_plant() {
        let mut plant = ProcessorBuilder::new()
            .app("namd")
            .seed(5)
            .input_set(InputSet::FreqCacheRob)
            .build()
            .unwrap();
        let result = DesignFlow::three_input().run(&mut plant).unwrap();
        assert_eq!(result.controller.num_inputs(), 3);
        // dim = na·O + I = 2 + 3 = 5.
        assert_eq!(result.model.state_dim(), 5);
    }

    #[test]
    fn validation_produces_guardbands_and_robust_design() {
        let mut train = training_plant("namd", 7);
        let flow = DesignFlow::two_input();
        let result = flow.run(&mut train).unwrap();
        let mut v1 = training_plant("h264ref", 8);
        let mut v2 = training_plant("tonto", 9);
        let validation: Vec<&mut mimo_sim::Processor> = vec![&mut v1, &mut v2];
        let validated = flow.validate(result, validation).unwrap();
        assert!(validated.rsa.robust);
        assert_eq!(validated.guardbands.len(), 2);
        for g in &validated.guardbands {
            assert!((0.05..=2.0).contains(g), "guardband {g}");
        }
        assert!(validated.rsa.nominal_radius < 1.0);
    }
}
