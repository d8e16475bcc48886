//! Bit-exact parity of the design flow on sample buffers with the flow it
//! replaced, one heap `Vector` per sample.
//!
//! The reference records each epoch through the allocating `Plant::apply`
//! into a `Vec<Vector>` and runs the old identification chain of
//! `mimo-sysid`'s `tests/reference/mod.rs` (excitation, scalers,
//! per-record detrending, row-major ridge QR, residual covariance,
//! free-run validation). Synthesis (`LqgDesign::build`) and the RSA loop
//! (`DesignFlow::rsa_redesign`) are the library's own on both sides. The
//! two-input and three-input MIMO designs (training and validation sets as
//! `mimo-exp`'s `setup::design_mimo` builds them) and the Decoupled pair
//! (`design_decoupled`) must agree bit for bit in the model, the noise
//! covariances, the output scaler, the gains F and L, the measured model
//! errors and the guardbands, at seeds 2016, 7 and 11.

mod common;
#[path = "../../sysid/tests/reference/mod.rs"]
mod reference;

use common::{mimo_flow, training, validation};
use mimo_core::decoupled::{design_decoupled, SisoView};
use mimo_core::design::{DesignFlow, DesignResult, ValidatedDesign};
use mimo_core::lqg::{LqgController, LqgDesign};
use mimo_core::ss::StateSpace;
use mimo_core::weights::WeightSet;
use mimo_linalg::{Matrix, Vector};
use mimo_sim::{InputSet, Plant, Processor};
use mimo_sysid::arx::ArxOrders;
use mimo_sysid::scale::ChannelScaler;
use reference::{bits, Scaler};

const DETREND_WINDOW: usize = 201;

/// The old `DesignFlow::excitation_for` + `record_excitation`: one
/// allocating `apply` per epoch.
fn record<P: Plant + ?Sized>(
    flow: &DesignFlow,
    plant: &mut P,
    seed: u64,
) -> (Vec<Vector>, Vec<Vector>) {
    let grids = plant.input_grids();
    let lo: Vec<f64> = grids.iter().map(|g| g[0]).collect();
    let hi: Vec<f64> = grids.iter().map(|g| *g.last().unwrap()).collect();
    let levels: Vec<usize> = grids.iter().map(Vec::len).collect();
    let u = reference::identification_waveform(flow.segment_epochs, &lo, &hi, &levels, seed);
    let y = u.iter().map(|u| plant.apply(u)).collect();
    (u, y)
}

fn input_ranges(grids: &[Vec<f64>]) -> Vec<(f64, f64)> {
    grids.iter().map(|g| (g[0], *g.last().unwrap())).collect()
}

/// The old `DesignFlow::run_multi`, returning the result and the
/// reference's output scaler.
fn reference_run_multi<P: Plant + ?Sized>(
    flow: &DesignFlow,
    plants: &mut [&mut P],
) -> (DesignResult, Scaler) {
    let (mut u, mut y) = (Vec::new(), Vec::new());
    let mut bounds = vec![0];
    let grids = plants[0].input_grids();
    for (k, plant) in plants.iter_mut().enumerate() {
        plant.reset();
        let (uk, yk) = record(flow, &mut **plant, flow.seed.wrapping_add(k as u64));
        u.extend(uk);
        y.extend(yk);
        bounds.push(u.len());
    }
    let ranges = input_ranges(&grids);
    let in_scaler = Scaler::from_ranges(&ranges);
    let out_scaler = Scaler::from_data(&y);
    let training_samples = u.len();
    in_scaler.normalize_all(&mut u);
    out_scaler.normalize_all(&mut y);
    for w in bounds.windows(2) {
        reference::remove_moving_mean(&mut u[w[0]..w[1]], DETREND_WINDOW);
        reference::remove_moving_mean(&mut y[w[0]..w[1]], DETREND_WINDOW);
    }
    let orders = ArxOrders {
        na: flow.arx_na,
        nb: 1,
        direct_feedthrough: flow.direct_feedthrough,
    };
    let arx = reference::arx_fit(&u, &y, orders, 1e-8);
    let model = StateSpace::from(reference::to_state_space(&arx));
    let (process, measurement, _) =
        reference::estimate_noise(&arx.residuals, model.state_dim(), flow.process_fraction);
    let design = LqgDesign {
        model: model.clone(),
        process_noise: process,
        measurement_noise: measurement,
        output_weights: flow.weights.output.clone(),
        input_weights: flow
            .weights
            .input
            .iter()
            .map(|w| w * flow.input_weight_scale)
            .collect(),
        integral_weight: flow.integral_weight,
        input_scaler: ChannelScaler::from_ranges(&ranges),
        output_scaler: ChannelScaler::new(out_scaler.offset.clone(), out_scaler.span.clone()),
        input_grids: grids,
    };
    let result = DesignResult {
        flow: flow.clone(),
        controller: design.build().unwrap(),
        model,
        orders,
        training_samples,
        n_inputs: u[0].len(),
        n_outputs: y[0].len(),
    };
    (result, out_scaler)
}

/// The old `DesignFlow::measure_model_error`.
fn reference_model_error(
    flow: &DesignFlow,
    result: &DesignResult,
    out_scaler: &Scaler,
    plants: &mut [Processor],
) -> Vec<f64> {
    let in_scaler = Scaler::from_ranges(&input_ranges(&plants[0].input_grids()));
    let m = &result.model;
    let mut max_err_frac = vec![0.0_f64; result.n_outputs];
    for (k, plant) in plants.iter_mut().enumerate() {
        plant.reset();
        let (mut u, y) = record(flow, plant, flow.seed.wrapping_add(1000 + k as u64));
        in_scaler.normalize_all(&mut u);
        let x0 = Vector::zeros(m.state_dim());
        let mut y_pred = reference::simulate((m.a(), m.b(), m.c(), m.d()), &x0, &u);
        out_scaler.denormalize_all(&mut y_pred);
        let skip = 50.min(y_pred.len() / 4);
        let report = reference::compare(&y[skip..], &y_pred[skip..], 20);
        for (o, &e) in report.mean_rel_error_pct.iter().enumerate() {
            max_err_frac[o] = max_err_frac[o].max(e / 100.0);
        }
    }
    max_err_frac
}

fn matrix_bits(m: &Matrix) -> Vec<u64> {
    bits(m.as_slice())
}

/// Asserts two synthesized controllers agree bit for bit.
fn same_controller(got: &LqgController, want: &LqgController, tag: &str) {
    let (g, w) = (got.design(), want.design());
    for (name, a, b) in [
        ("A", g.model.a(), w.model.a()),
        ("B", g.model.b(), w.model.b()),
        ("C", g.model.c(), w.model.c()),
        ("D", g.model.d(), w.model.d()),
        ("W", &g.process_noise, &w.process_noise),
        ("V", &g.measurement_noise, &w.measurement_noise),
        ("F", got.feedback_gain(), want.feedback_gain()),
        ("L", got.compiled().l(), want.compiled().l()),
    ] {
        assert_eq!(matrix_bits(a), matrix_bits(b), "{tag}: {name}");
    }
    assert_eq!(
        format!("{:?}", g.output_scaler),
        format!("{:?}", w.output_scaler),
        "{tag}: output scaler"
    );
    assert_eq!(g.integral_weight.to_bits(), w.integral_weight.to_bits());
}

fn same_validated(got: &ValidatedDesign, want: &ValidatedDesign, tag: &str) {
    same_controller(&got.controller, &want.controller, tag);
    assert_eq!(
        bits(&got.max_model_error_frac),
        bits(&want.max_model_error_frac),
        "{tag}: model error"
    );
    assert_eq!(bits(&got.guardbands), bits(&want.guardbands), "{tag}");
    assert_eq!(got.redesigns, want.redesigns, "{tag}: redesigns");
    assert_eq!(
        got.rsa.peak_weighted_gain.to_bits(),
        want.rsa.peak_weighted_gain.to_bits(),
        "{tag}: RSA peak"
    );
}

#[test]
fn mimo_designs_match_the_vector_flow() {
    for input_set in [InputSet::FreqCache, InputSet::FreqCacheRob] {
        for seed in [2016, 7, 11] {
            let tag = format!("{input_set:?} seed {seed}");
            let flow = mimo_flow(input_set, seed);

            let mut train = training(input_set, seed);
            let result = flow.run_multi(train.iter_mut()).unwrap();
            let mut val = validation(input_set, seed);
            let got = flow.validate(result, val.iter_mut()).unwrap();

            let mut train = training(input_set, seed);
            let mut refs: Vec<&mut Processor> = train.iter_mut().collect();
            let (result, out_scaler) = reference_run_multi(&flow, &mut refs);
            assert_eq!(result.training_samples, 12 * flow.segment_epochs);
            let mut val = validation(input_set, seed);
            let errors = reference_model_error(&flow, &result, &out_scaler, &mut val);
            let guardbands: Vec<f64> = errors
                .iter()
                .map(|e| (flow.guardband_multiplier * e).clamp(0.05, 0.8))
                .collect();
            let mut want = flow.rsa_redesign(&result, &guardbands).unwrap();
            want.max_model_error_frac = errors;

            same_validated(&got, &want, &tag);
        }
    }
}

#[test]
fn decoupled_designs_match_the_vector_flow() {
    for seed in [2016, 7, 11] {
        let mut plants = training(InputSet::FreqCache, seed);
        let got = design_decoupled(&mut plants, seed).unwrap();

        // `design_decoupled`'s two SISO flows, each over SISO views of
        // the training set with the other input pinned at its midrange.
        let mut plants = training(InputSet::FreqCache, seed);
        let pinned: Vec<f64> = plants[0]
            .input_grids()
            .iter()
            .map(|g| g[g.len() / 2])
            .collect();
        let loops = [
            ("SISO-cache-ips", 10.0, 0.0005, seed, 1, 0),
            ("SISO-freq-power", 10_000.0, 0.01, seed ^ 0x5151, 0, 1),
        ];
        for ((label, q, r, sd, input, output), got) in
            loops.into_iter().zip([got.ips_loop(), got.power_loop()])
        {
            let flow = DesignFlow {
                weights: WeightSet {
                    label: label.into(),
                    output: vec![q],
                    input: vec![r],
                },
                seed: sd,
                ..DesignFlow::two_input()
            };
            let mut views: Vec<SisoView<Processor>> = plants
                .iter_mut()
                .map(|p| SisoView::new(p, input, output, pinned.clone()))
                .collect();
            let mut refs: Vec<&mut SisoView<Processor>> = views.iter_mut().collect();
            let (want, _) = reference_run_multi(&flow, &mut refs);
            same_controller(got, &want.controller, &format!("seed {seed} {label}"));
        }
    }
}
