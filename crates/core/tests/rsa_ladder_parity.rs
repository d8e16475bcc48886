//! Bit-exact parity of the RSA redesign ladder with the loop it replaced.
//!
//! `DesignFlow::rsa_redesign` drops a probe that may still be redesigned
//! at its first weighted gain above the target, and a redesign rebuilds
//! only the LQR gain. The reference below is the old loop, kept literally:
//! a full `robust::analyze` of every probe and a whole `LqgDesign::build`
//! per redesign. Both ladders run from the same `DesignResult` and
//! guardbands (the design flow of `mimo-exp`'s `setup::design_mimo`) and
//! must agree bit for bit in the gains F and L, every `RobustReport` field
//! and the redesign count, or fail with the same error text.

mod common;

use mimo_core::design::{DesignFlow, DesignResult, ValidatedDesign};
use mimo_core::robust::{analyze, RobustReport};
use mimo_core::{ControlError, Result};
use mimo_linalg::Matrix;
use mimo_sim::InputSet;

use common::{mimo_flow, training, validation};

/// The old `DesignFlow::rsa_redesign`.
fn reference_ladder(
    flow: &DesignFlow,
    result: &DesignResult,
    guardbands: &[f64],
) -> Result<ValidatedDesign> {
    let floor = guardbands.iter().copied().fold(0.0_f64, f64::max);
    if floor >= 1.0 {
        return Err(ControlError::ValidationFailed {
            what: format!("guardband {floor:.2} >= 1 is infeasible for an integral-action loop"),
        });
    }
    let target_peak = (1.0 - 0.5 * floor).max(floor + 0.05);
    let mut controller = result.controller.clone();
    let mut report: RobustReport;
    let mut redesigns = 0;
    loop {
        report = analyze(&result.model, &controller, guardbands, flow.rsa_grid)?;
        if report.robust && report.peak_weighted_gain <= target_peak {
            break;
        }
        if redesigns >= flow.max_redesigns {
            if report.robust {
                break;
            }
            return Err(ControlError::ValidationFailed {
                what: format!(
                    "not robust after {redesigns} redesigns (peak weighted gain {:.3})",
                    report.peak_weighted_gain
                ),
            });
        }
        let mut d = controller.design().clone();
        d.integral_weight *= 0.4;
        controller = d.build()?;
        redesigns += 1;
    }
    Ok(ValidatedDesign {
        controller,
        model: result.model.clone(),
        max_model_error_frac: Vec::new(),
        guardbands: guardbands.to_vec(),
        rsa: report,
        redesigns,
    })
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn report_bits(r: &RobustReport) -> (u64, u64, u64, bool) {
    (
        r.nominal_radius.to_bits(),
        r.peak_weighted_gain.to_bits(),
        r.uniform_margin.to_bits(),
        r.robust,
    )
}

/// Asserts the two ladders ended the same way.
fn same_outcome(got: &Result<ValidatedDesign>, want: &Result<ValidatedDesign>, tag: &str) {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.redesigns, want.redesigns, "{tag}: redesigns");
            assert_eq!(
                report_bits(&got.rsa),
                report_bits(&want.rsa),
                "{tag}: report"
            );
            let (g, w) = (&got.controller, &want.controller);
            assert_eq!(bits(g.feedback_gain()), bits(w.feedback_gain()), "{tag}: F");
            assert_eq!(bits(g.compiled().l()), bits(w.compiled().l()), "{tag}: L");
            assert_eq!(
                g.design().integral_weight.to_bits(),
                w.design().integral_weight.to_bits(),
                "{tag}: integral weight"
            );
            assert_eq!(
                g.closed_loop_radius().to_bits(),
                w.closed_loop_radius().to_bits(),
                "{tag}: LQR radius"
            );
        }
        (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{tag}"),
        (got, want) => panic!(
            "{tag}: got {:?}, want {:?}",
            got.as_ref().map(|d| d.redesigns),
            want.as_ref().map(|d| d.redesigns)
        ),
    }
}

/// The identified design and the guardbands `DesignFlow::validate` sets.
fn design(input_set: InputSet, seed: u64) -> (DesignFlow, DesignResult, Vec<f64>) {
    let flow = mimo_flow(input_set, seed);
    let result = flow
        .run_multi(training(input_set, seed).iter_mut())
        .unwrap();
    let errors = flow
        .measure_model_error(&result, validation(input_set, seed).iter_mut())
        .unwrap();
    let guardbands = errors
        .iter()
        .map(|e| (flow.guardband_multiplier * e).clamp(0.05, 0.8))
        .collect();
    (flow, result, guardbands)
}

#[test]
fn ladder_matches_the_full_sweep_loop() {
    let cases = [
        (InputSet::FreqCache, 11, 0),
        (InputSet::FreqCache, 2016, 3),
        (InputSet::FreqCache, 17, 4),
        (InputSet::FreqCache, 19, 4),
        (InputSet::FreqCacheRob, 1, 4),
        (InputSet::FreqCacheRob, 2016, 3),
    ];
    for (input_set, seed, depth) in cases {
        let tag = format!("{input_set:?} seed {seed}");
        let (flow, result, guardbands) = design(input_set, seed);
        let got = flow.rsa_redesign(&result, &guardbands);
        let want = reference_ladder(&flow, &result, &guardbands);
        same_outcome(&got, &want, &tag);
        assert_eq!(got.unwrap().redesigns, depth, "{tag}: depth");
    }
}

#[test]
fn a_short_budget_ends_the_same_way() {
    // Four redesigns deep; every smaller budget ends at its last probe,
    // swept in full on both sides: accepted without the slack margin or,
    // under wider guardbands, rejected with the same error text.
    let (flow, result, guardbands) = design(InputSet::FreqCache, 17);
    for (guardbands, accepted) in [
        (guardbands, [true; 4]),
        (vec![0.9, 0.9], [false, false, false, true]),
    ] {
        for (max_redesigns, accepted) in accepted.into_iter().enumerate() {
            let flow = DesignFlow {
                max_redesigns,
                ..flow.clone()
            };
            let got = flow.rsa_redesign(&result, &guardbands);
            let want = reference_ladder(&flow, &result, &guardbands);
            let tag = format!("guardbands {guardbands:?}, max_redesigns {max_redesigns}");
            same_outcome(&got, &want, &tag);
            assert_eq!(got.is_ok(), accepted, "{tag}");
        }
    }
}
