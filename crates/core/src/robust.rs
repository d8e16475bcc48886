//! Robust Stability Analysis (RSA) — §IV-B4.
//!
//! "RSA checks whether a perturbation equal in magnitude to the
//! uncertainty, if coming at the worst time and in the worst manner, can
//! make the system unstable." We implement the standard small-gain test
//! for multiplicative *output* uncertainty: the true plant output is
//! `(I + Δ·W) y` with `‖Δ‖∞ ≤ 1` and `W = diag(guardbands)` (e.g. 50% for
//! IPS, 30% for power). The closed loop is robustly stable if
//!
//! ```text
//! ‖ W · T(z) ‖∞ < 1,   T = transfer from the output-injection point to y
//! ```
//!
//! `T` is assembled in state-space from the plant model and the full
//! controller (estimator + Δu feedback + integrator), and the H∞ norm is
//! evaluated on a dense unit-circle frequency grid — a documented
//! approximation of MATLAB's Robust Control Toolbox analysis. The grid is
//! one [`FrequencySweep`]: the closed-loop `A` is reduced to Hessenberg form
//! once per analysis, each frequency costs an O(n²) solve, and `W·T` is
//! `T` with its rows scaled by the guardbands rather than a second solve. A
//! NaN or infinite response fails the analysis
//! ([`ControlError::NonFiniteResponse`]) rather than passing it.
//!
//! The design flow's redesign ladder only needs to know whether a probe
//! clears its target peak, so it runs `analyze_within`: the same sweep,
//! stopped at the first frequency whose weighted gain exceeds the bound.

use mimo_linalg::complex::FrequencySweep;
use mimo_linalg::{eigen, CMatrix, Matrix};

use crate::lqg::LqgController;
use crate::ss::StateSpace;
use crate::{ControlError, Result};

/// Result of a robust stability analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustReport {
    /// Spectral radius of the nominal closed loop (must be < 1).
    pub nominal_radius: f64,
    /// Peak of `‖W T(e^{jω})‖₂` over the frequency grid.
    pub peak_weighted_gain: f64,
    /// Largest uniform multiplicative uncertainty the loop tolerates
    /// (`1 / ‖T‖∞` with unweighted outputs).
    pub uniform_margin: f64,
    /// Whether the loop passed the weighted small-gain test.
    pub robust: bool,
}

/// Assembles the closed loop of `plant` and `ctrl` with a disturbance
/// input `w` added to the *measured* output and the true output `y` as the
/// system output. States: `[x_plant; x̂; u_prev; q]`.
///
/// # Errors
///
/// Returns [`ControlError::ValidationFailed`] for plants with direct
/// feed-through (the analysis assumes strictly proper identified models)
/// and [`ControlError::DimensionMismatch`] if plant and controller
/// dimensions disagree.
pub fn assemble_closed_loop(plant: &StateSpace, ctrl: &LqgController) -> Result<StateSpace> {
    if plant.d().max_abs() > 1e-12 {
        return Err(ControlError::ValidationFailed {
            what: "RSA supports strictly proper plants (D = 0); identify without feed-through"
                .into(),
        });
    }
    let n = plant.state_dim();
    let i = plant.num_inputs();
    let o = plant.num_outputs();
    let cn = ctrl.model().state_dim();
    if ctrl.num_inputs() != i || ctrl.num_outputs() != o {
        return Err(ControlError::DimensionMismatch {
            what: format!(
                "controller is {}x{}, plant is {i}x{o}",
                ctrl.num_inputs(),
                ctrl.num_outputs()
            ),
        });
    }

    // Partition the LQR gain F over [x̂(cn); u_prev(i); q(o)].
    let f = ctrl.feedback_gain();
    let fx = f.block(0, 0, i, cn);
    let fu = f.block(0, cn, i, i);
    let fq = f.block(0, cn + i, i, o);
    let l = ctrl.kalman().gain().clone();

    let am = ctrl.model().a();
    let bm = ctrl.model().b();
    let cm = ctrl.model().c();
    let (ap, bp, cp) = (plant.a(), plant.b(), plant.c());

    // u = −Fx x̂ + (I − Fu) u_prev − Fq q.
    let i_minus_fu = &Matrix::identity(i) - &fu;
    let neg_fx = fx.scale(-1.0);
    let neg_fq = fq.scale(-1.0);

    let dim = n + cn + i + o;
    let mut a = Matrix::zeros(dim, dim);
    // Plant row: x+ = Ap x + Bp u.
    a.set_block(0, 0, ap);
    a.set_block(0, n, &(bp * &neg_fx));
    a.set_block(0, n + cn, &(bp * &i_minus_fu));
    a.set_block(0, n + cn + i, &(bp * &neg_fq));
    // Estimator row: x̂+ = L Cp x + (Am − Bm Fx − L Cm) x̂
    //                 + Bm (I − Fu) u_prev − Bm Fq q + L w.
    a.set_block(n, 0, &(&l * cp));
    let est = &(am - &(bm * &fx)) - &(&l * cm);
    a.set_block(n, n, &est);
    a.set_block(n, n + cn, &(bm * &i_minus_fu));
    a.set_block(n, n + cn + i, &(bm * &neg_fq));
    // Input-memory row: u_prev+ = u.
    a.set_block(n + cn, n, &neg_fx);
    a.set_block(n + cn, n + cn, &i_minus_fu);
    a.set_block(n + cn, n + cn + i, &neg_fq);
    // Integrator row: q+ = Cp x + q + w.
    a.set_block(n + cn + i, 0, cp);
    a.set_block(n + cn + i, n + cn + i, &Matrix::identity(o));

    // Disturbance input w enters the estimator (through L) and integrator.
    let mut b = Matrix::zeros(dim, o);
    b.set_block(n, 0, &l);
    b.set_block(n + cn + i, 0, &Matrix::identity(o));

    // Output: true plant output y = Cp x.
    let mut c = Matrix::zeros(o, dim);
    c.set_block(0, 0, cp);
    let d = Matrix::zeros(o, o);

    StateSpace::new(a, b, c, d)
}

/// Runs the robust stability analysis.
///
/// `guardbands` are the per-output relative uncertainty bounds (e.g.
/// `[0.5, 0.3]` for 50% IPS / 30% power); `n_grid` is the number of
/// frequency samples in `[0, π]`, at least 16 (the design flow uses
/// [`crate::design::DesignFlow::rsa_grid`] = 128).
///
/// # Errors
///
/// Propagates assembly and numerical failures, and returns
/// [`ControlError::NonFiniteResponse`] if a response or its largest
/// singular value is NaN or infinite; an unstable *nominal* loop reports
/// `robust = false` rather than erroring.
pub fn analyze(
    plant: &StateSpace,
    ctrl: &LqgController,
    guardbands: &[f64],
    n_grid: usize,
) -> Result<RobustReport> {
    match analyze_within(plant, ctrl, guardbands, n_grid, f64::INFINITY)? {
        Sweep::Complete(report) => Ok(report),
        Sweep::Exceeded { .. } => unreachable!("a finite gain never exceeds an infinite bound"),
    }
}

/// How far [`analyze_within`] swept.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Sweep {
    /// Every frequency was evaluated: the report [`analyze`] returns.
    Complete(RobustReport),
    /// The weighted gain at frequency number `swept` (counting from 1)
    /// exceeded the bound; the frequencies after it were not evaluated.
    Exceeded { swept: usize, gain: f64 },
}

/// [`analyze`] with an early exit: the sweep stops at the first frequency
/// whose weighted gain `‖W T‖₂` exceeds `bound`, because the peak can then
/// only end above it. Up to that frequency every operation is the one
/// [`analyze`] runs, in the same order, so an infinite bound returns its
/// report bit for bit. A NaN or infinite response at or before the
/// stopping frequency fails the same way; one after it is never computed.
///
/// # Errors
///
/// As [`analyze`].
pub(crate) fn analyze_within(
    plant: &StateSpace,
    ctrl: &LqgController,
    guardbands: &[f64],
    n_grid: usize,
    bound: f64,
) -> Result<Sweep> {
    let o = plant.num_outputs();
    if guardbands.len() != o {
        return Err(ControlError::DimensionMismatch {
            what: format!("{} guardbands for {o} outputs", guardbands.len()),
        });
    }
    let cl = assemble_closed_loop(plant, ctrl)?;
    let nominal_radius = eigen::spectral_radius(cl.a()).map_err(ControlError::Linalg)?;
    if nominal_radius >= 1.0 {
        return Ok(Sweep::Complete(RobustReport {
            nominal_radius,
            peak_weighted_gain: f64::INFINITY,
            uniform_margin: 0.0,
            robust: false,
        }));
    }
    // Unweighted T for the uniform margin, weighted W·T for the test.
    let mut sweep = FrequencySweep::new(cl.a(), cl.b(), cl.c(), cl.d())?;
    let mut weighted = CMatrix::zeros(o, o);
    let mut peak_t = 0.0_f64;
    let mut peak_wt = 0.0_f64;
    let n = n_grid.max(16);
    for k in 0..n {
        let omega = std::f64::consts::PI * k as f64 / (n - 1) as f64;
        let g = sweep.response(omega)?;
        g.scale_rows_into(guardbands, &mut weighted);
        peak_t = peak_t.max(finite_norm(g, omega)?);
        let gain = finite_norm(&weighted, omega)?;
        if gain > bound {
            return Ok(Sweep::Exceeded { swept: k + 1, gain });
        }
        peak_wt = peak_wt.max(gain);
    }
    Ok(Sweep::Complete(RobustReport {
        nominal_radius,
        peak_weighted_gain: peak_wt,
        uniform_margin: if peak_t > 0.0 {
            1.0 / peak_t
        } else {
            f64::INFINITY
        },
        robust: peak_wt < 1.0,
    }))
}

/// `σ_max(g)`, or [`ControlError::NonFiniteResponse`] if `g` or its norm
/// is NaN or infinite (`f64::max` would silently drop a NaN).
fn finite_norm(g: &CMatrix, omega: f64) -> Result<f64> {
    if g.all_finite() {
        let sigma = g.max_singular_value()?;
        if sigma.is_finite() {
            return Ok(sigma);
        }
    }
    Err(ControlError::NonFiniteResponse { omega })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lqg::LqgDesign;
    use mimo_sysid::scale::ChannelScaler;

    fn fine_grid() -> Vec<f64> {
        (0..201).map(|i| -1.0 + 0.01 * i as f64).collect()
    }

    fn plant_2x2() -> StateSpace {
        StateSpace::new(
            Matrix::diag(&[0.7, 0.6]),
            Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6]]),
            Matrix::identity(2),
            Matrix::zeros(2, 2),
        )
        .unwrap()
    }

    fn build_ctrl(input_weights: &[f64]) -> LqgController {
        LqgDesign {
            model: plant_2x2(),
            process_noise: Matrix::identity(2).scale(1e-4),
            measurement_noise: Matrix::identity(2).scale(1e-4),
            output_weights: vec![10.0, 10.0],
            input_weights: input_weights.to_vec(),
            integral_weight: 0.05,
            input_scaler: ChannelScaler::from_ranges(&[(-1.0, 1.0), (-1.0, 1.0)]),
            output_scaler: ChannelScaler::from_ranges(&[(-5.0, 5.0), (-5.0, 5.0)]),
            input_grids: vec![fine_grid(), fine_grid()],
        }
        .build()
        .unwrap()
    }

    #[test]
    fn nominal_loop_is_stable() {
        let ctrl = build_ctrl(&[0.1, 0.1]);
        let report = analyze(&plant_2x2(), &ctrl, &[0.3, 0.3], 64).unwrap();
        assert!(report.nominal_radius < 1.0);
        assert!(report.uniform_margin > 0.0);
    }

    #[test]
    fn cautious_design_is_more_robust() {
        // Higher input weights (more cautious control, §IV-B4's remedy)
        // should not shrink the stability margin.
        let aggressive = build_ctrl(&[0.001, 0.001]);
        let cautious = build_ctrl(&[1.0, 1.0]);
        let ra = analyze(&plant_2x2(), &aggressive, &[0.3, 0.3], 64).unwrap();
        let rc = analyze(&plant_2x2(), &cautious, &[0.3, 0.3], 64).unwrap();
        assert!(
            rc.uniform_margin >= ra.uniform_margin * 0.99,
            "cautious margin {} vs aggressive {}",
            rc.uniform_margin,
            ra.uniform_margin
        );
    }

    #[test]
    fn huge_guardbands_fail_the_test() {
        let ctrl = build_ctrl(&[0.1, 0.1]);
        let report = analyze(&plant_2x2(), &ctrl, &[50.0, 50.0], 64).unwrap();
        assert!(!report.robust, "50x uncertainty cannot be robust");
    }

    #[test]
    fn weighted_gain_scales_with_guardbands() {
        let ctrl = build_ctrl(&[0.1, 0.1]);
        let small = analyze(&plant_2x2(), &ctrl, &[0.1, 0.1], 64).unwrap();
        let large = analyze(&plant_2x2(), &ctrl, &[0.5, 0.5], 64).unwrap();
        assert!((large.peak_weighted_gain / small.peak_weighted_gain - 5.0).abs() < 0.2);
        // Uniform margin is guardband-independent.
        assert!((large.uniform_margin - small.uniform_margin).abs() < 1e-9);
    }

    #[test]
    fn non_finite_response_fails_closed() {
        let ctrl = build_ctrl(&[0.1, 0.1]);
        for bad in [f64::NAN, f64::INFINITY] {
            let err = analyze(&plant_2x2(), &ctrl, &[bad, 0.3], 32).unwrap_err();
            assert!(
                matches!(err, ControlError::NonFiniteResponse { omega } if omega == 0.0),
                "{err:?}"
            );
        }
        // A finite response whose norm overflows fails the same way.
        let err = analyze(&plant_2x2(), &ctrl, &[1e300, 0.3], 32).unwrap_err();
        assert!(
            matches!(err, ControlError::NonFiniteResponse { .. }),
            "{err:?}"
        );
        // One NaN entry in a response fails it, whatever its sign.
        let g = CMatrix::new(Matrix::from_rows(&[&[1.0, -f64::NAN]]), Matrix::zeros(1, 2)).unwrap();
        assert!(matches!(
            finite_norm(&g, 0.5),
            Err(ControlError::NonFiniteResponse { omega }) if omega == 0.5
        ));
    }

    #[test]
    fn an_unreached_bound_sweeps_the_whole_grid() {
        let ctrl = build_ctrl(&[0.1, 0.1]);
        let full = analyze(&plant_2x2(), &ctrl, &[0.3, 0.3], 64).unwrap();
        // No weighted gain exceeds its own peak, nor an infinite bound.
        for bound in [f64::INFINITY, full.peak_weighted_gain] {
            match analyze_within(&plant_2x2(), &ctrl, &[0.3, 0.3], 64, bound).unwrap() {
                Sweep::Complete(report) => {
                    assert_eq!(
                        report.peak_weighted_gain.to_bits(),
                        full.peak_weighted_gain.to_bits()
                    );
                    assert_eq!(
                        report.uniform_margin.to_bits(),
                        full.uniform_margin.to_bits()
                    );
                    assert_eq!(
                        report.nominal_radius.to_bits(),
                        full.nominal_radius.to_bits()
                    );
                    assert_eq!(report.robust, full.robust);
                }
                exceeded => panic!("bound {bound}: {exceeded:?}"),
            }
        }
    }

    #[test]
    fn a_bound_below_the_dc_gain_rejects_after_one_frequency() {
        let ctrl = build_ctrl(&[0.1, 0.1]);
        // T(1) = I under integral action, so the ω = 0 weighted gain is
        // the largest guardband, 0.3.
        let sweep = analyze_within(&plant_2x2(), &ctrl, &[0.3, 0.3], 64, 0.1).unwrap();
        match sweep {
            Sweep::Exceeded { swept, gain } => {
                assert_eq!(swept, 1);
                assert!(gain > 0.1, "{gain}");
            }
            complete => panic!("{complete:?}"),
        }
    }

    #[test]
    fn a_bounded_sweep_still_fails_closed_at_the_first_frequency() {
        let ctrl = build_ctrl(&[0.1, 0.1]);
        for bound in [0.0, 0.5, f64::INFINITY] {
            let err = analyze_within(&plant_2x2(), &ctrl, &[f64::NAN, 0.3], 32, bound).unwrap_err();
            assert!(
                matches!(err, ControlError::NonFiniteResponse { omega } if omega == 0.0),
                "bound {bound}: {err:?}"
            );
        }
    }

    #[test]
    fn guardband_count_checked() {
        let ctrl = build_ctrl(&[0.1, 0.1]);
        assert!(analyze(&plant_2x2(), &ctrl, &[0.3], 32).is_err());
    }

    #[test]
    fn feedthrough_plants_rejected() {
        let ctrl = build_ctrl(&[0.1, 0.1]);
        let plant_d = StateSpace::new(
            Matrix::diag(&[0.7, 0.6]),
            Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6]]),
            Matrix::identity(2),
            Matrix::identity(2), // D ≠ 0
        )
        .unwrap();
        assert!(matches!(
            assemble_closed_loop(&plant_d, &ctrl),
            Err(ControlError::ValidationFailed { .. })
        ));
    }

    #[test]
    fn closed_loop_dimensions() {
        let ctrl = build_ctrl(&[0.1, 0.1]);
        let cl = assemble_closed_loop(&plant_2x2(), &ctrl).unwrap();
        // plant(2) + estimator(2) + u_prev(2) + integrator(2).
        assert_eq!(cl.state_dim(), 8);
        assert_eq!(cl.num_inputs(), 2); // w
        assert_eq!(cl.num_outputs(), 2); // y
    }

    #[test]
    fn margin_predicts_actual_perturbation_tolerance() {
        // Simulate the closed loop with a static gain perturbation just
        // inside the uniform margin: it must remain stable.
        let ctrl = build_ctrl(&[0.1, 0.1]);
        let report = analyze(&plant_2x2(), &ctrl, &[0.3, 0.3], 128).unwrap();
        let delta = (report.uniform_margin * 0.5).min(0.45);
        // Perturbed plant: outputs scaled by (1 + delta).
        let p = plant_2x2();
        let perturbed = StateSpace::new(
            p.a().clone(),
            p.b().clone(),
            p.c().scale(1.0 + delta),
            p.d().clone(),
        )
        .unwrap();
        let mut c = ctrl.clone();
        c.set_reference(&mimo_linalg::Vector::from_slice(&[1.0, 1.0]));
        let out_scaler = c.design().output_scaler.clone();
        let in_scaler = c.design().input_scaler.clone();
        let mut x = mimo_linalg::Vector::zeros(2);
        let mut y_phys = out_scaler.denormalize(&mimo_linalg::Vector::zeros(2));
        let mut u = mimo_linalg::Vector::zeros(2);
        for _ in 0..1000 {
            c.step_into(&y_phys, &mut u);
            let (xn, y_norm) = perturbed.step(&x, &in_scaler.normalize(&u));
            x = xn;
            y_phys = out_scaler.denormalize(&y_norm);
            assert!(y_phys.all_finite());
        }
        assert!(
            x.norm_inf() < 100.0,
            "diverged under tolerated perturbation"
        );
    }
}
