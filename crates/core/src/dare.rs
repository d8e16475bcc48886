//! Discrete-time algebraic Riccati equation (DARE) solver.
//!
//! LQG synthesis reduces to two Riccati equations — one for the optimal
//! state-feedback gain and its dual for the steady-state Kalman filter.
//! MATLAB's `dlqr`/`kalman` hide this; here we solve
//!
//! ```text
//! P = AᵀPA − AᵀPB (R + BᵀPB)⁻¹ BᵀPA + Q
//! ```
//!
//! with the structure-preserving doubling algorithm (SDA), which converges
//! quadratically, falling back to the plain fixed-point iteration when
//! doubling hits a singular intermediate.

use mimo_linalg::lu::LuDecomposition;
use mimo_linalg::Matrix;

use crate::{ControlError, Result};

/// Convergence tolerance on the relative change of `P` between iterations.
const TOL: f64 = 1e-11;

/// Iteration budgets.
const MAX_DOUBLING: usize = 120;
const MAX_FIXED_POINT: usize = 20_000;

/// Solves the DARE `P = AᵀPA − AᵀPB(R + BᵀPB)⁻¹BᵀPA + Q`.
///
/// Requirements: `Q` symmetric positive semidefinite, `R` symmetric
/// positive definite, `(A, B)` stabilizable. The returned `P` is the
/// unique stabilizing solution (symmetric, PSD).
///
/// # Errors
///
/// * [`ControlError::DimensionMismatch`] — inconsistent shapes.
/// * [`ControlError::RiccatiDiverged`] — iteration failed to converge
///   (unstabilizable pair or indefinite weights).
///
/// # Example
///
/// ```
/// use mimo_core::dare::solve_dare;
/// use mimo_linalg::Matrix;
///
/// # fn main() -> Result<(), mimo_core::ControlError> {
/// // Scalar: a=1 (integrator), b=1, q=1, r=1 → p = (1+sqrt(5))/2 · … known.
/// let p = solve_dare(
///     &Matrix::from_rows(&[&[1.0]]),
///     &Matrix::from_rows(&[&[1.0]]),
///     &Matrix::from_rows(&[&[1.0]]),
///     &Matrix::from_rows(&[&[1.0]]),
/// )?;
/// // p solves p = p - p²/(1+p) + 1 → p² - p - 1 = 0 → golden ratio.
/// assert!((p[(0, 0)] - 1.618033988749895).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn solve_dare(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix) -> Result<Matrix> {
    check_dims(a, b, q, r)?;
    match solve_doubling(a, b, q, r) {
        Ok(p) => Ok(p),
        Err(_) => solve_fixed_point(a, b, q, r),
    }
}

fn check_dims(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix) -> Result<()> {
    let n = a.rows();
    let m = b.cols();
    if !a.is_square() || q.shape() != (n, n) || b.rows() != n || r.shape() != (m, m) {
        return Err(ControlError::DimensionMismatch {
            what: format!(
                "A {:?}, B {:?}, Q {:?}, R {:?}",
                a.shape(),
                b.shape(),
                q.shape(),
                r.shape()
            ),
        });
    }
    Ok(())
}

/// Structure-preserving doubling algorithm.
///
/// Iterates the triple `(Ak, Gk, Hk)` with
/// `A₀ = A`, `G₀ = B R⁻¹ Bᵀ`, `H₀ = Q`:
///
/// ```text
/// W   = I + Gk Hk
/// A⁺  = Ak W⁻¹ Ak
/// G⁺  = Gk + Ak W⁻¹ Gk Akᵀ
/// H⁺  = Hk + Akᵀ Hk W⁻¹ Ak
/// ```
///
/// `Hk` converges quadratically to the stabilizing solution.
fn solve_doubling(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix) -> Result<Matrix> {
    let n = a.rows();
    let r_inv_bt = r.solve(&b.transpose()).map_err(ControlError::Linalg)?;
    let mut gk = b * &r_inv_bt; // B R⁻¹ Bᵀ
    let mut ak = a.clone();
    let mut hk = q.clone();
    let eye = Matrix::identity(n);

    for it in 0..MAX_DOUBLING {
        let w = &eye + &(&gk * &hk);
        let diverged = |_| ControlError::RiccatiDiverged {
            iterations: it,
            residual: f64::NAN,
        };
        // One factorization of W serves both solves.
        let w_lu = LuDecomposition::new(&w).map_err(diverged)?;
        let w_inv_ak = w_lu.solve(&ak).map_err(diverged)?;
        let w_inv_g = w_lu.solve(&gk).map_err(diverged)?;
        let a_next = &ak * &w_inv_ak;
        let g_next = (&gk + &(&(&ak * &w_inv_g) * &ak.transpose())).symmetrize();
        let h_next = (&hk + &(&(&ak.transpose() * &hk) * &w_inv_ak)).symmetrize();

        let delta = (&h_next - &hk).max_abs();
        let scale = h_next.max_abs().max(1.0);
        hk = h_next;
        ak = a_next;
        gk = g_next;
        if !hk.all_finite() {
            return Err(ControlError::RiccatiDiverged {
                iterations: it,
                residual: f64::INFINITY,
            });
        }
        if delta <= TOL * scale {
            let p = hk.symmetrize();
            let resid = residual(a, b, q, r, &p)?;
            let rscale = p.max_abs().max(1.0);
            if resid <= 1e-6 * rscale {
                return Ok(p);
            }
            return Err(ControlError::RiccatiDiverged {
                iterations: it,
                residual: resid,
            });
        }
    }
    Err(ControlError::RiccatiDiverged {
        iterations: MAX_DOUBLING,
        residual: f64::NAN,
    })
}

/// Plain fixed-point iteration of the Riccati recursion (value iteration).
fn solve_fixed_point(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix) -> Result<Matrix> {
    let mut p = q.clone();
    for it in 0..MAX_FIXED_POINT {
        let next = riccati_step(a, b, q, r, &p)?;
        let delta = (&next - &p).max_abs();
        let scale = next.max_abs().max(1.0);
        p = next.symmetrize();
        if !p.all_finite() {
            return Err(ControlError::RiccatiDiverged {
                iterations: it,
                residual: f64::INFINITY,
            });
        }
        if delta <= TOL * scale {
            return Ok(p);
        }
    }
    let resid = residual(a, b, q, r, &p)?;
    Err(ControlError::RiccatiDiverged {
        iterations: MAX_FIXED_POINT,
        residual: resid,
    })
}

/// One application of the Riccati map.
fn riccati_step(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix, p: &Matrix) -> Result<Matrix> {
    let at_p = &a.transpose() * p;
    let at_p_a = &at_p * a;
    let at_p_b = &at_p * b;
    let r_plus = r + &(&(&b.transpose() * p) * b);
    let x = r_plus
        .solve(&at_p_b.transpose())
        .map_err(ControlError::Linalg)?; // (R+BᵀPB)⁻¹ BᵀPA
    Ok(&(&at_p_a - &(&at_p_b * &x)) + q)
}

/// DARE residual `‖P − f(P)‖∞`, used to verify solutions.
///
/// # Errors
///
/// Propagates linear-algebra failures from the Riccati map.
pub fn residual(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix, p: &Matrix) -> Result<f64> {
    Ok((&riccati_step(a, b, q, r, p)? - p).max_abs())
}

/// The LQR gain associated with a DARE solution:
/// `K = (R + BᵀPB)⁻¹ BᵀPA`, so that `u = −K x` is optimal.
///
/// # Errors
///
/// Propagates linear-algebra failures.
pub fn gain_from(a: &Matrix, b: &Matrix, r: &Matrix, p: &Matrix) -> Result<Matrix> {
    let bt_p = &b.transpose() * p;
    let r_plus = r + &(&bt_p * b);
    let rhs = &bt_p * a;
    r_plus.solve(&rhs).map_err(ControlError::Linalg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_linalg::eigen::spectral_radius;

    fn assert_dare_solution(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix, p: &Matrix) {
        let res = residual(a, b, q, r, p).unwrap();
        let scale = p.max_abs().max(1.0);
        assert!(res < 1e-8 * scale, "residual {res}");
        // Stabilizing: closed loop A − B K is Schur stable.
        let k = gain_from(a, b, r, p).unwrap();
        let acl = a - &(b * &k);
        let rho = spectral_radius(&acl).unwrap();
        assert!(rho < 1.0, "closed-loop spectral radius {rho}");
    }

    #[test]
    fn scalar_integrator_golden_ratio() {
        let a = Matrix::from_rows(&[&[1.0]]);
        let b = Matrix::from_rows(&[&[1.0]]);
        let q = Matrix::from_rows(&[&[1.0]]);
        let r = Matrix::from_rows(&[&[1.0]]);
        let p = solve_dare(&a, &b, &q, &r).unwrap();
        assert!((p[(0, 0)] - (1.0 + 5.0_f64.sqrt()) / 2.0).abs() < 1e-9);
        assert_dare_solution(&a, &b, &q, &r, &p);
    }

    #[test]
    fn stable_plant_cheap_control() {
        // Stable A with huge R: P ≈ solution of the Lyapunov equation.
        let a = Matrix::from_rows(&[&[0.5]]);
        let b = Matrix::from_rows(&[&[1.0]]);
        let q = Matrix::from_rows(&[&[1.0]]);
        let r = Matrix::from_rows(&[&[1e8]]);
        let p = solve_dare(&a, &b, &q, &r).unwrap();
        // Lyapunov: p = a²p + q → p = 1/(1-0.25) = 4/3.
        assert!((p[(0, 0)] - 4.0 / 3.0).abs() < 1e-4);
    }

    #[test]
    fn mimo_system() {
        let a = Matrix::from_rows(&[&[1.1, 0.3, 0.0], &[0.0, 0.9, 0.2], &[0.1, 0.0, 0.7]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5]]);
        let q = Matrix::diag(&[1.0, 2.0, 0.5]);
        let r = Matrix::diag(&[1.0, 3.0]);
        let p = solve_dare(&a, &b, &q, &r).unwrap();
        assert_dare_solution(&a, &b, &q, &r, &p);
        // P symmetric PSD: diagonal positive.
        for i in 0..3 {
            assert!(p[(i, i)] > 0.0);
            for j in 0..3 {
                assert!((p[(i, j)] - p[(j, i)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn unstable_mimo_gets_stabilized() {
        let a = Matrix::from_rows(&[&[1.5, 0.2], &[0.0, 1.2]]);
        let b = Matrix::from_rows(&[&[1.0], &[0.4]]);
        let q = Matrix::identity(2);
        let r = Matrix::from_rows(&[&[0.1]]);
        let p = solve_dare(&a, &b, &q, &r).unwrap();
        assert_dare_solution(&a, &b, &q, &r, &p);
    }

    #[test]
    fn zero_q_with_stable_a() {
        let a = Matrix::diag(&[0.3, -0.5]);
        let b = Matrix::from_fn(2, 1, |_, _| 1.0);
        let q = Matrix::zeros(2, 2);
        let r = Matrix::from_rows(&[&[1.0]]);
        let p = solve_dare(&a, &b, &q, &r).unwrap();
        // With no state cost and stable A, P = 0.
        assert!(p.max_abs() < 1e-8);
    }

    #[test]
    fn unstabilizable_pair_diverges() {
        // Unstable mode with no control authority.
        let a = Matrix::diag(&[2.0, 0.5]);
        let b = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let q = Matrix::identity(2);
        let r = Matrix::from_rows(&[&[1.0]]);
        assert!(matches!(
            solve_dare(&a, &b, &q, &r),
            Err(ControlError::RiccatiDiverged { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = Matrix::identity(2);
        let b = Matrix::zeros(3, 1);
        let q = Matrix::identity(2);
        let r = Matrix::identity(1);
        assert!(matches!(
            solve_dare(&a, &b, &q, &r),
            Err(ControlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn doubling_and_fixed_point_agree() {
        let a = Matrix::from_rows(&[&[0.95, 0.1], &[-0.05, 0.8]]);
        let b = Matrix::from_rows(&[&[0.5], &[1.0]]);
        let q = Matrix::diag(&[2.0, 1.0]);
        let r = Matrix::from_rows(&[&[0.5]]);
        let p1 = solve_doubling(&a, &b, &q, &r).unwrap();
        let p2 = solve_fixed_point(&a, &b, &q, &r).unwrap();
        assert!((&p1 - &p2).max_abs() < 1e-7);
    }

    #[test]
    fn heavier_state_cost_raises_p() {
        let a = Matrix::from_rows(&[&[0.9]]);
        let b = Matrix::from_rows(&[&[1.0]]);
        let r = Matrix::from_rows(&[&[1.0]]);
        let p1 = solve_dare(&a, &b, &Matrix::from_rows(&[&[1.0]]), &r).unwrap();
        let p10 = solve_dare(&a, &b, &Matrix::from_rows(&[&[10.0]]), &r).unwrap();
        assert!(p10[(0, 0)] > p1[(0, 0)]);
    }
}
