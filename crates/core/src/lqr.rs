//! Linear-quadratic regulator synthesis.
//!
//! Given the (possibly augmented) system `(A, B)` and the designer's cost
//! matrices, computes the optimal state-feedback gain `K` minimizing
//! `Σ xᵀQx + uᵀRu`, so `u = −Kx` stabilizes the loop — the Optimality,
//! Convergence, and Stability guarantees of §III-B come from exactly this
//! construction.

use mimo_linalg::{eigen, Matrix};

use crate::dare::{gain_from, solve_dare};
use crate::{ControlError, Result};

/// An LQR design result.
#[derive(Debug, Clone, PartialEq)]
pub struct LqrGain {
    /// The feedback gain `K` (`inputs x states`), for `u = −K x`.
    pub k: Matrix,
    /// The Riccati solution `P` (cost-to-go matrix).
    pub p: Matrix,
    /// Spectral radius of the closed loop `A − BK`.
    pub closed_loop_radius: f64,
}

/// Designs an LQR controller.
///
/// # Errors
///
/// * [`ControlError::BadWeights`] — `Q` or `R` is not a positive
///   (semi-)definite diagonal-dominant symmetric matrix (R must be strictly
///   positive definite).
/// * [`ControlError::RiccatiDiverged`] — `(A, B)` not stabilizable.
///
/// # Example
///
/// ```
/// use mimo_core::lqr::design_lqr;
/// use mimo_linalg::Matrix;
///
/// # fn main() -> Result<(), mimo_core::ControlError> {
/// let a = Matrix::from_rows(&[&[1.2]]); // unstable
/// let b = Matrix::from_rows(&[&[1.0]]);
/// let gain = design_lqr(&a, &b, &Matrix::identity(1), &Matrix::identity(1))?;
/// assert!(gain.closed_loop_radius < 1.0);
/// # Ok(())
/// # }
/// ```
pub fn design_lqr(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix) -> Result<LqrGain> {
    validate_weight(q, "Q", false)?;
    validate_weight(r, "R", true)?;
    let p = solve_dare(a, b, q, r)?;
    let k = gain_from(a, b, r, &p)?;
    let acl = a - &(b * &k);
    let closed_loop_radius = eigen::spectral_radius(&acl).map_err(ControlError::Linalg)?;
    if closed_loop_radius >= 1.0 {
        return Err(ControlError::ValidationFailed {
            what: format!("LQR closed loop not Schur stable (radius {closed_loop_radius:.4})"),
        });
    }
    Ok(LqrGain {
        k,
        p,
        closed_loop_radius,
    })
}

/// Checks that a weight matrix is symmetric with non-negative diagonal
/// (strictly positive when `strict`), and at least positive semidefinite in
/// the weak diagonal-dominance sense used for designer-supplied diagonals.
pub(crate) fn validate_weight(w: &Matrix, name: &str, strict: bool) -> Result<()> {
    if !w.is_square() {
        return Err(ControlError::BadWeights {
            what: format!("{name} must be square, got {:?}", w.shape()),
        });
    }
    let n = w.rows();
    let tol = 1e-9 * w.max_abs().max(1.0);
    for i in 0..n {
        let d = w[(i, i)];
        if d < 0.0 || (strict && d <= 0.0) || !d.is_finite() {
            return Err(ControlError::BadWeights {
                what: format!(
                    "{name}[{i},{i}] = {d} must be {}",
                    if strict { "positive" } else { "non-negative" }
                ),
            });
        }
        for j in 0..n {
            if (w[(i, j)] - w[(j, i)]).abs() > tol {
                return Err(ControlError::BadWeights {
                    what: format!("{name} must be symmetric"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_linalg::Vector;

    #[test]
    fn regulates_unstable_scalar() {
        let a = Matrix::from_rows(&[&[1.5]]);
        let b = Matrix::from_rows(&[&[1.0]]);
        let gain = design_lqr(&a, &b, &Matrix::identity(1), &Matrix::identity(1)).unwrap();
        // Simulate the closed loop from x0 = 1.
        let mut x = 1.0_f64;
        for _ in 0..50 {
            let u = -gain.k[(0, 0)] * x;
            x = 1.5 * x + u;
        }
        assert!(x.abs() < 1e-6, "state did not converge: {x}");
    }

    #[test]
    fn cheaper_control_acts_harder() {
        let a = Matrix::from_rows(&[&[1.1]]);
        let b = Matrix::from_rows(&[&[1.0]]);
        let q = Matrix::identity(1);
        let cheap = design_lqr(&a, &b, &q, &Matrix::from_rows(&[&[0.01]])).unwrap();
        let dear = design_lqr(&a, &b, &q, &Matrix::from_rows(&[&[100.0]])).unwrap();
        assert!(cheap.k[(0, 0)].abs() > dear.k[(0, 0)].abs());
        // Cheap control drives the closed loop closer to deadbeat.
        assert!(cheap.closed_loop_radius < dear.closed_loop_radius);
    }

    #[test]
    fn mimo_regulation_converges() {
        let a = Matrix::from_rows(&[&[1.05, 0.2], &[0.0, 0.95]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.3, 1.0]]);
        let q = Matrix::diag(&[1.0, 5.0]);
        let r = Matrix::diag(&[1.0, 2.0]);
        let gain = design_lqr(&a, &b, &q, &r).unwrap();
        assert!(gain.closed_loop_radius < 1.0);
        // State converges in simulation.
        let mut x = Vector::from_slice(&[2.0, -1.0]);
        for _ in 0..200 {
            let u = gain.k.mul_vec(&x).unwrap().scale(-1.0);
            x = &a.mul_vec(&x).unwrap() + &b.mul_vec(&u).unwrap();
        }
        assert!(x.norm_inf() < 1e-8, "{x:?}");
    }

    #[test]
    fn rejects_negative_weights() {
        let a = Matrix::identity(1);
        let b = Matrix::identity(1);
        assert!(matches!(
            design_lqr(&a, &b, &Matrix::from_rows(&[&[-1.0]]), &Matrix::identity(1)),
            Err(ControlError::BadWeights { .. })
        ));
        assert!(matches!(
            design_lqr(&a, &b, &Matrix::identity(1), &Matrix::zeros(1, 1)),
            Err(ControlError::BadWeights { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric_weights() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        let mut q = Matrix::identity(2);
        q[(0, 1)] = 0.5; // asymmetric
        assert!(matches!(
            design_lqr(&a, &b, &q, &Matrix::identity(2)),
            Err(ControlError::BadWeights { .. })
        ));
    }

    #[test]
    fn relative_weights_shift_effort_between_inputs() {
        // Two inputs with identical authority; the heavier-weighted one
        // should be used less (§IV-B2's input-weight semantics).
        let a = Matrix::from_rows(&[&[1.2]]);
        let b = Matrix::from_rows(&[&[1.0, 1.0]]);
        let q = Matrix::identity(1);
        let r = Matrix::diag(&[1.0, 100.0]);
        let gain = design_lqr(&a, &b, &q, &r).unwrap();
        assert!(
            gain.k[(0, 0)].abs() > 10.0 * gain.k[(1, 0)].abs(),
            "K = {:?}",
            gain.k
        );
    }
}
