//! Singular value decomposition via the one-sided Jacobi method.
//!
//! Robust Stability Analysis needs the largest singular value of
//! frequency-response matrices (the H∞ norm on a grid), and model
//! validation uses ranks and condition numbers. One-sided
//! Jacobi is compact, numerically excellent for the small matrices this
//! workspace produces, and needs no bidiagonalization machinery.

use crate::{LinalgError, Matrix, Result};

/// Maximum number of full Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 60;

/// A thin singular value decomposition `A = U * diag(s) * Vᵀ`.
///
/// For an `m x n` input with `m >= n`: `U` is `m x n` with orthonormal
/// columns, `s` has `n` non-negative entries in descending order, and `V`
/// is `n x n` orthogonal. Wide matrices are handled by transposing.
///
/// # Example
///
/// ```
/// use mimo_linalg::{svd::Svd, Matrix};
///
/// # fn main() -> Result<(), mimo_linalg::LinalgError> {
/// let a = Matrix::diag(&[3.0, 2.0]);
/// let svd = Svd::new(&a)?;
/// assert!((svd.singular_values()[0] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    u: Matrix,
    s: Vec<f64>,
    v: Matrix,
}

impl Svd {
    /// Computes the SVD of an arbitrary rectangular matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::EmptyInput`] for an empty matrix and
    /// [`LinalgError::NoConvergence`] if the Jacobi sweeps fail to converge.
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.is_empty() {
            return Err(LinalgError::EmptyInput);
        }
        if a.rows() >= a.cols() {
            let (u, s, v) = jacobi_svd(a)?;
            Ok(Svd { u, s, v })
        } else {
            let (u, s, v) = jacobi_svd(&a.transpose())?;
            // A = (Aᵀ)ᵀ = (U S Vᵀ)ᵀ = V S Uᵀ.
            Ok(Svd { u: v, s, v: u })
        }
    }

    /// The singular values, non-negative and descending.
    pub fn singular_values(&self) -> &[f64] {
        &self.s
    }

    /// Largest singular value (the spectral / operator-2 norm).
    pub fn norm2(&self) -> f64 {
        self.s.first().copied().unwrap_or(0.0)
    }

    /// The left factor `U`.
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// The right factor `V` (not transposed).
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Numerical rank with relative tolerance `rtol` (e.g. `1e-12`).
    pub fn rank(&self, rtol: f64) -> usize {
        let smax = self.norm2();
        if smax == 0.0 {
            return 0;
        }
        self.s.iter().filter(|&&s| s > rtol * smax).count()
    }

    /// Condition number `s_max / s_min`; `f64::INFINITY` if rank deficient.
    pub fn condition_number(&self) -> f64 {
        let smin = self.s.last().copied().unwrap_or(0.0);
        if smin == 0.0 {
            f64::INFINITY
        } else {
            self.norm2() / smin
        }
    }

    /// Reconstructs `U * diag(s) * Vᵀ` (mainly for tests and validation).
    pub fn reconstruct(&self) -> Matrix {
        let s = Matrix::diag(&self.s);
        &(&self.u * &s) * &self.v.transpose()
    }
}

/// One-sided Jacobi SVD for `m x n` with `m >= n`.
fn jacobi_svd(a: &Matrix) -> Result<(Matrix, Vec<f64>, Matrix)> {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    let mut u = a.clone(); // columns are rotated until mutually orthogonal
    let mut v = Matrix::identity(n);
    let eps = f64::EPSILON;
    let tol = 10.0 * m as f64 * eps;

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0_f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Compute the 2x2 Gram submatrix for columns p, q.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    app += up * up;
                    aqq += uq * uq;
                    apq += up * uq;
                }
                if apq.abs() <= tol * (app * aqq).sqrt() || apq == 0.0 {
                    continue;
                }
                off = off.max(apq.abs() / (app * aqq).sqrt().max(f64::MIN_POSITIVE));
                // Jacobi rotation that zeroes the (p,q) Gram entry.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    u[(i, p)] = c * up - s * uq;
                    u[(i, q)] = s * up + c * uq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if off < tol {
            converged = true;
            break;
        }
    }
    if !converged {
        // One more negligibility check: tiny matrices sometimes sit exactly
        // at the tolerance; verify orthogonality directly before failing.
        let gram = &u.transpose() * &u;
        let mut max_off = 0.0_f64;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let d = (gram[(i, i)] * gram[(j, j)]).sqrt().max(f64::MIN_POSITIVE);
                    max_off = max_off.max(gram[(i, j)].abs() / d);
                }
            }
        }
        if max_off > 1e-8 {
            return Err(LinalgError::NoConvergence {
                algorithm: "jacobi-svd",
                iterations: MAX_SWEEPS,
            });
        }
    }

    // Column norms are the singular values; normalize U.
    let mut order: Vec<usize> = (0..n).collect();
    let mut sigma = vec![0.0; n];
    for (j, s) in sigma.iter_mut().enumerate() {
        let mut norm2 = 0.0;
        for i in 0..m {
            norm2 += u[(i, j)] * u[(i, j)];
        }
        *s = norm2.sqrt();
    }
    // total_cmp: singular values are non-negative finite here, but a NaN
    // slipping through must not panic the sort.
    order.sort_by(|&i, &j| sigma[j].total_cmp(&sigma[i]));

    let mut u_sorted = Matrix::zeros(m, n);
    let mut v_sorted = Matrix::zeros(n, n);
    let mut s_sorted = vec![0.0; n];
    for (new_j, &old_j) in order.iter().enumerate() {
        let s = sigma[old_j];
        s_sorted[new_j] = s;
        let inv = if s > 0.0 { 1.0 / s } else { 0.0 };
        for i in 0..m {
            u_sorted[(i, new_j)] = u[(i, old_j)] * inv;
        }
        for i in 0..n {
            v_sorted[(i, new_j)] = v[(i, old_j)];
        }
    }
    Ok((u_sorted, s_sorted, v_sorted))
}

/// Largest singular value of a matrix — the induced 2-norm.
///
/// # Errors
///
/// Propagates errors from [`Svd::new`].
pub fn max_singular_value(a: &Matrix) -> Result<f64> {
    Ok(Svd::new(a)?.norm2())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_singular_values() {
        let a = Matrix::diag(&[1.0, -5.0, 3.0]);
        let svd = Svd::new(&a).unwrap();
        let s = svd.singular_values();
        assert_close(s[0], 5.0, 1e-12);
        assert_close(s[1], 3.0, 1e-12);
        assert_close(s[2], 1.0, 1e-12);
    }

    #[test]
    fn reconstruction_tall() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let svd = Svd::new(&a).unwrap();
        assert!((&svd.reconstruct() - &a).max_abs() < 1e-12);
    }

    #[test]
    fn reconstruction_wide() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let svd = Svd::new(&a).unwrap();
        assert!((&svd.reconstruct() - &a).max_abs() < 1e-12);
    }

    #[test]
    fn orthonormal_factors() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i * 7 + j * 5 + 3) % 13) as f64 - 6.0);
        let svd = Svd::new(&a).unwrap();
        let utu = &svd.u().transpose() * svd.u();
        let vtv = &svd.v().transpose() * svd.v();
        assert!((&utu - &Matrix::identity(3)).max_abs() < 1e-11);
        assert!((&vtv - &Matrix::identity(3)).max_abs() < 1e-11);
    }

    #[test]
    fn known_2x2() {
        // A = [[3,0],[4,5]]: singular values sqrt(45)=6.708…, sqrt(5)=2.236…
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 5.0]]);
        let s = Svd::new(&a).unwrap();
        assert_close(s.singular_values()[0], 45.0_f64.sqrt(), 1e-10);
        assert_close(s.singular_values()[1], 5.0_f64.sqrt(), 1e-10);
    }

    #[test]
    fn rank_detection() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(1e-10), 1);
        assert!(svd.condition_number().is_infinite() || svd.condition_number() > 1e12);
    }

    #[test]
    fn norm2_of_orthogonal_is_one() {
        let th: f64 = 0.35;
        let q = Matrix::from_rows(&[&[th.cos(), -th.sin()], &[th.sin(), th.cos()]]);
        assert_close(max_singular_value(&q).unwrap(), 1.0, 1e-12);
    }

    #[test]
    fn empty_is_error() {
        assert!(matches!(
            Svd::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::EmptyInput)
        ));
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(3, 2);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.norm2(), 0.0);
        assert_eq!(svd.rank(1e-12), 0);
    }

    #[test]
    fn singular_values_match_eigenvalues_of_gram() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0], &[0.0, 1.0]]);
        let svd = Svd::new(&a).unwrap();
        let gram = &a.transpose() * &a;
        let eigs = crate::eigen::eigenvalues(&gram).unwrap();
        let mut lam: Vec<f64> = eigs.iter().map(|c| c.re).collect();
        lam.sort_by(|x, y| y.partial_cmp(x).unwrap());
        for (s, l) in svd.singular_values().iter().zip(&lam) {
            assert_close(s * s, *l, 1e-9);
        }
    }
}
