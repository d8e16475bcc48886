//! LU decomposition with partial pivoting.
//!
//! Used throughout the workspace to solve the dense linear systems that
//! appear in Riccati iterations (`(R + BᵀPB)⁻¹`), Kalman gain computation,
//! and ARX least-squares normal equations.

use crate::{LinalgError, Matrix, Result};

/// Threshold below which a pivot is considered numerically zero, relative to
/// the largest entry of the original matrix. The frequency sweep in
/// [`crate::complex`] applies the same rule to its complex pivots.
pub(crate) const PIVOT_RTOL: f64 = 1e-13;

/// A partial-pivoting LU factorization `P * A = L * U`.
///
/// # Example
///
/// ```
/// use mimo_linalg::{lu::LuDecomposition, Matrix};
///
/// # fn main() -> Result<(), mimo_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = LuDecomposition::new(&a)?;
/// assert!((lu.determinant() - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row index now in row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0), used for the determinant.
    perm_sign: f64,
    /// Scale used for the singularity test.
    scale: f64,
}

impl LuDecomposition {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input,
    /// [`LinalgError::EmptyInput`] for a 0x0 matrix, and
    /// [`LinalgError::Singular`] if a pivot is numerically zero.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::EmptyInput);
        }
        let scale = a.max_abs().max(f64::MIN_POSITIVE);
        // Row-major `n x n`, entry `(i, j)` at `i·n + j`.
        let mut lu = a.as_slice().to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Find pivot.
            let mut p = k;
            let mut pmax = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax <= PIVOT_RTOL * scale {
                return Err(LinalgError::Singular);
            }
            // Rows `k` and below, each `n` long: the pivot row, then the
            // rows it eliminates.
            let (pivot_row, below) = lu[k * n..].split_at_mut(n);
            if p != k {
                pivot_row.swap_with_slice(&mut below[(p - k - 1) * n..][..n]);
                perm.swap(k, p);
                perm_sign = -perm_sign;
            }
            // Eliminate below the pivot.
            let pivot = pivot_row[k];
            for row in below.chunks_exact_mut(n) {
                let m = row[k] / pivot;
                row[k] = m;
                if m != 0.0 {
                    for (x, &v) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                        *x -= m * v;
                    }
                }
            }
        }

        Ok(LuDecomposition {
            lu: Matrix::from_vec(n, n, lu),
            perm,
            perm_sign,
            scale,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.dim() {
            det *= self.lu[(i, i)];
        }
        det
    }

    /// Solves `A * X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let m = b.cols();
        // Row-major `n x m`, each row of `x` updated from one whole row of
        // the pivot, entry by entry in the order of the loops over `k`.
        let mut x = vec![0.0; n * m];
        // Apply permutation to b.
        for (row, &p) in x.chunks_exact_mut(m).zip(&self.perm) {
            row.copy_from_slice(&b.as_slice()[p * m..][..m]);
        }
        // Forward substitution (L has implicit unit diagonal).
        for k in 0..n {
            let (done, rest) = x.split_at_mut((k + 1) * m);
            let xk = &done[k * m..];
            for (i, row) in (k + 1..n).zip(rest.chunks_exact_mut(m)) {
                let l = self.lu[(i, k)];
                if l != 0.0 {
                    for (x, &v) in row.iter_mut().zip(xk) {
                        *x -= l * v;
                    }
                }
            }
        }
        // Backward substitution.
        for k in (0..n).rev() {
            let pivot = self.lu[(k, k)];
            let (above, rest) = x.split_at_mut(k * m);
            let xk = &mut rest[..m];
            for v in xk.iter_mut() {
                *v /= pivot;
            }
            for (i, row) in above.chunks_exact_mut(m).enumerate() {
                let u = self.lu[(i, k)];
                if u != 0.0 {
                    for (x, &v) in row.iter_mut().zip(&*xk) {
                        *x -= u * v;
                    }
                }
            }
        }
        Ok(Matrix::from_vec(n, m, x))
    }

    /// Row permutation of the factorization: `perm()[i]` is the row of the
    /// original matrix (and of a right-hand side) that sits in row `i`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A * x = b` in place for one right-hand side that is already
    /// in pivot order (`x[i] = b[perm()[i]]` on entry, the solution on
    /// exit).
    ///
    /// Runs exactly the forward and backward loops of
    /// [`LuDecomposition::solve`] for a single column, zero-multiplier
    /// skips included, so the result is bit-identical to `solve`'s and no
    /// memory is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn substitute_in_place(&self, x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "substitute_in_place: length mismatch");
        // Forward substitution (L has implicit unit diagonal).
        for k in 0..n {
            let v = x[k];
            for (i, xi) in x.iter_mut().enumerate().skip(k + 1) {
                let l = self.lu[(i, k)];
                if l != 0.0 {
                    *xi -= l * v;
                }
            }
        }
        // Backward substitution.
        for k in (0..n).rev() {
            x[k] /= self.lu[(k, k)];
            let v = x[k];
            for (i, xi) in x[..k].iter_mut().enumerate() {
                let u = self.lu[(i, k)];
                if u != 0.0 {
                    *xi -= u * v;
                }
            }
        }
    }

    /// Computes the inverse of the original matrix.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`LuDecomposition::solve`].
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve(&Matrix::identity(self.dim()))
    }

    /// Largest-magnitude entry of the original matrix, retained for scaling.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
        (&(a * x) - b).max_abs()
    }

    #[test]
    fn solves_small_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[1.0, 3.0, 2.0], &[1.0, 0.0, 0.0]]);
        let b = Matrix::col(&[4.0, 5.0, 6.0]);
        let x = a.solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
        // Known solution: x = [6, 15, -23]
        assert!((x[(0, 0)] - 6.0).abs() < 1e-10);
        assert!((x[(1, 0)] - 15.0).abs() < 1e-10);
        assert!((x[(2, 0)] + 23.0).abs() < 1e-10);
    }

    #[test]
    fn determinant_matches_cofactor_expansion() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_of_permutation_has_correct_sign() {
        // Swapping two rows of I gives determinant -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(LuDecomposition::new(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        let a = Matrix::zeros(0, 0);
        assert_eq!(
            LuDecomposition::new(&a).unwrap_err(),
            LinalgError::EmptyInput
        );
    }

    #[test]
    fn inverse_of_diagonal() {
        let a = Matrix::diag(&[2.0, 4.0, 8.0]);
        let inv = a.inverse().unwrap();
        assert!((inv[(0, 0)] - 0.5).abs() < 1e-14);
        assert!((inv[(1, 1)] - 0.25).abs() < 1e-14);
        assert!((inv[(2, 2)] - 0.125).abs() < 1e-14);
    }

    #[test]
    fn solve_shape_mismatch() {
        let a = Matrix::identity(2);
        let lu = LuDecomposition::new(&a).unwrap();
        let b = Matrix::zeros(3, 1);
        assert!(matches!(
            lu.solve(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = Matrix::col(&[2.0, 3.0]);
        let x = a.solve(&b).unwrap();
        assert!((x[(0, 0)] - 3.0).abs() < 1e-14);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn substitute_in_place_matches_solve_bit_for_bit() {
        // A zero leading entry forces a row swap, and the zeros below the
        // pivots give zero multipliers in L and zero entries in U, so both
        // skip branches run. An infinite entry makes a skip observable:
        // without it, `0 · ∞` would turn its neighbours into NaN.
        let a = Matrix::from_rows(&[
            &[0.0, 2.0, 0.0, 1.0],
            &[3.0, 0.0, 0.0, 0.5],
            &[0.0, 0.0, 4.0, 0.0],
            &[1.5, 1.0, 0.0, 7.0],
        ]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert_ne!(lu.perm(), [0, 1, 2, 3], "the design must pivot");
        for b in [
            [1.0, -2.0, 3.5, 0.25],
            [0.0, 0.0, 1e-310, -0.0],
            [1e300, -1e300, 0.1, 0.2],
            [1.0, f64::INFINITY, 2.0, 3.0],
        ] {
            let want = lu.solve(&Matrix::col(&b)).unwrap();
            let mut x: Vec<f64> = lu.perm().iter().map(|&p| b[p]).collect();
            lu.substitute_in_place(&mut x);
            for i in 0..4 {
                assert_eq!(x[i].to_bits(), want[(i, 0)].to_bits(), "row {i} of {b:?}");
            }
        }
    }

    #[test]
    fn larger_random_like_system() {
        // Deterministic pseudo-random well-conditioned matrix.
        let n = 20;
        let a = Matrix::from_fn(n, n, |i, j| {
            let base = ((i * 31 + j * 17 + 7) % 97) as f64 / 97.0;
            if i == j {
                base + (n as f64)
            } else {
                base
            }
        });
        let xtrue = Matrix::from_fn(n, 2, |i, j| (i + j) as f64 / 3.0);
        let b = &a * &xtrue;
        let x = a.solve(&b).unwrap();
        assert!((&x - &xtrue).max_abs() < 1e-9);
    }
}
