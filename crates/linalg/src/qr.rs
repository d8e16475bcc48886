//! Householder QR least squares.
//!
//! System identification (the paper's "least square solver for a dynamic
//! environment") reduces to overdetermined least-squares problems
//! `min ‖Φθ − Y‖`; [`ridge_least_squares`] solves them with the
//! numerically stable QR route rather than the normal equations.

use crate::{LinalgError, Matrix, Result};

/// A thin Householder QR factorization `A = Q * R` of an `m x n` matrix with
/// `m >= n`: `Q` is `m x n` with orthonormal columns and `R` is `n x n`
/// upper triangular.
struct QrDecomposition {
    /// The factored matrix in column-major order (entry `(i, j)` at
    /// `j·rows + i`): Householder vectors below the diagonal, R on and
    /// above it. Every reflector walks one contiguous column.
    qr: Vec<f64>,
    rows: usize,
    cols: usize,
    /// Scaling factors `tau` of the Householder reflectors.
    tau: Vec<f64>,
}

/// Applies the reflector `I − tau·v·vᵀ` (with `v[0] = 1` implied) to the
/// column segment `c`, both starting at the pivot row: the dot product and
/// the update run over the rows in row order.
fn reflect(v: &[f64], tau: f64, c: &mut [f64]) {
    let mut s = c[0];
    for (vi, ci) in v[1..].iter().zip(&c[1..]) {
        s += vi * ci;
    }
    s *= tau;
    c[0] -= s;
    for (vi, ci) in v[1..].iter().zip(&mut c[1..]) {
        *ci -= s * vi;
    }
}

/// Rejects an empty or wide shape before factoring.
fn check_shape(m: usize, n: usize) -> Result<()> {
    if m == 0 || n == 0 {
        return Err(LinalgError::EmptyInput);
    }
    if m < n {
        return Err(LinalgError::ShapeMismatch {
            op: "qr (needs rows >= cols)",
            lhs: (m, n),
            rhs: (n, n),
        });
    }
    Ok(())
}

impl QrDecomposition {
    /// Factors the column-major `m x n` matrix `qr` in place.
    fn factor(mut qr: Vec<f64>, m: usize, n: usize) -> Self {
        let mut tau = vec![0.0; n];
        for k in 0..n {
            let (done, rest) = qr.split_at_mut((k + 1) * m);
            // Column k from the pivot row down.
            let v = &mut done[k * m + k..];
            // Build the Householder reflector for column k.
            let mut norm2 = 0.0;
            for x in v.iter() {
                norm2 += x * x;
            }
            let norm = norm2.sqrt();
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = if v[0] >= 0.0 { -norm } else { norm };
            // v = x - alpha*e1, normalized so v[k] = 1.
            let v0 = v[0] - alpha;
            tau[k] = -v0 / alpha;
            for x in &mut v[1..] {
                *x /= v0;
            }
            v[0] = alpha;
            // Apply the reflector to the remaining columns.
            for col in rest.chunks_exact_mut(m) {
                reflect(v, tau[k], &mut col[k..]);
            }
        }
        QrDecomposition {
            qr,
            rows: m,
            cols: n,
            tau,
        }
    }

    /// Entry `(i, j)` of the factored storage.
    fn at(&self, i: usize, j: usize) -> f64 {
        self.qr[j * self.rows + i]
    }

    /// Column `k` of the factored storage from the diagonal down: the
    /// Householder vector, with `R`'s diagonal entry in place of its
    /// implied leading 1.
    fn reflector(&self, k: usize) -> &[f64] {
        &self.qr[k * self.rows + k..(k + 1) * self.rows]
    }

    /// Applies `Qᵀ` in place to the column-major `rows x p` buffer `b`
    /// (used by the least-squares solve).
    fn apply_qt(&self, b: &mut [f64]) {
        for k in 0..self.cols {
            if self.tau[k] == 0.0 {
                continue;
            }
            for col in b.chunks_exact_mut(self.rows) {
                reflect(self.reflector(k), self.tau[k], &mut col[k..]);
            }
        }
    }

    /// Solves the least-squares problem `min_X ‖A X − B‖_F` for a
    /// column-major right-hand side of `p` columns, which it overwrites
    /// with `Qᵀ B`. [`LinalgError::Singular`] if `A` is rank deficient to
    /// working precision.
    fn solve_col_major(&self, mut qtb: Vec<f64>, p: usize) -> Result<Matrix> {
        let (m, n) = (self.rows, self.cols);
        self.apply_qt(&mut qtb);
        // Back-substitute R x = (Qᵀ b)[0..n].
        let mut x = Matrix::zeros(n, p);
        let scale = self
            .qr
            .iter()
            .fold(0.0, |mx: f64, v| mx.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        for i in (0..n).rev() {
            let rii = self.at(i, i);
            if rii.abs() <= 1e-13 * scale {
                return Err(LinalgError::Singular);
            }
            for j in 0..p {
                let mut s = qtb[j * m + i];
                for k in (i + 1)..n {
                    s -= self.at(i, k) * x[(k, j)];
                }
                x[(i, j)] = s / rii;
            }
        }
        Ok(x)
    }
}

/// Solves `min_X ‖A X − B‖_F` with an optional Tikhonov (ridge) term
/// `lambda ‖X‖²`, by augmenting the regressor with `sqrt(lambda) I`.
///
/// Regularization keeps system identification well posed when excitation is
/// poor (e.g. an input that barely moves during a training run).
///
/// `A` is `rows x cols` and `B` is `rows x rhs_cols`, both written column
/// by column straight into the factor's column-major storage:
/// `fill_a(j, col)` writes column `j` of `A` and `fill_b(j, col)` column
/// `j` of `B`, each `rows` long. With `lambda > 0` the `sqrt(lambda) I`
/// rows and the matching zero rows of `B` follow each column, so no
/// stacked copy of either matrix is made.
///
/// # Errors
///
/// [`LinalgError::EmptyInput`] for an empty shape,
/// [`LinalgError::ShapeMismatch`] when the (augmented) `A` is wider than
/// tall, and [`LinalgError::Singular`] when it is rank deficient to
/// working precision.
///
/// # Example
///
/// ```
/// use mimo_linalg::qr::ridge_least_squares;
///
/// # fn main() -> Result<(), mimo_linalg::LinalgError> {
/// // Fit y = θ₀ + θ₁·x to three points on y = 1 + x: the fit is exact.
/// let (x, y) = ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]);
/// let theta = ridge_least_squares(
///     3,
///     2,
///     1,
///     0.0,
///     |j, col| {
///         for (c, xi) in col.iter_mut().zip(x) {
///             *c = if j == 0 { 1.0 } else { xi };
///         }
///     },
///     |_, col| col.copy_from_slice(&y),
/// )?;
/// assert!((theta[(0, 0)] - 1.0).abs() < 1e-12);
/// assert!((theta[(1, 0)] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn ridge_least_squares(
    rows: usize,
    cols: usize,
    rhs_cols: usize,
    lambda: f64,
    mut fill_a: impl FnMut(usize, &mut [f64]),
    mut fill_b: impl FnMut(usize, &mut [f64]),
) -> Result<Matrix> {
    let reg = if lambda > 0.0 { cols } else { 0 };
    let m = rows + reg;
    check_shape(m, cols)?;
    let root = lambda.sqrt();
    let mut a = vec![0.0; m * cols];
    for (j, col) in a.chunks_exact_mut(m).enumerate() {
        fill_a(j, &mut col[..rows]);
        for (i, x) in col[rows..].iter_mut().enumerate() {
            // The entries of `Matrix::identity(cols).scale(root)`.
            *x = (if i == j { 1.0 } else { 0.0 }) * root;
        }
    }
    let mut b = vec![0.0; m * rhs_cols];
    for (j, col) in b.chunks_exact_mut(m).enumerate() {
        fill_b(j, &mut col[..rows]);
    }
    QrDecomposition::factor(a, m, cols).solve_col_major(b, rhs_cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes column `j` of `m` into `col`.
    fn columns(m: &Matrix) -> impl FnMut(usize, &mut [f64]) + '_ {
        move |j, col| {
            for (i, x) in col.iter_mut().enumerate() {
                *x = m[(i, j)];
            }
        }
    }

    /// [`ridge_least_squares`] over the columns of `a` and `b`.
    fn ridge(a: &Matrix, b: &Matrix, lambda: f64) -> Result<Matrix> {
        ridge_least_squares(a.rows(), a.cols(), b.cols(), lambda, columns(a), columns(b))
    }

    #[test]
    fn least_squares_matches_exact_solution_for_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = Matrix::col(&[5.0, 10.0]);
        let x_qr = ridge(&a, &b, 0.0).unwrap();
        let x_lu = a.solve(&b).unwrap();
        assert!((&x_qr - &x_lu).max_abs() < 1e-12);
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_range() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = Matrix::col(&[0.0, 1.0, 1.5, 3.2]);
        let x = ridge(&a, &b, 0.0).unwrap();
        let r = &(&a * &x) - &b;
        // Normal equations: Aᵀ r = 0.
        let at_r = &a.transpose() * &r;
        assert!(at_r.max_abs() < 1e-12);
    }

    #[test]
    fn rejects_wide_matrices() {
        let (a, b) = (Matrix::zeros(2, 3), Matrix::zeros(2, 1));
        assert!(matches!(
            ridge(&a, &b, 0.0),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rank_deficient_reports_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let b = Matrix::col(&[1.0, 2.0, 3.0]);
        assert_eq!(ridge(&a, &b, 0.0).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn ridge_handles_rank_deficiency() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let b = Matrix::col(&[1.0, 2.0, 3.0]);
        let x = ridge(&a, &b, 1e-6).unwrap();
        assert!(x.all_finite());
        // The regularized solution should still nearly fit (system is consistent).
        let r = &(&a * &x) - &b;
        assert!(r.max_abs() < 1e-3);
    }
}
