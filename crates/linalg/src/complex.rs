//! Complex matrices for discrete-time frequency responses.
//!
//! Robust Stability Analysis evaluates transfer matrices on the unit circle:
//! `G(e^{jw}) = C (e^{jw} I − A)⁻¹ B + D`. We represent a complex matrix as
//! a `(re, im)` pair of real matrices. Its largest singular value comes
//! from a one-sided Jacobi iteration on the complex columns, the same
//! answer as the SVD of the real embedding `[[Re, −Im], [Im, Re]]` at a
//! quarter of the size.
//!
//! [`FrequencySweep`] evaluates `G` on a grid the standard way (Laub,
//! 1981): one Householder reduction of `A` to upper Hessenberg form
//! `H = QᵀAQ` per system, carrying `QᵀB` and `CQ`, then per frequency a
//! complex solve of `(zI − H) X = QᵀB` with pivoting between adjacent rows
//! only — O(n²) per frequency instead of a dense O(n³) factorization.
//! [`frequency_response`] is the one-frequency call of it.

use crate::eigen::reduce_to_hessenberg;
use crate::lu::PIVOT_RTOL;
use crate::{LinalgError, Matrix, Result};

/// A dense complex matrix stored as separate real and imaginary parts.
///
/// # Example
///
/// ```
/// use mimo_linalg::{CMatrix, Matrix};
///
/// // Entry (r, c) is re[(r, c)] + j·im[(r, c)]: here the row [3 + 4j, 1j].
/// let g = CMatrix::new(Matrix::from_rows(&[&[3.0, 0.0]]), Matrix::from_rows(&[&[4.0, 1.0]]))
///     .unwrap();
/// let m = g.modulus();
/// for c in 0..2 {
///     assert_eq!(m[(0, c)], g.re()[(0, c)].hypot(g.im()[(0, c)]));
/// }
/// // One row's largest singular value is its Euclidean length, √(25 + 1).
/// assert!((g.max_singular_value().unwrap() - 26f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    re: Matrix,
    im: Matrix,
}

impl CMatrix {
    /// Creates a complex matrix from real and imaginary parts.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the parts differ in shape.
    pub fn new(re: Matrix, im: Matrix) -> Result<Self> {
        if re.shape() != im.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "cmatrix_new",
                lhs: re.shape(),
                rhs: im.shape(),
            });
        }
        Ok(CMatrix { re, im })
    }

    /// The complex zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            re: Matrix::zeros(rows, cols),
            im: Matrix::zeros(rows, cols),
        }
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.re.shape()
    }

    /// Borrows the real part.
    pub fn re(&self) -> &Matrix {
        &self.re
    }

    /// Borrows the imaginary part.
    pub fn im(&self) -> &Matrix {
        &self.im
    }

    /// Largest singular value of the complex matrix.
    ///
    /// One-sided Jacobi on the complex columns (of the transpose, if the
    /// matrix is wide; transposing keeps the singular values). Each pair
    /// of columns is first phase-aligned so that its inner product is real
    /// and positive — a unitary column scaling, which keeps the singular
    /// values too — and then rotated exactly as [`crate::svd`] rotates real
    /// columns. This is the real embedding's answer at a quarter of its
    /// size.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::EmptyInput`] for an empty matrix and
    /// [`LinalgError::NoConvergence`] if the sweeps do not converge.
    pub fn max_singular_value(&self) -> Result<f64> {
        const MAX_SWEEPS: usize = 60;
        let (rows, cols) = self.shape();
        if rows == 0 || cols == 0 {
            return Err(LinalgError::EmptyInput);
        }
        // Column-major copies with at least as many rows (m) as columns (n).
        let (m, n) = (rows.max(cols), rows.min(cols));
        let at = |part: &Matrix, i: usize, j: usize| {
            if rows >= cols {
                part[(i, j)]
            } else {
                part[(j, i)]
            }
        };
        let mut xr: Vec<f64> = (0..n * m).map(|k| at(&self.re, k % m, k / m)).collect();
        let mut xi: Vec<f64> = (0..n * m).map(|k| at(&self.im, k % m, k / m)).collect();
        let tol = 10.0 * m as f64 * f64::EPSILON;
        let mut off = f64::INFINITY;
        for _sweep in 0..MAX_SWEEPS {
            off = 0.0;
            for p in 0..n {
                for q in (p + 1)..n {
                    let (head_r, tail_r) = xr.split_at_mut(q * m);
                    let (head_i, tail_i) = xi.split_at_mut(q * m);
                    let (pr, pi) = (
                        &mut head_r[p * m..(p + 1) * m],
                        &mut head_i[p * m..(p + 1) * m],
                    );
                    let (qr, qi) = (&mut tail_r[..m], &mut tail_i[..m]);
                    // Gram entries: |x_p|², |x_q|² and γ = x_pᴴ x_q.
                    let (mut app, mut aqq, mut gr, mut gi) = (0.0, 0.0, 0.0, 0.0);
                    for i in 0..m {
                        app += pr[i] * pr[i] + pi[i] * pi[i];
                        aqq += qr[i] * qr[i] + qi[i] * qi[i];
                        gr += pr[i] * qr[i] + pi[i] * qi[i];
                        gi += pr[i] * qi[i] - pi[i] * qr[i];
                    }
                    let apq = gr.hypot(gi);
                    if apq <= tol * (app * aqq).sqrt() || apq == 0.0 {
                        continue;
                    }
                    off = off.max(apq / (app * aqq).sqrt().max(f64::MIN_POSITIVE));
                    // x_q ← e^{−jφ} x_q makes x_pᴴ x_q = |γ|; then the real
                    // rotation that zeroes it.
                    let (er, ei) = (gr / apq, -gi / apq);
                    let zeta = (aqq - app) / (2.0 * apq);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for i in 0..m {
                        let (ur, ui) = (pr[i], pi[i]);
                        let (vr, vi) = (qr[i] * er - qi[i] * ei, qr[i] * ei + qi[i] * er);
                        pr[i] = c * ur - s * vr;
                        pi[i] = c * ui - s * vi;
                        qr[i] = s * ur + c * vr;
                        qi[i] = s * ui + c * vi;
                    }
                }
            }
            if off < tol {
                break;
            }
        }
        // As in `svd`: a matrix that sits at the tolerance is accepted if its
        // columns are orthogonal to 1e-8.
        if off >= tol && off > 1e-8 {
            return Err(LinalgError::NoConvergence {
                algorithm: "complex-jacobi",
                iterations: MAX_SWEEPS,
            });
        }
        // total_cmp, as in `svd`: a NaN column norm comes out as the norm.
        Ok(xr
            .chunks_exact(m)
            .zip(xi.chunks_exact(m))
            .map(|(cr, ci)| {
                cr.iter()
                    .zip(ci)
                    .fold(0.0, |acc, (a, b)| acc + a * a + b * b)
                    .sqrt()
            })
            .max_by(f64::total_cmp)
            .unwrap_or(0.0))
    }

    /// Entrywise modulus matrix `|self|`.
    pub fn modulus(&self) -> Matrix {
        Matrix::from_fn(self.re.rows(), self.re.cols(), |i, j| {
            self.re[(i, j)].hypot(self.im[(i, j)])
        })
    }

    /// Whether every real and imaginary part is finite.
    pub fn all_finite(&self) -> bool {
        self.re.all_finite() && self.im.all_finite()
    }

    /// Writes `diag(w) · self` into `out` without allocating: row `i` is
    /// scaled by `w[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `w` has not one entry per row or `out` differs in shape.
    pub fn scale_rows_into(&self, w: &[f64], out: &mut CMatrix) {
        let (rows, cols) = self.shape();
        assert_eq!(w.len(), rows, "one weight per row");
        assert_eq!(out.shape(), (rows, cols), "output shape");
        for (i, &wi) in w.iter().enumerate() {
            for j in 0..cols {
                out.re[(i, j)] = wi * self.re[(i, j)];
                out.im[(i, j)] = wi * self.im[(i, j)];
            }
        }
    }
}

/// Evaluates `G(z) = C (zI − A)⁻¹ B + D` at many points `z = e^{jw}` of
/// the unit circle for one system.
///
/// [`FrequencySweep::new`] reduces `A` to upper Hessenberg form `H = QᵀAQ`
/// once, with `B' = QᵀB` and `C' = CQ`, so that
/// `G(z) = C' (zI − H)⁻¹ B' + D`. [`FrequencySweep::response`] then solves
/// `(zI − H) X = B'` in complex arithmetic by Gaussian elimination that
/// pivots between adjacent rows only (the one subdiagonal entry per column
/// is all there is to eliminate), in a workspace allocated once. A pivot is
/// numerically zero by the rule of [`crate::lu::LuDecomposition`]: modulus
/// at most `1e-13 × max|zI − A|`.
///
/// # Example
///
/// ```
/// use mimo_linalg::{complex::FrequencySweep, Matrix};
///
/// // G(z) = 1/(z − 0.5): |G(1)| = 2, |G(−1)| = 1/1.5.
/// let a = Matrix::from_rows(&[&[0.5]]);
/// let (b, c, d) = (Matrix::identity(1), Matrix::identity(1), Matrix::zeros(1, 1));
/// let mut sweep = FrequencySweep::new(&a, &b, &c, &d).unwrap();
/// assert!((sweep.response(0.0).unwrap().modulus()[(0, 0)] - 2.0).abs() < 1e-12);
/// let g = sweep.response(std::f64::consts::PI).unwrap();
/// assert!((g.modulus()[(0, 0)] - 1.0 / 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FrequencySweep {
    /// `QᵀAQ`, upper Hessenberg.
    h: Matrix,
    /// `QᵀB`.
    b: Matrix,
    /// `CQ`.
    c: Matrix,
    d: Matrix,
    /// Diagonal of the original `A`, for the pivot scale `max|zI − A|`.
    a_diag: Vec<f64>,
    /// Largest off-diagonal modulus of the original `A`.
    a_off_max: f64,
    /// `zI − H`, row-major, eliminated in place per frequency.
    m_re: Vec<f64>,
    m_im: Vec<f64>,
    /// The right-hand side `B'`, overwritten by the solution `X`; column
    /// `j` is the `n` entries from `j·n`.
    x_re: Vec<f64>,
    x_im: Vec<f64>,
    g: CMatrix,
}

impl FrequencySweep {
    /// Reduces the system `(A, B, C, D)` for evaluation on the unit circle.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `A` is rectangular and
    /// [`LinalgError::ShapeMismatch`] if `B`, `C` or `D` does not fit it.
    pub fn new(a: &Matrix, b: &Matrix, c: &Matrix, d: &Matrix) -> Result<Self> {
        let n = a.rows();
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let mismatch = |op: &'static str, rhs: &Matrix| LinalgError::ShapeMismatch {
            op,
            lhs: a.shape(),
            rhs: rhs.shape(),
        };
        if b.rows() != n {
            return Err(mismatch("freq_response(A,B)", b));
        }
        if c.cols() != n {
            return Err(mismatch("freq_response(A,C)", c));
        }
        if d.shape() != (c.rows(), b.cols()) {
            return Err(LinalgError::ShapeMismatch {
                op: "freq_response(C,B,D)",
                lhs: (c.rows(), b.cols()),
                rhs: d.shape(),
            });
        }
        let mut a_off_max = 0.0_f64;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    a_off_max = a_off_max.max(a[(i, j)].abs());
                }
            }
        }
        let (mut h, mut b_q, mut c_q) = (a.clone(), b.clone(), c.clone());
        reduce_to_hessenberg(&mut h, &mut b_q, &mut c_q);
        let rhs = n * b.cols();
        Ok(FrequencySweep {
            h,
            b: b_q,
            c: c_q,
            d: d.clone(),
            a_diag: (0..n).map(|i| a[(i, i)]).collect(),
            a_off_max,
            m_re: vec![0.0; n * n],
            m_im: vec![0.0; n * n],
            x_re: vec![0.0; rhs],
            x_im: vec![0.0; rhs],
            g: CMatrix::zeros(c.rows(), b.cols()),
        })
    }

    /// Evaluates `G(e^{jw})`. The result borrows the sweep's workspace and
    /// is overwritten by the next call.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when `e^{jw}` is (numerically) an
    /// eigenvalue of `A` — a pole on the unit circle.
    pub fn response(&mut self, omega: f64) -> Result<&CMatrix> {
        let n = self.h.rows();
        let (zre, zim) = (omega.cos(), omega.sin());
        // max|zI − A|, compared squared; only its last bit differs from
        // a hypot-based maximum, and it only sets the pivot tolerance.
        let diag_max2 = self.a_diag.iter().fold(0.0_f64, |s, &aii| {
            let dr = zre - aii;
            s.max(dr * dr + zim * zim)
        });
        let scale = self.a_off_max.max(diag_max2.sqrt()).max(f64::MIN_POSITIVE);
        let tol = PIVOT_RTOL * scale;

        // M = zI − H (upper Hessenberg: row i starts at column i − 1).
        let h = self.h.as_slice();
        let (mr, mi) = (&mut self.m_re, &mut self.m_im);
        for i in 0..n {
            let lo = i * n + i.saturating_sub(1);
            for (dst, &src) in mr[lo..(i + 1) * n].iter_mut().zip(&h[lo..(i + 1) * n]) {
                *dst = -src;
            }
            mi[lo..(i + 1) * n].fill(0.0);
            mr[i * n + i] += zre;
            mi[i * n + i] = zim;
        }
        // X = B', one column of n entries per input.
        let (xr, xi) = (&mut self.x_re, &mut self.x_im);
        for (j, col) in xr.chunks_exact_mut(n.max(1)).enumerate() {
            for (i, x) in col.iter_mut().enumerate() {
                *x = self.b[(i, j)];
            }
        }
        xi.fill(0.0);

        // Forward elimination: column k has one entry below the diagonal.
        for k in 0..n {
            let (d, s) = (k * n + k, (k + 1) * n + k);
            if k + 1 < n && mr[s] * mr[s] + mi[s] * mi[s] > mr[d] * mr[d] + mi[d] * mi[d] {
                for part in [&mut *mr, &mut *mi] {
                    let (top, bot) = part.split_at_mut((k + 1) * n);
                    top[d..(k + 1) * n].swap_with_slice(&mut bot[k..n]);
                }
                for part in [&mut *xr, &mut *xi] {
                    for col in part.chunks_exact_mut(n) {
                        col.swap(k, k + 1);
                    }
                }
            }
            let (pr, pi) = (mr[d], mi[d]);
            if pr.abs().max(pi.abs()) <= tol && pr.hypot(pi) <= tol {
                return Err(LinalgError::Singular);
            }
            if k + 1 == n {
                break;
            }
            // l = M[k+1][k] / M[k][k]; row k+1 −= l · row k.
            let (sr, si) = (mr[s], mi[s]);
            let den = pr * pr + pi * pi;
            let (lr, li) = ((sr * pr + si * pi) / den, (si * pr - sr * pi) / den);
            if lr == 0.0 && li == 0.0 {
                continue;
            }
            let (r_top, r_bot) = mr.split_at_mut((k + 1) * n);
            let (i_top, i_bot) = mi.split_at_mut((k + 1) * n);
            let rows = r_top[d + 1..(k + 1) * n]
                .iter()
                .zip(&i_top[d + 1..(k + 1) * n])
                .zip(r_bot[k + 1..n].iter_mut().zip(&mut i_bot[k + 1..n]));
            for ((&ur, &ui), (vr, vi)) in rows {
                *vr -= lr * ur - li * ui;
                *vi -= lr * ui + li * ur;
            }
            for (cr, ci) in xr.chunks_exact_mut(n).zip(xi.chunks_exact_mut(n)) {
                let (ur, ui) = (cr[k], ci[k]);
                cr[k + 1] -= lr * ur - li * ui;
                ci[k + 1] -= lr * ui + li * ur;
            }
        }

        // Back substitution through the upper-triangular factor.
        for (cr, ci) in xr
            .chunks_exact_mut(n.max(1))
            .zip(xi.chunks_exact_mut(n.max(1)))
        {
            for k in (0..n).rev() {
                let (row_r, row_i) = (&mr[k * n..(k + 1) * n], &mi[k * n..(k + 1) * n]);
                let (mut sr, mut si) = (cr[k], ci[k]);
                let tail = row_r[k + 1..]
                    .iter()
                    .zip(&row_i[k + 1..])
                    .zip(cr[k + 1..].iter().zip(&ci[k + 1..]));
                for ((&ur, &ui), (&vr, &vi)) in tail {
                    sr -= ur * vr - ui * vi;
                    si -= ur * vi + ui * vr;
                }
                let (pr, pi) = (row_r[k], row_i[k]);
                let den = pr * pr + pi * pi;
                let (qr, qi) = (pr / den, -pi / den); // 1 / pivot
                cr[k] = sr * qr - si * qi;
                ci[k] = sr * qi + si * qr;
            }
        }

        // G = C' X + D.
        let (p, m) = self.g.shape();
        for r in 0..p {
            let c_row = self.c.row_slice(r);
            for j in 0..m {
                let (col_r, col_i) = (&xr[j * n..(j + 1) * n], &xi[j * n..(j + 1) * n]);
                let (mut gr, mut gi) = (self.d[(r, j)], 0.0);
                for ((&cl, &vr), &vi) in c_row.iter().zip(col_r).zip(col_i) {
                    gr += cl * vr;
                    gi += cl * vi;
                }
                self.g.re[(r, j)] = gr;
                self.g.im[(r, j)] = gi;
            }
        }
        Ok(&self.g)
    }
}

/// Evaluates the discrete-time transfer matrix
/// `G(z) = C (zI − A)⁻¹ B + D` at `z = e^{jw}` — a one-frequency
/// [`FrequencySweep`]. Sweeps over many frequencies should build the
/// sweep once instead.
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] when `e^{jw}` is an eigenvalue of `A`
/// (a pole exactly on the unit circle), and shape errors if the state-space
/// dimensions are inconsistent.
///
/// # Example
///
/// ```
/// use mimo_linalg::{complex, Matrix};
///
/// // Scalar system y(t+1) = 0.5 y(t) + u(t): G(z) = 1/(z - 0.5).
/// let a = Matrix::from_rows(&[&[0.5]]);
/// let b = Matrix::from_rows(&[&[1.0]]);
/// let c = Matrix::from_rows(&[&[1.0]]);
/// let d = Matrix::zeros(1, 1);
/// let g = complex::frequency_response(&a, &b, &c, &d, 0.0).unwrap();
/// // At w=0, z=1: G = 1/(1-0.5) = 2.
/// assert!((g.re()[(0, 0)] - 2.0).abs() < 1e-12);
/// ```
pub fn frequency_response(
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
    d: &Matrix,
    omega: f64,
) -> Result<CMatrix> {
    FrequencySweep::new(a, b, c, d)?.response(omega).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reuse_is_bit_identical_to_a_fresh_sweep() {
        // The workspace carries nothing from one frequency to the next.
        let a = Matrix::from_fn(5, 5, |i, j| 0.1 * ((3 * i + 5 * j) % 7) as f64 - 0.3);
        let b = Matrix::from_fn(5, 2, |i, j| (i + 2 * j) as f64 * 0.2 - 0.5);
        let c = Matrix::from_fn(3, 5, |i, j| if (i + j) % 2 == 0 { 1.0 } else { -0.4 });
        let d = Matrix::zeros(3, 2);
        let mut sweep = FrequencySweep::new(&a, &b, &c, &d).unwrap();
        for &w in &[0.0, 1.3, 2.9, 0.4] {
            let g = sweep.response(w).unwrap().clone();
            assert_eq!(g, frequency_response(&a, &b, &c, &d, w).unwrap());
        }
    }

    #[test]
    fn sweep_matches_the_inverse_of_a_triangular_system() {
        // A = [[0.5, 1], [0, -0.25]]: (zI − A)⁻¹ = [[1/(z−.5), 1/((z−.5)(z+.25))],
        // [0, 1/(z+.25)]]; with B = C = I, G is that inverse.
        let a = Matrix::from_rows(&[&[0.5, 1.0], &[0.0, -0.25]]);
        let i2 = Matrix::identity(2);
        let g = frequency_response(&a, &i2, &i2, &Matrix::zeros(2, 2), 0.0).unwrap();
        let want = [[2.0, 2.0 / 1.25], [0.0, 1.0 / 1.25]];
        for (r, row) in want.iter().enumerate() {
            for (k, &v) in row.iter().enumerate() {
                assert!((g.re()[(r, k)] - v).abs() < 1e-14);
                assert!(g.im()[(r, k)].abs() < 1e-14);
            }
        }
    }

    #[test]
    fn sweep_pivots_past_a_tiny_diagonal() {
        // At z = 1, zI − A has a 1e-10 pivot above a unit subdiagonal:
        // eliminating without the row swap would multiply by 1e10 and
        // lose the 0.8 below it.
        let a = Matrix::from_rows(&[&[1.0 - 1e-10, 1.0, 0.5], &[1.0, 0.2, 0.3], &[0.0, 0.4, 0.1]]);
        let i3 = Matrix::identity(3);
        let g = frequency_response(&a, &i3, &i3, &Matrix::zeros(3, 3), 0.0).unwrap();
        let want = (&i3 - &a).inverse().unwrap();
        assert!((g.re() - &want).max_abs() <= 1e-12 * want.max_abs());
        assert!(g.im().max_abs() <= 1e-12 * want.max_abs());
    }

    #[test]
    fn scale_rows_into_weights_each_output() {
        let g = CMatrix::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]),
            Matrix::from_rows(&[&[-1.0, 0.5], &[0.0, 2.0]]),
        )
        .unwrap();
        let mut out = CMatrix::zeros(2, 2);
        let w = [0.5, 0.3];
        g.scale_rows_into(&w, &mut out);
        for (r, &wr) in w.iter().enumerate() {
            for c in 0..2 {
                assert_eq!(out.re()[(r, c)], wr * g.re()[(r, c)]);
                assert_eq!(out.im()[(r, c)], wr * g.im()[(r, c)]);
            }
        }
        assert!(out.all_finite());
        g.scale_rows_into(&[f64::NAN, 1.0], &mut out);
        assert!(!out.all_finite());
    }

    #[test]
    fn mismatched_feedthrough_rejected() {
        let a = Matrix::zeros(2, 2);
        let (b, c) = (Matrix::zeros(2, 1), Matrix::zeros(3, 2));
        assert!(matches!(
            FrequencySweep::new(&a, &b, &c, &Matrix::zeros(1, 1)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn max_singular_value_matches_the_real_embedding() {
        for (rows, cols) in [(1, 1), (2, 2), (3, 2), (2, 3), (4, 4), (1, 3)] {
            let m = CMatrix::new(
                Matrix::from_fn(rows, cols, |i, j| ((3 * i + 7 * j + 1) % 5) as f64 - 2.2),
                Matrix::from_fn(rows, cols, |i, j| {
                    ((5 * i + 2 * j + 3) % 7) as f64 * 0.4 - 1.1
                }),
            )
            .unwrap();
            let neg_im = m.im().scale(-1.0);
            let embedded = Matrix::from_blocks(&[&[m.re(), &neg_im], &[m.im(), m.re()]]);
            let want = crate::svd::max_singular_value(&embedded).unwrap();
            let got = m.max_singular_value().unwrap();
            assert!(
                (got - want).abs() <= 1e-14 * want,
                "{rows}x{cols}: {got} vs {want}"
            );
        }
        assert_eq!(CMatrix::zeros(2, 2).max_singular_value().unwrap(), 0.0);
        assert!(matches!(
            CMatrix::zeros(0, 2).max_singular_value(),
            Err(LinalgError::EmptyInput)
        ));
    }

    #[test]
    fn max_singular_value_of_unitary_is_one() {
        // The complex scalar e^{j0.3} has modulus 1.
        let th: f64 = 0.3;
        let u = CMatrix::new(
            Matrix::from_rows(&[&[th.cos()]]),
            Matrix::from_rows(&[&[th.sin()]]),
        )
        .unwrap();
        assert!((u.max_singular_value().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_response_scalar_lag() {
        // G(z) = 1/(z-0.5); |G(e^{jπ})| = 1/1.5.
        let a = Matrix::from_rows(&[&[0.5]]);
        let b = Matrix::from_rows(&[&[1.0]]);
        let c = Matrix::from_rows(&[&[1.0]]);
        let d = Matrix::zeros(1, 1);
        let g = frequency_response(&a, &b, &c, &d, std::f64::consts::PI).unwrap();
        let modulus = g.modulus()[(0, 0)];
        assert!((modulus - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn feedthrough_only_system() {
        // A empty-ish (1x1 zero), C zero: G(z) = D.
        let a = Matrix::zeros(1, 1);
        let b = Matrix::zeros(1, 2);
        let c = Matrix::zeros(2, 1);
        let d = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let g = frequency_response(&a, &b, &c, &d, 1.0).unwrap();
        assert!((g.re() - &d).max_abs() < 1e-15);
        assert_eq!(g.im().max_abs(), 0.0);
    }

    #[test]
    fn mismatched_parts_rejected() {
        let r = Matrix::zeros(2, 2);
        let i = Matrix::zeros(2, 3);
        assert!(matches!(
            CMatrix::new(r, i),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn pole_on_unit_circle_is_singular() {
        // A = 1 has a pole at z=1: response at w=0 must fail.
        let a = Matrix::from_rows(&[&[1.0]]);
        let b = Matrix::from_rows(&[&[1.0]]);
        let c = Matrix::from_rows(&[&[1.0]]);
        let d = Matrix::zeros(1, 1);
        assert!(matches!(
            frequency_response(&a, &b, &c, &d, 0.0),
            Err(LinalgError::Singular)
        ));
    }

    #[test]
    fn mimo_frequency_response_shape() {
        let a = Matrix::diag(&[0.5, 0.2, -0.3]);
        let b = Matrix::from_fn(3, 2, |i, j| (i + j) as f64 * 0.1 + 0.1);
        let c = Matrix::from_fn(2, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        let d = Matrix::zeros(2, 2);
        let g = frequency_response(&a, &b, &c, &d, 0.7).unwrap();
        assert_eq!(g.shape(), (2, 2));
        assert!(g.max_singular_value().unwrap() > 0.0);
    }
}
