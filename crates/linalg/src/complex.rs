//! Complex matrices for discrete-time frequency responses.
//!
//! Robust Stability Analysis evaluates transfer matrices on the unit circle:
//! `G(e^{jw}) = C (e^{jw} I − A)⁻¹ B + D`. We represent a complex matrix as
//! a `(re, im)` pair of real matrices and route inversions and singular
//! values through the standard real 2n-dimensional embedding
//! `[[Re, −Im], [Im, Re]]`, whose singular values are those of the complex
//! matrix with doubled multiplicity.

use crate::{LinalgError, Matrix, Result};

/// A dense complex matrix stored as separate real and imaginary parts.
///
/// # Example
///
/// ```
/// use mimo_linalg::{CMatrix, Matrix};
///
/// let i = CMatrix::identity(2);
/// let j = CMatrix::new(Matrix::zeros(2, 2), Matrix::identity(2)).unwrap();
/// // j * j = -I
/// let jj = j.mul(&j);
/// assert!((jj.re() - &Matrix::identity(2).scale(-1.0)).max_abs() < 1e-15);
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

    /// Creates a complex matrix with zero imaginary part.
    pub fn from_real(re: &Matrix) -> Self {
        let im = Matrix::zeros(re.rows(), re.cols());
        CMatrix { re: re.clone(), im }
    }

    /// The complex identity matrix.
    pub fn identity(n: usize) -> Self {
        CMatrix {
            re: Matrix::identity(n),
            im: Matrix::zeros(n, n),
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

    /// Complex matrix sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch (as matrix addition does).
    pub fn add(&self, rhs: &CMatrix) -> CMatrix {
        CMatrix {
            re: &self.re + &rhs.re,
            im: &self.im + &rhs.im,
        }
    }

    /// Complex matrix difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &CMatrix) -> CMatrix {
        CMatrix {
            re: &self.re - &rhs.re,
            im: &self.im - &rhs.im,
        }
    }

    /// Complex matrix product `(Re₁Re₂ − Im₁Im₂) + j(Re₁Im₂ + Im₁Re₂)`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ.
    pub fn mul(&self, rhs: &CMatrix) -> CMatrix {
        CMatrix {
            re: &(&self.re * &rhs.re) - &(&self.im * &rhs.im),
            im: &(&self.re * &rhs.im) + &(&self.im * &rhs.re),
        }
    }

    /// Multiplies by the complex scalar `a + jb`.
    pub fn scale(&self, a: f64, b: f64) -> CMatrix {
        CMatrix {
            re: &self.re.scale(a) - &self.im.scale(b),
            im: &self.re.scale(b) + &self.im.scale(a),
        }
    }

    /// The real `2m x 2n` embedding `[[Re, −Im], [Im, Re]]`.
    pub fn embed(&self) -> Matrix {
        let neg_im = self.im.scale(-1.0);
        Matrix::from_blocks(&[&[&self.re, &neg_im], &[&self.im, &self.re]])
    }

    /// Solves the complex linear system `self * X = B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if the matrix is rectangular,
    /// [`LinalgError::ShapeMismatch`] on an incompatible right-hand side, or
    /// [`LinalgError::Singular`] if the system is singular.
    pub fn solve(&self, b: &CMatrix) -> Result<CMatrix> {
        let (n, m) = self.shape();
        if n != m {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        if b.shape().0 != n {
            return Err(LinalgError::ShapeMismatch {
                op: "csolve",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        // Embed: [[Re,-Im],[Im,Re]] [Xre; Xim] = [Bre; Bim].
        let a_emb = self.embed();
        let b_emb = Matrix::vstack(&b.re, &b.im)?;
        let x_emb = a_emb.solve(&b_emb)?;
        let cols = b.shape().1;
        Ok(CMatrix {
            re: x_emb.block(0, 0, n, cols),
            im: x_emb.block(n, 0, n, cols),
        })
    }

    /// Largest singular value of the complex matrix.
    ///
    /// Computed on the real embedding, whose singular spectrum duplicates
    /// the complex one; the maximum is unchanged.
    ///
    /// # Errors
    ///
    /// Propagates SVD errors.
    pub fn max_singular_value(&self) -> Result<f64> {
        crate::svd::max_singular_value(&self.embed())
    }

    /// Entrywise modulus matrix `|self|`.
    pub fn modulus(&self) -> Matrix {
        Matrix::from_fn(self.re.rows(), self.re.cols(), |i, j| {
            self.re[(i, j)].hypot(self.im[(i, j)])
        })
    }

    /// Frobenius norm of the complex matrix.
    pub fn norm_fro(&self) -> f64 {
        (self.re.norm_fro().powi(2) + self.im.norm_fro().powi(2)).sqrt()
    }
}

/// Evaluates the discrete-time transfer matrix
/// `G(z) = C (zI − A)⁻¹ B + D` at `z = e^{jw}`.
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
    let n = a.rows();
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if b.rows() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "freq_response(A,B)",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if c.cols() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "freq_response(A,C)",
            lhs: a.shape(),
            rhs: c.shape(),
        });
    }
    let (zre, zim) = (omega.cos(), omega.sin());
    // zI - A
    let zi_a = CMatrix {
        re: &Matrix::identity(n).scale(zre) - a,
        im: Matrix::identity(n).scale(zim),
    };
    let b_c = CMatrix::from_real(b);
    let x = zi_a.solve(&b_c)?; // (zI-A)^{-1} B
    let c_c = CMatrix::from_real(c);
    let mut g = c_c.mul(&x);
    g.re += d;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_multiply_matches_scalar_arithmetic() {
        // (1+2j)(3+4j) = 3+4j+6j+8j² = -5 + 10j
        let a = CMatrix::new(Matrix::from_rows(&[&[1.0]]), Matrix::from_rows(&[&[2.0]])).unwrap();
        let b = CMatrix::new(Matrix::from_rows(&[&[3.0]]), Matrix::from_rows(&[&[4.0]])).unwrap();
        let p = a.mul(&b);
        assert!((p.re()[(0, 0)] + 5.0).abs() < 1e-15);
        assert!((p.im()[(0, 0)] - 10.0).abs() < 1e-15);
    }

    #[test]
    fn solve_matches_scalar_division() {
        // (2 + 2j) x = 4 → x = 4(2-2j)/8 = 1 - 1j
        let a = CMatrix::new(Matrix::from_rows(&[&[2.0]]), Matrix::from_rows(&[&[2.0]])).unwrap();
        let b = CMatrix::from_real(&Matrix::from_rows(&[&[4.0]]));
        let x = a.solve(&b).unwrap();
        assert!((x.re()[(0, 0)] - 1.0).abs() < 1e-14);
        assert!((x.im()[(0, 0)] + 1.0).abs() < 1e-14);
    }

    #[test]
    fn solve_then_multiply_round_trips() {
        let a = CMatrix::new(
            Matrix::from_rows(&[&[2.0, 1.0], &[0.5, 3.0]]),
            Matrix::from_rows(&[&[0.1, -0.3], &[0.2, 0.4]]),
        )
        .unwrap();
        let b = CMatrix::new(Matrix::col(&[1.0, 2.0]), Matrix::col(&[0.5, -1.0])).unwrap();
        let x = a.solve(&b).unwrap();
        let back = a.mul(&x);
        assert!(back.sub(&b).norm_fro() < 1e-12);
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
    fn scale_by_complex_scalar() {
        let m = CMatrix::identity(2);
        let s = m.scale(0.0, 1.0); // multiply by j
        assert_eq!(s.re().max_abs(), 0.0);
        assert!((s.im() - &Matrix::identity(2)).max_abs() < 1e-15);
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
