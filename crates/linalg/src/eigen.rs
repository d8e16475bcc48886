//! Eigenvalues of real square matrices.
//!
//! Stability of every feedback loop in this workspace reduces to an
//! eigenvalue question: a discrete-time system `x(t+1) = A x(t)` is stable
//! iff the spectral radius of `A` is below one. LQG synthesis validates the
//! closed loop this way, and Robust Stability Analysis needs eigenvalues of
//! perturbed closed-loop matrices.
//!
//! The implementation is the classical dense route: balance, reduce to upper
//! Hessenberg form with Householder reflectors, then run the shifted
//! (Francis double-shift) QR iteration with deflation until the matrix is
//! quasi-triangular, reading eigenvalues off the 1x1 and 2x2 diagonal
//! blocks.

use crate::{LinalgError, Matrix, Result};

/// A complex number represented as a `(re, im)` pair.
///
/// Only what the eigenvalue consumers need: magnitude and accessors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Modulus `sqrt(re² + im²)`, computed with `hypot` to avoid overflow.
    pub fn abs(&self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

/// Balances a square matrix by diagonal similarity transforms (radix-2
/// scaling), improving the accuracy of the subsequent QR iteration.
///
/// Returns the balanced matrix; eigenvalues are unchanged by similarity.
fn balance(a: &Matrix) -> Matrix {
    let n = a.rows();
    let mut m = a.clone();
    let radix: f64 = 2.0;
    let sqrdx = radix * radix;
    let mut done = false;
    let mut sweeps = 0;
    while !done && sweeps < 100 {
        done = true;
        sweeps += 1;
        for i in 0..n {
            let mut r = 0.0;
            let mut c = 0.0;
            for j in 0..n {
                if j != i {
                    c += m[(j, i)].abs();
                    r += m[(i, j)].abs();
                }
            }
            if c != 0.0 && r != 0.0 {
                let mut g = r / radix;
                let mut f = 1.0;
                let s = c + r;
                let mut c_scaled = c;
                while c_scaled < g {
                    f *= radix;
                    c_scaled *= sqrdx;
                }
                g = r * radix;
                while c_scaled > g {
                    f /= radix;
                    c_scaled /= sqrdx;
                }
                if (c_scaled + r) / f < 0.95 * s {
                    done = false;
                    let ginv = 1.0 / f;
                    for j in 0..n {
                        m[(i, j)] *= ginv;
                    }
                    for j in 0..n {
                        m[(j, i)] *= f;
                    }
                }
            }
        }
    }
    m
}

/// Reduces a square matrix to upper Hessenberg form by Householder
/// similarity transforms. Eigenvalues are preserved.
fn hessenberg(a: &Matrix) -> Matrix {
    let n = a.rows();
    let mut h = a.clone();
    reduce_to_hessenberg(&mut h, &mut Matrix::zeros(n, 0), &mut Matrix::zeros(0, n));
    h
}

/// Reduces `h` in place to upper Hessenberg form `QᵀHQ` by Householder
/// reflectors, carrying `b ← Qᵀb` and `c ← cQ` along, so that
/// `c (zI − H)⁻¹ b` keeps its value for every `z` (Laub's method for
/// frequency responses). `b` needs `h.rows()` rows and `c` `h.rows()`
/// columns; either may have no columns or rows.
pub(crate) fn reduce_to_hessenberg(h: &mut Matrix, b: &mut Matrix, c: &mut Matrix) {
    let n = h.rows();
    for k in 0..n.saturating_sub(2) {
        // Householder vector annihilating h[k+2.., k].
        let mut norm2 = 0.0;
        for i in (k + 1)..n {
            norm2 += h[(i, k)] * h[(i, k)];
        }
        let norm = norm2.sqrt();
        if norm == 0.0 {
            continue;
        }
        let alpha = if h[(k + 1, k)] >= 0.0 { -norm } else { norm };
        let v0 = h[(k + 1, k)] - alpha;
        if v0 == 0.0 {
            continue;
        }
        let mut v = vec![0.0; n];
        v[k + 1] = 1.0;
        for i in (k + 2)..n {
            v[i] = h[(i, k)] / v0;
        }
        let tau = -v0 / alpha;
        // H <- (I - tau v vᵀ) H, B <- (I - tau v vᵀ) B
        for m in [&mut *h, &mut *b] {
            for j in 0..m.cols() {
                let mut s = 0.0;
                for i in (k + 1)..n {
                    s += v[i] * m[(i, j)];
                }
                s *= tau;
                for i in (k + 1)..n {
                    m[(i, j)] -= s * v[i];
                }
            }
        }
        // H <- H (I - tau v vᵀ), C <- C (I - tau v vᵀ)
        for m in [&mut *h, &mut *c] {
            for i in 0..m.rows() {
                let mut s = 0.0;
                for j in (k + 1)..n {
                    s += m[(i, j)] * v[j];
                }
                s *= tau;
                for j in (k + 1)..n {
                    m[(i, j)] -= s * v[j];
                }
            }
        }
        // Enforce exact zeros below the subdiagonal in column k.
        for i in (k + 2)..n {
            h[(i, k)] = 0.0;
        }
    }
}

/// Computes all eigenvalues of a square matrix.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for rectangular input and
/// [`LinalgError::NoConvergence`] if the QR iteration stalls (essentially
/// never happens for finite input).
///
/// # Example
///
/// ```
/// use mimo_linalg::{eigen, Matrix};
///
/// // Rotation-by-90°-and-scale: eigenvalues are ±0.5i.
/// let a = Matrix::from_rows(&[&[0.0, -0.5], &[0.5, 0.0]]);
/// let eigs = eigen::eigenvalues(&a).unwrap();
/// assert!((eigs[0].abs() - 0.5).abs() < 1e-12);
/// ```
pub fn eigenvalues(a: &Matrix) -> Result<Vec<Complex>> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![Complex::new(a[(0, 0)], 0.0)]);
    }
    let balanced = balance(a);
    let mut h = hessenberg(&balanced);
    hqr_eigenvalues(&mut h)
}

/// Shifted QR iteration on an upper Hessenberg matrix (EISPACK `hqr`).
fn hqr_eigenvalues(h: &mut Matrix) -> Result<Vec<Complex>> {
    let n = h.rows();
    let mut eigs: Vec<Complex> = Vec::with_capacity(n);
    // Overall norm used in negligibility tests.
    let mut anorm = 0.0;
    for i in 0..n {
        for j in i.saturating_sub(1)..n {
            anorm += h[(i, j)].abs();
        }
    }
    if anorm == 0.0 {
        // The zero matrix: all eigenvalues are zero.
        return Ok(vec![Complex::default(); n]);
    }

    let mut nn = n as isize - 1; // index of the active trailing block
    let mut t = 0.0; // accumulated exceptional shifts
    let total_budget = 60 * n;
    let mut total_its = 0usize;

    while nn >= 0 {
        let mut its = 0;
        loop {
            // Find small subdiagonal element: l is start of active block.
            let mut l = nn;
            while l > 0 {
                let s = h[((l - 1) as usize, (l - 1) as usize)].abs()
                    + h[(l as usize, l as usize)].abs();
                let s = if s == 0.0 { anorm } else { s };
                if h[(l as usize, (l - 1) as usize)].abs() <= f64::EPSILON * s {
                    h[(l as usize, (l - 1) as usize)] = 0.0;
                    break;
                }
                l -= 1;
            }
            let x = h[(nn as usize, nn as usize)];
            if l == nn {
                // One root found.
                eigs.push(Complex::new(x + t, 0.0));
                nn -= 1;
                break;
            }
            let y = h[((nn - 1) as usize, (nn - 1) as usize)];
            let w = h[(nn as usize, (nn - 1) as usize)] * h[((nn - 1) as usize, nn as usize)];
            if l == nn - 1 {
                // Two roots found: solve the 2x2 block.
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let z = q.abs().sqrt();
                let x_shifted = x + t;
                if q >= 0.0 {
                    // Real pair.
                    let z_signed = p + z.copysign(p);
                    let r1 = x_shifted + z_signed;
                    let r2 = if z_signed != 0.0 {
                        x_shifted - w / z_signed
                    } else {
                        r1
                    };
                    eigs.push(Complex::new(r1, 0.0));
                    eigs.push(Complex::new(r2, 0.0));
                } else {
                    // Complex conjugate pair.
                    eigs.push(Complex::new(x_shifted + p, z));
                    eigs.push(Complex::new(x_shifted + p, -z));
                }
                nn -= 2;
                break;
            }
            // No root yet: perform a double-shift QR sweep.
            total_its += 1;
            if total_its > total_budget {
                return Err(LinalgError::NoConvergence {
                    algorithm: "francis-qr",
                    iterations: total_budget,
                });
            }
            let (mut p, mut q, mut r);
            let mut x = x;
            let mut y;
            let mut z;
            let mut w = w;
            if its == 10 || its == 20 {
                // Exceptional shift.
                t += x;
                for i in 0..=(nn as usize) {
                    h[(i, i)] -= x;
                }
                let s = h[(nn as usize, (nn - 1) as usize)].abs()
                    + h[((nn - 1) as usize, (nn - 2) as usize)].abs();
                x = 0.75 * s;
                y = x;
                w = -0.4375 * s * s;
            } else {
                y = h[((nn - 1) as usize, (nn - 1) as usize)];
            }
            its += 1;
            // Look for two consecutive small subdiagonal elements.
            let mut m = nn - 2;
            while m >= l {
                z = h[(m as usize, m as usize)];
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / h[((m + 1) as usize, m as usize)]
                    + h[(m as usize, (m + 1) as usize)];
                q = h[((m + 1) as usize, (m + 1) as usize)] - z - rr - ss;
                r = h[((m + 2) as usize, (m + 1) as usize)];
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                if m == l {
                    break;
                }
                let u = h[(m as usize, (m - 1) as usize)].abs() * (q.abs() + r.abs());
                let v = p.abs()
                    * (h[((m - 1) as usize, (m - 1) as usize)].abs()
                        + z.abs()
                        + h[((m + 1) as usize, (m + 1) as usize)].abs());
                if u <= f64::EPSILON * v {
                    break;
                }
                m -= 1;
            }
            for i in (m + 2)..=nn {
                h[(i as usize, (i - 2) as usize)] = 0.0;
                if i > m + 2 {
                    h[(i as usize, (i - 3) as usize)] = 0.0;
                }
            }
            // Double QR step on rows l..nn and columns m..nn.
            let mut k = m;
            while k < nn {
                if k != m {
                    p = h[(k as usize, (k - 1) as usize)];
                    q = h[((k + 1) as usize, (k - 1) as usize)];
                    r = if k != nn - 1 {
                        h[((k + 2) as usize, (k - 1) as usize)]
                    } else {
                        0.0
                    };
                    x = p.abs() + q.abs() + r.abs();
                    if x != 0.0 {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                } else {
                    // First column of (H - s1)(H - s2) computed above.
                    z = h[(m as usize, m as usize)];
                    let rr = h[(nn as usize, nn as usize)] - z;
                    let ss = h[((nn - 1) as usize, (nn - 1) as usize)] - z;
                    let ww =
                        h[(nn as usize, (nn - 1) as usize)] * h[((nn - 1) as usize, nn as usize)];
                    p = (rr * ss - ww) / h[((m + 1) as usize, m as usize)]
                        + h[(m as usize, (m + 1) as usize)];
                    q = h[((m + 1) as usize, (m + 1) as usize)] - z - rr - ss;
                    r = h[((m + 2) as usize, (m + 1) as usize)];
                    let s = p.abs() + q.abs() + r.abs();
                    p /= s;
                    q /= s;
                    r /= s;
                    x = 0.0;
                }
                let s = (p * p + q * q + r * r).sqrt().copysign(p);
                if s != 0.0 {
                    if k == m {
                        if l != m {
                            h[(k as usize, (k - 1) as usize)] = -h[(k as usize, (k - 1) as usize)];
                        }
                    } else {
                        h[(k as usize, (k - 1) as usize)] = -s * x;
                    }
                    p += s;
                    x = p / s;
                    y = q / s;
                    z = r / s;
                    q /= p;
                    r /= p;
                    // Row modification.
                    for j in (k as usize)..=(nn as usize) {
                        let mut pp = h[(k as usize, j)] + q * h[((k + 1) as usize, j)];
                        if k != nn - 1 {
                            pp += r * h[((k + 2) as usize, j)];
                            h[((k + 2) as usize, j)] -= pp * z;
                        }
                        h[((k + 1) as usize, j)] -= pp * y;
                        h[(k as usize, j)] -= pp * x;
                    }
                    // Column modification.
                    let mmin = if nn < k + 3 { nn } else { k + 3 };
                    for i in (l as usize)..=(mmin as usize) {
                        let mut pp = x * h[(i, k as usize)] + y * h[(i, (k + 1) as usize)];
                        if k != nn - 1 {
                            pp += z * h[(i, (k + 2) as usize)];
                            h[(i, (k + 2) as usize)] -= pp * r;
                        }
                        h[(i, (k + 1) as usize)] -= pp * q;
                        h[(i, k as usize)] -= pp;
                    }
                }
                k += 1;
            }
        }
    }

    Ok(eigs)
}

/// Spectral radius: the largest eigenvalue modulus.
///
/// # Errors
///
/// Propagates errors from [`eigenvalues`].
///
/// # Example
///
/// ```
/// use mimo_linalg::{eigen, Matrix};
///
/// let a = Matrix::diag(&[0.3, -0.9]);
/// assert!((eigen::spectral_radius(&a).unwrap() - 0.9).abs() < 1e-12);
/// ```
pub fn spectral_radius(a: &Matrix) -> Result<f64> {
    Ok(eigenvalues(a)?.iter().map(Complex::abs).fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_real(eigs: &[Complex]) -> Vec<f64> {
        let mut v: Vec<f64> = eigs.iter().map(|c| c.re).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::diag(&[3.0, -1.0, 0.5]);
        let eigs = eigenvalues(&a).unwrap();
        let got = sorted_real(&eigs);
        assert!((got[0] + 1.0).abs() < 1e-12);
        assert!((got[1] - 0.5).abs() < 1e-12);
        assert!((got[2] - 3.0).abs() < 1e-12);
        assert!(eigs.iter().all(|c| c.im == 0.0));
    }

    #[test]
    fn rotation_matrix_gives_complex_pair() {
        let th: f64 = 0.7;
        let r = 0.9_f64;
        let a = Matrix::from_rows(&[
            &[r * th.cos(), -r * th.sin()],
            &[r * th.sin(), r * th.cos()],
        ]);
        let eigs = eigenvalues(&a).unwrap();
        assert_eq!(eigs.len(), 2);
        for e in &eigs {
            assert!((e.abs() - r).abs() < 1e-10, "modulus {:?}", e);
            assert!((e.re - r * th.cos()).abs() < 1e-10);
        }
        assert!((eigs[0].im + eigs[1].im).abs() < 1e-12, "conjugate pair");
    }

    #[test]
    fn companion_matrix_of_known_polynomial() {
        // x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
        let a = Matrix::from_rows(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let eigs = eigenvalues(&a).unwrap();
        let got = sorted_real(&eigs);
        assert!((got[0] - 1.0).abs() < 1e-8, "{got:?}");
        assert!((got[1] - 2.0).abs() < 1e-8);
        assert!((got[2] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn symmetric_matrix_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let got = sorted_real(&eigenvalues(&a).unwrap());
        assert!((got[0] - 1.0).abs() < 1e-10);
        assert!((got[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn trace_and_determinant_consistency() {
        // Sum of eigenvalues = trace; product = determinant.
        let a = Matrix::from_rows(&[
            &[0.5, 0.2, 0.0, 0.1],
            &[-0.1, 0.4, 0.3, 0.0],
            &[0.0, -0.2, 0.6, 0.2],
            &[0.1, 0.0, -0.1, 0.3],
        ]);
        let eigs = eigenvalues(&a).unwrap();
        let sum_re: f64 = eigs.iter().map(|c| c.re).sum();
        let sum_im: f64 = eigs.iter().map(|c| c.im).sum();
        assert!((sum_re - a.trace()).abs() < 1e-10);
        assert!(sum_im.abs() < 1e-10);
        // Product via complex multiply.
        let (mut pre, mut pim) = (1.0, 0.0);
        for e in &eigs {
            let nre = pre * e.re - pim * e.im;
            let nim = pre * e.im + pim * e.re;
            pre = nre;
            pim = nim;
        }
        let det = crate::lu::LuDecomposition::new(&a).unwrap().determinant();
        assert!((pre - det).abs() < 1e-10);
        assert!(pim.abs() < 1e-10);
    }

    #[test]
    fn spectral_radius_of_stable_system() {
        let a = Matrix::from_rows(&[&[0.9, 0.1], &[0.0, 0.5]]);
        let r = spectral_radius(&a).unwrap();
        assert!((r - 0.9).abs() < 1e-12);
    }

    #[test]
    fn zero_and_identity() {
        let z = Matrix::zeros(3, 3);
        assert_eq!(spectral_radius(&z).unwrap(), 0.0);
        let i = Matrix::identity(4);
        assert!((spectral_radius(&i).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[-2.5]]);
        let eigs = eigenvalues(&a).unwrap();
        assert_eq!(eigs.len(), 1);
        assert_eq!(eigs[0], Complex::new(-2.5, 0.0));
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::zeros(0, 0);
        assert!(eigenvalues(&a).unwrap().is_empty());
    }

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            eigenvalues(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn larger_matrix_with_known_spectrum() {
        // Block-diagonal: blocks with known eigenvalues {0.8, -0.3} and ±0.6i.
        let mut a = Matrix::zeros(4, 4);
        a.set_block(0, 0, &Matrix::diag(&[0.8, -0.3]));
        a.set_block(2, 2, &Matrix::from_rows(&[&[0.0, -0.6], &[0.6, 0.0]]));
        // Similarity transform with a fixed invertible matrix to make it dense.
        let p = Matrix::from_rows(&[
            &[1.0, 0.2, 0.0, 0.1],
            &[0.0, 1.0, 0.3, 0.0],
            &[0.2, 0.0, 1.0, 0.2],
            &[0.0, 0.1, 0.0, 1.0],
        ]);
        let pinv = p.inverse().unwrap();
        let dense = &(&p * &a) * &pinv;
        let r = spectral_radius(&dense).unwrap();
        assert!((r - 0.8).abs() < 1e-9, "spectral radius {r}");
        let eigs = eigenvalues(&dense).unwrap();
        let n_complex = eigs.iter().filter(|c| c.im.abs() > 1e-9).count();
        assert_eq!(n_complex, 2);
    }

    #[test]
    fn repeated_eigenvalues() {
        // Jordan-like block with eigenvalue 0.5 (twice).
        let a = Matrix::from_rows(&[&[0.5, 1.0], &[0.0, 0.5]]);
        let got = sorted_real(&eigenvalues(&a).unwrap());
        assert!((got[0] - 0.5).abs() < 1e-7);
        assert!((got[1] - 0.5).abs() < 1e-7);
    }

    #[test]
    fn badly_scaled_matrix_is_balanced() {
        // Entries spanning 8 orders of magnitude; balancing keeps accuracy.
        let a = Matrix::from_rows(&[&[1.0, 1e8], &[1e-8, 2.0]]);
        let got = sorted_real(&eigenvalues(&a).unwrap());
        // Characteristic: x² - 3x + (2 - 1) = 0 → x = (3 ± sqrt(5))/2.
        let lo = (3.0 - 5.0_f64.sqrt()) / 2.0;
        let hi = (3.0 + 5.0_f64.sqrt()) / 2.0;
        assert!((got[0] - lo).abs() < 1e-6, "{got:?}");
        assert!((got[1] - hi).abs() < 1e-6);
    }

    #[test]
    fn complex_display() {
        let c = Complex::new(1.0, -2.0);
        assert!(c.to_string().contains('-'));
        assert!(!Complex::default().to_string().is_empty());
    }
}
