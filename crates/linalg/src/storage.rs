//! Storage abstraction over dynamic and fixed-size linear algebra.
//!
//! The runtime control layer (Kalman predictor, LQG step) is written once,
//! generically, against these two small traits; instantiating it with
//! [`Matrix`]/[`Vector`] reproduces the historical dynamic path, while
//! instantiating it with [`SMatrix`]/[`SVector`] monomorphizes the same
//! arithmetic over compile-time dimensions. Synthesis-time code (DARE,
//! SVD, eigenvalues, robust-stability analysis) stays on the dynamic
//! types and never touches these traits.
//!
//! Every kernel is written once, over *slices*: a `[f64; N]` coerced to
//! `&[f64]` keeps its compile-time length after inlining, so a kernel
//! written over slices still unrolls on the static path. One
//! implementation serves both storages — the mat-vec
//! ([`MatVecKernel::mat_vec_into`] reaches `mul_rows_into` from
//! [`Matrix`] and [`SMatrix`] alike) and the elementwise
//! [`add_assign_slices`] / [`sub_into_slices`] — so bit-identity holds by
//! construction, not by a hand-kept mirror.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::stack::{SMatrix, SVector};
use crate::vector::Vector;
use crate::Result;

/// A contiguous `f64` vector usable as controller runtime storage.
pub trait VecKernel: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// Builds an all-zeros vector of dimension `n`.
    ///
    /// # Errors
    ///
    /// Fixed-size implementations return [`LinalgError::ShapeMismatch`]
    /// when `n` disagrees with the compile-time dimension.
    fn new_dim(n: usize) -> Result<Self>;

    /// Borrows the entries as a slice.
    fn as_slice(&self) -> &[f64];

    /// Mutably borrows the entries as a slice.
    fn as_mut_slice(&mut self) -> &mut [f64];

    /// Number of entries.
    fn dim(&self) -> usize {
        self.as_slice().len()
    }

    /// Builds from a dynamic vector, checking the dimension.
    ///
    /// # Errors
    ///
    /// Propagates the [`VecKernel::new_dim`] shape check.
    fn from_vector(v: &Vector) -> Result<Self> {
        let mut out = Self::new_dim(v.len())?;
        out.as_mut_slice().copy_from_slice(v.as_slice());
        Ok(out)
    }

    /// Copies into a heap-allocated [`Vector`].
    fn to_vector(&self) -> Vector {
        Vector::from_slice(self.as_slice())
    }
}

impl VecKernel for Vector {
    fn new_dim(n: usize) -> Result<Self> {
        Ok(Vector::zeros(n))
    }

    fn as_slice(&self) -> &[f64] {
        Vector::as_slice(self)
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        Vector::as_mut_slice(self)
    }
}

impl<const N: usize> VecKernel for SVector<N> {
    fn new_dim(n: usize) -> Result<Self> {
        if n != N {
            return Err(LinalgError::ShapeMismatch {
                op: "SVector::new_dim",
                lhs: (N, 1),
                rhs: (n, 1),
            });
        }
        Ok(SVector::zeros())
    }

    fn as_slice(&self) -> &[f64] {
        SVector::as_slice(self)
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        SVector::as_mut_slice(self)
    }
}

/// A matrix that can multiply an input vector into an output vector —
/// the one operation the per-epoch hot loop needs from its gain and
/// model matrices.
pub trait MatVecKernel<VIn: VecKernel, VOut: VecKernel>:
    Clone + std::fmt::Debug + Send + Sync + 'static
{
    /// Builds from a dynamic matrix, checking the shape.
    ///
    /// # Errors
    ///
    /// Fixed-size implementations return [`LinalgError::ShapeMismatch`]
    /// when `m`'s shape disagrees with the compile-time dimensions.
    fn from_matrix(m: &Matrix) -> Result<Self>;

    /// Copies into a heap-allocated [`Matrix`].
    fn to_matrix(&self) -> Matrix;

    /// Matrix-vector product written into `out`. All implementations run
    /// one left-to-right accumulation per row (bit-identical across
    /// storage kinds).
    ///
    /// # Panics
    ///
    /// The dynamic implementation panics on dimension mismatches
    /// (programming errors — generic callers size their buffers at
    /// construction).
    fn mat_vec_into(&self, v: &VIn, out: &mut VOut);
}

impl MatVecKernel<Vector, Vector> for Matrix {
    fn from_matrix(m: &Matrix) -> Result<Self> {
        Ok(m.clone())
    }

    fn to_matrix(&self) -> Matrix {
        self.clone()
    }

    fn mat_vec_into(&self, v: &Vector, out: &mut Vector) {
        self.mul_vec_into(v, out)
            .expect("mat_vec dimension mismatch");
    }
}

impl<const R: usize, const C: usize> MatVecKernel<SVector<C>, SVector<R>> for SMatrix<R, C> {
    fn from_matrix(m: &Matrix) -> Result<Self> {
        SMatrix::from_matrix(m)
    }

    fn to_matrix(&self) -> Matrix {
        SMatrix::to_matrix(self)
    }

    fn mat_vec_into(&self, v: &SVector<C>, out: &mut SVector<R>) {
        self.mul_vec_into(v, out);
    }
}

/// The one matrix-vector kernel, shared by [`Matrix`] and [`SMatrix`]:
/// `out[i]` is row `i`'s products accumulated left to right from `0.0`.
/// Shapes are checked by the callers.
#[inline(always)]
pub(crate) fn mul_rows_into<'a>(rows: impl Iterator<Item = &'a [f64]>, v: &[f64], out: &mut [f64]) {
    for (o, row) in out.iter_mut().zip(rows) {
        *o = dot_slices(row, v);
    }
}

/// One row of `mul_rows_into`: `row · v`, the products accumulated left
/// to right from `0.0` (over the shorter of the two slices). Kernels that
/// walk a matrix's rows on slices use this to keep a matrix-vector
/// product's bits.
#[inline(always)]
pub fn dot_slices(row: &[f64], v: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (a, b) in row.iter().zip(v) {
        acc += a * b;
    }
    acc
}

/// A length a slice kernel is instantiated for: fixed at compile time
/// ([`Fixed`]) or known only at run time (`usize`). A kernel generic over
/// it slices with [`Dim::get`]; with [`Fixed`] the length is a constant
/// after inlining, so the short per-sample loops of a record pass unroll,
/// and with `usize` the same source runs on any length, doing the same
/// operations in the same order.
pub trait Dim: Copy {
    /// The length.
    fn get(self) -> usize;
}

impl Dim for usize {
    #[inline(always)]
    fn get(self) -> usize {
        self
    }
}

/// The compile-time length `N`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed<const N: usize>;

impl<const N: usize> Dim for Fixed<N> {
    #[inline(always)]
    fn get(self) -> usize {
        N
    }
}

/// Evaluates `$body` with `$d` bound to a [`Dim`] for the length `$n`:
/// [`Fixed`]`::<k>` when `$n` is one of the listed `k`, the run-time
/// `usize` otherwise. The body is compiled once per listed length and once
/// for the run-time case, so a record pass written over `$d` unrolls for
/// the common widths and still runs on any other.
///
/// ```
/// use mimo_linalg::storage::Dim;
/// use mimo_linalg::with_dim;
///
/// fn total<D: Dim>(d: D, xs: &[f64]) -> f64 {
///     xs[..d.get()].iter().sum()
/// }
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(with_dim!(3, [2, 3], |d| total(d, &xs)), 6.0);
/// assert_eq!(with_dim!(4, [2, 3], |d| total(d, &xs)), 10.0);
/// ```
#[macro_export]
macro_rules! with_dim {
    ($n:expr, [$($k:literal),+], |$d:ident| $body:expr) => {
        match $n {
            $($k => {
                let $d = $crate::storage::Fixed::<$k>;
                $body
            })+
            $d => $body,
        }
    };
}

/// Elementwise `a += b` over slices, in the same order as
/// `Vector::add_assign`.
///
/// Lengths must match (enforced by construction in generic callers;
/// checked in debug builds).
#[inline]
pub fn add_assign_slices(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len(), "add_assign_slices: length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Elementwise `out = a - b` over slices, in the same order as
/// `&a - &b` on [`Vector`].
#[inline]
pub fn sub_into_slices(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len(), "sub_into_slices: length mismatch");
    debug_assert_eq!(
        a.len(),
        out.len(),
        "sub_into_slices: output length mismatch"
    );
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_and_static_kernels_agree() {
        let m = Matrix::from_fn(2, 3, |i, j| 1.0 + (i * 3 + j) as f64 * 0.31);
        let v = Vector::from_slice(&[0.2, -0.7, 1.9]);

        let mut dyn_out = Vector::zeros(2);
        MatVecKernel::mat_vec_into(&m, &v, &mut dyn_out);

        let sm: SMatrix<2, 3> = MatVecKernel::<SVector<3>, SVector<2>>::from_matrix(&m).unwrap();
        let sv = SVector::<3>::from_vector(&v).unwrap();
        let mut st_out = SVector::<2>::new_dim(2).unwrap();
        sm.mat_vec_into(&sv, &mut st_out);

        assert_eq!(dyn_out.as_slice(), st_out.as_slice());
        assert_eq!(sm.to_matrix(), m);
        assert_eq!(VecKernel::to_vector(&sv), v);
    }

    #[test]
    fn slice_kernels_match_vector_ops() {
        let a = [1.0, 2.5, -3.0];
        let b = [0.5, -0.25, 8.0];
        let mut acc = a;
        add_assign_slices(&mut acc, &b);
        let mut va = Vector::from_slice(&a);
        va += &Vector::from_slice(&b);
        assert_eq!(&acc[..], va.as_slice());

        let mut diff = [0.0; 3];
        sub_into_slices(&a, &b, &mut diff);
        let vd = &Vector::from_slice(&a) - &Vector::from_slice(&b);
        assert_eq!(&diff[..], vd.as_slice());
    }

    #[test]
    fn new_dim_shape_checks() {
        assert!(SVector::<3>::new_dim(2).is_err());
        assert!(SVector::<3>::new_dim(3).is_ok());
        assert!(Vector::new_dim(7).is_ok());
        assert_eq!(VecKernel::dim(&Vector::zeros(4)), 4);
    }
}
