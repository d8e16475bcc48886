//! Stack-allocated, const-generic counterparts of [`Matrix`] / [`Vector`].
//!
//! The paper's deployed controllers are tiny and fixed per architecture
//! (2–3 inputs/outputs, single-digit state order), yet the dynamic types
//! carry heap indirection and runtime dimension checks into every 50 µs
//! epoch. [`SMatrix`] and [`SVector`] hold the same `f64` data inline in
//! arrays whose sizes are const generics, so the per-epoch kernels
//! monomorphize: bounds checks vanish, loops unroll, and the working set
//! is contiguous on the stack.
//!
//! **Bit-identity contract.** Every kernel here evaluates the *same
//! floating-point operations in the same order* as its dynamic
//! counterpart (`mul_vec_into` accumulates left to right per row,
//! `mul_into` runs the i-k-j order with the zero-entry skip, elementwise
//! kernels run in storage order). IEEE-754 arithmetic is deterministic,
//! so results are bit-identical to the dynamic path — the property tests
//! in `tests/static_parity.rs` pin this for every shape the reference
//! architectures use.

use std::ops::{AddAssign, Index, IndexMut, SubAssign};

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::Result;

/// A fixed-size vector of `N` `f64` entries, stored inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SVector<const N: usize> {
    data: [f64; N],
}

impl<const N: usize> SVector<N> {
    /// The all-zeros vector.
    pub fn zeros() -> Self {
        SVector { data: [0.0; N] }
    }

    /// Creates a vector by copying a slice.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != N`.
    pub fn from_slice(values: &[f64]) -> Self {
        assert_eq!(values.len(), N, "SVector::from_slice: length mismatch");
        let mut v = Self::zeros();
        v.data.copy_from_slice(values);
        v
    }

    /// Creates a vector by evaluating `f(i)` at every index.
    pub fn from_fn<F: FnMut(usize) -> f64>(mut f: F) -> Self {
        let mut v = Self::zeros();
        for (i, x) in v.data.iter_mut().enumerate() {
            *x = f(i);
        }
        v
    }

    /// Builds from a dynamic vector, checking the dimension.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != N`.
    pub fn from_vector(v: &Vector) -> Result<Self> {
        if v.len() != N {
            return Err(LinalgError::ShapeMismatch {
                op: "SVector::from_vector",
                lhs: (N, 1),
                rhs: (v.len(), 1),
            });
        }
        Ok(Self::from_slice(v.as_slice()))
    }

    /// Copies into a heap-allocated [`Vector`].
    pub fn to_vector(&self) -> Vector {
        Vector::from_slice(&self.data)
    }

    /// Number of entries (`N`).
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(&self) -> usize {
        N
    }

    /// Borrows the entries as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the entries as a slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Copies every entry from `src`, allocation-free.
    pub fn copy_from(&mut self, src: &Self) {
        self.data = src.data;
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// In-place scaled accumulation `self += alpha * x` (BLAS `axpy`).
    /// Bit-identical to [`Vector::axpy`].
    pub fn axpy(&mut self, alpha: f64, x: &Self) {
        for (a, b) in self.data.iter_mut().zip(&x.data) {
            *a += alpha * b;
        }
    }

    /// Writes `self - rhs` into `out`. Bit-identical to
    /// [`Vector::sub_into`].
    pub fn sub_into(&self, rhs: &Self, out: &mut Self) {
        for ((o, a), b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = a - b;
        }
    }

    /// Returns `true` if all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl<const N: usize> Index<usize> for SVector<N> {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl<const N: usize> IndexMut<usize> for SVector<N> {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl<const N: usize> AddAssign<&SVector<N>> for SVector<N> {
    fn add_assign(&mut self, rhs: &SVector<N>) {
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl<const N: usize> SubAssign<&SVector<N>> for SVector<N> {
    fn sub_assign(&mut self, rhs: &SVector<N>) {
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

/// A fixed-size `R x C` matrix of `f64`, stored inline row-major.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SMatrix<const R: usize, const C: usize> {
    data: [[f64; C]; R],
}

impl<const R: usize, const C: usize> SMatrix<R, C> {
    /// The all-zeros matrix.
    pub fn zeros() -> Self {
        SMatrix {
            data: [[0.0; C]; R],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(mut f: F) -> Self {
        let mut m = Self::zeros();
        for (i, row) in m.data.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x = f(i, j);
            }
        }
        m
    }

    /// Builds from a dynamic matrix, checking the shape.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `m` is not `R x C`.
    pub fn from_matrix(m: &Matrix) -> Result<Self> {
        if m.shape() != (R, C) {
            return Err(LinalgError::ShapeMismatch {
                op: "SMatrix::from_matrix",
                lhs: (R, C),
                rhs: m.shape(),
            });
        }
        Ok(Self::from_fn(|i, j| m[(i, j)]))
    }

    /// Copies into a heap-allocated [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(R, C, |i, j| self.data[i][j])
    }

    /// Number of rows (`R`).
    pub const fn rows(&self) -> usize {
        R
    }

    /// Number of columns (`C`).
    pub const fn cols(&self) -> usize {
        C
    }

    /// Borrows row `i` as a slice.
    pub fn row_slice(&self, i: usize) -> &[f64] {
        &self.data[i]
    }

    /// Copies every entry from `src`, allocation-free.
    pub fn copy_from(&mut self, src: &Self) {
        self.data = src.data;
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f64) {
        for row in self.data.iter_mut() {
            row.fill(value);
        }
    }

    /// In-place scaled accumulation `self += alpha * x`, elementwise in
    /// row-major order.
    pub fn axpy(&mut self, alpha: f64, x: &Self) {
        for (arow, brow) in self.data.iter_mut().zip(&x.data) {
            for (a, b) in arow.iter_mut().zip(brow) {
                *a += alpha * b;
            }
        }
    }

    /// Writes `self - rhs` into `out`, elementwise in row-major order.
    pub fn sub_into(&self, rhs: &Self, out: &mut Self) {
        for ((orow, arow), brow) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            for ((o, a), b) in orow.iter_mut().zip(arow).zip(brow) {
                *o = a - b;
            }
        }
    }

    /// Matrix-vector product written into `out`.
    ///
    /// Bit-identical to [`Matrix::mul_vec_into`]: each output entry is one
    /// left-to-right accumulation over the row.
    pub fn mul_vec_into(&self, v: &SVector<C>, out: &mut SVector<R>) {
        for i in 0..R {
            let row = &self.data[i];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v.as_slice()) {
                acc += a * b;
            }
            out[i] = acc;
        }
    }

    /// Matrix product `self * rhs` written into `out`.
    ///
    /// Bit-identical to [`Matrix::mul_into`]: the same i-k-j accumulation
    /// order including the zero-entry skip.
    pub fn mul_into<const K: usize>(&self, rhs: &SMatrix<C, K>, out: &mut SMatrix<R, K>) {
        out.fill(0.0);
        for i in 0..R {
            for k in 0..C {
                let a = self.data[i][k];
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k];
                let orow = &mut out.data[i];
                for (o, r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
    }
}

impl<const R: usize, const C: usize> Index<(usize, usize)> for SMatrix<R, C> {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i][j]
    }
}

impl<const R: usize, const C: usize> IndexMut<(usize, usize)> for SMatrix<R, C> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i][j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_dynamic_types() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let s = SMatrix::<2, 3>::from_matrix(&m).unwrap();
        assert_eq!(s.to_matrix(), m);
        assert!(SMatrix::<3, 2>::from_matrix(&m).is_err());

        let v = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let sv = SVector::<3>::from_vector(&v).unwrap();
        assert_eq!(sv.to_vector(), v);
        assert!(SVector::<2>::from_vector(&v).is_err());
    }

    #[test]
    fn mul_vec_matches_dynamic_bits() {
        let m = Matrix::from_fn(3, 4, |i, j| 0.1 + 0.37 * (i * 4 + j) as f64);
        let v = Vector::from_fn(4, |i| (-1.0_f64).powi(i as i32) * (0.3 + i as f64));
        let mut dy = Vector::zeros(3);
        m.mul_vec_into(&v, &mut dy).unwrap();

        let sm = SMatrix::<3, 4>::from_matrix(&m).unwrap();
        let sv = SVector::<4>::from_vector(&v).unwrap();
        let mut sy = SVector::<3>::zeros();
        sm.mul_vec_into(&sv, &mut sy);
        for i in 0..3 {
            assert_eq!(sy[i].to_bits(), dy[i].to_bits());
        }
    }

    #[test]
    fn mul_matches_dynamic_bits_including_zero_skip() {
        let mut a = Matrix::from_fn(2, 3, |i, j| (1 + i + j) as f64 * 0.21);
        a[(0, 1)] = 0.0; // exercise the zero-entry skip
        let b = Matrix::from_fn(3, 2, |i, j| (i as f64 - j as f64) * 0.73);
        let mut dy = Matrix::zeros(2, 2);
        a.mul_into(&b, &mut dy).unwrap();

        let sa = SMatrix::<2, 3>::from_matrix(&a).unwrap();
        let sb = SMatrix::<3, 2>::from_matrix(&b).unwrap();
        let mut sy = SMatrix::<2, 2>::zeros();
        sa.mul_into(&sb, &mut sy);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(sy[(i, j)].to_bits(), dy[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn elementwise_kernels() {
        let a = SVector::<3>::from_slice(&[1.0, 2.0, 3.0]);
        let b = SVector::<3>::from_slice(&[0.5, -1.0, 4.0]);
        let mut out = SVector::<3>::zeros();
        a.sub_into(&b, &mut out);
        assert_eq!(out.as_slice(), &[0.5, 3.0, -1.0]);

        let mut acc = a;
        acc.axpy(2.0, &b);
        assert_eq!(acc.as_slice(), &[2.0, 0.0, 11.0]);

        acc.copy_from(&b);
        assert_eq!(acc, b);
        acc.fill(0.0);
        assert_eq!(acc, SVector::<3>::zeros());
        assert!(acc.all_finite());

        let mut ms = SMatrix::<2, 2>::from_fn(|i, j| (i + j) as f64);
        let mt = ms;
        ms.axpy(-1.0, &mt);
        assert_eq!(ms, SMatrix::<2, 2>::zeros());
        let mut md = SMatrix::<2, 2>::zeros();
        mt.sub_into(&SMatrix::<2, 2>::zeros(), &mut md);
        assert_eq!(md, mt);
    }
}
