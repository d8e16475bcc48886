//! Stack-allocated, const-generic counterparts of [`Matrix`] / [`Vector`].
//!
//! The paper's deployed controllers are tiny and fixed per architecture
//! (2–3 inputs/outputs, single-digit state order), yet the dynamic types
//! carry heap indirection and runtime dimension checks into every 50 µs
//! epoch. [`SMatrix`] and [`SVector`] hold the same `f64` data inline in
//! arrays whose sizes are const generics, so the per-epoch mat-vec
//! monomorphizes: bounds checks vanish, loops unroll, and the working set
//! is contiguous on the stack.
//!
//! **Bit identity by construction.** The only arithmetic here is
//! [`SMatrix::mul_vec_into`], and it runs the same row-accumulate kernel
//! as [`Matrix::mul_vec_into`] (one left-to-right sum per row from
//! `0.0`), so the two storages give the same bits for every shape. The
//! property tests in `tests/static_parity.rs` check this for every shape
//! the reference architectures deploy.

use std::ops::{Index, IndexMut};

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::storage::mul_rows_into;
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
        let mut out = Self::zeros();
        out.data.copy_from_slice(v.as_slice());
        Ok(out)
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

    /// Matrix-vector product written into `out`.
    ///
    /// Bit-identical to [`Matrix::mul_vec_into`]: both run the same
    /// row-accumulate kernel.
    pub fn mul_vec_into(&self, v: &SVector<C>, out: &mut SVector<R>) {
        mul_rows_into(self.data.iter().map(|row| &row[..]), &v.data, &mut out.data);
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
}
