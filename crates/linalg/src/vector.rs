use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::Matrix;

/// A dense column vector of `f64` values.
///
/// Signals in the workspace — plant inputs `u`, outputs `y`, state estimates
/// `x̂`, references `y₀` — are all `Vector`s. It is a thin newtype over
/// `Vec<f64>` with elementwise arithmetic, dot products, and norms.
///
/// # Example
///
/// ```
/// use mimo_linalg::Vector;
///
/// let u = Vector::from_slice(&[1.0, 2.0]);
/// let y = Vector::from_slice(&[0.5, 1.5]);
/// let error = &u - &y;
/// assert_eq!(error.norm_inf(), 0.5);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates an all-zeros vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector with every entry set to `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Vector {
            data: vec![value; n],
        }
    }

    /// Creates a vector by copying a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector {
            data: values.to_vec(),
        }
    }

    /// Creates a vector by evaluating `f(i)` at every index.
    pub fn from_fn<F: FnMut(usize) -> f64>(n: usize, f: F) -> Self {
        Vector {
            data: (0..n).map(f).collect(),
        }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Dot product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Maximum absolute entry.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean; `0.0` for the empty vector.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Applies `f` to every entry, returning a new vector.
    pub fn map<F: FnMut(f64) -> f64>(&self, f: F) -> Vector {
        Vector {
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&self, s: f64) -> Vector {
        self.map(|x| x * s)
    }

    /// Concatenates two vectors.
    pub fn concat(&self, other: &Vector) -> Vector {
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Vector { data }
    }

    /// Copies the sub-vector `[start, start+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn segment(&self, start: usize, len: usize) -> Vector {
        Vector::from_slice(&self.data[start..start + len])
    }

    /// Views the vector as an `n x 1` matrix.
    pub fn to_col_matrix(&self) -> Matrix {
        Matrix::col(&self.data)
    }

    /// Overwrites this vector with the entries of `src` without
    /// reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, src: &Vector) {
        assert_eq!(self.len(), src.len(), "copy_from: length mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Sets every element to `value`, allocation-free.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Returns `true` if all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vector{:?}", self.data)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "add_assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "sub_assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scale(-1.0)
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, s: f64) -> Vector {
        self.scale(s)
    }
}

/// Forwards owned-operand operator impls to the by-reference ones.
macro_rules! forward_vec_binop {
    ($trait:ident, $method:ident) => {
        impl $trait<Vector> for Vector {
            type Output = Vector;
            fn $method(self, rhs: Vector) -> Vector {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Vector> for Vector {
            type Output = Vector;
            fn $method(self, rhs: &Vector) -> Vector {
                (&self).$method(rhs)
            }
        }
        impl $trait<Vector> for &Vector {
            type Output = Vector;
            fn $method(self, rhs: Vector) -> Vector {
                self.$method(&rhs)
            }
        }
    };
}

forward_vec_binop!(Add, add);
forward_vec_binop!(Sub, sub);

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Vector {
        Vector { data }
    }
}

impl From<Matrix> for Vector {
    /// Flattens a single-column (or single-row) matrix into a vector.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has more than one row *and* more than one column.
    fn from(m: Matrix) -> Vector {
        assert!(
            m.rows() == 1 || m.cols() == 1,
            "only row or column matrices convert to Vector, got {:?}",
            m.shape()
        );
        Vector { data: m.into_vec() }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let v = Vector::from_slice(&[3.0, 4.0]);
        assert_eq!(v.dot(&v), 25.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_inf(), 4.0);
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn stats() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(v.sum(), 6.0);
        assert_eq!(v.mean(), 2.0);
        assert_eq!(Vector::zeros(0).mean(), 0.0);
    }

    #[test]
    fn segment_and_concat() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0]);
        let c = a.concat(&b);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.segment(1, 2).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn matrix_conversions() {
        let v = Vector::from_slice(&[1.0, 2.0]);
        let m = v.to_col_matrix();
        assert_eq!(m.shape(), (2, 1));
        let back = Vector::from(m);
        assert_eq!(back, v);
        let row = Matrix::row(&[7.0, 8.0]);
        assert_eq!(Vector::from(row).as_slice(), &[7.0, 8.0]);
    }

    #[test]
    fn from_iterator_collects() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn all_finite_detects_inf() {
        let mut v = Vector::zeros(2);
        assert!(v.all_finite());
        v[0] = f64::INFINITY;
        assert!(!v.all_finite());
    }

    #[test]
    fn map_applies_function() {
        let v = Vector::from_slice(&[1.0, -2.0]);
        assert_eq!(v.map(f64::abs).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn copy_from_overwrites() {
        let mut v = Vector::zeros(3);
        v.copy_from(&Vector::from_slice(&[1.0, 2.0, 3.0]));
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "copy_from")]
    fn copy_from_length_mismatch_panics() {
        Vector::zeros(2).copy_from(&Vector::zeros(3));
    }
}
