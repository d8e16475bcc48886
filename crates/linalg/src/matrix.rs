use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::{LinalgError, Result, Vector};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse type of the workspace: state-space models,
/// controller gains, covariances, and identification regressors are all
/// stored as matrices. Indexing is `m[(row, col)]`, zero-based.
///
/// # Example
///
/// ```
/// use mimo_linalg::Matrix;
///
/// let a = Matrix::identity(2);
/// let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(&a * &b, b);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape with every entry set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        Matrix {
            rows,
            cols,
            data: vec![value; len],
        }
    }

    /// Creates an all-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics on ragged input, naming the first offending row and both
    /// lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "ragged input: row {i} has {} elements, but row 0 has {cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates a single-column matrix from a slice.
    pub fn col(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row(values: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a square matrix with `diag` on the diagonal and zeros elsewhere.
    pub fn diag(diag: &[f64]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning the underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the entry at `(i, j)`, or `None` if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_slice(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &Vector) -> Result<Vector> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "mul_vec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = Vector::zeros(self.rows);
        self.mul_rows_into(v.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    /// Matrix-vector product `self * v` written into `out`, allocation-free.
    ///
    /// Bit-identical to [`Matrix::mul_vec`]: the same row-slice
    /// zip-accumulate in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()`
    /// or `out.len() != self.rows()`.
    pub fn mul_vec_into(&self, v: &Vector, out: &mut Vector) -> Result<()> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "mul_vec_into",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "mul_vec_into",
                lhs: self.shape(),
                rhs: (out.len(), 1),
            });
        }
        self.mul_rows_into(v.as_slice(), out.as_mut_slice());
        Ok(())
    }

    /// [`Matrix::mul_vec_into`] over slices, for callers whose vectors
    /// live inside a larger buffer (one sample of a recorded signal).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()`
    /// or `out.len() != self.rows()`.
    pub fn mul_slice_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if v.len() != self.cols || out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "mul_slice_into",
                lhs: self.shape(),
                rhs: (v.len(), out.len()),
            });
        }
        self.mul_rows_into(v, out);
        Ok(())
    }

    /// The shared row-accumulate kernel over this matrix's rows. Shapes
    /// are checked by the callers.
    fn mul_rows_into(&self, v: &[f64], out: &mut [f64]) {
        crate::storage::mul_rows_into((0..self.rows).map(|i| self.row_slice(i)), v, out);
    }

    /// Copies the `rows x cols` block whose top-left corner is `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block extends past the matrix bounds.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "block out of bounds"
        );
        Matrix::from_fn(rows, cols, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Overwrites the block with top-left corner `(r0, c0)` with `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` extends past the matrix bounds.
    pub fn set_block(&mut self, r0: usize, c0: usize, m: &Matrix) {
        assert!(
            r0 + m.rows <= self.rows && c0 + m.cols <= self.cols,
            "block out of bounds"
        );
        for i in 0..m.rows {
            for j in 0..m.cols {
                self[(r0 + i, c0 + j)] = m[(i, j)];
            }
        }
    }

    /// Stacks `top` above `bottom`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the column counts differ.
    pub fn vstack(top: &Matrix, bottom: &Matrix) -> Result<Matrix> {
        if top.cols != bottom.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: top.shape(),
                rhs: bottom.shape(),
            });
        }
        let mut m = Matrix::zeros(top.rows + bottom.rows, top.cols);
        m.set_block(0, 0, top);
        m.set_block(top.rows, 0, bottom);
        Ok(m)
    }

    /// Builds a block matrix from a 2-D grid of blocks.
    ///
    /// Rows of blocks must agree in height, and columns of blocks in width.
    ///
    /// # Panics
    ///
    /// Panics if the grid is ragged or the block shapes are inconsistent.
    pub fn from_blocks(grid: &[&[&Matrix]]) -> Matrix {
        assert!(!grid.is_empty() && !grid[0].is_empty(), "empty block grid");
        let block_cols = grid[0].len();
        let col_widths: Vec<usize> = (0..block_cols).map(|j| grid[0][j].cols).collect();
        let mut total_rows = 0;
        for row in grid {
            assert_eq!(row.len(), block_cols, "ragged block grid");
            let h = row[0].rows;
            for (j, b) in row.iter().enumerate() {
                assert_eq!(b.rows, h, "inconsistent block heights in a row");
                assert_eq!(
                    b.cols, col_widths[j],
                    "inconsistent block widths in a column"
                );
            }
            total_rows += h;
        }
        let total_cols: usize = col_widths.iter().sum();
        let mut m = Matrix::zeros(total_rows, total_cols);
        let mut r0 = 0;
        for row in grid {
            let mut c0 = 0;
            for b in row.iter() {
                m.set_block(r0, c0, b);
                c0 += b.cols;
            }
            r0 += row[0].rows;
        }
        m
    }

    /// Frobenius norm, `sqrt(sum of squares)`.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Infinity norm: maximum absolute row sum.
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row_slice(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Sum of the diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Returns `(self + self^T) / 2`, the symmetric part.
    ///
    /// Useful for keeping iteratively computed covariance and Riccati
    /// solutions numerically symmetric.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&self) -> Matrix {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            0.5 * (self[(i, j)] + self[(j, i)])
        })
    }

    /// Solves `self * x = rhs` via LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if the matrix is rectangular,
    /// [`LinalgError::ShapeMismatch`] on incompatible `rhs`, or
    /// [`LinalgError::Singular`] if the matrix is singular.
    pub fn solve(&self, rhs: &Matrix) -> Result<Matrix> {
        crate::lu::LuDecomposition::new(self)?.solve(rhs)
    }

    /// Returns the inverse.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] or [`LinalgError::Singular`]
    /// as in [`Matrix::solve`].
    pub fn inverse(&self) -> Result<Matrix> {
        crate::lu::LuDecomposition::new(self)?.inverse()
    }

    /// Returns `true` if all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

fn binary_shape_check(op: &'static str, a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "{op}: shape mismatch {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        binary_shape_check("add", self, rhs);
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        binary_shape_check("sub", self, rhs);
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        binary_shape_check("add_assign", self, rhs);
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        binary_shape_check("sub_assign", self, rhs);
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            rhs.rows,
            "mul: inner dimensions differ ({:?} * {:?})",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop contiguous in both operands.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

/// Forwards owned-operand operator impls to the by-reference ones so that
/// expressions like `&a * &x - &b` work without explicit re-borrowing.
macro_rules! forward_binop {
    ($trait:ident, $method:ident) => {
        impl $trait<Matrix> for Matrix {
            type Output = Matrix;
            fn $method(self, rhs: Matrix) -> Matrix {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Matrix> for Matrix {
            type Output = Matrix;
            fn $method(self, rhs: &Matrix) -> Matrix {
                (&self).$method(rhs)
            }
        }
        impl $trait<Matrix> for &Matrix {
            type Output = Matrix;
            fn $method(self, rhs: Matrix) -> Matrix {
                self.$method(&rhs)
            }
        }
    };
}

forward_binop!(Add, add);
forward_binop!(Sub, sub);
forward_binop!(Mul, mul);

impl From<Vector> for Matrix {
    fn from(v: Vector) -> Matrix {
        let n = v.len();
        Matrix::from_vec(n, 1, v.into_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abs_diff(a: &Matrix, b: &Matrix) -> f64 {
        (a - b).max_abs()
    }

    #[test]
    #[should_panic(expected = "ragged input: row 1 has 1 elements, but row 0 has 2")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i3 = Matrix::identity(3);
        let i2 = Matrix::identity(2);
        assert_eq!(&a * &i3, a);
        assert_eq!(&i2 * &a, a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]);
        assert_eq!(&a * &b, expected);
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = Vector::from_slice(&[5.0, 6.0]);
        let got = a.mul_vec(&v).unwrap();
        assert_eq!(got.as_slice(), &[17.0, 39.0]);
    }

    #[test]
    fn mul_vec_into_matches_mul_vec() {
        let a = Matrix::from_fn(3, 4, |i, j| ((i * 5 + j) as f64).sin());
        let v = Vector::from_fn(4, |i| (i as f64 + 0.3).cos());
        let want = a.mul_vec(&v).unwrap();
        let mut got = Vector::zeros(3);
        a.mul_vec_into(&v, &mut got).unwrap();
        for i in 0..3 {
            assert_eq!(got[i].to_bits(), want[i].to_bits());
        }
    }

    #[test]
    fn mul_vec_into_shape_errors() {
        let a = Matrix::identity(2);
        let mut out = Vector::zeros(2);
        assert!(a.mul_vec_into(&Vector::zeros(3), &mut out).is_err());
        let mut short = Vector::zeros(1);
        assert!(a.mul_vec_into(&Vector::zeros(2), &mut short).is_err());
    }

    #[test]
    fn mul_vec_shape_error() {
        let a = Matrix::identity(2);
        let v = Vector::zeros(3);
        assert!(matches!(
            a.mul_vec(&v),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn block_and_set_block_round_trip() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let b = a.block(1, 2, 2, 2);
        assert_eq!(b, Matrix::from_rows(&[&[6.0, 7.0], &[10.0, 11.0]]));
        let mut c = Matrix::zeros(4, 4);
        c.set_block(1, 2, &b);
        assert_eq!(c.block(1, 2, 2, 2), b);
        assert_eq!(c[(0, 0)], 0.0);
    }

    #[test]
    fn stacking() {
        let a = Matrix::row(&[1.0, 2.0]);
        let b = Matrix::row(&[3.0, 4.0]);
        let v = Matrix::vstack(&a, &b).unwrap();
        assert_eq!(v, Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
    }

    #[test]
    fn stack_shape_errors() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        assert!(Matrix::vstack(&a, &b).is_err());
    }

    #[test]
    fn from_blocks_assembles_2x2_grid() {
        let a = Matrix::identity(2);
        let z = Matrix::zeros(2, 1);
        let b = Matrix::col(&[5.0, 6.0]);
        let c = Matrix::row(&[7.0, 8.0]);
        let d = Matrix::row(&[9.0]);
        let m = Matrix::from_blocks(&[&[&a, &z], &[&c, &d]]);
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m[(2, 2)], 9.0);
        assert_eq!(m[(0, 0)], 1.0);
        let m2 = Matrix::from_blocks(&[&[&a, &b], &[&c, &d]]);
        assert_eq!(m2[(1, 2)], 6.0);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, -4.0], &[0.0, 0.0]]);
        assert!((a.norm_fro() - 5.0).abs() < 1e-15);
        assert!((a.norm_inf() - 7.0).abs() < 1e-15);
        assert!((a.max_abs() - 4.0).abs() < 1e-15);
    }

    #[test]
    fn trace_and_symmetrize() {
        let a = Matrix::from_rows(&[&[1.0, 4.0], &[2.0, 3.0]]);
        assert_eq!(a.trace(), 4.0);
        let s = a.symmetrize();
        assert_eq!(s[(0, 1)], 3.0);
        assert_eq!(s[(1, 0)], 3.0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let z = Matrix::zeros(2, 3);
        assert_eq!(&a + &z, a);
        assert_eq!(&a - &a, z);
        assert_eq!((-&a).scale(-1.0), a);
        let mut b = a.clone();
        b += &a;
        assert_eq!(b, a.scale(2.0));
        b -= &a;
        assert_eq!(b, a);
    }

    #[test]
    fn diag_constructor() {
        let d = Matrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn solve_round_trips_through_inverse() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.inverse().unwrap();
        assert!(abs_diff(&(&a * &inv), &Matrix::identity(2)) < 1e-12);
    }

    #[test]
    fn debug_is_nonempty() {
        let m = Matrix::zeros(0, 0);
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn from_vector_conversion() {
        let v = Vector::from_slice(&[1.0, 2.0]);
        let m = Matrix::from(v);
        assert_eq!(m.shape(), (2, 1));
        assert_eq!(m[(1, 0)], 2.0);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::identity(2);
        assert!(m.all_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn row_and_col_accessors() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row_slice(1), &[3.0, 4.0]);
        assert_eq!(a.get(1, 1), Some(4.0));
        assert_eq!(a.get(2, 0), None);
    }
}
