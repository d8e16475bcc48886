//! # mimo-linalg
//!
//! Dense linear-algebra substrate for the `mimo-arch` workspace.
//!
//! The ISCA 2016 MIMO-control paper offloads all of its numerical work —
//! least-squares system identification, Riccati-based LQG synthesis, and
//! robust-stability analysis — to MATLAB. This crate provides the pieces of
//! that toolbox that the rest of the workspace needs, implemented from
//! scratch over `f64`:
//!
//! * [`Matrix`] / [`Vector`] — dense row-major storage with the usual
//!   arithmetic, block, and stacking operations.
//! * [`SMatrix`] / [`SVector`] — stack-allocated const-generic
//!   counterparts whose mat-vec runs the same kernel as the dynamic one
//!   (so the bits match by construction), and the [`storage`] traits that
//!   let runtime code be generic over both.
//! * [`lu::LuDecomposition`] — partial-pivot LU: solve, inverse, determinant.
//! * [`qr::ridge_least_squares`] — Householder QR least squares with an
//!   optional ridge term, written column by column into the factor.
//! * [`eigen`] — Hessenberg reduction + Francis double-shift QR giving the
//!   real Schur form, complex eigenvalues, and spectral radius.
//! * [`svd`] — one-sided Jacobi SVD: singular values, rank, condition number.
//! * [`complex`] — complex matrices (as re/im pairs) and the discrete-time
//!   frequency response `G(e^{jw}) = C (zI - A)^{-1} B + D` used by the
//!   robust-stability analysis: [`complex::FrequencySweep`] reduces `A` to
//!   Hessenberg form once and solves each frequency in O(n²).
//!
//! # Example
//!
//! ```
//! use mimo_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let b = Matrix::col(&[1.0, 2.0]);
//! let x = a.solve(&b).unwrap();
//! let r = &a * &x - &b;
//! assert!(r.norm_fro() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matrix;
mod vector;

pub mod complex;
pub mod eigen;
pub mod lu;
pub mod qr;
pub mod stack;
pub mod storage;
pub mod svd;

pub use complex::CMatrix;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use stack::{SMatrix, SVector};
pub use storage::{MatVecKernel, VecKernel};
pub use vector::Vector;

/// Convenient result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
