//! Property-based tests for the linear-algebra substrate.
//!
//! These exercise the algebraic invariants that the control and
//! identification layers rely on: factorizations reconstruct their input,
//! solves invert multiplies, and spectral quantities respect similarity.

use mimo_linalg::{eigen, lu::LuDecomposition, qr::ridge_least_squares, svd::Svd, Matrix, Vector};
use proptest::prelude::*;

/// Strategy: a well-conditioned square matrix (diagonally dominant).
fn dominant_square(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0..1.0f64, n * n).prop_map(move |vals| {
        let mut m = Matrix::from_vec(n, n, vals);
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

/// Strategy: an arbitrary tall matrix with entries in [-5, 5].
fn tall_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0..5.0f64, rows * cols)
        .prop_map(move |vals| Matrix::from_vec(rows, cols, vals))
}

/// Writes column `j` of `m` into `col` (a `ridge_least_squares` filler).
fn columns(m: &Matrix) -> impl FnMut(usize, &mut [f64]) + '_ {
    move |j, col| {
        for (i, x) in col.iter_mut().enumerate() {
            *x = m[(i, j)];
        }
    }
}

/// Strategy: a square matrix with spectral radius scaled below `rho`.
fn contractive(n: usize, rho: f64) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0..1.0f64, n * n).prop_map(move |vals| {
        let m = Matrix::from_vec(n, n, vals);
        // Normalize by the infinity norm, an upper bound on spectral radius.
        let norm = m.norm_inf().max(1e-9);
        m.scale(rho / norm)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_inverts_multiply(a in dominant_square(4), xs in proptest::collection::vec(-3.0..3.0f64, 4)) {
        let x_true = Matrix::col(&xs);
        let b = &a * &x_true;
        let x = a.solve(&b).unwrap();
        prop_assert!((&x - &x_true).max_abs() < 1e-8);
    }

    #[test]
    fn lu_determinant_is_multiplicative(a in dominant_square(3), b in dominant_square(3)) {
        let da = LuDecomposition::new(&a).unwrap().determinant();
        let db = LuDecomposition::new(&b).unwrap().determinant();
        let dab = LuDecomposition::new(&(&a * &b)).unwrap().determinant();
        prop_assert!((dab - da * db).abs() < 1e-6 * dab.abs().max(1.0));
    }

    #[test]
    fn inverse_round_trip(a in dominant_square(5)) {
        let inv = a.inverse().unwrap();
        let prod = &a * &inv;
        prop_assert!((&prod - &Matrix::identity(5)).max_abs() < 1e-9);
    }

    #[test]
    fn least_squares_residual_orthogonality(a in tall_matrix(8, 3), bs in proptest::collection::vec(-5.0..5.0f64, 8)) {
        // Skip near-rank-deficient random draws.
        let svd = Svd::new(&a).unwrap();
        prop_assume!(svd.condition_number() < 1e6);
        let b = Matrix::col(&bs);
        let x = ridge_least_squares(8, 3, 1, 0.0, columns(&a), columns(&b)).unwrap();
        let r = &(&a * &x) - &b;
        let atr = &a.transpose() * &r;
        prop_assert!(atr.max_abs() < 1e-8);
    }

    #[test]
    fn svd_reconstructs(a in tall_matrix(5, 3)) {
        let svd = Svd::new(&a).unwrap();
        prop_assert!((&svd.reconstruct() - &a).max_abs() < 1e-9);
    }

    #[test]
    fn svd_norm2_bounds_fro(a in tall_matrix(4, 4)) {
        let svd = Svd::new(&a).unwrap();
        let n2 = svd.norm2();
        let nf = a.norm_fro();
        // ‖A‖₂ ≤ ‖A‖_F ≤ sqrt(rank) ‖A‖₂
        prop_assert!(n2 <= nf + 1e-9);
        prop_assert!(nf <= 2.0 * n2 + 1e-9);
    }

    #[test]
    fn svd_values_nonnegative_descending(a in tall_matrix(6, 4)) {
        let svd = Svd::new(&a).unwrap();
        let s = svd.singular_values();
        for w in s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn spectral_radius_bounded_by_norms(a in tall_matrix(4, 4)) {
        let rho = eigen::spectral_radius(&a).unwrap();
        prop_assert!(rho <= a.norm_inf() + 1e-8);
        let n2 = Svd::new(&a).unwrap().norm2();
        prop_assert!(rho <= n2 + 1e-8);
    }

    #[test]
    fn eigenvalue_sum_is_trace(a in tall_matrix(5, 5)) {
        let eigs = eigen::eigenvalues(&a).unwrap();
        let sum: f64 = eigs.iter().map(|c| c.re).sum();
        prop_assert!((sum - a.trace()).abs() < 1e-7 * a.max_abs().max(1.0));
    }

    #[test]
    fn contractive_matrices_are_schur_stable(a in contractive(4, 0.9)) {
        prop_assert!(eigen::spectral_radius(&a).unwrap() < 1.0);
    }

    #[test]
    fn similarity_preserves_spectral_radius(a in tall_matrix(3, 3)) {
        // Use a fixed well-conditioned similarity transform.
        let p = Matrix::from_rows(&[
            &[1.0, 0.3, 0.0],
            &[0.0, 1.0, -0.2],
            &[0.1, 0.0, 1.0],
        ]);
        let pinv = p.inverse().unwrap();
        let b = &(&p * &a) * &pinv;
        let ra = eigen::spectral_radius(&a).unwrap();
        let rb = eigen::spectral_radius(&b).unwrap();
        prop_assert!((ra - rb).abs() < 1e-6 * ra.max(1.0));
    }

    #[test]
    fn svd_factors_give_the_least_squares_solution(a in tall_matrix(5, 2), bs in proptest::collection::vec(-3.0..3.0f64, 5)) {
        let svd = Svd::new(&a).unwrap();
        prop_assume!(svd.condition_number() < 1e3);
        // x = V S⁻¹ Uᵀ b from the thin factors, against the normal
        // equations AᵀA x = Aᵀ b.
        let b = Matrix::col(&bs);
        let utb = &svd.u().transpose() * &b;
        let s = svd.singular_values();
        let x = svd.v() * &Matrix::from_fn(2, 1, |i, _| utb[(i, 0)] / s[i]);
        let at = a.transpose();
        let x_ne = (&at * &a).solve(&(&at * &b)).unwrap();
        prop_assert!((&x - &x_ne).max_abs() < 1e-9 * (1.0 + x_ne.max_abs()));
    }

    #[test]
    fn vector_dot_cauchy_schwarz(xs in proptest::collection::vec(-10.0..10.0f64, 6), ys in proptest::collection::vec(-10.0..10.0f64, 6)) {
        let x = Vector::from_slice(&xs);
        let y = Vector::from_slice(&ys);
        prop_assert!(x.dot(&y).abs() <= x.norm() * y.norm() + 1e-9);
    }

    #[test]
    fn transpose_respects_multiplication(a in tall_matrix(3, 4), b in tall_matrix(4, 2)) {
        let left = (&a * &b).transpose();
        let right = &b.transpose() * &a.transpose();
        prop_assert!((&left - &right).max_abs() < 1e-10);
    }
}
