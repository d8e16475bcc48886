//! `FrequencySweep` against the dense path it replaced.
//!
//! The oracle below is a literal copy of the old `frequency_response`: build
//! `zI − A` as a complex matrix, solve `(zI − A) X = B` through the real
//! `2n x 2n` embedding `[[Re, −Im], [Im, Re]]` with a dense partial-pivot
//! LU, form `C X + D`, and take `σ_max` as the largest singular value of
//! the embedded response. The sweep must agree on `σ_max` to 1e-12
//! relative on random stable and near-unit-circle systems, and both must
//! call a pole exactly on the unit circle singular.

use mimo_linalg::complex::FrequencySweep;
use mimo_linalg::{svd, LinalgError, Matrix};
use proptest::prelude::*;

/// The old dense path: `σ_max(C (zI − A)⁻¹ B + D)` at `z = e^{jw}`.
fn dense_sigma(
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
    d: &Matrix,
    omega: f64,
) -> Result<f64, LinalgError> {
    let n = a.rows();
    let (zre, zim) = (omega.cos(), omega.sin());
    let zi_a_re = &Matrix::identity(n).scale(zre) - a;
    let zi_a_im = Matrix::identity(n).scale(zim);
    let neg_im = zi_a_im.scale(-1.0);
    let a_emb = Matrix::from_blocks(&[&[&zi_a_re, &neg_im], &[&zi_a_im, &zi_a_re]]);
    let b_emb = Matrix::vstack(b, &Matrix::zeros(n, b.cols()))?;
    let x_emb = a_emb.solve(&b_emb)?;
    let cols = b.cols();
    let (x_re, x_im) = (x_emb.block(0, 0, n, cols), x_emb.block(n, 0, n, cols));
    // C is real: (C + 0j)(Xre + jXim).
    let g_re = &(c * &x_re) + d;
    let g_im = c * &x_im;
    let neg_g_im = g_im.scale(-1.0);
    svd::max_singular_value(&Matrix::from_blocks(&[
        &[&g_re, &neg_g_im],
        &[&g_im, &g_re],
    ]))
}

fn sweep_sigma(sweep: &mut FrequencySweep, omega: f64) -> Result<f64, LinalgError> {
    sweep.response(omega)?.max_singular_value()
}

/// A random system: `A` of size `n` scaled to infinity norm `rho` (so its
/// spectral radius is below `rho`), and `B`, `C`, `D` with 1–3 inputs and
/// outputs.
fn system(rho: f64) -> impl Strategy<Value = (Matrix, Matrix, Matrix, Matrix)> {
    (1usize..=16, 1usize..=3, 1usize..=3).prop_flat_map(move |(n, m, p)| {
        (
            proptest::collection::vec(-1.0..1.0f64, n * n),
            proptest::collection::vec(-2.0..2.0f64, n * m),
            proptest::collection::vec(-2.0..2.0f64, p * n),
            proptest::collection::vec(-0.5..0.5f64, p * m),
        )
            .prop_map(move |(a, b, c, d)| {
                let a = Matrix::from_vec(n, n, a);
                let a = a.scale(rho / a.norm_inf().max(1e-9));
                (
                    a,
                    Matrix::from_vec(n, m, b),
                    Matrix::from_vec(p, n, c),
                    Matrix::from_vec(p, m, d),
                )
            })
    })
}

/// A random system whose poles sit at radius `r` close to 1: `A` is
/// similar, through a well-conditioned `S = I + E`, to a block diagonal of
/// 2x2 rotations by `r` (plus one real pole `r` when `n` is odd).
fn near_circle() -> impl Strategy<Value = (Matrix, Matrix, Matrix, Matrix)> {
    (2usize..=16, 1usize..=3, 1usize..=3, 0.95..0.995f64).prop_flat_map(|(n, m, p, r)| {
        (
            proptest::collection::vec(0.0..std::f64::consts::PI, n / 2),
            proptest::collection::vec(-0.15..0.15f64, n * n),
            proptest::collection::vec(-2.0..2.0f64, n * m),
            proptest::collection::vec(-2.0..2.0f64, p * n),
        )
            .prop_map(move |(angles, e, b, c)| {
                let mut blocks = Matrix::zeros(n, n);
                for (k, th) in angles.iter().enumerate() {
                    let (cs, sn) = (r * th.cos(), r * th.sin());
                    let i = 2 * k;
                    blocks[(i, i)] = cs;
                    blocks[(i, i + 1)] = -sn;
                    blocks[(i + 1, i)] = sn;
                    blocks[(i + 1, i + 1)] = cs;
                }
                if n % 2 == 1 {
                    blocks[(n - 1, n - 1)] = r;
                }
                let s = &Matrix::identity(n) + &Matrix::from_vec(n, n, e);
                let a = &(&s * &blocks) * &s.inverse().expect("I + small E is invertible");
                (
                    a,
                    Matrix::from_vec(n, m, b),
                    Matrix::from_vec(p, n, c),
                    Matrix::zeros(p, m),
                )
            })
    })
}

/// Largest relative `σ_max` disagreement over `freqs`.
fn worst_disagreement(a: &Matrix, b: &Matrix, c: &Matrix, d: &Matrix, freqs: &[f64]) -> f64 {
    let mut sweep = FrequencySweep::new(a, b, c, d).unwrap();
    let mut worst = 0.0_f64;
    for &w in freqs {
        let want = dense_sigma(a, b, c, d, w).unwrap();
        let got = sweep_sigma(&mut sweep, w).unwrap();
        worst = worst.max((got - want).abs() / want.max(f64::MIN_POSITIVE));
    }
    worst
}

/// The RSA grid: `k` points spaced evenly over `[0, π]`.
fn grid(k: usize) -> Vec<f64> {
    (0..k)
        .map(|i| std::f64::consts::PI * i as f64 / (k - 1) as f64)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sweep_matches_the_dense_path_on_stable_systems(
        (a, b, c, d) in system(0.9)
    ) {
        let worst = worst_disagreement(&a, &b, &c, &d, &grid(64));
        prop_assert!(worst < 1e-12, "relative sigma_max disagreement {worst:e}");
    }

    #[test]
    fn sweep_matches_the_dense_path_near_the_unit_circle(
        (a, b, c, d) in near_circle(),
        extra in proptest::collection::vec(0.0..std::f64::consts::PI, 16)
    ) {
        // The grid plus random frequencies, which land near the resonant
        // peaks as often as anywhere.
        let mut freqs = grid(64);
        freqs.extend(extra);
        let worst = worst_disagreement(&a, &b, &c, &d, &freqs);
        prop_assert!(worst < 1e-12, "relative sigma_max disagreement {worst:e}");
    }

    #[test]
    fn pole_on_the_circle_is_singular_on_both_paths(
        (rest, b, c, d) in system(0.9),
        coupling in proptest::collection::vec(-1.0..1.0f64, 16),
        at_pi in 0usize..2
    ) {
        // A = [[z0, k], [0, rest]] has the pole z0 = ±1 on the circle.
        let n = rest.rows() + 1;
        let (z0, omega) = if at_pi == 1 { (-1.0, std::f64::consts::PI) } else { (1.0, 0.0) };
        let mut a = Matrix::zeros(n, n);
        a[(0, 0)] = z0;
        for j in 1..n {
            a[(0, j)] = coupling[j - 1];
        }
        a.set_block(1, 1, &rest);
        let b = Matrix::vstack(&Matrix::from_fn(1, b.cols(), |_, j| 1.0 + j as f64), &b).unwrap();
        let c = Matrix::from_fn(c.rows(), n, |i, j| if j == 0 { 0.5 + i as f64 } else { c[(i, j - 1)] });
        let mut sweep = FrequencySweep::new(&a, &b, &c, &d).unwrap();
        prop_assert!(matches!(sweep.response(omega), Err(LinalgError::Singular)));
        prop_assert!(matches!(dense_sigma(&a, &b, &c, &d, omega), Err(LinalgError::Singular)));
        // Away from the pole both evaluate, and agree.
        let worst = worst_disagreement(&a, &b, &c, &d, &[0.5, 1.5, 2.5]);
        prop_assert!(worst < 1e-12, "relative sigma_max disagreement {worst:e}");
    }
}
