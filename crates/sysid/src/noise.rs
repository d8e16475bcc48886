//! Estimation of the "unpredictability matrices".
//!
//! §IV-B3: the least-squares identification also produces two matrices —
//! one encapsulating the non-determinism of the system (branches,
//! interrupts, page faults perturbing the *state*) and one encapsulating
//! sensor noise perturbing the *outputs*. In our ARX-innovations setting
//! both are derived from the one-step-ahead residuals `e(t)`:
//!
//! * the innovation covariance `Σe = cov(e)` is split by a designer-chosen
//!   ratio into a process part and a measurement part;
//! * the process part enters the state only through the `y(t)` rows of the
//!   stacked-history state (the rest of the state is a deterministic shift
//!   register), giving `W = E_y (α Σe) E_yᵀ`;
//! * the measurement part is `V = (1−α) Σe` plus a small floor that keeps
//!   the Kalman filter well posed.

use mimo_linalg::storage::Dim;
use mimo_linalg::{with_dim, Matrix};

use crate::{Result, SampleView, SysidError};

/// Sample covariance of a record: the mean summed in sample order and
/// scaled by `1/n`, then the outer products of the deviations summed in
/// sample order and scaled by `1/(n−1)`.
///
/// # Errors
///
/// Returns [`SysidError::NotEnoughData`] for fewer than 2 samples.
pub fn covariance(samples: SampleView<'_>) -> Result<Matrix> {
    if samples.len() < 2 {
        return Err(SysidError::NotEnoughData {
            have: samples.len(),
            need: 2,
        });
    }
    let dim = samples.channels();
    let cov = with_dim!(dim, [2, 3], |d| covariance_sums(d, samples.as_flat()));
    Ok(Matrix::from_vec(dim, dim, cov))
}

/// [`covariance`]'s row-major `dim × dim` entries for the sample-major
/// record `samples` of `dim`-wide samples.
fn covariance_sums<D: Dim>(dim: D, samples: &[f64]) -> Vec<f64> {
    let dim = dim.get();
    let n = (samples.len() / dim) as f64;
    let mut mean = vec![0.0; dim];
    for s in samples.chunks_exact(dim) {
        for (m, x) in mean[..dim].iter_mut().zip(s) {
            *m += x;
        }
    }
    let inv_n = 1.0 / n;
    for m in &mut mean {
        *m *= inv_n;
    }
    // One row of sums per deviation entry.
    let mut cov = vec![0.0; dim * dim];
    let mut d = vec![0.0; dim];
    for s in samples.chunks_exact(dim) {
        for ((d, x), m) in d[..dim].iter_mut().zip(s).zip(&mean[..dim]) {
            *d = x - m;
        }
        for (row, &di) in cov[..dim * dim].chunks_exact_mut(dim).zip(&d[..dim]) {
            for (c, &dj) in row.iter_mut().zip(&d[..dim]) {
                *c += di * dj;
            }
        }
    }
    let inv = 1.0 / (n - 1.0);
    for c in &mut cov {
        *c *= inv;
    }
    cov
}

/// The two unpredictability matrices of the paper, plus the raw innovation
/// covariance they were derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseEstimate {
    /// Process-noise covariance `W` (`N x N`), perturbing the state.
    pub process: Matrix,
    /// Measurement-noise covariance `V` (`O x O`), perturbing the outputs.
    pub measurement: Matrix,
    /// Innovation covariance `Σe` (`O x O`) of the one-step residuals.
    pub innovation: Matrix,
}

/// Derives the unpredictability matrices from ARX residuals.
///
/// * `residuals` — one-step-ahead residuals from the fit.
/// * `state_dim` — dimension `N` of the state-space realization.
/// * `process_fraction` — `α ∈ [0, 1]`, the share of the innovation
///   variance attributed to system non-determinism rather than sensor
///   noise. The paper leaves this split to the designer; 0.5 is a neutral
///   default.
///
/// # Errors
///
/// Returns [`SysidError::NotEnoughData`] with fewer than 2 residuals, and
/// [`SysidError::InconsistentData`] if `state_dim` is smaller than the
/// output count or `process_fraction` is outside `[0, 1]`.
pub fn estimate_noise(
    residuals: SampleView<'_>,
    state_dim: usize,
    process_fraction: f64,
) -> Result<NoiseEstimate> {
    if !(0.0..=1.0).contains(&process_fraction) {
        return Err(SysidError::InconsistentData {
            what: format!("process_fraction {process_fraction} outside [0, 1]"),
        });
    }
    let innovation = covariance(residuals)?;
    let o = innovation.rows();
    if state_dim < o {
        return Err(SysidError::InconsistentData {
            what: format!("state_dim {state_dim} smaller than output count {o}"),
        });
    }
    // Floor keeps covariances positive definite even for perfect fits.
    let floor = 1e-9;
    let sigma_scaled = innovation.scale(process_fraction);
    let mut process = Matrix::zeros(state_dim, state_dim);
    process.set_block(0, 0, &sigma_scaled);
    for i in 0..state_dim {
        process[(i, i)] += floor;
    }
    let mut measurement = innovation.scale(1.0 - process_fraction);
    for i in 0..o {
        measurement[(i, i)] += floor;
    }
    Ok(NoiseEstimate {
        process,
        measurement,
        innovation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Samples;

    fn noisy_residuals(n: usize, s0: f64, s1: f64) -> Samples {
        // Deterministic pseudo-noise with per-channel std s0, s1.
        let mut r = Samples::with_capacity(n, 2);
        for t in 0..n {
            let a = (((t * 2654435761) % 1000) as f64 / 1000.0 - 0.5) * 3.464; // ~unit variance
            let b = (((t * 40503 + 17) % 1000) as f64 / 1000.0 - 0.5) * 3.464;
            r.push(&[a * s0, b * s1]);
        }
        r
    }

    #[test]
    fn covariance_of_known_data() {
        let samples = Samples::from_fn(4, 2, |t, c| {
            if c == 0 && t % 2 == 1 {
                -1.0
            } else {
                1.0 - c as f64
            }
        });
        let c = covariance(samples.view()).unwrap();
        // Variance of ±1 = 4/3 with n-1 normalization; channel 1 is 0.
        assert!((c[(0, 0)] - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(c[(1, 1)], 0.0);
        assert_eq!(c[(0, 1)], 0.0);
    }

    #[test]
    fn covariance_requires_two_samples() {
        let one = Samples::zeros(1, 2);
        assert!(matches!(
            covariance(one.view()),
            Err(SysidError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn covariance_scales_quadratically() {
        let r1 = noisy_residuals(2000, 1.0, 2.0);
        let c = covariance(r1.view()).unwrap();
        assert!(
            c[(1, 1)] > 2.0 * c[(0, 0)],
            "c00={} c11={}",
            c[(0, 0)],
            c[(1, 1)]
        );
    }

    #[test]
    fn split_respects_fraction() {
        let r = noisy_residuals(500, 1.0, 1.0);
        let est = estimate_noise(r.view(), 4, 0.25).unwrap();
        // W top-left block ≈ 0.25 Σe; V ≈ 0.75 Σe.
        let w00 = est.process[(0, 0)];
        let v00 = est.measurement[(0, 0)];
        let s00 = est.innovation[(0, 0)];
        assert!((w00 - 0.25 * s00).abs() < 1e-6 + 1e-8);
        assert!((v00 - 0.75 * s00).abs() < 1e-6 + 1e-8);
    }

    #[test]
    fn process_noise_only_in_output_rows() {
        let r = noisy_residuals(500, 1.0, 1.0);
        let est = estimate_noise(r.view(), 6, 0.5).unwrap();
        assert_eq!(est.process.shape(), (6, 6));
        // Rows/cols beyond the first O=2 hold only the tiny floor.
        for i in 2..6 {
            for j in 0..6 {
                if i == j {
                    assert!(est.process[(i, j)] <= 1e-8);
                } else {
                    assert_eq!(est.process[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn perfect_fit_still_positive_definite() {
        let r = Samples::zeros(100, 2);
        let est = estimate_noise(r.view(), 4, 0.5).unwrap();
        // Diagonal floor present.
        for i in 0..4 {
            assert!(est.process[(i, i)] > 0.0);
        }
        for i in 0..2 {
            assert!(est.measurement[(i, i)] > 0.0);
        }
    }

    #[test]
    fn rejects_bad_fraction_and_dims() {
        let r = noisy_residuals(100, 1.0, 1.0);
        assert!(estimate_noise(r.view(), 4, 1.5).is_err());
        assert!(estimate_noise(r.view(), 1, 0.5).is_err());
    }
}
