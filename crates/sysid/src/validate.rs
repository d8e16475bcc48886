//! Model validation: a model's free-run error against measured outputs.
//!
//! §IV-B4: "we validate the model by running additional, highly compute-
//! and highly memory-intensive applications on both the model and on the
//! real system, and compare the results. Based on the difference, we
//! roughly estimate the uncertainty of the model." The maximum per-output
//! relative error measured here is what the paper multiplies by 3 to set
//! the uncertainty guardbands (§VI-A2). Figure 7 reports it per model
//! dimension, sweeping the order through `DesignFlow::with_arx_na` in
//! `mimo-core`.

use mimo_linalg::Vector;

use crate::{Result, SysidError};

/// Per-output validation metrics from comparing a model's free-run
/// simulation against measured outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Maximum relative error per output channel, in percent.
    pub max_rel_error_pct: Vec<f64>,
    /// Mean relative error per output channel, in percent.
    pub mean_rel_error_pct: Vec<f64>,
    /// NRMSE fit per output channel, in percent (100 = perfect). This is
    /// MATLAB's `compare`-style goodness of fit
    /// `100 · (1 − ‖y − ŷ‖ / ‖y − mean(y)‖)`.
    pub fit_pct: Vec<f64>,
}

impl ValidationReport {
    /// The single worst `max_rel_error_pct` across outputs.
    pub fn worst_error_pct(&self) -> f64 {
        self.max_rel_error_pct.iter().copied().fold(0.0, f64::max)
    }
}

/// Compares measured outputs against model predictions.
///
/// Relative errors are normalized by the per-channel mean absolute measured
/// value (with a small floor), matching the paper's "on average X% off"
/// language. Errors are averaged/maximized over a moving window of
/// `window` samples to measure *sustained* mis-prediction rather than
/// single-sample noise; pass `window = 1` for raw per-sample errors.
///
/// # Errors
///
/// Returns [`SysidError::InconsistentData`] if the sequences differ in
/// length or dimension, or [`SysidError::NotEnoughData`] if they are empty.
pub fn compare(
    measured: &[Vector],
    predicted: &[Vector],
    window: usize,
) -> Result<ValidationReport> {
    if measured.len() != predicted.len() {
        return Err(SysidError::InconsistentData {
            what: format!(
                "measured has {} samples, predicted has {}",
                measured.len(),
                predicted.len()
            ),
        });
    }
    if measured.is_empty() {
        return Err(SysidError::NotEnoughData { have: 0, need: 1 });
    }
    let o = measured[0].len();
    if measured.iter().chain(predicted).any(|v| v.len() != o) {
        return Err(SysidError::InconsistentData {
            what: "ragged output dimensions".into(),
        });
    }
    let w = window.max(1);
    let n = measured.len();

    let mut max_rel = vec![0.0_f64; o];
    let mut sum_rel = vec![0.0_f64; o];
    let mut n_windows = 0usize;

    // Per-channel normalization: mean |y|.
    let mut norm = vec![0.0_f64; o];
    for m in measured {
        for c in 0..o {
            norm[c] += m[c].abs();
        }
    }
    for v in &mut norm {
        *v = (*v / n as f64).max(1e-9);
    }

    let mut start = 0;
    while start < n {
        let end = (start + w).min(n);
        for c in 0..o {
            let mut err = 0.0;
            for t in start..end {
                err += measured[t][c] - predicted[t][c];
            }
            let rel = (err / (end - start) as f64).abs() / norm[c] * 100.0;
            max_rel[c] = max_rel[c].max(rel);
            sum_rel[c] += rel;
        }
        n_windows += 1;
        start = end;
    }
    let mean_rel: Vec<f64> = sum_rel.iter().map(|s| s / n_windows as f64).collect();

    // NRMSE fit.
    let mut fit = vec![0.0_f64; o];
    for c in 0..o {
        let mean_y: f64 = measured.iter().map(|v| v[c]).sum::<f64>() / n as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for t in 0..n {
            num += (measured[t][c] - predicted[t][c]).powi(2);
            den += (measured[t][c] - mean_y).powi(2);
        }
        fit[c] = if den > 0.0 {
            100.0 * (1.0 - (num / den).sqrt())
        } else if num == 0.0 {
            100.0
        } else {
            0.0
        };
    }

    Ok(ValidationReport {
        max_rel_error_pct: max_rel,
        mean_rel_error_pct: mean_rel,
        fit_pct: fit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_system(steps: usize, phase: u64) -> (Vec<Vector>, Vec<Vector>) {
        // Second-order SISO truth with mild noise.
        let mut u = Vec::new();
        let mut y = Vec::new();
        let (mut y1, mut y2, mut u1) = (0.0, 0.0, 0.0);
        for t in 0..steps {
            let ut = (((t as u64 * 2654435761 + phase * 97) % 9) as f64) / 4.0 - 1.0;
            let noise = (((t as u64 * 40503 + phase) % 1000) as f64 / 1000.0 - 0.5) * 0.01;
            let yt = 0.6 * y1 - 0.08 * y2 + 0.8 * u1 + noise;
            u.push(Vector::from_slice(&[ut]));
            y.push(Vector::from_slice(&[yt]));
            y2 = y1;
            y1 = yt;
            u1 = ut;
        }
        (u, y)
    }

    #[test]
    fn perfect_prediction_scores_100() {
        let (_, y) = gen_system(100, 1);
        let r = compare(&y, &y, 1).unwrap();
        assert!(r.worst_error_pct() < 1e-9);
        assert!(r.fit_pct.iter().all(|&f| (f - 100.0).abs() < 1e-9));
    }

    #[test]
    fn constant_offset_detected() {
        let (_, y) = gen_system(100, 2);
        let off: Vec<Vector> = y.iter().map(|v| v + &Vector::filled(1, 0.5)).collect();
        let r = compare(&y, &off, 1).unwrap();
        assert!(r.worst_error_pct() > 10.0);
        assert!(r.fit_pct[0] < 100.0);
    }

    #[test]
    fn windowed_errors_smooth_noise() {
        let (_, y) = gen_system(400, 3);
        // Alternating ±1 noise cancels in windows.
        let noisy: Vec<Vector> = y
            .iter()
            .enumerate()
            .map(|(t, v)| v + &Vector::filled(1, if t % 2 == 0 { 0.3 } else { -0.3 }))
            .collect();
        let raw = compare(&y, &noisy, 1).unwrap();
        let smooth = compare(&y, &noisy, 10).unwrap();
        assert!(smooth.worst_error_pct() < raw.worst_error_pct());
    }

    #[test]
    fn compare_rejects_mismatch() {
        let a = vec![Vector::zeros(1); 5];
        let b = vec![Vector::zeros(1); 4];
        assert!(compare(&a, &b, 1).is_err());
        assert!(compare(&[], &[], 1).is_err());
    }
}
