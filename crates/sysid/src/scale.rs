//! Signal normalization.
//!
//! The plant's physical units are wildly mismatched — frequency in GHz,
//! power in watts, IPS in billions, cache level as a small integer. Least
//! squares over raw units produces badly conditioned regressors, and LQG
//! weights lose their paper-specified meaning. The identification and
//! control layers therefore work in *normalized deviation coordinates*:
//! each channel is mapped affinely so that its operating range becomes
//! roughly `[-1, 1]` around the operating point.

use mimo_linalg::storage::Dim;
use mimo_linalg::{with_dim, Vector};

use crate::{SampleView, SampleViewMut};

/// Removes a centered moving mean from a signal record.
///
/// Black-box identification across several applications (or across program
/// phases) sees large, slow output shifts that are *not* caused by the
/// inputs; regressing on the raw record lets those shifts masquerade as
/// strong state dynamics and corrupts the estimated gains (even their
/// signs). Subtracting a moving mean whose window sits far above the
/// excitation hold times and far below the phase durations removes the
/// drift while preserving the input-driven content.
///
/// The window is clamped at the record edges. `window` is rounded up to an
/// odd length. The record is detrended in place: the moving means come from
/// per-channel prefix sums of the original samples (summed in sample
/// order, held sample-major in one buffer), taken before any sample is
/// changed.
pub fn remove_moving_mean(mut seq: SampleViewMut<'_>, window: usize) {
    if seq.is_empty() {
        return;
    }
    let half = (window.max(1) | 1) / 2; // odd window
    let dim = seq.channels();
    with_dim!(dim, [2, 3], |d| subtract_moving_mean(
        d,
        seq.as_flat_mut(),
        half
    ));
}

/// [`remove_moving_mean`] on the sample-major record `seq` of `dim`-wide
/// samples, for a window of `2·half + 1` samples.
fn subtract_moving_mean<D: Dim>(dim: D, seq: &mut [f64], half: usize) {
    let dim = dim.get();
    let n = seq.len() / dim;
    // Prefix sums for O(n) moving means: entry `t·dim + c` is the sum of
    // channel `c` over samples `0..t`.
    let mut prefix = vec![0.0_f64; (n + 1) * dim];
    for (t, v) in seq.chunks_exact(dim).enumerate() {
        let (done, next) = prefix.split_at_mut((t + 1) * dim);
        for ((p, &q), &x) in next[..dim].iter_mut().zip(&done[t * dim..]).zip(v) {
            *p = q + x;
        }
    }
    for (t, v) in seq.chunks_exact_mut(dim).enumerate() {
        let lo = t.saturating_sub(half);
        let hi = (t + half + 1).min(n);
        let count = (hi - lo) as f64;
        let (below, upto) = (&prefix[lo * dim..][..dim], &prefix[hi * dim..][..dim]);
        for ((x, &h), &l) in v.iter_mut().zip(upto).zip(below) {
            *x -= (h - l) / count;
        }
    }
}

/// Per-channel affine map `normalized = (raw - offset) / span`.
///
/// # Example
///
/// ```
/// use mimo_sysid::scale::ChannelScaler;
/// use mimo_linalg::Vector;
///
/// // Frequency channel 0.5..2.0 GHz, power channel 0..4 W.
/// let s = ChannelScaler::from_ranges(&[(0.5, 2.0), (0.0, 4.0)]);
/// let norm = s.normalize(&Vector::from_slice(&[1.25, 2.0]));
/// assert!(norm[0].abs() < 1e-12); // midpoint maps to 0
/// assert!(norm[1].abs() < 1e-12);
/// let raw = s.denormalize(&norm);
/// assert!((raw[0] - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelScaler {
    offset: Vec<f64>,
    span: Vec<f64>,
}

impl ChannelScaler {
    /// Builds a scaler from explicit `(offset, span)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any span is zero or non-finite.
    pub fn new(offset: Vec<f64>, span: Vec<f64>) -> Self {
        assert_eq!(offset.len(), span.len(), "offset/span length mismatch");
        assert!(
            span.iter().all(|s| s.is_finite() && *s != 0.0),
            "spans must be nonzero and finite"
        );
        ChannelScaler { offset, span }
    }

    /// Builds a scaler from `(lo, hi)` ranges: the midpoint becomes the
    /// offset and half the range becomes the span, so the range maps onto
    /// `[-1, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if any range is degenerate (`hi <= lo`).
    pub fn from_ranges(ranges: &[(f64, f64)]) -> Self {
        let mut offset = Vec::with_capacity(ranges.len());
        let mut span = Vec::with_capacity(ranges.len());
        for &(lo, hi) in ranges {
            assert!(hi > lo, "degenerate range ({lo}, {hi})");
            offset.push(0.5 * (lo + hi));
            span.push(0.5 * (hi - lo));
        }
        ChannelScaler { offset, span }
    }

    /// Builds a scaler from recorded data: offset is the per-channel mean,
    /// span is the per-channel max deviation from it (or 1.0 for a channel
    /// that never moved).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn from_data(data: SampleView<'_>) -> Self {
        assert!(!data.is_empty(), "cannot infer scales from empty data");
        let channels = data.channels();
        with_dim!(channels, [2, 3], |d| Self::fit_record(d, data.as_flat()))
    }

    /// [`ChannelScaler::from_data`] on the sample-major record `data` of
    /// `dim`-wide samples.
    fn fit_record<D: Dim>(dim: D, data: &[f64]) -> Self {
        let dim = dim.get();
        let n = (data.len() / dim) as f64;
        let mut offset = vec![0.0; dim];
        for v in data.chunks_exact(dim) {
            for (o, x) in offset[..dim].iter_mut().zip(v) {
                *o += x;
            }
        }
        for o in &mut offset {
            *o /= n;
        }
        let mut span = vec![0.0_f64; dim];
        for v in data.chunks_exact(dim) {
            for ((s, x), o) in span[..dim].iter_mut().zip(v).zip(&offset[..dim]) {
                *s = s.max((x - o).abs());
            }
        }
        for s in &mut span {
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        ChannelScaler { offset, span }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.offset.len()
    }

    /// Maps a raw vector into normalized coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len()` differs from the channel count.
    pub fn normalize(&self, raw: &Vector) -> Vector {
        let mut out = Vector::zeros(raw.len());
        self.normalize_slices(raw.as_slice(), out.as_mut_slice());
        out
    }

    /// Maps a normalized vector back to raw units.
    ///
    /// # Panics
    ///
    /// Panics if `norm.len()` differs from the channel count.
    pub fn denormalize(&self, norm: &Vector) -> Vector {
        let mut out = Vector::zeros(norm.len());
        self.denormalize_slices(norm.as_slice(), out.as_mut_slice());
        out
    }

    /// Maps raw values into normalized coordinates, writing into `out`
    /// without allocating. Every normalizing method goes through one copy
    /// of the formula, so all of them agree bit for bit; callers whose
    /// buffers are fixed-size stack vectors use this one directly.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len()` or `out.len()` differs from the channel count.
    #[inline]
    pub fn normalize_slices(&self, raw: &[f64], out: &mut [f64]) {
        assert_eq!(raw.len(), self.channels(), "channel count mismatch");
        assert_eq!(out.len(), self.channels(), "channel count mismatch");
        for c in 0..raw.len() {
            out[c] = self.normalize_channel(c, raw[c]);
        }
    }

    /// Maps one raw value of channel `c` into normalized coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a channel.
    #[inline]
    pub fn normalize_channel(&self, c: usize, raw: f64) -> f64 {
        normalize_value(raw, self.offset[c], self.span[c])
    }

    /// Maps normalized values back to raw units, writing into `out`
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `norm.len()` or `out.len()` differs from the channel count.
    #[inline]
    pub fn denormalize_slices(&self, norm: &[f64], out: &mut [f64]) {
        assert_eq!(norm.len(), self.channels(), "channel count mismatch");
        assert_eq!(out.len(), self.channels(), "channel count mismatch");
        for c in 0..norm.len() {
            out[c] = self.denormalize_channel(c, norm[c]);
        }
    }

    /// Maps one normalized value of channel `c` back to raw units.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a channel.
    #[inline]
    pub fn denormalize_channel(&self, c: usize, norm: f64) -> f64 {
        denormalize_value(norm, self.offset[c], self.span[c])
    }

    /// Normalizes a whole record in place, bit-identical to
    /// [`ChannelScaler::normalize`] per sample.
    ///
    /// # Panics
    ///
    /// Panics if the record's width differs from the channel count.
    pub fn normalize_all(&self, seq: SampleViewMut<'_>) {
        self.map_record(seq, normalize_value);
    }

    /// Denormalizes a whole record in place, bit-identical to
    /// [`ChannelScaler::denormalize`] per sample.
    ///
    /// # Panics
    ///
    /// Panics if the record's width differs from the channel count.
    pub fn denormalize_all(&self, seq: SampleViewMut<'_>) {
        self.map_record(seq, denormalize_value);
    }

    /// Applies `f(value, offset, span)` to every value of `seq`, in place.
    #[inline(always)]
    fn map_record(&self, mut seq: SampleViewMut<'_>, f: impl Fn(f64, f64, f64) -> f64) {
        assert!(
            seq.is_empty() || seq.channels() == self.channels(),
            "channel count mismatch"
        );
        let flat = seq.as_flat_mut();
        with_dim!(self.channels(), [2, 3], |d| {
            let (offset, span) = (&self.offset[..d.get()], &self.span[..d.get()]);
            for v in flat.chunks_exact_mut(d.get()) {
                for ((x, &o), &s) in v.iter_mut().zip(offset).zip(span) {
                    *x = f(*x, o, s);
                }
            }
        });
    }
}

/// The one copy of the forward formula, `(raw − offset) / span`.
#[inline]
fn normalize_value(raw: f64, offset: f64, span: f64) -> f64 {
    (raw - offset) / span
}

/// The one copy of the inverse formula, `norm · span + offset`.
#[inline]
fn denormalize_value(norm: f64, offset: f64, span: f64) -> f64 {
    norm * span + offset
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Samples;

    #[test]
    fn round_trip() {
        let s = ChannelScaler::from_ranges(&[(0.5, 2.0), (16.0, 128.0)]);
        let raw = Vector::from_slice(&[0.7, 48.0]);
        let back = s.denormalize(&s.normalize(&raw));
        assert!((&back - &raw).norm_inf() < 1e-12);
    }

    #[test]
    fn range_maps_to_unit_interval() {
        let s = ChannelScaler::from_ranges(&[(0.5, 2.0)]);
        assert!((s.normalize(&Vector::from_slice(&[0.5]))[0] + 1.0).abs() < 1e-12);
        assert!((s.normalize(&Vector::from_slice(&[2.0]))[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_data_centers_on_mean() {
        let mut data = Samples::new(2);
        data.push(&[1.0, 10.0]);
        data.push(&[3.0, 10.0]);
        let s = ChannelScaler::from_data(data.view());
        assert!(s.normalize_channel(0, 2.0).abs() < 1e-12);
        // Channel 1 never moved: span defaults to 1.0.
        assert_eq!(s.denormalize_channel(1, 1.0), 11.0);
        let n = s.normalize(&Vector::from_slice(&[3.0, 10.0]));
        assert!((n[0] - 1.0).abs() < 1e-12);
        assert_eq!(n[1], 0.0);
    }

    #[test]
    fn normalize_all_applies_elementwise() {
        let s = ChannelScaler::from_ranges(&[(0.0, 2.0)]);
        let mut seq = Samples::from_fn(2, 1, |t, _| 2.0 * t as f64);
        s.normalize_all(seq.view_mut());
        assert_eq!(seq.as_flat(), &[-1.0, 1.0]);
        s.denormalize_all(seq.view_mut());
        assert_eq!(seq.sample(1)[0], 2.0);
    }

    #[test]
    #[should_panic(expected = "degenerate range")]
    fn rejects_degenerate_range() {
        let _ = ChannelScaler::from_ranges(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "channel count mismatch")]
    fn rejects_wrong_width() {
        let s = ChannelScaler::from_ranges(&[(0.0, 1.0)]);
        let _ = s.normalize(&Vector::from_slice(&[0.0, 1.0]));
    }
}

#[cfg(test)]
mod detrend_tests {
    use super::*;
    use crate::Samples;

    #[test]
    fn removes_constant_offset() {
        let mut seq = Samples::from_fn(100, 1, |_, _| 5.0);
        remove_moving_mean(seq.view_mut(), 11);
        assert!(seq.iter().all(|v| v[0].abs() < 1e-12));
    }

    #[test]
    fn preserves_fast_content_removes_slow_step() {
        // Slow step at t=200 plus fast ±1 square wave of period 10.
        let mut out = Samples::from_fn(400, 1, |t, _| {
            let slow = if t < 200 { 0.0 } else { 10.0 };
            let fast = if (t / 5) % 2 == 0 { 1.0 } else { -1.0 };
            slow + fast
        });
        remove_moving_mean(out.view_mut(), 101);
        let at = |t: usize| out.sample(t)[0];
        // Away from the step, the fast wave survives nearly intact.
        assert!((at(100).abs() - 1.0).abs() < 0.1, "{}", at(100));
        assert!((at(300).abs() - 1.0).abs() < 0.1);
        // The slow 10.0 offset is gone in the second half interior.
        assert!(at(350).abs() < 1.5);
    }

    #[test]
    fn empty_input_ok() {
        remove_moving_mean(Samples::new(2).view_mut(), 11);
    }

    #[test]
    fn window_one_zeroes_everything() {
        let mut seq = Samples::from_fn(5, 1, |_, _| 3.0);
        remove_moving_mean(seq.view_mut(), 1);
        assert!(seq.iter().all(|v| v[0].abs() < 1e-12));
    }

    #[test]
    fn in_place_matches_the_allocating_form_bitwise() {
        // A literal copy of the allocating detrend + normalize chain the
        // in-place forms replaced.
        fn allocating(seq: &[Vector], window: usize) -> Vec<Vector> {
            let dim = seq[0].len();
            let w = window.max(1) | 1;
            let half = w / 2;
            let n = seq.len();
            let mut prefix = vec![vec![0.0_f64; n + 1]; dim];
            for (t, v) in seq.iter().enumerate() {
                for c in 0..dim {
                    prefix[c][t + 1] = prefix[c][t] + v[c];
                }
            }
            (0..n)
                .map(|t| {
                    let lo = t.saturating_sub(half);
                    let hi = (t + half + 1).min(n);
                    Vector::from_fn(dim, |c| {
                        let mean = (prefix[c][hi] - prefix[c][lo]) / (hi - lo) as f64;
                        seq[t][c] - mean
                    })
                })
                .collect()
        }
        let raw = Samples::from_fn(500, 2, |t, c| {
            let x = t as f64;
            if c == 0 {
                (x * 0.37).sin() * 1.7 + 2.4
            } else {
                40.0 + (x * 0.011).cos() * 9.0
            }
        });
        let s = ChannelScaler::from_data(raw.view());
        let normed: Vec<Vector> = raw
            .iter()
            .map(|v| s.normalize(&Vector::from_slice(v)))
            .collect();
        let want = allocating(&normed, 201);
        let mut got = raw.clone();
        s.normalize_all(got.view_mut());
        remove_moving_mean(got.view_mut(), 201);
        for (g, w) in got.iter().zip(&want) {
            for c in 0..2 {
                assert_eq!(g[c].to_bits(), w[c].to_bits());
            }
        }
        let mut back = Samples::new(2);
        for n in &normed {
            back.push(n.as_slice());
        }
        s.denormalize_all(back.view_mut());
        for (b, n) in back.iter().zip(&normed) {
            let d = s.denormalize(n);
            assert_eq!(b, d.as_slice());
        }
    }
}
