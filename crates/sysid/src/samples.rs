//! Recorded signals as one contiguous, sample-major buffer.
//!
//! Identification handles thousands of short vectors: the excitation's
//! inputs, the measured outputs, the fit's residuals, a model's free-run
//! predictions. [`Samples`] keeps a whole record in one `Vec<f64>` with
//! sample `t` at `data[t·channels .. (t+1)·channels]`, so recording,
//! scaling, regression and validation touch one buffer per record instead
//! of one heap vector per epoch.

use std::ops::Range;
use std::slice::{ChunksExact, ChunksExactMut};

/// A record of [`len`](Samples::len) samples of
/// [`channels`](Samples::channels) values each, stored sample-major.
///
/// `D` is the storage: `Vec<f64>` for an owned record, `&[f64]` for a
/// borrowed view ([`SampleView`]) and `&mut [f64]` for a mutable one
/// ([`SampleViewMut`]). [`Samples::range`] and [`Samples::range_mut`]
/// borrow a run of consecutive samples without copying.
///
/// # Example
///
/// ```
/// use mimo_sysid::Samples;
///
/// let mut s = Samples::new(2);
/// s.push(&[1.0, 10.0]);
/// s.push(&[2.0, 20.0]);
/// s.push(&[3.0, 30.0]);
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.sample(1), &[2.0, 20.0]);
/// let tail = s.range(1..3);
/// assert_eq!(tail.iter().map(|x| x[1]).sum::<f64>(), 50.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Samples<D = Vec<f64>> {
    data: D,
    channels: usize,
}

/// A borrowed, read-only run of samples.
pub type SampleView<'a> = Samples<&'a [f64]>;

/// A borrowed, writable run of samples.
pub type SampleViewMut<'a> = Samples<&'a mut [f64]>;

impl Samples {
    /// An empty record of `channels`-wide samples.
    pub fn new(channels: usize) -> Self {
        Self::with_capacity(0, channels)
    }

    /// An empty record with room for `len` samples.
    pub fn with_capacity(len: usize, channels: usize) -> Self {
        Samples {
            data: Vec::with_capacity(channels * len),
            channels,
        }
    }

    /// `len` all-zero samples.
    pub fn zeros(len: usize, channels: usize) -> Self {
        Samples {
            data: vec![0.0; len * channels],
            channels,
        }
    }

    /// `len` samples with value `f(t, c)` at sample `t`, channel `c`,
    /// evaluated in sample order.
    pub fn from_fn(len: usize, channels: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut s = Self::zeros(len, channels);
        for (t, sample) in s.iter_mut().enumerate() {
            for (c, x) in sample.iter_mut().enumerate() {
                *x = f(t, c);
            }
        }
        s
    }

    /// Appends one sample.
    ///
    /// # Panics
    ///
    /// Panics if `sample.len()` differs from the channel count.
    pub fn push(&mut self, sample: &[f64]) {
        assert_eq!(sample.len(), self.channels, "sample width mismatch");
        self.data.extend_from_slice(sample);
    }

    /// Appends every sample of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the two records' widths differ.
    pub fn extend_from(&mut self, other: SampleView<'_>) {
        assert_eq!(self.channels, other.channels, "sample width mismatch");
        self.data.extend_from_slice(other.data);
    }

    /// Reserves room for `additional` more samples.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional * self.channels);
    }

    /// Removes every sample, keeping the width and the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

impl<D: AsRef<[f64]>> Samples<D> {
    /// Values per sample.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.data.as_ref().len() / self.channels.max(1)
    }

    /// Whether the record holds no samples.
    pub fn is_empty(&self) -> bool {
        self.data.as_ref().is_empty()
    }

    /// Sample `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    pub fn sample(&self, t: usize) -> &[f64] {
        &self.data.as_ref()[t * self.channels..(t + 1) * self.channels]
    }

    /// The samples in order, one slice each.
    pub fn iter(&self) -> ChunksExact<'_, f64> {
        self.data.as_ref().chunks_exact(self.channels.max(1))
    }

    /// The whole sample-major buffer.
    pub fn as_flat(&self) -> &[f64] {
        self.data.as_ref()
    }

    /// Borrows every sample.
    pub fn view(&self) -> SampleView<'_> {
        Samples {
            data: self.data.as_ref(),
            channels: self.channels,
        }
    }

    /// Borrows samples `range.start .. range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past `len()`.
    pub fn range(&self, range: Range<usize>) -> SampleView<'_> {
        let c = self.channels;
        Samples {
            data: &self.data.as_ref()[range.start * c..range.end * c],
            channels: c,
        }
    }
}

impl<D: AsRef<[f64]> + AsMut<[f64]>> Samples<D> {
    /// The samples in order, one writable slice each.
    pub fn iter_mut(&mut self) -> ChunksExactMut<'_, f64> {
        let c = self.channels.max(1);
        self.data.as_mut().chunks_exact_mut(c)
    }

    /// The whole sample-major buffer, writable.
    pub fn as_flat_mut(&mut self) -> &mut [f64] {
        self.data.as_mut()
    }

    /// Borrows every sample, writable.
    pub fn view_mut(&mut self) -> SampleViewMut<'_> {
        Samples {
            data: self.data.as_mut(),
            channels: self.channels,
        }
    }

    /// Borrows samples `range.start .. range.end`, writable.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past `len()`.
    pub fn range_mut(&mut self, range: Range<usize>) -> SampleViewMut<'_> {
        let c = self.channels;
        Samples {
            data: &mut self.data.as_mut()[range.start * c..range.end * c],
            channels: c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_sample_major() {
        let s = Samples::from_fn(3, 2, |t, c| (10 * t + c) as f64);
        assert_eq!(s.as_flat(), &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.channels(), 2);
        assert_eq!(s.sample(2), &[20.0, 21.0]);
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn ranges_borrow_consecutive_samples() {
        let mut s = Samples::from_fn(5, 1, |t, _| t as f64);
        assert_eq!(s.range(1..4).as_flat(), &[1.0, 2.0, 3.0]);
        for x in s.range_mut(3..5).iter_mut() {
            x[0] = -x[0];
        }
        assert_eq!(s.as_flat(), &[0.0, 1.0, 2.0, -3.0, -4.0]);
        assert!(s.range(2..2).is_empty());
    }

    #[test]
    fn records_append_and_clear_at_their_width() {
        let mut s = Samples::new(3);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        s.push(&[1.0, 2.0, 3.0]);
        assert_eq!(s.channels(), 3);
        let mut t = Samples::with_capacity(2, 3);
        t.extend_from(s.view());
        t.extend_from(s.view());
        assert_eq!(t.len(), 2);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.channels(), 3);
    }

    #[test]
    #[should_panic(expected = "sample width mismatch")]
    fn push_rejects_a_wrong_width() {
        let mut s = Samples::new(2);
        s.push(&[1.0]);
    }
}
