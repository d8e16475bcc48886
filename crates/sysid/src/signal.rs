//! Excitation signals for black-box identification.
//!
//! §IV-B1: "We apply waveforms with special patterns at the inputs of the
//! system, and monitor the waveforms at the outputs." Identification quality
//! hinges on *persistently exciting* inputs: every actuator must visit many
//! of its settings, at multiple rates, without synchronizing with the other
//! actuators. The three classic patterns provided here are:
//!
//! * [`prbs`] — pseudo-random binary sequences from a maximal-length LFSR,
//!   the workhorse of system identification.
//! * [`staircase`] — slow sweeps across the full actuator range, exposing
//!   DC gains and saturation.
//! * [`multilevel`] — pseudo-random multi-level sequences that visit
//!   intermediate settings, exposing nonlinearity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{SampleViewMut, Samples};

/// A generated excitation: one value per time step per input channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Excitation {
    /// Sample `t` is the input vector applied at epoch `t`.
    samples: Samples,
}

impl Excitation {
    /// Wraps a raw sample sequence.
    pub fn new(samples: Samples) -> Self {
        Excitation { samples }
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if the excitation has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of input channels (0 for an empty excitation).
    pub fn channels(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.samples.channels()
        }
    }

    /// Borrows the sample at step `t`.
    pub fn sample(&self, t: usize) -> &[f64] {
        self.samples.sample(t)
    }

    /// Borrows all samples.
    pub fn samples(&self) -> &Samples {
        &self.samples
    }

    /// Concatenates two excitations with the same channel count.
    ///
    /// # Panics
    ///
    /// Panics if the channel counts differ (and neither is empty).
    pub fn then(mut self, other: Excitation) -> Excitation {
        if self.is_empty() {
            return other;
        }
        if !other.is_empty() {
            assert_eq!(
                self.channels(),
                other.channels(),
                "cannot concatenate excitations with different channel counts"
            );
            self.samples.extend_from(other.samples.view());
        }
        self
    }

    /// Fraction of steps on which channel `ch` changes value — a quick
    /// persistence-of-excitation diagnostic.
    pub fn switching_rate(&self, ch: usize) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let switches = (1..self.samples.len())
            .filter(|&t| self.samples.sample(t - 1)[ch] != self.samples.sample(t)[ch])
            .count();
        switches as f64 / (self.samples.len() - 1) as f64
    }

    /// Number of distinct values channel `ch` visits (up to float equality).
    pub fn distinct_levels(&self, ch: usize) -> usize {
        let mut seen: Vec<f64> = Vec::new();
        for s in self.samples.iter() {
            let v = s[ch];
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen.len()
    }
}

/// Generates a multi-channel PRBS excitation.
///
/// Each channel is an independent maximal-length LFSR sequence that holds
/// its value for `hold` steps (controls the excitation bandwidth) and
/// switches between `lo[ch]` and `hi[ch]`. Channels use different seeds so
/// they do not correlate.
///
/// # Panics
///
/// Panics if `lo.len() != hi.len()`, if there are no channels, or if
/// `hold == 0`.
pub fn prbs(steps: usize, lo: &[f64], hi: &[f64], hold: usize, seed: u64) -> Excitation {
    let mut samples = Samples::zeros(steps, lo.len());
    prbs_into(samples.view_mut(), lo, hi, hold, seed);
    Excitation::new(samples)
}

/// [`prbs`] written into `samples`, one step per sample.
fn prbs_into(samples: SampleViewMut<'_>, lo: &[f64], hi: &[f64], hold: usize, seed: u64) {
    assert_eq!(lo.len(), hi.len(), "lo/hi must list every channel");
    assert!(!lo.is_empty(), "need at least one channel");
    assert!(hold > 0, "hold must be positive");
    let channels = lo.len();
    // One 16-bit Galois LFSR per channel, distinct nonzero seeds.
    let mut lfsr: Vec<u16> = (0..channels)
        .map(|c| {
            let s = (seed ^ (0x9E37 + 0x1DB3 * c as u64)) as u16;
            if s == 0 {
                0xACE1
            } else {
                s
            }
        })
        .collect();
    let mut bits: Vec<bool> = lfsr.iter().map(|&s| s & 1 == 1).collect();
    fill_held(samples, hold, |k, current| {
        if k > 0 {
            for (l, bit) in lfsr.iter_mut().zip(&mut bits) {
                // Galois LFSR with taps 16,15,13,4 (maximal length).
                let lsb = *l & 1 == 1;
                *l >>= 1;
                if lsb {
                    *l ^= 0xB400;
                }
                *bit = lsb;
            }
        }
        for (c, x) in current.iter_mut().enumerate() {
            *x = if bits[c] { hi[c] } else { lo[c] };
        }
    });
}

/// Writes `samples` in blocks of `hold` samples (the last may be
/// shorter), every sample of block `k` a copy of the values
/// `next(k, values)` leaves, one per channel, before the block is written.
fn fill_held(mut samples: SampleViewMut<'_>, hold: usize, mut next: impl FnMut(usize, &mut [f64])) {
    let channels = samples.channels();
    let mut current = vec![0.0; channels];
    let blocks = samples.as_flat_mut().chunks_mut(hold * channels.max(1));
    for (k, block) in blocks.enumerate() {
        next(k, &mut current);
        for (c, &v) in current.iter().enumerate() {
            for x in block[c..].iter_mut().step_by(channels) {
                *x = v;
            }
        }
    }
}

/// Panics unless `lo`, `hi` and `levels` list the same channels, each
/// with at least 2 levels.
fn check_levels(lo: &[f64], hi: &[f64], levels: &[usize]) {
    assert!(
        lo.len() == hi.len() && lo.len() == levels.len(),
        "channel count mismatch"
    );
    assert!(
        levels.iter().all(|&l| l >= 2),
        "each channel needs >= 2 levels"
    );
}

/// Generates a staircase sweep: each channel steps through `levels[ch]`
/// equally spaced values from `lo` to `hi` and back down, dwelling `dwell`
/// steps per level. Channels sweep at co-prime-ish phase offsets so they do
/// not move in lockstep.
///
/// # Panics
///
/// Panics if `lo`, `hi`, and `levels` disagree in length, if any channel has
/// fewer than 2 levels, or if `dwell == 0`.
pub fn staircase(
    steps: usize,
    lo: &[f64],
    hi: &[f64],
    levels: &[usize],
    dwell: usize,
) -> Excitation {
    let mut samples = Samples::zeros(steps, lo.len());
    staircase_into(samples.view_mut(), lo, hi, levels, dwell);
    Excitation::new(samples)
}

/// [`staircase`] written into `samples`, one step per sample.
fn staircase_into(
    mut samples: SampleViewMut<'_>,
    lo: &[f64],
    hi: &[f64],
    levels: &[usize],
    dwell: usize,
) {
    check_levels(lo, hi, levels);
    assert!(dwell > 0, "dwell must be positive");
    let channels = lo.len();
    let flat = samples.as_flat_mut();
    for c in 0..channels {
        let n = levels[c];
        let level: Vec<f64> = (0..n)
            .map(|idx| lo[c] + (hi[c] - lo[c]) * idx as f64 / (n - 1) as f64)
            .collect();
        // Up then down, with channels desynchronized by `phase_offset`.
        // Step `k = ((t + phase_offset) / dwell) % period` and the sample
        // within its dwell are advanced one sample at a time.
        let period = 2 * (n - 1);
        let phase_offset = c * (dwell + 1);
        let (mut k, mut within) = ((phase_offset / dwell) % period, phase_offset % dwell);
        for x in flat[c..].iter_mut().step_by(channels) {
            *x = level[if k < n { k } else { period - k }];
            within += 1;
            if within == dwell {
                within = 0;
                k = (k + 1) % period;
            }
        }
    }
}

/// Generates a pseudo-random multilevel excitation: each channel holds a
/// uniformly drawn level from its `levels[ch]`-point grid for `hold` steps.
///
/// # Panics
///
/// Panics under the same conditions as [`staircase`].
pub fn multilevel(
    steps: usize,
    lo: &[f64],
    hi: &[f64],
    levels: &[usize],
    hold: usize,
    seed: u64,
) -> Excitation {
    let mut samples = Samples::zeros(steps, lo.len());
    multilevel_into(samples.view_mut(), lo, hi, levels, hold, seed);
    Excitation::new(samples)
}

/// [`multilevel`] written into `samples`, one step per sample.
fn multilevel_into(
    samples: SampleViewMut<'_>,
    lo: &[f64],
    hi: &[f64],
    levels: &[usize],
    hold: usize,
    seed: u64,
) {
    check_levels(lo, hi, levels);
    assert!(hold > 0, "hold must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    fill_held(samples, hold, |_, current| {
        for (c, x) in current.iter_mut().enumerate() {
            let idx = rng.gen_range(0..levels[c]);
            *x = lo[c] + (hi[c] - lo[c]) * idx as f64 / (levels[c] - 1) as f64;
        }
    });
}

/// The composite identification waveform used by the design flow: a PRBS
/// segment (fast dynamics), a staircase segment (DC gains across the range),
/// and a multilevel segment (intermediate settings), one after the other
/// in one buffer.
///
/// # Panics
///
/// Panics under the conditions of [`prbs`] and [`staircase`].
pub fn identification_waveform(
    steps_per_segment: usize,
    lo: &[f64],
    hi: &[f64],
    levels: &[usize],
    seed: u64,
) -> Excitation {
    // Hold times sit well above the plant's transient time constants
    // (DVFS relock, cache warm-up ≈ 6 epochs) so each setting's
    // steady-state response dominates the record; identification on
    // faster waveforms sees mostly transition stalls and produces
    // wrong-signed gains.
    let n = steps_per_segment;
    let mut samples = Samples::zeros(3 * n, lo.len());
    prbs_into(samples.range_mut(0..n), lo, hi, 12, seed);
    staircase_into(samples.range_mut(n..2 * n), lo, hi, levels, 30);
    multilevel_into(
        samples.range_mut(2 * n..3 * n),
        lo,
        hi,
        levels,
        20,
        seed ^ 0xC0FFEE,
    );
    Excitation::new(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prbs_has_exactly_two_levels_per_channel() {
        let e = prbs(500, &[0.0, -1.0], &[1.0, 1.0], 2, 42);
        assert_eq!(e.len(), 500);
        assert_eq!(e.channels(), 2);
        assert_eq!(e.distinct_levels(0), 2);
        assert_eq!(e.distinct_levels(1), 2);
    }

    #[test]
    fn prbs_switches_roughly_half_the_time_at_hold_1() {
        let e = prbs(2000, &[0.0], &[1.0], 1, 7);
        let rate = e.switching_rate(0);
        assert!(rate > 0.3 && rate < 0.7, "switching rate {rate}");
    }

    #[test]
    fn prbs_channels_are_not_identical() {
        let e = prbs(300, &[0.0, 0.0], &[1.0, 1.0], 1, 9);
        let identical = (0..e.len()).all(|t| e.sample(t)[0] == e.sample(t)[1]);
        assert!(!identical);
    }

    #[test]
    fn prbs_hold_slows_switching() {
        let fast = prbs(1000, &[0.0], &[1.0], 1, 3);
        let slow = prbs(1000, &[0.0], &[1.0], 10, 3);
        assert!(slow.switching_rate(0) < fast.switching_rate(0));
    }

    #[test]
    fn staircase_visits_all_levels_and_stays_in_range() {
        let e = staircase(400, &[0.5], &[2.0], &[16], 3);
        assert_eq!(e.distinct_levels(0), 16);
        for t in 0..e.len() {
            let v = e.sample(t)[0];
            assert!((0.5..=2.0).contains(&v));
        }
    }

    #[test]
    fn staircase_channels_desynchronized() {
        let e = staircase(200, &[0.0, 0.0], &[1.0, 1.0], &[4, 4], 5);
        let same = (0..e.len()).all(|t| e.sample(t)[0] == e.sample(t)[1]);
        assert!(!same);
    }

    #[test]
    fn multilevel_visits_many_levels() {
        let e = multilevel(1000, &[0.0], &[1.5], &[16], 4, 11);
        assert!(
            e.distinct_levels(0) >= 12,
            "visited {}",
            e.distinct_levels(0)
        );
        for t in 0..e.len() {
            assert!((0.0..=1.5).contains(&e.sample(t)[0]));
        }
    }

    #[test]
    fn multilevel_is_deterministic_per_seed() {
        let a = multilevel(100, &[0.0], &[1.0], &[8], 3, 5);
        let b = multilevel(100, &[0.0], &[1.0], &[8], 3, 5);
        assert_eq!(a, b);
        let c = multilevel(100, &[0.0], &[1.0], &[8], 3, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn composite_waveform_concatenates() {
        let e = identification_waveform(100, &[0.0, 0.0], &[1.0, 3.0], &[4, 8], 1);
        assert_eq!(e.len(), 300);
        assert_eq!(e.channels(), 2);
        // The staircase + multilevel segments must visit interior levels.
        assert!(e.distinct_levels(1) > 2);
    }

    /// The generators as they were written per sample: the staircase index
    /// divided out of `t` and each level's formula evaluated per value,
    /// every PRBS and multilevel value chosen per sample.
    fn per_sample(kind: &str, steps: usize, lo: &[f64], hi: &[f64], levels: &[usize]) -> Samples {
        let (hold, seed) = (7, 21);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lfsr: Vec<u16> = (0..lo.len())
            .map(|c| match (seed ^ (0x9E37 + 0x1DB3 * c as u64)) as u16 {
                0 => 0xACE1,
                s => s,
            })
            .collect();
        let mut bits: Vec<bool> = lfsr.iter().map(|&s| s & 1 == 1).collect();
        let mut current = lo.to_vec();
        Samples::from_fn(steps, lo.len(), |t, c| {
            let level = |idx: usize| lo[c] + (hi[c] - lo[c]) * idx as f64 / (levels[c] - 1) as f64;
            match kind {
                "staircase" => {
                    let (n, dwell) = (levels[c], hold);
                    let period = 2 * (n - 1);
                    let k = ((t + c * (dwell + 1)) / dwell) % period;
                    level(if k < n { k } else { period - k })
                }
                "prbs" => {
                    if t % hold == 0 && t > 0 && c == 0 {
                        for (l, bit) in lfsr.iter_mut().zip(&mut bits) {
                            let lsb = *l & 1 == 1;
                            *l >>= 1;
                            if lsb {
                                *l ^= 0xB400;
                            }
                            *bit = lsb;
                        }
                    }
                    if bits[c] {
                        hi[c]
                    } else {
                        lo[c]
                    }
                }
                _ => {
                    if t % hold == 0 && c == 0 {
                        for (k, x) in current.iter_mut().enumerate() {
                            let idx = rng.gen_range(0..levels[k]);
                            *x = lo[k] + (hi[k] - lo[k]) * idx as f64 / (levels[k] - 1) as f64;
                        }
                    }
                    current[c]
                }
            }
        })
    }

    #[test]
    fn generators_match_their_per_sample_form() {
        let (lo, hi) = ([0.8, 0.0, -1.0], [3.7, 1.0, 2.5]);
        let levels = [16, 2, 5];
        // A partial last hold block, one full block, and under one block.
        for steps in [100, 7, 3] {
            for channels in 1..=3 {
                let (lo, hi, levels) = (&lo[..channels], &hi[..channels], &levels[..channels]);
                let got = [
                    staircase(steps, lo, hi, levels, 7),
                    prbs(steps, lo, hi, 7, 21),
                    multilevel(steps, lo, hi, levels, 7, 21),
                ];
                for (kind, got) in ["staircase", "prbs", "multilevel"].iter().zip(got) {
                    let want = per_sample(kind, steps, lo, hi, levels);
                    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(got.samples().as_flat()),
                        bits(want.as_flat()),
                        "{kind}, {steps} steps, {channels} channels"
                    );
                }
            }
        }
    }

    #[test]
    fn then_empty_is_noop() {
        let e = prbs(10, &[0.0], &[1.0], 1, 1);
        let combined = e.clone().then(Excitation::new(Samples::new(1)));
        assert_eq!(combined.len(), 10);
    }

    #[test]
    #[should_panic(expected = "different channel counts")]
    fn then_rejects_mismatched_channels() {
        let a = prbs(10, &[0.0], &[1.0], 1, 1);
        let b = prbs(10, &[0.0, 0.0], &[1.0, 1.0], 1, 1);
        let _ = a.then(b);
    }
}
