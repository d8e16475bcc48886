//! Typed counters and histograms for epoch telemetry.
//!
//! All state is fixed-size after construction, so recording into metrics
//! on the hot path performs no heap allocations. Merging is plain counter
//! addition plus a fixed-order floating-point reduction, so merging
//! per-core metrics **in core order** yields bit-identical results no
//! matter how many worker threads produced them.

use super::record::{CauseCode, EpochRecord, Health};

/// A linear-binned histogram over a fixed `[lo, hi)` range. Out-of-range
/// values clamp into the edge bins; non-finite values are counted
/// separately and never recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Samples recorded (finite only).
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    non_finite: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            non_finite: 0,
        }
    }

    /// Records one sample (no allocation).
    #[inline]
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite += 1;
            return;
        }
        let bins = self.counts.len();
        let t = (v - self.lo) / (self.hi - self.lo) * bins as f64;
        let idx = (t as isize).clamp(0, bins as isize - 1) as usize;
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Counter addition is commutative and the
    /// float reductions (`sum`, `min`, `max`) are evaluated in call order,
    /// so merging in a fixed order is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different ranges or bin counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo.to_bits(), other.lo.to_bits(), "histogram lo");
        assert_eq!(self.hi.to_bits(), other.hi.to_bits(), "histogram hi");
        assert_eq!(self.counts.len(), other.counts.len(), "histogram bins");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.non_finite += other.non_finite;
    }

    /// Samples recorded (finite values only).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-bin counts, lowest bin first.
    pub fn bin_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded sample (−inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Non-finite samples rejected.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }
}

/// IPS histogram range (BIPS): generous enough for every catalog plant.
const IPS_RANGE: (f64, f64, usize) = (0.0, 6.0, 48);
/// Power histogram range (watts).
const POWER_RANGE: (f64, f64, usize) = (0.0, 6.0, 48);

/// Aggregated epoch metrics: health counters, per-cause fault counters,
/// and IPS/power distributions.
///
/// Everything is a pure function of the epoch records, so merged metrics
/// are worker-count-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Epochs recorded.
    pub epochs: u64,
    /// Epochs that completed healthy.
    pub healthy_epochs: u64,
    /// Epochs that faulted (degraded or quarantined).
    pub fault_epochs: u64,
    /// Quarantine latch transitions observed.
    pub quarantines: u64,
    /// Faulted epochs bucketed by [`CauseCode::index`].
    pub faults_by_cause: [u64; CauseCode::COUNT],
    /// Distribution of measured IPS (output channel 0), BIPS.
    pub ips: Histogram,
    /// Distribution of measured power (output channel 1), watts.
    pub power: Histogram,
}

impl Metrics {
    /// Empty metrics with the standard IPS/power ranges.
    pub fn new() -> Self {
        Metrics {
            epochs: 0,
            healthy_epochs: 0,
            fault_epochs: 0,
            quarantines: 0,
            faults_by_cause: [0; CauseCode::COUNT],
            ips: Histogram::new(IPS_RANGE.0, IPS_RANGE.1, IPS_RANGE.2),
            power: Histogram::new(POWER_RANGE.0, POWER_RANGE.1, POWER_RANGE.2),
        }
    }

    /// Folds one epoch record in (no allocation).
    #[inline]
    pub fn record(&mut self, rec: &EpochRecord) {
        self.epochs += 1;
        match rec.health {
            Health::Healthy => self.healthy_epochs += 1,
            Health::Degraded | Health::Quarantined => self.fault_epochs += 1,
        }
        if let Some(cause) = rec.cause {
            self.faults_by_cause[cause.index()] += 1;
        }
        if rec.n_outputs >= 2 {
            self.ips.record(rec.y[0]);
            self.power.record(rec.y[1]);
        }
    }

    /// Folds `other` into `self`. Call in a fixed order (e.g. core order)
    /// for deterministic float reductions; the counters themselves are
    /// order-independent.
    pub fn merge(&mut self, other: &Metrics) {
        self.epochs += other.epochs;
        self.healthy_epochs += other.healthy_epochs;
        self.fault_epochs += other.fault_epochs;
        self.quarantines += other.quarantines;
        for (a, b) in self.faults_by_cause.iter_mut().zip(&other.faults_by_cause) {
            *a += b;
        }
        self.ips.merge(&other.ips);
        self.power.merge(&other.power);
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_linalg::Vector;

    #[test]
    fn histogram_clamps_and_aggregates() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        for v in [0.5, 1.5, 1.6, 3.9, -10.0, 100.0] {
            h.record(v);
        }
        h.record(f64::NAN);
        assert_eq!(h.bin_counts(), &[2, 2, 0, 2]); // -10 clamps low, 100 high
        assert_eq!(h.count(), 6);
        assert_eq!(h.non_finite(), 1);
        assert_eq!(h.min(), -10.0);
        assert_eq!(h.max(), 100.0);
        assert!((h.mean() - (0.5 + 1.5 + 1.6 + 3.9 - 10.0 + 100.0) / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_matches_sequential_recording() {
        let samples = [0.1, 0.9, 2.2, 3.3, 1.7, 2.8];
        let mut whole = Histogram::new(0.0, 4.0, 8);
        for &v in &samples {
            whole.record(v);
        }
        let mut a = Histogram::new(0.0, 4.0, 8);
        let mut b = Histogram::new(0.0, 4.0, 8);
        for &v in &samples[..3] {
            a.record(v);
        }
        for &v in &samples[3..] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "histogram bins")]
    fn histogram_merge_rejects_shape_mismatch() {
        let mut a = Histogram::new(0.0, 4.0, 8);
        let b = Histogram::new(0.0, 4.0, 4);
        a.merge(&b);
    }

    #[test]
    fn metrics_bucket_health_and_causes() {
        use super::super::record::{CauseCode, EpochRecord, Health};
        let u = Vector::from_slice(&[1.3, 6.0]);
        let y = Vector::from_slice(&[2.9, 1.8]);
        let mut m = Metrics::new();
        m.record(&EpochRecord::capture(
            0,
            None,
            &u,
            &y,
            Health::Healthy,
            None,
        ));
        m.record(&EpochRecord::capture(
            1,
            None,
            &u,
            &y,
            Health::Degraded,
            Some(CauseCode::NonFiniteMeasurement),
        ));
        m.record(&EpochRecord::capture(
            2,
            None,
            &u,
            &y,
            Health::Quarantined,
            Some(CauseCode::NonFiniteMeasurement),
        ));
        assert_eq!(m.epochs, 3);
        assert_eq!(m.healthy_epochs, 1);
        assert_eq!(m.fault_epochs, 2);
        assert_eq!(
            m.faults_by_cause[CauseCode::NonFiniteMeasurement.index()],
            2
        );
        assert_eq!(m.ips.count(), 3);
        assert_eq!(m.power.count(), 3);
    }

    #[test]
    fn metrics_merge_is_partition_independent() {
        use super::super::record::{EpochRecord, Health};
        let u = Vector::from_slice(&[1.3, 6.0]);
        // Dyadic sample values: every partial sum is exactly representable,
        // so the float reductions are associative here and full equality is
        // meaningful for any partition point.
        let recs: Vec<EpochRecord> = (0..10)
            .map(|e| {
                let y = Vector::from_slice(&[0.5 * e as f64, 0.25 * e as f64]);
                EpochRecord::capture(e as u64, None, &u, &y, Health::Healthy, None)
            })
            .collect();
        let mut whole = Metrics::new();
        for r in &recs {
            whole.record(r);
        }
        // Partition at every split point; merged result must be identical
        // as long as the merge itself runs in order.
        for split in 0..=recs.len() {
            let mut a = Metrics::new();
            let mut b = Metrics::new();
            for r in &recs[..split] {
                a.record(r);
            }
            for r in &recs[split..] {
                b.record(r);
            }
            a.merge(&b);
            assert_eq!(a, whole, "split at {split}");
        }
    }
}
