//! Summary statistics over repetitions and traced spans, and the renderer
//! for the benchmark's output.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL: u64 = 10;

/// Median of `values` (the mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method). A
/// single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The 1-based nearest rank of percentile `p` among `n` samples, or `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn nearest_rank(n: u64, p: f64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    // Multiply before dividing so whole-number ranks stay exact.
    let rank = ((p * n as f64 / 100.0).ceil() as u64).clamp(1, n);
    (n - rank >= MIN_TAIL).then_some(rank)
}

/// Nearest-rank percentile `p` of `values`, refused (`None`) when fewer
/// than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(values.len() as u64, p)?;
    Some(sorted(values)[rank as usize - 1])
}

/// The fast end of repeated timings: their nearest-rank 10th percentile,
/// or their minimum when fewer than [`MIN_TAIL`] samples would lie beyond
/// it. Interference from other work on the host only ever adds time, so
/// this end of the distribution is what repeats between invocations.
pub fn fast(samples: &[f64]) -> f64 {
    percentile(samples, 10.0).unwrap_or_else(|| sorted(samples)[0])
}

/// Sum over units of work of each unit's [`fast`] time, from per-
/// repetition rows of unit times (every row lists the same units).
pub fn fast_total(rows: &[Vec<f64>]) -> f64 {
    (0..rows[0].len())
        .map(|unit| fast(&rows.iter().map(|row| row[unit]).collect::<Vec<_>>()))
        .sum()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of an empty sample");
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// Sub-bucket bits of [`Histogram`]: values below `2^SUB_BITS` are counted
/// exactly, larger ones to within `2^-(SUB_BITS-1)` of their value.
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
const HALF: usize = SUB / 2;
/// Enough buckets for any `u64`.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * HALF;

/// A fixed-size log-linear histogram of non-negative integers (span
/// durations in nanoseconds). Recording never allocates, so it can sit in
/// a traced hot loop without disturbing allocation counts.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            n: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let shift = 64 - v.leading_zeros() - SUB_BITS;
        let top = (v >> shift) as usize;
        SUB + (shift as usize - 1) * HALF + (top - HALF)
    }

    fn lower_bound(index: usize) -> u64 {
        if index < SUB {
            return index as u64;
        }
        let shift = (index - SUB) / HALF + 1;
        let top = (index - SUB) % HALF + HALF;
        (top as u64) << shift
    }

    /// Counts one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    /// Nearest-rank percentile `p` (the lower edge of its bucket), refused
    /// when fewer than [`MIN_TAIL`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let rank = nearest_rank(self.n, p)?;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::lower_bound(i));
            }
        }
        None
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `<layer>.<metric>` for per-layer metrics, a bare name end to end.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ns`, `s`, `MiB`, `ratio`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Renders the human-readable line printed for every metric.
pub fn metric_line(m: &Metric) -> String {
    format!("metric {} {} {}", m.name, m.value, m.unit)
}

/// Renders the one-line JSON result: correctness, operation counts and
/// the metrics by name. Non-finite values render as `null`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        // p90 of 100 samples has exactly 10 beyond it; p95 has 5.
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 95.0), None);
        assert_eq!(nearest_rank(1000, 99.0), Some(990));
        assert_eq!(nearest_rank(999, 99.0), None);
        assert_eq!(nearest_rank(0, 50.0), None);
    }

    #[test]
    fn fast_takes_the_tenth_percentile_or_the_minimum() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(fast(&v), 2.0);
        assert_eq!(fast(&[3.0, 1.5, 2.0]), 1.5);
        let rows = vec![vec![1.0, 10.0], vec![2.0, 9.0], vec![0.5, 11.0]];
        assert_eq!(fast_total(&rows), 0.5 + 9.0);
    }

    #[test]
    fn histogram_is_exact_below_the_sub_range_and_close_above() {
        let mut h = Histogram::default();
        for v in 0..1000u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some(499));
        assert_eq!(h.percentile(99.0), Some(989));
        assert_eq!(h.percentile(99.5), None);
        for v in [1024u64, 5000, 123_456, 9_876_543_210, u64::MAX] {
            let lb = Histogram::lower_bound(Histogram::index(v));
            assert!(lb <= v && v - lb <= v >> (SUB_BITS - 1), "{v} -> {lb}");
        }
        // Indices are monotone in the value.
        let mut last = 0;
        for v in (0..40).map(|s| 3u64 << s) {
            let i = Histogram::index(v);
            assert!(i >= last);
            last = i;
        }
        assert!(Histogram::index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn output_shape_is_pinned() {
        let metrics = [
            Metric::new("setup_s", 0.8127, "s"),
            Metric::new("core_epoch_ns", 1203.5, "ns"),
        ];
        assert_eq!(metric_line(&metrics[0]), "metric setup_s 0.8127 s");
        assert_eq!(
            result_json(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"core_epoch_ns\": {\"value\": 1203.5, \"unit\": \"ns\"}}}"
        );
        assert_eq!(
            result_json(false, 3, 3, &[Metric::new("x", f64::NAN, "ns")]),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 3, \"metrics\": \
             {\"x\": {\"value\": null, \"unit\": \"ns\"}}}"
        );
    }
}
