//! The weight methodology of §IV-B2 and the concrete weight sets of
//! Tables II, III, and V.
//!
//! Output weights (the diagonal of Q) say how bad it is for that output to
//! deviate from target; input weights (the diagonal of R) say how reluctant
//! the controller should be to move that input. Only *relative* values
//! matter: a 100× weight ratio between two outputs makes the controller
//! trade 1% of deviation in the heavy one against 10% in the light one
//! (the quadratic cost square-roots the ratio).

use std::hash::{Hash, Hasher};

/// A named set of input/output weights for a controller design.
///
/// Weight sets double as **design-cache keys** (the experiment harness
/// memoizes one synthesized controller per distinct weight choice), so
/// they implement [`Eq`] and [`Hash`]. Weights are finite by construction
/// — the design flow rejects non-finite weights before any cache lookup —
/// which makes the derived `PartialEq` a valid equivalence relation here.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightSet {
    /// Human-readable label (Table V uses Equal/Inputs/Power/Size).
    pub label: String,
    /// Output weights, ordered `[IPS, power]`.
    pub output: Vec<f64>,
    /// Input weights, ordered `[frequency, cache (, ROB)]`.
    pub input: Vec<f64>,
}

impl WeightSet {
    /// Table III's production weights for the two-input system:
    /// power 10 000, IPS 10, frequency 0.01, cache 0.0005.
    pub fn table_iii_two_input() -> Self {
        WeightSet {
            label: "TableIII-2in".into(),
            output: vec![10.0, 10_000.0],
            input: vec![0.01, 0.0005],
        }
    }

    /// Table III's weights for the three-input system, adding the ROB at
    /// 0.001 (2:1 versus cache resizing, §VI-D).
    pub fn table_iii_three_input() -> Self {
        WeightSet {
            label: "TableIII-3in".into(),
            output: vec![10.0, 10_000.0],
            input: vec![0.01, 0.0005, 0.001],
        }
    }

    /// The four weight choices of Table V (Figure 6's sensitivity study),
    /// given there as `[W_cache, W_freq, W_IPS, W_P]`.
    pub fn table_v() -> Vec<Self> {
        let make = |label: &str, wcache: f64, wfreq: f64, wips: f64, wp: f64| WeightSet {
            label: label.into(),
            output: vec![wips, wp],
            input: vec![wfreq, wcache],
        };
        vec![
            make("Equal", 1.0, 1.0, 1.0, 1.0),
            make("Inputs", 0.01, 0.01, 1.0, 1.0),
            make("Power", 0.01, 0.01, 1.0, 100.0),
            make("Size", 0.001, 0.01, 1.0, 100.0),
        ]
    }

    /// The deviation-tradeoff ratio between two weighted quantities: with
    /// weights `w_hi > w_lo`, the controller accepts `sqrt(w_hi / w_lo)`
    /// units of deviation in the light quantity per unit in the heavy one.
    pub fn tradeoff_ratio(w_hi: f64, w_lo: f64) -> f64 {
        (w_hi / w_lo).sqrt()
    }

    /// Ratio of the power weight to the IPS weight.
    pub fn power_to_ips(&self) -> f64 {
        self.output[1] / self.output[0]
    }
}

/// Valid because weight values are finite (see the struct docs): `==` on
/// finite floats is reflexive, symmetric, and transitive.
impl Eq for WeightSet {}

impl Hash for WeightSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.label.hash(state);
        self.output.len().hash(state);
        for w in self.output.iter().chain(&self.input) {
            // Hash through the bit pattern, normalizing -0.0 to +0.0 so
            // that hashing agrees with `==` on the one finite case where
            // bit patterns and numeric equality disagree.
            let w = if *w == 0.0 { 0.0 } else { *w };
            w.to_bits().hash(state);
        }
    }
}

/// Qualitative output-weight ranking of Table II (highest priority first).
pub const OUTPUT_PRIORITY: [&str; 7] = [
    "voltage_guardband",
    "temperature",
    "power",
    "core_utilization",
    "energy",
    "frame_rate",
    "instructions_per_second",
];

/// Qualitative input-weight ranking of Table II (highest change-overhead
/// first).
pub const INPUT_PRIORITY: [&str; 5] = [
    "cache_power_gating",
    "core_power_gating",
    "frequency",
    "issue_width",
    "ldst_queue_entries",
];

/// Position of a measure in a priority table; lower index = higher weight.
pub fn priority_rank(table: &[&str], name: &str) -> Option<usize> {
    table.iter().position(|&m| m == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_ratios_match_paper() {
        let w = WeightSet::table_iii_two_input();
        // Power:IPS is 1000:1 → √1000 ≈ 31.6 ≈ "30x more important".
        assert!((w.power_to_ips() - 1000.0).abs() < 1e-12);
        let t = WeightSet::tradeoff_ratio(w.output[1], w.output[0]);
        assert!((28.0..35.0).contains(&t), "tradeoff {t}");
        // Frequency:cache is 20:1.
        assert!((w.input[0] / w.input[1] - 20.0).abs() < 1e-12);
        // IPS:frequency is 1000:1.
        assert!((w.output[0] / w.input[0] - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn three_input_adds_rob_at_2_to_1_vs_cache() {
        let w = WeightSet::table_iii_three_input();
        assert_eq!(w.input.len(), 3);
        assert!((w.input[2] / w.input[1] - 2.0).abs() < 1e-12);
        // Other weights unchanged from the two-input set (§VI-D).
        let w2 = WeightSet::table_iii_two_input();
        assert_eq!(w.output, w2.output);
        assert_eq!(&w.input[..2], &w2.input[..]);
    }

    #[test]
    fn table_v_has_the_four_labels() {
        let sets = WeightSet::table_v();
        let labels: Vec<&str> = sets.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["Equal", "Inputs", "Power", "Size"]);
        // Power set: W_P = 100 × W_IPS.
        assert!((sets[2].power_to_ips() - 100.0).abs() < 1e-12);
        // Size set: cache weight 10x below frequency weight.
        assert!((sets[3].input[0] / sets[3].input[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn table_ii_rankings() {
        assert_eq!(priority_rank(&OUTPUT_PRIORITY, "power"), Some(2));
        assert!(
            priority_rank(&OUTPUT_PRIORITY, "power").unwrap()
                < priority_rank(&OUTPUT_PRIORITY, "instructions_per_second").unwrap()
        );
        assert!(
            priority_rank(&INPUT_PRIORITY, "cache_power_gating").unwrap()
                < priority_rank(&INPUT_PRIORITY, "frequency").unwrap()
        );
        assert_eq!(priority_rank(&INPUT_PRIORITY, "nonexistent"), None);
    }

    #[test]
    fn tradeoff_ratio_is_square_root() {
        // The paper's example: a 100x weight means 1% vs 10% deviations.
        assert!((WeightSet::tradeoff_ratio(100.0, 1.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn weight_sets_are_cloneable_and_comparable() {
        let w = WeightSet::table_iii_two_input();
        assert_eq!(w.clone(), w);
        assert_ne!(w, WeightSet::table_iii_three_input());
    }

    #[test]
    fn weight_sets_hash_consistently_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let digest = |w: &WeightSet| {
            let mut h = DefaultHasher::new();
            w.hash(&mut h);
            h.finish()
        };
        let a = WeightSet::table_iii_two_input();
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&WeightSet::table_iii_three_input()));
        // The one finite case where `==` and bit patterns disagree: a
        // zero weight must hash the same regardless of sign.
        let mut neg = a.clone();
        let mut pos = a.clone();
        neg.input[0] = -0.0;
        pos.input[0] = 0.0;
        assert_eq!(neg, pos);
        assert_eq!(digest(&neg), digest(&pos));
    }

    #[test]
    fn weight_sets_work_as_map_keys() {
        let mut map = std::collections::HashMap::new();
        map.insert(WeightSet::table_iii_two_input(), 1);
        map.insert(WeightSet::table_iii_three_input(), 2);
        assert_eq!(map[&WeightSet::table_iii_two_input()], 1);
        assert_eq!(map.len(), 2);
    }
}
