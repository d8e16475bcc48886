//! Configurable inputs of the processor — Table III of the paper.
//!
//! * **Frequency**: 16 DVFS settings, 0.5 GHz to 2.0 GHz in 0.1 GHz steps.
//! * **Cache size**: 4 settings by power-gating ways; (L2, L1)
//!   associativities (8,4), (6,3), (4,2), (2,1). The physical actuator
//!   value is the L2 way count {8, 6, 4, 2} so that "bigger is more cache".
//! * **ROB size**: 8 settings, 16 to 128 entries in 16-entry steps.
//!
//! Controllers compute continuous input values; [`ActuatorGrid::quantize`]
//! snaps them to the discrete settings the hardware supports — the
//! discreteness that drives the paper's input-weight discussion (§IV-B2).

use crate::{Result, SimError};

/// The discrete settings available to one actuator.
#[derive(Debug, Clone, PartialEq)]
pub struct ActuatorGrid {
    name: &'static str,
    values: Vec<f64>,
}

impl ActuatorGrid {
    /// Creates a grid from a sorted list of allowed values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or not strictly increasing.
    pub fn new(name: &'static str, values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "actuator grid must not be empty");
        assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "actuator grid must be strictly increasing"
        );
        ActuatorGrid { name, values }
    }

    /// Human-readable actuator name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The allowed values, ascending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of settings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Grids are never empty; this always returns `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Smallest allowed value.
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Largest allowed value.
    pub fn max(&self) -> f64 {
        // The constructor rejects empty grids, so the last element exists.
        self.values[self.values.len() - 1]
    }

    /// Midrange setting (the optimizer's §VI-B starting point).
    pub fn mid(&self) -> f64 {
        self.values[self.values.len() / 2]
    }

    /// Snaps a continuous value to the nearest allowed setting.
    pub fn quantize(&self, v: f64) -> f64 {
        self.values[self.quantize_index(v)]
    }

    /// Index of the nearest allowed setting.
    pub fn quantize_index(&self, v: f64) -> usize {
        if v.is_nan() {
            return 0;
        }
        // Out-of-range values snap to the nearer end. Clamping first keeps
        // huge inputs exact: their distances to every grid point would
        // otherwise round to one value and the scan would keep index 0.
        let v = v.clamp(self.min(), self.max());
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, &g) in self.values.iter().enumerate() {
            let d = (g - v).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Index of a value that must already be on the grid.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `v` is not (within 1e-9 of)
    /// a grid point.
    pub fn index_of(&self, v: f64) -> Result<usize> {
        let idx = self.quantize_index(v);
        if (self.values[idx] - v).abs() > 1e-9 {
            return Err(SimError::InvalidConfig {
                what: format!("{} = {v} is not an allowed setting", self.name),
            });
        }
        Ok(idx)
    }
}

/// Frequency grid: 0.5 to 2.0 GHz in 0.1 GHz steps (16 settings).
///
/// Returns a shared static so per-epoch quantization never allocates.
pub fn frequency_grid() -> &'static ActuatorGrid {
    static GRID: std::sync::OnceLock<ActuatorGrid> = std::sync::OnceLock::new();
    GRID.get_or_init(|| {
        ActuatorGrid::new(
            "frequency_ghz",
            (0..16).map(|i| 0.5 + 0.1 * i as f64).collect(),
        )
    })
}

/// Cache-size grid, expressed as active L2 ways: {2, 4, 6, 8}.
///
/// Returns a shared static so per-epoch quantization never allocates.
pub fn cache_grid() -> &'static ActuatorGrid {
    static GRID: std::sync::OnceLock<ActuatorGrid> = std::sync::OnceLock::new();
    GRID.get_or_init(|| ActuatorGrid::new("l2_ways", vec![2.0, 4.0, 6.0, 8.0]))
}

/// ROB-size grid: 16 to 128 entries in 16-entry steps (8 settings).
///
/// Returns a shared static so per-epoch quantization never allocates.
pub fn rob_grid() -> &'static ActuatorGrid {
    static GRID: std::sync::OnceLock<ActuatorGrid> = std::sync::OnceLock::new();
    GRID.get_or_init(|| {
        ActuatorGrid::new("rob_entries", (1..=8).map(|i| 16.0 * i as f64).collect())
    })
}

/// L1 ways paired with a given L2 way count — the paper gates both caches
/// together: (8,4), (6,3), (4,2), (2,1).
pub fn l1_ways_for_l2(l2_ways: usize) -> usize {
    l2_ways / 2
}

/// Which inputs the controller actuates: the paper's two-input system
/// (frequency + cache) or the three-input extension (§VI-D adds the ROB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSet {
    /// Frequency and cache size.
    FreqCache,
    /// Frequency, cache size, and ROB size.
    FreqCacheRob,
}

impl InputSet {
    /// Number of actuated inputs.
    pub fn len(&self) -> usize {
        match self {
            InputSet::FreqCache => 2,
            InputSet::FreqCacheRob => 3,
        }
    }

    /// Input sets are never empty; this always returns `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The actuator grids, in input order (frequency, cache[, rob]).
    ///
    /// The grids themselves are shared statics; only the spine `Vec` is
    /// allocated, so this is cheap to call but still should be hoisted out
    /// of per-epoch loops (use [`InputSet::grid`] there).
    pub fn grids(&self) -> Vec<&'static ActuatorGrid> {
        match self {
            InputSet::FreqCache => vec![frequency_grid(), cache_grid()],
            InputSet::FreqCacheRob => vec![frequency_grid(), cache_grid(), rob_grid()],
        }
    }

    /// The actuator grid for input `i`, allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn grid(&self, i: usize) -> &'static ActuatorGrid {
        assert!(i < self.len(), "input index {i} out of range for {self:?}");
        match i {
            0 => frequency_grid(),
            1 => cache_grid(),
            _ => rob_grid(),
        }
    }
}

/// A complete plant configuration. Inputs not in the active [`InputSet`]
/// stay at their baseline values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlantConfig {
    /// Core + L1 frequency in GHz.
    pub freq_ghz: f64,
    /// Active L2 ways (L1 ways are half).
    pub l2_ways: usize,
    /// Active ROB entries.
    pub rob_entries: usize,
}

impl PlantConfig {
    /// The baseline architecture of Table III, optimized for E×D:
    /// 1.3 GHz, L2 6-way / L1 3-way, 48-entry ROB.
    pub fn baseline() -> Self {
        PlantConfig {
            freq_ghz: 1.3,
            l2_ways: 6,
            rob_entries: 48,
        }
    }

    /// The maximum configuration: 2.0 GHz, full cache, full ROB.
    pub fn max() -> Self {
        PlantConfig {
            freq_ghz: 2.0,
            l2_ways: 8,
            rob_entries: 128,
        }
    }

    /// The optimizer's midrange starting point (§VI-B): 1 GHz (actually the
    /// 1.2 GHz grid midpoint is documented as 1 GHz in the paper; we use the
    /// literal 1.0 GHz it states), (4,2) cache, 64-entry ROB.
    pub fn midrange() -> Self {
        PlantConfig {
            freq_ghz: 1.0,
            l2_ways: 4,
            rob_entries: 64,
        }
    }

    /// Builds a config from an actuation vector over the given input set,
    /// quantizing each entry to its grid. Inputs outside the set keep the
    /// values in `base`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadActuation`] if `u` has the wrong length.
    pub fn from_actuation(u: &[f64], set: InputSet, base: &PlantConfig) -> Result<Self> {
        if u.len() != set.len() {
            return Err(SimError::BadActuation {
                got: u.len(),
                expected: set.len(),
            });
        }
        let fg = frequency_grid();
        let cg = cache_grid();
        let mut cfg = *base;
        cfg.freq_ghz = fg.quantize(u[0]);
        cfg.l2_ways = cg.quantize(u[1]) as usize;
        if set == InputSet::FreqCacheRob {
            cfg.rob_entries = rob_grid().quantize(u[2]) as usize;
        }
        Ok(cfg)
    }

    /// The actuation vector corresponding to this config for an input set.
    pub fn to_actuation(&self, set: InputSet) -> Vec<f64> {
        match set {
            InputSet::FreqCache => vec![self.freq_ghz, self.l2_ways as f64],
            InputSet::FreqCacheRob => {
                vec![self.freq_ghz, self.l2_ways as f64, self.rob_entries as f64]
            }
        }
    }

    /// Active L1 ways.
    pub fn l1_ways(&self) -> usize {
        l1_ways_for_l2(self.l2_ways)
    }

    /// Every on-grid configuration, in [`PlantConfig::grid_index`] order
    /// (frequency-major, then cache, then ROB).
    pub(crate) fn grid_points() -> impl Iterator<Item = PlantConfig> {
        let (fg, cg, rg) = (frequency_grid(), cache_grid(), rob_grid());
        fg.values().iter().flat_map(move |&freq_ghz| {
            cg.values().iter().flat_map(move |&l2| {
                rg.values().iter().map(move |&rob| PlantConfig {
                    freq_ghz,
                    l2_ways: l2 as usize,
                    rob_entries: rob as usize,
                })
            })
        })
    }

    /// Position of this configuration in [`PlantConfig::grid_points`], or
    /// `None` when a field is not bit for bit one of its grid's values.
    pub(crate) fn grid_index(&self) -> Option<usize> {
        let exact = |grid: &ActuatorGrid, v: f64| {
            grid.values()
                .iter()
                .position(|g| g.to_bits() == v.to_bits())
        };
        let f = exact(frequency_grid(), self.freq_ghz)?;
        let c = exact(cache_grid(), self.l2_ways as f64)?;
        let r = exact(rob_grid(), self.rob_entries as f64)?;
        Some((f * cache_grid().len() + c) * rob_grid().len() + r)
    }

    /// Whether two configurations are identical bit for bit.
    pub(crate) fn same_bits(&self, other: &PlantConfig) -> bool {
        self.freq_ghz.to_bits() == other.freq_ghz.to_bits()
            && self.l2_ways == other.l2_ways
            && self.rob_entries == other.rob_entries
    }

    /// Validates that every field sits on its actuator grid.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        frequency_grid().index_of(self.freq_ghz)?;
        cache_grid().index_of(self.l2_ways as f64)?;
        rob_grid().index_of(self.rob_entries as f64)?;
        Ok(())
    }
}

impl Default for PlantConfig {
    fn default() -> Self {
        PlantConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_grid_sizes() {
        assert_eq!(frequency_grid().len(), 16);
        assert_eq!(cache_grid().len(), 4);
        assert_eq!(rob_grid().len(), 8);
    }

    #[test]
    fn frequency_grid_endpoints() {
        let g = frequency_grid();
        assert!((g.min() - 0.5).abs() < 1e-12);
        assert!((g.max() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantize_snaps_to_nearest() {
        let g = frequency_grid();
        assert!((g.quantize(1.34) - 1.3).abs() < 1e-12);
        assert!((g.quantize(1.36) - 1.4).abs() < 1e-12);
        assert!((g.quantize(-3.0) - 0.5).abs() < 1e-12);
        assert!((g.quantize(99.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantize_snaps_huge_inputs_to_the_grid_ends() {
        for g in [frequency_grid(), cache_grid(), rob_grid()] {
            for v in [1e16, 1e17, 1e300, f64::MAX] {
                assert_eq!(g.quantize(v), g.max(), "{} at {v:e}", g.name());
            }
            assert_eq!(g.quantize(-1e300), g.min(), "{}", g.name());
        }
    }

    #[test]
    fn grid_index_numbers_every_grid_point_once() {
        let points: Vec<PlantConfig> = PlantConfig::grid_points().collect();
        assert_eq!(points.len(), 16 * 4 * 8);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.grid_index(), Some(i), "{p:?}");
        }
        // One ulp off a grid frequency is off the grid.
        let nudged = PlantConfig {
            freq_ghz: f64::from_bits(1.3f64.to_bits() + 1),
            ..PlantConfig::baseline()
        };
        assert_eq!(nudged.grid_index(), None);
        assert_eq!(
            PlantConfig {
                rob_entries: 50,
                ..PlantConfig::baseline()
            }
            .grid_index(),
            None
        );
    }

    #[test]
    fn quantize_is_idempotent() {
        let g = rob_grid();
        for &v in g.values() {
            assert_eq!(g.quantize(v), v);
        }
    }

    #[test]
    fn quantize_handles_nan() {
        let g = cache_grid();
        assert_eq!(g.quantize(f64::NAN), 2.0);
    }

    #[test]
    fn index_of_rejects_off_grid() {
        let g = frequency_grid();
        assert!(g.index_of(1.25).is_err());
        assert_eq!(g.index_of(1.2).unwrap(), 7);
    }

    #[test]
    fn l1_pairs_with_l2() {
        assert_eq!(l1_ways_for_l2(8), 4);
        assert_eq!(l1_ways_for_l2(6), 3);
        assert_eq!(l1_ways_for_l2(4), 2);
        assert_eq!(l1_ways_for_l2(2), 1);
    }

    #[test]
    fn baseline_is_on_grid() {
        PlantConfig::baseline().validate().unwrap();
        PlantConfig::max().validate().unwrap();
        PlantConfig::midrange().validate().unwrap();
    }

    #[test]
    fn actuation_round_trip_two_inputs() {
        let base = PlantConfig::baseline();
        let u = [1.74, 4.9];
        let cfg = PlantConfig::from_actuation(&u, InputSet::FreqCache, &base).unwrap();
        assert!((cfg.freq_ghz - 1.7).abs() < 1e-12);
        assert_eq!(cfg.l2_ways, 4);
        assert_eq!(cfg.rob_entries, base.rob_entries); // untouched
        let back = cfg.to_actuation(InputSet::FreqCache);
        assert_eq!(back.len(), 2);
        assert!((back[0] - 1.7).abs() < 1e-12);
    }

    #[test]
    fn actuation_three_inputs_touches_rob() {
        let base = PlantConfig::baseline();
        let u = [0.5, 2.0, 100.0];
        let cfg = PlantConfig::from_actuation(&u, InputSet::FreqCacheRob, &base).unwrap();
        assert_eq!(cfg.rob_entries, 96);
    }

    #[test]
    fn actuation_length_checked() {
        let base = PlantConfig::baseline();
        assert!(matches!(
            PlantConfig::from_actuation(&[1.0], InputSet::FreqCache, &base),
            Err(SimError::BadActuation { .. })
        ));
    }

    #[test]
    fn input_set_metadata() {
        assert_eq!(InputSet::FreqCache.len(), 2);
        assert_eq!(InputSet::FreqCacheRob.len(), 3);
        assert_eq!(InputSet::FreqCache.grids().len(), 2);
        assert_eq!(InputSet::FreqCacheRob.grids()[2].name(), "rob_entries");
    }

    #[test]
    fn mid_setting() {
        assert!((cache_grid().mid() - 6.0).abs() < 1e-12);
        assert!((rob_grid().mid() - 80.0).abs() < 1e-12);
    }
}
