//! Power model: DVFS voltage scaling, per-component dynamic and leakage
//! power, and actuation overheads.
//!
//! The paper uses McPAT (integrated in ESESC) and CACTI 6.0, with DVFS
//! pairs interpolated from published Cortex-A15 tables \[39\]. We reproduce
//! the same *structure*:
//!
//! * `P_dyn = α · C_eff(config, IPC) · V² · f` per component,
//! * `P_leak ∝ V · (active area)`, reduced by power-gating cache ways and
//!   ROB entries,
//! * a V–f operating table with voltage rising from 0.85 V at 0.5 GHz to
//!   1.25 V at 2.0 GHz.
//!
//! Constants are calibrated so the Table III operating range brackets the
//! paper's 2 W power target: ~0.4 W at the minimum configuration, ~2.8 W
//! at the maximum.

use crate::config::PlantConfig;

/// DVFS operating points `(GHz, V)` interpolated from published
/// Cortex-A15 voltage/frequency tables.
pub const DVFS_TABLE: [(f64, f64); 5] = [
    (0.5, 0.85),
    (1.0, 0.95),
    (1.3, 1.05),
    (1.6, 1.15),
    (2.0, 1.25),
];

/// Supply voltage for a frequency, piecewise-linearly interpolated from
/// [`DVFS_TABLE`] and clamped at the table ends.
pub fn voltage_for(freq_ghz: f64) -> f64 {
    let table = &DVFS_TABLE;
    if freq_ghz <= table[0].0 {
        return table[0].1;
    }
    for w in table.windows(2) {
        let (f0, v0) = w[0];
        let (f1, v1) = w[1];
        if freq_ghz <= f1 {
            return v0 + (v1 - v0) * (freq_ghz - f0) / (f1 - f0);
        }
    }
    table[table.len() - 1].1
}

/// Effective switched capacitance coefficients, in W / (V²·GHz) terms.
/// Split across components so gating each input visibly moves power.
mod ceff {
    /// Core front-end + execution, independent of activity.
    pub const CORE_BASE: f64 = 0.25;
    /// Core activity-dependent part, scaled by IPC/issue-width.
    pub const CORE_ACTIVITY: f64 = 0.34;
    /// L1 caches at full ways.
    pub const L1: f64 = 0.08;
    /// L2 cache at full ways.
    pub const L2: f64 = 0.06;
    /// ROB + scheduler at full entries (CAM-heavy, power-hungry).
    pub const ROB: f64 = 0.15;
}

/// Leakage power at nominal voltage (1.05 V), in watts, per component at
/// full size.
mod leak {
    pub const CORE: f64 = 0.16;
    pub const L1: f64 = 0.05;
    pub const L2: f64 = 0.10;
    pub const ROB: f64 = 0.12;
    /// Nominal voltage the leakage constants are quoted at.
    pub const V_NOM: f64 = 1.05;
}

/// The power-model terms that depend on the configuration alone: supply
/// voltage, leakage, and the gated components' switched capacitance.
///
/// The plant reads them from [`ConfigPower::table`] while its
/// configuration sits on the actuator grid, so each epoch pays only for
/// the activity- and IPC-dependent part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ConfigPower {
    freq_ghz: f64,
    voltage: f64,
    /// Leakage power in watts.
    pub(crate) leakage_w: f64,
    c_l1: f64,
    c_l2: f64,
    c_rob: f64,
}

impl ConfigPower {
    pub(crate) fn new(config: &PlantConfig) -> Self {
        let voltage = voltage_for(config.freq_ghz);
        let v = voltage / leak::V_NOM;
        let p = leak::CORE
            + leak::L1 * config.l1_ways() as f64 / 4.0
            + leak::L2 * config.l2_ways as f64 / 8.0
            + leak::ROB * config.rob_entries as f64 / 128.0;
        ConfigPower {
            freq_ghz: config.freq_ghz,
            voltage,
            leakage_w: p * v,
            c_l1: ceff::L1 * config.l1_ways() as f64 / 4.0,
            c_l2: ceff::L2 * config.l2_ways as f64 / 8.0,
            c_rob: ceff::ROB * config.rob_entries as f64 / 128.0,
        }
    }

    /// The terms of every on-grid configuration, shared by all plants and
    /// indexed by [`PlantConfig::grid_index`].
    pub(crate) fn table() -> &'static [ConfigPower] {
        static TABLE: std::sync::OnceLock<Vec<ConfigPower>> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| PlantConfig::grid_points().map(|c| Self::new(&c)).collect())
    }

    /// Dynamic power in watts at the given IPC and switching activity.
    pub(crate) fn dynamic_power(&self, ipc: f64, activity: f64) -> f64 {
        let (v, f) = (self.voltage, self.freq_ghz);
        let util = (ipc / crate::corem::ISSUE_WIDTH).clamp(0.0, 1.0);
        let c_core = ceff::CORE_BASE + ceff::CORE_ACTIVITY * util;
        activity * (c_core + self.c_l1 + self.c_l2 + self.c_rob) * v * v * f
    }

    /// Total power in watts.
    pub(crate) fn total_power(&self, ipc: f64, activity: f64) -> f64 {
        self.dynamic_power(ipc, activity) + self.leakage_w
    }
}

/// Dynamic power in watts for a configuration running at the given IPC and
/// switching activity.
pub fn dynamic_power(config: &PlantConfig, ipc: f64, activity: f64) -> f64 {
    ConfigPower::new(config).dynamic_power(ipc, activity)
}

/// Leakage power in watts for a configuration (gated components leak
/// nothing; leakage scales linearly with voltage).
pub fn leakage_power(config: &PlantConfig) -> f64 {
    ConfigPower::new(config).leakage_w
}

/// Total power in watts.
pub fn total_power(config: &PlantConfig, ipc: f64, activity: f64) -> f64 {
    ConfigPower::new(config).total_power(ipc, activity)
}

/// Transition costs of changing configuration between epochs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransitionCost {
    /// Stall time in microseconds (lost execution within the epoch).
    pub stall_us: f64,
    /// One-time energy overhead in microjoules.
    pub energy_uj: f64,
}

/// DVFS relock latency in microseconds (Table III: 5 µs).
pub const DVFS_LATENCY_US: f64 = 5.0;

/// Cache way power-gate + flush latency in microseconds per step.
pub const CACHE_GATE_LATENCY_US: f64 = 4.0;

/// ROB repartition latency in microseconds per step (cheap: drain only).
pub const ROB_GATE_LATENCY_US: f64 = 0.5;

/// Computes the transition cost from `from` to `to`.
///
/// Costs accumulate per changed actuator; multi-step jumps in cache/ROB pay
/// per step (ways are gated one at a time), while DVFS pays a single relock
/// regardless of distance — exactly the asymmetry behind the paper's input
/// weights (frequency has more settings but one fixed cost; cache steps are
/// individually expensive).
pub fn transition_cost(from: &PlantConfig, to: &PlantConfig) -> TransitionCost {
    let mut cost = TransitionCost::default();
    if (from.freq_ghz - to.freq_ghz).abs() > 1e-9 {
        cost.stall_us += DVFS_LATENCY_US;
        cost.energy_uj += 2.0;
    }
    if from.l2_ways != to.l2_ways {
        let steps = (from.l2_ways as i64 - to.l2_ways as i64).unsigned_abs() as f64 / 2.0;
        cost.stall_us += CACHE_GATE_LATENCY_US * steps;
        // Flushing dirty ways costs energy proportional to the ways moved.
        cost.energy_uj += 6.0 * steps;
    }
    if from.rob_entries != to.rob_entries {
        let steps = (from.rob_entries as i64 - to.rob_entries as i64).unsigned_abs() as f64 / 16.0;
        cost.stall_us += ROB_GATE_LATENCY_US * steps;
        cost.energy_uj += 0.5 * steps;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_table_interpolation() {
        assert!((voltage_for(0.5) - 0.85).abs() < 1e-12);
        assert!((voltage_for(2.0) - 1.25).abs() < 1e-12);
        assert!((voltage_for(1.3) - 1.05).abs() < 1e-12);
        // Midpoint of (1.0, 0.95)..(1.3, 1.05).
        assert!((voltage_for(1.15) - 1.00).abs() < 1e-9);
        // Clamped outside the table.
        assert_eq!(voltage_for(0.1), 0.85);
        assert_eq!(voltage_for(3.0), 1.25);
    }

    #[test]
    fn voltage_monotone_in_frequency() {
        let mut prev = 0.0;
        for i in 0..16 {
            let f = 0.5 + 0.1 * i as f64;
            let v = voltage_for(f);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn power_range_brackets_the_2w_target() {
        let min_cfg = PlantConfig {
            freq_ghz: 0.5,
            l2_ways: 2,
            rob_entries: 16,
        };
        let max_cfg = PlantConfig::max();
        let p_min = total_power(&min_cfg, 0.5, 0.6);
        let p_max = total_power(&max_cfg, 2.2, 1.05);
        assert!(p_min < 0.7, "min power {p_min:.2} W");
        assert!(p_max > 2.3, "max power {p_max:.2} W");
        assert!(p_max < 3.5, "max power {p_max:.2} W unreasonably high");
    }

    #[test]
    fn baseline_power_is_mid_range() {
        let p = total_power(&PlantConfig::baseline(), 1.5, 0.85);
        assert!((0.8..2.0).contains(&p), "baseline power {p:.2} W");
    }

    #[test]
    fn dynamic_power_superlinear_in_frequency() {
        // Doubling f also raises V, so power grows faster than 2x.
        let slow = PlantConfig {
            freq_ghz: 1.0,
            ..PlantConfig::max()
        };
        let fast = PlantConfig::max();
        let ratio = dynamic_power(&fast, 2.0, 1.0) / dynamic_power(&slow, 2.0, 1.0);
        assert!(ratio > 2.0 * 1.3, "V² scaling missing: ratio {ratio}");
    }

    #[test]
    fn gating_cache_cuts_both_power_terms() {
        let full = PlantConfig::max();
        let gated = PlantConfig { l2_ways: 2, ..full };
        assert!(dynamic_power(&gated, 1.5, 0.9) < dynamic_power(&full, 1.5, 0.9));
        assert!(leakage_power(&gated) < leakage_power(&full));
    }

    #[test]
    fn gating_rob_cuts_power() {
        let full = PlantConfig::max();
        let gated = PlantConfig {
            rob_entries: 16,
            ..full
        };
        let saved = total_power(&full, 1.5, 0.9) - total_power(&gated, 1.5, 0.9);
        assert!(saved > 0.05, "ROB gating saves {saved:.3} W");
    }

    #[test]
    fn higher_ipc_burns_more_power() {
        let cfg = PlantConfig::baseline();
        assert!(total_power(&cfg, 2.5, 0.9) > total_power(&cfg, 0.5, 0.9));
    }

    #[test]
    fn transition_costs_ranked_like_table_ii() {
        let base = PlantConfig::baseline();
        let freq_change = PlantConfig {
            freq_ghz: 1.4,
            ..base
        };
        let cache_change = PlantConfig { l2_ways: 4, ..base };
        let rob_change = PlantConfig {
            rob_entries: 64,
            ..base
        };
        let c_freq = transition_cost(&base, &freq_change);
        let c_cache = transition_cost(&base, &cache_change);
        let c_rob = transition_cost(&base, &rob_change);
        // Table II ordering: cache gating ≥ frequency > ROB resize.
        assert!(c_cache.stall_us + c_cache.energy_uj >= c_freq.stall_us);
        assert!(c_rob.stall_us < c_freq.stall_us);
        // No change, no cost.
        let none = transition_cost(&base, &base);
        assert_eq!(none, TransitionCost::default());
    }

    #[test]
    fn multi_step_cache_jumps_pay_per_step() {
        let base = PlantConfig::baseline(); // 6 ways
        let one = PlantConfig { l2_ways: 4, ..base };
        let three = PlantConfig { l2_ways: 2, ..base }; // 2 steps away
        let c1 = transition_cost(&base, &one);
        let c3 = transition_cost(&base, &three);
        assert!((c3.stall_us - 2.0 * c1.stall_us).abs() < 1e-9);
    }
}
