//! Shared construction of plants and the four architectures (Table IV).

use mimo_core::decoupled::{design_decoupled, DecoupledGovernor};
use mimo_core::design::{DesignFlow, ValidatedDesign};
use mimo_core::heuristic::{profile_sensitivity, SensitivityRanking};
use mimo_core::optimizer::Metric;
use mimo_core::weights::WeightSet;
use mimo_core::Result;
use mimo_sim::workload::{TRAINING_SET, VALIDATION_SET};
use mimo_sim::{InputSet, PlantConfig, Processor, ProcessorBuilder};

/// Builds a plant for an application with the given input set.
///
/// # Panics
///
/// Panics if `app` is not in the catalog (experiment code uses the fixed
/// catalog names).
pub fn plant(app: &str, input_set: InputSet, seed: u64) -> Processor {
    try_plant(app, input_set, seed).expect("catalog app")
}

/// Fallible [`plant`]: grid cells use this so one bad workload name
/// reports (with the app attached) instead of aborting the whole sweep.
///
/// # Errors
///
/// Returns [`mimo_core::ControlError::ValidationFailed`] naming the app
/// when it is not in the catalog.
pub fn try_plant(app: &str, input_set: InputSet, seed: u64) -> Result<Processor> {
    ProcessorBuilder::new()
        .app(app)
        .seed(seed)
        .input_set(input_set)
        .build()
        .map_err(|e| mimo_core::ControlError::ValidationFailed {
            what: format!("plant '{app}': {e}"),
        })
}

/// The four training plants of §VII-A.
pub fn training_plants(input_set: InputSet, seed: u64) -> Vec<Processor> {
    TRAINING_SET
        .iter()
        .enumerate()
        .map(|(k, name)| plant(name, input_set, seed + k as u64))
        .collect()
}

/// The two validation plants of §VI-A2.
pub fn validation_plants(input_set: InputSet, seed: u64) -> Vec<Processor> {
    VALIDATION_SET
        .iter()
        .enumerate()
        .map(|(k, name)| plant(name, input_set, seed + 100 + k as u64))
        .collect()
}

/// Runs the full Figure 3 flow on the training/validation sets and returns
/// the deployed MIMO design.
///
/// # Errors
///
/// Propagates identification/synthesis/RSA failures.
pub fn design_mimo(input_set: InputSet, seed: u64) -> Result<ValidatedDesign> {
    design_mimo_with(input_set, seed, None)
}

/// The design flow [`design_mimo`] runs: Table III's two- or three-input
/// flow with its excitation seed derived from `seed`.
pub fn mimo_flow(input_set: InputSet, seed: u64) -> DesignFlow {
    let mut flow = match input_set {
        InputSet::FreqCache => DesignFlow::two_input(),
        InputSet::FreqCacheRob => DesignFlow::three_input(),
    };
    flow.seed = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(flow.seed);
    flow
}

/// Like [`design_mimo`] with an explicit weight set (Table V studies).
///
/// # Errors
///
/// Propagates identification/synthesis/RSA failures.
pub fn design_mimo_with(
    input_set: InputSet,
    seed: u64,
    weights: Option<WeightSet>,
) -> Result<ValidatedDesign> {
    let mut flow = mimo_flow(input_set, seed);
    if let Some(w) = weights {
        flow = flow.with_weights(w);
    }
    let mut training = training_plants(input_set, seed);
    let result = flow.run_multi(training.iter_mut())?;
    let mut validation = validation_plants(input_set, seed);
    flow.validate(result, validation.iter_mut())
}

/// Designs the Decoupled architecture (two-input plants only).
///
/// # Errors
///
/// Propagates SISO design failures.
pub fn decoupled_governor(seed: u64) -> Result<DecoupledGovernor> {
    let mut plants = training_plants(InputSet::FreqCache, seed);
    design_decoupled(&mut plants, seed)
}

/// Profiles the heuristic's feature ranking on the training set (averaged
/// impacts across the four apps).
pub fn heuristic_ranking(input_set: InputSet, seed: u64) -> SensitivityRanking {
    let mut plants = training_plants(input_set, seed + 500);
    let n_apps = plants.len() as f64;
    let n = input_set.len();
    let mut perf = vec![0.0; n];
    let mut power = vec![0.0; n];
    for p in &mut plants {
        let r = profile_sensitivity(p, 40);
        for i in 0..n {
            perf[i] += r.perf_impact[i] / n_apps;
            power[i] += r.power_impact[i] / n_apps;
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        (perf[b] + power[b])
            .partial_cmp(&(perf[a] + power[a]))
            .unwrap()
    });
    SensitivityRanking {
        perf_impact: perf,
        power_impact: power,
        order,
    }
}

/// The configurations [`baseline_config`] profiles, in the order it ranks
/// them: a coarse but covering grid of every other frequency, all cache
/// levels and every other ROB size (32 for two inputs, 128 for three).
pub fn baseline_candidates(input_set: InputSet) -> Vec<PlantConfig> {
    let robs: &[usize] = match input_set {
        InputSet::FreqCache => &[48], // Table III baseline ROB
        InputSet::FreqCacheRob => &[32, 64, 96, 128],
    };
    let mut candidates = Vec::with_capacity(8 * 4 * robs.len());
    for f in (0..8).map(|i| 0.5 + 0.2 * i as f64) {
        for l2_ways in [2usize, 4, 6, 8] {
            for &rob_entries in robs {
                candidates.push(PlantConfig {
                    freq_ghz: (f * 10.0).round() / 10.0,
                    l2_ways,
                    rob_entries,
                });
            }
        }
    }
    candidates
}

/// The Baseline architecture for a metric: profiles the training set over
/// [`baseline_candidates`] and fixes the configuration with the best
/// average `E·D^(k−1)` (§VII-C: "inputs fixed and chosen to deliver the
/// best outputs"); the first of equal scores wins.
///
/// Every candidate runs 400 epochs from the same fresh plant per training
/// app. [`Processor::sweep`] runs them all over one shared noise path,
/// which gives the totals of one plant per candidate bit for bit.
pub fn baseline_config(input_set: InputSet, metric: Metric, seed: u64) -> PlantConfig {
    let candidates = baseline_candidates(input_set);
    // Each candidate's score adds the apps in training-set order, as one
    // plant per candidate and app would.
    let mut scores = vec![0.0; candidates.len()];
    for (k, name) in TRAINING_SET.iter().enumerate() {
        // Fixed work per probe.
        let totals = plant(name, input_set, seed + 900 + k as u64).sweep(&candidates, 400);
        for (score, t) in scores.iter_mut().zip(&totals) {
            *score += t.energy_delay_product(metric.exponent() as u32);
        }
    }
    let mut best = PlantConfig::baseline();
    let mut best_score = f64::INFINITY;
    for (&cfg, &score) in candidates.iter().zip(&scores) {
        if score < best_score {
            best_score = score;
            best = cfg;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_and_validation_sets_build() {
        assert_eq!(training_plants(InputSet::FreqCache, 1).len(), 4);
        assert_eq!(validation_plants(InputSet::FreqCache, 1).len(), 2);
    }

    #[test]
    fn mimo_design_deploys_for_both_input_sets() {
        let two = design_mimo(InputSet::FreqCache, 11).unwrap();
        assert!(two.rsa.robust);
        assert_eq!(two.controller.num_inputs(), 2);
        let three = design_mimo(InputSet::FreqCacheRob, 11).unwrap();
        assert!(three.rsa.robust);
        assert_eq!(three.controller.num_inputs(), 3);
    }

    #[test]
    fn heuristic_ranking_prefers_frequency() {
        let r = heuristic_ranking(InputSet::FreqCache, 3);
        assert_eq!(r.order[0], 0, "{r:?}");
    }

    #[test]
    fn baseline_config_is_on_grid_and_reasonable() {
        let cfg = baseline_config(InputSet::FreqCache, Metric::EnergyDelay, 5);
        cfg.validate().unwrap();
        // E×D optimum should be an interior frequency, not an extreme.
        assert!(cfg.freq_ghz >= 0.7 && cfg.freq_ghz <= 1.9, "{cfg:?}");
    }
}
