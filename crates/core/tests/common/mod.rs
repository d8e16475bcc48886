//! The MIMO design flow as `mimo-exp`'s `setup::design_mimo` runs it:
//! its training and validation plants and its seeded flow.

use mimo_core::design::DesignFlow;
use mimo_sim::workload::{TRAINING_SET, VALIDATION_SET};
use mimo_sim::{InputSet, Processor, ProcessorBuilder};

pub fn plant(app: &str, input_set: InputSet, seed: u64) -> Processor {
    ProcessorBuilder::new()
        .app(app)
        .seed(seed)
        .input_set(input_set)
        .build()
        .unwrap()
}

/// `setup::design_mimo`'s training set.
pub fn training(input_set: InputSet, seed: u64) -> Vec<Processor> {
    TRAINING_SET
        .iter()
        .enumerate()
        .map(|(k, app)| plant(app, input_set, seed + k as u64))
        .collect()
}

/// `setup::design_mimo`'s validation set.
pub fn validation(input_set: InputSet, seed: u64) -> Vec<Processor> {
    VALIDATION_SET
        .iter()
        .enumerate()
        .map(|(k, app)| plant(app, input_set, seed + 100 + k as u64))
        .collect()
}

/// `setup::design_mimo`'s flow.
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
