//! Memory pin for the shared-controller cluster: a core of
//! `ClusterRunner::with_shared_controller`, built the way the 64 × 64
//! cluster benchmark builds it (64 cores per chip, shared-LLC contention
//! at 4 ways per core), is held to the fleet core's per-core bounds.
//!
//! The growth of a 4-chip cluster minus that of a 2-chip cluster, over
//! the 128 extra cores, is the per-core cost with the per-cluster
//! constants cancelled out; each chip's own fixed state adds its share
//! over 64 cores. This is its own test binary, apart from
//! `shared_design_memory.rs`, so each binary's allocator counts only its
//! own heap, and everything runs from ONE `#[test]` function.

mod common;

use common::{assert_within_bounds, controller, held};
use mimo_core::lqg::LqgController;
use mimo_fleet::{ClusterConfig, ClusterRunner};
use mimo_sim::llc::LlcConfig;

/// Cores per chip, as in the 64 × 64 cluster benchmark.
const CORES: usize = 64;

/// Live heap bytes and blocks a freshly built `chips`-chip cluster holds.
fn cluster_footprint(chips: usize, ctrl: &LqgController) -> (i64, i64) {
    let cfg = ClusterConfig::new(chips, CORES)
        .epochs(10)
        .exchange_period(8)
        .llc_contention(LlcConfig::for_cores(CORES).total_ways(4 * CORES))
        .seed(2016);
    held(|| ClusterRunner::with_shared_controller(cfg, ctrl).unwrap())
}

#[test]
fn shared_controller_cluster_core_keeps_the_fleet_bounds() {
    let ctrl = controller();
    // Warm-up: lazily built tables are paid once, outside the measurement.
    cluster_footprint(2, &ctrl);
    let (bytes_4, blocks_4) = cluster_footprint(4, &ctrl);
    let (bytes_2, blocks_2) = cluster_footprint(2, &ctrl);
    let extra = (2 * CORES) as i64;
    assert_within_bounds(
        "shared-controller cluster",
        (bytes_4 - bytes_2) / extra,
        (blocks_4 - blocks_2) / extra,
    );
}
