//! Controller hot-path micro-timing (`mimo-exp bench`).
//!
//! Measures the two numbers the storage refactor is about — the
//! per-epoch LQG step and a 16-core fleet epoch sweep — on both the
//! dynamic heap-backed path and the stack-allocated static path, and
//! renders them as `BENCH_controller.json`. Unlike the Criterion suite
//! (which needs `cargo bench` and minutes of sampling) this is a fast
//! median-of-batches measurement suitable for CI smoke runs and for
//! committing a baseline artifact.
//!
//! Timings are observational only; the measured controllers are
//! bit-identical by construction (the golden digests prove it), so the
//! speedup ratio is the only thing that can legitimately move here.

use std::hint::black_box;
use std::time::Instant;

use mimo_linalg::Vector;
use mimo_sim::InputSet;

use crate::setup;

/// Median per-iteration wall time in nanoseconds: `samples` batches of
/// `iters` calls each, median across batches (robust to scheduler noise
/// without Criterion's warm-up machinery).
fn median_ns_per_iter(samples: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    // Warm one batch so lazily-initialized state (grids, caches) is paid
    // outside the measurement.
    for _ in 0..iters {
        f();
    }
    let mut batches: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    batches.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    batches[batches.len() / 2]
}

/// The measured timings, ready for [`render_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerBench {
    /// Dynamic-storage LQG step, ns per call.
    pub lqg_step_dynamic_ns: f64,
    /// Static-storage LQG step, ns per call.
    pub lqg_step_static_ns: f64,
    /// 16-core, 50-epoch fleet sweep on the dynamic path, ms per run.
    pub fleet_epoch_dynamic_ms: f64,
    /// Same sweep on the default (static) path, ms per run.
    pub fleet_epoch_static_ms: f64,
}

impl ControllerBench {
    /// `dynamic / static` step-time ratio (> 1 means static is faster).
    pub fn step_speedup(&self) -> f64 {
        self.lqg_step_dynamic_ns / self.lqg_step_static_ns
    }

    /// `dynamic / static` fleet-sweep ratio.
    pub fn fleet_speedup(&self) -> f64 {
        self.fleet_epoch_dynamic_ms / self.fleet_epoch_static_ms
    }
}

/// Runs the measurement on the paper's two-input architecture
/// (2-in/2-out/4-state, the shape the fleet deploys).
///
/// # Errors
///
/// Propagates controller-synthesis failures as strings (the CLI's error
/// currency).
pub fn run() -> Result<ControllerBench, String> {
    let design = setup::design_mimo(InputSet::FreqCache, 1).map_err(|e| e.to_string())?;

    // --- LQG step, dynamic vs static ------------------------------------
    let mut dynamic = design.controller.clone();
    dynamic.set_reference(&Vector::from_slice(&[2.8, 1.9]));
    let mut fixed = design
        .controller
        .clone()
        .into_static::<2, 2, 4, 8>()
        .map_err(|e| e.to_string())?;
    fixed.set_reference(&Vector::from_slice(&[2.8, 1.9]));
    let y = Vector::from_slice(&[2.3, 1.7]);
    let mut out = Vector::zeros(2);
    let lqg_step_dynamic_ns = median_ns_per_iter(15, 20_000, || {
        dynamic.step_into(black_box(&y), &mut out);
        black_box(out[0]);
    });
    let lqg_step_static_ns = median_ns_per_iter(15, 20_000, || {
        fixed.step_into(black_box(&y), &mut out);
        black_box(out[0]);
    });

    // --- 16-core, 50-epoch fleet sweep -----------------------------------
    let fleet = |static_path: bool| -> Result<f64, String> {
        let ns = median_ns_per_iter(9, 1, || {
            let cfg = mimo_fleet::FleetConfig::new(16).epochs(50).seed(11);
            let runner = if static_path {
                mimo_fleet::FleetRunner::with_shared_controller(cfg, &design.controller)
            } else {
                mimo_fleet::FleetRunner::with_shared_controller_dynamic(cfg, &design.controller)
            }
            .expect("validated fleet config");
            black_box(runner.run().expect("validated fleet config").digest());
        });
        Ok(ns / 1e6)
    };
    let fleet_epoch_static_ms = fleet(true)?;
    let fleet_epoch_dynamic_ms = fleet(false)?;

    Ok(ControllerBench {
        lqg_step_dynamic_ns,
        lqg_step_static_ns,
        fleet_epoch_dynamic_ms,
        fleet_epoch_static_ms,
    })
}

/// Fleet- and cluster-scale timings — banked structure-of-arrays stepping
/// vs the per-cell boxed-governor path — ready for [`render_fleet_json`].
///
/// Both paths are bit-identical by construction (the parity suites prove
/// it), so only the wall-clock ratio can legitimately move here.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBench {
    /// Hardware threads on the measuring host. Both measurements step
    /// each chip on one thread, so any gain is pure bank-kernel
    /// efficiency.
    pub host_cpus: usize,
    /// 16-core, 50-epoch fleet sweep, per-cell governors, ms per run.
    pub fleet_per_cell_ms: f64,
    /// Same sweep with banked SoA stepping, ms per run.
    pub fleet_banked_ms: f64,
    /// Epochs of the 64-chip × 64-core cluster measurement.
    pub cluster_epochs: usize,
    /// 64×64 cluster (4096 governors), per-cell, µs per chip epoch
    /// (amortized: total wall / epochs, including runner construction).
    pub cluster_per_cell_epoch_us: f64,
    /// Same cluster with banked stepping, µs per chip epoch.
    pub cluster_banked_epoch_us: f64,
}

impl FleetBench {
    /// `per_cell / banked` fleet-sweep ratio (> 1 means banked is faster).
    pub fn fleet_speedup(&self) -> f64 {
        self.fleet_per_cell_ms / self.fleet_banked_ms
    }

    /// `per_cell / banked` cluster-epoch ratio.
    pub fn cluster_speedup(&self) -> f64 {
        self.cluster_per_cell_epoch_us / self.cluster_banked_epoch_us
    }
}

/// Runs the fleet/cluster measurement: the PR 7 baseline sweep
/// (16 cores × 50 epochs) and a 64-chip × 64-core cluster epoch, each on
/// the per-cell and the banked path.
///
/// # Errors
///
/// Propagates controller-synthesis failures as strings (the CLI's error
/// currency).
pub fn run_fleet() -> Result<FleetBench, String> {
    let design = setup::design_mimo(InputSet::FreqCache, 1).map_err(|e| e.to_string())?;

    let fleet = |banked: bool| -> f64 {
        median_ns_per_iter(25, 1, || {
            let cfg = mimo_fleet::FleetConfig::new(16)
                .epochs(50)
                .seed(11)
                .banked(banked);
            let runner = mimo_fleet::FleetRunner::with_shared_controller(cfg, &design.controller)
                .expect("validated fleet config");
            black_box(runner.run().expect("validated fleet config").digest());
        }) / 1e6
    };
    let fleet_per_cell_ms = fleet(false);
    let fleet_banked_ms = fleet(true);

    // 64 chips × 64 cores = 4096 governors. Amortized per-epoch cost:
    // total wall (including construction) over the epoch count.
    const CLUSTER_EPOCHS: usize = 24;
    let cluster = |banked: bool| -> f64 {
        median_ns_per_iter(7, 1, || {
            let cfg = mimo_fleet::ClusterConfig::new(64, 64)
                .shards(1)
                .epochs(CLUSTER_EPOCHS)
                .exchange_period(8)
                .seed(17)
                .banked(banked);
            let runner = mimo_fleet::ClusterRunner::with_shared_controller(cfg, &design.controller)
                .expect("validated cluster config");
            black_box(runner.run().expect("validated cluster config").digest());
        }) / 1e3
            / CLUSTER_EPOCHS as f64
    };
    let cluster_per_cell_epoch_us = cluster(false);
    let cluster_banked_epoch_us = cluster(true);

    Ok(FleetBench {
        host_cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        fleet_per_cell_ms,
        fleet_banked_ms,
        cluster_epochs: CLUSTER_EPOCHS,
        cluster_per_cell_epoch_us,
        cluster_banked_epoch_us,
    })
}

/// Renders the fleet timings as the `BENCH_fleet.json` document.
pub fn render_fleet_json(b: &FleetBench) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"mimo-exp-fleet-bench/1\",\n");
    out.push_str(&format!("  \"host_cpus\": {},\n", b.host_cpus));
    out.push_str(&format!(
        "  \"fleet_16c_50e_ms\": {{ \"per_cell\": {:.3}, \"banked\": {:.3}, \"speedup\": {:.3} }},\n",
        b.fleet_per_cell_ms,
        b.fleet_banked_ms,
        b.fleet_speedup()
    ));
    out.push_str(&format!(
        "  \"cluster_64x64_epoch_us\": {{ \"per_cell\": {:.1}, \"banked\": {:.1}, \"speedup\": {:.3}, \"epochs\": {}, \"governors\": 4096 }}\n",
        b.cluster_per_cell_epoch_us,
        b.cluster_banked_epoch_us,
        b.cluster_speedup(),
        b.cluster_epochs
    ));
    out.push_str("}\n");
    out
}

/// Renders the timings as the `BENCH_controller.json` document.
pub fn render_json(b: &ControllerBench) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"mimo-exp-controller-bench/1\",\n");
    out.push_str("  \"architecture\": \"two-input (2-in/2-out/4-state)\",\n");
    out.push_str(&format!(
        "  \"lqg_step_ns\": {{ \"dynamic\": {:.1}, \"static\": {:.1}, \"speedup\": {:.3} }},\n",
        b.lqg_step_dynamic_ns,
        b.lqg_step_static_ns,
        b.step_speedup()
    ));
    out.push_str(&format!(
        "  \"fleet_16c_50e_ms\": {{ \"dynamic\": {:.3}, \"static\": {:.3}, \"speedup\": {:.3} }}\n",
        b.fleet_epoch_dynamic_ms,
        b.fleet_epoch_static_ms,
        b.fleet_speedup()
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_document_shape() {
        let b = ControllerBench {
            lqg_step_dynamic_ns: 150.0,
            lqg_step_static_ns: 100.0,
            fleet_epoch_dynamic_ms: 1.5,
            fleet_epoch_static_ms: 1.2,
        };
        let doc = render_json(&b);
        assert!(doc.starts_with('{') && doc.ends_with("}\n"));
        assert!(doc.contains("\"lqg_step_ns\""));
        assert!(doc.contains("\"fleet_16c_50e_ms\""));
        assert!(doc.contains("\"speedup\": 1.500"));
        assert!((b.step_speedup() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fleet_json_document_shape() {
        let b = FleetBench {
            host_cpus: 8,
            fleet_per_cell_ms: 1.8,
            fleet_banked_ms: 0.45,
            cluster_epochs: 24,
            cluster_per_cell_epoch_us: 9000.0,
            cluster_banked_epoch_us: 3000.0,
        };
        let doc = render_fleet_json(&b);
        assert!(doc.starts_with('{') && doc.ends_with("}\n"));
        assert!(doc.contains("\"schema\": \"mimo-exp-fleet-bench/1\""));
        assert!(doc.contains("\"host_cpus\": 8"));
        assert!(doc.contains("\"fleet_16c_50e_ms\""));
        assert!(doc.contains("\"cluster_64x64_epoch_us\""));
        assert!(doc.contains("\"governors\": 4096"));
        assert!((b.fleet_speedup() - 4.0).abs() < 1e-12);
        assert!((b.cluster_speedup() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        let mut calls = 0u32;
        let ns = median_ns_per_iter(5, 1, || {
            calls += 1;
            if calls == 2 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        // The one slow batch must not drag the median to milliseconds.
        assert!(ns < 1e6, "median polluted by outlier: {ns} ns");
    }
}
