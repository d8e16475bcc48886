//! Criterion benchmarks: runtime cost of the controller pieces and the
//! per-figure experiment kernels.
//!
//! The paper's overhead claim (§VI-C): the controller "performs four
//! floating-point vector-matrix multiplies" per 50 µs epoch and "stores
//! less than 100 floating-point numbers" — `lqg_step_into` measures our
//! equivalent; the other benches cover the design-time costs (DARE,
//! identification) and the simulator substrate, plus one scaled-down
//! kernel per figure experiment.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mimo_core::dare::solve_dare;
use mimo_core::decoupled::StaticDecoupled;
use mimo_core::design::DesignFlow;
use mimo_core::governor::{fast_governor, Governor, MimoGovernor};
use mimo_core::lqg::slew_step;
use mimo_core::optimizer::{Metric, Optimizer, MAX_TRIES};
use mimo_core::robust::analyze;
use mimo_exp::setup;
use mimo_linalg::{eigen, Matrix, Vector};
use mimo_sim::noise::NormalSampler;
use mimo_sim::{InputSet, Plant, ProcessorBuilder};
use mimo_sysid::arx::{ArxModel, ArxOrders};
use mimo_sysid::Samples;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_linalg(c: &mut Criterion) {
    let a = Matrix::from_fn(8, 8, |i, j| {
        if i == j {
            2.0
        } else {
            0.1 * ((i + j) % 5) as f64
        }
    });
    c.bench_function("linalg/lu_solve_8x8", |b| {
        let rhs = Matrix::identity(8);
        b.iter(|| black_box(&a).solve(black_box(&rhs)).unwrap())
    });
    c.bench_function("linalg/eigenvalues_8x8", |b| {
        b.iter(|| eigen::eigenvalues(black_box(&a)).unwrap())
    });
}

fn bench_dare(c: &mut Criterion) {
    // The augmented design system of the 2-input controller is 8x8.
    let a = Matrix::from_fn(8, 8, |i, j| {
        if i == j {
            0.9
        } else if j == i + 1 {
            0.2
        } else {
            0.0
        }
    });
    let b_m = Matrix::from_fn(8, 2, |i, j| if i % 2 == j { 0.5 } else { 0.1 });
    let q = Matrix::identity(8);
    let r = Matrix::diag(&[1.0, 2.0]);
    c.bench_function("control/dare_8x8", |b| {
        b.iter(|| solve_dare(black_box(&a), black_box(&b_m), &q, &r).unwrap())
    });
}

/// Robust Stability Analysis of the deployed designs at the design flow's
/// grid (`rsa_analyze_*`: one full sweep, what the accepted probe of
/// `DesignFlow::rsa_redesign` costs), and the whole redesign ladder from
/// the identified design and its guardbands (`rsa_redesign_*`: three
/// redesigns on either input set at seed 2016).
fn bench_rsa(c: &mut Criterion) {
    for (name, set) in [
        ("2in", InputSet::FreqCache),
        ("3in", InputSet::FreqCacheRob),
    ] {
        let flow = setup::mimo_flow(set, 2016);
        let d = setup::design_mimo(set, 2016).expect("design");
        c.bench_function(&format!("control/rsa_analyze_{name}"), |b| {
            b.iter(|| {
                analyze(
                    black_box(&d.model),
                    &d.controller,
                    &d.guardbands,
                    flow.rsa_grid,
                )
                .unwrap()
            })
        });
        let result = flow
            .run_multi(setup::training_plants(set, 2016).iter_mut())
            .expect("identification");
        c.bench_function(&format!("control/rsa_redesign_{name}"), |b| {
            b.iter(|| {
                flow.rsa_redesign(black_box(&result), &d.guardbands)
                    .unwrap()
            })
        });
    }
}

fn bench_lqg_step(c: &mut Criterion) {
    // §VI-C overhead claim: one controller invocation per 50 µs epoch.
    let design = setup::design_mimo(InputSet::FreqCache, 1).expect("design");
    let mut ctrl = design.controller;
    ctrl.set_reference(&Vector::from_slice(&[2.8, 1.9]));
    let y = Vector::from_slice(&[2.3, 1.7]);
    // The allocation-free path the epoch engine drives: every temporary
    // lives in the scratch workspace.
    let mut out = Vector::zeros(2);
    c.bench_function("control/lqg_step_into", |b| {
        b.iter(|| {
            ctrl.step_into(black_box(&y), &mut out);
            black_box(out[0])
        })
    });
    // The stack-allocated controller (the path the fleet actually steps
    // after `fast_governor`): bit-identical arithmetic, monomorphized over
    // the 2-input architecture's fixed shape.
    let mut fixed = setup::design_mimo(InputSet::FreqCache, 1)
        .expect("design")
        .controller
        .into_static::<2, 2, 4, 8>()
        .expect("two-input architecture is 2-in/2-out/4-state");
    fixed.set_reference(&Vector::from_slice(&[2.8, 1.9]));
    c.bench_function("control/lqg_step_into_static", |b| {
        b.iter(|| {
            fixed.step_into(black_box(&y), &mut out);
            black_box(out[0])
        })
    });
    // The Decoupled governor's decide, two SISO loops per call: on the
    // dynamic storage design hands out, and converted to the static
    // storage the experiments step.
    let mut decoupled = setup::decoupled_governor(1).expect("design");
    let mut decoupled_static: StaticDecoupled = decoupled
        .with_storage()
        .expect("decoupled loops are 1-in/1-out/2-state");
    decoupled.set_targets(&Vector::from_slice(&[2.8, 1.9]));
    decoupled_static.set_targets(&Vector::from_slice(&[2.8, 1.9]));
    c.bench_function("control/lqg_step_into_decoupled", |b| {
        b.iter(|| {
            decoupled
                .decide_into(black_box(&y), false, &mut out)
                .unwrap();
            black_box(out[0])
        })
    });
    c.bench_function("control/lqg_step_into_decoupled_static", |b| {
        b.iter(|| {
            decoupled_static
                .decide_into(black_box(&y), false, &mut out)
                .unwrap();
            black_box(out[0])
        })
    });
    // Retargeting with an unchanged reference (the fleet arbiter's common
    // case) must cost a compare, not a steady-state resolve.
    let targets = Vector::from_slice(&[2.8, 1.9]);
    c.bench_function("control/set_reference_unchanged", |b| {
        b.iter(|| ctrl.set_reference(black_box(&targets)))
    });
    // Retargeting under a contended chip's arbiter, where the grant moves
    // every epoch: alternating two references makes every call re-solve
    // the steady state.
    let moving = [targets.clone(), Vector::from_slice(&[2.7, 1.8])];
    let mut flip = 0;
    c.bench_function("control/set_reference_moving", |b| {
        b.iter(|| {
            flip ^= 1;
            ctrl.set_reference(black_box(&moving[flip]))
        })
    });
    c.bench_function("control/set_reference_moving_static", |b| {
        b.iter(|| {
            flip ^= 1;
            fixed.set_reference(black_box(&moving[flip]))
        })
    });
}

/// One held-index slew step on the 16-point frequency grid. The candidate
/// sweeps from below the grid to above it, so the held index walks the
/// grid, holds at its ends and steps back down on the wrap.
fn bench_slew(c: &mut Criterion) {
    let grids = [InputSet::FreqCache.grid(0).values().to_vec()];
    let candidates: Vec<f64> = (0..64).map(|k| 0.3 + 0.03 * f64::from(k)).collect();
    let mut held = [grids[0].len() / 2];
    let mut out = [0.0];
    let mut k = 0;
    c.bench_function("control/slew_step", |b| {
        b.iter(|| {
            k = (k + 1) % candidates.len();
            slew_step(&grids, &[black_box(candidates[k])], &mut held, &mut out);
            black_box(out[0])
        })
    });
}

/// The shared epoch engine against the same governor/plant pair the
/// hand-rolled `fig/tracking_200_epochs` kernel drives: the difference is
/// the `decide_into`/`apply_into` hot path vs the allocating `decide`/
/// `apply` calls.
fn bench_engine(c: &mut Criterion) {
    use mimo_core::engine::EpochLoop;
    let design = setup::design_mimo(InputSet::FreqCache, 5).expect("design");
    c.bench_function("engine/tracking_200_epochs", |b| {
        b.iter(|| {
            let gov = MimoGovernor::new(design.controller.clone());
            let plant = setup::plant("astar", InputSet::FreqCache, 6);
            let mut lp = EpochLoop::new(gov, plant);
            lp.set_targets(&Vector::from_slice(&[2.8, 1.9]));
            lp.seed_outputs(&Vector::from_slice(&[1.0, 1.0]));
            for _ in 0..200 {
                lp.step();
            }
            black_box(lp.outputs()[0])
        })
    });
}

/// One plant epoch through the allocation-free `apply_into`, on both of
/// the plant's paths: a held actuation reuses the configuration's cached
/// terms, a new grid configuration every epoch rebuilds them and pays the
/// transition. Then one noise draw, and a configuration sweep against the
/// serial loop it replaces.
fn bench_sim_epoch(c: &mut Criterion) {
    let mut cpu = ProcessorBuilder::new()
        .app("astar")
        .seed(3)
        .build()
        .unwrap();
    let mut out = Vector::zeros(2);
    let held = Vector::from_slice(&[1.3, 6.0, 48.0]);
    c.bench_function("sim/processor_epoch_held", |b| {
        b.iter(|| {
            cpu.apply_into(black_box(&held), &mut out).unwrap();
            black_box(out[0])
        })
    });
    // Consecutive entries differ in every input, so each epoch moves.
    let moving: Vec<Vector> = (0..8)
        .map(|i| {
            Vector::from_slice(&[
                0.5 + 0.2 * i as f64,
                [2.0, 8.0, 4.0, 6.0][i % 4],
                16.0 * (1 + (3 * i) % 8) as f64,
            ])
        })
        .collect();
    let mut next = 0;
    c.bench_function("sim/processor_epoch_moving", |b| {
        b.iter(|| {
            next = (next + 1) % moving.len();
            cpu.apply_into(black_box(&moving[next]), &mut out).unwrap();
            black_box(out[0])
        })
    });
    // One plant noise draw, averaged over both halves of a Box–Muller pair.
    let mut rng = StdRng::seed_from_u64(3);
    let mut normal = NormalSampler::new();
    c.bench_function("sim/standard_normal", |b| {
        b.iter(|| black_box(normal.sample(&mut rng)))
    });

    // One training app of the three-input Baseline grid profile: 128
    // candidates × 400 epochs over one shared noise path, against the
    // same totals from a cloned plant per candidate.
    let candidates = setup::baseline_candidates(InputSet::FreqCacheRob);
    let plant = setup::plant("sjeng", InputSet::FreqCacheRob, 2016 + 900);
    c.bench_function("sim/config_sweep_128x400", |b| {
        b.iter(|| black_box(plant.sweep(&candidates, 400)))
    });
    c.bench_function("sim/config_serial_128x400", |b| {
        b.iter(|| {
            let totals: Vec<_> = candidates
                .iter()
                .map(|&cfg| {
                    let mut p = plant.clone();
                    for _ in 0..400 {
                        p.step_config(cfg);
                    }
                    p.totals()
                })
                .collect();
            black_box(totals)
        })
    });
}

fn bench_sysid_fit(c: &mut Criterion) {
    // 2-in 2-out ARX fits: 2000 samples, and 8400, the size of one
    // `design_mimo` identification (4 training apps × 3 segments × 700).
    let orders = ArxOrders {
        na: 1,
        nb: 1,
        direct_feedthrough: false,
    };
    for steps in [2000, 8400] {
        let mut u = Samples::with_capacity(steps, 2);
        let mut y = Samples::with_capacity(steps, 2);
        let mut state = [0.0_f64; 2];
        for t in 0..steps {
            let ut = [
                ((t * 31) % 11) as f64 / 5.0 - 1.0,
                ((t * 17) % 7) as f64 / 3.0 - 1.0,
            ];
            let yt = [
                0.6 * state[0] + 0.4 * ut[0] + 0.1 * ut[1],
                0.5 * state[1] + 0.2 * ut[0] + 0.5 * ut[1],
            ];
            state = yt;
            u.push(&ut);
            y.push(&yt);
        }
        c.bench_function(&format!("sysid/arx_fit_{steps}"), |b| {
            b.iter(|| ArxModel::fit(black_box(u.view()), black_box(y.view()), orders).unwrap())
        });
    }
}

/// One scaled-down kernel per paper experiment (the figure binaries run
/// the full versions; these track the cost of each experiment's inner
/// loop).
fn bench_figures(c: &mut Criterion) {
    // Figure 6/8/11/12 kernel: a tracking run.
    let design = setup::design_mimo(InputSet::FreqCache, 5).expect("design");
    c.bench_function("fig/tracking_200_epochs", |b| {
        b.iter(|| {
            let mut gov = MimoGovernor::new(design.controller.clone());
            gov.set_targets(&Vector::from_slice(&[2.8, 1.9]));
            let mut plant = setup::plant("astar", InputSet::FreqCache, 6);
            let mut y = Vector::from_slice(&[1.0, 1.0]);
            for _ in 0..200 {
                let u = gov.decide(&y, plant.phase_changed());
                y = plant.apply(&u);
            }
            black_box(y)
        })
    });
    // Figure 7 kernel: identification + realization at dimension 4.
    c.bench_function("fig/identify_dim4", |b| {
        b.iter(|| {
            let mut plant = ProcessorBuilder::new()
                .app("namd")
                .seed(7)
                .input_set(InputSet::FreqCache)
                .build()
                .unwrap();
            let mut flow = DesignFlow::two_input();
            flow.segment_epochs = 250;
            black_box(flow.run(&mut plant).unwrap().model.state_dim())
        })
    });
    // Figures 9/10 kernel: one optimizer search step cycle.
    c.bench_function("fig/optimizer_search", |b| {
        b.iter(|| {
            let mut opt = Optimizer::new(Metric::EnergyDelay, 2.0, 1.0, MAX_TRIES);
            let mut ips = 2.0;
            let mut p = 1.0;
            while let Some(t) = opt.observe(ips, p) {
                ips = t[0].min(3.0);
                p = t[1].clamp(0.3, 2.5);
            }
            black_box(opt.targets())
        })
    });
}

/// Fleet-runtime cost: one chip-budgeted multi-core epoch sweep, on the
/// default and the dynamic governor path, plus the arbiter alone.
fn bench_fleet(c: &mut Criterion) {
    let design = setup::design_mimo(InputSet::FreqCache, 9).expect("design");
    // Default path: `fast_governor` picks static storage for this shape.
    c.bench_function("fleet/16_cores_50_epochs", |b| {
        b.iter(|| {
            let cfg = mimo_fleet::FleetConfig::new(16).epochs(50).seed(11);
            let runner =
                mimo_fleet::FleetRunner::with_shared_controller(cfg, &design.controller).unwrap();
            black_box(runner.run().unwrap().digest())
        })
    });
    // The dynamic path pinned, for measuring the static-storage gap (the
    // science is bit-identical, only the step cost differs).
    c.bench_function("fleet/16_cores_50_epochs_dynamic", |b| {
        b.iter(|| {
            let cfg = mimo_fleet::FleetConfig::new(16).epochs(50).seed(11);
            let runner = mimo_fleet::FleetRunner::new(cfg, |_, _| {
                Box::new(MimoGovernor::new(design.controller.clone()))
            })
            .unwrap();
            black_box(runner.run().unwrap().digest())
        })
    });
    c.bench_function("fleet/arbitrate_64_cores", |b| {
        let mut arb = mimo_fleet::BudgetArbiter::new(
            76.8,
            mimo_fleet::ArbitrationPolicy::Proportional,
            [3.0, 1.9],
            vec![1.0; 64],
        );
        let obs: Vec<mimo_fleet::CoreObs> = (0..64)
            .map(|i| mimo_fleet::CoreObs {
                ips: 2.0 + 0.01 * i as f64,
                power: 1.0 + 0.01 * i as f64,
            })
            .collect();
        b.iter(|| black_box(arb.arbitrate(black_box(&obs))))
    });
}

/// Cluster-runtime cost: a 4-chip × 4-core hierarchy stepped through two
/// exchange windows, barrier-free within each window, at one and several
/// shards — plus a lone chip's serial epoch beat with LLC coupling on.
fn bench_cluster(c: &mut Criterion) {
    let design = setup::design_mimo(InputSet::FreqCache, 9).expect("design");
    for shards in [1usize, 4] {
        c.bench_function(&format!("cluster/4x4_50_epochs_s{shards}"), |b| {
            b.iter(|| {
                let cfg = mimo_fleet::ClusterConfig::new(4, 4)
                    .epochs(50)
                    .exchange_period(25)
                    .shards(shards)
                    .llc_contention(mimo_sim::LlcConfig::for_cores(4).total_ways(16))
                    .seed(11);
                let runner =
                    mimo_fleet::ClusterRunner::with_shared_controller(cfg, &design.controller)
                        .unwrap();
                black_box(runner.run().unwrap().digest())
            })
        });
    }
    c.bench_function("cluster/chip_step_4_cores_llc", |b| {
        b.iter(|| {
            let cfg = mimo_fleet::FleetConfig::new(4)
                .epochs(50)
                .seed(11)
                .llc_contention(mimo_sim::LlcConfig::for_cores(4).total_ways(16));
            let mut factory =
                |_: usize, _: &mimo_fleet::CoreSpec| fast_governor(design.controller.clone());
            let mut chip = mimo_fleet::Chip::build(0, cfg, &mut factory).unwrap();
            for _ in 0..50 {
                chip.step_epoch();
            }
            black_box(chip.into_results().0.digest())
        })
    });
}

criterion_group!(
    benches,
    bench_linalg,
    bench_dare,
    bench_rsa,
    bench_lqg_step,
    bench_slew,
    bench_engine,
    bench_sim_epoch,
    bench_sysid_fit,
    bench_figures,
    bench_fleet,
    bench_cluster
);
criterion_main!(benches);
