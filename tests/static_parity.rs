//! End-to-end static-vs-dynamic parity on real synthesized controllers.
//!
//! The linalg property tests pin the kernels shape by shape; these tests
//! pin the whole stack: controllers produced by the actual design flow
//! (identification → weights → LQR/Kalman → guardbands) are stepped on
//! both storage paths through identical measurement sequences and must
//! agree to the bit at every epoch. Covers both deployed MIMO shapes —
//! two-input (StaticStore<2, 2, 4, 8>) and three-input
//! (StaticStore<3, 2, 5, 10>) — plus the governor-level dispatch and the
//! Decoupled pair of SISO loops (StaticStore<1, 1, 2, 4>) in closed loop.

use mimo_arch::core::decoupled::StaticDecoupled;
use mimo_arch::core::governor::{fast_governor, Governor, MimoGovernor};
use mimo_arch::core::{LqgController, StaticStore};
use mimo_arch::exp::setup;
use mimo_arch::linalg::Vector;
use mimo_arch::sim::{InputSet, Plant};

/// Deterministic, lightly chaotic measurement sequence in physical units.
fn measurement(t: usize, outputs: usize) -> Vector {
    Vector::from_fn(outputs, |c| {
        let x = (t as f64) * 0.173 + (c as f64) * 1.7;
        2.0 + x.sin() + 0.3 * (3.1 * x).cos()
    })
}

fn assert_steps_match<const NU: usize, const NY: usize, const NX: usize, const NZ: usize>(
    mut dynamic: LqgController,
    epochs: usize,
) {
    let nu = dynamic.num_inputs();
    let ny = dynamic.num_outputs();
    let mut fixed = dynamic
        .with_storage::<StaticStore<NU, NY, NX, NZ>>()
        .expect("const dims match the architecture");
    let targets = Vector::from_fn(ny, |c| 2.4 - 0.3 * c as f64);
    dynamic.set_reference(&targets);
    fixed.set_reference(&targets);
    let mut u_d = Vector::zeros(nu);
    let mut u_s = Vector::zeros(nu);
    for t in 0..epochs {
        let y = measurement(t, ny);
        dynamic.step_into(&y, &mut u_d);
        fixed.step_into(&y, &mut u_s);
        for k in 0..nu {
            assert_eq!(
                u_d[k].to_bits(),
                u_s[k].to_bits(),
                "epoch {t} channel {k}: dynamic {} vs static {}",
                u_d[k],
                u_s[k]
            );
        }
    }
}

#[test]
fn two_input_architecture_parity() {
    let ctrl = setup::design_mimo(InputSet::FreqCache, 2)
        .expect("design")
        .controller;
    assert_eq!(
        (
            ctrl.num_inputs(),
            ctrl.num_outputs(),
            ctrl.model().state_dim()
        ),
        (2, 2, 4),
        "two-input architecture shape drifted; update StaticStore dims"
    );
    assert_steps_match::<2, 2, 4, 8>(ctrl, 500);
}

#[test]
fn three_input_architecture_parity() {
    let ctrl = setup::design_mimo(InputSet::FreqCacheRob, 3)
        .expect("design")
        .controller;
    assert_eq!(
        (
            ctrl.num_inputs(),
            ctrl.num_outputs(),
            ctrl.model().state_dim()
        ),
        (3, 2, 5),
        "three-input architecture shape drifted; update StaticStore dims"
    );
    assert_steps_match::<3, 2, 5, 10>(ctrl, 500);
}

#[test]
fn fast_governor_matches_dynamic_governor() {
    let ctrl = setup::design_mimo(InputSet::FreqCache, 4)
        .expect("design")
        .controller;
    let mut fast = fast_governor(ctrl.clone());
    let mut dynamic = MimoGovernor::new(ctrl);
    let targets = Vector::from_slice(&[2.8, 1.9]);
    fast.set_targets(&targets);
    dynamic.set_targets(&targets);
    let mut u_f = Vector::zeros(2);
    let mut u_d = Vector::zeros(2);
    for t in 0..400 {
        let y = measurement(t, 2);
        fast.decide_into(&y, false, &mut u_f).expect("finite y");
        dynamic.decide_into(&y, false, &mut u_d).expect("finite y");
        assert_eq!(u_f[0].to_bits(), u_d[0].to_bits(), "epoch {t}");
        assert_eq!(u_f[1].to_bits(), u_d[1].to_bits(), "epoch {t}");
    }
    assert_eq!(fast.name(), "MIMO");
}

fn bits(v: &Vector) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The designed Decoupled pair against its static conversion, each in
/// closed loop on its own copy of the same seeded plant: every decision and
/// every measurement agrees to the bit, through a retarget and a `reset` of
/// both governors. From mid-run on, a third governor converted from the
/// dynamic pair's state decides on the dynamic pair's measurements and
/// must match it too.
#[test]
fn decoupled_static_matches_dynamic_in_closed_loop() {
    let mut dynamic = setup::decoupled_governor(5).expect("design");
    let mut fixed: StaticDecoupled = dynamic
        .with_storage()
        .expect("decoupled loops drifted from 1-in/1-out/2-state; update StaticDecoupled");
    let mut converted: Option<StaticDecoupled> = None;
    let mut plant_d = setup::plant("astar", InputSet::FreqCache, 77);
    let mut plant_s = setup::plant("astar", InputSet::FreqCache, 77);
    let targets = Vector::from_slice(&[2.5, 2.0]);
    dynamic.set_targets(&targets);
    fixed.set_targets(&targets);
    let (mut y_d, mut y_s) = (plant_d.observe(), plant_s.observe());
    let (mut u_d, mut u_s, mut u_c) = (Vector::zeros(2), Vector::zeros(2), Vector::zeros(2));
    for t in 0..900 {
        match t {
            200 => {
                let moved = Vector::from_slice(&[1.6, 1.2]);
                dynamic.set_targets(&moved);
                fixed.set_targets(&moved);
            }
            400 => {
                dynamic.reset();
                fixed.reset();
            }
            600 => converted = Some(dynamic.with_storage().expect("SISO shape")),
            _ => {}
        }
        dynamic
            .decide_into(&y_d, false, &mut u_d)
            .expect("finite y");
        fixed.decide_into(&y_s, false, &mut u_s).expect("finite y");
        assert_eq!(bits(&u_d), bits(&u_s), "epoch {t}: decisions");
        if let Some(c) = converted.as_mut() {
            c.decide_into(&y_d, false, &mut u_c).expect("finite y");
            assert_eq!(bits(&u_d), bits(&u_c), "epoch {t}: converted decision");
        }
        y_d = plant_d.apply(&u_d);
        y_s = plant_s.apply(&u_s);
        assert_eq!(bits(&y_d), bits(&y_s), "epoch {t}: measurements");
    }
}
