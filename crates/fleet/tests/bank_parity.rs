//! Property-based bit-parity of the `GovernorBank` shim `benchmark/`'s
//! traced rebuild steps against per-cell governor stepping.
//!
//! For four controller shapes — the two-input frequency/cache
//! architecture `(2,2,4)` and the three-knob architecture `(3,2,5)`,
//! which [`fast_governor`] puts on static storage, and SISO `(1,1,2)` and
//! the 2-state test plant `(2,2,2)`, which it leaves dynamic — a
//! [`GovernorBank`] stepping N enrolled slots must reproduce N standalone
//! [`fast_governor`] instances **to the bit**
//! at every epoch, under randomized slot counts, measurement sequences,
//! mid-run retargets, non-finite measurement failures, and bank
//! evictions. The per-slot comparison includes the error path: a screened
//! slot must report the exact `ControlError` the standalone governor
//! reports, and its state must stay untouched (proved by the following
//! epochs still matching).

use proptest::prelude::*;

use mimo_core::engine::EpochCause;
use mimo_core::governor::{fast_governor, Governor};
use mimo_core::lqg::{LqgController, LqgDesign};
use mimo_core::StateSpace;
use mimo_fleet::GovernorBank;
use mimo_linalg::{Matrix, Vector};
use mimo_sysid::scale::ChannelScaler;

/// A fine uniform actuation grid on `[-1, 1]`.
fn grid() -> Vec<f64> {
    (0..201).map(|i| -1.0 + 0.01 * i as f64).collect()
}

fn scaler(channels: usize, lo: f64, hi: f64) -> ChannelScaler {
    ChannelScaler::from_ranges(&vec![(lo, hi); channels])
}

/// Hand-built stable design of an arbitrary shape: `nu` inputs, `ny`
/// outputs, `nx` model states. The dynamics are mildly coupled and
/// well inside the unit circle so the DARE solves converge.
fn controller(nu: usize, ny: usize, nx: usize) -> LqgController {
    let a = Matrix::from_fn(nx, nx, |r, c| {
        if r == c {
            0.78 - 0.07 * r as f64
        } else if c == r + 1 {
            0.08
        } else {
            0.0
        }
    });
    let b = Matrix::from_fn(nx, nu, |r, c| 0.3 + 0.1 * ((r + 2 * c) % 3) as f64);
    let c_mat = Matrix::from_fn(ny, nx, |r, c| if c == r { 1.0 } else { 0.04 });
    let d = Matrix::zeros(ny, nu);
    let model = StateSpace::new(a, b, c_mat, d).expect("consistent dims");
    LqgDesign {
        process_noise: Matrix::identity(nx).scale(1e-4),
        measurement_noise: Matrix::identity(ny).scale(1e-4),
        output_weights: vec![1.0; ny],
        input_weights: vec![0.1; nu],
        integral_weight: 0.05,
        input_scaler: scaler(nu, -1.0, 1.0),
        output_scaler: scaler(ny, -5.0, 5.0),
        input_grids: vec![grid(); nu],
        model,
    }
    .build()
    .expect("stable hand-built design")
}

/// Deterministic, lightly chaotic measurement in physical output units.
fn measurement(ny: usize, pos: usize, epoch: usize, wobble: f64) -> Vector {
    Vector::from_fn(ny, |c| {
        let x = epoch as f64 * 0.171 + pos as f64 * 1.3 + c as f64 * 0.7 + wobble;
        0.4 * x.sin() + 0.2 * (2.9 * x).cos()
    })
}

/// Randomized scenario knobs shared by all four shape properties.
#[derive(Debug, Clone)]
struct Scenario {
    n_slots: usize,
    epochs: usize,
    wobble: f64,
    /// Epoch at which every live slot is retargeted.
    retarget_epoch: Option<usize>,
    /// `(pos, epoch)` of a NaN measurement fed to one slot.
    nan_fail: Option<(usize, usize)>,
    /// `(pos, epoch)` at which one slot is evicted from the bank.
    evict: Option<(usize, usize)>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        1..6usize,
        8..40usize,
        -0.5..0.5f64,
        (0..2usize, 0..40usize),
        (0..3usize, 0..6usize, 0..40usize),
        (0..3usize, 0..6usize, 0..40usize),
    )
        .prop_map(
            |(n_slots, epochs, wobble, (rt_on, rt_e), (nf_on, nf_p, nf_e), (ev_on, ev_p, ev_e))| {
                Scenario {
                    n_slots,
                    epochs,
                    wobble,
                    retarget_epoch: (rt_on == 1).then_some(rt_e % epochs),
                    nan_fail: (nf_on > 0).then_some((nf_p % n_slots, nf_e % epochs)),
                    evict: (ev_on > 0).then_some((ev_p % n_slots, ev_e % epochs)),
                }
            },
        )
}

/// Drives a bank and a twin row of standalone fast governors through the
/// scenario, asserting bit-identical decisions (or identical errors) at
/// every live slot of every epoch.
fn assert_bank_matches_governors<
    const NU: usize,
    const NY: usize,
    const NX: usize,
    const NZ: usize,
>(
    proto: &LqgController,
    sc: &Scenario,
) {
    let static_proto = proto
        .clone()
        .into_static::<NU, NY, NX, NZ>()
        .expect("shape matches const dims");
    let mut bank: GovernorBank<NU, NY, NX, NZ> = GovernorBank::new(&static_proto);
    let base = Vector::from_fn(NY, |c| 0.6 - 0.2 * c as f64);
    let alt = Vector::from_fn(NY, |c| -0.3 + 0.15 * c as f64);

    // `slots[pos]` mirrors `Chip`'s core-indexed slot bookkeeping.
    let mut slots: Vec<Option<usize>> = Vec::with_capacity(sc.n_slots);
    let mut solos: Vec<Box<dyn Governor + Send>> = Vec::with_capacity(sc.n_slots);
    for pos in 0..sc.n_slots {
        let slot = bank.enroll(pos);
        bank.set_target(slot, &base);
        slots.push(Some(slot));
        let mut solo = fast_governor(proto.clone());
        solo.set_targets(&base);
        solos.push(solo);
    }

    let mut u = Vector::zeros(NU);
    for epoch in 0..sc.epochs {
        for (pos, &entry) in slots.iter().enumerate() {
            let Some(slot) = entry else { continue };
            let mut y = measurement(NY, pos, epoch, sc.wobble);
            if sc.nan_fail == Some((pos, epoch)) {
                y[0] = f64::NAN;
            }
            bank.load_measurement(slot, y.as_slice());
        }
        bank.step_all();
        for pos in 0..sc.n_slots {
            let Some(slot) = slots[pos] else { continue };
            let mut y = measurement(NY, pos, epoch, sc.wobble);
            if sc.nan_fail == Some((pos, epoch)) {
                y[0] = f64::NAN;
            }
            let solo = solos[pos].decide_into(&y, false, &mut u);
            match (bank.decision(slot), solo) {
                (Ok(banked), Ok(())) => {
                    for k in 0..NU {
                        assert_eq!(
                            banked[k].to_bits(),
                            u[k].to_bits(),
                            "epoch {epoch} pos {pos} channel {k}: banked {} vs solo {}",
                            banked[k],
                            u[k]
                        );
                    }
                }
                (Err(EpochCause::Governor(be)), Err(se)) => {
                    assert_eq!(be, se, "epoch {epoch} pos {pos}: error kinds diverged");
                }
                (b, s) => panic!("epoch {epoch} pos {pos}: banked {b:?} vs solo {s:?}"),
            }
        }
        if sc.retarget_epoch == Some(epoch) {
            for pos in 0..sc.n_slots {
                let Some(slot) = slots[pos] else { continue };
                bank.set_target(slot, &alt);
                solos[pos].set_targets(&alt);
            }
        }
        if let Some((pos, at)) = sc.evict {
            if at == epoch {
                if let Some(slot) = slots[pos].take() {
                    // The moved core id is the position it was enrolled
                    // under — exactly the chip's remap.
                    if let Some(moved) = bank.evict(slot) {
                        slots[moved] = Some(slot);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn siso_bank_matches_governors(sc in scenario()) {
        assert_bank_matches_governors::<1, 1, 2, 4>(&controller(1, 1, 2), &sc);
    }

    #[test]
    fn two_state_bank_matches_governors(sc in scenario()) {
        assert_bank_matches_governors::<2, 2, 2, 6>(&controller(2, 2, 2), &sc);
    }

    #[test]
    fn freq_cache_shape_bank_matches_governors(sc in scenario()) {
        assert_bank_matches_governors::<2, 2, 4, 8>(&controller(2, 2, 4), &sc);
    }

    #[test]
    fn three_knob_shape_bank_matches_governors(sc in scenario()) {
        assert_bank_matches_governors::<3, 2, 5, 10>(&controller(3, 2, 5), &sc);
    }
}

/// A slot that fails screening, recovers, is later evicted, while its
/// neighbours keep stepping — the full quarantine → eviction → re-latch
/// choreography in one deterministic pin.
#[test]
fn failure_then_eviction_keeps_survivors_bit_exact() {
    let sc = Scenario {
        n_slots: 4,
        epochs: 30,
        wobble: 0.1,
        retarget_epoch: Some(12),
        nan_fail: Some((2, 6)),
        evict: Some((2, 9)),
    };
    assert_bank_matches_governors::<2, 2, 4, 8>(&controller(2, 2, 4), &sc);
}
