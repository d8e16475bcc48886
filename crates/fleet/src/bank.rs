//! A row of per-core LQG controllers behind the bank interface.
//!
//! Kept only for `benchmark/`'s traced rebuild, which still enrolls its
//! cores here: the runtime steps every core through its own
//! [`FastController::governor`](mimo_core::governor::FastController::governor).
//! Each slot is a clone of the prototype controller, sharing its one
//! [`CompiledLqg`](mimo_core::lqg::CompiledLqg) design, so a slot's
//! decision is the per-cell governor's bit for bit: the bank does no
//! arithmetic of its own, it only calls [`LqgController::step_into`] and
//! [`LqgController::set_reference`].
//!
//! Like the per-cell governor, [`GovernorBank::step_all`] screens each
//! slot's measurement with [`screen_measurement`] and never steps a slot
//! that fails it; the slot's [`GovernorBank::decision`] then reports the
//! same [`EpochCause::Governor`] error.

use mimo_core::engine::EpochCause;
use mimo_core::governor::screen_measurement;
use mimo_core::lqg::LqgController;
use mimo_core::storage::StaticStore;
use mimo_linalg::Vector;

/// One enrolled core: its controller, last measurement, last output and
/// screening verdict.
#[derive(Debug, Clone)]
struct Slot<const NU: usize, const NY: usize, const NX: usize, const NZ: usize> {
    core: usize,
    ctrl: LqgController<StaticStore<NU, NY, NX, NZ>>,
    y: Vector,
    u: Vector,
    verdict: mimo_core::Result<()>,
}

/// A row of identical-shape LQG controllers, one slot per enrolled core.
///
/// Create one per chip from the shared prototype controller
/// ([`GovernorBank::new`]), [`enroll`](GovernorBank::enroll) each core,
/// then per epoch: [`load_measurement`](GovernorBank::load_measurement)
/// for every slot, one [`step_all`](GovernorBank::step_all), and read
/// each slot's [`decision`](GovernorBank::decision).
#[derive(Debug, Clone)]
pub struct GovernorBank<const NU: usize, const NY: usize, const NX: usize, const NZ: usize> {
    /// Enrollment template: every slot starts as a clone of it.
    proto: LqgController<StaticStore<NU, NY, NX, NZ>>,
    slots: Vec<Slot<NU, NY, NX, NZ>>,
}

impl<const NU: usize, const NY: usize, const NX: usize, const NZ: usize>
    GovernorBank<NU, NY, NX, NZ>
{
    /// Builds an empty bank from the shared prototype controller, whose
    /// design and current state every enrolled slot clones.
    pub fn new(proto: &LqgController<StaticStore<NU, NY, NX, NZ>>) -> Self {
        GovernorBank {
            proto: proto.clone(),
            slots: Vec::new(),
        }
    }

    /// Enrolls a core, initializing its slot from the prototype state.
    /// Returns the slot index (stable until an [`evict`](Self::evict)
    /// swap-removes past it).
    pub fn enroll(&mut self, core: usize) -> usize {
        self.slots.push(Slot {
            core,
            ctrl: self.proto.clone(),
            y: Vector::zeros(NY),
            u: Vector::zeros(NU),
            verdict: Ok(()),
        });
        self.slots.len() - 1
    }

    /// Sets a slot's physical output targets
    /// ([`LqgController::set_reference`]).
    pub fn set_target(&mut self, slot: usize, y0_physical: &Vector) {
        self.slots[slot].ctrl.set_reference(y0_physical);
    }

    /// Loads a slot's physical measurement for the next
    /// [`step_all`](Self::step_all).
    pub fn load_measurement(&mut self, slot: usize, y_physical: &[f64]) {
        assert_eq!(y_physical.len(), NY, "measurement dimension mismatch");
        self.slots[slot]
            .y
            .as_mut_slice()
            .copy_from_slice(y_physical);
    }

    /// Steps every slot whose measurement passes [`screen_measurement`];
    /// a screened slot keeps its state untouched.
    pub fn step_all(&mut self) {
        for slot in &mut self.slots {
            slot.verdict = screen_measurement(&slot.y);
            if slot.verdict.is_ok() {
                slot.ctrl.step_into(&slot.y, &mut slot.u);
            }
        }
    }

    /// A slot's decision from the last [`step_all`](Self::step_all): the
    /// physical quantized actuation, or the same
    /// [`EpochCause::Governor`] screening error the per-cell governor
    /// would have returned.
    pub fn decision(&self, slot: usize) -> Result<&[f64], EpochCause> {
        let slot = &self.slots[slot];
        match &slot.verdict {
            Ok(()) => Ok(slot.u.as_slice()),
            Err(e) => Err(EpochCause::Governor(e.clone())),
        }
    }

    /// Evicts a slot (quarantined core falling back to its own governor)
    /// by swap-remove. Returns the core index that *moved into* this slot,
    /// if any, so the caller can remap its core → slot table.
    pub fn evict(&mut self, slot: usize) -> Option<usize> {
        self.slots.swap_remove(slot);
        self.slots.get(slot).map(|s| s.core)
    }

    /// Number of enrolled slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the bank has no enrolled slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The core index enrolled at `slot`.
    pub fn core_at(&self, slot: usize) -> usize {
        self.slots[slot].core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_core::lqg::LqgDesign;
    use mimo_core::{ControlError, StateSpace};
    use mimo_linalg::Matrix;
    use mimo_sysid::scale::ChannelScaler;

    /// The 2-in/2-out 2-state unit-test plant used across the test suite.
    fn test_controller() -> LqgController<StaticStore<2, 2, 2, 6>> {
        let model = StateSpace::new(
            Matrix::diag(&[0.7, 0.6]),
            Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6]]),
            Matrix::identity(2),
            Matrix::zeros(2, 2),
        )
        .unwrap();
        let grid: Vec<f64> = (0..201).map(|i| -1.0 + 0.01 * i as f64).collect();
        LqgDesign {
            process_noise: Matrix::identity(2).scale(1e-4),
            measurement_noise: Matrix::identity(2).scale(1e-4),
            output_weights: vec![1.0, 1.0],
            input_weights: vec![0.1, 0.1],
            integral_weight: 0.05,
            input_scaler: ChannelScaler::from_ranges(&[(-1.0, 1.0), (-1.0, 1.0)]),
            output_scaler: ChannelScaler::from_ranges(&[(-5.0, 5.0), (-5.0, 5.0)]),
            input_grids: vec![grid.clone(), grid],
            model,
        }
        .build()
        .unwrap()
        .into_static()
        .unwrap()
    }

    fn y_seq(epoch: usize) -> Vector {
        Vector::from_slice(&[
            0.3 + 0.01 * (epoch % 7) as f64,
            -0.2 - 0.02 * (epoch % 5) as f64,
        ])
    }

    /// A non-finite measurement must fail the slot with the per-cell
    /// screening error, leave its state untouched, and not perturb the
    /// other slots.
    #[test]
    fn screened_slot_keeps_its_state_and_isolates_slots() {
        let proto = test_controller();
        let mut bank = GovernorBank::new(&proto);
        let mut solo = proto.clone();
        let target = Vector::from_slice(&[0.4, 0.1]);
        for core in 0..2 {
            bank.enroll(core);
            bank.set_target(core, &target);
        }
        solo.set_reference(&target);

        let mut u_solo = Vector::zeros(2);
        for epoch in 0..10 {
            bank.load_measurement(0, y_seq(epoch).as_slice());
            if epoch == 4 {
                bank.load_measurement(1, &[f64::NAN, 0.0]);
            } else {
                bank.load_measurement(1, y_seq(epoch).as_slice());
            }
            let before = bank.slots[1].ctrl.export_state();
            bank.step_all();
            // Slot 0 always sees a finite y and must track its solo twin
            // bit for bit through the neighboring slot's failure.
            solo.step_into(&y_seq(epoch), &mut u_solo);
            assert_eq!(bank.decision(0).unwrap(), u_solo.as_slice());
            if epoch == 4 {
                assert_eq!(
                    bank.decision(1),
                    Err(EpochCause::Governor(ControlError::NonFiniteMeasurement {
                        channel: 0
                    }))
                );
                assert_eq!(bank.slots[1].ctrl.export_state(), before);
            }
        }
        // Slot 1 skipped one update; its state must differ from slot 0.
        assert_ne!(
            bank.slots[0].ctrl.export_state(),
            bank.slots[1].ctrl.export_state()
        );
    }

    /// Evicting a slot swap-removes it and reports the moved core so the
    /// caller can remap.
    #[test]
    fn evict_swap_removes_and_remaps() {
        let mut bank = GovernorBank::new(&test_controller());
        for core in 10..14 {
            bank.enroll(core);
        }
        assert_eq!(bank.len(), 4);
        // Evict slot 1 (core 11): core 13 moves into slot 1.
        assert_eq!(bank.evict(1), Some(13));
        assert_eq!(bank.len(), 3);
        assert_eq!(bank.core_at(0), 10);
        assert_eq!(bank.core_at(1), 13);
        assert_eq!(bank.core_at(2), 12);
        // Evicting the tail reports no move.
        assert_eq!(bank.evict(2), None);
        assert_eq!(bank.len(), 2);
    }
}
