//! Batched governor banks: structure-of-arrays stepping for fleets.
//!
//! Every healthy core of a chip runs a *clone* of the same synthesized
//! controller, so the per-core state is the only thing that differs — the
//! gains, model matrices, scalers, actuator grids, and steady-state solve
//! artifacts are the one shared [`CompiledLqg`] design. A [`GovernorBank`]
//! exploits that: it holds the prototype's shared design and lays the
//! per-core state out as contiguous structure-of-arrays vectors
//! (core-major per field), then steps the whole bank phase-major with the
//! batch kernels from [`mimo_linalg::stack`]. The shared matrices stay
//! hot in cache across the entire bank instead of being re-fetched
//! per core.
//!
//! # Bit parity
//!
//! The batch kernels run the *identical* scalar kernel per core in slot
//! order, and every per-channel stage (`integrate_tracking_error`,
//! `assemble_augmented_state`, clamp/quantize/slew) calls the same free
//! functions `LqgController::step_into` is built from — so each core sees
//! exactly the floating-point operation sequence it would have seen on the
//! per-cell path. Cores are mutually independent, so interleaving them
//! across phases cannot change any core's values: golden fleet/cluster
//! digests hold bit-exactly.
//!
//! # Screening and fault semantics
//!
//! The per-cell path screens the measurement *before* the controller
//! steps ([`mimo_core::governor::screen_measurement`]) and leaves the
//! governor state untouched on a non-finite measurement. The bank
//! replicates that: [`GovernorBank::load_measurement`] screens at load
//! time, snapshots the failing slot's evolving state, lets the batch step
//! run (NaNs stay confined to that slot's own lanes), and restores the
//! snapshot at the end of [`GovernorBank::step_all`]. The slot's
//! [`GovernorBank::decision`] then reports the same
//! [`EpochCause::Governor`] error the per-cell governor would have
//! returned. Downstream plant faults do *not* roll back controller state
//! on the per-cell path (only the loop's `u`/`y` buffers are restored),
//! and likewise leave bank state advanced.
//!
//! Quarantined cores are evicted ([`GovernorBank::evict`],
//! swap-remove) back to the per-cell path, where the PR 3 heuristic
//! fallback machinery takes over.

use std::sync::Arc;

use mimo_core::engine::EpochCause;
use mimo_core::governor::FastController;
use mimo_core::lqg::{
    apply_du_clamped, assemble_augmented_state, integrate_tracking_error, negate,
    retarget_reference, slew_step, CompiledLqg, LqgController,
};
use mimo_core::storage::StaticStore;
use mimo_core::ControlError;
use mimo_linalg::stack::{add_assign_batch, copy_batch, sub_into_batch};
use mimo_linalg::{SVector, Vector};

/// A bank of identical-shape LQG governors stepped as one
/// structure-of-arrays batch.
///
/// Create one per chip from the shared prototype controller
/// ([`GovernorBank::new`]), [`enroll`](GovernorBank::enroll) each core,
/// then per epoch: [`load_measurement`](GovernorBank::load_measurement)
/// for every slot, one [`step_all`](GovernorBank::step_all), and read
/// each slot's [`decision`](GovernorBank::decision).
#[derive(Debug, Clone)]
pub struct GovernorBank<const NU: usize, const NY: usize, const NX: usize, const NZ: usize> {
    /// The prototype's shared design: gains, model matrices, scalers,
    /// actuator grids and the steady-state solver.
    shared: Arc<CompiledLqg<StaticStore<NU, NY, NX, NZ>>>,
    // Enrollment template: the prototype's exported runtime state.
    tpl_xhat: SVector<NX>,
    tpl_u_prev: SVector<NU>,
    tpl_u_idx: [usize; NU],
    tpl_q_int: SVector<NY>,
    tpl_y_ref: SVector<NY>,
    tpl_x_ss: SVector<NX>,
    tpl_u_ss: SVector<NU>,
    // Per-slot evolving state (SoA, core-major per field).
    cores: Vec<usize>,
    xhat: Vec<SVector<NX>>,
    u_prev: Vec<SVector<NU>>,
    u_idx: Vec<[usize; NU]>,
    q_int: Vec<SVector<NY>>,
    y_ref: Vec<SVector<NY>>,
    x_ss: Vec<SVector<NX>>,
    u_ss: Vec<SVector<NU>>,
    // Per-slot scratch (SoA), reused every epoch — 0 allocs at steady state.
    y_phys: Vec<SVector<NY>>,
    y_norm: Vec<SVector<NY>>,
    y_pred: Vec<SVector<NY>>,
    d_u: Vec<SVector<NY>>,
    innov: Vec<SVector<NY>>,
    corr: Vec<SVector<NX>>,
    a_x: Vec<SVector<NX>>,
    b_u: Vec<SVector<NX>>,
    z: Vec<SVector<NZ>>,
    du: Vec<SVector<NU>>,
    u_raw: Vec<SVector<NU>>,
    u_phys_raw: Vec<SVector<NU>>,
    u_out: Vec<SVector<NU>>,
    // Screening: per-slot failed channel, and saved state for restore.
    screen_fail: Vec<Option<usize>>,
    saved: Vec<(usize, SVector<NX>, SVector<NU>, [usize; NU], SVector<NY>)>,
}

impl<const NU: usize, const NY: usize, const NX: usize, const NZ: usize>
    GovernorBank<NU, NY, NX, NZ>
{
    /// Builds an empty bank from the shared prototype controller.
    ///
    /// Shares the prototype's design and copies its current runtime state
    /// (the enrollment template) bit-exactly, its held grid indices
    /// included, so every enrolled slot starts from them.
    pub fn new(proto: &LqgController<StaticStore<NU, NY, NX, NZ>>) -> Self {
        let st = proto.export_state();
        let mut tpl_u_idx = [0; NU];
        tpl_u_idx.copy_from_slice(proto.held_indices());
        GovernorBank {
            shared: Arc::clone(proto.compiled()),
            tpl_xhat: SVector::from_slice(st.xhat.as_slice()),
            tpl_u_prev: SVector::from_slice(st.u_prev.as_slice()),
            tpl_u_idx,
            tpl_q_int: SVector::from_slice(st.q_int.as_slice()),
            tpl_y_ref: SVector::from_slice(st.y_ref_norm.as_slice()),
            tpl_x_ss: SVector::from_slice(st.x_ss.as_slice()),
            tpl_u_ss: SVector::from_slice(st.u_ss.as_slice()),
            cores: Vec::new(),
            xhat: Vec::new(),
            u_prev: Vec::new(),
            u_idx: Vec::new(),
            q_int: Vec::new(),
            y_ref: Vec::new(),
            x_ss: Vec::new(),
            u_ss: Vec::new(),
            y_phys: Vec::new(),
            y_norm: Vec::new(),
            y_pred: Vec::new(),
            d_u: Vec::new(),
            innov: Vec::new(),
            corr: Vec::new(),
            a_x: Vec::new(),
            b_u: Vec::new(),
            z: Vec::new(),
            du: Vec::new(),
            u_raw: Vec::new(),
            u_phys_raw: Vec::new(),
            u_out: Vec::new(),
            screen_fail: Vec::new(),
            saved: Vec::new(),
        }
    }

    /// Enrolls a core, initializing its slot from the prototype state.
    /// Returns the slot index (stable until an [`evict`](Self::evict)
    /// swap-removes past it).
    pub fn enroll(&mut self, core: usize) -> usize {
        let slot = self.cores.len();
        self.cores.push(core);
        self.xhat.push(self.tpl_xhat);
        self.u_prev.push(self.tpl_u_prev);
        self.u_idx.push(self.tpl_u_idx);
        self.q_int.push(self.tpl_q_int);
        self.y_ref.push(self.tpl_y_ref);
        self.x_ss.push(self.tpl_x_ss);
        self.u_ss.push(self.tpl_u_ss);
        self.y_phys.push(SVector::zeros());
        self.y_norm.push(SVector::zeros());
        self.y_pred.push(SVector::zeros());
        self.d_u.push(SVector::zeros());
        self.innov.push(SVector::zeros());
        self.corr.push(SVector::zeros());
        self.a_x.push(SVector::zeros());
        self.b_u.push(SVector::zeros());
        self.z.push(SVector::zeros());
        self.du.push(SVector::zeros());
        self.u_raw.push(SVector::zeros());
        self.u_phys_raw.push(SVector::zeros());
        self.u_out.push(SVector::zeros());
        self.screen_fail.push(None);
        slot
    }

    /// Sets a slot's physical output targets — the bank-side twin of
    /// [`LqgController::set_reference`]: allocation-free normalize with
    /// bit-level change detection, re-resolving the steady-state operating
    /// point only when the normalized reference actually moved.
    pub fn set_target(&mut self, slot: usize, y0_physical: &Vector) {
        retarget_reference(
            &self.shared.design().output_scaler,
            y0_physical.as_slice(),
            self.y_ref[slot].as_mut_slice(),
            self.shared.steady_state_solver(),
            self.u_ss[slot].as_mut_slice(),
            self.x_ss[slot].as_mut_slice(),
        );
    }

    /// Loads a slot's physical measurement for the next
    /// [`step_all`](Self::step_all), screening it exactly like
    /// [`mimo_core::governor::screen_measurement`]: on the first
    /// non-finite channel the slot is marked failed and its evolving state
    /// snapshotted for restore (the per-cell path would not have stepped
    /// the governor at all).
    pub fn load_measurement(&mut self, slot: usize, y_physical: &[f64]) {
        assert_eq!(y_physical.len(), NY, "measurement dimension mismatch");
        self.y_phys[slot].as_mut_slice().copy_from_slice(y_physical);
        match y_physical.iter().position(|v| !v.is_finite()) {
            Some(channel) => {
                self.screen_fail[slot] = Some(channel);
                self.saved.push((
                    slot,
                    self.xhat[slot],
                    self.u_prev[slot],
                    self.u_idx[slot],
                    self.q_int[slot],
                ));
            }
            None => self.screen_fail[slot] = None,
        }
    }

    /// Steps every enrolled slot one epoch, phase-major: each stage runs
    /// across the whole bank before the next begins, with the batched
    /// mat-vecs sharing one traversal of each gain/model matrix. Per-slot
    /// floating-point op order is identical to
    /// [`LqgController::step_into`]. Screen-failed slots are restored to
    /// their pre-step state afterwards.
    pub fn step_all(&mut self) {
        let k = &*self.shared;
        let design = k.design();
        // Normalize the measurements (per-slot; scaler is slice-based).
        for (y_norm, y_phys) in self.y_norm.iter_mut().zip(&self.y_phys) {
            design
                .output_scaler
                .normalize_slices(y_phys.as_slice(), y_norm.as_mut_slice());
        }

        // Estimator update with the input applied last epoch — the exact
        // stage order of `update_kalman`, batched.
        k.c().mul_vec_batch_into(&self.xhat, &mut self.y_pred);
        k.d().mul_vec_batch_into(&self.u_prev, &mut self.d_u);
        add_assign_batch(&mut self.y_pred, &self.d_u);
        sub_into_batch(&self.y_norm, &self.y_pred, &mut self.innov);
        k.l().mul_vec_batch_into(&self.innov, &mut self.corr);
        k.a().mul_vec_batch_into(&self.xhat, &mut self.a_x);
        k.b().mul_vec_batch_into(&self.u_prev, &mut self.b_u);
        add_assign_batch(&mut self.a_x, &self.b_u);
        add_assign_batch(&mut self.a_x, &self.corr);
        copy_batch(&mut self.xhat, &self.a_x);

        // Integrate the tracking error, assemble z = [x̃; ũ₋₁; q].
        for slot in 0..self.cores.len() {
            integrate_tracking_error(
                self.q_int[slot].as_mut_slice(),
                self.y_norm[slot].as_slice(),
                self.y_ref[slot].as_slice(),
            );
            assemble_augmented_state(
                self.z[slot].as_mut_slice(),
                self.xhat[slot].as_slice(),
                self.x_ss[slot].as_slice(),
                self.u_prev[slot].as_slice(),
                self.u_ss[slot].as_slice(),
                self.q_int[slot].as_slice(),
            );
        }

        // Δu = −F z, batched over the bank.
        k.f().mul_vec_batch_into(&self.z, &mut self.du);

        // Clamp, quantize, slew-limit, and feed the quantized input back.
        for slot in 0..self.cores.len() {
            negate(self.du[slot].as_mut_slice());
            apply_du_clamped(
                self.u_raw[slot].as_mut_slice(),
                self.u_prev[slot].as_slice(),
                self.du[slot].as_slice(),
            );
            design.input_scaler.denormalize_slices(
                self.u_raw[slot].as_slice(),
                self.u_phys_raw[slot].as_mut_slice(),
            );
            slew_step(
                &design.input_grids,
                self.u_phys_raw[slot].as_slice(),
                &mut self.u_idx[slot],
                self.u_out[slot].as_mut_slice(),
            );
            design.input_scaler.normalize_slices(
                self.u_out[slot].as_slice(),
                self.u_prev[slot].as_mut_slice(),
            );
        }

        // Screen-failed slots: the per-cell governor would not have
        // stepped at all, so restore the evolving state it owns.
        while let Some((slot, xhat, u_prev, u_idx, q_int)) = self.saved.pop() {
            self.xhat[slot] = xhat;
            self.u_prev[slot] = u_prev;
            self.u_idx[slot] = u_idx;
            self.q_int[slot] = q_int;
        }
    }

    /// A slot's decision from the last [`step_all`](Self::step_all): the
    /// physical quantized actuation, or the same
    /// [`EpochCause::Governor`] screening error the per-cell governor
    /// would have returned.
    pub fn decision(&self, slot: usize) -> Result<&[f64], EpochCause> {
        match self.screen_fail[slot] {
            Some(channel) => Err(EpochCause::Governor(ControlError::NonFiniteMeasurement {
                channel,
            })),
            None => Ok(self.u_out[slot].as_slice()),
        }
    }

    /// Evicts a slot (quarantined core falling back to the per-cell
    /// path) by swap-remove. Returns the core index that *moved into*
    /// this slot, if any, so the caller can remap its core → slot table.
    pub fn evict(&mut self, slot: usize) -> Option<usize> {
        self.cores.swap_remove(slot);
        self.xhat.swap_remove(slot);
        self.u_prev.swap_remove(slot);
        self.u_idx.swap_remove(slot);
        self.q_int.swap_remove(slot);
        self.y_ref.swap_remove(slot);
        self.x_ss.swap_remove(slot);
        self.u_ss.swap_remove(slot);
        self.y_phys.swap_remove(slot);
        self.y_norm.swap_remove(slot);
        self.y_pred.swap_remove(slot);
        self.d_u.swap_remove(slot);
        self.innov.swap_remove(slot);
        self.corr.swap_remove(slot);
        self.a_x.swap_remove(slot);
        self.b_u.swap_remove(slot);
        self.z.swap_remove(slot);
        self.du.swap_remove(slot);
        self.u_raw.swap_remove(slot);
        self.u_phys_raw.swap_remove(slot);
        self.u_out.swap_remove(slot);
        self.screen_fail.swap_remove(slot);
        self.cores.get(slot).copied()
    }

    /// Number of enrolled slots.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the bank has no enrolled slots.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// The core index enrolled at `slot`.
    pub fn core_at(&self, slot: usize) -> usize {
        self.cores[slot]
    }
}

/// Shape-dispatched bank over the four deployed static controller shapes
/// (the same set [`FastController`] monomorphizes). Any other shape gets
/// no bank — those cores stay on the per-cell dynamic path.
// One `BankKind` exists per chip, so the size spread between variants is
// irrelevant; boxing the large ones would put an indirection on the hot
// per-epoch dispatch path for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum BankKind {
    /// 2-in/2-out, 4 states: the cache+frequency architecture (§VI).
    FreqCache(GovernorBank<2, 2, 4, 8>),
    /// 3-in/2-out, 5 states: the three-knob architecture (§VI-C).
    ThreeKnob(GovernorBank<3, 2, 5, 10>),
    /// 1-in/1-out, 2 states: decoupled SISO loops.
    Siso(GovernorBank<1, 1, 2, 4>),
    /// 2-in/2-out, 2 states: the unit-test plant.
    Test2(GovernorBank<2, 2, 2, 6>),
}

macro_rules! bank_dispatch {
    ($self:expr, $b:ident => $body:expr) => {
        match $self {
            BankKind::FreqCache($b) => $body,
            BankKind::ThreeKnob($b) => $body,
            BankKind::Siso($b) => $body,
            BankKind::Test2($b) => $body,
        }
    };
}

impl BankKind {
    /// Builds a bank around the already-converted controller, sharing its
    /// design with the per-cell governors. Returns `None` for the dynamic
    /// fallback (shapes outside the deployed set).
    pub(crate) fn try_new(ctrl: &FastController) -> Option<BankKind> {
        match ctrl {
            FastController::FreqCache(c) => Some(BankKind::FreqCache(GovernorBank::new(c))),
            FastController::ThreeKnob(c) => Some(BankKind::ThreeKnob(GovernorBank::new(c))),
            FastController::Siso(c) => Some(BankKind::Siso(GovernorBank::new(c))),
            FastController::Test2(c) => Some(BankKind::Test2(GovernorBank::new(c))),
            FastController::Dynamic(_) => None,
        }
    }

    pub(crate) fn enroll(&mut self, core: usize) -> usize {
        bank_dispatch!(self, b => b.enroll(core))
    }

    pub(crate) fn set_target(&mut self, slot: usize, y0_physical: &Vector) {
        bank_dispatch!(self, b => b.set_target(slot, y0_physical))
    }

    pub(crate) fn load_measurement(&mut self, slot: usize, y_physical: &[f64]) {
        bank_dispatch!(self, b => b.load_measurement(slot, y_physical))
    }

    pub(crate) fn step_all(&mut self) {
        bank_dispatch!(self, b => b.step_all())
    }

    pub(crate) fn decision(&self, slot: usize) -> Result<&[f64], EpochCause> {
        bank_dispatch!(self, b => b.decision(slot))
    }

    pub(crate) fn evict(&mut self, slot: usize) -> Option<usize> {
        bank_dispatch!(self, b => b.evict(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_core::lqg::LqgDesign;
    use mimo_core::StateSpace;
    use mimo_linalg::Matrix;
    use mimo_sysid::scale::ChannelScaler;

    /// The 2-in/2-out 2-state unit-test plant used across the test suite.
    fn test_controller() -> LqgController {
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
    }

    fn y_seq(slot: usize, epoch: usize) -> Vector {
        Vector::from_slice(&[
            0.3 + 0.05 * slot as f64 + 0.01 * (epoch % 7) as f64,
            -0.2 + 0.03 * slot as f64 - 0.02 * (epoch % 5) as f64,
        ])
    }

    /// Every slot of a bank must match a standalone per-cell controller
    /// bit-for-bit: same decisions, same exported state.
    #[test]
    fn bank_matches_per_cell_controllers_bit_for_bit() {
        let proto = test_controller();
        let static_proto = proto.clone().into_static::<2, 2, 2, 6>().unwrap();
        let mut bank = GovernorBank::new(&static_proto);

        let n = 5;
        let mut solos: Vec<_> = (0..n)
            .map(|_| proto.clone().into_static::<2, 2, 2, 6>().unwrap())
            .collect();
        for (core, solo) in solos.iter_mut().enumerate() {
            let slot = bank.enroll(core);
            assert_eq!(slot, core);
            let target = Vector::from_slice(&[0.4 + 0.1 * core as f64, 0.1]);
            bank.set_target(slot, &target);
            solo.set_reference(&target);
        }

        let mut u_solo = Vector::zeros(2);
        for epoch in 0..50 {
            for slot in 0..n {
                bank.load_measurement(slot, y_seq(slot, epoch).as_slice());
            }
            // Retarget mid-run (bit-equal targets must also be a no-op on
            // both paths, exercised by re-sending the same target).
            if epoch == 20 {
                for (slot, solo) in solos.iter_mut().enumerate() {
                    let t = Vector::from_slice(&[0.2, 0.05 * slot as f64]);
                    bank.set_target(slot, &t);
                    solo.set_reference(&t);
                }
            }
            bank.step_all();
            for (slot, solo) in solos.iter_mut().enumerate() {
                solo.step_into(&y_seq(slot, epoch), &mut u_solo);
                let banked = bank.decision(slot).expect("finite measurement");
                for ch in 0..2 {
                    assert_eq!(
                        banked[ch].to_bits(),
                        u_solo[ch].to_bits(),
                        "slot {slot} epoch {epoch} channel {ch}"
                    );
                }
            }
        }
        // Final state parity, every field, every bit.
        for (slot, solo) in solos.iter().enumerate() {
            let st = solo.export_state();
            bit_eq(bank.xhat[slot].as_slice(), st.xhat.as_slice());
            bit_eq(bank.u_prev[slot].as_slice(), st.u_prev.as_slice());
            bit_eq(bank.q_int[slot].as_slice(), st.q_int.as_slice());
            bit_eq(bank.y_ref[slot].as_slice(), st.y_ref_norm.as_slice());
            bit_eq(bank.x_ss[slot].as_slice(), st.x_ss.as_slice());
            bit_eq(bank.u_ss[slot].as_slice(), st.u_ss.as_slice());
        }
    }

    fn bit_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// A non-finite measurement must fail the slot with the per-cell
    /// screening error, leave its state untouched, and not perturb the
    /// other slots.
    #[test]
    fn screen_failure_restores_state_and_isolates_slots() {
        let proto = test_controller();
        let static_proto = proto.clone().into_static::<2, 2, 2, 6>().unwrap();
        let mut bank = GovernorBank::new(&static_proto);
        let mut solo = proto.clone().into_static::<2, 2, 2, 6>().unwrap();
        let target = Vector::from_slice(&[0.4, 0.1]);
        for core in 0..2 {
            bank.enroll(core);
            bank.set_target(core, &target);
        }
        solo.set_reference(&target);

        let mut u_solo = Vector::zeros(2);
        for epoch in 0..10 {
            bank.load_measurement(0, y_seq(0, epoch).as_slice());
            if epoch == 4 {
                bank.load_measurement(1, &[f64::NAN, 0.0]);
            } else {
                bank.load_measurement(1, y_seq(0, epoch).as_slice());
            }
            bank.step_all();
            // Slot 0 always sees a finite y and must track its solo twin
            // bit-for-bit through the neighboring slot's failure.
            solo.step_into(&y_seq(0, epoch), &mut u_solo);
            let healthy = bank.decision(0).unwrap();
            bit_eq(healthy, u_solo.as_slice());
            if epoch == 4 {
                // Slot 1 reports the per-cell screening error.
                match bank.decision(1) {
                    Err(EpochCause::Governor(ControlError::NonFiniteMeasurement { channel })) => {
                        assert_eq!(channel, 0)
                    }
                    other => panic!("expected screening error, got {other:?}"),
                }
            }
        }
        // Slot 1 skipped one update; its state must differ from slot 0.
        assert_ne!(
            bank.xhat[0].as_slice()[0].to_bits(),
            bank.xhat[1].as_slice()[0].to_bits()
        );
        // No NaN anywhere in slot 1's state (restore worked).
        assert!(bank.xhat[1].as_slice().iter().all(|v| v.is_finite()));
        assert!(bank.u_prev[1].as_slice().iter().all(|v| v.is_finite()));
        assert!(bank.q_int[1].as_slice().iter().all(|v| v.is_finite()));
    }

    /// Evicting a slot swap-removes it and reports the moved core so the
    /// caller can remap; the surviving slots keep stepping bit-exactly.
    #[test]
    fn evict_swap_removes_and_remaps() {
        let proto = test_controller();
        let static_proto = proto.clone().into_static::<2, 2, 2, 6>().unwrap();
        let mut bank = GovernorBank::new(&static_proto);
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

    /// `BankKind::try_new` banks exactly the deployed shapes.
    #[test]
    fn bank_kind_dispatches_deployed_shapes() {
        let ctrl = FastController::new(&test_controller());
        let kind = BankKind::try_new(&ctrl).expect("2-2-2 is a deployed shape");
        assert!(matches!(kind, BankKind::Test2(_)));
    }
}
