//! The MIMO LQG tracking controller — the paper's central artifact.
//!
//! §III-A: "the LQG controller tries to minimize the sum of the squares of
//! a set of costs … the differences between each output and its reference
//! value, and between each input and the proposed new value of that input —
//! the controller minimizes input changes to avoid quick jerks from steady
//! state."
//!
//! That is a Δu-penalized tracking LQG. We augment the identified plant
//! `x(t+1) = Ax + Bu, y = Cx + Du` (in normalized deviation coordinates
//! around the steady state for the current reference) with the previous
//! input and an error integrator:
//!
//! ```text
//! z = [x̃; ũ₋₁; q],  q(t+1) = q + ỹ(t)
//!
//!     [A  B  0]       [B]
//! Ā = [0  I  0],  B̄ = [I],   Δu = −F z
//!     [C  D  I]       [D]
//! ```
//!
//! LQR over `(Ā, B̄)` with cost `ỹᵀQỹ + qᵀ(ρQ)q + ΔuᵀRΔu` yields `F`; a
//! steady-state Kalman filter over the identified noise covariances
//! estimates `x`. The integral state guarantees zero steady-state offset
//! despite model error; the Δu formulation implements the paper's
//! control-effort weights. Finally, each input is quantized to its
//! discrete actuator grid and the quantized value is fed back into the
//! controller state (anti-windup against quantization).

use std::sync::Arc;

use mimo_linalg::lu::LuDecomposition;
use mimo_linalg::{MatVecKernel, Matrix, SVector, VecKernel, Vector};
use mimo_sysid::scale::ChannelScaler;

use crate::kalman::{update_kalman, KalmanFilter, KalmanScratch};
use crate::lqr::{design_lqr, LqrGain};
use crate::ss::StateSpace;
use crate::storage::{DynStore, HeldIndex, LqgStorage, StaticStore, StepScratch};
use crate::{ControlError, Result};

/// Bound on normalized inputs (slightly beyond the identification range so
/// the controller can pin actuators at their ends).
const U_CLAMP: f64 = 1.05;

/// Bound on each integrator channel (anti-windup for infeasible
/// references, e.g. non-responsive applications).
const Q_CLAMP: f64 = 4.0;

/// Integrator leak: the error integral decays by this factor per epoch.
/// A pure integrator (leak = 1) is unstabilizable when the plant's DC gain
/// is rank deficient; the leak keeps the augmented design solvable in
/// that case, at the cost of a vanishing steady-state offset (scaled by
/// `1 − leak`). The seed-2016 identified DC gains are far from that case:
/// in normalized coordinates their condition number is 4.8 on two inputs
/// and 5.3 on three, and their columns span about 32° of the (IPS, power)
/// plane. What is ill-conditioned is the weighted steady-state solve (see
/// the ridge in [`LqgDesign::build`]).
const INTEGRATOR_LEAK: f64 = 0.995;

/// Everything needed to synthesize an [`LqgController`].
#[derive(Debug, Clone)]
pub struct LqgDesign {
    /// Identified plant model in normalized coordinates.
    pub model: StateSpace,
    /// Process-noise covariance (`N x N`).
    pub process_noise: Matrix,
    /// Measurement-noise covariance (`O x O`).
    pub measurement_noise: Matrix,
    /// Tracking-error cost diagonal (one weight per output) — the paper's
    /// `Q` matrix.
    pub output_weights: Vec<f64>,
    /// Control-effort cost diagonal (one weight per input) — the paper's
    /// `R` matrix, penalizing *changes* of each input.
    pub input_weights: Vec<f64>,
    /// Integral-action weight as a fraction of each output weight.
    pub integral_weight: f64,
    /// Physical-to-normalized map for the inputs.
    pub input_scaler: ChannelScaler,
    /// Physical-to-normalized map for the outputs.
    pub output_scaler: ChannelScaler,
    /// Allowed physical values per input (the actuator grids).
    pub input_grids: Vec<Vec<f64>>,
}

impl LqgDesign {
    /// Synthesizes the controller.
    ///
    /// # Errors
    ///
    /// * [`ControlError::DimensionMismatch`] — weights/scalers/grids don't
    ///   match the model dimensions.
    /// * [`ControlError::InfeasibleReference`] — more outputs than inputs
    ///   (the MIMO structural limit of §III-B).
    /// * [`ControlError::RiccatiDiverged`] / [`ControlError::BadWeights`] —
    ///   synthesis failures from the LQR/Kalman stages.
    /// * [`ControlError::BadActuatorGrid`] — a grid cannot carry the held
    ///   slew index (see [`slew_step`]).
    pub fn build(self) -> Result<LqgController> {
        let n = self.model.state_dim();
        let i = self.model.num_inputs();
        let o = self.model.num_outputs();
        if o > i {
            return Err(ControlError::InfeasibleReference {
                what: format!("{o} outputs > {i} inputs; MIMO needs outputs <= inputs"),
            });
        }
        if self.output_weights.len() != o || self.input_weights.len() != i {
            return Err(ControlError::DimensionMismatch {
                what: format!(
                    "weights: {} output / {} input weights for an {o}-output {i}-input model",
                    self.output_weights.len(),
                    self.input_weights.len()
                ),
            });
        }
        if self.input_scaler.channels() != i
            || self.output_scaler.channels() != o
            || self.input_grids.len() != i
        {
            return Err(ControlError::DimensionMismatch {
                what: "scaler or grid channel counts disagree with the model".into(),
            });
        }
        if self.integral_weight <= 0.0 {
            return Err(ControlError::BadWeights {
                what: format!("integral weight {} must be positive", self.integral_weight),
            });
        }
        check_actuator_grids(&self.input_grids, &self.input_scaler)?;
        // --- Augmented system -------------------------------------------
        let a = self.model.a();
        let b = self.model.b();
        let c = self.model.c();
        let d = self.model.d();
        let z_dim = n + i + o;
        let mut a_aug = Matrix::zeros(z_dim, z_dim);
        a_aug.set_block(0, 0, a);
        a_aug.set_block(0, n, b);
        a_aug.set_block(n, n, &Matrix::identity(i));
        a_aug.set_block(n + i, 0, c);
        a_aug.set_block(n + i, n, d);
        a_aug.set_block(n + i, n + i, &Matrix::identity(o).scale(INTEGRATOR_LEAK));
        let mut b_aug = Matrix::zeros(z_dim, i);
        b_aug.set_block(0, 0, b);
        b_aug.set_block(n, 0, &Matrix::identity(i));
        b_aug.set_block(n + i, 0, d);

        // --- Cost --------------------------------------------------------
        let q_out = Matrix::diag(&self.output_weights);
        // M maps z to ỹ (ignoring the direct DΔu term, exact for strictly
        // proper models).
        let mut m = Matrix::zeros(o, z_dim);
        m.set_block(0, 0, c);
        m.set_block(0, n, d);
        let mut q_aug = &(&m.transpose() * &q_out) * &m;
        let q_int = q_out.scale(self.integral_weight);
        for r in 0..o {
            for cc in 0..o {
                q_aug[(n + i + r, n + i + cc)] += q_int[(r, cc)];
            }
        }
        // Small direct penalty on the held-input deviation. The u₋₁ memory
        // has an open-loop eigenvalue of exactly 1; along any null
        // direction of the plant gain it is invisible to the output cost,
        // which would leave an undetectable marginal mode (LQR radius
        // pinned at 1.0) and a drifting actuator. The ε makes every input
        // direction detectable.
        const UPREV_EPS: f64 = 2.0;
        for k in 0..i {
            q_aug[(n + k, n + k)] += UPREV_EPS;
        }
        let r_mat = Matrix::diag(&self.input_weights);

        let lqr: LqrGain = design_lqr(&a_aug, &b_aug, &q_aug, &r_mat)?;
        let kalman =
            KalmanFilter::design(&self.model, &self.process_noise, &self.measurement_noise)?;

        let compiled = CompiledLqg {
            f: lqr.k,
            l: kalman.gain().clone(),
            a: a.clone(),
            b: b.clone(),
            c: c.clone(),
            d: d.clone(),
            ss_solver: SteadyStateSolver::new(&self),
            closed_loop_radius: lqr.closed_loop_radius,
            kalman,
            design: self,
        };
        let mut state = CoreState::<DynStore>::zeroed(n, i, o)?;
        state.hold_input_indices(&compiled.design);
        // Initialize at a neutral reference (normalized zero = operating
        // midpoint); callers set the real target afterwards. The solver is
        // the output-weighted, Tikhonov-regularized inversion of the DC
        // gain, u_ss = (Gᵀ Q G + λ I)⁻¹ Gᵀ Q y₀. The DC gain G itself is
        // well conditioned (4.8 on two inputs, 5.3 on three, seed 2016);
        // Q = diag(10, 10⁴) is what makes Gᵀ Q G ill-conditioned: 1.5·10⁴
        // on two inputs, and singular on three (3×3 of rank 2), so an exact
        // solve does not exist there and would pin the actuators at their
        // clamps where it does. λ = 0.05·tr/i is about 380× the weak
        // eigenvalue on two inputs. The ridge biases u_ss toward the
        // operating midpoint; the integrator removes the residual offset.
        compiled.ss_solver.resolve(
            state.y_ref_norm.as_slice(),
            state.u_ss.as_mut_slice(),
            state.x_ss.as_mut_slice(),
        );
        Ok(LqgController {
            compiled: Arc::new(compiled),
            state,
            scratch: LqgScratch::on_heap(n, i, o),
        })
    }
}

/// Precomputed artifacts of the steady-state resolve.
///
/// Everything in the steady-state ridge inversion (see
/// [`LqgDesign::build`]) except the reference itself is a pure
/// function of the design: the weighted gain product `Gᵀ Q`, the LU factorization of the
/// regularized Gram matrix, and the LU factorization of `I − A`. Caching
/// them at synthesis turns the per-retarget work into one small
/// matrix-vector product plus two triangular substitutions — the dominant
/// cost of fleet retargeting drops by an order of magnitude, and because
/// [`Matrix::solve`] is itself "factorize, then substitute", the cached
/// path reproduces the original solve **bit for bit** (identical inputs,
/// identical operation sequence).
///
/// Fallbacks mirror the uncached chain exactly: a failed DC gain or an
/// unfactorizable Gram matrix leaves `u_ss` at zero, and an unfactorizable
/// `I − A` leaves `x_ss` at zero.
///
/// [`SteadyStateSolver::resolve`] allocates nothing: each right-hand side
/// (`Gᵀ Q y` and `B u_ss`) is written straight into the output slice in
/// the factorization's pivot order and substituted in place
/// ([`LuDecomposition::substitute_in_place`]), with the same zero-skipping
/// accumulation as the `Matrix` product it replaces.
#[derive(Debug, Clone)]
pub struct SteadyStateSolver {
    /// `Gᵀ Q`; `None` when the DC gain itself failed.
    gtq: Option<Matrix>,
    /// LU of `Gᵀ Q G + λ I`; `None` when the DC gain or the factorization
    /// failed.
    lhs_lu: Option<LuDecomposition>,
    /// LU of `I − A`; `None` when `I − A` is singular.
    ia_lu: Option<LuDecomposition>,
    /// Copy of the model's `B`, for the `x_ss` propagation.
    b: Matrix,
}

impl SteadyStateSolver {
    /// Precomputes the reference-independent artifacts from a design.
    pub fn new(design: &LqgDesign) -> Self {
        let i = design.model.num_inputs();
        let n = design.model.state_dim();
        let mut gtq_out = None;
        let mut lhs_lu = None;
        if let Ok(g) = design.model.dc_gain() {
            let q = Matrix::diag(&design.output_weights);
            let gtq = &g.transpose() * &q;
            let gram = &gtq * &g;
            let lambda = 0.05 * (gram.trace() / i as f64).max(1e-12);
            let lhs = &gram + &Matrix::identity(i).scale(lambda);
            lhs_lu = LuDecomposition::new(&lhs).ok();
            gtq_out = Some(gtq);
        }
        let i_minus_a = Matrix::identity(n) - design.model.a();
        SteadyStateSolver {
            gtq: gtq_out,
            lhs_lu,
            ia_lu: LuDecomposition::new(&i_minus_a).ok(),
            b: design.model.b().clone(),
        }
    }

    /// Resolves the steady-state operating point for a normalized
    /// reference, writing the clamped `u_ss` and implied `x_ss`.
    /// Bit-identical to the uncached ridge solve (see the type docs) and
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `u_ss_out` does not have one entry per input or
    /// `x_ss_out` one per state, or if `y_ref_norm` does not have one entry
    /// per output while the DC gain exists.
    pub fn resolve(&self, y_ref_norm: &[f64], u_ss_out: &mut [f64], x_ss_out: &mut [f64]) {
        assert_eq!(u_ss_out.len(), self.b.cols(), "u_ss length mismatch");
        assert_eq!(x_ss_out.len(), self.b.rows(), "x_ss length mismatch");
        match (&self.gtq, &self.lhs_lu) {
            (Some(gtq), Some(lu)) => {
                assert_eq!(y_ref_norm.len(), gtq.cols(), "reference length mismatch");
                permuted_mat_vec(gtq, lu.perm(), y_ref_norm, u_ss_out);
                lu.substitute_in_place(u_ss_out);
            }
            _ => u_ss_out.fill(0.0),
        }
        for u in u_ss_out.iter_mut() {
            *u = u.clamp(-U_CLAMP, U_CLAMP);
        }
        match &self.ia_lu {
            Some(lu) => {
                permuted_mat_vec(&self.b, lu.perm(), u_ss_out, x_ss_out);
                lu.substitute_in_place(x_ss_out);
            }
            None => x_ss_out.fill(0.0),
        }
    }
}

/// `out[i] = m.row(perm[i]) · v`: a matrix-vector product written in a
/// factorization's pivot order, ready for
/// [`LuDecomposition::substitute_in_place`]. Each entry accumulates from
/// `0.0` in column order and skips zero coefficients, exactly as
/// `&Matrix * &Matrix` does for a one-column right operand, so the bits
/// match the product followed by `solve`'s row permutation.
fn permuted_mat_vec(m: &Matrix, perm: &[usize], v: &[f64], out: &mut [f64]) {
    let cols = m.cols();
    let data = m.as_slice();
    for (o, &p) in out.iter_mut().zip(perm) {
        let mut acc = 0.0;
        for (&a, &x) in data[p * cols..(p + 1) * cols].iter().zip(v) {
            if a != 0.0 {
                acc += a * x;
            }
        }
        *o = acc;
    }
}

/// The immutable half of a synthesized controller, shared behind one
/// [`Arc`] by every [`LqgController`] cloned from it.
///
/// The paper synthesizes one design offline and deploys it on every core
/// (§IV). Per core, that design changes only its state (see
/// [`LqgController`]); everything here is a pure function of the
/// synthesis: the LQR gain `F`, the Kalman gain `L` and the model's
/// `A`, `B`, `C`, `D` in the runtime storage `S`, the synthesis record
/// (scalers, actuator grids, weights, the Kalman covariances), the
/// cached steady-state solver and the closed-loop radius. A fleet of N
/// cores holds one of these per design, not N.
#[derive(Debug)]
pub struct CompiledLqg<S: LqgStorage = DynStore> {
    design: LqgDesign,
    closed_loop_radius: f64,
    kalman: KalmanFilter,
    /// LQR gain `F` over the augmented state.
    f: S::GainF,
    /// Kalman predictor gain `L`.
    l: S::GainL,
    /// Model matrices (copies of the identified plant's).
    a: S::MatA,
    b: S::MatB,
    c: S::MatC,
    d: S::MatD,
    /// Cached steady-state solve artifacts (pure function of the design).
    ss_solver: SteadyStateSolver,
}

impl<S: LqgStorage> CompiledLqg<S> {
    /// Re-homes the gains and model matrices into another storage. Every
    /// element round-trips through the dynamic types bit-exactly.
    fn convert<T: LqgStorage>(&self) -> Result<CompiledLqg<T>> {
        let lin = ControlError::Linalg;
        Ok(CompiledLqg {
            design: self.design.clone(),
            closed_loop_radius: self.closed_loop_radius,
            kalman: self.kalman.clone(),
            f: T::GainF::from_matrix(&self.f.to_matrix()).map_err(lin)?,
            l: T::GainL::from_matrix(&self.l.to_matrix()).map_err(lin)?,
            a: T::MatA::from_matrix(&self.a.to_matrix()).map_err(lin)?,
            b: T::MatB::from_matrix(&self.b.to_matrix()).map_err(lin)?,
            c: T::MatC::from_matrix(&self.c.to_matrix()).map_err(lin)?,
            d: T::MatD::from_matrix(&self.d.to_matrix()).map_err(lin)?,
            ss_solver: self.ss_solver.clone(),
        })
    }

    /// The Kalman predictor gain `L`.
    pub fn l(&self) -> &S::GainL {
        &self.l
    }
}

/// The synthesized MIMO LQG tracking controller.
///
/// Call [`LqgController::set_reference`] with physical targets, then
/// [`LqgController::step_into`] once per epoch with the measured outputs;
/// it writes the physical, grid-quantized actuation to apply next.
///
/// A controller is the shared [`CompiledLqg`] design plus its own state
/// (x̂, the held input, the integrator, the reference and its steady-state
/// operating point) and, on [`DynStore`], its step temporaries.
/// [`Clone`] shares the design — an `Arc` clone — and copies only the
/// rest, so with [`StaticStore`] a clone makes no heap allocation and
/// holds nothing but the `Arc` and the state.
#[derive(Debug, Clone)]
pub struct LqgController<S: LqgStorage = DynStore> {
    compiled: Arc<CompiledLqg<S>>,
    /// The controller's evolving state, in normalized coordinates.
    state: CoreState<S>,
    /// Where the step's temporaries live between epochs: heap buffers on
    /// [`DynStore`], nothing on [`StaticStore`] (see
    /// [`LqgStorage::Scratch`]).
    scratch: S::Scratch,
}

/// The per-controller half: the evolving state the hot path writes, held
/// in the selected storage (normalized coordinates).
#[derive(Debug, Clone)]
struct CoreState<S: LqgStorage> {
    /// State estimate.
    xhat: S::VecX,
    /// Previous (quantized, normalized) input.
    u_prev: S::VecU,
    /// Grid index of each channel of `u_prev`, the slew step's start.
    u_idx: S::IdxU,
    /// Leaky error integrator.
    q_int: S::VecY,
    /// Normalized reference.
    y_ref_norm: S::VecY,
    /// Steady-state operating point for the current reference.
    x_ss: S::VecX,
    u_ss: S::VecU,
}

impl<S: LqgStorage> CoreState<S> {
    /// All-zero state for `n` states, `i` inputs and `o` outputs. The held
    /// indices are placeholders until [`CoreState::hold_input_indices`].
    fn zeroed(n: usize, i: usize, o: usize) -> Result<Self> {
        let lin = ControlError::Linalg;
        Ok(CoreState {
            xhat: S::VecX::new_dim(n).map_err(lin)?,
            u_prev: S::VecU::new_dim(i).map_err(lin)?,
            u_idx: S::IdxU::zeroed(i),
            q_int: S::VecY::new_dim(o).map_err(lin)?,
            y_ref_norm: S::VecY::new_dim(o).map_err(lin)?,
            x_ss: S::VecX::new_dim(n).map_err(lin)?,
            u_ss: S::VecU::new_dim(i).map_err(lin)?,
        })
    }

    /// Derives the held grid indices from `u_prev` (see
    /// [`held_grid_indices`]) wherever they are not known: at
    /// construction, reset and storage conversion.
    fn hold_input_indices(&mut self, design: &LqgDesign) {
        held_grid_indices(
            &design.input_grids,
            &design.input_scaler,
            self.u_prev.as_slice(),
            self.u_idx.as_mut(),
        );
    }

    /// Re-homes the state into another storage, bit-exactly. The held
    /// indices are placeholders until [`CoreState::hold_input_indices`].
    fn convert<T: LqgStorage>(&self) -> Result<CoreState<T>> {
        let lin = ControlError::Linalg;
        Ok(CoreState {
            xhat: T::VecX::from_vector(&self.xhat.to_vector()).map_err(lin)?,
            u_prev: T::VecU::from_vector(&self.u_prev.to_vector()).map_err(lin)?,
            u_idx: T::IdxU::zeroed(self.u_idx.as_ref().len()),
            q_int: T::VecY::from_vector(&self.q_int.to_vector()).map_err(lin)?,
            y_ref_norm: T::VecY::from_vector(&self.y_ref_norm.to_vector()).map_err(lin)?,
            x_ss: T::VecX::from_vector(&self.x_ss.to_vector()).map_err(lin)?,
            u_ss: T::VecU::from_vector(&self.u_ss.to_vector()).map_err(lin)?,
        })
    }

    /// The body of [`LqgController::step_into`] over the design `k` and
    /// the temporaries `s`, on checked slices.
    #[inline(always)]
    fn step(
        &mut self,
        k: &CompiledLqg<S>,
        s: &mut LqgScratch<S>,
        y_physical: &[f64],
        out: &mut [f64],
    ) {
        k.design
            .output_scaler
            .normalize_slices(y_physical, s.y_norm.as_mut_slice());

        // Estimator update with the input actually applied last epoch.
        update_kalman::<S>(
            &k.l,
            &k.a,
            &k.b,
            &k.c,
            &k.d,
            &mut self.xhat,
            &self.u_prev,
            &s.y_norm,
            &mut s.kalman,
        );

        // Integrate the tracking error (leaky, with anti-windup clamp).
        integrate_tracking_error(
            self.q_int.as_mut_slice(),
            s.y_norm.as_slice(),
            self.y_ref_norm.as_slice(),
        );

        // Δu = −F [x̃; ũ₋₁; q].
        assemble_augmented_state(
            s.z.as_mut_slice(),
            self.xhat.as_slice(),
            self.x_ss.as_slice(),
            self.u_prev.as_slice(),
            self.u_ss.as_slice(),
            self.q_int.as_slice(),
        );
        k.f.mat_vec_into(&s.z, &mut s.du);
        negate(s.du.as_mut_slice());

        // Apply, clamp, quantize, and slew-limit to one grid step per
        // epoch per input: ways are power-gated one at a time and DVFS
        // relocks per step, and single-step motion stops the controller
        // from reacting to its own transition stalls (§IV-B2's "smaller
        // steps ... more effective control").
        apply_du_clamped(s.du.as_mut_slice(), self.u_prev.as_slice());
        k.design
            .input_scaler
            .denormalize_slices(s.du.as_slice(), s.u_phys_raw.as_mut_slice());
        slew_step(
            &k.design.input_grids,
            s.u_phys_raw.as_slice(),
            self.u_idx.as_mut(),
            out,
        );
        // Feed the *quantized* input back (anti-windup against rounding).
        k.design
            .input_scaler
            .normalize_slices(out, self.u_prev.as_mut_slice());
    }
}

/// The temporaries of one [`LqgController::step_into`]. A dynamic
/// controller keeps one, sized once, so its step allocates nothing; a
/// static controller builds one on the stack in each step (see
/// [`StepScratch`]). The estimator's temporaries stay last, so the
/// innovation ends the struct (see [`KalmanScratch`]).
#[derive(Debug, Clone)]
#[repr(C)]
pub struct LqgScratch<S: LqgStorage> {
    /// Normalized measurement.
    y_norm: S::VecY,
    /// Augmented state `[x̃; ũ₋₁; q]`.
    z: S::VecZ,
    /// `Δu = −F z`, then the clamped normalized candidate `u₋₁ + Δu`.
    du: S::VecU,
    /// Physical candidate input before quantization.
    u_phys_raw: S::VecU,
    /// Estimator temporaries.
    kalman: KalmanScratch<S>,
}

impl LqgScratch<DynStore> {
    /// Heap buffers for `n` states, `i` inputs and `o` outputs.
    pub(crate) fn on_heap(n: usize, i: usize, o: usize) -> Self {
        LqgScratch {
            y_norm: Vector::zeros(o),
            z: Vector::zeros(n + i + o),
            du: Vector::zeros(i),
            u_phys_raw: Vector::zeros(i),
            kalman: KalmanScratch::new(n, o),
        }
    }
}

impl<const NU: usize, const NY: usize, const NX: usize, const NZ: usize>
    LqgScratch<StaticStore<NU, NY, NX, NZ>>
{
    /// Stack temporaries; the const dimensions leave no shape to check.
    pub(crate) fn on_stack() -> Self {
        LqgScratch {
            y_norm: SVector::zeros(),
            z: SVector::zeros(),
            du: SVector::zeros(),
            u_phys_raw: SVector::zeros(),
            kalman: KalmanScratch::on_stack(),
        }
    }
}

impl<S: LqgStorage> LqgController<S> {
    /// Number of actuated inputs.
    pub fn num_inputs(&self) -> usize {
        self.compiled.design.model.num_inputs()
    }

    /// Number of tracked outputs.
    pub fn num_outputs(&self) -> usize {
        self.compiled.design.model.num_outputs()
    }

    /// The identified model the controller was designed on.
    pub fn model(&self) -> &StateSpace {
        &self.compiled.design.model
    }

    /// The shared design every clone of this controller steps through.
    pub fn compiled(&self) -> &Arc<CompiledLqg<S>> {
        &self.compiled
    }

    /// The LQR gain `F` over `[x̃; ũ₋₁; q]`, in the runtime storage
    /// (`&Matrix` on the default dynamic path).
    pub fn feedback_gain(&self) -> &S::GainF {
        &self.compiled.f
    }

    /// The Kalman filter used for state estimation.
    pub fn kalman(&self) -> &KalmanFilter {
        &self.compiled.kalman
    }

    /// Spectral radius of the nominal augmented closed loop (< 1 by
    /// construction).
    pub fn closed_loop_radius(&self) -> f64 {
        self.compiled.closed_loop_radius
    }

    /// The design the controller was built from.
    pub fn design(&self) -> &LqgDesign {
        &self.compiled.design
    }

    /// Current physical reference targets.
    pub fn reference(&self) -> Vector {
        self.compiled
            .design
            .output_scaler
            .denormalize(&self.state.y_ref_norm.to_vector())
    }

    /// Re-homes the controller into another runtime storage, carrying the
    /// full runtime state (estimate, integrator, previous input,
    /// reference) bit-exactly. The converted design is one new shared
    /// [`CompiledLqg`]; clone the result to hand it to many cores.
    ///
    /// # Errors
    ///
    /// [`ControlError::DimensionMismatch`] when `T` is a [`StaticStore`]
    /// whose const dimensions disagree with the controller's.
    pub fn with_storage<T: LqgStorage>(&self) -> Result<LqgController<T>> {
        let n = self.compiled.design.model.state_dim();
        let i = self.num_inputs();
        let o = self.num_outputs();
        T::check_dims(i, o, n)?;
        let mut state = self.state.convert()?;
        state.hold_input_indices(&self.compiled.design);
        Ok(LqgController {
            compiled: Arc::new(self.compiled.convert()?),
            state,
            scratch: T::Scratch::new(n, i, o),
        })
    }

    /// Converts to a stack-allocated controller with the given const
    /// dimensions (`NZ` must equal `NX + NU + NY`). The static controller
    /// steps bit-identically to this one.
    ///
    /// # Errors
    ///
    /// [`ControlError::DimensionMismatch`] when the const dimensions
    /// disagree with the controller's.
    pub fn into_static<const NU: usize, const NY: usize, const NX: usize, const NZ: usize>(
        self,
    ) -> Result<LqgController<StaticStore<NU, NY, NX, NZ>>> {
        self.with_storage()
    }

    /// Sets the physical output targets (e.g. `[2.5 BIPS, 2.0 W]`).
    ///
    /// Infeasible targets are accepted: the steady-state solve falls back
    /// to the closest achievable point and the integrator clamp prevents
    /// windup — matching the paper's non-responsive-application behavior,
    /// where the controller gets as close as it can.
    pub fn set_reference(&mut self, y0_physical: &impl VecKernel) {
        retarget_reference(
            &self.compiled.design.output_scaler,
            y0_physical.as_slice(),
            self.state.y_ref_norm.as_mut_slice(),
            &self.compiled.ss_solver,
            self.state.u_ss.as_mut_slice(),
            self.state.x_ss.as_mut_slice(),
        );
    }

    /// One control epoch, in place: consumes the physical measurement
    /// `y(t)` and writes the physical, quantized actuation `u(t)` into
    /// `out`. Allocation-free: the temporaries are the dynamic
    /// controller's buffers or the static controller's stack locals, and
    /// `y_physical` and `out` may be heap or stack vectors.
    ///
    /// # Panics
    ///
    /// Panics if `y_physical` or `out` has the wrong dimension.
    pub fn step_into(&mut self, y_physical: &impl VecKernel, out: &mut impl VecKernel) {
        assert_eq!(
            y_physical.dim(),
            self.num_outputs(),
            "measurement dimension mismatch"
        );
        assert_eq!(out.dim(), self.num_inputs(), "actuation dimension mismatch");
        let k = &*self.compiled;
        let st = &mut self.state;
        self.scratch
            .with(|s| st.step(k, s, y_physical.as_slice(), out.as_mut_slice()));
    }

    /// Resets the runtime state (estimate, integrator, previous input)
    /// without touching the design or the reference.
    pub fn reset_state(&mut self) {
        self.state.xhat.as_mut_slice().fill(0.0);
        self.state.u_prev.as_mut_slice().fill(0.0);
        self.state.q_int.as_mut_slice().fill(0.0);
        self.state.hold_input_indices(&self.compiled.design);
    }

    /// Snapshot of the evolving runtime state (estimate, held input,
    /// integrator, normalized reference, steady-state operating point) in
    /// dynamic vectors — every element a bit-exact copy.
    pub fn export_state(&self) -> LqgState {
        LqgState {
            xhat: self.state.xhat.to_vector(),
            u_prev: self.state.u_prev.to_vector(),
            q_int: self.state.q_int.to_vector(),
            y_ref_norm: self.state.y_ref_norm.to_vector(),
            x_ss: self.state.x_ss.to_vector(),
            u_ss: self.state.u_ss.to_vector(),
        }
    }
}

/// Snapshot of an [`LqgController`]'s evolving runtime state (see
/// [`LqgController::export_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LqgState {
    /// State estimate `x̂`.
    pub xhat: Vector,
    /// Previous (quantized, normalized) input.
    pub u_prev: Vector,
    /// Leaky error integrator.
    pub q_int: Vector,
    /// Normalized reference.
    pub y_ref_norm: Vector,
    /// Steady-state operating state for the current reference.
    pub x_ss: Vector,
    /// Steady-state operating input for the current reference.
    pub u_ss: Vector,
}

// --- Slice-level pieces of the LQG epoch -------------------------------

/// Retargets one controller's state: normalizes the physical reference
/// into `y_ref_norm` and re-solves `u_ss`/`x_ss` only when some channel's
/// bits changed.
///
/// Retargeting every epoch (the fleet arbiter's cadence) must not pay the
/// steady-state resolve when the reference did not actually move. The
/// resolve depends only on the normalized reference and the design, so
/// skipping it on bit-equal targets leaves the state bit-identical.
///
/// # Panics
///
/// Panics if `y0_physical` and `y_ref_norm` differ in length.
fn retarget_reference(
    output_scaler: &ChannelScaler,
    y0_physical: &[f64],
    y_ref_norm: &mut [f64],
    solver: &SteadyStateSolver,
    u_ss: &mut [f64],
    x_ss: &mut [f64],
) {
    assert_eq!(
        y0_physical.len(),
        y_ref_norm.len(),
        "reference dimension mismatch"
    );
    let mut changed = false;
    for c in 0..y0_physical.len() {
        let v = output_scaler.normalize_channel(c, y0_physical[c]);
        if v.to_bits() != y_ref_norm[c].to_bits() {
            y_ref_norm[c] = v;
            changed = true;
        }
    }
    if changed {
        solver.resolve(y_ref_norm, u_ss, x_ss);
    }
}

/// Leaky error integration with the anti-windup clamp:
/// `q ← clamp(q·leak + (y − y_ref), ±Q_CLAMP)` per channel.
fn integrate_tracking_error(q_int: &mut [f64], y_norm: &[f64], y_ref_norm: &[f64]) {
    for c in 0..q_int.len() {
        let err = y_norm[c] - y_ref_norm[c];
        q_int[c] = (q_int[c] * INTEGRATOR_LEAK + err).clamp(-Q_CLAMP, Q_CLAMP);
    }
}

/// Assembles the augmented state `z = [x̂ − x_ss; u₋₁ − u_ss; q]`.
fn assemble_augmented_state(
    z: &mut [f64],
    xhat: &[f64],
    x_ss: &[f64],
    u_prev: &[f64],
    u_ss: &[f64],
    q_int: &[f64],
) {
    let n = xhat.len();
    let i = u_prev.len();
    for k in 0..n {
        z[k] = xhat[k] - x_ss[k];
    }
    for k in 0..i {
        z[n + k] = u_prev[k] - u_ss[k];
    }
    for (k, &q) in q_int.iter().enumerate() {
        z[n + i + k] = q;
    }
}

/// In-place sign flip (`v ← v · −1`), the `Δu = −F z` negation.
fn negate(values: &mut [f64]) {
    for v in values {
        *v *= -1.0;
    }
}

/// Candidate input, in place of `du`: `clamp(u_prev + Δu, ±U_CLAMP)` per
/// channel.
fn apply_du_clamped(du: &mut [f64], u_prev: &[f64]) {
    for k in 0..du.len() {
        du[k] = (u_prev[k] + du[k]).clamp(-U_CLAMP, U_CLAMP);
    }
}

/// Grid quantization with the one-step-per-epoch slew limit: each channel
/// moves at most one grid index from its held index `held[ch]` toward the
/// index nearest the candidate `u_phys_raw[ch]`, writes that grid point to
/// `out[ch]` and holds its index for the next epoch.
///
/// The held index is the one the channel was last written at. A full scan
/// of the denormalized previous input finds the same index, because the
/// input scaler's round trip maps every grid point back to its own index
/// ([`LqgDesign::build`] checks it). A controller derives the index by
/// that scan wherever its previous input is set another way.
pub fn slew_step(grids: &[Vec<f64>], u_phys_raw: &[f64], held: &mut [usize], out: &mut [f64]) {
    for ch in 0..out.len() {
        let grid = &grids[ch];
        let next = slew_index(grid, held[ch], u_phys_raw[ch]);
        held[ch] = next;
        out[ch] = grid[next];
    }
}

/// The index one slew step from `cur` toward [`quantize_index`]`(grid, v)`
/// on an ascending `grid`, found by comparing `cur` with its neighbours.
///
/// `|g − v|` is unimodal over an ascending grid, also in floating point
/// (rounding the difference is monotone), so a strictly closer neighbour
/// names the direction of the nearest point, and two strictly farther
/// neighbours make `cur` the nearest. A tie or a NaN falls back to the
/// full scan, so midpoints keep the scan's lower index and ±∞ and NaN its
/// index 0.
fn slew_index(grid: &[f64], cur: usize, v: f64) -> usize {
    let d = (grid[cur] - v).abs();
    let up = grid.get(cur + 1).map_or(f64::INFINITY, |g| (g - v).abs());
    let down = match cur {
        0 => f64::INFINITY,
        _ => (grid[cur - 1] - v).abs(),
    };
    if up < d {
        cur + 1
    } else if down < d {
        cur - 1
    } else if up > d && down > d {
        cur
    } else {
        let target = quantize_index(grid, v);
        if target > cur {
            cur + 1
        } else if target < cur {
            cur - 1
        } else {
            cur
        }
    }
}

/// Each channel's grid index for a normalized previous input, as the full
/// scan finds it: denormalize, then [`quantize_index`].
fn held_grid_indices(
    grids: &[Vec<f64>],
    input_scaler: &ChannelScaler,
    u_prev: &[f64],
    held: &mut [usize],
) {
    for (c, h) in held.iter_mut().enumerate() {
        *h = quantize_index(&grids[c], input_scaler.denormalize_channel(c, u_prev[c]));
    }
}

/// Checks that every actuator grid can carry the held slew index: it is
/// non-empty and strictly ascending, and each point maps back to its own
/// index through the input scaler's round trip, the way the previous input
/// travels from one epoch to the next.
fn check_actuator_grids(grids: &[Vec<f64>], input_scaler: &ChannelScaler) -> Result<()> {
    for (channel, grid) in grids.iter().enumerate() {
        let bad = |what: String| Err(ControlError::BadActuatorGrid { channel, what });
        if grid.is_empty() {
            return bad("the grid is empty".into());
        }
        let ascending = |w: &[f64]| w[0].partial_cmp(&w[1]) == Some(std::cmp::Ordering::Less);
        if let Some(k) = grid.windows(2).position(|w| !ascending(w)) {
            return bad(format!("points {k} and {} are not ascending", k + 1));
        }
        for (k, &g) in grid.iter().enumerate() {
            let norm = input_scaler.normalize_channel(channel, g);
            let back = input_scaler.denormalize_channel(channel, norm);
            let found = quantize_index(grid, back);
            if found != k {
                return bad(format!(
                    "point {k} ({g}) round-trips through the input scaler to {back}, \
                     nearest point {found}"
                ));
            }
        }
    }
    Ok(())
}

/// Index of the nearest grid value.
pub fn quantize_index(grid: &[f64], v: f64) -> usize {
    debug_assert!(!grid.is_empty());
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, &g) in grid.iter().enumerate() {
        let d = (g - v).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::Governor;

    /// A known 2-input 2-output plant for closed-loop tests:
    /// x(t+1) = diag(0.7, 0.6)x + Bu, y = x, with cross coupling in B.
    fn test_plant() -> StateSpace {
        StateSpace::new(
            Matrix::diag(&[0.7, 0.6]),
            Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6]]),
            Matrix::identity(2),
            Matrix::zeros(2, 2),
        )
        .unwrap()
    }

    fn fine_grid() -> Vec<f64> {
        (0..201).map(|i| -1.0 + 0.01 * i as f64).collect()
    }

    fn test_design(model: StateSpace, qw: &[f64], rw: &[f64]) -> LqgDesign {
        let (n, i, o) = (model.state_dim(), model.num_inputs(), model.num_outputs());
        LqgDesign {
            process_noise: Matrix::identity(n).scale(1e-4),
            measurement_noise: Matrix::identity(o).scale(1e-4),
            output_weights: qw.to_vec(),
            input_weights: rw.to_vec(),
            integral_weight: 0.05,
            input_scaler: ChannelScaler::from_ranges(&vec![(-1.0, 1.0); i]),
            output_scaler: ChannelScaler::from_ranges(&vec![(-5.0, 5.0); o]),
            // Fine grids so quantization barely interferes in unit tests.
            input_grids: vec![fine_grid(); i],
            model,
        }
    }

    /// Simulates the closed loop for `steps` epochs and returns the final
    /// physical output.
    fn run_closed_loop(
        ctrl: &mut LqgController,
        plant: &StateSpace,
        y0: &Vector,
        steps: usize,
    ) -> Vector {
        ctrl.set_reference(y0);
        let out_scaler = ctrl.design().output_scaler.clone();
        let in_scaler = ctrl.design().input_scaler.clone();
        let mut x = Vector::zeros(plant.state_dim());
        let mut y_phys = out_scaler.denormalize(&plant.c().mul_vec(&x).unwrap());
        let mut u_phys = Vector::zeros(ctrl.num_inputs());
        for _ in 0..steps {
            ctrl.step_into(&y_phys, &mut u_phys);
            let u_norm = in_scaler.normalize(&u_phys);
            let (xn, y_norm) = plant.step(&x, &u_norm);
            x = xn;
            y_phys = out_scaler.denormalize(&y_norm);
        }
        y_phys
    }

    #[test]
    fn tracks_a_feasible_mimo_reference() {
        let plant = test_plant();
        let mut ctrl = test_design(plant.clone(), &[10.0, 1000.0], &[0.01, 0.01])
            .build()
            .unwrap();
        let y0 = Vector::from_slice(&[2.0, 1.0]);
        let y = run_closed_loop(&mut ctrl, &plant, &y0, 400);
        assert!(
            (&y - &y0).norm_inf() < 0.05,
            "tracking failed: y = {y:?}, target {y0:?}"
        );
    }

    #[test]
    fn integral_action_rejects_plant_gain_error() {
        // Controller designed on the nominal model, but the true plant has
        // 25% higher gain — integral action must still remove the offset.
        let model = test_plant();
        let true_plant = StateSpace::new(
            model.a().clone(),
            model.b().scale(1.25),
            model.c().clone(),
            model.d().clone(),
        )
        .unwrap();
        let mut ctrl = test_design(model, &[10.0, 10.0], &[0.05, 0.05])
            .build()
            .unwrap();
        let y0 = Vector::from_slice(&[1.5, -1.0]);
        let y = run_closed_loop(&mut ctrl, &true_plant, &y0, 800);
        assert!(
            (&y - &y0).norm_inf() < 0.08,
            "offset not rejected: {y:?} vs {y0:?}"
        );
    }

    #[test]
    fn output_weight_prioritizes_that_output() {
        // Both outputs are driven by (almost) the same input direction, so
        // the targets [1, -1] conflict: the loop must compromise. The
        // heavily weighted output should end up closer to its target.
        let plant = StateSpace::new(
            Matrix::diag(&[0.5, 0.5]),
            Matrix::from_rows(&[&[0.5, 0.02], &[0.5, -0.02]]),
            Matrix::identity(2),
            Matrix::zeros(2, 2),
        )
        .unwrap();
        let y0 = Vector::from_slice(&[1.0, -1.0]);
        let mut errs = Vec::new();
        for qw in [[1.0, 1.0], [1.0, 400.0]] {
            let mut ctrl = test_design(plant.clone(), &qw, &[0.01, 0.01])
                .build()
                .unwrap();
            let y = run_closed_loop(&mut ctrl, &plant, &y0, 800);
            errs.push((y[1] - y0[1]).abs());
        }
        assert!(
            errs[1] < errs[0],
            "weighting output 1 at 400x should shrink its error: {errs:?}"
        );
    }

    #[test]
    fn higher_input_weight_slows_that_input() {
        let plant = test_plant();
        let y0 = Vector::from_slice(&[2.0, 2.0]);
        // Under slew limiting, a heavier input weight shows up as a later
        // first movement of that input (it takes longer for the accumulated
        // error to justify paying the change cost).
        let mut first_move_epoch = Vec::new();
        for rw in [[0.01, 0.01], [0.01, 2000.0]] {
            let mut design = test_design(plant.clone(), &[10.0, 10.0], &rw);
            // Coarse grids: moving one step is a deliberate act, so the
            // change-cost asymmetry becomes visible.
            let coarse: Vec<f64> = (0..9).map(|i| -1.0 + 0.25 * i as f64).collect();
            design.input_grids = vec![coarse.clone(), coarse];
            let mut ctrl = design.build().unwrap();
            ctrl.set_reference(&y0);
            let y = Vector::zeros(2);
            let mut u = Vector::zeros(2);
            ctrl.step_into(&y, &mut u);
            let start = u[1];
            let mut moved_at = 200;
            for t in 1..200 {
                ctrl.step_into(&y, &mut u);
                if (u[1] - start).abs() > 1e-12 {
                    moved_at = t;
                    break;
                }
            }
            first_move_epoch.push(moved_at);
        }
        assert!(
            first_move_epoch[1] > first_move_epoch[0],
            "heavy weight should delay input 1: {first_move_epoch:?}"
        );
    }

    #[test]
    fn infeasible_reference_saturates_without_windup() {
        let plant = test_plant();
        let mut ctrl = test_design(plant.clone(), &[10.0, 10.0], &[0.01, 0.01])
            .build()
            .unwrap();
        // Far beyond the reachable set given u ∈ [-1, 1].
        let y0 = Vector::from_slice(&[50.0, 50.0]);
        let y = run_closed_loop(&mut ctrl, &plant, &y0, 500);
        // Saturated but finite and stable.
        assert!(y.all_finite());
        // And the controller recovers promptly when the target becomes
        // feasible again (windup would delay this for hundreds of epochs).
        let y_ok = Vector::from_slice(&[1.0, 1.0]);
        let y2 = run_closed_loop(&mut ctrl, &plant, &y_ok, 600);
        assert!((&y2 - &y_ok).norm_inf() < 0.1, "recovery failed: {y2:?}");
    }

    #[test]
    fn quantization_to_coarse_grid_still_converges_nearby() {
        let plant = test_plant();
        let mut design = test_design(plant.clone(), &[10.0, 10.0], &[0.05, 0.05]);
        // Coarse 9-point grids.
        design.input_grids = vec![
            (0..9).map(|i| -1.0 + 0.25 * i as f64).collect(),
            (0..9).map(|i| -1.0 + 0.25 * i as f64).collect(),
        ];
        let mut ctrl = design.build().unwrap();
        let y0 = Vector::from_slice(&[1.2, 0.8]);
        let y = run_closed_loop(&mut ctrl, &plant, &y0, 600);
        // Within a quantization step of the target.
        assert!((&y - &y0).norm_inf() < 0.6, "coarse tracking: {y:?}");
    }

    #[test]
    fn rejects_more_outputs_than_inputs() {
        // 1 input, 2 outputs.
        let model = StateSpace::new(
            Matrix::diag(&[0.5, 0.5]),
            Matrix::from_rows(&[&[1.0], &[0.5]]),
            Matrix::identity(2),
            Matrix::zeros(2, 1),
        )
        .unwrap();
        let design = LqgDesign {
            process_noise: Matrix::identity(2).scale(1e-4),
            measurement_noise: Matrix::identity(2).scale(1e-4),
            output_weights: vec![1.0, 1.0],
            input_weights: vec![1.0],
            integral_weight: 0.05,
            input_scaler: ChannelScaler::from_ranges(&[(-1.0, 1.0)]),
            output_scaler: ChannelScaler::from_ranges(&[(-1.0, 1.0), (-1.0, 1.0)]),
            input_grids: vec![fine_grid()],
            model,
        };
        assert!(matches!(
            design.build(),
            Err(ControlError::InfeasibleReference { .. })
        ));
    }

    #[test]
    fn dimension_validation() {
        let model = test_plant();
        let mut d = test_design(model, &[1.0, 1.0], &[1.0, 1.0]);
        d.output_weights = vec![1.0]; // wrong count
        assert!(matches!(
            d.build(),
            Err(ControlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn closed_loop_radius_reported_stable() {
        let ctrl = test_design(test_plant(), &[10.0, 100.0], &[0.1, 0.1])
            .build()
            .unwrap();
        assert!(ctrl.closed_loop_radius() < 1.0);
    }

    #[test]
    fn reset_clears_the_runtime_state() {
        let mut ctrl = test_design(test_plant(), &[1.0, 1.0], &[1.0, 1.0])
            .build()
            .unwrap();
        ctrl.set_reference(&Vector::from_slice(&[1.0, 1.0]));
        let mut u = Vector::zeros(2);
        ctrl.step_into(&Vector::from_slice(&[0.5, 0.2]), &mut u);
        assert!(ctrl.state.q_int.norm_inf() > 0.0);
        ctrl.reset_state();
        assert_eq!(ctrl.state.xhat.norm_inf(), 0.0);
        assert_eq!(ctrl.state.u_prev.norm_inf(), 0.0);
        assert_eq!(ctrl.state.q_int.norm_inf(), 0.0);
    }

    #[test]
    fn static_build_matches_dynamic_bit_for_bit() {
        // The 2-state/2-in/2-out test plant monomorphizes to
        // StaticStore<2, 2, 2, 6>. Drive both controllers through the same
        // measurement sequence and demand identical bits at every epoch.
        let design = test_design(test_plant(), &[10.0, 1000.0], &[0.01, 0.01]);
        let mut dynamic = design.clone().build().unwrap();
        let mut fixed = design.build().unwrap().into_static::<2, 2, 2, 6>().unwrap();
        let y0 = Vector::from_slice(&[2.0, 1.0]);
        dynamic.set_reference(&y0);
        fixed.set_reference(&y0);
        let mut u_d = Vector::zeros(2);
        let mut u_s = Vector::zeros(2);
        for t in 0..300 {
            let y = Vector::from_slice(&[(t as f64 * 0.37).sin() * 3.0, (t as f64 * 0.19).cos()]);
            dynamic.step_into(&y, &mut u_d);
            fixed.step_into(&y, &mut u_s);
            for k in 0..2 {
                assert_eq!(
                    u_d[k].to_bits(),
                    u_s[k].to_bits(),
                    "divergence at epoch {t} channel {k}: {} vs {}",
                    u_d[k],
                    u_s[k]
                );
            }
        }
    }

    #[test]
    fn mid_run_conversion_carries_state_bit_exactly() {
        let design = test_design(test_plant(), &[10.0, 10.0], &[0.05, 0.05]);
        let mut dynamic = design.build().unwrap();
        dynamic.set_reference(&Vector::from_slice(&[1.5, -1.0]));
        let mut u_d = Vector::zeros(2);
        let mut u_s = Vector::zeros(2);
        for t in 0..50 {
            let y = Vector::from_slice(&[(t as f64 * 0.11).sin(), (t as f64 * 0.07).cos()]);
            dynamic.step_into(&y, &mut u_d);
        }
        // Convert mid-run: the static controller must continue exactly
        // where the dynamic one left off.
        let mut fixed = dynamic.with_storage::<StaticStore<2, 2, 2, 6>>().unwrap();
        for t in 50..150 {
            let y = Vector::from_slice(&[(t as f64 * 0.11).sin(), (t as f64 * 0.07).cos()]);
            dynamic.step_into(&y, &mut u_d);
            fixed.step_into(&y, &mut u_s);
            for k in 0..2 {
                assert_eq!(u_d[k].to_bits(), u_s[k].to_bits(), "epoch {t} channel {k}");
            }
        }
        // And back: round-tripping to dynamic also preserves state.
        let mut back = fixed.with_storage::<DynStore>().unwrap();
        let y = Vector::from_slice(&[0.4, -0.2]);
        fixed.step_into(&y, &mut u_s);
        back.step_into(&y, &mut u_d);
        assert_eq!(u_d[0].to_bits(), u_s[0].to_bits());
        assert_eq!(u_d[1].to_bits(), u_s[1].to_bits());
    }

    #[test]
    fn static_conversion_rejects_wrong_dimensions() {
        let ctrl = test_design(test_plant(), &[1.0, 1.0], &[1.0, 1.0])
            .build()
            .unwrap();
        // Wrong NU.
        assert!(ctrl.with_storage::<StaticStore<3, 2, 2, 7>>().is_err());
        // Wrong NZ (must be NX + NU + NY = 6).
        assert!(ctrl.with_storage::<StaticStore<2, 2, 2, 7>>().is_err());
        // Right shape converts.
        assert!(ctrl.with_storage::<StaticStore<2, 2, 2, 6>>().is_ok());
    }

    /// A stabilizable, detectable `n`-state plant with `i` inputs and `o`
    /// outputs (distinct stable poles, every state driven and seen).
    fn shaped_plant(i: usize, o: usize, n: usize) -> StateSpace {
        let poles: Vec<f64> = (0..n).map(|k| 0.75 - 0.1 * k as f64).collect();
        let mut b = Matrix::zeros(n, i);
        let mut c = Matrix::zeros(o, n);
        for r in 0..n {
            for col in 0..i {
                b[(r, col)] = 0.2 + 0.1 * ((r + 2 * col) % 3) as f64;
            }
        }
        for r in 0..o {
            for col in 0..n {
                c[(r, col)] = if col % o == r { 1.0 } else { 0.2 };
            }
        }
        StateSpace::new(Matrix::diag(&poles), b, c, Matrix::zeros(o, i)).unwrap()
    }

    fn bits(v: &Vector) -> Vec<u64> {
        v.iter().map(|e| e.to_bits()).collect()
    }

    fn assert_state_bits(a: &LqgState, b: &LqgState) {
        let fields = [
            (&a.xhat, &b.xhat),
            (&a.u_prev, &b.u_prev),
            (&a.q_int, &b.q_int),
            (&a.y_ref_norm, &b.y_ref_norm),
            (&a.x_ss, &b.x_ss),
            (&a.u_ss, &b.u_ss),
        ];
        for (x, y) in fields {
            assert_eq!(bits(x), bits(y));
        }
    }

    #[test]
    fn clones_share_the_design_not_the_state() {
        let mut ctrl = test_design(test_plant(), &[10.0, 10.0], &[0.05, 0.05])
            .build()
            .unwrap()
            .into_static::<2, 2, 2, 6>()
            .unwrap();
        ctrl.set_reference(&Vector::from_slice(&[1.0, 0.5]));
        let mut stepped = ctrl.clone();
        let mut retargeted = ctrl.clone();
        assert!(Arc::ptr_eq(ctrl.compiled(), stepped.compiled()));
        assert!(Arc::ptr_eq(ctrl.compiled(), retargeted.compiled()));

        let before = ctrl.export_state();
        let mut u = Vector::zeros(2);
        for t in 0..20 {
            stepped.step_into(&Vector::from_slice(&[(t as f64 * 0.3).sin(), 0.2]), &mut u);
        }
        retargeted.set_reference(&Vector::from_slice(&[-2.0, 3.0]));
        assert_ne!(stepped.export_state(), before);
        assert_ne!(retargeted.export_state(), before);
        assert_state_bits(&ctrl.export_state(), &before);
        // A conversion is a new design of its own.
        assert!(!Arc::ptr_eq(
            ctrl.compiled(),
            ctrl.with_storage::<StaticStore<2, 2, 2, 6>>()
                .unwrap()
                .compiled()
        ));

        // `FastController` converts once and every governor it hands out
        // steps bit for bit like its own `fast_governor` conversion, for
        // every static shape and for the dynamic fallback (3 states).
        for (i, o, n) in [(2, 2, 4), (3, 2, 5), (1, 1, 2), (2, 2, 2), (2, 2, 3)] {
            let mut ctrl = test_design(shaped_plant(i, o, n), &vec![10.0; o], &vec![0.05; i])
                .build()
                .unwrap();
            let target = Vector::from_slice(&vec![0.5; o]);
            ctrl.set_reference(&target);
            let fast = crate::governor::FastController::new(&ctrl);
            let mut shared = [fast.governor(), fast.governor()];
            let mut own = crate::governor::fast_governor(ctrl.clone());
            let mut u: Vec<Vector> = (0..3).map(|_| Vector::zeros(i)).collect();
            for t in 0..80 {
                if t == 40 {
                    let moved = Vector::from_slice(&vec![-0.5; o]);
                    shared[1].set_targets(&moved);
                    own.set_targets(&moved);
                }
                let y = Vector::from_fn(o, |k| (t as f64 * 0.17 + k as f64).sin());
                shared[0].decide_into(&y, false, &mut u[0]).unwrap();
                shared[1].decide_into(&y, false, &mut u[1]).unwrap();
                own.decide_into(&y, false, &mut u[2]).unwrap();
                assert_eq!(bits(&u[1]), bits(&u[2]), "{i}x{o}x{n} epoch {t}");
                if t < 40 {
                    assert_eq!(bits(&u[0]), bits(&u[1]), "{i}x{o}x{n} epoch {t}");
                }
            }
        }
    }

    #[test]
    fn fast_controller_puts_deployed_shapes_on_static_storage() {
        use crate::governor::FastController as Fast;
        let fast = |model: StateSpace| {
            let (i, o) = (model.num_inputs(), model.num_outputs());
            Fast::new(
                &test_design(model, &vec![10.0; o], &vec![0.05; i])
                    .build()
                    .unwrap(),
            )
        };
        assert!(matches!(fast(shaped_plant(2, 2, 4)), Fast::FreqCache(_)));
        assert!(matches!(fast(shaped_plant(3, 2, 5)), Fast::ThreeKnob(_)));
        assert!(matches!(fast(shaped_plant(1, 1, 2)), Fast::Siso(_)));
        assert!(matches!(fast(test_plant()), Fast::Test2(_)));
        // Six states is no deployed architecture: it stays dynamic.
        assert!(matches!(fast(shaped_plant(2, 2, 6)), Fast::Dynamic(_)));
    }

    #[test]
    #[should_panic(expected = "MIMO: measurement channel 0 is NaN or infinite")]
    fn mimo_decide_panics_on_a_non_finite_measurement() {
        let plant = test_plant();
        let ctrl = test_design(plant, &[1.0, 1.0], &[0.1, 0.1])
            .build()
            .unwrap();
        crate::governor::MimoGovernor::new(ctrl)
            .decide(&Vector::from_slice(&[f64::NAN, 1.0]), false);
    }

    /// The index a full scan finds for each channel of `u_prev`.
    fn scanned_indices<S: LqgStorage>(ctrl: &LqgController<S>) -> Vec<usize> {
        let d = ctrl.design();
        let u_prev = d.input_scaler.denormalize(&ctrl.state.u_prev.to_vector());
        (0..u_prev.len())
            .map(|c| quantize_index(&d.input_grids[c], u_prev[c]))
            .collect()
    }

    #[test]
    fn held_index_is_the_scanned_index_of_the_previous_input() {
        // Coarse grids on a skewed scaler, so the loop moves every few
        // epochs and the round trip is not the identity.
        let mut design = test_design(test_plant(), &[10.0, 10.0], &[0.05, 0.05]);
        design.input_scaler = ChannelScaler::from_ranges(&[(0.3, 2.1), (-0.7, 0.9)]);
        design.input_grids = vec![
            (0..16).map(|i| 0.5 + 0.1 * i as f64).collect(),
            (0..9).map(|i| -1.0 + 0.25 * i as f64).collect(),
        ];
        let mut ctrl = design.build().unwrap();
        let mut fixed: Option<LqgController<StaticStore<2, 2, 2, 6>>> = None;
        ctrl.set_reference(&Vector::from_slice(&[2.0, -1.0]));
        let mut u = Vector::zeros(2);
        for t in 0..300 {
            match t {
                100 => ctrl.reset_state(),
                200 => fixed = Some(ctrl.with_storage().unwrap()),
                _ => {}
            }
            assert_eq!(ctrl.state.u_idx, scanned_indices(&ctrl), "epoch {t}");
            if let Some(f) = fixed.as_mut() {
                assert_eq!(f.state.u_idx.to_vec(), scanned_indices(f), "epoch {t}");
                f.step_into(&Vector::from_slice(&[(t as f64 * 0.2).sin(), 0.3]), &mut u);
            }
            ctrl.step_into(&Vector::from_slice(&[(t as f64 * 0.2).sin(), 0.3]), &mut u);
        }
    }

    #[test]
    fn build_rejects_a_grid_that_cannot_hold_its_index() {
        let bad = |grids: Vec<Vec<f64>>, scaler: ChannelScaler| {
            let mut d = test_design(test_plant(), &[1.0, 1.0], &[1.0, 1.0]);
            d.input_grids = grids;
            d.input_scaler = scaler;
            d.build()
        };
        let unit = || ChannelScaler::from_ranges(&[(-1.0, 1.0); 2]);
        assert!(matches!(
            bad(vec![fine_grid(), vec![]], unit()),
            Err(ControlError::BadActuatorGrid { channel: 1, .. })
        ));
        assert!(matches!(
            bad(vec![vec![0.0, 0.5, 0.25], fine_grid()], unit()),
            Err(ControlError::BadActuatorGrid { channel: 0, .. })
        ));
        // At an offset of 2e16 the doubles are 4 apart, so 1.0 normalizes
        // and comes back as 0.0: grid point 1 would be held as point 0.
        let coarse = ChannelScaler::from_ranges(&[(2e16 - 4.0, 2e16 + 4.0); 2]);
        let err = bad(vec![vec![0.0, 1.0, 2.0, 3.0]; 2], coarse).unwrap_err();
        assert!(
            matches!(err, ControlError::BadActuatorGrid { channel: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn quantize_to_picks_nearest() {
        let grid = [0.0, 1.0, 2.0];
        assert_eq!(grid[quantize_index(&grid, 0.4)], 0.0);
        assert_eq!(grid[quantize_index(&grid, 0.6)], 1.0);
        assert_eq!(grid[quantize_index(&grid, 99.0)], 2.0);
    }
}
