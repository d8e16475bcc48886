//! Steady-state Kalman filtering.
//!
//! §III-A: "the controller begins with a state estimate and generates the
//! system inputs based on this estimate. The controller refines the
//! estimate and learns the true state by comparing the output predicted
//! using the state estimate and the true output." That estimator is the
//! Kalman filter; its steady-state gain comes from the dual Riccati
//! equation over the identified unpredictability matrices `W` (process)
//! and `V` (measurement).

use mimo_linalg::storage::{add_assign_slices, sub_into_slices};
use mimo_linalg::{eigen, MatVecKernel, Matrix, VecKernel};

use crate::dare::solve_dare;
use crate::ss::StateSpace;
use crate::storage::{DynStore, LqgStorage};
use crate::{ControlError, Result};

/// A steady-state Kalman filter for a [`StateSpace`] plant.
#[derive(Debug, Clone, PartialEq)]
pub struct KalmanFilter {
    /// Predictor gain `L` (`states x outputs`).
    l: Matrix,
    /// Error covariance solution of the dual DARE.
    p: Matrix,
    /// Spectral radius of the estimator dynamics `A − L C`.
    estimator_radius: f64,
}

impl KalmanFilter {
    /// Designs the steady-state filter for `sys` with process noise
    /// covariance `w` (`N x N`) and measurement noise covariance `v`
    /// (`O x O`).
    ///
    /// # Errors
    ///
    /// * [`ControlError::DimensionMismatch`] — covariance shapes don't
    ///   match the plant.
    /// * [`ControlError::RiccatiDiverged`] — `(A, C)` not detectable.
    ///
    /// # Example
    ///
    /// ```
    /// use mimo_core::{kalman::KalmanFilter, StateSpace};
    /// use mimo_linalg::Matrix;
    ///
    /// # fn main() -> Result<(), mimo_core::ControlError> {
    /// let sys = StateSpace::new(
    ///     Matrix::from_rows(&[&[0.9]]),
    ///     Matrix::from_rows(&[&[1.0]]),
    ///     Matrix::from_rows(&[&[1.0]]),
    ///     Matrix::zeros(1, 1),
    /// )?;
    /// let kf = KalmanFilter::design(&sys, &Matrix::identity(1), &Matrix::identity(1))?;
    /// assert!(kf.estimator_radius() < 1.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn design(sys: &StateSpace, w: &Matrix, v: &Matrix) -> Result<Self> {
        let n = sys.state_dim();
        let o = sys.num_outputs();
        if w.shape() != (n, n) {
            return Err(ControlError::DimensionMismatch {
                what: format!("W is {:?}, plant state dim is {n}", w.shape()),
            });
        }
        if v.shape() != (o, o) {
            return Err(ControlError::DimensionMismatch {
                what: format!("V is {:?}, plant output dim is {o}", v.shape()),
            });
        }
        // Duality: the filter Riccati for (A, C, W, V) is the control DARE
        // for (Aᵀ, Cᵀ, W, V).
        let p = solve_dare(&sys.a().transpose(), &sys.c().transpose(), w, v)?;
        // L = A P Cᵀ (C P Cᵀ + V)⁻¹.
        let pct = &p * &sys.c().transpose();
        let s = &(sys.c() * &pct) + v;
        let gain_t = s
            .solve(&(sys.a() * &pct).transpose())
            .map_err(ControlError::Linalg)?;
        let l = gain_t.transpose();
        let a_est = sys.a() - &(&l * sys.c());
        let estimator_radius = eigen::spectral_radius(&a_est).map_err(ControlError::Linalg)?;
        if estimator_radius >= 1.0 {
            return Err(ControlError::ValidationFailed {
                what: format!("estimator not stable (radius {estimator_radius:.4})"),
            });
        }
        Ok(KalmanFilter {
            l,
            p,
            estimator_radius,
        })
    }

    /// The predictor gain `L`.
    pub fn gain(&self) -> &Matrix {
        &self.l
    }

    /// The steady-state error covariance.
    pub fn covariance(&self) -> &Matrix {
        &self.p
    }

    /// Spectral radius of `A − LC` (estimation error dynamics).
    pub fn estimator_radius(&self) -> f64 {
        self.estimator_radius
    }
}

/// One predictor update over storage `S`, in place and allocation-free:
/// overwrites `xhat` with `x̂(t+1) = A x̂ + B u + L (y − C x̂ − D u)`,
/// where `L` is a [`KalmanFilter::gain`]. Dynamic controllers call it with
/// `S = `[`DynStore`], fixed-size ones with
/// `S = `[`StaticStore`](crate::storage::StaticStore).
///
/// Bit-identity: every storage runs the same matrix-vector products and
/// elementwise sums in the same order, so the result does not depend on
/// `S`.
///
/// # Panics
///
/// The dynamic storage panics on dimension mismatches (programming
/// errors); fixed-size storages make them unrepresentable.
#[allow(clippy::too_many_arguments)]
pub fn update_kalman<S: LqgStorage>(
    l: &S::GainL,
    a: &S::MatA,
    b: &S::MatB,
    c: &S::MatC,
    d: &S::MatD,
    xhat: &mut S::VecX,
    u: &S::VecU,
    y: &S::VecY,
    s: &mut KalmanScratch<S>,
) {
    // y_pred = C x̂ + D u.
    c.mat_vec_into(xhat, &mut s.y_pred);
    d.mat_vec_into(u, &mut s.d_u);
    add_assign_slices(s.y_pred.as_mut_slice(), s.d_u.as_slice());
    // innov = y − y_pred.
    sub_into_slices(y.as_slice(), s.y_pred.as_slice(), s.innov.as_mut_slice());
    // correction = L innov.
    l.mat_vec_into(&s.innov, &mut s.correction);
    // x̂ ← (A x̂ + B u) + correction.
    a.mat_vec_into(xhat, &mut s.a_x);
    b.mat_vec_into(u, &mut s.b_u);
    add_assign_slices(s.a_x.as_mut_slice(), s.b_u.as_slice());
    add_assign_slices(s.a_x.as_mut_slice(), s.correction.as_slice());
    xhat.as_mut_slice().copy_from_slice(s.a_x.as_slice());
}

/// Reusable temporaries for [`update_kalman`], sized for one plant so a
/// steady-state estimator update performs no heap allocations. With the
/// default [`DynStore`] storage the buffers live on the heap; with a
/// fixed-size storage the whole scratch is plain stack data.
#[derive(Debug, Clone)]
pub struct KalmanScratch<S: LqgStorage = DynStore> {
    y_pred: S::VecY,
    d_u: S::VecY,
    innov: S::VecY,
    a_x: S::VecX,
    b_u: S::VecX,
    correction: S::VecX,
}

impl<S: LqgStorage> KalmanScratch<S> {
    /// Allocates scratch for a plant with `n` states and `o` outputs.
    ///
    /// # Panics
    ///
    /// Panics if a fixed-size storage's const dimensions disagree with
    /// `n`/`o` (a programming error — callers size scratch from the same
    /// model the storage was checked against).
    pub fn new(n: usize, o: usize) -> Self {
        let vec_y = || S::VecY::new_dim(o).expect("scratch output dim matches storage");
        let vec_x = || S::VecX::new_dim(n).expect("scratch state dim matches storage");
        KalmanScratch {
            y_pred: vec_y(),
            d_u: vec_y(),
            innov: vec_y(),
            a_x: vec_x(),
            b_u: vec_x(),
            correction: vec_x(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_linalg::Vector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scalar_sys(a: f64) -> StateSpace {
        StateSpace::new(
            Matrix::from_rows(&[&[a]]),
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[1.0]]),
            Matrix::zeros(1, 1),
        )
        .unwrap()
    }

    /// One dynamic-storage predictor update of `xhat` through `kf`.
    fn update(kf: &KalmanFilter, sys: &StateSpace, xhat: &mut Vector, u: &Vector, y: &Vector) {
        let mut s = KalmanScratch::new(sys.state_dim(), sys.num_outputs());
        update_kalman::<DynStore>(
            kf.gain(),
            sys.a(),
            sys.b(),
            sys.c(),
            sys.d(),
            xhat,
            u,
            y,
            &mut s,
        );
    }

    fn normal(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[test]
    fn estimator_is_stable() {
        let sys = scalar_sys(0.95);
        let kf = KalmanFilter::design(&sys, &Matrix::identity(1), &Matrix::identity(1)).unwrap();
        assert!(kf.estimator_radius() < 1.0);
        assert!(kf.gain()[(0, 0)] > 0.0);
    }

    #[test]
    fn noisy_measurements_lower_the_gain() {
        let sys = scalar_sys(0.9);
        let w = Matrix::from_rows(&[&[1.0]]);
        let trusty = KalmanFilter::design(&sys, &w, &Matrix::from_rows(&[&[0.01]])).unwrap();
        let noisy = KalmanFilter::design(&sys, &w, &Matrix::from_rows(&[&[100.0]])).unwrap();
        assert!(trusty.gain()[(0, 0)] > 10.0 * noisy.gain()[(0, 0)]);
    }

    #[test]
    fn estimate_converges_to_true_state() {
        // Noiseless simulation: the estimate must converge to the state.
        let sys = StateSpace::new(
            Matrix::from_rows(&[&[0.8, 0.2], &[0.0, 0.9]]),
            Matrix::from_rows(&[&[1.0], &[0.5]]),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            Matrix::zeros(1, 1),
        )
        .unwrap();
        let w = Matrix::identity(2).scale(0.01);
        let v = Matrix::identity(1).scale(0.01);
        let kf = KalmanFilter::design(&sys, &w, &v).unwrap();

        let mut x = Vector::from_slice(&[3.0, -2.0]);
        let mut xhat = Vector::zeros(2);
        let u = Vector::from_slice(&[0.3]);
        for _ in 0..300 {
            let y = sys.c().mul_vec(&x).unwrap();
            update(&kf, &sys, &mut xhat, &u, &y);
            let (xn, _) = sys.step(&x, &u);
            x = xn;
        }
        assert!((&x - &xhat).norm_inf() < 1e-6, "x {x:?} xhat {xhat:?}");
    }

    #[test]
    fn filtering_beats_raw_pseudo_inversion_under_noise() {
        // With noisy sensors, the filtered estimate of a hidden state should
        // track better than instantaneous inversion of the measurement.
        let sys = scalar_sys(0.98);
        let w = Matrix::from_rows(&[&[0.0001]]);
        let v = Matrix::from_rows(&[&[0.09]]); // σ = 0.3 sensor noise
        let kf = KalmanFilter::design(&sys, &w, &v).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut x = 1.0;
        let mut xhat = Vector::zeros(1);
        let u = Vector::from_slice(&[0.02]);
        let mut err_filter = 0.0;
        let mut err_raw = 0.0;
        for t in 0..4000 {
            let y_noisy = x + 0.3 * normal(&mut rng);
            // Skip the initial estimator transient in the comparison.
            if t > 200 {
                err_raw += (y_noisy - x).powi(2);
                err_filter += (xhat[0] - x).powi(2);
            }
            update(&kf, &sys, &mut xhat, &u, &Vector::from_slice(&[y_noisy]));
            x = 0.98 * x + u[0];
        }
        assert!(
            err_filter < 0.5 * err_raw,
            "filter {err_filter} vs raw {err_raw}"
        );
    }

    #[test]
    fn dimension_checks() {
        let sys = scalar_sys(0.5);
        assert!(KalmanFilter::design(&sys, &Matrix::identity(2), &Matrix::identity(1)).is_err());
        assert!(KalmanFilter::design(&sys, &Matrix::identity(1), &Matrix::identity(2)).is_err());
    }

    #[test]
    fn undetectable_system_fails() {
        // Unstable state invisible from the output.
        let sys = StateSpace::new(
            Matrix::diag(&[1.5, 0.5]),
            Matrix::from_rows(&[&[1.0], &[1.0]]),
            Matrix::from_rows(&[&[0.0, 1.0]]),
            Matrix::zeros(1, 1),
        )
        .unwrap();
        assert!(KalmanFilter::design(&sys, &Matrix::identity(2), &Matrix::identity(1)).is_err());
    }
}
