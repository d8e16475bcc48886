//! Discrete-time state-space systems — the paper's Equations (1)–(2):
//!
//! ```text
//! x(t+1) = A x(t) + B u(t)
//! y(t)   = C x(t) + D u(t)
//! ```

use mimo_linalg::{Matrix, Vector};
use mimo_sysid::realize::Realization;

use crate::{ControlError, Result};

/// A discrete-time linear system `(A, B, C, D)`.
///
/// # Example
///
/// ```
/// use mimo_core::StateSpace;
/// use mimo_linalg::Matrix;
///
/// # fn main() -> Result<(), mimo_core::ControlError> {
/// let sys = StateSpace::new(
///     Matrix::from_rows(&[&[0.5]]),
///     Matrix::from_rows(&[&[1.0]]),
///     Matrix::from_rows(&[&[1.0]]),
///     Matrix::zeros(1, 1),
/// )?;
/// // DC gain of y(t+1)=0.5y+u is 1/(1-0.5) = 2.
/// assert!((sys.dc_gain()?[(0, 0)] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpace {
    a: Matrix,
    b: Matrix,
    c: Matrix,
    d: Matrix,
}

impl StateSpace {
    /// Creates a system, checking dimensional consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] if the shapes do not
    /// form a valid `(A, B, C, D)` quadruple.
    pub fn new(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Result<Self> {
        let n = a.rows();
        if !a.is_square() {
            return Err(ControlError::DimensionMismatch {
                what: format!("A must be square, got {:?}", a.shape()),
            });
        }
        if b.rows() != n {
            return Err(ControlError::DimensionMismatch {
                what: format!("B has {} rows, state dim is {n}", b.rows()),
            });
        }
        if c.cols() != n {
            return Err(ControlError::DimensionMismatch {
                what: format!("C has {} cols, state dim is {n}", c.cols()),
            });
        }
        if d.shape() != (c.rows(), b.cols()) {
            return Err(ControlError::DimensionMismatch {
                what: format!(
                    "D is {:?}, expected ({}, {})",
                    d.shape(),
                    c.rows(),
                    b.cols()
                ),
            });
        }
        Ok(StateSpace { a, b, c, d })
    }

    /// State dimension `N`.
    pub fn state_dim(&self) -> usize {
        self.a.rows()
    }

    /// Number of inputs `I`.
    pub fn num_inputs(&self) -> usize {
        self.b.cols()
    }

    /// Number of outputs `O`.
    pub fn num_outputs(&self) -> usize {
        self.c.rows()
    }

    /// The evolution matrix `A`.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// The input matrix `B`.
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// The output matrix `C`.
    pub fn c(&self) -> &Matrix {
        &self.c
    }

    /// The feed-through matrix `D`.
    pub fn d(&self) -> &Matrix {
        &self.d
    }

    /// Advances one step: `(x_next, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `u` have wrong dimensions.
    pub fn step(&self, x: &Vector, u: &Vector) -> (Vector, Vector) {
        let xn = &self.a.mul_vec(x).expect("x dim") + &self.b.mul_vec(u).expect("u dim");
        let y = &self.c.mul_vec(x).expect("x dim") + &self.d.mul_vec(u).expect("u dim");
        (xn, y)
    }

    /// Simulates the output sequence from `x0` under `inputs`.
    pub fn simulate(&self, x0: &Vector, inputs: &[Vector]) -> Vec<Vector> {
        let mut x = x0.clone();
        inputs
            .iter()
            .map(|u| {
                let (xn, y) = self.step(&x, u);
                x = xn;
                y
            })
            .collect()
    }

    /// Steady-state (DC) gain `C (I − A)⁻¹ B + D`.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::Linalg`] if `I − A` is singular (a pole at
    /// `z = 1`).
    pub fn dc_gain(&self) -> Result<Matrix> {
        let n = self.state_dim();
        let i_minus_a = Matrix::identity(n) - &self.a;
        let x = i_minus_a.solve(&self.b)?;
        Ok(&self.c * &x + &self.d)
    }

    /// Spectral radius of `A` — below 1 means open-loop stable.
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue failures.
    pub fn spectral_radius(&self) -> Result<f64> {
        Ok(mimo_linalg::eigen::spectral_radius(&self.a)?)
    }
}

impl From<Realization> for StateSpace {
    fn from(r: Realization) -> Self {
        // A Realization is dimensionally consistent by construction.
        StateSpace {
            a: r.a,
            b: r.b,
            c: r.c,
            d: r.d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_sysid::arx::{ArxModel, ArxOrders};
    use mimo_sysid::realize::to_state_space;

    fn scalar_lag(pole: f64, gain: f64) -> StateSpace {
        StateSpace::new(
            Matrix::from_rows(&[&[pole]]),
            Matrix::from_rows(&[&[gain]]),
            Matrix::from_rows(&[&[1.0]]),
            Matrix::zeros(1, 1),
        )
        .unwrap()
    }

    #[test]
    fn dimension_checks() {
        let bad = StateSpace::new(
            Matrix::zeros(2, 3),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2),
            Matrix::zeros(1, 1),
        );
        assert!(matches!(bad, Err(ControlError::DimensionMismatch { .. })));
        let bad_b = StateSpace::new(
            Matrix::identity(2),
            Matrix::zeros(3, 1),
            Matrix::zeros(1, 2),
            Matrix::zeros(1, 1),
        );
        assert!(bad_b.is_err());
        let bad_d = StateSpace::new(
            Matrix::identity(2),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2),
            Matrix::zeros(2, 2),
        );
        assert!(bad_d.is_err());
    }

    #[test]
    fn step_and_simulate_agree() {
        let sys = scalar_lag(0.5, 1.0);
        let inputs = vec![Vector::from_slice(&[1.0]); 5];
        let ys = sys.simulate(&Vector::zeros(1), &inputs);
        // y(t) = x(t); x: 0, 1, 1.5, 1.75, 1.875
        assert!((ys[0][0] - 0.0).abs() < 1e-12);
        assert!((ys[4][0] - 1.875).abs() < 1e-12);
    }

    #[test]
    fn dc_gain_scalar() {
        let sys = scalar_lag(0.8, 0.4);
        assert!((sys.dc_gain().unwrap()[(0, 0)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn spectral_radius_works() {
        let sys = scalar_lag(-0.7, 1.0);
        assert!((sys.spectral_radius().unwrap() - 0.7).abs() < 1e-12);
    }

    /// Fits `orders` to `(u, y)` and free-runs the realized model from
    /// the zero state over every input; returns the largest output error.
    /// The data must start from rest, so that zero is the true state.
    fn realized_free_run_error(u: &[Vector], y: &[Vector], orders: ArxOrders) -> f64 {
        let model = ArxModel::fit(u, y, orders).unwrap();
        let ss = StateSpace::from(to_state_space(&model));
        let ys = ss.simulate(&Vector::zeros(ss.state_dim()), u);
        ys.iter()
            .zip(y)
            .map(|(a, b)| (a - b).norm_inf())
            .fold(0.0, f64::max)
    }

    #[test]
    fn realized_mimo_arx_free_runs_its_data() {
        // A known 2-in 2-out ARX system, started from rest.
        let a1 = Matrix::from_rows(&[&[0.5, 0.1], &[-0.1, 0.3]]);
        let b1 = Matrix::from_rows(&[&[1.0, 0.2], &[0.0, -0.7]]);
        let (mut u, mut y) = (Vec::new(), Vec::new());
        let (mut yprev, mut uprev) = (Vector::zeros(2), Vector::zeros(2));
        for t in 0..600usize {
            let ut = Vector::from_slice(&[
                ((t * 31) % 11) as f64 / 5.0 - 1.0,
                ((t * 7) % 13) as f64 / 6.0 - 1.0,
            ]);
            let yt = &a1.mul_vec(&yprev).unwrap() + &b1.mul_vec(&uprev).unwrap();
            u.push(ut.clone());
            y.push(yt.clone());
            yprev = yt;
            uprev = ut;
        }
        let orders = ArxOrders {
            na: 1,
            nb: 1,
            direct_feedthrough: false,
        };
        let err = realized_free_run_error(&u, &y, orders);
        assert!(err < 1e-6, "max error {err}");
    }

    #[test]
    fn realized_deeper_arx_free_runs_its_data() {
        // Two output and two input lags, SISO, started from rest.
        let (mut u, mut y) = (Vec::new(), Vec::new());
        let (mut y1, mut y2, mut u1, mut u2) = (0.0, 0.0, 0.0, 0.0);
        for t in 0..500usize {
            let ut = ((t * 29) % 17) as f64 / 8.0 - 1.0;
            let yt = 0.4 * y1 + 0.2 * y2 + 0.5 * u1 - 0.2 * u2;
            u.push(Vector::from_slice(&[ut]));
            y.push(Vector::from_slice(&[yt]));
            y2 = y1;
            y1 = yt;
            u2 = u1;
            u1 = ut;
        }
        let orders = ArxOrders {
            na: 2,
            nb: 2,
            direct_feedthrough: false,
        };
        let err = realized_free_run_error(&u, &y, orders);
        assert!(err < 1e-6, "max error {err}");
    }

    #[test]
    fn from_realization() {
        let r = Realization {
            a: Matrix::diag(&[0.5, 0.2]),
            b: Matrix::from_fn(2, 1, |_, _| 1.0),
            c: Matrix::from_fn(1, 2, |_, _| 1.0),
            d: Matrix::zeros(1, 1),
        };
        let ss = StateSpace::from(r);
        assert_eq!(ss.state_dim(), 2);
        assert_eq!(ss.num_inputs(), 1);
        assert_eq!(ss.num_outputs(), 1);
    }
}
