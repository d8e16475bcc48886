//! Discrete-time state-space systems — the paper's Equations (1)–(2):
//!
//! ```text
//! x(t+1) = A x(t) + B u(t)
//! y(t)   = C x(t) + D u(t)
//! ```

use mimo_linalg::storage::{dot_slices as dot, Dim, Fixed};
use mimo_linalg::{Matrix, Vector};
use mimo_sysid::realize::Realization;
use mimo_sysid::{SampleView, Samples};

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

    /// Advances one step: `(x_next, y)`. Allocates its outputs and runs
    /// [`StateSpace::step_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x` or `u` have wrong dimensions.
    pub fn step(&self, x: &Vector, u: &Vector) -> (Vector, Vector) {
        let (n, o) = (self.state_dim(), self.num_outputs());
        let (mut x_next, mut y) = (Vector::zeros(n), Vector::zeros(o));
        self.step_into(
            x.as_slice(),
            u.as_slice(),
            x_next.as_mut_slice(),
            y.as_mut_slice(),
        );
        (x_next, y)
    }

    /// Advances one step in place: `x_next = A x + B u` and
    /// `y = C x + D u`.
    ///
    /// # Panics
    ///
    /// Panics if any slice has the wrong length.
    pub fn step_into(&self, x: &[f64], u: &[f64], x_next: &mut [f64], y: &mut [f64]) {
        self.check_step_shapes(x.len(), u.len(), x_next.len(), y.len());
        self.advance(x.len(), u.len(), x, u, x_next, y);
    }

    /// Panics unless the step's slice lengths fit the system.
    fn check_step_shapes(&self, x: usize, u: usize, x_next: usize, y: usize) {
        let (n, i, o) = (self.state_dim(), self.num_inputs(), self.num_outputs());
        assert!(
            x == n && x_next == n,
            "x dim: {x} and {x_next} for {n} states"
        );
        assert_eq!(u, i, "u dim");
        assert_eq!(y, o, "y dim");
    }

    /// The step kernel for `n` states and `m` inputs, on slices whose
    /// lengths the caller checked. Each entry is a row product of `A` (or
    /// `C`) accumulated from `0.0` in column order, plus the same row
    /// product of `B` (or `D`): the sums of the matrix-vector products
    /// added elementwise. [`StateSpace::simulate`] instantiates it with
    /// [`Fixed`] lengths for the design flow's models, so its row products
    /// unroll.
    #[inline(always)]
    fn advance<N: Dim, M: Dim>(
        &self,
        n: N,
        m: M,
        x: &[f64],
        u: &[f64],
        x_next: &mut [f64],
        y: &mut [f64],
    ) {
        let (n, m) = (n.get(), m.get());
        let (x, u) = (&x[..n], &u[..m]);
        let (a, b) = (self.a.as_slice(), self.b.as_slice());
        let (c, d) = (self.c.as_slice(), self.d.as_slice());
        for (r, xr) in x_next[..n].iter_mut().enumerate() {
            *xr = dot(&a[r * n..][..n], x) + dot(&b[r * m..][..m], u);
        }
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = dot(&c[r * n..][..n], x) + dot(&d[r * m..][..m], u);
        }
    }

    /// Simulates the output sequence from `x0` under `inputs`, one output
    /// sample per input sample, with the shapes checked once and the state
    /// in two reused buffers.
    ///
    /// # Panics
    ///
    /// Panics if `x0` or the input samples have wrong dimensions.
    pub fn simulate(&self, x0: &Vector, inputs: SampleView<'_>) -> Samples {
        let (n, o) = (self.state_dim(), self.num_outputs());
        let mut out = Samples::zeros(inputs.len(), o);
        if inputs.is_empty() {
            return out;
        }
        self.check_step_shapes(x0.len(), inputs.channels(), n, o);
        let x0 = x0.as_slice();
        match (n, inputs.channels()) {
            (4, 2) => self.free_run(Fixed::<4>, Fixed::<2>, x0, inputs, &mut out),
            (5, 3) => self.free_run(Fixed::<5>, Fixed::<3>, x0, inputs, &mut out),
            (n, m) => self.free_run(n, m, x0, inputs, &mut out),
        }
        out
    }

    /// The loop of [`StateSpace::simulate`] for `n` states and `m`
    /// inputs, whose shapes it checked.
    fn free_run<N: Dim, M: Dim>(
        &self,
        n: N,
        m: M,
        x0: &[f64],
        inputs: SampleView<'_>,
        out: &mut Samples,
    ) {
        let mut x = x0.to_vec();
        let mut x_next = vec![0.0; n.get()];
        for (u, y) in inputs.iter().zip(out.iter_mut()) {
            self.advance(n, m, &x, u, &mut x_next, y);
            std::mem::swap(&mut x, &mut x_next);
        }
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
        let inputs = Samples::from_fn(5, 1, |_, _| 1.0);
        let ys = sys.simulate(&Vector::zeros(1), inputs.view());
        // y(t) = x(t); x: 0, 1, 1.5, 1.75, 1.875
        assert!((ys.sample(0)[0] - 0.0).abs() < 1e-12);
        assert!((ys.sample(4)[0] - 1.875).abs() < 1e-12);
    }

    #[test]
    fn simulate_matches_chained_steps_bitwise() {
        let sys = StateSpace::new(
            Matrix::from_rows(&[&[0.5, 0.1, 0.0], &[-0.2, 0.3, 0.7], &[0.0, 0.0, 0.0]]),
            Matrix::from_rows(&[&[1.0, 0.2], &[0.0, -0.7], &[1.0, 0.0]]),
            Matrix::from_rows(&[&[0.3, 0.1, -0.4], &[0.9, 0.0, 0.2]]),
            Matrix::from_rows(&[&[0.01, 0.0], &[0.0, -0.02]]),
        )
        .unwrap();
        let inputs = Samples::from_fn(50, 2, |t, c| ((t * 7 + c * 3) % 11) as f64 / 5.0 - 1.0);
        let x0 = Vector::from_slice(&[0.3, -0.1, 0.2]);
        let ys = sys.simulate(&x0, inputs.view());
        let mut x = x0;
        for (u, y) in inputs.iter().zip(ys.iter()) {
            let (xn, want) = sys.step(&x, &Vector::from_slice(u));
            for (a, b) in y.iter().zip(want.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            x = xn;
        }
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
    fn realized_free_run_error(u: &Samples, y: &Samples, orders: ArxOrders) -> f64 {
        let model = ArxModel::fit(u.view(), y.view(), orders).unwrap();
        let ss = StateSpace::from(to_state_space(&model));
        let ys = ss.simulate(&Vector::zeros(ss.state_dim()), u.view());
        ys.as_flat()
            .iter()
            .zip(y.as_flat())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn realized_mimo_arx_free_runs_its_data() {
        // A known 2-in 2-out ARX system, started from rest.
        let a1 = Matrix::from_rows(&[&[0.5, 0.1], &[-0.1, 0.3]]);
        let b1 = Matrix::from_rows(&[&[1.0, 0.2], &[0.0, -0.7]]);
        let (mut u, mut y) = (Samples::new(2), Samples::new(2));
        let (mut yprev, mut uprev) = (Vector::zeros(2), Vector::zeros(2));
        for t in 0..600usize {
            let ut = Vector::from_slice(&[
                ((t * 31) % 11) as f64 / 5.0 - 1.0,
                ((t * 7) % 13) as f64 / 6.0 - 1.0,
            ]);
            let yt = &a1.mul_vec(&yprev).unwrap() + &b1.mul_vec(&uprev).unwrap();
            u.push(ut.as_slice());
            y.push(yt.as_slice());
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
        let (mut u, mut y) = (Samples::new(1), Samples::new(1));
        let (mut y1, mut y2, mut u1, mut u2) = (0.0, 0.0, 0.0, 0.0);
        for t in 0..500usize {
            let ut = ((t * 29) % 17) as f64 / 8.0 - 1.0;
            let yt = 0.4 * y1 + 0.2 * y2 + 0.5 * u1 - 0.2 * u2;
            u.push(&[ut]);
            y.push(&[yt]);
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
