//! State-space realization of ARX models.
//!
//! The LQG machinery wants the paper's Equations (1)–(2):
//!
//! ```text
//! x(t+1) = A x(t) + B u(t)
//! y(t)   = C x(t) + D u(t)
//! ```
//!
//! An ARX model realizes exactly into this form by taking the state to be
//! the stacked regression history
//! `x(t) = [y(t−1); …; y(t−na); u(t−1); …; u(t−L)]`,
//! where `L` is the deepest input lag used. The realization is not minimal,
//! but it is exact, numerically trivial to form, and its dimension
//! `na·O + L·I` is the "number of dimensions of the system state" that the
//! paper sweeps in Figure 7.

use mimo_linalg::Matrix;

use crate::arx::ArxModel;

/// A discrete-time state-space realization `(A, B, C, D)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Realization {
    /// State evolution matrix (`N x N`).
    pub a: Matrix,
    /// Input-to-state matrix (`N x I`).
    pub b: Matrix,
    /// State-to-output matrix (`O x N`).
    pub c: Matrix,
    /// Feed-through matrix (`O x I`).
    pub d: Matrix,
}

impl Realization {
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
}

/// Realizes an ARX model as a state-space system.
///
/// # Example
///
/// ```
/// use mimo_sysid::arx::{ArxModel, ArxOrders};
/// use mimo_sysid::realize::to_state_space;
/// use mimo_sysid::Samples;
///
/// # fn main() -> Result<(), mimo_sysid::SysidError> {
/// // y(t) = 0.5 y(t-1) + u(t-1)
/// let mut u = Samples::new(1);
/// let mut y = Samples::new(1);
/// let (mut y1, mut u1) = (0.0, 0.0);
/// for t in 0..200usize {
///     let ut = ((t * 13) % 7) as f64 / 3.0 - 1.0;
///     let yt = 0.5 * y1 + u1;
///     u.push(&[ut]);
///     y.push(&[yt]);
///     y1 = yt;
///     u1 = ut;
/// }
/// let orders = ArxOrders { na: 1, nb: 1, direct_feedthrough: false };
/// let model = ArxModel::fit(u.view(), y.view(), orders)?;
/// let ss = to_state_space(&model);
/// assert_eq!(ss.state_dim(), 2); // one output lag + one input lag
/// # Ok(())
/// # }
/// ```
pub fn to_state_space(model: &ArxModel) -> Realization {
    let o = model.num_outputs();
    let i = model.num_inputs();
    let orders = model.orders();
    let na = orders.na;
    let j0 = usize::from(!orders.direct_feedthrough);
    let last_lag = j0 + orders.nb - 1; // deepest input lag referenced
    let l = last_lag; // number of past inputs stored in the state
    let n = na * o + l * i;

    // Output map: y(t) = C x(t) + D u(t).
    let mut c = Matrix::zeros(o, n);
    let mut d = Matrix::zeros(o, i);
    for (k, a_k) in model.a_coeffs().iter().enumerate() {
        c.set_block(0, k * o, a_k);
    }
    for (j, b_j) in model.b_coeffs().iter().enumerate() {
        let lag = j0 + j;
        if lag == 0 {
            d = b_j.clone();
        } else {
            c.set_block(0, na * o + (lag - 1) * i, b_j);
        }
    }

    // State update.
    let mut a = Matrix::zeros(n, n);
    let mut b = Matrix::zeros(n, i);
    // Rows 0..o: y(t) = C x + D u.
    a.set_block(0, 0, &c);
    b.set_block(0, 0, &d);
    // Shift output history: y(t−k) ← y(t−k+1).
    for k in 1..na {
        a.set_block(k * o, (k - 1) * o, &Matrix::identity(o));
    }
    if l > 0 {
        // u(t) enters the first input-history slot.
        b.set_block(na * o, 0, &Matrix::identity(i));
        // Shift input history.
        for k in 1..l {
            a.set_block(na * o + k * i, na * o + (k - 1) * i, &Matrix::identity(i));
        }
    }

    Realization { a, b, c, d }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arx::ArxOrders;
    use crate::Samples;
    use mimo_linalg::Vector;

    /// Generate data from a known 2-in 2-out system and fit it.
    fn fitted_mimo() -> ArxModel {
        let a1 = Matrix::from_rows(&[&[0.5, 0.1], &[-0.1, 0.3]]);
        let b1 = Matrix::from_rows(&[&[1.0, 0.2], &[0.0, -0.7]]);
        let steps = 600;
        let mut u = Samples::new(2);
        let mut y = Samples::new(2);
        let mut yprev = Vector::zeros(2);
        let mut uprev = Vector::zeros(2);
        for t in 0..steps {
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
        ArxModel::fit(u.view(), y.view(), orders).unwrap()
    }

    #[test]
    fn realization_dimension() {
        let m = fitted_mimo();
        let ss = to_state_space(&m);
        // na=1, O=2 → 2 states from outputs; L=1, I=2 → 2 from inputs.
        assert_eq!(ss.state_dim(), 4);
        assert_eq!(ss.num_inputs(), 2);
        assert_eq!(ss.num_outputs(), 2);
    }

    #[test]
    fn feedthrough_lands_in_d() {
        // y(t) = 0.4 y(t-1) + 2 u(t)
        let mut u = Samples::new(1);
        let mut y = Samples::new(1);
        let mut y1 = 0.0;
        for t in 0..300usize {
            let ut = ((t * 13) % 9) as f64 / 4.0 - 1.0;
            let yt = 0.4 * y1 + 2.0 * ut;
            u.push(&[ut]);
            y.push(&[yt]);
            y1 = yt;
        }
        let orders = ArxOrders {
            na: 1,
            nb: 1,
            direct_feedthrough: true,
        };
        let m = ArxModel::fit(u.view(), y.view(), orders).unwrap();
        let ss = to_state_space(&m);
        assert_eq!(ss.state_dim(), 1); // only y(t-1); no input history
        assert!((ss.d[(0, 0)] - 2.0).abs() < 1e-6);
        assert!((ss.c[(0, 0)] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn deeper_orders_give_larger_states() {
        let mut u = Samples::new(1);
        let mut y = Samples::new(1);
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
        let m = ArxModel::fit(u.view(), y.view(), orders).unwrap();
        let ss = to_state_space(&m);
        // 2 output lags + 2 input lags, SISO → N = 4.
        assert_eq!(ss.state_dim(), 4);
    }
}
