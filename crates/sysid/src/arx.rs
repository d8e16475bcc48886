//! Multivariable ARX identification by least squares.
//!
//! The paper assumes "the outputs at time t depend on the outputs at the
//! previous k time steps, the inputs at the current and previous l-1 time
//! steps, and a noise term" (§IV-B1). That is exactly the multivariable ARX
//! structure
//!
//! ```text
//! y(t) = A₁ y(t−1) + … + A_na y(t−na)
//!      + B₀ u(t) + B₁ u(t−1) + … + B_{nb−1} u(t−nb+1) + e(t)
//! ```
//!
//! fit with linear least squares over the recorded waveforms (a ridge term
//! keeps the regression solvable under weak excitation). The `B₀ u(t)` term
//! is optional — disable `direct_feedthrough` for a strictly proper model.

use mimo_linalg::{qr::ridge_least_squares, Matrix, Vector};

use crate::{Result, SysidError};

/// Model orders for an ARX fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArxOrders {
    /// Number of past *output* samples entering the regression (`k` in the
    /// paper). Must be at least 1.
    pub na: usize,
    /// Number of *input* samples entering the regression (`l` in the
    /// paper). Must be at least 1.
    pub nb: usize,
    /// Whether `u(t)` itself appears (feed-through `D ≠ 0`). When `false`,
    /// input terms start at `u(t−1)`.
    pub direct_feedthrough: bool,
}

impl ArxOrders {
    /// First input lag used: 0 with feed-through, else 1.
    fn first_input_lag(&self) -> usize {
        usize::from(!self.direct_feedthrough)
    }

    /// Last input lag used.
    fn last_input_lag(&self) -> usize {
        self.first_input_lag() + self.nb - 1
    }

    /// Number of initial samples consumed as history before the first
    /// regression row.
    pub fn history(&self) -> usize {
        self.na.max(self.last_input_lag())
    }
}

/// A fitted multivariable ARX model.
///
/// # Example
///
/// See the crate-level example in [`crate`].
#[derive(Debug, Clone)]
pub struct ArxModel {
    orders: ArxOrders,
    /// Output-lag coefficient matrices `A₁ … A_na`, each `O x O`.
    a_coeffs: Vec<Matrix>,
    /// Input-lag coefficient matrices starting at the first used lag,
    /// each `O x I`.
    b_coeffs: Vec<Matrix>,
    n_outputs: usize,
    n_inputs: usize,
    /// One-step-ahead residuals on the training data.
    residuals: Vec<Vector>,
}

impl ArxModel {
    /// Fits an ARX model to recorded input/output waveforms.
    ///
    /// `u[t]` is the input applied at epoch `t` and `y[t]` the output
    /// observed at epoch `t`; the sequences must have equal length.
    ///
    /// # Errors
    ///
    /// * [`SysidError::InconsistentData`] — mismatched lengths or ragged
    ///   vector dimensions.
    /// * [`SysidError::NotEnoughData`] — fewer samples than regression
    ///   unknowns.
    /// * [`SysidError::PoorExcitation`] — the regression is singular even
    ///   after ridge regularization.
    pub fn fit(u: &[Vector], y: &[Vector], orders: ArxOrders) -> Result<ArxModel> {
        Self::fit_regularized(u, y, orders, 1e-8)
    }

    /// Like [`ArxModel::fit`] with an explicit ridge parameter `lambda`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ArxModel::fit`].
    pub fn fit_regularized(
        u: &[Vector],
        y: &[Vector],
        orders: ArxOrders,
        lambda: f64,
    ) -> Result<ArxModel> {
        if orders.na == 0 || orders.nb == 0 {
            return Err(SysidError::InconsistentData {
                what: "orders na and nb must be at least 1".into(),
            });
        }
        if u.len() != y.len() {
            return Err(SysidError::InconsistentData {
                what: format!("u has {} samples but y has {}", u.len(), y.len()),
            });
        }
        let t_total = u.len();
        let p = orders.history();
        let n_inputs = u.first().map_or(0, Vector::len);
        let n_outputs = y.first().map_or(0, Vector::len);
        if n_inputs == 0 || n_outputs == 0 {
            return Err(SysidError::InconsistentData {
                what: "empty input or output vectors".into(),
            });
        }
        if u.iter().any(|v| v.len() != n_inputs) || y.iter().any(|v| v.len() != n_outputs) {
            return Err(SysidError::InconsistentData {
                what: "ragged input or output dimensions".into(),
            });
        }
        let n_params = orders.na * n_outputs + orders.nb * n_inputs;
        let n_rows = t_total.saturating_sub(p);
        if n_rows < 2 * n_params {
            return Err(SysidError::NotEnoughData {
                have: n_rows,
                need: 2 * n_params,
            });
        }

        // Build the regression Phi * Theta = Y.
        let mut phi = Matrix::zeros(n_rows, n_params);
        let mut targets = Matrix::zeros(n_rows, n_outputs);
        let j0 = orders.first_input_lag();
        for (row, t) in (p..t_total).enumerate() {
            let mut col = 0;
            for i in 1..=orders.na {
                for &yo in &y[t - i].as_slice()[..n_outputs] {
                    phi[(row, col)] = yo;
                    col += 1;
                }
            }
            for j in 0..orders.nb {
                let lag = j0 + j;
                for &ui in &u[t - lag].as_slice()[..n_inputs] {
                    phi[(row, col)] = ui;
                    col += 1;
                }
            }
            for o in 0..n_outputs {
                targets[(row, o)] = y[t][o];
            }
        }

        let theta = ridge_least_squares(&phi, &targets, lambda)?;

        // Slice Theta^T into the coefficient matrices.
        let theta_t = theta.transpose(); // O x n_params
        let mut a_coeffs = Vec::with_capacity(orders.na);
        let mut col = 0;
        for _ in 0..orders.na {
            a_coeffs.push(theta_t.block(0, col, n_outputs, n_outputs));
            col += n_outputs;
        }
        let mut b_coeffs = Vec::with_capacity(orders.nb);
        for _ in 0..orders.nb {
            b_coeffs.push(theta_t.block(0, col, n_outputs, n_inputs));
            col += n_inputs;
        }

        // One-step-ahead residuals.
        let mut residuals = Vec::with_capacity(n_rows);
        let model = ArxModel {
            orders,
            a_coeffs,
            b_coeffs,
            n_outputs,
            n_inputs,
            residuals: Vec::new(),
        };
        let (mut pred, mut term) = (Vector::zeros(n_outputs), Vector::zeros(n_outputs));
        for t in p..t_total {
            model.predict_into(u, y, t, &mut pred, &mut term)?;
            residuals.push(&y[t] - &pred);
        }
        Ok(ArxModel { residuals, ..model })
    }

    /// The model orders.
    pub fn orders(&self) -> ArxOrders {
        self.orders
    }

    /// Output-lag coefficient matrices `A₁ … A_na`.
    pub fn a_coeffs(&self) -> &[Matrix] {
        &self.a_coeffs
    }

    /// Input-lag coefficient matrices (starting at lag 0 or 1 depending on
    /// feed-through).
    pub fn b_coeffs(&self) -> &[Matrix] {
        &self.b_coeffs
    }

    /// Number of plant outputs `O`.
    pub fn num_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Number of plant inputs `I`.
    pub fn num_inputs(&self) -> usize {
        self.n_inputs
    }

    /// One-step-ahead training residuals `y(t) − ŷ(t|t−1)`.
    pub fn residuals(&self) -> &[Vector] {
        &self.residuals
    }

    /// Predicts `y(t)` from the *recorded* history in `u`/`y`.
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::NotEnoughData`] if `t` precedes the required
    /// history window.
    pub fn predict_one_step(&self, u: &[Vector], y: &[Vector], t: usize) -> Result<Vector> {
        let mut pred = Vector::zeros(self.n_outputs);
        let mut term = Vector::zeros(self.n_outputs);
        self.predict_into(u, y, t, &mut pred, &mut term)?;
        Ok(pred)
    }

    /// [`ArxModel::predict_one_step`] into `pred`, with `term` as scratch
    /// (both of length `O`): the same products, summed in the same order.
    fn predict_into(
        &self,
        u: &[Vector],
        y: &[Vector],
        t: usize,
        pred: &mut Vector,
        term: &mut Vector,
    ) -> Result<()> {
        let p = self.orders.history();
        if t < p || t >= u.len() {
            return Err(SysidError::NotEnoughData { have: t, need: p });
        }
        pred.fill(0.0);
        for (i, a) in self.a_coeffs.iter().enumerate() {
            a.mul_vec_into(&y[t - 1 - i], term)?;
            *pred += &*term;
        }
        let j0 = self.orders.first_input_lag();
        for (j, b) in self.b_coeffs.iter().enumerate() {
            b.mul_vec_into(&u[t - j0 - j], term)?;
            *pred += &*term;
        }
        Ok(())
    }

    /// Free-run simulation: predicts the whole output sequence from the
    /// inputs alone, feeding predictions back as output history. The first
    /// `history()` outputs are taken from `y_init`.
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::NotEnoughData`] if `y_init` is shorter than the
    /// required history, or [`SysidError::InconsistentData`] on dimension
    /// mismatches.
    pub fn simulate(&self, u: &[Vector], y_init: &[Vector]) -> Result<Vec<Vector>> {
        let p = self.orders.history();
        if y_init.len() < p {
            return Err(SysidError::NotEnoughData {
                have: y_init.len(),
                need: p,
            });
        }
        if y_init.iter().any(|v| v.len() != self.n_outputs) {
            return Err(SysidError::InconsistentData {
                what: "y_init dimension mismatch".into(),
            });
        }
        let mut y_sim: Vec<Vector> = y_init[..p].to_vec();
        for t in p..u.len() {
            let pred = self.predict_one_step(u, &y_sim, t)?;
            y_sim.push(pred);
        }
        Ok(y_sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds data from a known SISO ARX system
    /// y(t) = 0.7 y(t-1) - 0.1 y(t-2) + 0.5 u(t-1).
    fn known_siso(steps: usize) -> (Vec<Vector>, Vec<Vector>) {
        let mut u = Vec::new();
        let mut y = Vec::new();
        let (mut y1, mut y2, mut u1) = (0.0, 0.0, 0.0);
        for t in 0..steps {
            let ut = ((t * 7919) % 13) as f64 / 6.0 - 1.0;
            let yt = 0.7 * y1 - 0.1 * y2 + 0.5 * u1;
            u.push(Vector::from_slice(&[ut]));
            y.push(Vector::from_slice(&[yt]));
            y2 = y1;
            y1 = yt;
            u1 = ut;
        }
        (u, y)
    }

    #[test]
    fn recovers_siso_coefficients() {
        // Regenerate data in a self-consistent indexing.
        let steps = 400;
        let mut u: Vec<Vector> = Vec::new();
        let mut y: Vec<Vector> = Vec::new();
        let mut y1 = 0.0;
        let mut y2 = 0.0;
        let mut u1 = 0.0;
        for t in 0..steps {
            let ut = ((t * 7919) % 13) as f64 / 6.0 - 1.0;
            let yt = 0.7 * y1 - 0.1 * y2 + 0.5 * u1;
            u.push(Vector::from_slice(&[ut]));
            y.push(Vector::from_slice(&[yt]));
            y2 = y1;
            y1 = yt;
            u1 = ut;
        }
        let orders = ArxOrders {
            na: 2,
            nb: 1,
            direct_feedthrough: false,
        };
        let m = ArxModel::fit(&u, &y, orders).unwrap();
        assert!((m.a_coeffs()[0][(0, 0)] - 0.7).abs() < 1e-6);
        assert!((m.a_coeffs()[1][(0, 0)] + 0.1).abs() < 1e-6);
        assert!((m.b_coeffs()[0][(0, 0)] - 0.5).abs() < 1e-6);
        // Residuals on noiseless data are ~0.
        let max_resid = m
            .residuals()
            .iter()
            .map(Vector::norm_inf)
            .fold(0.0, f64::max);
        assert!(max_resid < 1e-8);
    }

    #[test]
    fn recovers_mimo_system_with_feedthrough() {
        // 2x2 system with direct feed-through:
        // y(t) = A1 y(t-1) + B0 u(t)
        let a1 = Matrix::from_rows(&[&[0.6, 0.1], &[-0.2, 0.4]]);
        let b0 = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, -1.0]]);
        let steps = 500;
        let mut u = Vec::new();
        let mut y = Vec::new();
        let mut prev = Vector::zeros(2);
        for t in 0..steps {
            let ut = Vector::from_slice(&[
                ((t * 31) % 7) as f64 / 3.0 - 1.0,
                ((t * 17) % 5) as f64 / 2.0 - 1.0,
            ]);
            let yt = &a1.mul_vec(&prev).unwrap() + &b0.mul_vec(&ut).unwrap();
            u.push(ut);
            y.push(yt.clone());
            prev = yt;
        }
        let orders = ArxOrders {
            na: 1,
            nb: 1,
            direct_feedthrough: true,
        };
        let m = ArxModel::fit(&u, &y, orders).unwrap();
        assert!((&m.a_coeffs()[0] - &a1).max_abs() < 1e-6);
        assert!((&m.b_coeffs()[0] - &b0).max_abs() < 1e-6);
    }

    #[test]
    fn simulate_tracks_true_system() {
        let (u, y) = known_siso(300);
        let n = u.len().min(y.len());
        let u = &u[..n];
        let y = &y[..n];
        let orders = ArxOrders {
            na: 2,
            nb: 2,
            direct_feedthrough: false,
        };
        let m = ArxModel::fit(u, y, orders).unwrap();
        let y_sim = m.simulate(u, &y[..orders.history()]).unwrap();
        let err: f64 = y_sim
            .iter()
            .zip(y)
            .map(|(a, b)| (a - b).norm_inf())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "free-run error {err}");
    }

    #[test]
    fn residuals_match_the_allocating_prediction_bitwise() {
        // A literal copy of the allocating one-step prediction the fit's
        // residual loop used: one product per lag, summed in lag order.
        fn allocating(m: &ArxModel, u: &[Vector], y: &[Vector], t: usize) -> Vector {
            let mut pred = Vector::zeros(m.num_outputs());
            for (i, a) in m.a_coeffs().iter().enumerate() {
                pred += &a.mul_vec(&y[t - 1 - i]).unwrap();
            }
            let j0 = m.orders().first_input_lag();
            for (j, b) in m.b_coeffs().iter().enumerate() {
                pred += &b.mul_vec(&u[t - j0 - j]).unwrap();
            }
            pred
        }
        let u: Vec<Vector> = (0..300)
            .map(|t| {
                Vector::from_slice(&[((t * 31) % 7) as f64 / 3.0 - 1.0, (t as f64 * 0.3).sin()])
            })
            .collect();
        let y: Vec<Vector> = (0..300)
            .map(|t| Vector::from_slice(&[(t as f64 * 0.11).cos(), ((t * 13) % 9) as f64 * 0.2]))
            .collect();
        let orders = ArxOrders {
            na: 2,
            nb: 2,
            direct_feedthrough: false,
        };
        let m = ArxModel::fit(&u, &y, orders).unwrap();
        let p = orders.history();
        let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (k, r) in m.residuals().iter().enumerate() {
            let want = allocating(&m, &u, &y, p + k);
            assert_eq!(bits(r), bits(&(&y[p + k] - &want)));
            assert_eq!(
                bits(&m.predict_one_step(&u, &y, p + k).unwrap()),
                bits(&want)
            );
        }
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let u = vec![Vector::zeros(1); 10];
        let y = vec![Vector::zeros(1); 9];
        let orders = ArxOrders {
            na: 1,
            nb: 1,
            direct_feedthrough: false,
        };
        assert!(matches!(
            ArxModel::fit(&u, &y, orders),
            Err(SysidError::InconsistentData { .. })
        ));
    }

    #[test]
    fn rejects_too_few_samples() {
        let u = vec![Vector::zeros(2); 5];
        let y = vec![Vector::zeros(2); 5];
        let orders = ArxOrders {
            na: 2,
            nb: 2,
            direct_feedthrough: false,
        };
        assert!(matches!(
            ArxModel::fit(&u, &y, orders),
            Err(SysidError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn rejects_zero_orders() {
        let u = vec![Vector::zeros(1); 50];
        let y = vec![Vector::zeros(1); 50];
        let orders = ArxOrders {
            na: 0,
            nb: 1,
            direct_feedthrough: false,
        };
        assert!(ArxModel::fit(&u, &y, orders).is_err());
    }

    #[test]
    fn constant_input_is_poor_excitation_but_ridge_survives() {
        // With ridge regularization the fit is still produced (biased to 0).
        let u = vec![Vector::from_slice(&[1.0]); 100];
        let y = vec![Vector::from_slice(&[2.0]); 100];
        let orders = ArxOrders {
            na: 1,
            nb: 1,
            direct_feedthrough: false,
        };
        let m = ArxModel::fit(&u, &y, orders).unwrap();
        // The DC relation y = a*y + b*u with a+ (b/2)=... many solutions; just
        // require the one-step prediction to be close on the training data.
        let pred = m.predict_one_step(&u, &y, 50).unwrap();
        assert!((pred[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn history_accounts_for_feedthrough() {
        let with_d = ArxOrders {
            na: 1,
            nb: 2,
            direct_feedthrough: true,
        };
        assert_eq!(with_d.history(), 1);
        let without_d = ArxOrders {
            na: 1,
            nb: 2,
            direct_feedthrough: false,
        };
        assert_eq!(without_d.history(), 2);
    }
}
