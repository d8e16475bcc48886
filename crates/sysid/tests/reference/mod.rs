//! The identification chain as it was when every sample was its own heap
//! `Vector`: excitation, scalers, detrending, a row-major Householder QR
//! over a `Matrix::vstack`-augmented ridge regression, one-step residuals,
//! residual covariance, free-run simulation and validation. A literal
//! copy of that chain, kept only as the bit-for-bit reference for the
//! sample-buffer chain (`arx_parity.rs` here, `design_parity.rs` in
//! `mimo-core`). Its matrix-vector products are local too, so no library
//! kernel is shared with the code under test.

// Each test binary uses part of the chain.
#![allow(dead_code)]

use mimo_linalg::{Matrix, Vector};
use mimo_sysid::arx::ArxOrders;
use mimo_sysid::realize::Realization;
use mimo_sysid::validate::ValidationReport;
use mimo_sysid::SampleView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A record as one `Vector` per sample.
pub fn to_vectors(s: SampleView<'_>) -> Vec<Vector> {
    s.iter().map(Vector::from_slice).collect()
}

/// `m * v`: each row's products accumulated left to right from `0.0`.
pub fn mul_vec(m: &Matrix, v: &Vector) -> Vector {
    assert_eq!(v.len(), m.cols());
    let mut out = Vector::zeros(m.rows());
    for i in 0..m.rows() {
        let row = m.row_slice(i);
        let mut acc = 0.0;
        for (a, b) in row.iter().zip(v.as_slice()) {
            acc += a * b;
        }
        out[i] = acc;
    }
    out
}

// ---------------------------------------------------------------- signal

fn prbs(steps: usize, lo: &[f64], hi: &[f64], hold: usize, seed: u64) -> Vec<Vector> {
    let channels = lo.len();
    let mut lfsr: Vec<u16> = (0..channels)
        .map(|c| {
            let s = (seed ^ (0x9E37 + 0x1DB3 * c as u64)) as u16;
            if s == 0 {
                0xACE1
            } else {
                s
            }
        })
        .collect();
    let mut bits: Vec<bool> = lfsr.iter().map(|&s| s & 1 == 1).collect();
    let mut samples = Vec::with_capacity(steps);
    for t in 0..steps {
        if t % hold == 0 && t > 0 {
            for c in 0..channels {
                let l = &mut lfsr[c];
                let lsb = *l & 1 == 1;
                *l >>= 1;
                if lsb {
                    *l ^= 0xB400;
                }
                bits[c] = lsb;
            }
        }
        samples.push(Vector::from_fn(channels, |c| {
            if bits[c] {
                hi[c]
            } else {
                lo[c]
            }
        }));
    }
    samples
}

fn staircase(steps: usize, lo: &[f64], hi: &[f64], levels: &[usize], dwell: usize) -> Vec<Vector> {
    let channels = lo.len();
    let mut samples = Vec::with_capacity(steps);
    for t in 0..steps {
        samples.push(Vector::from_fn(channels, |c| {
            let n = levels[c];
            let period = 2 * (n - 1);
            let phase_offset = c * (dwell + 1);
            let k = ((t + phase_offset) / dwell) % period;
            let idx = if k < n { k } else { period - k };
            lo[c] + (hi[c] - lo[c]) * idx as f64 / (n - 1) as f64
        }));
    }
    samples
}

fn multilevel(
    steps: usize,
    lo: &[f64],
    hi: &[f64],
    levels: &[usize],
    hold: usize,
    seed: u64,
) -> Vec<Vector> {
    let channels = lo.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = Vector::from_fn(channels, |c| lo[c]);
    let mut samples = Vec::with_capacity(steps);
    for t in 0..steps {
        if t % hold == 0 {
            for c in 0..channels {
                let idx = rng.gen_range(0..levels[c]);
                current[c] = lo[c] + (hi[c] - lo[c]) * idx as f64 / (levels[c] - 1) as f64;
            }
        }
        samples.push(current.clone());
    }
    samples
}

/// PRBS, then staircase, then multilevel segments.
pub fn identification_waveform(
    steps_per_segment: usize,
    lo: &[f64],
    hi: &[f64],
    levels: &[usize],
    seed: u64,
) -> Vec<Vector> {
    let mut samples = prbs(steps_per_segment, lo, hi, 12, seed);
    samples.extend(staircase(steps_per_segment, lo, hi, levels, 30));
    samples.extend(multilevel(
        steps_per_segment,
        lo,
        hi,
        levels,
        20,
        seed ^ 0xC0FFEE,
    ));
    samples
}

// ----------------------------------------------------------------- scale

/// A per-channel affine map `(raw − offset) / span`.
#[derive(Debug, Clone)]
pub struct Scaler {
    pub offset: Vec<f64>,
    pub span: Vec<f64>,
}

impl Scaler {
    pub fn from_ranges(ranges: &[(f64, f64)]) -> Self {
        Scaler {
            offset: ranges.iter().map(|&(lo, hi)| 0.5 * (lo + hi)).collect(),
            span: ranges.iter().map(|&(lo, hi)| 0.5 * (hi - lo)).collect(),
        }
    }

    pub fn from_data(data: &[Vector]) -> Self {
        let channels = data[0].len();
        let n = data.len() as f64;
        let mut offset = vec![0.0; channels];
        for v in data {
            for c in 0..channels {
                offset[c] += v[c];
            }
        }
        for o in &mut offset {
            *o /= n;
        }
        let mut span = vec![0.0_f64; channels];
        for v in data {
            for c in 0..channels {
                span[c] = span[c].max((v[c] - offset[c]).abs());
            }
        }
        for s in &mut span {
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        Scaler { offset, span }
    }

    pub fn normalize_all(&self, seq: &mut [Vector]) {
        for v in seq {
            for c in 0..v.len() {
                v[c] = (v[c] - self.offset[c]) / self.span[c];
            }
        }
    }

    pub fn denormalize_all(&self, seq: &mut [Vector]) {
        for v in seq {
            for c in 0..v.len() {
                v[c] = v[c] * self.span[c] + self.offset[c];
            }
        }
    }
}

pub fn remove_moving_mean(seq: &mut [Vector], window: usize) {
    if seq.is_empty() {
        return;
    }
    let dim = seq[0].len();
    let w = window.max(1) | 1;
    let half = w / 2;
    let n = seq.len();
    let mut prefix = vec![vec![0.0_f64; n + 1]; dim];
    for (t, v) in seq.iter().enumerate() {
        for c in 0..dim {
            prefix[c][t + 1] = prefix[c][t] + v[c];
        }
    }
    for (t, v) in seq.iter_mut().enumerate() {
        let lo = t.saturating_sub(half);
        let hi = (t + half + 1).min(n);
        for c in 0..dim {
            let mean = (prefix[c][hi] - prefix[c][lo]) / (hi - lo) as f64;
            v[c] -= mean;
        }
    }
}

// -------------------------------------------------------------------- qr

struct Qr {
    qr: Matrix,
    tau: Vec<f64>,
}

fn qr_new(a: &Matrix) -> Qr {
    let (m, n) = a.shape();
    assert!(m >= n && n > 0);
    let mut qr = a.clone();
    let mut tau = vec![0.0; n];
    for k in 0..n {
        let mut norm2 = 0.0;
        for i in k..m {
            norm2 += qr[(i, k)] * qr[(i, k)];
        }
        let norm = norm2.sqrt();
        if norm == 0.0 {
            tau[k] = 0.0;
            continue;
        }
        let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
        let v0 = qr[(k, k)] - alpha;
        tau[k] = -v0 / alpha;
        for i in (k + 1)..m {
            qr[(i, k)] /= v0;
        }
        qr[(k, k)] = alpha;
        for j in (k + 1)..n {
            let mut s = qr[(k, j)];
            for i in (k + 1)..m {
                s += qr[(i, k)] * qr[(i, j)];
            }
            s *= tau[k];
            qr[(k, j)] -= s;
            for i in (k + 1)..m {
                let vik = qr[(i, k)];
                qr[(i, j)] -= s * vik;
            }
        }
    }
    Qr { qr, tau }
}

fn qr_solve(f: &Qr, b: &Matrix) -> Matrix {
    let (m, n) = f.qr.shape();
    let mut qtb = b.clone();
    let p = b.cols();
    for k in 0..n {
        if f.tau[k] == 0.0 {
            continue;
        }
        for j in 0..p {
            let mut s = qtb[(k, j)];
            for i in (k + 1)..m {
                s += f.qr[(i, k)] * qtb[(i, j)];
            }
            s *= f.tau[k];
            qtb[(k, j)] -= s;
            for i in (k + 1)..m {
                let vik = f.qr[(i, k)];
                qtb[(i, j)] -= s * vik;
            }
        }
    }
    let mut x = Matrix::zeros(n, p);
    let scale = f.qr.max_abs().max(f64::MIN_POSITIVE);
    for i in (0..n).rev() {
        let rii = f.qr[(i, i)];
        assert!(rii.abs() > 1e-13 * scale, "singular regression");
        for j in 0..p {
            let mut s = qtb[(i, j)];
            for k in (i + 1)..n {
                s -= f.qr[(i, k)] * x[(k, j)];
            }
            x[(i, j)] = s / rii;
        }
    }
    x
}

pub fn ridge_least_squares(a: &Matrix, b: &Matrix, lambda: f64) -> Matrix {
    if lambda <= 0.0 {
        return qr_solve(&qr_new(a), b);
    }
    let n = a.cols();
    let reg = Matrix::identity(n).scale(lambda.sqrt());
    let a_aug = Matrix::vstack(a, &reg).unwrap();
    let b_aug = Matrix::vstack(b, &Matrix::zeros(n, b.cols())).unwrap();
    qr_solve(&qr_new(&a_aug), &b_aug)
}

// ------------------------------------------------------------------- arx

/// A fitted ARX model with its one-step training residuals.
pub struct Arx {
    pub orders: ArxOrders,
    pub a_coeffs: Vec<Matrix>,
    pub b_coeffs: Vec<Matrix>,
    pub residuals: Vec<Vector>,
    pub n_outputs: usize,
    pub n_inputs: usize,
}

fn first_input_lag(orders: &ArxOrders) -> usize {
    usize::from(!orders.direct_feedthrough)
}

pub fn arx_fit(u: &[Vector], y: &[Vector], orders: ArxOrders, lambda: f64) -> Arx {
    let t_total = u.len();
    let p = orders.history();
    let n_inputs = u[0].len();
    let n_outputs = y[0].len();
    let n_params = orders.na * n_outputs + orders.nb * n_inputs;
    let n_rows = t_total - p;
    let mut phi = Matrix::zeros(n_rows, n_params);
    let mut targets = Matrix::zeros(n_rows, n_outputs);
    let j0 = first_input_lag(&orders);
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
    let theta = ridge_least_squares(&phi, &targets, lambda);
    let theta_t = theta.transpose();
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
    let mut model = Arx {
        orders,
        a_coeffs,
        b_coeffs,
        residuals: Vec::new(),
        n_outputs,
        n_inputs,
    };
    model.residuals = (p..t_total)
        .map(|t| &y[t] - &predict_one_step(&model, u, y, t))
        .collect();
    model
}

pub fn predict_one_step(m: &Arx, u: &[Vector], y: &[Vector], t: usize) -> Vector {
    let mut pred = Vector::zeros(m.n_outputs);
    for (i, a) in m.a_coeffs.iter().enumerate() {
        pred += &mul_vec(a, &y[t - 1 - i]);
    }
    let j0 = first_input_lag(&m.orders);
    for (j, b) in m.b_coeffs.iter().enumerate() {
        pred += &mul_vec(b, &u[t - j0 - j]);
    }
    pred
}

pub fn arx_simulate(m: &Arx, u: &[Vector], y_init: &[Vector]) -> Vec<Vector> {
    let p = m.orders.history();
    let mut y_sim: Vec<Vector> = y_init[..p].to_vec();
    for t in p..u.len() {
        let pred = predict_one_step(m, u, &y_sim, t);
        y_sim.push(pred);
    }
    y_sim
}

pub fn to_state_space(model: &Arx) -> Realization {
    let o = model.n_outputs;
    let i = model.n_inputs;
    let orders = model.orders;
    let na = orders.na;
    let j0 = usize::from(!orders.direct_feedthrough);
    let last_lag = j0 + orders.nb - 1;
    let l = last_lag;
    let n = na * o + l * i;
    let mut c = Matrix::zeros(o, n);
    let mut d = Matrix::zeros(o, i);
    for (k, a_k) in model.a_coeffs.iter().enumerate() {
        c.set_block(0, k * o, a_k);
    }
    for (j, b_j) in model.b_coeffs.iter().enumerate() {
        let lag = j0 + j;
        if lag == 0 {
            d = b_j.clone();
        } else {
            c.set_block(0, na * o + (lag - 1) * i, b_j);
        }
    }
    let mut a = Matrix::zeros(n, n);
    let mut b = Matrix::zeros(n, i);
    a.set_block(0, 0, &c);
    b.set_block(0, 0, &d);
    for k in 1..na {
        a.set_block(k * o, (k - 1) * o, &Matrix::identity(o));
    }
    if l > 0 {
        b.set_block(na * o, 0, &Matrix::identity(i));
        for k in 1..l {
            a.set_block(na * o + k * i, na * o + (k - 1) * i, &Matrix::identity(i));
        }
    }
    Realization { a, b, c, d }
}

// ----------------------------------------------------------------- noise

pub fn covariance(samples: &[Vector]) -> Matrix {
    let dim = samples[0].len();
    let n = samples.len() as f64;
    let mut mean = Vector::zeros(dim);
    for s in samples {
        mean += s;
    }
    mean = mean.scale(1.0 / n);
    let mut cov = Matrix::zeros(dim, dim);
    for s in samples {
        let d = s - &mean;
        for i in 0..dim {
            for j in 0..dim {
                cov[(i, j)] += d[i] * d[j];
            }
        }
    }
    cov.scale(1.0 / (n - 1.0))
}

/// `(process, measurement, innovation)` covariances.
pub fn estimate_noise(
    residuals: &[Vector],
    state_dim: usize,
    process_fraction: f64,
) -> (Matrix, Matrix, Matrix) {
    let innovation = covariance(residuals);
    let o = innovation.rows();
    let floor = 1e-9;
    let sigma_scaled = innovation.scale(process_fraction);
    let mut process = Matrix::zeros(state_dim, state_dim);
    process.set_block(0, 0, &sigma_scaled);
    for i in 0..state_dim {
        process[(i, i)] += floor;
    }
    let mut measurement = innovation.scale(1.0 - process_fraction);
    for i in 0..o {
        measurement[(i, i)] += floor;
    }
    (process, measurement, innovation)
}

// ---------------------------------------------------- simulate, validate

/// Free-run of `(A, B, C, D)` from `x0`: `x ← A x + B u`, `y = C x + D u`.
pub fn simulate(
    (a, b, c, d): (&Matrix, &Matrix, &Matrix, &Matrix),
    x0: &Vector,
    inputs: &[Vector],
) -> Vec<Vector> {
    let mut x = x0.clone();
    inputs
        .iter()
        .map(|u| {
            let xn = &mul_vec(a, &x) + &mul_vec(b, u);
            let y = &mul_vec(c, &x) + &mul_vec(d, u);
            x = xn;
            y
        })
        .collect()
}

pub fn compare(measured: &[Vector], predicted: &[Vector], window: usize) -> ValidationReport {
    let o = measured[0].len();
    let w = window.max(1);
    let n = measured.len();
    let mut max_rel = vec![0.0_f64; o];
    let mut sum_rel = vec![0.0_f64; o];
    let mut n_windows = 0usize;
    let mut norm = vec![0.0_f64; o];
    for m in measured {
        for c in 0..o {
            norm[c] += m[c].abs();
        }
    }
    for v in &mut norm {
        *v = (*v / n as f64).max(1e-9);
    }
    let mut start = 0;
    while start < n {
        let end = (start + w).min(n);
        for c in 0..o {
            let mut err = 0.0;
            for t in start..end {
                err += measured[t][c] - predicted[t][c];
            }
            let rel = (err / (end - start) as f64).abs() / norm[c] * 100.0;
            max_rel[c] = max_rel[c].max(rel);
            sum_rel[c] += rel;
        }
        n_windows += 1;
        start = end;
    }
    let mean_rel: Vec<f64> = sum_rel.iter().map(|s| s / n_windows as f64).collect();
    let mut fit = vec![0.0_f64; o];
    for c in 0..o {
        let mean_y: f64 = measured.iter().map(|v| v[c]).sum::<f64>() / n as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for t in 0..n {
            num += (measured[t][c] - predicted[t][c]).powi(2);
            den += (measured[t][c] - mean_y).powi(2);
        }
        fit[c] = if den > 0.0 {
            100.0 * (1.0 - (num / den).sqrt())
        } else if num == 0.0 {
            100.0
        } else {
            0.0
        };
    }
    ValidationReport {
        max_rel_error_pct: max_rel,
        mean_rel_error_pct: mean_rel,
        fit_pct: fit,
    }
}

// ------------------------------------------------------------------ bits

/// The bits of every entry, for exact comparison (`-0.0` and `0.0`
/// differ, and so do NaN payloads).
pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// The bits of a record, sample by sample.
pub fn record_bits(v: &[Vector]) -> Vec<u64> {
    v.iter().flat_map(|x| bits(x.as_slice())).collect()
}
