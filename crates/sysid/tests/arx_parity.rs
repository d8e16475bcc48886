//! Bit-exact parity of the sample-buffer identification chain with the
//! chain it replaced, one heap `Vector` per sample (`reference/mod.rs`).
//!
//! Records are now one sample-major `Samples` buffer, the ridge regression
//! is written column by column into a column-major QR factor, and the
//! residuals, covariance, scalers, detrending and validation walk the
//! buffers in place. Every sum keeps its order, so the excitation, the ARX
//! coefficients, the residuals, the residual covariance and noise split,
//! the scalers, the detrended records, the free-run simulation and the
//! validation report must all equal the reference bit for bit — for
//! `na` 1 to 4, `nb` 1 and 2, with and without feed-through.

mod reference;

use mimo_linalg::{qr::ridge_least_squares, Matrix, Vector};
use mimo_sysid::arx::{ArxModel, ArxOrders};
use mimo_sysid::noise::{covariance, estimate_noise};
use mimo_sysid::realize::to_state_space;
use mimo_sysid::scale::{remove_moving_mean, ChannelScaler};
use mimo_sysid::signal::identification_waveform;
use mimo_sysid::validate::compare;
use mimo_sysid::{SampleView, Samples};
use reference::{bits, record_bits, to_vectors};

/// A noisy, slowly drifting 2-in 2-out plant driven by the design flow's
/// own waveform, in physical-looking units.
fn recording(segment: usize, seed: u64) -> (Samples, Samples) {
    let u = identification_waveform(segment, &[0.5, 2.0], &[2.0, 8.0], &[16, 4], seed)
        .samples()
        .clone();
    let mut y = Samples::new(2);
    let (mut s0, mut s1) = (0.0_f64, 0.0_f64);
    for (t, ut) in u.iter().enumerate() {
        let x = t as f64;
        let noise = ((t * 2_654_435_761) % 1000) as f64 / 1000.0 - 0.5;
        s0 = 0.7 * s0 + 0.9 * ut[0] - 0.05 * ut[1] + 0.02 * noise;
        s1 = 0.4 * s1 + 0.3 * ut[0] + 0.2 * ut[1] - 0.03 * noise;
        y.push(&[
            2.0 + s0 + 0.3 * (x * 0.004).sin(),
            1.5 + s1 + 0.01 * x / 100.0,
        ]);
    }
    (u, y)
}

fn matrix_bits(m: &Matrix) -> Vec<u64> {
    bits(m.as_slice())
}

fn same_records(got: SampleView<'_>, want: &[Vector], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    assert_eq!(bits(got.as_flat()), record_bits(want), "{what}: bits");
}

#[test]
fn excitation_matches_the_vector_chain() {
    for seed in [1, 2016, 0xC0FFEE] {
        let lo = [0.5, 2.0, 32.0];
        let hi = [2.0, 8.0, 128.0];
        let levels = [16, 4, 4];
        let got = identification_waveform(300, &lo, &hi, &levels, seed);
        let want = reference::identification_waveform(300, &lo, &hi, &levels, seed);
        same_records(got.samples().view(), &want, "excitation");
    }
}

#[test]
fn scaling_and_detrending_match_the_vector_chain() {
    let (u, y) = recording(200, 7);
    let (uv, yv) = (to_vectors(u.view()), to_vectors(y.view()));

    let scaler = ChannelScaler::from_data(y.view());
    let want = reference::Scaler::from_data(&yv);
    assert_eq!(
        format!("{scaler:?}"),
        format!(
            "{:?}",
            ChannelScaler::new(want.offset.clone(), want.span.clone())
        )
    );

    // Normalize, then detrend two records of unequal length separately.
    let cut = 250;
    let (mut got, mut wantv) = (y.clone(), yv.clone());
    scaler.normalize_all(got.view_mut());
    want.normalize_all(&mut wantv);
    same_records(got.view(), &wantv, "normalized");
    for (a, b) in [(0, cut), (cut, got.len())] {
        remove_moving_mean(got.range_mut(a..b), 201);
        reference::remove_moving_mean(&mut wantv[a..b], 201);
    }
    same_records(got.view(), &wantv, "detrended");
    scaler.denormalize_all(got.view_mut());
    want.denormalize_all(&mut wantv);
    same_records(got.view(), &wantv, "denormalized");

    let ranges = [(0.5, 2.0), (2.0, 8.0)];
    let (mut gu, mut wu) = (u.clone(), uv);
    ChannelScaler::from_ranges(&ranges).normalize_all(gu.view_mut());
    reference::Scaler::from_ranges(&ranges).normalize_all(&mut wu);
    same_records(gu.view(), &wu, "input scaling");
}

/// Writes column `j` of `m` into `col`.
fn columns(m: &Matrix) -> impl FnMut(usize, &mut [f64]) + '_ {
    move |j, col| {
        for (i, x) in col.iter_mut().enumerate() {
            *x = m[(i, j)];
        }
    }
}

#[test]
fn ridge_least_squares_matches_the_row_major_qr() {
    let a = Matrix::from_fn(300, 5, |i, j| {
        ((i * 7 + j * 13) % 17) as f64 / 3.0 - (j as f64).sin()
    });
    let b = Matrix::from_fn(300, 2, |i, j| ((i * 3 + j) as f64 * 0.37).cos());
    for lambda in [0.0, 1e-8, 0.5] {
        let got = ridge_least_squares(300, 5, 2, lambda, columns(&a), columns(&b)).unwrap();
        let want = reference::ridge_least_squares(&a, &b, lambda);
        assert_eq!(matrix_bits(&got), matrix_bits(&want), "lambda {lambda}");
    }
}

#[test]
fn arx_fit_residuals_noise_and_free_run_match_the_vector_chain() {
    let (u, y) = recording(500, 2016);
    let (mut un, mut yn) = (u.clone(), y.clone());
    ChannelScaler::from_ranges(&[(0.5, 2.0), (2.0, 8.0)]).normalize_all(un.view_mut());
    ChannelScaler::from_data(y.view()).normalize_all(yn.view_mut());
    let (uv, yv) = (to_vectors(un.view()), to_vectors(yn.view()));
    for na in 1..=4 {
        for nb in 1..=2 {
            for direct_feedthrough in [false, true] {
                let orders = ArxOrders {
                    na,
                    nb,
                    direct_feedthrough,
                };
                let tag = format!("{orders:?}");
                let got = ArxModel::fit(un.view(), yn.view(), orders).unwrap();
                let want = reference::arx_fit(&uv, &yv, orders, 1e-8);
                for (g, w) in got.a_coeffs().iter().zip(&want.a_coeffs) {
                    assert_eq!(matrix_bits(g), matrix_bits(w), "{tag}: A");
                }
                for (g, w) in got.b_coeffs().iter().zip(&want.b_coeffs) {
                    assert_eq!(matrix_bits(g), matrix_bits(w), "{tag}: B");
                }
                same_records(got.residuals(), &want.residuals, &tag);

                let p = orders.history();
                for t in [p, p + 1, yv.len() / 2, yv.len() - 1] {
                    let g = got.predict_one_step(un.view(), yn.view(), t).unwrap();
                    let w = reference::predict_one_step(&want, &uv, &yv, t);
                    assert_eq!(bits(g.as_slice()), bits(w.as_slice()), "{tag}: t {t}");
                }

                let cov = covariance(got.residuals()).unwrap();
                assert_eq!(
                    matrix_bits(&cov),
                    matrix_bits(&reference::covariance(&want.residuals)),
                    "{tag}: covariance"
                );
                let realized = to_state_space(&got);
                let n = realized.state_dim();
                assert_eq!(realized, reference::to_state_space(&want), "{tag}");
                let noise = estimate_noise(got.residuals(), n, 0.3).unwrap();
                let (w_proc, w_meas, w_innov) = reference::estimate_noise(&want.residuals, n, 0.3);
                assert_eq!(matrix_bits(&noise.process), matrix_bits(&w_proc));
                assert_eq!(matrix_bits(&noise.measurement), matrix_bits(&w_meas));
                assert_eq!(matrix_bits(&noise.innovation), matrix_bits(&w_innov));

                let free = got.simulate(un.view(), yn.range(0..p)).unwrap();
                same_records(
                    free.view(),
                    &reference::arx_simulate(&want, &uv, &yv[..p]),
                    &format!("{tag}: free run"),
                );
            }
        }
    }
}

#[test]
fn validation_report_matches_the_vector_chain() {
    let (_, y) = recording(300, 11);
    let predicted = Samples::from_fn(y.len(), 2, |t, c| {
        y.sample(t)[c] * (1.0 + 0.05 * ((t * 31 + c) % 7) as f64 / 7.0)
    });
    let (yv, pv) = (to_vectors(y.view()), to_vectors(predicted.view()));
    for window in [1, 20, 7, 10_000] {
        for skip in [0, 50] {
            let n = y.len();
            let got = compare(y.range(skip..n), predicted.range(skip..n), window).unwrap();
            let want = reference::compare(&yv[skip..], &pv[skip..], window);
            assert_eq!(bits(&got.max_rel_error_pct), bits(&want.max_rel_error_pct));
            assert_eq!(
                bits(&got.mean_rel_error_pct),
                bits(&want.mean_rel_error_pct)
            );
            assert_eq!(bits(&got.fit_pct), bits(&want.fit_pct));
        }
    }
}
