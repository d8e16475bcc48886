//! Statistical checks of the plant's normal sampler.
//!
//! `NormalSampler` is Box–Muller that hands out both outputs of each
//! transform, so besides the marginal distribution the two outputs of a
//! pair must be independent. Fixed seeds and 10⁶ draws per test, so every
//! bound below is a fixed outcome, not a flaky one; each bound sits
//! several standard errors outside what a correct sampler gives.

use mimo_sim::noise::NormalSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DRAWS: usize = 1_000_000;

fn draws(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut normal = NormalSampler::new();
    (0..DRAWS).map(|_| normal.sample(&mut rng)).collect()
}

/// Standard-normal CDF via the complementary error function
/// (Numerical Recipes' Chebyshev fit, |error| < 1.2e-7).
fn phi(x: f64) -> f64 {
    let z = x.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let erfc = t * poly.exp();
    if x >= 0.0 {
        1.0 - 0.5 * erfc
    } else {
        0.5 * erfc
    }
}

#[test]
fn moments_match_the_standard_normal() {
    let z = draws(1);
    assert!(z.iter().all(|v| v.is_finite()));
    let n = z.len() as f64;
    let mean = z.iter().sum::<f64>() / n;
    let central = |k: i32| z.iter().map(|v| (v - mean).powi(k)).sum::<f64>() / n;
    let var = central(2);
    let skew = central(3) / var.powf(1.5);
    let excess_kurtosis = central(4) / (var * var) - 3.0;
    // Standard errors at 10⁶ draws: mean 0.001, variance 0.0014,
    // skewness 0.0024, excess kurtosis 0.0049.
    assert!(mean.abs() < 0.005, "mean {mean}");
    assert!((var - 1.0).abs() < 0.007, "variance {var}");
    assert!(skew.abs() < 0.012, "skewness {skew}");
    assert!(
        excess_kurtosis.abs() < 0.025,
        "excess kurtosis {excess_kurtosis}"
    );
}

#[test]
fn kolmogorov_smirnov_distance_is_small() {
    let mut z = draws(2);
    z.sort_by(f64::total_cmp);
    let n = z.len() as f64;
    let d = z
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = phi(x);
            (f - i as f64 / n).abs().max(((i + 1) as f64 / n - f).abs())
        })
        .fold(0.0, f64::max);
    // The 0.1 % critical value is 1.95 / √n = 0.00195.
    assert!(d < 0.002, "KS distance {d}");
}

#[test]
fn tail_mass_matches_phi() {
    let z = draws(3);
    let n = z.len() as f64;
    // Relative standard errors of the two-sided mass: 0.7 % beyond 2,
    // 2.7 % beyond 3, 10 % beyond 3.5.
    for (cut, tol) in [(2.0, 0.03), (3.0, 0.1), (3.5, 0.4)] {
        let observed = z.iter().filter(|v| v.abs() > cut).count() as f64 / n;
        let expected = 2.0 * (1.0 - phi(cut));
        assert!(
            (observed - expected).abs() < tol * expected,
            "two-sided mass beyond {cut}: {observed} vs {expected}"
        );
    }
}

/// The two outputs of one transform are independent normals: their
/// correlation is zero, and the pair falls evenly into the 8 × 8 cells
/// formed by the normal's octiles (a χ² test with 63 dof). Reusing one
/// output for both, or a half-circle angle, fails it.
#[test]
fn the_two_outputs_of_a_pair_are_independent() {
    let z = draws(4);
    let pairs: Vec<(f64, f64)> = z.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    let n = pairs.len() as f64;
    let corr = pairs.iter().map(|(a, b)| a * b).sum::<f64>() / n;
    // Standard error 1 / √(5 · 10⁵) = 0.0014.
    assert!(corr.abs() < 0.007, "pair correlation {corr}");

    // Octile edges of the standard normal.
    const EDGES: [f64; 7] = [
        -1.150_35, -0.674_49, -0.318_64, 0.0, 0.318_64, 0.674_49, 1.150_35,
    ];
    let bin = |v: f64| EDGES.iter().filter(|&&e| v > e).count();
    let mut cells = [[0usize; 8]; 8];
    for &(a, b) in &pairs {
        cells[bin(a)][bin(b)] += 1;
    }
    let e = n / 64.0;
    let chi2: f64 = cells
        .iter()
        .flatten()
        .map(|&o| (o as f64 - e).powi(2) / e)
        .sum();
    // 63 dof under full uniformity; (χ² − 63) / √126 beyond 5 is a
    // failure far past any fixed-seed fluke.
    assert!(chi2 < 63.0 + 5.0 * 126f64.sqrt(), "pair χ² {chi2}");
}

#[test]
fn same_seed_gives_the_same_sequence() {
    let run = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut normal = NormalSampler::new();
        (0..10_000)
            .map(|_| normal.sample(&mut rng).to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

/// The first output of each pair is the classic single-output Box–Muller
/// draw of the same two uniforms, bit for bit.
#[test]
fn the_first_output_is_the_cosine_draw() {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(7);
    let mut twin = rng.clone();
    let mut normal = NormalSampler::new();
    for _ in 0..1000 {
        let first = normal.sample(&mut rng);
        normal.sample(&mut rng);
        let u1: f64 = twin.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = twin.gen();
        let classic = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        assert_eq!(first.to_bits(), classic.to_bits());
    }
}
