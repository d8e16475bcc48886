//! Parity of the held-index slew step with the two-scan quantizer it
//! replaced.
//!
//! `slew_step` starts each channel from the grid index it wrote last epoch
//! and compares that index with its two neighbours. The quantizer before it
//! scanned the whole grid twice per channel: once for the point nearest the
//! candidate, and once to recover the index of the denormalized previous
//! input. A literal copy of that quantizer is kept below. On every deployed
//! actuator grid, from every held index, both must pick the same grid point
//! for random, on-grid, midpoint, near-midpoint, subnormal, huge, ±∞ and
//! NaN candidates.

use mimo_core::lqg::{quantize_index, slew_step};
use mimo_sim::InputSet;
use mimo_sysid::scale::ChannelScaler;
use proptest::prelude::*;

/// The two-scan quantizer, as it was before the held index.
fn quantize_with_slew(
    grids: &[Vec<f64>],
    u_phys_raw: &[f64],
    u_prev_phys: &[f64],
    out: &mut [f64],
) {
    for ch in 0..out.len() {
        let grid = &grids[ch];
        let target = quantize_index(grid, u_phys_raw[ch]);
        let current = quantize_index(grid, u_prev_phys[ch]);
        let stepped = if target > current {
            current + 1
        } else if target < current {
            current - 1
        } else {
            current
        };
        out[ch] = grid[stepped];
    }
}

/// Frequency (16 points), cache (4) and ROB (8): every grid a deployed
/// MIMO, Decoupled or three-input design quantizes to.
fn deployed_grids() -> Vec<Vec<f64>> {
    InputSet::FreqCacheRob
        .grids()
        .iter()
        .map(|g| g.values().to_vec())
        .collect()
}

/// Values that are not finite or sit at the ends of the f64 range.
const SPECIALS: [f64; 6] = [
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MAX,
    -f64::MAX,
    -0.0,
];

/// One candidate of the given `kind` for `grid`; `j`, `r` and `ulps` pick
/// the point, the position and the distance in units in the last place.
fn candidate(grid: &[f64], kind: usize, j: usize, r: f64, ulps: u64) -> f64 {
    let (lo, hi) = (grid[0], grid[grid.len() - 1]);
    let k = j % grid.len();
    let mid = 0.5 * (grid[k] + grid[(k + 1).min(grid.len() - 1)]);
    let subnormal = f64::from_bits(1 + ulps * 0x1_0000);
    match kind {
        // Anywhere from a grid span below the grid to one above it.
        0 => lo + (hi - lo) * (0.5 + 1.5 * r),
        1 => grid[k],
        2 => mid,
        // A few ulps either side of a midpoint: the grids are positive,
        // so adding to the bits moves up.
        3 => f64::from_bits(mid.to_bits() + ulps),
        4 => f64::from_bits(mid.to_bits() - ulps),
        5 => subnormal.copysign(r),
        6 => grid[k] + subnormal,
        _ => SPECIALS[j % SPECIALS.len()],
    }
}

/// Steps `v` from every held index of `grid` through both quantizers and
/// returns the first disagreement. The old quantizer gets the previous
/// input the controller would hold: the grid point through a scaler's
/// normalize/denormalize round trip.
fn first_mismatch(grid: &[f64], v: f64) -> Option<String> {
    let scaler = ChannelScaler::from_ranges(&[(grid[0], grid[grid.len() - 1])]);
    let grids = [grid.to_vec()];
    for cur in 0..grid.len() {
        let prev = scaler.denormalize_channel(0, scaler.normalize_channel(0, grid[cur]));
        assert_eq!(quantize_index(grid, prev), cur, "round trip of point {cur}");
        let mut old = [0.0];
        quantize_with_slew(&grids, &[v], &[prev], &mut old);
        let mut held = [cur];
        let mut new = [0.0];
        slew_step(&grids, &[v], &mut held, &mut new);
        if old[0].to_bits() != new[0].to_bits() || grid[held[0]].to_bits() != new[0].to_bits() {
            return Some(format!(
                "grid {grid:?} from index {cur}, candidate {v:e}: two-scan {} vs held {} \
                 (held index {})",
                old[0], new[0], held[0]
            ));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn held_index_step_matches_the_two_scan_quantizer(
        kind in 0..8usize,
        j in 0..64usize,
        r in -1.0..1.0f64,
        ulps in 0..4u64
    ) {
        for grid in deployed_grids() {
            let v = candidate(&grid, kind, j, r, ulps);
            if let Some(msg) = first_mismatch(&grid, v) {
                prop_assert!(false, "{}", msg);
            }
        }
    }
}

/// Every deterministic candidate kind, exhaustively: each grid point, each
/// midpoint and its neighbours up to three ulps away, and the specials.
#[test]
fn held_index_step_matches_on_every_point_and_midpoint() {
    for grid in deployed_grids() {
        for kind in 1..8 {
            for j in 0..grid.len().max(SPECIALS.len()) {
                for ulps in 0..4 {
                    for r in [-1.0, 1.0] {
                        let v = candidate(&grid, kind, j, r, ulps);
                        if let Some(msg) = first_mismatch(&grid, v) {
                            panic!("{msg}");
                        }
                    }
                }
            }
        }
    }
}

/// The cache grid's midpoints are exact ties, where the scan keeps the
/// lower index: a held index above a tie must step down, one below must
/// stay.
#[test]
fn an_exact_midpoint_tie_keeps_the_lower_index() {
    let grids = [vec![2.0, 4.0, 6.0, 8.0]];
    let mut out = [0.0];
    let mut held = [2];
    slew_step(&grids, &[5.0], &mut held, &mut out);
    assert_eq!((held[0], out[0]), (1, 4.0));
    let mut held = [1];
    slew_step(&grids, &[5.0], &mut held, &mut out);
    assert_eq!((held[0], out[0]), (1, 4.0));
    // NaN and ±∞ head for index 0, as the scan's `d < best_d` never holds.
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut held = [3];
        slew_step(&grids, &[v], &mut held, &mut out);
        assert_eq!((held[0], out[0]), (2, 6.0), "{v}");
    }
}
