//! Bit parity of the allocation-free steady-state resolve.
//!
//! `SteadyStateSolver::resolve` writes each right-hand side in the LU
//! factorization's pivot order and substitutes in place. The oracle here is
//! a literal copy of the allocating chain it replaced: a `Matrix` product
//! for `Gᵀ Q y`, `LuDecomposition::solve`, the clamp, a `Matrix` product for
//! `B u_ss`, and `solve` again. Every output must match it bit for bit —
//! over random designs of both static `fast_governor` shapes, the
//! Decoupled SISO loop, the unit-test plant and a 6-state shape, over
//! random and special references (signed zeros, subnormals,
//! clamp-saturating values, ±1e300, infinities, NaN), and through designs
//! whose factorizations pivot or fail.

use mimo_core::lqg::{LqgDesign, SteadyStateSolver};
use mimo_core::StateSpace;
use mimo_linalg::lu::LuDecomposition;
use mimo_linalg::{Matrix, Vector};
use mimo_sysid::scale::ChannelScaler;
use proptest::prelude::*;

/// The solver's input clamp (`lqg::U_CLAMP`).
const U_CLAMP: f64 = 1.05;

/// Reference values that stress the arithmetic's edge cases.
const SPECIAL: [f64; 14] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE / 4.0,
    50.0,
    -50.0,
    1e300,
    -1e300,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    1.0,
    -0.3,
];

/// `(inputs, outputs, states)`: the two shapes `fast_governor` puts on
/// static storage, the Decoupled pair's SISO loop, the 2-state unit-test
/// plant, then a 6-state shape.
const SHAPES: [(usize, usize, usize); 5] = [(2, 2, 4), (3, 2, 5), (1, 1, 2), (2, 2, 2), (2, 2, 6)];

/// The allocating resolve chain, copied verbatim as the parity oracle.
struct AllocatingSolver {
    nu: usize,
    nx: usize,
    gtq: Option<Matrix>,
    lhs_lu: Option<LuDecomposition>,
    ia_lu: Option<LuDecomposition>,
    b: Matrix,
}

impl AllocatingSolver {
    fn new(design: &LqgDesign) -> Self {
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
        AllocatingSolver {
            nu: i,
            nx: n,
            gtq: gtq_out,
            lhs_lu,
            ia_lu: LuDecomposition::new(&i_minus_a).ok(),
            b: design.model.b().clone(),
        }
    }

    fn resolve(&self, y_ref_norm: &[f64]) -> (Vector, Vector) {
        let y_ref = Vector::from_slice(y_ref_norm);
        let u_ss = match (&self.gtq, &self.lhs_lu) {
            (Some(gtq), Some(lu)) => {
                let rhs = gtq * &y_ref.to_col_matrix();
                lu.solve(&rhs).ok().map(Vector::from)
            }
            _ => None,
        }
        .unwrap_or_else(|| Vector::zeros(self.nu));
        let u_ss = u_ss.map(|v| v.clamp(-U_CLAMP, U_CLAMP));
        let x_ss = match &self.ia_lu {
            Some(lu) => lu
                .solve(&(&self.b * &u_ss.to_col_matrix()))
                .map(Vector::from)
                .unwrap_or_else(|_| Vector::zeros(self.nx)),
            None => Vector::zeros(self.nx),
        };
        (u_ss, x_ss)
    }
}

fn is_permuted(lu: &Option<LuDecomposition>) -> bool {
    lu.as_ref()
        .is_some_and(|lu| lu.perm().iter().enumerate().any(|(i, &p)| i != p))
}

fn design_of(model: StateSpace, output_weights: Vec<f64>) -> LqgDesign {
    let (n, i, o) = (model.state_dim(), model.num_inputs(), model.num_outputs());
    LqgDesign {
        process_noise: Matrix::identity(n).scale(1e-4),
        measurement_noise: Matrix::identity(o).scale(1e-4),
        output_weights,
        input_weights: vec![0.1; i],
        integral_weight: 0.05,
        input_scaler: ChannelScaler::from_ranges(&vec![(-1.0, 1.0); i]),
        output_scaler: ChannelScaler::from_ranges(&vec![(-5.0, 5.0); o]),
        input_grids: vec![(0..=20).map(|k| -1.0 + 0.1 * f64::from(k)).collect(); i],
        model,
    }
}

/// A random design of the given shape. `zero_mask` zeroes about a quarter
/// of the model entries so the zero-coefficient skips run; `A` is scaled
/// past the unit ball so `I − A` regularly needs row swaps.
fn random_design(
    (nu, ny, nx): (usize, usize, usize),
    entries: &[f64],
    zero_mask: &[u8],
    output_weights: &[f64],
) -> LqgDesign {
    let mut next = entries
        .iter()
        .zip(zero_mask)
        .map(|(&v, &m)| if m == 0 { 0.0 } else { v });
    let mut take = |rows: usize, cols: usize| {
        let data: Vec<f64> = next.by_ref().take(rows * cols).collect();
        Matrix::from_vec(rows, cols, data)
    };
    let a0 = take(nx, nx);
    let a = a0.scale(1.5 / a0.norm_inf().max(1e-6));
    let (b, c, d) = (take(nx, nu), take(ny, nx), take(ny, nu));
    let model = StateSpace::new(a, b, c, d).expect("shapes are consistent");
    design_of(model, output_weights[..ny].to_vec())
}

/// Runs the solver and the oracle on one reference and compares every
/// output bit.
fn check_parity(design: &LqgDesign, y_ref: &[f64]) -> Result<(), String> {
    let solver = SteadyStateSolver::new(design);
    let oracle = AllocatingSolver::new(design);
    let (want_u, want_x) = oracle.resolve(y_ref);
    let mut u = vec![f64::NAN; want_u.len()];
    let mut x = vec![f64::NAN; want_x.len()];
    solver.resolve(y_ref, &mut u, &mut x);
    for (k, (got, want)) in u.iter().zip(want_u.as_slice()).enumerate() {
        if got.to_bits() != want.to_bits() {
            return Err(format!("u_ss[{k}] {got:e} != {want:e} for y = {y_ref:?}"));
        }
    }
    for (k, (got, want)) in x.iter().zip(want_x.as_slice()).enumerate() {
        if got.to_bits() != want.to_bits() {
            return Err(format!("x_ss[{k}] {got:e} != {want:e} for y = {y_ref:?}"));
        }
    }
    Ok(())
}

/// Every reference built from two special values (one-output designs use
/// each value alone).
fn special_references(ny: usize) -> Vec<Vec<f64>> {
    let mut refs = Vec::new();
    for &a in &SPECIAL {
        if ny == 1 {
            refs.push(vec![a]);
            continue;
        }
        for &b in &SPECIAL {
            refs.push(vec![a, b]);
        }
    }
    refs
}

/// `G = 2B` with columns of very different length: the regularized Gram
/// matrix `[[0.241, 0.4], [0.4, 8.201]]` must swap rows, and `G` has a
/// zero entry, so `Gᵀ Q` does too.
fn gram_pivots() -> LqgDesign {
    let model = StateSpace::new(
        Matrix::diag(&[0.5, 0.5]),
        Matrix::from_rows(&[&[0.1, 1.0], &[0.0, 1.0]]),
        Matrix::identity(2),
        Matrix::zeros(2, 2),
    )
    .unwrap();
    design_of(model, vec![1.0, 1.0])
}

/// `I − A = [[0, −0.5], [−0.5, 0.8]]` has a zero leading entry.
fn ia_pivots() -> LqgDesign {
    let model = StateSpace::new(
        Matrix::from_rows(&[&[1.0, 0.5], &[0.5, 0.2]]),
        Matrix::from_rows(&[&[0.5, 0.0], &[0.1, 0.6]]),
        Matrix::identity(2),
        Matrix::zeros(2, 2),
    )
    .unwrap();
    design_of(model, vec![10.0, 1000.0])
}

/// A pole at `z = 1`: `I − A` is singular, so the DC gain fails and both
/// `u_ss` and `x_ss` take their zero fallbacks.
fn unit_eigenvalue() -> LqgDesign {
    let model = StateSpace::new(
        Matrix::diag(&[1.0, 0.6]),
        Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6]]),
        Matrix::identity(2),
        Matrix::zeros(2, 2),
    )
    .unwrap();
    design_of(model, vec![1.0, 1.0])
}

#[test]
fn structured_designs_pivot_and_fall_back_as_intended() {
    let gram = AllocatingSolver::new(&gram_pivots());
    assert!(is_permuted(&gram.lhs_lu), "Gram LU must pivot");
    assert!(gram.gtq.as_ref().unwrap().as_slice().contains(&0.0));
    let ia = AllocatingSolver::new(&ia_pivots());
    assert!(is_permuted(&ia.ia_lu), "I − A LU must pivot");
    let unit = AllocatingSolver::new(&unit_eigenvalue());
    assert!(unit.gtq.is_none() && unit.lhs_lu.is_none() && unit.ia_lu.is_none());
}

#[test]
fn special_references_match_the_allocating_chain() {
    let mut clamped = 0;
    for design in [gram_pivots(), ia_pivots(), unit_eigenvalue()] {
        let oracle = AllocatingSolver::new(&design);
        for y in special_references(2) {
            check_parity(&design, &y).unwrap();
            let (u, _) = oracle.resolve(&y);
            clamped += u.as_slice().iter().filter(|v| v.abs() == U_CLAMP).count();
        }
    }
    assert!(clamped > 0, "no reference saturated the input clamp");
}

#[test]
fn controller_retarget_matches_the_allocating_chain() {
    // Through `set_reference` on both storages: the normalized reference the
    // controller holds must resolve to the state it holds.
    let design = ia_pivots();
    let oracle = AllocatingSolver::new(&design);
    let mut dynamic = design.clone().build().unwrap();
    let mut fixed = design.build().unwrap().into_static::<2, 2, 2, 6>().unwrap();
    for y in special_references(2) {
        let y = Vector::from_slice(&y);
        dynamic.set_reference(&y);
        fixed.set_reference(&y);
        let (d, s) = (dynamic.export_state(), fixed.export_state());
        let (want_u, want_x) = oracle.resolve(d.y_ref_norm.as_slice());
        for (got, want) in [
            (&d.u_ss, &want_u),
            (&d.x_ss, &want_x),
            (&s.u_ss, &want_u),
            (&s.x_ss, &want_x),
        ] {
            let got: Vec<u64> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "reference {y:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn random_designs_match_the_allocating_chain(
        shape in 0usize..SHAPES.len(),
        entries in proptest::collection::vec(-1.0..1.0f64, 64),
        zero_mask in proptest::collection::vec(0u8..4, 64),
        weights in proptest::collection::vec(0.1..1000.0f64, 2),
        picks in proptest::collection::vec(0usize..2 * SPECIAL.len(), 2),
        uniform in proptest::collection::vec(-3.0..3.0f64, 2)
    ) {
        let (nu, ny, nx) = SHAPES[shape];
        let design = random_design((nu, ny, nx), &entries, &zero_mask, &weights);
        // Half the picks land on a special value, half on a uniform draw.
        let y: Vec<f64> = (0..ny)
            .map(|c| SPECIAL.get(picks[c]).copied().unwrap_or(uniform[c]))
            .collect();
        check_parity(&design, &y)?;
    }

    #[test]
    fn every_special_reference_matches_on_random_designs(
        shape in 0usize..SHAPES.len(),
        entries in proptest::collection::vec(-1.0..1.0f64, 64),
        zero_mask in proptest::collection::vec(0u8..4, 64),
        weights in proptest::collection::vec(0.1..1000.0f64, 2)
    ) {
        let (nu, ny, nx) = SHAPES[shape];
        let design = random_design((nu, ny, nx), &entries, &zero_mask, &weights);
        for y in special_references(ny) {
            check_parity(&design, &y)?;
        }
    }
}
