//! Property tests: the stack-allocated mat-vec is bit-identical to the
//! dynamic one for every matrix shape the four reference architectures
//! deploy.
//!
//! Both storages run one shared row-accumulate kernel; these tests pin
//! that `SMatrix`/`SVector` stay exact drop-ins — same f64 bit patterns,
//! not "numerically close" — for each shape `StaticStore` instantiates:
//!
//! * two-input MIMO  (2-in/2-out/4-state):  A 4×4, B 4×2, C 2×4, D 2×2, L 4×2, F 2×8
//! * three-input MIMO (3-in/2-out/5-state): A 5×5, B 5×3, C 2×5, D 2×3, L 5×2, F 3×10
//! * decoupled SISO  (1-in/1-out/2-state):  A 2×2, B 2×1, C 1×2, D 1×1, L 2×1, F 1×4
//! * unit-test plant (2-in/2-out/2-state):  F 2×6 (the rest reuse shapes above)

use mimo_linalg::{Matrix, SMatrix, SVector, Vector};
use proptest::prelude::*;

/// Strategy: a dynamic matrix with mixed magnitudes, including exact zeros
/// and entries near 1e-9 of the rest.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    (
        proptest::collection::vec(-1e3..1e3f64, rows * cols),
        proptest::collection::vec(0u8..4, rows * cols),
    )
        .prop_map(move |(vals, tags)| {
            let data = vals
                .iter()
                .zip(&tags)
                .map(|(&v, &t)| match t {
                    0 => 0.0,
                    1 => v * 1e-9,
                    _ => v,
                })
                .collect();
            Matrix::from_vec(rows, cols, data)
        })
}

fn vector(len: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(-1e3..1e3f64, len).prop_map(|v| Vector::from_slice(&v))
}

/// One parity case per architecture shape: `SMatrix<R, C> * SVector<C>`
/// must reproduce `Matrix::mul_vec_into` to the bit, and the conversion
/// round-trip must be exact.
macro_rules! mat_vec_parity {
    ($($name:ident: $r:literal x $c:literal),+ $(,)?) => {
        $(
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(48))]
                #[test]
                fn $name(m in matrix($r, $c), v in vector($c)) {
                    let sm = SMatrix::<$r, $c>::from_matrix(&m).unwrap();
                    let sv = SVector::<$c>::from_vector(&v).unwrap();
                    // Conversion round-trip is exact.
                    prop_assert_eq!(sm.to_matrix(), m.clone());
                    prop_assert_eq!(sv.to_vector(), v.clone());
                    // mat-vec is bit-identical.
                    let mut expect = Vector::zeros($r);
                    m.mul_vec_into(&v, &mut expect).unwrap();
                    let mut got = SVector::<$r>::zeros();
                    sm.mul_vec_into(&sv, &mut got);
                    for i in 0..$r {
                        prop_assert_eq!(expect[i].to_bits(), got[i].to_bits());
                    }
                }
            }
        )+
    };
}

mat_vec_parity! {
    // Two-input architecture (StaticStore<2, 2, 4, 8>).
    two_input_a_4x4: 4 x 4,
    two_input_b_4x2: 4 x 2,
    two_input_c_2x4: 2 x 4,
    two_input_d_2x2: 2 x 2,
    two_input_l_4x2: 4 x 2,
    two_input_f_2x8: 2 x 8,
    // Three-input architecture (StaticStore<3, 2, 5, 10>).
    three_input_a_5x5: 5 x 5,
    three_input_b_5x3: 5 x 3,
    three_input_c_2x5: 2 x 5,
    three_input_d_2x3: 2 x 3,
    three_input_l_5x2: 5 x 2,
    three_input_f_3x10: 3 x 10,
    // Decoupled SISO loops (StaticStore<1, 1, 2, 4>).
    siso_a_2x2: 2 x 2,
    siso_b_2x1: 2 x 1,
    siso_c_1x2: 1 x 2,
    siso_d_1x1: 1 x 1,
    siso_f_1x4: 1 x 4,
    // Unit-test plant (StaticStore<2, 2, 2, 6>).
    test_plant_f_2x6: 2 x 6,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stale_static_output_is_overwritten(v in vector(4)) {
        // Scratch buffers are reused every epoch: stale contents must not
        // leak into a product, exactly as with the dynamic kernels.
        let m = Matrix::zeros(3, 4);
        let sm = SMatrix::<3, 4>::from_matrix(&m).unwrap();
        let sv = SVector::<4>::from_vector(&v).unwrap();
        let mut out = SVector::<3>::from_fn(|_| 42.0);
        sm.mul_vec_into(&sv, &mut out);
        for i in 0..3 {
            prop_assert_eq!(out[i], 0.0);
        }
    }
}
