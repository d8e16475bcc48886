//! Property tests: the in-place mat-vec and copy are bit-identical to
//! their allocating counterparts across random values.
//!
//! The epoch engine's zero-allocation guarantee only holds if the
//! `*_into` kernels are drop-in replacements — not "numerically close"
//! but producing the exact same f64 bit patterns, since the golden
//! digests pin entire runs to the bit.

use mimo_linalg::{Matrix, Vector};
use proptest::prelude::*;

/// Strategy: a matrix of the given shape with a mix of magnitudes,
/// including exact zeros and entries near 1e-9 of the rest.
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

fn assert_bits_eq(a: &Vector, b: &Vector) {
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        assert_eq!(
            a[i].to_bits(),
            b[i].to_bits(),
            "bit mismatch at {i}: {} vs {}",
            a[i],
            b[i]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mul_vec_into_matches_mul_vec(a in matrix(5, 3), v in vector(3)) {
        let expect = a.mul_vec(&v).unwrap();
        let mut got = Vector::zeros(5);
        a.mul_vec_into(&v, &mut got).unwrap();
        assert_bits_eq(&expect, &got);
    }

    #[test]
    fn mul_vec_into_matches_mul_vec_wide(a in matrix(2, 7), v in vector(7)) {
        let expect = a.mul_vec(&v).unwrap();
        let mut got = Vector::zeros(2);
        a.mul_vec_into(&v, &mut got).unwrap();
        assert_bits_eq(&expect, &got);
    }

    #[test]
    fn copy_from_is_exact(src in vector(9)) {
        let mut dst = Vector::zeros(9);
        dst.copy_from(&src);
        assert_bits_eq(&src, &dst);
    }
}

#[test]
fn into_kernels_reject_shape_mismatches() {
    let a = Matrix::zeros(2, 3);
    let v = Vector::zeros(4);
    let mut vo = Vector::zeros(2);
    assert!(a.mul_vec_into(&v, &mut vo).is_err());
    let v = Vector::zeros(3);
    let mut vo = Vector::zeros(5);
    assert!(a.mul_vec_into(&v, &mut vo).is_err());
}
