//! Controller storage selection: dynamic heap-backed vs fixed-size stack.
//!
//! The deployed controllers are tiny and fixed per architecture, so the
//! runtime layer ([`update_kalman`](crate::kalman::update_kalman),
//! [`LqgController::step_into`](crate::lqg::LqgController::step_into)) is
//! written once, generically, over an [`LqgStorage`] selector. Two
//! selectors exist:
//!
//! * [`DynStore`] — the historical path: every buffer is a heap-backed
//!   [`Matrix`]/[`Vector`] sized at synthesis. This is the default type
//!   parameter everywhere, so existing code is unchanged.
//! * [`StaticStore<NU, NY, NX, NZ>`] — every buffer is a stack-allocated
//!   [`SMatrix`]/[`SVector`]
//!   whose dimensions are const generics. The controller arithmetic
//!   monomorphizes: dimension checks disappear and the tiny loops unroll.
//!
//! Synthesis (DARE, SVD, eigenvalues, RSA, steady-state resolves) always
//! runs on the dynamic path; storage only decides how the *runtime* copies
//! of the gains, model matrices, and state vectors are held.
//! [`LqgDesign::build`](crate::lqg::LqgDesign::build) always returns a
//! dynamic controller, and the conversions
//! ([`LqgController::into_static`](crate::lqg::LqgController::into_static),
//! [`LqgController::with_storage`](crate::lqg::LqgController::with_storage))
//! sit exactly at that synthesis→runtime boundary.
//!
//! Stable Rust cannot express `NZ = NX + NU + NY` in the type system
//! (`generic_const_exprs` is unstable), so the augmented-state dimension
//! is a fourth const parameter validated at conversion time by
//! [`LqgStorage::check_dims`].

use mimo_linalg::{Matrix, SMatrix, SVector, Vector};

use crate::{ControlError, Result};

/// Selects the storage for every buffer a runtime controller owns.
///
/// The associated types mirror the controller's shapes: `A` is
/// `NX x NX`, `B` is `NX x NU`, `C` is `NY x NX`, `D` is `NY x NU`, the
/// Kalman gain `L` is `NX x NY`, and the LQR gain `F` maps the augmented
/// state `z = [x̃; ũ₋₁; q]` (dimension `NZ = NX + NU + NY`) to `NU`
/// input changes.
pub trait LqgStorage: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// Input-sized vector (`NU`).
    type VecU: mimo_linalg::VecKernel;
    /// Output-sized vector (`NY`).
    type VecY: mimo_linalg::VecKernel;
    /// State-sized vector (`NX`).
    type VecX: mimo_linalg::VecKernel;
    /// Augmented-state-sized vector (`NZ = NX + NU + NY`).
    type VecZ: mimo_linalg::VecKernel;
    /// State evolution matrix `A`.
    type MatA: mimo_linalg::MatVecKernel<Self::VecX, Self::VecX>;
    /// Input-to-state matrix `B`.
    type MatB: mimo_linalg::MatVecKernel<Self::VecU, Self::VecX>;
    /// State-to-output matrix `C`.
    type MatC: mimo_linalg::MatVecKernel<Self::VecX, Self::VecY>;
    /// Feed-through matrix `D`.
    type MatD: mimo_linalg::MatVecKernel<Self::VecU, Self::VecY>;
    /// Kalman predictor gain `L`.
    type GainL: mimo_linalg::MatVecKernel<Self::VecY, Self::VecX>;
    /// LQR feedback gain `F` over the augmented state.
    type GainF: mimo_linalg::MatVecKernel<Self::VecZ, Self::VecU>;
    /// Held actuator-grid index per input (`NU`).
    type IdxU: HeldIndex;

    /// Checks that this storage can hold a controller with `nu` inputs,
    /// `ny` outputs, and `nx` states.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] when a fixed-size
    /// storage's const dimensions disagree with the controller's.
    fn check_dims(nu: usize, ny: usize, nx: usize) -> Result<()>;
}

/// One grid index per input, held beside the previous input: a `Vec` on
/// the dynamic path, an inline array on the static one, so a static
/// controller's clone still allocates nothing.
pub trait HeldIndex:
    AsRef<[usize]> + AsMut<[usize]> + Clone + std::fmt::Debug + Send + Sync + 'static
{
    /// All-zero indices for `n` inputs.
    ///
    /// # Panics
    ///
    /// A fixed-size implementation panics when `n` differs from its
    /// length; [`LqgStorage::check_dims`] rules that out beforehand.
    fn zeroed(n: usize) -> Self;
}

impl HeldIndex for Vec<usize> {
    fn zeroed(n: usize) -> Self {
        vec![0; n]
    }
}

impl<const N: usize> HeldIndex for [usize; N] {
    fn zeroed(n: usize) -> Self {
        assert_eq!(n, N, "held index length mismatch");
        [0; N]
    }
}

/// Dynamic storage: heap-backed [`Matrix`]/[`Vector`] buffers sized at
/// synthesis. The default — and the only choice for dimension sweeps
/// (e.g. Figure 7's state-order sweep) whose shapes are not known at
/// compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DynStore;

impl LqgStorage for DynStore {
    type VecU = Vector;
    type VecY = Vector;
    type VecX = Vector;
    type VecZ = Vector;
    type MatA = Matrix;
    type MatB = Matrix;
    type MatC = Matrix;
    type MatD = Matrix;
    type GainL = Matrix;
    type GainF = Matrix;
    type IdxU = Vec<usize>;

    fn check_dims(_nu: usize, _ny: usize, _nx: usize) -> Result<()> {
        Ok(())
    }
}

/// Fixed-size storage: stack-allocated buffers with const-generic
/// dimensions. `NZ` must equal `NX + NU + NY` (checked at conversion, not
/// expressible on stable Rust).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StaticStore<const NU: usize, const NY: usize, const NX: usize, const NZ: usize>;

impl<const NU: usize, const NY: usize, const NX: usize, const NZ: usize> LqgStorage
    for StaticStore<NU, NY, NX, NZ>
{
    type VecU = SVector<NU>;
    type VecY = SVector<NY>;
    type VecX = SVector<NX>;
    type VecZ = SVector<NZ>;
    type MatA = SMatrix<NX, NX>;
    type MatB = SMatrix<NX, NU>;
    type MatC = SMatrix<NY, NX>;
    type MatD = SMatrix<NY, NU>;
    type GainL = SMatrix<NX, NY>;
    type GainF = SMatrix<NU, NZ>;
    type IdxU = [usize; NU];

    fn check_dims(nu: usize, ny: usize, nx: usize) -> Result<()> {
        if nu != NU || ny != NY || nx != NX {
            return Err(ControlError::DimensionMismatch {
                what: format!(
                    "static storage is {NU}-in/{NY}-out/{NX}-state, \
                     controller is {nu}-in/{ny}-out/{nx}-state"
                ),
            });
        }
        if NZ != NX + NU + NY {
            return Err(ControlError::DimensionMismatch {
                what: format!(
                    "static storage NZ = {NZ} must equal NX + NU + NY = {}",
                    NX + NU + NY
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_accepts_anything() {
        assert!(DynStore::check_dims(2, 2, 4).is_ok());
        assert!(DynStore::check_dims(9, 1, 30).is_ok());
    }

    #[test]
    fn static_checks_every_dimension() {
        assert!(StaticStore::<2, 2, 4, 8>::check_dims(2, 2, 4).is_ok());
        assert!(StaticStore::<2, 2, 4, 8>::check_dims(3, 2, 4).is_err());
        assert!(StaticStore::<2, 2, 4, 8>::check_dims(2, 1, 4).is_err());
        assert!(StaticStore::<2, 2, 4, 8>::check_dims(2, 2, 5).is_err());
        // NZ must be NX + NU + NY.
        assert!(StaticStore::<2, 2, 4, 9>::check_dims(2, 2, 4).is_err());
    }
}
