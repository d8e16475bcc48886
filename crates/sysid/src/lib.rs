//! # mimo-sysid
//!
//! Black-box system identification for architectural control, reproducing
//! the role of MATLAB's System Identification Toolbox in the ISCA 2016 MIMO
//! paper (§IV-B1, "Modeling the System").
//!
//! The paper's flow is:
//!
//! 1. Apply "waveforms with special patterns" at the plant inputs —
//!    [`signal`] provides PRBS, staircase, and multilevel excitation.
//! 2. Record input/output waveforms — each one [`Samples`] buffer — and
//!    normalize them — [`scale`].
//! 3. Fit a multivariable ARX model with least squares — [`arx`] — assuming
//!    `y(t)` depends on the previous `na` outputs and the current and
//!    previous inputs plus a noise term.
//! 4. Realize the ARX fit as a state-space model `(A, B, C, D)` of chosen
//!    dimension — [`realize`].
//! 5. Estimate the two "unpredictability matrices" (process and measurement
//!    noise covariances) from the fit residuals — [`noise`].
//! 6. Validate against held-out applications and compute the maximum
//!    prediction error that sets the uncertainty guardband — [`validate`]
//!    (this drives Figure 7 and §VI-A2).
//!
//! # Example
//!
//! ```
//! use mimo_sysid::arx::{ArxOrders, ArxModel};
//! use mimo_sysid::Samples;
//!
//! // Identify y(t) = 0.5 y(t-1) + u(t-1) from clean data.
//! let mut u = Samples::new(1);
//! let mut y = Samples::new(1);
//! let (mut y_prev, mut u_prev) = (0.0, 0.0);
//! for t in 0..200usize {
//!     let ut = ((t / 7) % 3) as f64 - 1.0;
//!     let yt = 0.5 * y_prev + u_prev;
//!     u.push(&[ut]);
//!     y.push(&[yt]);
//!     y_prev = yt;
//!     u_prev = ut;
//! }
//! let orders = ArxOrders { na: 1, nb: 1, direct_feedthrough: false };
//! let model = ArxModel::fit(u.view(), y.view(), orders).unwrap();
//! assert!((model.a_coeffs()[0][(0, 0)] - 0.5).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arx;
pub mod noise;
pub mod realize;
pub mod samples;
pub mod scale;
pub mod signal;
pub mod validate;

mod error;

pub use error::SysidError;
pub use samples::{SampleView, SampleViewMut, Samples};

/// Convenient result alias for identification operations.
pub type Result<T> = std::result::Result<T, SysidError>;
