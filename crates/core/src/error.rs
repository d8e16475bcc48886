use std::error::Error;
use std::fmt;

use mimo_linalg::LinalgError;
use mimo_sysid::SysidError;

/// Errors produced during controller design and operation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ControlError {
    /// State-space matrices had inconsistent dimensions.
    DimensionMismatch {
        /// Description of the inconsistency.
        what: String,
    },
    /// The Riccati iteration failed to converge — typically an
    /// unstabilizable `(A, B)` pair or indefinite weights.
    RiccatiDiverged {
        /// Iterations performed.
        iterations: usize,
        /// Last residual observed.
        residual: f64,
    },
    /// Weight matrices must be positive (semi-)definite diagonals.
    BadWeights {
        /// Description of the offending weight.
        what: String,
    },
    /// The MIMO structural requirement `outputs <= inputs` (§III-B) was
    /// violated, or no steady-state input exists for the requested
    /// reference.
    InfeasibleReference {
        /// Description of the infeasibility.
        what: String,
    },
    /// The designed closed loop failed validation (not stable, or not
    /// robust at the requested uncertainty guardband).
    ValidationFailed {
        /// Which check failed.
        what: String,
    },
    /// A measurement fed to a governor was NaN or infinite. Consuming it
    /// would permanently corrupt internal controller state (e.g. the
    /// Kalman estimate), so the epoch is rejected instead.
    NonFiniteMeasurement {
        /// Index of the offending output channel.
        channel: usize,
    },
    /// Robust Stability Analysis met a NaN or infinite frequency response
    /// or largest singular value. The small-gain test cannot be judged on
    /// it, so the analysis fails instead of passing.
    NonFiniteResponse {
        /// Frequency (rad/sample) of the offending response.
        omega: f64,
    },
    /// An input's actuator grid cannot carry the held slew index: it is
    /// empty or not strictly ascending, or one of its points does not map
    /// back to its own index through the input scaler's round trip.
    BadActuatorGrid {
        /// Input channel of the grid.
        channel: usize,
        /// What is wrong with it.
        what: String,
    },
    /// An underlying identification failure.
    Sysid(SysidError),
    /// An underlying linear-algebra failure.
    Linalg(LinalgError),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::DimensionMismatch { what } => write!(f, "dimension mismatch: {what}"),
            ControlError::RiccatiDiverged {
                iterations,
                residual,
            } => write!(
                f,
                "riccati iteration diverged after {iterations} iterations (residual {residual:.3e})"
            ),
            ControlError::BadWeights { what } => write!(f, "bad weights: {what}"),
            ControlError::InfeasibleReference { what } => {
                write!(f, "infeasible reference: {what}")
            }
            ControlError::ValidationFailed { what } => write!(f, "validation failed: {what}"),
            ControlError::NonFiniteMeasurement { channel } => {
                write!(f, "measurement channel {channel} is NaN or infinite")
            }
            ControlError::NonFiniteResponse { omega } => {
                write!(f, "frequency response at w = {omega:.4} is NaN or infinite")
            }
            ControlError::BadActuatorGrid { channel, what } => {
                write!(f, "bad actuator grid on input {channel}: {what}")
            }
            ControlError::Sysid(e) => write!(f, "identification failure: {e}"),
            ControlError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for ControlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ControlError::Sysid(e) => Some(e),
            ControlError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SysidError> for ControlError {
    fn from(e: SysidError) -> Self {
        ControlError::Sysid(e)
    }
}

impl From<LinalgError> for ControlError {
    fn from(e: LinalgError) -> Self {
        ControlError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ControlError::RiccatiDiverged {
            iterations: 500,
            residual: 1.0,
        };
        assert!(e.to_string().contains("500"));
        let e2: ControlError = LinalgError::Singular.into();
        assert!(e2.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<ControlError>();
    }
}
