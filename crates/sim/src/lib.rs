//! # mimo-sim
//!
//! A configurable out-of-order processor simulator — the controlled plant
//! of the ISCA 2016 MIMO-control paper.
//!
//! The paper evaluates on ESESC modeling an ARM Cortex-A15 with McPAT/CACTI
//! power models and SPEC CPU 2006 workloads. None of those are available
//! here, so this crate builds the closest synthetic equivalent (see
//! DESIGN.md §1): an interval-model core whose per-epoch dynamics expose
//! the same control surface —
//!
//! * **Inputs** (Table III): DVFS frequency (16 settings, 0.5–2.0 GHz in
//!   0.1 GHz steps), L2/L1 cache size by way-gating (4 settings), and ROB
//!   size (8 settings, 16–128 entries) — [`config`].
//! * **Outputs**: performance in BIPS and power in watts, observed every
//!   50 µs epoch — [`Observation`].
//! * **Dynamics**: cache warm-up after way-gating, DVFS transition stalls,
//!   phase changes, branch/interrupt non-determinism, and sensor noise —
//!   the effects the paper's unpredictability matrices capture.
//! * **Workloads**: a catalog of 28 synthetic applications carrying the
//!   SPEC CPU 2006 names, partitioned into the paper's training /
//!   production and responsive / non-responsive sets — [`workload`].
//!
//! # Example
//!
//! ```
//! use mimo_sim::{Plant, ProcessorBuilder};
//! use mimo_linalg::Vector;
//!
//! # fn main() -> Result<(), mimo_sim::SimError> {
//! let mut cpu = ProcessorBuilder::new().app("namd").seed(42).build()?;
//! // Run one epoch at 1.3 GHz, full cache, full ROB.
//! let y = cpu.apply(&Vector::from_slice(&[1.3, 8.0, 128.0]));
//! let (ips, power) = (y[0], y[1]);
//! assert!(ips > 0.0 && power > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod corem;
pub mod fault;
pub mod llc;
pub mod noise;
pub mod power;
pub mod processor;
pub mod workload;

mod error;

pub use config::{ActuatorGrid, InputSet, PlantConfig};
pub use error::SimError;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FAULT_KIND_COUNT};
pub use llc::{LlcConfig, SharedLlc};
pub use processor::{Observation, Plant, Processor, ProcessorBuilder};

/// Convenient result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;

/// Length of one control epoch in microseconds (Table III: the controller
/// is invoked every 50 µs).
pub const EPOCH_US: f64 = 50.0;
