//! Many-core fleet runtime: per-core MIMO control under a chip power budget.
//!
//! The paper designs one MIMO LQG controller per core. This crate scales
//! that to a fleet: N independent plants, each tracking `[IPS, power]`
//! references with its own governor, stepped in lock-step 50 µs epochs
//! by one [`Chip`], with a chip-level [`BudgetArbiter`] that
//! redistributes each core's references every epoch so the summed power
//! respects a chip cap — the decentralized coordination sketched in the
//! paper's §VII discussion of multicore deployment. [`Chip::step_epoch`]
//! is the only place that beat is written: [`FleetRunner`] steps one chip
//! on the calling thread, and [`ClusterRunner`] steps many.
//!
//! Determinism is a design invariant: per-core seeds derive only from the
//! base seed and the core index, and arbitration reduces core-indexed
//! observations in core order, so a run's [`FleetStats`] are a pure
//! function of its configuration.
//!
//! # Example
//!
//! ```
//! use mimo_fleet::{ArbitrationPolicy, FleetConfig, FleetRunner};
//! use mimo_core::governor::FixedGovernor;
//! use mimo_linalg::Vector;
//!
//! let cfg = FleetConfig::new(4)
//!     .epochs(100)
//!     .policy(ArbitrationPolicy::Proportional);
//! let fleet = FleetRunner::new(cfg, |_, _| {
//!     Box::new(FixedGovernor::new(Vector::from_slice(&[1.3, 6.0])))
//! })
//! .unwrap();
//! let stats = fleet.run().unwrap();
//! assert_eq!(stats.n_cores, 4);
//! ```
//!
//! To watch a run, enable telemetry in the config and use
//! [`FleetRunner::run_traced`]: every core carries its own ring-buffer
//! [`TelemetrySink`](mimo_core::telemetry::TelemetrySink), and the
//! returned [`FleetTelemetry`] holds each core's recent epoch records,
//! quarantine event, and run summary — with JSONL export that drains
//! strictly outside the hot loop.
//!
//! # Scaling past one chip
//!
//! Above the chip sits the two-level hierarchy of [`ClusterRunner`]: a
//! [`Cluster`](ClusterConfig) of [`Chip`]s, each chip keeping its own
//! lock-step beat while whole chips are sharded across scoped threads
//! with **no global per-epoch barrier**. A [`ClusterArbiter`] re-divides the
//! datacenter power cap across chips only every
//! [`exchange_period`](ClusterConfig::exchange_period) chip epochs, from
//! each chip's last published [`ChipSummary`] — so chips drift
//! independently between exchanges, yet [`ClusterStats`] stay bit-identical
//! at any shard count, and a cluster of one chip reproduces a single-chip
//! fleet's golden digests exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod bank;
pub mod chip;
pub mod cluster;
pub mod config;
pub mod error;
pub mod runner;
mod shard;
pub mod stats;
pub mod telemetry;

pub use arbiter::{ArbitrationPolicy, BudgetArbiter, ClusterArbiter, CoreObs};
pub use bank::GovernorBank;
pub use chip::Chip;
pub use cluster::{ClusterConfig, ClusterRunner};
pub use config::{default_fleet_apps, CoreSpec, FleetConfig};
pub use error::{FleetError, Result};
pub use runner::FleetRunner;
pub use stats::{ChipSummary, ClusterStats, CoreStats, FleetStats};
pub use telemetry::{ClusterTelemetry, CoreTelemetry, FleetTelemetry};
