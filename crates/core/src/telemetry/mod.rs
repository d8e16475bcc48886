//! Allocation-free epoch tracing behind one sink, [`TelemetrySink`].
//!
//! The paper's controller is judged entirely by per-epoch signals (IPS,
//! power, actuator settings), but the runners only exposed end-of-run
//! summaries. This module makes a run *watchable*: an
//! [`crate::engine::EpochLoop`] with a sink installed
//! ([`crate::engine::EpochLoop::set_sink`]) hands it
//!
//! * a stack-allocated [`EpochRecord`] snapshot of the actuation,
//!   measurement, and health once per epoch, kept in a fixed-capacity
//!   [`RingTrace`];
//! * the first quarantine latch, as a [`QuarantineEvent`].
//!
//! The loop's epoch and fault counts are read once, at the end, as a
//! [`RunSummary`] ([`crate::engine::EpochLoop::summary`]).
//!
//! The loop holds the sink as an `Option`: without one (the default) it
//! skips record capture entirely, so golden digests and the
//! zero-allocation guarantee are untouched. With one, everything touched
//! per epoch is fixed-size, so steady-state epochs stay allocation-free;
//! serialization happens after the run via the export writers
//! ([`write_jsonl`], [`save_jsonl`]).

use crate::engine::EpochError;

mod export;
mod record;
mod ring;

pub use export::{record_to_json, save_jsonl, write_jsonl};
pub use record::{CauseCode, EpochRecord, Health, MAX_CHANNELS};
pub use ring::RingTrace;

/// Summary of one epoch loop's run, from
/// [`crate::engine::EpochLoop::summary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Epochs stepped over the run, including faulted ones.
    pub epochs: u64,
    /// Faulted epochs over the run.
    pub fault_epochs: u64,
    /// Whether the loop ever latched quarantine.
    pub quarantined: bool,
    /// Epoch of the first quarantine latch, if any.
    pub quarantine_epoch: Option<u64>,
}

/// A quarantine latch event, as captured by [`TelemetrySink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineEvent {
    /// Epoch at which the streak crossed the threshold.
    pub epoch: u64,
    /// Fleet core id, if the loop ran inside a fleet.
    pub core: Option<usize>,
    /// Compact cause code of the latching fault.
    pub cause: CauseCode,
    /// Offending channel for non-finite measurement/actuation causes.
    pub channel: Option<usize>,
}

impl From<&EpochError> for QuarantineEvent {
    fn from(err: &EpochError) -> Self {
        use crate::engine::EpochCause;
        let channel = match &err.cause {
            EpochCause::NonFiniteMeasurement { channel }
            | EpochCause::NonFiniteActuation { channel } => Some(*channel),
            _ => None,
        };
        QuarantineEvent {
            epoch: err.epoch,
            core: err.core,
            cause: (&err.cause).into(),
            channel,
        }
    }
}

/// Configuration for a [`TelemetrySink`] (and, through
/// `FleetConfig::observer`, for per-core fleet telemetry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch; when `false` no sink is attached at all.
    pub enabled: bool,
    /// Ring-buffer capacity for the per-loop epoch trace (0 = quarantine
    /// and summary only, no trace).
    pub trace_capacity: usize,
}

impl TelemetryConfig {
    /// Telemetry fully disabled (the default).
    pub fn off() -> Self {
        TelemetryConfig {
            enabled: false,
            trace_capacity: 0,
        }
    }

    /// Telemetry enabled with a ring trace of `capacity` records.
    pub fn trace(capacity: usize) -> Self {
        TelemetryConfig {
            enabled: true,
            trace_capacity: capacity,
        }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::off()
    }
}

/// The epoch loop's telemetry: ring trace + quarantine capture.
///
/// Per-epoch work is bounded and allocation-free: one ring slot write.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    /// Recent epoch records, oldest overwritten first.
    pub trace: RingTrace,
    /// First quarantine latch observed, if any.
    pub quarantine: Option<QuarantineEvent>,
}

impl TelemetrySink {
    /// Builds a sink with `cfg`'s ring capacity.
    pub fn new(cfg: &TelemetryConfig) -> Self {
        TelemetrySink {
            trace: RingTrace::with_capacity(cfg.trace_capacity),
            quarantine: None,
        }
    }

    /// Takes a quarantine latch; only the first one is kept.
    pub(crate) fn on_quarantine(&mut self, error: &EpochError) {
        if self.quarantine.is_none() {
            self.quarantine = Some(error.into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EpochCause;

    #[test]
    fn sink_keeps_the_first_quarantine_latch() {
        let mut sink = TelemetrySink::new(&TelemetryConfig::trace(8));
        let err = EpochError {
            epoch: 2,
            core: Some(2),
            cause: EpochCause::NonFiniteMeasurement { channel: 1 },
        };
        sink.on_quarantine(&err);
        let q = sink.quarantine.expect("quarantine captured");
        assert_eq!(q.epoch, 2);
        assert_eq!(q.core, Some(2));
        assert_eq!(q.cause, CauseCode::NonFiniteMeasurement);
        assert_eq!(q.channel, Some(1));
        // A second latch (e.g. after a fallback rescue fails) keeps the
        // first event.
        sink.on_quarantine(&EpochError { epoch: 9, ..err });
        assert_eq!(sink.quarantine.unwrap().epoch, 2);
    }
}
