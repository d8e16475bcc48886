//! The per-epoch observation record and its compact health/cause codes.
//!
//! [`EpochRecord`] is a fixed-size `Copy` snapshot of one epoch — built on
//! the stack inside the hot loop and handed to the sink by reference,
//! so producing one never touches the heap. Channel storage is capped at
//! [`MAX_CHANNELS`]; every plant in the repo has at most three inputs and
//! two outputs, and anything wider is truncated rather than allocated.

use mimo_linalg::Vector;

use crate::engine::EpochCause;

/// Maximum input/output channels an [`EpochRecord`] stores inline. Wider
/// interfaces are truncated (the record stays `Copy` and heap-free).
pub const MAX_CHANNELS: usize = 4;

/// Health verdict of one epoch, as recorded by the telemetry layer.
///
/// Mirrors [`crate::engine::StepOutcome`] without carrying the error
/// payload, so it stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// The epoch completed without any fault.
    Healthy,
    /// The epoch faulted but the loop is still in service.
    Degraded,
    /// The epoch faulted while the loop was (or just became) quarantined.
    Quarantined,
}

impl Health {
    /// Stable lowercase label used by the JSONL exporter.
    pub fn as_str(&self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Quarantined => "quarantined",
        }
    }
}

/// Compact, payload-free code for an [`EpochCause`] — the telemetry-side
/// projection a record carries instead of the full error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CauseCode {
    /// The plant produced a NaN/Inf measurement.
    NonFiniteMeasurement,
    /// The governor produced a NaN/Inf actuation.
    NonFiniteActuation,
    /// The governor itself rejected the epoch.
    Governor,
    /// The plant itself rejected the epoch.
    Plant,
}

impl CauseCode {
    /// Stable snake_case label used by the JSONL exporter.
    pub fn as_str(&self) -> &'static str {
        match self {
            CauseCode::NonFiniteMeasurement => "non_finite_measurement",
            CauseCode::NonFiniteActuation => "non_finite_actuation",
            CauseCode::Governor => "governor",
            CauseCode::Plant => "plant",
        }
    }
}

impl From<&EpochCause> for CauseCode {
    fn from(cause: &EpochCause) -> Self {
        match cause {
            EpochCause::NonFiniteMeasurement { .. } => CauseCode::NonFiniteMeasurement,
            EpochCause::NonFiniteActuation { .. } => CauseCode::NonFiniteActuation,
            EpochCause::Governor(_) => CauseCode::Governor,
            EpochCause::Plant(_) => CauseCode::Plant,
        }
    }
}

/// One epoch's observation: what was actuated, what was measured, and how
/// healthy the epoch was.
///
/// On faulted epochs the engine restores its buffers to the last healthy
/// values before the record is captured, so `u`/`y` are always finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Fleet core id, when the loop runs inside a fleet.
    pub core: Option<usize>,
    /// Valid entries in `u` (min of the plant's inputs and
    /// [`MAX_CHANNELS`]).
    pub n_inputs: usize,
    /// Valid entries in `y`.
    pub n_outputs: usize,
    /// Actuation applied this epoch (first `n_inputs` entries).
    pub u: [f64; MAX_CHANNELS],
    /// Measurement observed this epoch (first `n_outputs` entries). By
    /// repo convention channel 0 is IPS (BIPS) and channel 1 power (W).
    pub y: [f64; MAX_CHANNELS],
    /// Health verdict of the epoch.
    pub health: Health,
    /// Fault cause when `health` is not [`Health::Healthy`].
    pub cause: Option<CauseCode>,
}

impl EpochRecord {
    /// Snapshots the engine's buffers into a stack record (no heap).
    #[inline]
    pub fn capture(
        epoch: u64,
        core: Option<usize>,
        u: &Vector,
        y: &Vector,
        health: Health,
        cause: Option<CauseCode>,
    ) -> Self {
        let mut ua = [0.0; MAX_CHANNELS];
        let mut ya = [0.0; MAX_CHANNELS];
        let n_inputs = u.len().min(MAX_CHANNELS);
        let n_outputs = y.len().min(MAX_CHANNELS);
        for (slot, v) in ua.iter_mut().zip(u.iter()) {
            *slot = *v;
        }
        for (slot, v) in ya.iter_mut().zip(y.iter()) {
            *slot = *v;
        }
        EpochRecord {
            epoch,
            core,
            n_inputs,
            n_outputs,
            u: ua,
            y: ya,
            health,
            cause,
        }
    }

    /// The valid actuation channels.
    pub fn inputs(&self) -> &[f64] {
        &self.u[..self.n_inputs]
    }

    /// The valid measurement channels.
    pub fn outputs(&self) -> &[f64] {
        &self.y[..self.n_outputs]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_truncates_and_slices() {
        let u = Vector::from_slice(&[1.3, 6.0]);
        let y = Vector::from_slice(&[2.9, 1.8]);
        let r = EpochRecord::capture(7, Some(3), &u, &y, Health::Healthy, None);
        assert_eq!(r.inputs(), &[1.3, 6.0]);
        assert_eq!(r.outputs(), &[2.9, 1.8]);
        assert_eq!(r.epoch, 7);
        assert_eq!(r.core, Some(3));
        // Wider than MAX_CHANNELS: truncated, not allocated.
        let wide = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = EpochRecord::capture(0, None, &wide, &wide, Health::Healthy, None);
        assert_eq!(r.n_inputs, MAX_CHANNELS);
        assert_eq!(r.inputs(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn cause_codes_project_from_epoch_causes() {
        let c: CauseCode = (&EpochCause::NonFiniteMeasurement { channel: 1 }).into();
        assert_eq!(c, CauseCode::NonFiniteMeasurement);
        assert_eq!(c.as_str(), "non_finite_measurement");
        let c: CauseCode = (&EpochCause::NonFiniteActuation { channel: 0 }).into();
        assert_eq!(c, CauseCode::NonFiniteActuation);
        // Every code has a distinct label.
        let all = [
            CauseCode::NonFiniteMeasurement,
            CauseCode::NonFiniteActuation,
            CauseCode::Governor,
            CauseCode::Plant,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.as_str(), b.as_str());
            }
        }
    }

    #[test]
    fn health_labels_are_stable() {
        assert_eq!(Health::Healthy.as_str(), "healthy");
        assert_eq!(Health::Degraded.as_str(), "degraded");
        assert_eq!(Health::Quarantined.as_str(), "quarantined");
    }
}
