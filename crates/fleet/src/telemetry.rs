//! Fleet-level telemetry: per-core sink results plus the merged view.
//!
//! Every core in a traced fleet run carries its own
//! [`TelemetrySink`](mimo_core::telemetry::TelemetrySink), so the hot loop
//! never shares telemetry state between cores (or, in a cluster, across
//! shard threads). When the run ends each chip drains its cores' sinks
//! into [`CoreTelemetry`] and merges the per-core [`Metrics`] — in core
//! order, so the result is bit-identical no matter how many shards
//! stepped the chips.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use mimo_core::telemetry::{self, EpochRecord, Metrics, QuarantineEvent, RunSummary};
use mimo_sim::fault::FAULT_KIND_COUNT;

/// Per-kind labels for the injected-fault counters, indexed like
/// [`mimo_sim::fault::FaultKind::index`].
const FAULT_KIND_LABELS: [&str; FAULT_KIND_COUNT] = [
    "stuck_sensor",
    "nan_measurement",
    "actuator_stuck_at",
    "power_spike",
];

/// One core's drained telemetry after a fleet run.
#[derive(Debug, Clone)]
pub struct CoreTelemetry {
    /// Core index within the fleet.
    pub core: usize,
    /// The ring trace's surviving records, oldest → newest.
    pub trace: Vec<EpochRecord>,
    /// The core's aggregated counters and histograms.
    pub metrics: Metrics,
    /// First quarantine latch on this core, if any.
    pub quarantine: Option<QuarantineEvent>,
    /// End-of-run summary from the core's engine.
    pub summary: Option<RunSummary>,
    /// Fault-injector corruption counts, bucketed by
    /// [`mimo_sim::fault::FaultKind::index`].
    pub injected_faults: [u64; FAULT_KIND_COUNT],
}

/// Whole-fleet telemetry for one run: the merged metrics plus every core's
/// drained sink. Returned by `FleetRunner::run_traced`; empty (and
/// disabled) when the config leaves telemetry off.
#[derive(Debug, Clone, Default)]
pub struct FleetTelemetry {
    /// All per-core metrics merged in core order.
    pub metrics: Metrics,
    /// Per-core breakdowns, indexed by core.
    pub per_core: Vec<CoreTelemetry>,
}

impl FleetTelemetry {
    /// Merges per-core telemetry into the fleet view. Merge order is the
    /// core order of `per_core`, which makes the reduction deterministic.
    pub fn from_cores(per_core: Vec<CoreTelemetry>) -> Self {
        let mut metrics = Metrics::new();
        for core in &per_core {
            metrics.merge(&core.metrics);
        }
        FleetTelemetry { metrics, per_core }
    }

    /// Whether any core produced telemetry (false for untraced runs).
    pub fn is_enabled(&self) -> bool {
        !self.per_core.is_empty()
    }

    /// Quarantine events across the fleet, in core order.
    pub fn quarantines(&self) -> Vec<QuarantineEvent> {
        self.per_core.iter().filter_map(|c| c.quarantine).collect()
    }

    /// Writes the trace as JSON Lines. Per core (in core order): one
    /// `"epoch"` line per surviving trace record, a `"quarantine"` line if
    /// the core latched, and a closing `"core_end"` summary line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut line = String::new();
        for core in &self.per_core {
            telemetry::write_jsonl(w, &core.trace)?;
            if let Some(q) = &core.quarantine {
                line.clear();
                let _ = write!(
                    line,
                    "{{\"type\":\"quarantine\",\"core\":{},\"epoch\":{},\"cause\":\"{}\"",
                    core.core,
                    q.epoch,
                    q.cause.as_str()
                );
                if let Some(channel) = q.channel {
                    let _ = write!(line, ",\"channel\":{channel}");
                }
                line.push_str("}\n");
                w.write_all(line.as_bytes())?;
            }
            line.clear();
            let _ = write!(
                line,
                "{{\"type\":\"core_end\",\"core\":{},\"epochs\":{},\"fault_epochs\":{},\
                 \"quarantined\":{},\"trace_len\":{}",
                core.core,
                core.metrics.epochs,
                core.metrics.fault_epochs,
                core.quarantine.is_some(),
                core.trace.len()
            );
            if core.injected_faults.iter().any(|&c| c > 0) {
                line.push_str(",\"injected_faults\":{");
                let mut first = true;
                for (label, &count) in FAULT_KIND_LABELS.iter().zip(&core.injected_faults) {
                    if count > 0 {
                        if !first {
                            line.push(',');
                        }
                        let _ = write!(line, "\"{label}\":{count}");
                        first = false;
                    }
                }
                line.push('}');
            }
            line.push_str("}\n");
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// Writes the JSONL trace to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_jsonl<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf)?;
        fs::write(path, buf)
    }
}

/// Whole-cluster telemetry: one drained [`FleetTelemetry`] per chip, in
/// chip order, plus the cluster-wide merged metrics. Returned by
/// `ClusterRunner::run_traced`; empty when the config leaves telemetry off.
#[derive(Debug, Clone, Default)]
pub struct ClusterTelemetry {
    /// Every chip's metrics merged in chip order (shard-count independent).
    pub metrics: Metrics,
    /// Per-chip telemetry, indexed by chip.
    pub per_chip: Vec<FleetTelemetry>,
}

impl ClusterTelemetry {
    /// Merges per-chip telemetry into the cluster view, in chip order.
    pub fn from_chips(per_chip: Vec<FleetTelemetry>) -> Self {
        let mut metrics = Metrics::new();
        for chip in &per_chip {
            metrics.merge(&chip.metrics);
        }
        ClusterTelemetry { metrics, per_chip }
    }

    /// Whether any chip produced telemetry (false for untraced runs).
    pub fn is_enabled(&self) -> bool {
        self.per_chip.iter().any(FleetTelemetry::is_enabled)
    }

    /// Writes every chip's trace as JSON Lines, separated by a
    /// `"chip_end"` marker line carrying the chip index.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for (chip, tele) in self.per_chip.iter().enumerate() {
            tele.write_jsonl(w)?;
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"type\":\"chip_end\",\"chip\":{chip},\"cores\":{},\"epochs\":{}}}",
                tele.per_core.len(),
                tele.metrics.epochs
            );
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_core::telemetry::{CauseCode, Health};
    use mimo_linalg::Vector;

    fn core_tele(core: usize, epochs: u64) -> CoreTelemetry {
        let mut metrics = Metrics::new();
        let u = Vector::from_slice(&[1.3, 6.0]);
        let y = Vector::from_slice(&[2.5, 1.875]);
        let mut trace = Vec::new();
        for e in 0..epochs {
            let rec = EpochRecord::capture(e, Some(core), &u, &y, Health::Healthy, None);
            metrics.record(&rec);
            trace.push(rec);
        }
        CoreTelemetry {
            core,
            trace,
            metrics,
            quarantine: None,
            summary: None,
            injected_faults: [0; FAULT_KIND_COUNT],
        }
    }

    #[test]
    fn merge_runs_in_core_order_and_sums_epochs() {
        let fleet = FleetTelemetry::from_cores(vec![core_tele(0, 3), core_tele(1, 5)]);
        assert!(fleet.is_enabled());
        assert_eq!(fleet.metrics.epochs, 8);
        assert_eq!(fleet.per_core.len(), 2);
        assert!(fleet.quarantines().is_empty());
        assert!(!FleetTelemetry::default().is_enabled());
    }

    #[test]
    fn jsonl_emits_epoch_quarantine_and_core_end_lines() {
        let mut core = core_tele(2, 2);
        core.quarantine = Some(QuarantineEvent {
            epoch: 1,
            core: Some(2),
            cause: CauseCode::NonFiniteMeasurement,
            channel: Some(0),
        });
        core.injected_faults[1] = 4;
        let fleet = FleetTelemetry::from_cores(vec![core]);
        let mut out = Vec::new();
        fleet.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"type\":\"epoch\",\"core\":2,\"epoch\":0"));
        assert_eq!(
            lines[2],
            "{\"type\":\"quarantine\",\"core\":2,\"epoch\":1,\
             \"cause\":\"non_finite_measurement\",\"channel\":0}"
        );
        assert_eq!(
            lines[3],
            "{\"type\":\"core_end\",\"core\":2,\"epochs\":2,\"fault_epochs\":0,\
             \"quarantined\":true,\"trace_len\":2,\
             \"injected_faults\":{\"nan_measurement\":4}}"
        );
    }

    #[test]
    fn cluster_telemetry_merges_chips_in_order() {
        let chip0 = FleetTelemetry::from_cores(vec![core_tele(0, 3)]);
        let chip1 = FleetTelemetry::from_cores(vec![core_tele(0, 5), core_tele(1, 2)]);
        let cluster = ClusterTelemetry::from_chips(vec![chip0, chip1]);
        assert!(cluster.is_enabled());
        assert_eq!(cluster.metrics.epochs, 10);
        let mut out = Vec::new();
        cluster.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("{\"type\":\"chip_end\",\"chip\":0,\"cores\":1,\"epochs\":3}"));
        assert!(text.contains("{\"type\":\"chip_end\",\"chip\":1,\"cores\":2,\"epochs\":7}"));
        assert!(!ClusterTelemetry::default().is_enabled());
    }
}
