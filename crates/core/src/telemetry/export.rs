//! Trace exporters: JSONL writers that drain outside the hot loop.
//!
//! The hot loop only ever appends to the ring buffer; serialization
//! happens after the run (or between runs), when a driver drains the ring
//! through these helpers. Records contain only finite floats (the engine
//! restores last-good buffers on faulted epochs), so plain `Display`
//! formatting yields valid JSON numbers.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use super::record::EpochRecord;

/// Appends one record as a single JSON line (no trailing newline) to
/// `out`. The schema is documented in EXPERIMENTS.md:
///
/// ```json
/// {"type":"epoch","core":3,"epoch":17,"u":[1.3,6.0],"y":[2.91,1.88],
///  "health":"degraded","cause":"non_finite_measurement"}
/// ```
///
/// `core` is omitted for non-fleet loops and `cause` for healthy epochs.
pub fn record_to_json(rec: &EpochRecord, out: &mut String) {
    out.push_str("{\"type\":\"epoch\"");
    if let Some(core) = rec.core {
        let _ = write!(out, ",\"core\":{core}");
    }
    let _ = write!(out, ",\"epoch\":{}", rec.epoch);
    out.push_str(",\"u\":[");
    for (i, v) in rec.inputs().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push_str("],\"y\":[");
    for (i, v) in rec.outputs().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    let _ = write!(out, "],\"health\":\"{}\"", rec.health.as_str());
    if let Some(cause) = rec.cause {
        let _ = write!(out, ",\"cause\":\"{}\"", cause.as_str());
    }
    out.push('}');
}

/// Writes records as JSON Lines (one object per line).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_jsonl<W: Write>(w: &mut W, records: &[EpochRecord]) -> io::Result<()> {
    let mut line = String::new();
    for rec in records {
        line.clear();
        record_to_json(rec, &mut line);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Writes records as JSON Lines to a file, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_jsonl<P: AsRef<Path>>(path: P, records: &[EpochRecord]) -> io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut buf = Vec::new();
    write_jsonl(&mut buf, records)?;
    fs::write(path, buf)
}

#[cfg(test)]
mod tests {
    use super::super::record::{CauseCode, Health};
    use super::*;
    use mimo_linalg::Vector;

    fn records() -> Vec<EpochRecord> {
        let u = Vector::from_slice(&[1.3, 6.0]);
        let y = Vector::from_slice(&[2.5, 1.875]);
        vec![
            EpochRecord::capture(0, None, &u, &y, Health::Healthy, None),
            EpochRecord::capture(
                1,
                Some(3),
                &u,
                &y,
                Health::Degraded,
                Some(CauseCode::NonFiniteMeasurement),
            ),
        ]
    }

    #[test]
    fn jsonl_schema_round_trips_key_fields() {
        let mut out = Vec::new();
        write_jsonl(&mut out, &records()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"type\":\"epoch\",\"epoch\":0,\"u\":[1.3,6],\"y\":[2.5,1.875],\"health\":\"healthy\"}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"epoch\",\"core\":3,\"epoch\":1,\"u\":[1.3,6],\"y\":[2.5,1.875],\
             \"health\":\"degraded\",\"cause\":\"non_finite_measurement\"}"
        );
    }

    #[test]
    fn empty_batch_writes_nothing() {
        let mut out = Vec::new();
        write_jsonl(&mut out, &[]).unwrap();
        assert!(out.is_empty());
    }
}
