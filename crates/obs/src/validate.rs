//! Validators for observability artifacts — the CI gate for telemetry
//! streams, metrics snapshots and Chrome traces.
//!
//! Each document is read with the strict [`json::parse`], then checked for
//! its schema marker and required keys; the summaries count parsed array
//! entries. A truncated file, broken escaping or schema drift is an error.

use crate::json::{self, Value};
use crate::metrics::METRICS_SCHEMA;

/// Schema identifier stamped on the first record of a telemetry JSONL
/// stream.
pub const TELEMETRY_SCHEMA: &str = "lbica-telemetry/v1";

fn has_schema(doc: &Value, schema: &str) -> bool {
    doc.str_field("schema").ok() == Some(schema)
}

/// Summary of a validated metrics snapshot document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsStats {
    /// Number of scalar entries (counters plus gauges).
    pub scalars: usize,
    /// Number of histogram entries.
    pub histograms: usize,
}

/// Validates a JSON metrics snapshot rendered by
/// [`MetricsSnapshot::render_json`](crate::MetricsSnapshot::render_json).
pub fn metrics_json(s: &str) -> Result<MetricsStats, String> {
    let doc = json::parse(s)?;
    if !has_schema(&doc, METRICS_SCHEMA) {
        return Err(format!("missing schema marker {METRICS_SCHEMA:?}"));
    }
    let len = |key| doc.array_field(key).map(<[Value]>::len);
    Ok(MetricsStats { scalars: len("counters")? + len("gauges")?, histograms: len("histograms")? })
}

/// Summary of a validated Chrome trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total trace events (including metadata records).
    pub events: usize,
    /// Complete ("X") span events.
    pub spans: usize,
    /// Counter ("C") events.
    pub counters: usize,
}

/// Validates a Chrome trace-event JSON document rendered by
/// [`chrome::render`](crate::chrome::render).
pub fn chrome_trace(s: &str) -> Result<TraceStats, String> {
    let doc = json::parse(s)?;
    let phases = doc
        .array_field("traceEvents")?
        .iter()
        .map(|event| event.str_field("ph"))
        .collect::<Result<Vec<_>, _>>()?;
    if phases.is_empty() {
        return Err("trace contains no events".into());
    }
    if !phases.contains(&"M") {
        return Err("trace is missing metadata (process/thread name) events".into());
    }
    let count = |ph| phases.iter().filter(|&&p| p == ph).count();
    Ok(TraceStats { events: phases.len(), spans: count("X"), counters: count("C") })
}

/// Summary of a validated telemetry JSONL stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryStats {
    /// Total records in the stream.
    pub records: usize,
    /// Per-cell records.
    pub cells: usize,
}

/// Validates a telemetry JSONL stream: every line is an object whose
/// first field is its `type` tag, the stream opens with a schema-tagged
/// `start` record and closes with an `end` record.
pub fn telemetry_jsonl(s: &str) -> Result<TelemetryStats, String> {
    let lines: Vec<&str> = s.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err("telemetry stream is empty".into());
    }
    let mut stats = TelemetryStats { records: 0, cells: 0 };
    for (i, line) in lines.iter().enumerate() {
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let kind = match &record {
            Value::Object(fields) => match fields.first() {
                Some((key, Value::Str(kind))) if key == "type" => kind.as_str(),
                _ => return Err(format!("line {}: record has no leading type tag", i + 1)),
            },
            _ => return Err(format!("line {}: record is not an object", i + 1)),
        };
        if i == 0 && kind != "start" {
            return Err("first record must have type \"start\"".into());
        }
        if i == 0 && !has_schema(&record, TELEMETRY_SCHEMA) {
            return Err(format!("start record is missing schema marker {TELEMETRY_SCHEMA:?}"));
        }
        if i + 1 == lines.len() && kind != "end" {
            return Err("last record must have type \"end\"".into());
        }
        stats.records += 1;
        if kind == "cell" {
            stats.cells += 1;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::ring::{TraceEvent, TraceEventKind, TraceRing};

    #[test]
    fn accepts_rendered_metrics_snapshot() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("lbica_ops_total", "ops");
        reg.add(c, 3);
        reg.histogram("lbica_lat_us", "latency");
        let stats = metrics_json(&reg.snapshot().render_json()).expect("valid snapshot");
        assert_eq!(stats.histograms, 1);
    }

    #[test]
    fn rejects_truncated_or_untagged_metrics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("lbica_ops_total", "ops");
        let json = reg.snapshot().render_json();
        assert!(metrics_json(&json[..json.len() - 3]).is_err());
        assert!(metrics_json(&json.replace("lbica-metrics/v1", "lbica-metrics/v0")).is_err());
        assert!(metrics_json("").is_err());
    }

    #[test]
    fn accepts_rendered_chrome_trace() {
        let mut ring = TraceRing::new(8);
        ring.record(TraceEvent {
            ts_us: 0,
            dur_us: 1_000,
            kind: TraceEventKind::IntervalRollover {
                interval: 0,
                cache_completed: 1,
                disk_completed: 1,
            },
        });
        let json = crate::chrome::render(&ring, "cell");
        let stats = chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.spans, 1);
        assert!(stats.events >= 4); // 3 metadata + 1 span
    }

    #[test]
    fn rejects_broken_chrome_trace() {
        assert!(chrome_trace("{\"traceEvents\": [").is_err());
        assert!(chrome_trace("{\"notTraceEvents\": []}").is_err());
        // Well-formed but event-free, phase-free or metadata-free.
        assert!(chrome_trace("{\"traceEvents\": []}").is_err());
        assert!(chrome_trace("{\"traceEvents\": [{\"name\": \"x\"}]}").is_err());
        assert!(chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
    }

    #[test]
    fn validates_telemetry_stream_shape() {
        let stream = format!(
            "{{\"type\": \"start\", \"schema\": \"{TELEMETRY_SCHEMA}\", \"cells\": 2}}\n\
             {{\"type\": \"cell\", \"index\": 0}}\n\
             {{\"type\": \"cell\", \"index\": 1}}\n\
             {{\"type\": \"end\", \"wall_us\": 10}}\n"
        );
        let stats = telemetry_jsonl(&stream).expect("valid stream");
        assert_eq!(stats.records, 4);
        assert_eq!(stats.cells, 2);

        // Missing end record.
        let truncated: String = stream.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(telemetry_jsonl(&truncated).is_err());
        // Wrong schema.
        assert!(telemetry_jsonl(&stream.replace("/v1", "/v0")).is_err());
        // Unbalanced line.
        assert!(telemetry_jsonl(&stream.replace("\"index\": 0}", "\"index\": 0")).is_err());
        // The type tag must be the first field.
        let late_tag =
            stream.replace("\"type\": \"cell\", \"index\": 0", "\"index\": 0, \"type\": \"cell\"");
        assert!(telemetry_jsonl(&late_tag).is_err());
        assert!(telemetry_jsonl("").is_err());
    }
}
