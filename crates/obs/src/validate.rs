//! Structural validators for observability artifacts.
//!
//! The vendored `serde` stub means the workspace has no general JSON
//! parser, so CI validates telemetry artifacts structurally: a
//! string-aware balance check plus required schema markers and keys. The
//! checks are deliberately structural — enough to catch truncated files,
//! broken escaping and schema drift without a full parser.

use crate::metrics::METRICS_SCHEMA;

/// Schema identifier stamped on the first record of a telemetry JSONL
/// stream.
pub const TELEMETRY_SCHEMA: &str = "lbica-telemetry/v1";

/// Checks that `s` is non-empty, has balanced `{}`/`[]` outside string
/// literals, and terminates outside a string.
fn check_balanced(s: &str) -> Result<(), String> {
    if s.trim().is_empty() {
        return Err("document is empty".into());
    }
    let mut stack: Vec<char> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for ch in s.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_string = false;
            }
            continue;
        }
        match ch {
            '"' => in_string = true,
            '{' => stack.push('}'),
            '[' => stack.push(']'),
            '}' | ']' if stack.pop() != Some(ch) => {
                return Err(format!("mismatched closing bracket {ch:?}"));
            }
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string literal".into());
    }
    if !stack.is_empty() {
        return Err(format!("unbalanced brackets ({} unclosed at end)", stack.len()));
    }
    Ok(())
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
    check_balanced(s)?;
    if !s.contains(&format!("\"schema\": \"{METRICS_SCHEMA}\"")) {
        return Err(format!("missing schema marker {METRICS_SCHEMA:?}"));
    }
    for key in ["\"counters\":", "\"gauges\":", "\"histograms\":"] {
        if !s.contains(key) {
            return Err(format!("missing required key {key}"));
        }
    }
    Ok(MetricsStats {
        scalars: s.matches("\"value\":").count(),
        histograms: s.matches("\"count\":").count(),
    })
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
    check_balanced(s)?;
    if !s.contains("\"traceEvents\":") {
        return Err("missing \"traceEvents\" key".into());
    }
    let events = s.matches("\"ph\":").count();
    if events == 0 {
        return Err("trace contains no events".into());
    }
    if !s.contains("\"ph\": \"M\"") {
        return Err("trace is missing metadata (process/thread name) events".into());
    }
    Ok(TraceStats {
        events,
        spans: s.matches("\"ph\": \"X\"").count(),
        counters: s.matches("\"ph\": \"C\"").count(),
    })
}

/// Summary of a validated telemetry JSONL stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryStats {
    /// Total records in the stream.
    pub records: usize,
    /// Per-cell records.
    pub cells: usize,
    /// Shard-merge records.
    pub shards: usize,
}

/// Validates a telemetry JSONL stream: every line is a balanced object
/// with a `type` tag, the stream opens with a schema-tagged `start` record
/// and closes with an `end` record.
pub fn telemetry_jsonl(s: &str) -> Result<TelemetryStats, String> {
    let lines: Vec<&str> = s.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err("telemetry stream is empty".into());
    }
    let mut stats = TelemetryStats { records: 0, cells: 0, shards: 0 };
    for (i, line) in lines.iter().enumerate() {
        check_balanced(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if !line.starts_with("{\"type\": \"") {
            return Err(format!("line {}: record has no leading type tag", i + 1));
        }
        stats.records += 1;
        if line.starts_with("{\"type\": \"cell\"") {
            stats.cells += 1;
        } else if line.starts_with("{\"type\": \"shard_merged\"") {
            stats.shards += 1;
        }
    }
    let first = lines[0];
    if !first.starts_with("{\"type\": \"start\"") {
        return Err("first record must have type \"start\"".into());
    }
    if !first.contains(&format!("\"schema\": \"{TELEMETRY_SCHEMA}\"")) {
        return Err(format!("start record is missing schema marker {TELEMETRY_SCHEMA:?}"));
    }
    if !lines[lines.len() - 1].starts_with("{\"type\": \"end\"") {
        return Err("last record must have type \"end\"".into());
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
        // Balanced but event-free.
        assert!(chrome_trace("{\"traceEvents\": []}").is_err());
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
        assert!(telemetry_jsonl("").is_err());
    }

    #[test]
    fn balance_checker_is_string_aware() {
        assert!(check_balanced("{\"a\": \"}{][\"}").is_ok());
        assert!(check_balanced("{\"a\": \"\\\"}\"}").is_ok());
        assert!(check_balanced("{]").is_err());
        assert!(check_balanced("{\"a").is_err());
    }
}
