//! Exporter from a [`TraceRing`] to Chrome trace-event JSON.
//!
//! The output is the object-form trace format (`{"traceEvents": [...]}`)
//! understood by `chrome://tracing` and <https://ui.perfetto.dev>: load the
//! file and the simulation renders as a timeline — interval spans on one
//! track, queue-depth counters above it, controller activity (bursts,
//! policy changes, spills) on a second track. Timestamps are sim-time
//! microseconds, which is exactly the unit the trace format expects.

use crate::escape;
use crate::ring::{TraceEvent, TraceEventKind, TraceRing};

/// Process id used for all emitted events.
const PID: u32 = 1;
/// Thread id for the interval/queue-depth track.
const TID_INTERVALS: u32 = 1;
/// Thread id for the controller-activity track.
const TID_CONTROLLER: u32 = 2;

/// Renders the ring as a Chrome trace-event JSON document.
///
/// `label` names the trace (shown as the process name in Perfetto) —
/// typically the sweep cell id.
pub fn render(ring: &TraceRing, label: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("\"displayTimeUnit\": \"ms\",\n");
    out.push_str(&format!(
        "\"otherData\": {{\"generator\": \"lbica-obs\", \"cell\": \"{}\", \
         \"sampled_out\": {}, \"overwritten\": {}}},\n",
        escape::json(label),
        ring.sampled_out(),
        ring.overwritten()
    ));
    out.push_str("\"traceEvents\": [\n");
    let mut events = vec![
        format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {PID}, \
             \"args\": {{\"name\": \"lbica: {}\"}}}}",
            escape::json(label)
        ),
        format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {PID}, \
             \"tid\": {TID_INTERVALS}, \"args\": {{\"name\": \"intervals\"}}}}"
        ),
        format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {PID}, \
             \"tid\": {TID_CONTROLLER}, \"args\": {{\"name\": \"controller\"}}}}"
        ),
    ];
    events.extend(ring.iter().map(render_event));
    out.push_str(&events.join(",\n"));
    out.push_str("\n]\n}\n");
    out
}

fn render_event(event: &TraceEvent) -> String {
    let ts = event.ts_us;
    match &event.kind {
        TraceEventKind::IntervalRollover { interval, cache_completed, disk_completed } => format!(
            "{{\"name\": \"interval {interval}\", \"ph\": \"X\", \"ts\": {ts}, \
             \"dur\": {}, \"pid\": {PID}, \"tid\": {TID_INTERVALS}, \
             \"args\": {{\"cache_completed\": {cache_completed}, \
             \"disk_completed\": {disk_completed}}}}}",
            event.dur_us
        ),
        TraceEventKind::BurstDetected { interval } => format!(
            "{{\"name\": \"burst\", \"ph\": \"i\", \"ts\": {ts}, \"pid\": {PID}, \
             \"tid\": {TID_CONTROLLER}, \"s\": \"p\", \
             \"args\": {{\"interval\": {interval}}}}}"
        ),
        TraceEventKind::PolicyChange { interval, policy } => format!(
            "{{\"name\": \"policy \\u2192 {}\", \"ph\": \"i\", \"ts\": {ts}, \
             \"pid\": {PID}, \"tid\": {TID_CONTROLLER}, \"s\": \"t\", \
             \"args\": {{\"interval\": {interval}}}}}",
            escape::json(policy.as_str())
        ),
        TraceEventKind::Bypass { interval, requests } => format!(
            "{{\"name\": \"bypass\", \"ph\": \"i\", \"ts\": {ts}, \"pid\": {PID}, \
             \"tid\": {TID_CONTROLLER}, \"s\": \"t\", \
             \"args\": {{\"interval\": {interval}, \"requests\": {requests}}}}}"
        ),
        TraceEventKind::SpillWrites { interval, requests } => format!(
            "{{\"name\": \"spill writes\", \"ph\": \"i\", \"ts\": {ts}, \"pid\": {PID}, \
             \"tid\": {TID_CONTROLLER}, \"s\": \"t\", \
             \"args\": {{\"interval\": {interval}, \"requests\": {requests}}}}}"
        ),
        TraceEventKind::SpillReads { interval, requests } => format!(
            "{{\"name\": \"spill reads\", \"ph\": \"i\", \"ts\": {ts}, \"pid\": {PID}, \
             \"tid\": {TID_CONTROLLER}, \"s\": \"t\", \
             \"args\": {{\"interval\": {interval}, \"requests\": {requests}}}}}"
        ),
        TraceEventKind::Promotions { interval, blocks } => format!(
            "{{\"name\": \"promotions\", \"ph\": \"i\", \"ts\": {ts}, \"pid\": {PID}, \
             \"tid\": {TID_CONTROLLER}, \"s\": \"t\", \
             \"args\": {{\"interval\": {interval}, \"blocks\": {blocks}}}}}"
        ),
        TraceEventKind::Demotions { interval, blocks } => format!(
            "{{\"name\": \"demotions\", \"ph\": \"i\", \"ts\": {ts}, \"pid\": {PID}, \
             \"tid\": {TID_CONTROLLER}, \"s\": \"t\", \
             \"args\": {{\"interval\": {interval}, \"blocks\": {blocks}}}}}"
        ),
        TraceEventKind::QueueHighWater { interval, tier, depth } => format!(
            "{{\"name\": \"{} queue depth\", \"ph\": \"C\", \"ts\": {ts}, \
             \"pid\": {PID}, \"tid\": {TID_INTERVALS}, \
             \"args\": {{\"depth\": {depth}, \"interval\": {interval}}}}}",
            escape::json(tier.as_str())
        ),
        TraceEventKind::ControllerDecision {
            interval,
            cache_qtime_us,
            disk_qtime_us,
            burst,
            group,
        } => {
            format!(
                "{{\"name\": \"decision\", \"ph\": \"i\", \"ts\": {ts}, \"pid\": {PID}, \
                 \"tid\": {TID_CONTROLLER}, \"s\": \"t\", \
                 \"args\": {{\"interval\": {interval}, \"cache_qtime_us\": {cache_qtime_us}, \
                 \"disk_qtime_us\": {disk_qtime_us}, \"burst\": {burst}, \
                 \"group\": \"{}\"}}}}",
                escape::json(group.as_str())
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::SmallLabel;

    fn ring_with(kinds: Vec<(u64, u64, TraceEventKind)>) -> TraceRing {
        let mut ring = TraceRing::new(64);
        for (ts_us, dur_us, kind) in kinds {
            ring.record(TraceEvent { ts_us, dur_us, kind });
        }
        ring
    }

    #[test]
    fn renders_all_kinds_with_balanced_json() {
        let ring = ring_with(vec![
            (
                0,
                1_000_000,
                TraceEventKind::IntervalRollover {
                    interval: 0,
                    cache_completed: 10,
                    disk_completed: 4,
                },
            ),
            (1_000_000, 0, TraceEventKind::BurstDetected { interval: 0 }),
            (
                1_000_000,
                0,
                TraceEventKind::PolicyChange { interval: 1, policy: SmallLabel::new("WT") },
            ),
            (1_000_000, 0, TraceEventKind::Bypass { interval: 0, requests: 12 }),
            (1_000_000, 0, TraceEventKind::SpillWrites { interval: 0, requests: 3 }),
            (1_000_000, 0, TraceEventKind::SpillReads { interval: 0, requests: 2 }),
            (1_000_000, 0, TraceEventKind::Promotions { interval: 0, blocks: 5 }),
            (1_000_000, 0, TraceEventKind::Demotions { interval: 0, blocks: 6 }),
            (
                1_000_000,
                0,
                TraceEventKind::QueueHighWater {
                    interval: 0,
                    tier: SmallLabel::new("cache"),
                    depth: 42,
                },
            ),
            (
                1_000_000,
                0,
                TraceEventKind::ControllerDecision {
                    interval: 0,
                    cache_qtime_us: 900,
                    disk_qtime_us: 8_000,
                    burst: true,
                    group: SmallLabel::new("WriteIntensive"),
                },
            ),
        ]);
        let json = render(&ring, "tpcc/tiny/lbica/s42");
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"C\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"ph\": \"M\""));
        assert!(json.contains("\"dur\": 1000000"));
        assert!(json.contains("cache queue depth"));
        crate::json::parse(&json).expect("trace parses");
    }

    #[test]
    fn escapes_labels_in_names() {
        let ring = ring_with(vec![(
            0,
            0,
            TraceEventKind::PolicyChange { interval: 0, policy: SmallLabel::new("W\"B") },
        )]);
        let json = render(&ring, "cell \"quoted\"");
        assert!(json.contains("policy \\u2192 W\\\"B"), "policy label not escaped: {json}");
        assert!(json.contains("\\\"quoted\\\""), "cell label not escaped: {json}");
        // Still well-formed after escaping, and the labels read back.
        let doc = crate::json::parse(&json).expect("trace parses");
        assert_eq!(doc.field("otherData").unwrap().str_field("cell").unwrap(), "cell \"quoted\"");
    }

    #[test]
    fn empty_ring_renders_only_metadata() {
        let json = render(&TraceRing::new(8), "empty");
        assert!(json.contains("process_name"));
        assert!(!json.contains("\"ph\": \"X\""));
        crate::json::parse(&json).expect("trace parses");
    }
}
