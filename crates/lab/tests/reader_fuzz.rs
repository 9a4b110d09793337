//! Mutation fuzzing of the strict JSON reader and everything built on it:
//! a telemetry JSONL stream, a metrics snapshot, a sweep summary and both
//! pinned Chrome traces get bytes set, bits flipped, tails cut and slices
//! spliced in, and every reader must answer `Ok` or `Err` — never panic,
//! never abort on a hostile allocation size.

use std::sync::OnceLock;

use proptest::prelude::*;

use lbica_lab::{
    CellTelemetry, JsonSink, JsonlTelemetry, ScenarioMatrix, SweepExecutor, SweepTelemetry,
    TelemetryEvent, TelemetryHook,
};
use lbica_obs::validate::TelemetryStats;
use lbica_obs::{json, validate, MetricsRegistry};

/// A three-record telemetry stream (start, one cell, end) over smoke cell
/// 0. The wall-clock fields are set by hand so the corpus is the same on
/// every run.
fn telemetry_stream(matrix: &ScenarioMatrix) -> String {
    let scenario = matrix.cell(0).expect("smoke has cells");
    let report = scenario.run();
    let events = report.perf.events_processed;
    let hook = JsonlTelemetry::from_writer(Vec::new());
    hook.record(TelemetryEvent::SweepStart { matrix: "smoke", cells: 1, jobs: 1 });
    let cell = CellTelemetry {
        index: 0,
        id: scenario.id(),
        worker: 0,
        wall_us: 1_000,
        events,
        events_per_sec: 1_000.0 * events as f64,
        completed: 1,
        total: 1,
    };
    hook.record(TelemetryEvent::Cell { cell: &cell, report: &report });
    let telemetry = SweepTelemetry {
        matrix: "smoke".to_string(),
        jobs: 1,
        cells: 1,
        wall_us: 1_200,
        events,
        events_per_sec: 1_000_000.0 * events as f64 / 1_200.0,
        worker_busy_us: vec![1_000],
        worker_utilization: 1_000.0 / 1_200.0,
    };
    hook.record(TelemetryEvent::SweepEnd { telemetry: &telemetry });
    String::from_utf8(hook.into_inner()).expect("the stream is UTF-8")
}

fn documents() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let matrix = ScenarioMatrix::smoke();
        let mut registry = MetricsRegistry::new();
        let ops = registry.counter("lbica_ops_total", "ops");
        registry.add(ops, 7);
        let depth = registry.gauge("lbica_queue_depth", "queue depth");
        registry.set(depth, 3);
        let latency = registry.histogram("lbica_latency_us", "latency");
        registry.record_us(latency, 1_500);
        vec![
            telemetry_stream(&matrix),
            registry.snapshot().render_json(),
            JsonSink::render(&SweepExecutor::serial().aggregate(&matrix)),
            include_str!("../../../figures/paper_cell0.trace.json").to_string(),
            include_str!("../../../figures/tier_policy_cell11.trace.json").to_string(),
        ]
    })
}

/// Fragments of JSON syntax (and multi-byte characters) spliced in by the
/// token mutation, so escapes, numbers and nesting get cut mid-way.
const TOKENS: &[&str] = &[
    "\\", "\\u", "\\u00", "\"", "[", "{", "]", "}", ",", ":", "-", ".", "0", "\u{e9}", "\u{2192}",
    "true", "null",
];

/// Applies one mutation to `bytes`: `op` picks set / flip / truncate /
/// splice / token, `at` and `from` pick offsets, `value` the byte, bit,
/// length or token.
fn mutate(bytes: &mut Vec<u8>, op: u8, at: usize, from: usize, value: u8) {
    if bytes.is_empty() {
        return;
    }
    let at = at % bytes.len();
    match op {
        0 => bytes[at] = value,
        1 => bytes[at] ^= 1 << (value % 8),
        2 => bytes.truncate(at),
        3 => {
            let token = TOKENS[usize::from(value) % TOKENS.len()].bytes();
            bytes.splice(at..at, token);
        }
        _ => {
            let from = from % bytes.len();
            let end = (from + usize::from(value)).min(bytes.len());
            let slice = bytes[from..end].to_vec();
            bytes.splice(at..at, slice);
        }
    }
}

fn read_everything(text: &str) {
    let _ = json::parse(text);
    let _ = validate::metrics_json(text);
    let _ = validate::chrome_trace(text);
    let _ = validate::telemetry_jsonl(text);
}

#[test]
fn unmutated_documents_parse() {
    let (stream, rest) = documents().split_first().expect("the corpus is not empty");
    for line in stream.lines() {
        json::parse(line).expect("every telemetry record parses");
    }
    assert_eq!(validate::telemetry_jsonl(stream), Ok(TelemetryStats { records: 3, cells: 1 }));
    for doc in rest {
        json::parse(doc).expect("every written document parses");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_documents_never_panic_a_reader(
        doc in 0usize..5,
        mutations in proptest::collection::vec(
            (0u8..5, any::<usize>(), any::<usize>(), any::<u8>()),
            1..6,
        ),
    ) {
        let mut bytes = documents()[doc].clone().into_bytes();
        for (op, at, from, value) in mutations {
            mutate(&mut bytes, op, at, from, value);
        }
        read_everything(&String::from_utf8_lossy(&bytes));
    }
}
