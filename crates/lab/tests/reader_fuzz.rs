//! Mutation fuzzing of the strict JSON reader and everything built on it:
//! a rendered shard partial, a metrics snapshot, a sweep summary and both
//! pinned Chrome traces get bytes set, bits flipped, tails cut and slices
//! spliced in, and every reader must answer `Ok` or `Err` — never panic,
//! never abort on a hostile allocation size.

use std::sync::OnceLock;

use proptest::prelude::*;

use lbica_lab::{JsonSink, PartialSweep, ScenarioMatrix, SweepExecutor};
use lbica_obs::{json, validate, MetricsRegistry};

fn documents() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let matrix = ScenarioMatrix::smoke();
        let partial = PartialSweep::collect(&SweepExecutor::serial(), &matrix, "smoke", 0, 2);
        let mut registry = MetricsRegistry::new();
        let ops = registry.counter("lbica_ops_total", "ops");
        registry.add(ops, 7);
        let depth = registry.gauge("lbica_queue_depth", "queue depth");
        registry.set(depth, 3);
        let latency = registry.histogram("lbica_latency_us", "latency");
        registry.record_us(latency, 1_500);
        vec![
            partial.render(),
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
    if let Ok(partial) = PartialSweep::parse(text) {
        // Whatever parses re-renders to itself and merges without panicking.
        assert_eq!(PartialSweep::parse(&partial.render()).as_ref(), Ok(&partial));
        let _ = PartialSweep::merge(std::slice::from_ref(&partial));
    }
}

#[test]
fn unmutated_documents_parse() {
    for doc in documents() {
        json::parse(doc).expect("every written document parses");
    }
    PartialSweep::parse(&documents()[0]).expect("the partial parses");
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
