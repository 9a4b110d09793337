//! Validation of observability artifacts — the CI gate for telemetry
//! streams, metrics snapshots and Chrome traces.
//!
//! ```text
//! obs_validate telemetry  FILE.jsonl   # sweep --telemetry stream
//! obs_validate metrics    FILE.json    # folded metrics snapshot
//! obs_validate trace      FILE.json    # Chrome/Perfetto trace
//! ```
//!
//! Exits 0 and prints a one-line summary when the artifact is
//! well-formed; exits 1 with the reason otherwise. The checks are the
//! `lbica_obs::validate` validators: each document is read by the strict
//! `lbica_obs::json` reader, then checked for its schema marker and
//! required keys.

use std::env;
use std::fs;
use std::process::ExitCode;

use lbica_obs::validate;

const USAGE: &str = "usage: obs_validate telemetry|trace|metrics FILE";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (kind, path) = match args.as_slice() {
        [kind, path] => (kind.as_str(), path.as_str()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let summary = match kind {
        "telemetry" => validate::telemetry_jsonl(&text)
            .map(|s| format!("{} records ({} cells)", s.records, s.cells)),
        "trace" => validate::chrome_trace(&text)
            .map(|s| format!("{} events ({} spans, {} counters)", s.events, s.spans, s.counters)),
        "metrics" => validate::metrics_json(&text)
            .map(|s| format!("{} scalars, {} histograms", s.scalars, s.histograms)),
        other => {
            eprintln!("error: unknown artifact kind `{other}`");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match summary {
        Ok(desc) => {
            println!("{path}: valid {kind} ({desc})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
