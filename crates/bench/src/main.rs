//! The `lbica-bench` command line: one binary, three subcommands.
//!
//! ```text
//! lbica-bench sweep [--matrix NAME] [--jobs N] [--out DIR] [--telemetry FILE]
//!                   [--trace-cell IDX] [--checkpoint-cell IDX] [--list]
//! lbica-bench reproduce [--scale tiny|harness] [--jobs N] [--out DIR]
//!                       [--fig 4|5|6|7]... [--summary] [--all]
//! lbica-bench validate telemetry|metrics|trace FILE
//! ```
//!
//! * `sweep` runs a matrix of the `lbica-lab` registry
//!   ([`lbica_lab::MATRICES`]; `--list` prints it) and writes
//!   `sweep_<matrix>.csv` / `.json`. Results stream into the aggregator as
//!   cells complete, so the files are byte-identical for any `--jobs` and
//!   with or without `--telemetry` (a JSONL execution stream, with folded
//!   metrics snapshots written beside it). `--trace-cell IDX` re-runs one
//!   cell with the trace ring attached and writes a Chrome trace-event
//!   JSON stamped in sim-time; `--checkpoint-cell IDX` re-runs one cell
//!   split at its midpoint through a binary replay checkpoint and fails
//!   unless the resumed report is byte-identical to the straight run.
//! * `reproduce` runs the paper's 3 × 3 evaluation suite and writes the
//!   Fig. 4–7 CSVs and the headline table; no selection means `--all`.
//! * `validate` checks an observability artifact with the
//!   `lbica_obs::validate` validators and prints a one-line summary.
//!
//! Flag values are checked, and `--out` is created, before any cell runs.
//! A bad command line prints `error: …` and the subcommand's usage, a
//! failed run prints `error: …`; both exit 1.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use lbica_bench::csv::{
    fig4_cache_load_csv, fig5_disk_load_csv, fig6_policy_timeline_csv, fig7_avg_latency_csv,
    headline_table,
};
use lbica_bench::{run_suite, SuiteConfig};
use lbica_lab::telemetry::{FanOut, JsonlTelemetry, MetricsFold, StderrProgress, TelemetryHook};
use lbica_lab::{
    CsvSink, JsonSink, Scenario, ScenarioMatrix, SweepExecutor, SweepSummary, MATRICES,
};
use lbica_obs::{validate, SimObserver};

/// The subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Sweep,
    Reproduce,
    Validate,
}

/// Why a subcommand stopped before finishing a run.
#[derive(Debug)]
enum Stop {
    /// `--help` or `--list`: print the text on stdout and exit 0.
    Print(String),
    /// A bad command line: print the error and the usage of the
    /// subcommand (of the binary for `None`), exit 1.
    Usage(Option<Command>, String),
    /// The run failed: print the error, exit 1.
    Failed(String),
}

impl From<String> for Stop {
    fn from(message: String) -> Self {
        Stop::Failed(message)
    }
}

fn matrix_name_list() -> String {
    MATRICES.iter().map(|m| m.name).collect::<Vec<_>>().join("|")
}

/// The usage text of `command`, or of the binary for `None`.
fn usage(command: Option<Command>) -> String {
    match command {
        None => "\
usage: lbica-bench <sweep|reproduce|validate> [ARGS...]

subcommands:
  sweep      run a named scenario matrix into sweep_<matrix>.csv/.json
  reproduce  regenerate the paper's Fig. 4-7 CSVs and headline table
  validate   check a telemetry stream, metrics snapshot or Chrome trace

`lbica-bench <subcommand> --help` shows a subcommand's flags."
            .to_string(),
        Some(Command::Sweep) => format!(
            "\
usage: lbica-bench sweep [--matrix NAME] [--jobs N] [--out DIR]
                         [--telemetry FILE] [--trace-cell IDX]
                         [--checkpoint-cell IDX] [--list] [--help]

Runs a sweep matrix and writes sweep_<matrix>.csv/.json to --out.

flags:
  --matrix NAME    matrix to run (default: tiny; see --list):
                   {names}
  --jobs N         worker threads, 0 = one per core (default: 0)
  --out DIR        output directory (default: target/sweep)
  --telemetry FILE write a JSONL execution-telemetry stream to FILE plus folded
                   metrics snapshots beside it (FILE -> *.metrics.json/.prom);
                   wall-clock lands only here, never in the summaries
  --trace-cell IDX after the sweep, re-run cell IDX with the trace ring attached
                   and write sweep_<matrix>.cell<IDX>.trace.json (Chrome/
                   Perfetto trace-event format) into --out
  --checkpoint-cell IDX
                   after the sweep, re-run cell IDX split at its midpoint via a
                   binary-encoded replay checkpoint and fail unless the resumed
                   report is byte-identical to the straight run
  --list           list the named matrices and exit
  --help, -h       show this message",
            names = matrix_name_list()
        ),
        Some(Command::Reproduce) => "\
usage: lbica-bench reproduce [--scale tiny|harness] [--jobs N] [--out DIR]
                             [--fig 4|5|6|7]... [--summary] [--all] [--help]

Runs the 3x3 evaluation suite and writes the figure CSVs to --out
(default: target/repro); no --fig/--summary selection means --all."
            .to_string(),
        Some(Command::Validate) => {
            "usage: lbica-bench validate telemetry|metrics|trace FILE".into()
        }
    }
}

/// The arguments after the subcommand name.
struct Args {
    command: Command,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// A usage error of this subcommand.
    fn error(&self, message: String) -> Stop {
        Stop::Usage(Some(self.command), message)
    }

    /// Takes the value of `flag`, rejecting a missing value or one that
    /// looks like another flag (so `--out --summary` is a usage error, not
    /// a directory named `--summary`).
    fn value(&mut self, flag: &str, what: &str) -> Result<String, Stop> {
        match self.rest.next() {
            Some(v) if !v.starts_with("--") => Ok(v),
            _ => Err(self.error(format!("{flag} needs {what}"))),
        }
    }

    /// [`Args::value`] parsed as a `T`.
    fn parse<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, Stop> {
        let value = self.value(flag, what)?;
        value.parse().map_err(|_| self.error(format!("{flag} needs {what}")))
    }

    /// Handles a flag that `sweep` and `reproduce` share: `--jobs` and
    /// `--out` land in `run`, `--help` stops with the usage, and anything
    /// else is unknown.
    fn shared(&mut self, flag: &str, run: &mut RunFlags) -> Result<(), Stop> {
        match flag {
            "--jobs" => run.jobs = self.parse("--jobs", "a number")?,
            "--out" => run.out_dir = PathBuf::from(self.value("--out", "a directory")?),
            "--help" | "-h" => return Err(Stop::Print(usage(Some(self.command)))),
            other => return Err(self.error(format!("unknown argument `{other}`"))),
        }
        Ok(())
    }
}

/// `--jobs` and `--out`.
struct RunFlags {
    jobs: usize,
    out_dir: PathBuf,
}

impl RunFlags {
    fn new(out_dir: &str) -> Self {
        RunFlags { jobs: 0, out_dir: PathBuf::from(out_dir) }
    }

    /// Creates `--out`; called before any cell runs.
    fn create_out(&self) -> Result<(), String> {
        fs::create_dir_all(&self.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", self.out_dir.display()))
    }
}

fn print_summary(summary: &SweepSummary) {
    println!(
        "{:<18} {:>6} {:>14} {:>16} {:>16} {:>10}",
        "workload", "cells", "avg-latency-us", "cache-load-us", "disk-load-us", "bypassed"
    );
    for g in &summary.by_workload {
        println!(
            "{:<18} {:>6} {:>14.1} {:>16.1} {:>16.1} {:>10}",
            g.key,
            g.cells,
            g.avg_latency_us,
            g.avg_cache_load_us,
            g.avg_disk_load_us,
            g.bypassed_requests
        );
    }
    if !summary.lbica_vs_wb.is_empty() {
        println!();
        println!(
            "{:<18} {:>24} {:>24}",
            "LBICA vs WB", "cache-load reduction (%)", "latency improvement (%)"
        );
        for d in &summary.lbica_vs_wb {
            println!(
                "{:<18} {:>24.1} {:>24.1}",
                d.workload, d.cache_load_reduction_vs_wb_pct, d.latency_improvement_vs_wb_pct
            );
        }
    }
}

/// The `--telemetry` sinks: the JSONL event stream plus a metrics fold
/// whose snapshots land beside it when the sweep finishes.
struct TelemetrySinks {
    path: PathBuf,
    jsonl: JsonlTelemetry<std::io::BufWriter<fs::File>>,
    metrics: MetricsFold,
}

impl TelemetrySinks {
    /// Creates (truncating) the stream at `path`, making its parent first.
    fn create(path: &Path) -> Result<Self, String> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        let jsonl = JsonlTelemetry::create(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(TelemetrySinks { path: path.to_path_buf(), jsonl, metrics: MetricsFold::new() })
    }

    /// Flushes the stream and writes the folded metrics snapshots
    /// (`<path>.metrics.json` / `<path>.metrics.prom`, replacing the
    /// stream file's extension).
    fn finish(self) -> Result<(), String> {
        let snapshot = self.metrics.snapshot();
        drop(self.jsonl.into_inner());
        let json_path = self.path.with_extension("metrics.json");
        let prom_path = self.path.with_extension("metrics.prom");
        write_file(&json_path, snapshot.render_json())?;
        write_file(&prom_path, snapshot.render_prometheus())?;
        for path in [&self.path, &json_path, &prom_path] {
            println!("wrote {}", path.display());
        }
        Ok(())
    }
}

fn write_file(path: &Path, contents: String) -> Result<(), String> {
    fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn sweep(mut args: Args) -> Result<(), Stop> {
    let mut run = RunFlags::new("target/sweep");
    let mut name = "tiny".to_string();
    let (mut telemetry, mut trace_cell, mut checkpoint_cell) = (None, None, None);
    while let Some(flag) = args.rest.next() {
        match flag.as_str() {
            "--matrix" => name = args.value("--matrix", "a name (see --list)")?,
            "--telemetry" => {
                telemetry = Some(PathBuf::from(args.value("--telemetry", "a file path")?));
            }
            "--trace-cell" => trace_cell = Some(args.parse("--trace-cell", "a cell index")?),
            "--checkpoint-cell" => {
                checkpoint_cell = Some(args.parse("--checkpoint-cell", "a cell index")?);
            }
            "--list" => {
                let rows: Vec<String> =
                    MATRICES.iter().map(|def| format!("{:<13} {}", def.name, def.desc)).collect();
                return Err(Stop::Print(rows.join("\n")));
            }
            other => args.shared(other, &mut run)?,
        }
    }
    let matrix = ScenarioMatrix::named(&name)
        .ok_or_else(|| format!("unknown matrix `{name}` (try --list)"))?;

    // A bad --trace-cell, --checkpoint-cell or --out must fail fast, not
    // after a (possibly slow) sweep has already run.
    let pick = |flag: &str, index: usize| {
        matrix.cell(index).map(|cell| (index, cell)).ok_or_else(|| {
            format!("{flag} {index} is out of range: matrix `{name}` has {} cells", matrix.len())
        })
    };
    let traced = trace_cell.map(|i| pick("--trace-cell", i)).transpose()?;
    let checked = checkpoint_cell.map(|i| pick("--checkpoint-cell", i)).transpose()?;
    run.create_out()?;

    let executor = SweepExecutor::new(run.jobs);
    eprintln!(
        "sweeping matrix `{name}`: {} cells ({} workloads x {} configs x {} controllers x {} seeds) on {} worker(s)",
        matrix.len(),
        matrix.workloads().len(),
        matrix.configs().len(),
        matrix.controllers().len(),
        matrix.seeds().len(),
        executor.jobs(),
    );

    // One stderr status line per completion; the JSONL/metrics sinks
    // attach only under --telemetry. Either way the summary is
    // byte-identical.
    let sinks = telemetry.as_deref().map(TelemetrySinks::create).transpose()?;
    let stderr = StderrProgress;
    let mut hooks: Vec<&dyn TelemetryHook> = vec![&stderr];
    if let Some(s) = &sinks {
        hooks.push(&s.jsonl);
        hooks.push(&s.metrics);
    }
    let fan = FanOut::new(&hooks);

    let started = Instant::now();
    let summary = executor
        .aggregate_with_telemetry(&matrix, &name, &fan)
        // Per-tenant offered-load rows regenerate from the matrix definition,
        // never from execution, so attaching them keeps the summary
        // `--jobs`-independent; tenant-free matrices attach nothing.
        .with_tenant_rows(&matrix);
    eprintln!("sweep finished in {:.2?}", started.elapsed());
    drop(hooks);
    if let Some(s) = sinks {
        s.finish()?;
    }

    let csv_path = run.out_dir.join(format!("sweep_{name}.csv"));
    let json_path = run.out_dir.join(format!("sweep_{name}.json"));
    CsvSink::write_to(&csv_path, &summary)
        .map_err(|e| format!("cannot write {}: {e}", csv_path.display()))?;
    JsonSink::write_to(&json_path, &summary)
        .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
    print_summary(&summary);
    println!();
    println!("wrote {}", csv_path.display());
    println!("wrote {}", json_path.display());

    if let Some((index, cell)) = traced {
        write_cell_trace(&run.out_dir, &name, index, &cell)?;
    }
    if let Some((index, cell)) = checked {
        check_cell_checkpoint(index, &cell)?;
    }
    Ok(())
}

/// Re-runs cell `index` with the trace ring attached and writes the
/// Chrome trace-event JSON into `out_dir`. Runs *after* the sweep so the
/// sweep path itself stays observer-free.
fn write_cell_trace(
    out_dir: &Path,
    matrix: &str,
    index: usize,
    cell: &Scenario,
) -> Result<(), String> {
    eprintln!("tracing cell {index} (`{}`)", cell.id());
    let (_report, obs) = cell.run_observed(SimObserver::new());
    let path = out_dir.join(format!("sweep_{matrix}.cell{index}.trace.json"));
    write_file(&path, obs.render_chrome_trace(&cell.id()))?;
    println!(
        "wrote {} ({} trace events, {} sampled out)",
        path.display(),
        obs.ring().recorded(),
        obs.ring().sampled_out()
    );
    Ok(())
}

/// Re-runs cell `index` twice — once straight through, once split at its
/// midpoint interval with the replay checkpoint round-tripped through the
/// binary encoding — and fails unless the two reports are byte-identical.
fn check_cell_checkpoint(index: usize, cell: &Scenario) -> Result<(), String> {
    let direct = cell.run();
    let split = direct.total_intervals / 2;
    let resumed = cell
        .run_checkpointed(split)
        .map_err(|e| format!("cell {index} (`{}`): checkpoint failed: {e}", cell.id()))?;
    if direct != resumed {
        return Err(format!(
            "cell {index} (`{}`): checkpointed replay diverged from the unsplit run \
             at split interval {split}",
            cell.id()
        ));
    }
    println!(
        "checkpoint cell {index} (`{}`): split at {split}/{} is byte-identical",
        cell.id(),
        direct.total_intervals
    );
    Ok(())
}

fn reproduce(mut args: Args) -> Result<(), Stop> {
    let mut run = RunFlags::new("target/repro");
    let (mut scale, mut config) = ("harness".to_string(), SuiteConfig::harness());
    let (mut figures, mut summary) = (Vec::new(), false);
    while let Some(flag) = args.rest.next() {
        match flag.as_str() {
            "--scale" => {
                scale = args.value("--scale", "a value (tiny|harness)")?;
                config = match scale.as_str() {
                    "tiny" => SuiteConfig::tiny(),
                    "harness" | "full" => SuiteConfig::harness(),
                    other => {
                        return Err(args
                            .error(format!("unknown scale `{other}` (expected tiny or harness)")))
                    }
                };
            }
            "--fig" => {
                let n: u8 = args.parse("--fig", "a number (4-7)")?;
                if !(4..=7).contains(&n) {
                    return Err(
                        args.error(format!("unknown figure {n}; the paper has figures 4-7"))
                    );
                }
                figures.push(n);
            }
            "--summary" => summary = true,
            "--all" => (figures, summary) = (vec![4, 5, 6, 7], true),
            other => args.shared(other, &mut run)?,
        }
    }
    if figures.is_empty() && !summary {
        (figures, summary) = (vec![4, 5, 6, 7], true);
    }
    run.create_out()?;

    eprintln!(
        "running the 3x3 evaluation matrix at `{scale}` scale (all three workloads under WB, SIB and LBICA)..."
    );
    let suite = run_suite(&config, run.jobs);

    for fig in figures {
        let files = match fig {
            7 => vec![("fig7_avg_latency.csv".to_string(), fig7_avg_latency_csv(&suite))],
            _ => suite
                .workloads
                .iter()
                .map(|w| match fig {
                    4 => (format!("fig4_cache_load_{}.csv", w.workload), fig4_cache_load_csv(w)),
                    5 => (format!("fig5_disk_load_{}.csv", w.workload), fig5_disk_load_csv(w)),
                    _ => (
                        format!("fig6_policy_timeline_{}.csv", w.workload),
                        fig6_policy_timeline_csv(w),
                    ),
                })
                .collect(),
        };
        for (name, data) in files {
            let path = run.out_dir.join(name);
            write_file(&path, data)?;
            println!("wrote {}", path.display());
        }
    }

    if summary {
        println!();
        println!("=== headline summary ===");
        println!("(paper abstract: 48% avg / up to 70% cache-load reduction vs WB, ~30% vs SIB;");
        println!(" 14% / 7% average latency improvement vs WB / SIB)");
        println!();
        println!("{}", headline_table(&suite));
        for w in &suite.workloads {
            let changes: Vec<String> = w
                .lbica
                .policy_changes
                .iter()
                .map(|p| format!("@{}->{}", p.interval, p.policy))
                .collect();
            println!("{}: LBICA policy changes: {}", w.workload, changes.join(" "));
        }
    }
    Ok(())
}

fn validate(args: Args) -> Result<(), Stop> {
    let [kind, path] = args.rest.as_slice() else {
        return Err(args.error("validate needs an artifact kind and a file".to_string()));
    };
    let (kind, path) = (kind.as_str(), path.as_str());
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let summary = match kind {
        "telemetry" => validate::telemetry_jsonl(&text)
            .map(|s| format!("{} records ({} cells)", s.records, s.cells)),
        "trace" => validate::chrome_trace(&text)
            .map(|s| format!("{} events ({} spans, {} counters)", s.events, s.spans, s.counters)),
        "metrics" => validate::metrics_json(&text)
            .map(|s| format!("{} scalars, {} histograms", s.scalars, s.histograms)),
        other => return Err(args.error(format!("unknown artifact kind `{other}`"))),
    };
    let desc = summary.map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: valid {kind} ({desc})");
    Ok(())
}

/// Dispatches `argv` (the arguments after the program name).
fn run(mut argv: impl Iterator<Item = String>) -> Result<(), Stop> {
    let command = match argv.next().as_deref() {
        Some("sweep") => Command::Sweep,
        Some("reproduce") => Command::Reproduce,
        Some("validate") => Command::Validate,
        Some("--help" | "-h") => return Err(Stop::Print(usage(None))),
        Some(other) => return Err(Stop::Usage(None, format!("unknown subcommand `{other}`"))),
        None => return Err(Stop::Usage(None, "missing subcommand".to_string())),
    };
    let args = Args { command, rest: argv.collect::<Vec<_>>().into_iter() };
    match command {
        Command::Sweep => sweep(args),
        Command::Reproduce => reproduce(args),
        Command::Validate => validate(args),
    }
}

fn main() -> ExitCode {
    match run(env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Print(text)) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(Stop::Usage(command, message)) => {
            eprintln!("error: {message}");
            eprintln!("{}", usage(command));
            ExitCode::FAILURE
        }
        Err(Stop::Failed(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_registered_matrix() {
        // The help text splices the name list straight from the registry;
        // this pins that no future edit reverts it to a hardcoded list.
        let usage = usage(Some(Command::Sweep));
        assert!(usage.contains(&matrix_name_list()));
        for def in &MATRICES {
            assert!(usage.contains(def.name), "usage omits `{}`", def.name);
        }
    }
}
