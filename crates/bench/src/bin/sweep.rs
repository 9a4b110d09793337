//! Drives a scenario-sweep matrix across all cores — or across processes
//! via `--shard` / `merge` — and writes aggregated CSV/JSON summaries.
//!
//! ```text
//! sweep [--matrix NAME] [--jobs N] [--out DIR] [--shard I/N]
//!       [--telemetry FILE] [--trace-cell IDX]
//!       [--checkpoint-cell IDX] [--list]
//! sweep merge PART.json... [--out DIR] [--telemetry FILE]
//! ```
//!
//! The named matrices live in one registry (`MATRICES`): the `--help`
//! text, `--list` output and `--matrix` validation all render from it, so
//! the three cannot drift apart. Highlights (`--list` has the full set):
//!
//! * `tiny` (default) — 4 workloads × 3 controllers × 3 seeds at tiny
//!   scale (36 cells); the CI smoke matrix.
//! * `tiered` / `tier-policy` / `inclusion` / `replacement` — cache
//!   hierarchy and policy axes.
//! * `zipf` — synthetic Zipfian block-popularity skew sweep.
//! * `diurnal` — paper workloads flat vs day/night arrival modulation.
//! * `multi-tenant` / `paper-mt` — interleaved per-tenant streams; these
//!   summaries carry per-tenant offered-load rows (CSV `tenant` section,
//!   JSON `by_tenant`), regenerated from the matrix definition so they
//!   are identical however the sweep was executed or sharded.
//! * `replay` — captured traces round-tripped through the binary codec
//!   and replayed (6 cells).
//! * `paper` — the canonical figure matrix at published scale (9 cells,
//!   slow); `paper-tiered` adds its two-level twins (18 cells), the
//!   matrix of the `perfbench` benchmark's `paper-tiered` workload.
//!
//! `--checkpoint-cell IDX` re-runs cell IDX split at its midpoint through
//! a binary-encoded replay checkpoint and fails unless the resumed report
//! is byte-identical to the straight run — CI's proof that pause/resume
//! replay is exact.
//!
//! Results stream into the `lbica-lab` aggregator as cells complete; the
//! summary is independent of `--jobs`, so `--jobs 1` and `--jobs 8`
//! produce byte-identical files.
//!
//! # Distributed sweeps
//!
//! `--shard I/N` runs only the I-th of N contiguous cell ranges and
//! writes a `lbica-partial-sweep/v2` JSON document instead of the
//! summary files (with `--shard`, `--out` may name the partial *file*
//! directly — any path ending in `.json` — or a directory, in which case
//! the partial lands at `DIR/sweep_<matrix>.part<I>of<N>.json`). Because
//! every cell's stream seed derives from its coordinates, a cell computes
//! the same result in any shard; `sweep merge` then validates the
//! partials (same matrix fingerprint, same shard count, every shard
//! present exactly once) and re-renders `sweep_<matrix>.csv` / `.json`
//! byte-identical to a single-process run.
//!
//! # Telemetry
//!
//! `--telemetry FILE` streams one JSON record per execution event
//! (`start`, `cell` with wall-clock timings and per-worker attribution,
//! `end` with worker utilization) into FILE and writes folded metrics
//! snapshots next to it (`FILE` with the extension replaced by
//! `metrics.json` / `metrics.prom`). Telemetry is strictly out-of-band:
//! the CSV/JSON summaries are byte-identical with or without it.
//!
//! `--trace-cell IDX` re-runs cell IDX *after* the sweep with the
//! `lbica-obs` trace ring attached and writes a Chrome trace-event JSON
//! (`sweep_<matrix>.cell<IDX>.trace.json`, loadable in Perfetto or
//! `chrome://tracing`) into `--out`. Trace timestamps are sim-time, so
//! the file is deterministic for a given cell.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use lbica_bench::SuiteConfig;
use lbica_lab::telemetry::{
    FanOut, JsonlTelemetry, MetricsFold, StderrProgress, TelemetryEvent, TelemetryHook,
};
use lbica_lab::{
    CsvSink, JsonSink, PartialSweep, Scenario, ScenarioMatrix, SweepExecutor, SweepSummary,
};
use lbica_obs::SimObserver;

/// One row of the matrix registry: the CLI name, the `--list` blurb and
/// the builder. The `usage()` flag help, `--list` and `--matrix`
/// validation all render from this one table, so the three can no longer
/// drift apart (a unit test below pins the property).
struct MatrixDef {
    name: &'static str,
    desc: &'static str,
    build: fn() -> ScenarioMatrix,
}

fn paper_matrix() -> ScenarioMatrix {
    let config = SuiteConfig::harness();
    ScenarioMatrix::paper(config.scale, config.sim, config.seed)
}

fn paper_tiered_matrix() -> ScenarioMatrix {
    let config = SuiteConfig::harness();
    ScenarioMatrix::paper_tiered(config.scale, config.sim, config.seed)
}

const MATRICES: [MatrixDef; 14] = [
    MatrixDef {
        name: "tiny",
        desc: "4 workloads x 3 controllers x 3 seeds, tiny scale (36 cells)",
        build: ScenarioMatrix::tiny,
    },
    MatrixDef {
        name: "geometry",
        desc: "cache-size sweep: 64/128/256 sets (27 cells)",
        build: ScenarioMatrix::geometry,
    },
    MatrixDef {
        name: "devices",
        desc: "mid-range-SSD vs 7.2K-HDD disk subsystem (18 cells)",
        build: ScenarioMatrix::devices,
    },
    MatrixDef {
        name: "tiered",
        desc: "flat vs 2-level vs 3-level cache hierarchy (27 cells)",
        build: ScenarioMatrix::tiered,
    },
    MatrixDef {
        name: "tier-policy",
        desc: "per-tier write policies under WB/LBICA/LBICA-T (27 cells)",
        build: ScenarioMatrix::tier_policy,
    },
    MatrixDef {
        name: "inclusion",
        desc: "exclusive vs inclusive two-level hierarchy (18 cells)",
        build: ScenarioMatrix::inclusion,
    },
    MatrixDef {
        name: "replacement",
        desc: "LRU vs FIFO victim selection (18 cells)",
        build: ScenarioMatrix::replacement,
    },
    MatrixDef {
        name: "replay",
        desc: "codec-round-tripped trace-replay cells (6 cells)",
        build: ScenarioMatrix::replay_demo,
    },
    MatrixDef {
        name: "zipf",
        desc: "Zipfian block-popularity skew sweep: s=0.0/0.6/0.9/1.2 (12 cells)",
        build: ScenarioMatrix::zipf,
    },
    MatrixDef {
        name: "diurnal",
        desc: "paper workloads flat vs day/night diurnal modulation (18 cells)",
        build: ScenarioMatrix::diurnal,
    },
    MatrixDef {
        name: "multi-tenant",
        desc: "1/2/4-tenant interleaves of identical templates (9 cells)",
        build: ScenarioMatrix::multi_tenant,
    },
    MatrixDef {
        name: "paper-mt",
        desc: "six-tenant paper mix, flat + two-tier (6 cells)",
        build: ScenarioMatrix::paper_mt,
    },
    MatrixDef {
        name: "paper",
        desc: "the canonical figure matrix at published scale (9 cells, slow)",
        build: paper_matrix,
    },
    MatrixDef {
        name: "paper-tiered",
        desc: "the figure matrix flat + two-level hot/QLC hierarchy (18 cells, slow)",
        build: paper_tiered_matrix,
    },
];

fn matrix_name_list() -> String {
    MATRICES.iter().map(|m| m.name).collect::<Vec<_>>().join("|")
}

fn usage() -> String {
    format!(
        "\
usage: sweep [--matrix NAME] [--jobs N] [--out DIR] [--shard I/N]
             [--telemetry FILE] [--trace-cell IDX]
             [--checkpoint-cell IDX] [--list] [--help]
       sweep merge PART.json... [--out DIR] [--telemetry FILE]

subcommands:
  (default)        run a sweep matrix; write sweep_<matrix>.csv/.json to --out
  merge            fold shard partials back into whole-matrix summaries

flags:
  --matrix NAME    matrix to run (default: tiny; see --list):
                   {names}
  --jobs N         worker threads, 0 = one per core (default: 0)
  --out DIR        output directory (default: target/sweep); with --shard, may
                   name the partial .json file directly
  --shard I/N      run only the I-th of N contiguous cell ranges and write a
                   partial-sweep document instead of the summary files
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
    )
}

#[derive(Debug)]
struct Options {
    matrix: String,
    jobs: usize,
    out_dir: PathBuf,
    shard: Option<(usize, usize)>,
    telemetry: Option<PathBuf>,
    trace_cell: Option<usize>,
    checkpoint_cell: Option<usize>,
}

#[derive(Debug)]
struct MergeOptions {
    parts: Vec<PathBuf>,
    out_dir: PathBuf,
    telemetry: Option<PathBuf>,
}

/// Takes the value of `flag` from `args`, rejecting a missing value or
/// one that looks like another flag (so `--out --telemetry` is a usage
/// error, not a directory named `--telemetry`).
fn flag_value(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<String, String> {
    match args.next() {
        Some(v) if !v.starts_with("--") => Ok(v),
        _ => Err(format!("{flag} needs {what}")),
    }
}

/// Parses `I/N` from `--shard`, rejecting `N == 0` and `I >= N` up front
/// so a bad invocation fails before any cell runs.
fn parse_shard(spec: &str) -> Result<(usize, usize), String> {
    let invalid = || {
        format!(
            "--shard wants INDEX/COUNT with INDEX < COUNT and COUNT > 0 \
             (e.g. `--shard 0/2`), got `{spec}`"
        )
    };
    let (index, count) = spec.split_once('/').ok_or_else(invalid)?;
    let index: usize = index.parse().map_err(|_| invalid())?;
    let count: usize = count.parse().map_err(|_| invalid())?;
    if count == 0 || index >= count {
        return Err(invalid());
    }
    Ok((index, count))
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        matrix: "tiny".to_string(),
        jobs: 0,
        out_dir: PathBuf::from("target/sweep"),
        shard: None,
        telemetry: None,
        trace_cell: None,
        checkpoint_cell: None,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--matrix" => {
                opts.matrix = flag_value(&mut args, "--matrix", "a name (see --list)")?;
            }
            "--jobs" => {
                opts.jobs = flag_value(&mut args, "--jobs", "a number")?
                    .parse()
                    .map_err(|_| "--jobs needs a number".to_string())?;
            }
            "--out" => {
                opts.out_dir = PathBuf::from(flag_value(&mut args, "--out", "a path")?);
            }
            "--shard" => {
                let spec = flag_value(&mut args, "--shard", "INDEX/COUNT (e.g. 0/2)")?;
                opts.shard = Some(parse_shard(&spec)?);
            }
            "--telemetry" => {
                opts.telemetry =
                    Some(PathBuf::from(flag_value(&mut args, "--telemetry", "a file path")?));
            }
            "--trace-cell" => {
                let idx = flag_value(&mut args, "--trace-cell", "a cell index")?;
                opts.trace_cell =
                    Some(idx.parse().map_err(|_| "--trace-cell needs a cell index".to_string())?);
            }
            "--checkpoint-cell" => {
                let idx = flag_value(&mut args, "--checkpoint-cell", "a cell index")?;
                opts.checkpoint_cell = Some(
                    idx.parse().map_err(|_| "--checkpoint-cell needs a cell index".to_string())?,
                );
            }
            "--list" => {
                for def in &MATRICES {
                    println!("{:<13} {}", def.name, def.desc);
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.trace_cell.is_some() && opts.shard.is_some() {
        return Err("--trace-cell cannot be combined with --shard \
                    (trace the cell from an unsharded run)"
            .to_string());
    }
    if opts.checkpoint_cell.is_some() && opts.shard.is_some() {
        return Err("--checkpoint-cell cannot be combined with --shard \
                    (check the cell from an unsharded run)"
            .to_string());
    }
    Ok(Some(opts))
}

fn parse_merge_args() -> Result<MergeOptions, String> {
    let mut opts =
        MergeOptions { parts: Vec::new(), out_dir: PathBuf::from("target/sweep"), telemetry: None };
    let mut args = env::args().skip(2);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                opts.out_dir = PathBuf::from(flag_value(&mut args, "--out", "a directory")?);
            }
            "--telemetry" => {
                opts.telemetry =
                    Some(PathBuf::from(flag_value(&mut args, "--telemetry", "a file path")?));
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown merge argument `{flag}`"));
            }
            part => opts.parts.push(PathBuf::from(part)),
        }
    }
    if opts.parts.is_empty() {
        return Err("merge needs at least one partial-sweep file".to_string());
    }
    Ok(opts)
}

fn build_matrix(name: &str) -> Result<ScenarioMatrix, String> {
    MATRICES
        .iter()
        .find(|def| def.name == name)
        .map(|def| (def.build)())
        .ok_or_else(|| format!("unknown matrix `{name}` (try --list)"))
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

/// Writes `sweep_<matrix>.csv` / `.json` into `out_dir` — shared by the
/// single-process path and `merge`, so both name and render the output
/// files identically.
fn write_summary(out_dir: &Path, matrix: &str, summary: &SweepSummary) -> Result<(), String> {
    fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let csv_path = out_dir.join(format!("sweep_{matrix}.csv"));
    let json_path = out_dir.join(format!("sweep_{matrix}.json"));
    CsvSink::write_to(&csv_path, summary)
        .map_err(|e| format!("cannot write {}: {e}", csv_path.display()))?;
    JsonSink::write_to(&json_path, summary)
        .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
    print_summary(summary);
    println!();
    println!("wrote {}", csv_path.display());
    println!("wrote {}", json_path.display());
    Ok(())
}

/// The `--telemetry` sinks: the JSONL event stream plus a metrics fold
/// whose snapshots land beside it when the sweep finishes.
struct TelemetrySinks {
    path: PathBuf,
    jsonl: JsonlTelemetry<std::io::BufWriter<fs::File>>,
    metrics: MetricsFold,
}

/// Creates the directory a file at `path` will live in.
fn create_parent(path: &Path) -> Result<(), String> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display())),
        _ => Ok(()),
    }
}

/// Creates (truncating) the JSONL telemetry stream at `path`, making its
/// parent directory first.
fn create_jsonl(path: &Path) -> Result<JsonlTelemetry<std::io::BufWriter<fs::File>>, String> {
    create_parent(path)?;
    JsonlTelemetry::create(path).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

impl TelemetrySinks {
    fn create(path: &Path) -> Result<Self, String> {
        let jsonl = create_jsonl(path)?;
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
        fs::write(&json_path, snapshot.render_json())
            .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
        fs::write(&prom_path, snapshot.render_prometheus())
            .map_err(|e| format!("cannot write {}: {e}", prom_path.display()))?;
        println!("wrote {}", self.path.display());
        println!("wrote {}", json_path.display());
        println!("wrote {}", prom_path.display());
        Ok(())
    }
}

/// Re-runs cell `index` with the trace ring attached and writes the
/// Chrome trace-event JSON into `out_dir`. Runs *after* the sweep so the
/// sweep path itself stays observer-free.
fn write_cell_trace(
    out_dir: &Path,
    matrix_name: &str,
    index: usize,
    cell: &Scenario,
) -> Result<(), String> {
    eprintln!("tracing cell {index} (`{}`)", cell.id());
    let (_report, obs) = cell.run_observed(SimObserver::new());
    let trace = obs.render_chrome_trace(&cell.id());
    let path = out_dir.join(format!("sweep_{matrix_name}.cell{index}.trace.json"));
    fs::write(&path, trace).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} trace events, {} sampled out)",
        path.display(),
        obs.ring().recorded(),
        obs.ring().sampled_out()
    );
    Ok(())
}

/// With `--shard`, `--out` may name the partial file itself (any path
/// ending in `.json`) or a directory to drop the canonical
/// `sweep_<matrix>.part<I>of<N>.json` name into.
fn partial_path(out: &Path, matrix: &str, index: usize, count: usize) -> PathBuf {
    if out.extension().is_some_and(|e| e == "json") {
        out.to_path_buf()
    } else {
        out.join(format!("sweep_{matrix}.part{index}of{count}.json"))
    }
}

fn run_shard(opts: &Options, index: usize, count: usize) -> Result<(), String> {
    let matrix = build_matrix(&opts.matrix)?;
    let executor = SweepExecutor::new(opts.jobs);
    let range = matrix.shard(index, count);
    // Make the partial's directory up front: a bad --out must fail fast,
    // not after the shard has run.
    let path = partial_path(&opts.out_dir, &opts.matrix, index, count);
    create_parent(&path)?;
    eprintln!(
        "sweeping shard {index}/{count} of matrix `{}`: cells [{}, {}) of {} on {} worker(s)",
        opts.matrix,
        range.start,
        range.end,
        matrix.len(),
        executor.jobs(),
    );
    let sinks = opts.telemetry.as_deref().map(TelemetrySinks::create).transpose()?;
    let stderr = StderrProgress::shard();
    let mut hooks: Vec<&dyn TelemetryHook> = vec![&stderr];
    if let Some(s) = &sinks {
        hooks.push(&s.jsonl);
        hooks.push(&s.metrics);
    }
    let fan = FanOut::new(&hooks);

    let started = Instant::now();
    let partial =
        PartialSweep::collect_with_telemetry(&executor, &matrix, &opts.matrix, index, count, &fan);
    eprintln!("shard finished in {:.2?}", started.elapsed());
    drop(hooks);
    if let Some(s) = sinks {
        s.finish()?;
    }

    partial.write_to(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} cells, fingerprint {:016x})",
        path.display(),
        partial.cells.len(),
        partial.fingerprint
    );
    Ok(())
}

fn run_merge(opts: &MergeOptions) -> Result<(), String> {
    let started = Instant::now();
    eprintln!("merging {} partial(s)", opts.parts.len());
    let partials = opts
        .parts
        .iter()
        .map(|path| PartialSweep::read_from(path).map_err(|e| format!("{}: {e}", path.display())))
        .collect::<Result<Vec<_>, _>>()?;
    let merged = PartialSweep::merge(&partials).map_err(|e| e.to_string())?;

    // The telemetry stream opens only once the merge has succeeded, so a
    // rejected shard set leaves no half-written stream behind.
    let jsonl = opts.telemetry.as_deref().map(create_jsonl).transpose()?;
    let stderr = StderrProgress::new();
    let mut hooks: Vec<&dyn TelemetryHook> = vec![&stderr];
    if let Some(j) = &jsonl {
        hooks.push(j);
    }
    let fan = FanOut::new(&hooks);
    fan.record(TelemetryEvent::SweepStart { matrix: "merge", cells: opts.parts.len(), jobs: 1 });
    for partial in &partials {
        fan.record(TelemetryEvent::ShardMerged {
            shard_index: partial.shard_index,
            shard_count: partial.shard_count,
            cells: partial.cells.len(),
        });
    }
    eprintln!("merged {} shard(s), {} cells", partials.len(), merged.cells);
    // Re-derive the per-tenant offered-load rows from the matrix
    // definition, exactly as the unsharded path does — tenant rows are a
    // pure function of the matrix, so merge output stays byte-identical
    // to a single-process run. A partial from an unregistered matrix name
    // merges fine; it just carries no tenant section.
    let summary = match build_matrix(&merged.matrix) {
        Ok(matrix) => merged.summary.with_tenant_rows(&matrix),
        Err(_) => merged.summary,
    };
    let telemetry = lbica_lab::SweepTelemetry {
        matrix: merged.matrix.clone(),
        jobs: 1,
        cells: merged.cells as usize,
        wall_us: started.elapsed().as_micros() as u64,
        events: 0,
        events_per_sec: 0.0,
        worker_busy_us: Vec::new(),
        worker_utilization: 0.0,
    };
    fan.record(TelemetryEvent::SweepEnd { telemetry: &telemetry });
    drop(hooks);
    if let Some(j) = jsonl {
        drop(j.into_inner());
        println!("wrote {}", opts.telemetry.as_deref().expect("telemetry path").display());
    }
    write_summary(&opts.out_dir, &merged.matrix, &summary)
}

fn run_sweep(opts: &Options) -> Result<(), String> {
    let matrix = build_matrix(&opts.matrix)?;

    // Validate the cell indices and the output directory up front: a bad
    // --trace-cell, --checkpoint-cell or --out must fail fast, not after a
    // (possibly slow) sweep has already run.
    let pick = |flag: &str, index: usize| {
        matrix.cell(index).map(|cell| (index, cell)).ok_or_else(|| {
            format!(
                "{flag} {index} is out of range: matrix `{}` has {} cells",
                opts.matrix,
                matrix.len()
            )
        })
    };
    let traced = opts.trace_cell.map(|i| pick("--trace-cell", i)).transpose()?;
    let checked = opts.checkpoint_cell.map(|i| pick("--checkpoint-cell", i)).transpose()?;
    fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;

    let executor = SweepExecutor::new(opts.jobs);
    eprintln!(
        "sweeping matrix `{}`: {} cells ({} workloads x {} configs x {} controllers x {} seeds) on {} worker(s)",
        opts.matrix,
        matrix.len(),
        matrix.workloads().len(),
        matrix.configs().len(),
        matrix.controllers().len(),
        matrix.seeds().len(),
        executor.jobs(),
    );

    // One stderr status line per completion; cheap enough at sweep scales
    // and greppable in CI logs. The JSONL/metrics sinks attach only under
    // --telemetry; either way the summary is byte-identical.
    let sinks = opts.telemetry.as_deref().map(TelemetrySinks::create).transpose()?;
    let stderr = StderrProgress::new();
    let mut hooks: Vec<&dyn TelemetryHook> = vec![&stderr];
    if let Some(s) = &sinks {
        hooks.push(&s.jsonl);
        hooks.push(&s.metrics);
    }
    let fan = FanOut::new(&hooks);

    let started = Instant::now();
    let summary = executor
        .aggregate_with_telemetry(&matrix, &opts.matrix, &fan)
        // Per-tenant offered-load rows regenerate from the matrix definition,
        // never from execution, so attaching them keeps the summary
        // `--jobs`-independent; tenant-free matrices attach nothing.
        .with_tenant_rows(&matrix);
    eprintln!("sweep finished in {:.2?}", started.elapsed());
    drop(hooks);
    if let Some(s) = sinks {
        s.finish()?;
    }

    write_summary(&opts.out_dir, &opts.matrix, &summary)?;
    if let Some((index, cell)) = traced {
        write_cell_trace(&opts.out_dir, &opts.matrix, index, &cell)?;
    }
    if let Some((index, cell)) = checked {
        check_cell_checkpoint(index, &cell)?;
    }
    Ok(())
}

/// Re-runs cell `index` twice — once straight through, once split at its
/// midpoint interval with the replay checkpoint round-tripped through the
/// binary encoding — and fails unless the two reports are byte-identical.
/// CI's workload-smoke job points this at a tiered `paper-mt` cell.
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

fn main() -> ExitCode {
    if env::args().nth(1).as_deref() == Some("merge") {
        let result = match parse_merge_args() {
            Ok(opts) => run_merge(&opts),
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{}", usage());
                return ExitCode::FAILURE;
            }
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match opts.shard {
        Some((index, count)) => run_shard(&opts, index, count),
        None => run_sweep(&opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
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
        let usage = usage();
        assert!(usage.contains(&matrix_name_list()));
        for def in &MATRICES {
            assert!(usage.contains(def.name), "usage omits `{}`", def.name);
        }
    }

    #[test]
    fn every_registered_matrix_builds_nonempty() {
        for def in &MATRICES {
            let matrix = build_matrix(def.name)
                .unwrap_or_else(|e| panic!("matrix `{}` failed to build: {e}", def.name));
            assert!(!matrix.is_empty(), "matrix `{}` is empty", def.name);
        }
        assert_eq!(build_matrix("paper-tiered").expect("registered").len(), 18);
        for name in ["", "no-such-matrix", "bogus", "Tiny", "paper_tiered", "smoke"] {
            assert!(build_matrix(name).is_err(), "unlisted matrix `{name}` must be rejected");
        }
    }

    #[test]
    fn matrix_names_are_unique() {
        for (i, a) in MATRICES.iter().enumerate() {
            for b in &MATRICES[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate matrix name");
            }
        }
    }

    #[test]
    fn shard_specs_parse_strictly() {
        assert_eq!(parse_shard("0/2"), Ok((0, 2)));
        assert_eq!(parse_shard("3/4"), Ok((3, 4)));
        for bad in ["", "1", "2/2", "5/2", "1/0", "a/b", "1/2/3"] {
            assert!(parse_shard(bad).is_err(), "`{bad}` should be rejected");
        }
    }
}
