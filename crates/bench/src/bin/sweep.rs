//! Drives a scenario-sweep matrix across all cores and writes aggregated
//! CSV/JSON summaries.
//!
//! ```text
//! sweep [--matrix NAME] [--jobs N] [--out DIR]
//!       [--telemetry FILE] [--trace-cell IDX]
//!       [--checkpoint-cell IDX] [--list]
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
//!   are identical for any `--jobs`.
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
use lbica_lab::telemetry::{FanOut, JsonlTelemetry, MetricsFold, StderrProgress, TelemetryHook};
use lbica_lab::{CsvSink, JsonSink, Scenario, ScenarioMatrix, SweepExecutor, SweepSummary};
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
usage: sweep [--matrix NAME] [--jobs N] [--out DIR]
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
    )
}

#[derive(Debug)]
struct Options {
    matrix: String,
    jobs: usize,
    out_dir: PathBuf,
    telemetry: Option<PathBuf>,
    trace_cell: Option<usize>,
    checkpoint_cell: Option<usize>,
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

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        matrix: "tiny".to_string(),
        jobs: 0,
        out_dir: PathBuf::from("target/sweep"),
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
    Ok(Some(opts))
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

/// Writes `sweep_<matrix>.csv` / `.json` into `out_dir`.
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

/// Creates (truncating) the JSONL telemetry stream at `path`, making its
/// parent directory first.
fn create_jsonl(path: &Path) -> Result<JsonlTelemetry<std::io::BufWriter<fs::File>>, String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
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
    let stderr = StderrProgress;
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
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match run_sweep(&opts) {
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
}
