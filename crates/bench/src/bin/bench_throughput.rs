//! Measures simulator throughput over a scenario matrix and emits the
//! repo's perf-trajectory document.
//!
//! ```text
//! bench_throughput [--matrix tiny|geometry|devices|tiered|replacement|
//!                   replay|paper|paper-tiered] [--jobs N]
//!                  [--iters N] [--out FILE]
//!                  [--baseline-wall-us N] [--baseline-label STR]
//! bench_throughput --validate FILE
//! ```
//!
//! The committed `BENCH_sim.json` tracks `paper-tiered`: the canonical
//! 9-cell figure matrix plus the same workloads against the harness-scale
//! two-level hierarchy, so the perf trajectory covers both datapaths.
//!
//! Each cell runs `--iters` times serially (best wall-clock wins, so a
//! noisy neighbour cannot inflate a cell), then the whole matrix is swept
//! once through the work-stealing executor for the parallel wall figure.
//! Event counts come from the simulator's deterministic `perf` counters,
//! so events/sec is `deterministic events ÷ measured wall`.
//!
//! `--baseline-wall-us` embeds a comparison against an earlier
//! measurement of the *same matrix*. Because the simulation semantics are
//! pinned byte-identical across versions (same events, same results), the
//! baseline's events/sec is validly derived from the current event totals
//! and the baseline's wall-clock.
//!
//! `--validate FILE` structurally checks an emitted document (schema
//! marker, required keys, balanced JSON) and exits non-zero on failure —
//! CI runs this against the artifact it uploads.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use lbica_bench::perf::validate_report;
use lbica_bench::{Baseline, CellPerf, ScalingPoint, SuiteConfig, ThroughputRun};
use lbica_lab::{ScenarioMatrix, SweepExecutor};
use lbica_sim::SimArena;

/// The matrices `--matrix` accepts, in the order the usage text lists
/// them.
const MATRICES: [&str; 8] =
    ["tiny", "geometry", "devices", "tiered", "replacement", "replay", "paper", "paper-tiered"];

#[derive(Debug)]
struct Options {
    matrix: String,
    jobs: usize,
    iters: u32,
    out: PathBuf,
    baseline_wall_us: Option<u64>,
    baseline_label: String,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        matrix: "paper-tiered".to_string(),
        jobs: 0,
        iters: 3,
        out: PathBuf::from("target/bench/BENCH_sim.json"),
        baseline_wall_us: None,
        baseline_label: "baseline".to_string(),
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--matrix" => {
                opts.matrix = args.next().ok_or("--matrix needs a name")?;
            }
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .ok_or("--jobs needs a number")?
                    .parse()
                    .map_err(|_| "--jobs needs a number".to_string())?;
            }
            "--iters" => {
                opts.iters = args
                    .next()
                    .ok_or("--iters needs a number")?
                    .parse()
                    .map_err(|_| "--iters needs a number".to_string())?;
                if opts.iters == 0 {
                    return Err("--iters must be at least 1".to_string());
                }
            }
            "--out" => {
                opts.out = PathBuf::from(args.next().ok_or("--out needs a file path")?);
            }
            "--baseline-wall-us" => {
                opts.baseline_wall_us = Some(
                    args.next()
                        .ok_or("--baseline-wall-us needs a number")?
                        .parse()
                        .map_err(|_| "--baseline-wall-us needs a number".to_string())?,
                );
            }
            "--baseline-label" => {
                opts.baseline_label = args.next().ok_or("--baseline-label needs a string")?;
            }
            "--validate" => {
                let path = args.next().ok_or("--validate needs a file path")?;
                let text =
                    fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
                return match validate_report(&text) {
                    Ok(()) => {
                        println!("{path}: valid {}", lbica_bench::perf::SCHEMA);
                        Ok(None)
                    }
                    Err(e) => Err(format!("{path}: invalid document: {e}")),
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_throughput [--matrix {}] \
                     [--jobs N] [--iters N] [--out FILE] \
                     [--baseline-wall-us N] [--baseline-label STR]\n\
                     \x20      bench_throughput --validate FILE",
                    MATRICES.join("|")
                );
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(opts))
}

fn build_matrix(name: &str) -> Result<ScenarioMatrix, String> {
    if !MATRICES.contains(&name) {
        return Err(format!("unknown matrix `{name}`"));
    }
    match name {
        "tiny" => Ok(ScenarioMatrix::tiny()),
        "geometry" => Ok(ScenarioMatrix::geometry()),
        "devices" => Ok(ScenarioMatrix::devices()),
        "tiered" => Ok(ScenarioMatrix::tiered()),
        "replacement" => Ok(ScenarioMatrix::replacement()),
        "replay" => Ok(ScenarioMatrix::replay_demo()),
        "paper" => {
            let config = SuiteConfig::harness();
            Ok(ScenarioMatrix::paper(config.scale, config.sim, config.seed))
        }
        "paper-tiered" => {
            let config = SuiteConfig::harness();
            Ok(ScenarioMatrix::paper_tiered(config.scale, config.sim, config.seed))
        }
        other => unreachable!("listed matrix `{other}` has no builder"),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let matrix = match build_matrix(&opts.matrix) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = opts.out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = fs::create_dir_all(dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!(
        "benchmarking matrix `{}`: {} cells x {} iters (serial), then 1 sweep on {} worker(s)",
        opts.matrix,
        matrix.len(),
        opts.iters,
        SweepExecutor::new(opts.jobs).jobs(),
    );

    // Per-cell serial timing: best-of-iters wall, deterministic counters
    // from the last report (identical across iterations by construction).
    // Iterations are interleaved round-robin across the matrix (full passes)
    // rather than run back-to-back per cell, so a time-local noise window
    // cannot poison every sample of one cell — each cell's minimum is taken
    // over samples spread across the whole measurement. One arena across all
    // cells and passes, exactly like a sweep worker: after the first pass
    // every run is allocation-free, so the serial figure measures the same
    // steady-state path the executor runs.
    let mut arena = SimArena::new();
    let scenarios: Vec<_> = matrix.cells().collect();
    let mut best_walls = vec![u64::MAX; scenarios.len()];
    let mut last_reports: Vec<_> = (0..scenarios.len()).map(|_| None).collect();
    for _ in 0..opts.iters {
        for (slot, scenario) in scenarios.iter().enumerate() {
            let started = Instant::now();
            let report = scenario.run_in(&mut arena);
            let wall_us = (started.elapsed().as_micros() as u64).max(1);
            best_walls[slot] = best_walls[slot].min(wall_us);
            last_reports[slot] = Some(report);
        }
    }
    let mut cells = Vec::with_capacity(scenarios.len());
    for ((scenario, best_wall_us), last) in scenarios.iter().zip(best_walls).zip(last_reports) {
        let report = last.expect("at least one pass ran");
        let events = report.perf.events_processed;
        let cell = CellPerf {
            id: scenario.id(),
            workload: scenario.workload().name().to_string(),
            controller: scenario.controller().label().to_string(),
            wall_us: best_wall_us,
            events,
            events_per_sec: CellPerf::events_per_sec(events, best_wall_us),
            peak_event_queue_depth: report.perf.peak_event_queue_depth,
            app_completed: report.app_completed,
        };
        eprintln!(
            "  {:<34} {:>9} us  {:>9} events  {:>12.0} ev/s  peak-eq {}",
            cell.id, cell.wall_us, cell.events, cell.events_per_sec, cell.peak_event_queue_depth
        );
        cells.push(cell);
    }

    // The scaling curve: best-of-iters whole-matrix sweeps at jobs ∈
    // {1, 2, 4, per-core, requested}, ascending and deduplicated. The
    // headline parallel_wall_us is the curve's entry at the requested jobs.
    let executor = SweepExecutor::new(opts.jobs);
    let detected_cores = SweepExecutor::default_jobs();
    let mut jobs_set = vec![1, 2, 4, detected_cores, executor.jobs()];
    jobs_set.sort_unstable();
    jobs_set.dedup();
    let mut scaling = Vec::with_capacity(jobs_set.len());
    for &jobs in &jobs_set {
        let sweep = SweepExecutor::new(jobs);
        let mut best_wall_us = u64::MAX;
        for _ in 0..opts.iters {
            let started = Instant::now();
            let reports = sweep.run(&matrix);
            let wall_us = (started.elapsed().as_micros() as u64).max(1);
            best_wall_us = best_wall_us.min(wall_us);
            drop(reports);
        }
        eprintln!("  scaling: jobs {jobs:>3} -> {best_wall_us:>9} us");
        scaling.push(ScalingPoint { jobs, wall_us: best_wall_us });
    }
    let parallel_wall_us = scaling
        .iter()
        .find(|p| p.jobs == executor.jobs())
        .expect("requested jobs is in the measured set")
        .wall_us;

    let run = ThroughputRun {
        matrix: opts.matrix.clone(),
        jobs: executor.jobs(),
        iters: opts.iters,
        detected_cores,
        cells,
        parallel_wall_us,
        scaling,
    };
    let baseline = opts
        .baseline_wall_us
        .map(|wall_us| Baseline { label: opts.baseline_label.clone(), wall_us });

    println!(
        "matrix {}: {} events in {} us serial ({:.0} events/sec), {} us parallel on {} worker(s) \
         ({} core(s) detected)",
        run.matrix,
        run.total_events(),
        run.serial_wall_us(),
        run.events_per_sec(),
        run.parallel_wall_us,
        run.jobs,
        run.detected_cores,
    );
    if let Some(base) = &baseline {
        println!(
            "baseline `{}`: {} us serial -> speedup {:.2}x",
            base.label,
            base.wall_us,
            base.wall_us as f64 / run.serial_wall_us().max(1) as f64
        );
    }

    if let Err(e) = run.write_to(&opts.out, baseline.as_ref()) {
        eprintln!("error: cannot write {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", opts.out.display());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_matrix_builds_and_no_other_name_does() {
        for name in MATRICES {
            assert!(build_matrix(name).is_ok(), "listed matrix `{name}` must build");
        }
        for name in
            ["", "bogus", "Tiny", "paper_tiered", "smoke", "tier-policy", "zipf", "paper-mt"]
        {
            assert!(build_matrix(name).is_err(), "unlisted matrix `{name}` must be rejected");
        }
    }
}
