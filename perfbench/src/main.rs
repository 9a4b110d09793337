//! The repository benchmark: three scenario-sweep workloads, end-to-end
//! host and simulated metrics, and a traced per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-tiered --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted` (cells), `failed` (cells) and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `README.md` for what each workload and metric is for.

mod calib;
mod check;
mod probe;
mod traced;
mod workloads;

use std::collections::BTreeSet;
use std::process::{Command, ExitCode};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lbica_lab::{ControllerKind, SweepExecutor, TelemetryEvent, TelemetryHook};
use lbica_sim::{SimArena, SimulationReport};

use calib::Calibrator;
use check::Checker;
use probe::Probes;
use traced::{Trace, TracedCell};
use workloads::{set_up, Workload, DEFAULT_SEED, NAMES};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed passes per run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        print_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--print-digests" => args.print_digests = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_digests {
        let (workload, mut arena, _) = set_up(&args.workload, args.seed).expect("known workload");
        let (reports, _) = workload.run_calibrated(&mut arena, &mut Calibrator::new(), 1);
        for (cell, report) in workload.matrix.cells().zip(reports) {
            println!("{} {} {:016x}", workload.name, cell.id(), check::digest(&report));
        }
        return ExitCode::SUCCESS;
    }

    // Every host time is converted to reference seconds by the calibration
    // kernel run alongside it (see `calib`).
    let mut cal = Calibrator::new();
    let mut setup_s = Vec::new();
    let mut import_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        // One arena at a time, so that set-up repeats do not raise the
        // peak memory.
        drop(last.take());
        cal.run();
        let (workload, arena, secs) = set_up(&args.workload, args.seed).expect("known workload");
        cal.run();
        let scale = cal.reference(1.0);
        setup_s.push(secs * scale);
        import_s.push(workload.import_s * scale);
        last = Some((workload, arena));
    }
    let (workload, mut arena) = last.expect("at least one set-up");
    let mut checker = Checker::new(&workload.matrix);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);

    println!(
        "perfbench workload={} seed={} trace={} nproc={} rustc=\"{}\" commit={} cells={} jobs={}",
        workload.name,
        args.seed,
        u8::from(args.trace),
        nproc(),
        rustc_version(),
        git_commit(),
        checker.attempted(),
        workload.jobs
    );
    let (metrics, reports) = if args.trace {
        traced_run(&workload, &mut arena, &mut cal, deadline, &mut checker, median(&import_s))
    } else {
        plain_run(&workload, &mut arena, &mut cal, deadline, &mut checker, &setup_s)
    };
    if args.seed == DEFAULT_SEED {
        checker.pinned(workload.name, &reports);
    }

    for line in checker.report() {
        println!("FAILED {line}");
    }
    println!("cell_error_rate {}/{}", checker.failed(), checker.attempted());
    let finite = metrics.iter().all(|m| m.value.is_finite());
    for m in &metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed() == 0 && finite,
        checker.attempted(),
        checker.failed(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// The end-to-end run: timed passes until the deadline, then one traced
/// pass to check the outputs. Returns the metrics and the first pass's
/// reports.
fn plain_run(
    workload: &Workload,
    arena: &mut SimArena,
    cal: &mut Calibrator,
    deadline: Instant,
    checker: &mut Checker,
    setup_s: &[f64],
) -> (Vec<Metric>, Vec<SimulationReport>) {
    let mut walls = Vec::new();
    let mut host_walls = Vec::new();
    let mut reference: Option<Vec<SimulationReport>> = None;
    let mut peak_rss_mb = f64::NAN;
    while walls.len() < MIN_PASSES || Instant::now() < deadline {
        let (reports, wall) = workload.run_calibrated(arena, cal, workload.jobs);
        host_walls.push(wall);
        walls.push(cal.reference(wall));
        match &reference {
            Some(first) => checker.repeat(first, &reports),
            None => {
                // The memory one set-up plus one sweep needs; later passes
                // add only allocator churn.
                peak_rss_mb = peak_rss_mib();
                reference = Some(reports);
            }
        }
    }
    let reports = reference.expect("at least one pass");
    let (traced, _) = traced::run_pass(&workload.matrix, arena, &mut Trace::new(), cal);
    checker.traced(&reports, &traced);

    let sweep_wall_s = median(&walls);
    println!(
        "samples: {} set-ups, {} timed passes; pass wall {:.4}-{:.4} reference s, \
         {:.4}-{:.4} host s",
        setup_s.len(),
        walls.len(),
        min(&walls),
        max(&walls),
        min(&host_walls),
        max(&host_walls)
    );
    let completed: u64 = reports.iter().map(|r| r.app_completed).sum();
    let metrics = vec![
        metric("sweep_wall_s", "s", sweep_wall_s),
        metric("requests_per_s", "1/s", completed as f64 / sweep_wall_s),
        metric("setup_s", "s", median(setup_s)),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
        metric("sim_app_p99_us", "us", headline_p99(workload, &reports)),
        metric("sim_cache_load_reduction_pct", "%", load_reduction_pct(workload, &reports)),
    ];
    (metrics, reports)
}

/// The per-layer run: plain serial passes alternate with traced passes
/// until the deadline; layer times come from the traced pass of median
/// wall time. Probes and one lab-executor pass follow. Returns the metrics
/// and the first plain pass's reports.
fn traced_run(
    workload: &Workload,
    arena: &mut SimArena,
    cal: &mut Calibrator,
    deadline: Instant,
    checker: &mut Checker,
    import_s: f64,
) -> (Vec<Metric>, Vec<SimulationReport>) {
    let mut plain_walls = Vec::new();
    // (reference seconds, reference seconds per host second, spans)
    let mut passes: Vec<(f64, f64, Trace)> = Vec::new();
    let mut reference: Option<Vec<SimulationReport>> = None;
    let mut first_traced: Option<Vec<TracedCell>> = None;
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let (reports, wall) = workload.run_calibrated(arena, cal, 1);
        plain_walls.push(cal.reference(wall));
        let reports = match &reference {
            Some(first) => {
                checker.repeat(first, &reports);
                first
            }
            None => reference.insert(reports),
        };
        let mut trace = Trace::new();
        let (cells, wall) = traced::run_pass(&workload.matrix, arena, &mut trace, cal);
        let scale = cal.reference(1.0);
        passes.push((wall * scale, scale, trace));
        checker.traced(reports, &cells);
        first_traced.get_or_insert(cells);
    }
    let reports = reference.expect("at least one pass");
    let traced = first_traced.expect("at least one traced pass");

    let mut probes = Probes::default();
    for (cell, report) in workload.matrix.cells().zip(&reports) {
        cal.run();
        probes.cell(&cell, report);
    }
    let probe_scale = cal.reference(1.0);
    for line in &probes.mismatches {
        println!("probe mismatch {line}");
    }
    let utilization = Utilization(Mutex::new(None));
    SweepExecutor::new(workload.jobs).aggregate_with_telemetry(
        &workload.matrix,
        workload.name,
        &utilization,
    );

    passes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (traced_wall, scale, trace) = &passes[(passes.len() - 1) / 2];
    write_spans(workload.name, trace, checker.ids());
    let self_s = trace.self_seconds();
    let layer = |name: &'static str| scale * self_s.get(&Some(name)).copied().unwrap_or(0.0);
    let attributed: f64 =
        scale * self_s.iter().filter(|(k, _)| k.is_some()).map(|(_, v)| v).sum::<f64>();
    let plain_wall = median(&plain_walls);
    println!(
        "samples: {} plain + {} traced passes; layer times from the median traced pass",
        plain_walls.len(),
        passes.len()
    );

    let events: u64 = reports.iter().map(|r| r.perf.events_processed).sum();
    let generate_calls: u64 = reports.iter().map(|r| u64::from(r.total_intervals)).sum();
    let streams: BTreeSet<(String, u64)> = workload
        .matrix
        .cells()
        .map(|c| (c.workload().name().to_string(), c.stream_seed()))
        .collect();
    let distinct_intervals: u64 = streams
        .iter()
        .map(|(name, _)| {
            let spec = workload.matrix.workloads().iter().find(|w| w.name() == name);
            u64::from(spec.expect("stream of a matrix workload").total_intervals())
        })
        .sum();
    let sum =
        |f: &dyn Fn(&SimulationReport) -> u64| -> f64 { reports.iter().map(f).sum::<u64>() as f64 };
    let accesses = sum(&|r| r.cache_stats.reads() + r.cache_stats.writes());
    let hits = sum(&|r| r.cache_stats.read_hits + r.cache_stats.write_hits);
    let tier_sum = |f: &dyn Fn(&lbica_sim::TierLevelStats) -> u64| -> f64 {
        reports.iter().flat_map(|r| &r.tier_stats).map(f).sum::<u64>() as f64
    };
    let per_access =
        |ns: u64, n: u64| if n == 0 { 0.0 } else { probe_scale * ns as f64 / n as f64 };
    let utilization = utilization.0.into_inner().expect("telemetry lock").unwrap_or(0.0);
    let metrics = vec![
        metric("trace.generate_s", "s", layer("trace.generate_s")),
        metric("trace.records", "count", traced.iter().map(|t| t.scheduled).sum::<u64>() as f64),
        metric(
            "trace.unique_stream_ratio",
            "ratio",
            distinct_intervals as f64 / generate_calls as f64,
        ),
        metric("trace.import_s", "s", import_s),
        metric("sim.arena_s", "s", layer("sim.arena_s")),
        metric("sim.schedule_s", "s", layer("sim.schedule_s")),
        metric("sim.run_until_s", "s", layer("sim.run_until_s")),
        metric("sim.end_interval_s", "s", layer("sim.end_interval_s")),
        metric("sim.set_policy_s", "s", layer("sim.set_policy_s")),
        metric("sim.drain_s", "s", layer("sim.drain_s")),
        metric("sim.events", "count", events as f64),
        metric(
            "sim.ns_per_event",
            "ns",
            (layer("sim.run_until_s") + layer("sim.drain_s")) * 1e9 / events as f64,
        ),
        metric(
            "sim.peak_event_queue_depth",
            "count",
            reports.iter().map(|r| r.perf.peak_event_queue_depth).max().unwrap_or(0) as f64,
        ),
        metric("cache.access_ns", "ns", per_access(probes.cache_ns, probes.cache_accesses)),
        metric("cache.hit_ratio", "ratio", hits / accesses),
        metric("cache.evictions", "count", sum(&|r| r.cache_stats.evictions())),
        metric("tier.access_ns", "ns", per_access(probes.tier_ns, probes.tier_accesses)),
        metric("tier.promotions", "count", tier_sum(&|t| t.promotions_in)),
        metric("tier.demotions", "count", tier_sum(&|t| t.demotions_in)),
        metric("tier.spills", "count", tier_sum(&|t| t.spills_in + t.read_spills_in)),
        metric("storage.apply_bypass_s", "s", layer("storage.apply_bypass_s")),
        metric("storage.bypassed_requests", "count", sum(&|r| r.bypassed_requests)),
        metric(
            "storage.cache_queue_depth_avg",
            "count",
            reports.iter().map(SimulationReport::avg_cache_queue_depth).sum::<f64>()
                / reports.len() as f64,
        ),
        metric("core.on_interval_s", "s", layer("core.on_interval_s")),
        metric("core.burst_intervals", "count", sum(&|r| r.burst_intervals() as u64)),
        metric("core.policy_switches", "count", sum(&|r| r.policy_changes.len() as u64 - 1)),
        metric("lab.worker_utilization", "ratio", utilization),
        metric("bench.traced_wall_s", "s", *traced_wall),
        metric("bench.plain_wall_s", "s", plain_wall),
        metric("bench.unattributed_ratio", "ratio", (traced_wall - attributed) / traced_wall),
        metric("bench.trace_overhead_ratio", "ratio", traced_wall / plain_wall),
        metric("bench.probe_mismatches", "count", probes.mismatches.len() as f64),
    ];
    (metrics, reports)
}

/// Captures the executor's worker utilization at the end of a sweep.
struct Utilization(Mutex<Option<f64>>);

impl TelemetryHook for Utilization {
    fn record(&self, event: TelemetryEvent<'_>) {
        if let TelemetryEvent::SweepEnd { telemetry } = event {
            *self.0.lock().expect("telemetry lock") = Some(telemetry.worker_utilization);
        }
    }
}

/// Geometric mean of the headline controller's cells' p99 application
/// latency. The per-cell p99 is log-bucketed, so a median over a handful
/// of cells jumps a whole bucket between seeds; the geometric mean moves in
/// steps a cell-count smaller.
fn headline_p99(workload: &Workload, reports: &[SimulationReport]) -> f64 {
    let ln_p99: Vec<f64> = workload
        .matrix
        .cells()
        .zip(reports)
        .filter(|(cell, _)| cell.controller() == workload.headline)
        .map(|(_, r)| (r.app_p99_latency_us as f64).ln())
        .collect();
    (ln_p99.iter().sum::<f64>() / ln_p99.len() as f64).exp()
}

/// The headline controller's reduction of `avg_cache_load_us` against WB,
/// in percent, averaged over (workload, config) groups.
fn load_reduction_pct(workload: &Workload, reports: &[SimulationReport]) -> f64 {
    let cells: Vec<_> = workload.matrix.cells().zip(reports).collect();
    let load = |kind: ControllerKind, w: &str, c: &str| {
        cells
            .iter()
            .find(|(cell, _)| {
                cell.controller() == kind && cell.workload().name() == w && cell.config_label() == c
            })
            .map(|(_, r)| r.avg_cache_load_us())
    };
    let reductions: Vec<f64> = cells
        .iter()
        .filter(|(cell, _)| cell.controller() == workload.headline)
        .filter_map(|(cell, r)| {
            let wb = load(ControllerKind::Wb, cell.workload().name(), cell.config_label())?;
            Some(100.0 * (1.0 - r.avg_cache_load_us() / wb))
        })
        .collect();
    reductions.iter().sum::<f64>() / reductions.len() as f64
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Writes the spans of the reported traced pass as JSON lines under the
/// Cargo target directory.
fn write_spans(workload: &str, trace: &Trace, cell_ids: &[String]) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("perfbench");
    let path = dir.join(format!("spans-{workload}.jsonl"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace.to_jsonl(cell_ids)));
    match written {
        Ok(()) => println!("spans: {} written to {}", trace.spans.len(), path.display()),
        Err(e) => println!("spans: not written to {}: {e}", path.display()),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn rustc_version() -> String {
    command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout being measured, or `unknown` when the current
/// directory is not the top of a git work tree.
fn git_commit() -> String {
    let top = command_output("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().ok().and_then(|d| d.canonicalize().ok());
    let top = top.and_then(|t| std::path::Path::new(&t).canonicalize().ok());
    match (top, here) {
        (Some(top), Some(here)) if top == here => {
            command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".into(),
    }
}
