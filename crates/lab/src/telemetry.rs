//! Pluggable sweep telemetry: who ran which cell, how long it took and
//! how busy the workers were.
//!
//! A [`TelemetryHook`] observes the *execution* of a sweep — wall-clock
//! cell times, worker utilization, completion progress — without ever
//! feeding back into its *results*: the aggregated summary and the
//! CSV/JSON sinks read only deterministic simulation quantities, so a
//! sweep produces byte-identical reports with any hook attached (or
//! none). Wall-clock readings flow exclusively into telemetry artifacts
//! (the JSONL stream, the stderr progress lines), never into reports.
//!
//! The provided hooks cover `lbica-bench sweep`'s needs:
//!
//! * [`NullTelemetry`] — no-op default.
//! * [`StderrProgress`] — the human-facing progress lines.
//! * [`JsonlTelemetry`] — a machine-readable JSONL stream, one record per
//!   event, validated by `lbica_obs::validate::telemetry_jsonl`.
//! * [`MetricsFold`] — folds per-cell simulation counters into a
//!   [`MetricsRegistry`]; the fold is commutative, so the snapshot is
//!   identical for any `--jobs`.
//! * [`FanOut`] — broadcasts to several hooks at once.

use std::fmt::Write as _;
use std::io;
use std::sync::Mutex;

use lbica_obs::escape;
use lbica_obs::validate::TELEMETRY_SCHEMA;
use lbica_obs::{CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot};
use lbica_sim::SimulationReport;

/// Wall-clock measurements of one completed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTelemetry {
    /// The cell's matrix index.
    pub index: usize,
    /// The cell's human-readable id.
    pub id: String,
    /// Index of the worker thread that ran the cell.
    pub worker: usize,
    /// Wall-clock time the cell took, µs.
    pub wall_us: u64,
    /// Discrete simulation events the cell processed.
    pub events: u64,
    /// Simulation events per wall-clock second.
    pub events_per_sec: f64,
    /// Cells completed so far (including this one).
    pub completed: usize,
    /// Total cells in the sweep.
    pub total: usize,
}

/// Whole-sweep wall-clock measurements, emitted once at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTelemetry {
    /// Name of the matrix that ran.
    pub matrix: String,
    /// Worker threads the executor was configured with.
    pub jobs: usize,
    /// Cells the sweep ran.
    pub cells: usize,
    /// End-to-end wall-clock time, µs.
    pub wall_us: u64,
    /// Total simulation events processed across all cells.
    pub events: u64,
    /// Aggregate simulation events per wall-clock second.
    pub events_per_sec: f64,
    /// Per-worker busy time (sum of cell wall times), µs.
    pub worker_busy_us: Vec<u64>,
    /// Mean fraction of the sweep's wall time the workers spent running
    /// cells, `0.0..=1.0` (scheduling gaps and result folding excluded).
    pub worker_utilization: f64,
}

/// One observation delivered to a [`TelemetryHook`]. All variants hold
/// borrows, so the event is `Copy` and can be fanned out cheaply.
#[derive(Debug, Clone, Copy)]
pub enum TelemetryEvent<'a> {
    /// The sweep is about to run.
    SweepStart {
        /// Name of the matrix.
        matrix: &'a str,
        /// Cells about to run.
        cells: usize,
        /// Configured worker threads.
        jobs: usize,
    },
    /// One cell finished (delivered in completion order, which is
    /// nondeterministic under parallel execution).
    Cell {
        /// Wall-clock measurements of the cell.
        cell: &'a CellTelemetry,
        /// The cell's full simulation report.
        report: &'a SimulationReport,
    },
    /// The sweep finished.
    SweepEnd {
        /// Whole-sweep wall-clock measurements.
        telemetry: &'a SweepTelemetry,
    },
}

/// Observes sweep execution. Implementations must be `Sync`: cells
/// complete on worker threads and events are delivered from whichever
/// thread finished the work.
pub trait TelemetryHook: Sync {
    /// Delivers one event. Called under no lock; implementations
    /// serialize internally if they need to.
    fn record(&self, event: TelemetryEvent<'_>);
}

/// The no-op hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTelemetry;

impl TelemetryHook for NullTelemetry {
    fn record(&self, _event: TelemetryEvent<'_>) {}
}

/// Human-facing progress lines on stderr, in `lbica-bench sweep`'s
/// established format.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrProgress;

impl TelemetryHook for StderrProgress {
    fn record(&self, event: TelemetryEvent<'_>) {
        match event {
            TelemetryEvent::Cell { cell, .. } => {
                eprintln!("  [{}/{}] cells complete", cell.completed, cell.total);
            }
            TelemetryEvent::SweepEnd { telemetry } => {
                if telemetry.jobs > 1 {
                    eprintln!(
                        "  {} workers, {:.0}% utilization",
                        telemetry.worker_busy_us.len(),
                        telemetry.worker_utilization * 100.0
                    );
                }
            }
            TelemetryEvent::SweepStart { .. } => {}
        }
    }
}

/// Streams every event as one JSON object per line.
///
/// The stream satisfies `lbica_obs::validate::telemetry_jsonl`: it opens
/// with a schema-tagged `start` record, carries one `cell` record per
/// completed cell (in completion order) and closes with an `end` record.
/// Cell ordering and all wall-clock fields are nondeterministic — the
/// stream is an out-of-band artifact, never an input to reports.
#[derive(Debug)]
pub struct JsonlTelemetry<W: io::Write + Send> {
    out: Mutex<W>,
}

impl JsonlTelemetry<io::BufWriter<std::fs::File>> {
    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &std::path::Path) -> io::Result<Self> {
        Ok(Self::from_writer(io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: io::Write + Send> JsonlTelemetry<W> {
    /// Wraps an arbitrary writer.
    pub fn from_writer(writer: W) -> Self {
        JsonlTelemetry { out: Mutex::new(writer) }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(self) -> W {
        let mut w = self.out.into_inner().expect("telemetry writer lock");
        let _ = w.flush();
        w
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().expect("telemetry writer lock");
        let _ = writeln!(out, "{line}");
    }
}

impl<W: io::Write + Send> TelemetryHook for JsonlTelemetry<W> {
    fn record(&self, event: TelemetryEvent<'_>) {
        let mut line = String::new();
        match event {
            TelemetryEvent::SweepStart { matrix, cells, jobs } => {
                let _ = write!(
                    line,
                    "{{\"type\": \"start\", \"schema\": \"{}\", \"matrix\": \"{}\", \
                     \"cells\": {cells}, \"jobs\": {jobs}}}",
                    escape::json(TELEMETRY_SCHEMA),
                    escape::json(matrix),
                );
            }
            TelemetryEvent::Cell { cell, report } => {
                let _ = write!(
                    line,
                    "{{\"type\": \"cell\", \"index\": {}, \"id\": \"{}\", \"worker\": {}, \
                     \"wall_us\": {}, \"events\": {}, \"events_per_sec\": {:.3}, \
                     \"app_completed\": {}, \"completed\": {}, \"total\": {}}}",
                    cell.index,
                    escape::json(&cell.id),
                    cell.worker,
                    cell.wall_us,
                    cell.events,
                    cell.events_per_sec,
                    report.app_completed,
                    cell.completed,
                    cell.total,
                );
            }
            TelemetryEvent::SweepEnd { telemetry } => {
                let mut busy = String::from("[");
                for (i, us) in telemetry.worker_busy_us.iter().enumerate() {
                    if i > 0 {
                        busy.push_str(", ");
                    }
                    let _ = write!(busy, "{us}");
                }
                busy.push(']');
                let _ = write!(
                    line,
                    "{{\"type\": \"end\", \"matrix\": \"{}\", \"jobs\": {}, \"cells\": {}, \
                     \"wall_us\": {}, \"events\": {}, \"events_per_sec\": {:.3}, \
                     \"worker_busy_us\": {busy}, \"worker_utilization\": {:.4}}}",
                    escape::json(&telemetry.matrix),
                    telemetry.jobs,
                    telemetry.cells,
                    telemetry.wall_us,
                    telemetry.events,
                    telemetry.events_per_sec,
                    telemetry.worker_utilization,
                );
            }
        }
        self.write_line(&line);
        if matches!(event, TelemetryEvent::SweepEnd { .. }) {
            let _ = self.out.lock().expect("telemetry writer lock").flush();
        }
    }
}

/// Folds per-cell *simulation* counters into a metrics registry.
///
/// Every folded quantity is deterministic (derived from reports, never
/// from wall-clock) and the fold is commutative — counters add, the
/// gauge takes a maximum, histogram recording is order-independent — so
/// the snapshot is byte-identical for any `--jobs` and any completion
/// order.
#[derive(Debug)]
pub struct MetricsFold {
    inner: Mutex<FoldInner>,
}

#[derive(Debug)]
struct FoldInner {
    registry: MetricsRegistry,
    cells: CounterId,
    app_completed: CounterId,
    events: CounterId,
    policy_changes: CounterId,
    bypassed: CounterId,
    bursts: CounterId,
    spilled_writes: CounterId,
    spilled_reads: CounterId,
    peak_queue: GaugeId,
    cell_avg_latency: HistogramId,
    cell_p99_latency: HistogramId,
}

impl MetricsFold {
    /// An empty fold with every instrument pre-registered.
    pub fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        let cells = registry.counter("lbica_sweep_cells_total", "Cells completed");
        let app_completed =
            registry.counter("lbica_sweep_app_completed_total", "Application requests completed");
        let events =
            registry.counter("lbica_sweep_events_total", "Discrete simulation events processed");
        let policy_changes =
            registry.counter("lbica_sweep_policy_changes_total", "Write-policy changes applied");
        let bypassed =
            registry.counter("lbica_sweep_bypassed_total", "Requests bypassed to the disk");
        let bursts =
            registry.counter("lbica_sweep_burst_intervals_total", "Intervals flagged as bursts");
        let spilled_writes = registry
            .counter("lbica_sweep_spilled_writes_total", "Writes spilled to lower cache tiers");
        let spilled_reads = registry
            .counter("lbica_sweep_spilled_reads_total", "Reads spilled to lower cache tiers");
        let peak_queue = registry
            .gauge("lbica_sweep_peak_event_queue_depth", "Largest event-queue depth of any cell");
        let cell_avg_latency = registry.histogram(
            "lbica_sweep_cell_avg_latency_us",
            "Distribution of per-cell mean application latencies",
        );
        let cell_p99_latency = registry.histogram(
            "lbica_sweep_cell_p99_latency_us",
            "Distribution of per-cell p99 application latencies",
        );
        MetricsFold {
            inner: Mutex::new(FoldInner {
                registry,
                cells,
                app_completed,
                events,
                policy_changes,
                bypassed,
                bursts,
                spilled_writes,
                spilled_reads,
                peak_queue,
                cell_avg_latency,
                cell_p99_latency,
            }),
        }
    }

    /// A deterministic snapshot of the folded metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().expect("metrics fold lock").registry.snapshot()
    }
}

impl Default for MetricsFold {
    fn default() -> Self {
        MetricsFold::new()
    }
}

impl TelemetryHook for MetricsFold {
    fn record(&self, event: TelemetryEvent<'_>) {
        let TelemetryEvent::Cell { report, .. } = event else {
            return;
        };
        let mut inner = self.inner.lock().expect("metrics fold lock");
        let FoldInner {
            cells,
            app_completed,
            events,
            policy_changes,
            bypassed,
            bursts,
            spilled_writes,
            spilled_reads,
            peak_queue,
            cell_avg_latency,
            cell_p99_latency,
            ..
        } = *inner;
        let registry = &mut inner.registry;
        registry.inc(cells);
        registry.add(app_completed, report.app_completed);
        registry.add(events, report.perf.events_processed);
        registry.add(policy_changes, (report.policy_changes.len() as u64).saturating_sub(1));
        registry.add(bypassed, report.bypassed_requests);
        registry.add(bursts, report.burst_intervals() as u64);
        registry.add(spilled_writes, report.spilled_requests());
        registry.add(spilled_reads, report.spilled_reads());
        registry.set_max(peak_queue, report.perf.peak_event_queue_depth as u64);
        registry.record_us(cell_avg_latency, report.app_avg_latency_us);
        registry.record_us(cell_p99_latency, report.app_p99_latency_us);
    }
}

/// Broadcasts every event to a list of hooks, in order.
pub struct FanOut<'a> {
    hooks: &'a [&'a dyn TelemetryHook],
}

impl std::fmt::Debug for FanOut<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanOut").field("hooks", &self.hooks.len()).finish()
    }
}

impl<'a> FanOut<'a> {
    /// A hook that forwards to every hook in `hooks`.
    pub const fn new(hooks: &'a [&'a dyn TelemetryHook]) -> Self {
        FanOut { hooks }
    }
}

impl TelemetryHook for FanOut<'_> {
    fn record(&self, event: TelemetryEvent<'_>) {
        for hook in self.hooks {
            hook.record(event);
        }
    }
}

/// Simulation events per wall-clock second (0 when no time elapsed).
pub(crate) fn events_rate(events: u64, wall_us: u64) -> f64 {
    if wall_us == 0 {
        0.0
    } else {
        events as f64 / (wall_us as f64 / 1_000_000.0)
    }
}

/// Mean busy fraction across the workers over `wall_us`.
pub(crate) fn utilization(busy_us: &[u64], wall_us: u64) -> f64 {
    if busy_us.is_empty() || wall_us == 0 {
        return 0.0;
    }
    let busy: u128 = busy_us.iter().map(|&b| b as u128).sum();
    (busy as f64 / (busy_us.len() as u128 * wall_us as u128) as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SweepExecutor;
    use crate::matrix::ScenarioMatrix;
    use lbica_obs::validate;
    use proptest::prelude::*;

    #[test]
    fn jsonl_stream_validates_and_counts_every_cell() {
        let matrix = ScenarioMatrix::smoke();
        let hook = JsonlTelemetry::from_writer(Vec::new());
        let summary = SweepExecutor::new(2).aggregate_with_telemetry(&matrix, "smoke", &hook);
        assert_eq!(summary.total.cells, matrix.len() as u64);
        let stream = String::from_utf8(hook.into_inner()).expect("utf8 stream");
        let stats = validate::telemetry_jsonl(&stream).expect("valid stream");
        assert_eq!(stats.cells, matrix.len());
        assert_eq!(stats.records, matrix.len() + 2); // start + cells + end
        assert!(stream.contains("\"worker_busy_us\": ["));
    }

    #[test]
    fn telemetry_does_not_change_the_summary() {
        let matrix = ScenarioMatrix::smoke();
        let bare = SweepExecutor::serial().aggregate(&matrix);
        let hook = MetricsFold::new();
        let observed = SweepExecutor::new(4).aggregate_with_telemetry(&matrix, "smoke", &hook);
        assert_eq!(bare, observed);
    }

    #[test]
    fn metrics_fold_counts_deterministic_quantities() {
        let matrix = ScenarioMatrix::smoke();
        let hook = MetricsFold::new();
        SweepExecutor::serial().aggregate_with_telemetry(&matrix, "smoke", &hook);
        let snapshot = hook.snapshot();
        let json = snapshot.render_json();
        validate::metrics_json(&json).expect("valid metrics snapshot");
        let cells = snapshot
            .counters
            .iter()
            .find(|c| c.name == "lbica_sweep_cells_total")
            .expect("cells counter");
        assert_eq!(cells.value, matrix.len() as u64);
        let app = snapshot
            .counters
            .iter()
            .find(|c| c.name == "lbica_sweep_app_completed_total")
            .expect("app counter");
        assert!(app.value > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        // The observability determinism contract, property-tested: the
        // folded metrics snapshot renders byte-identically no matter how
        // many workers raced to complete the cells.
        #[test]
        fn metrics_snapshot_is_job_count_invariant(jobs in 2usize..=8) {
            let matrix = ScenarioMatrix::smoke();
            let serial = MetricsFold::new();
            SweepExecutor::serial().aggregate_with_telemetry(&matrix, "smoke", &serial);
            let parallel = MetricsFold::new();
            SweepExecutor::new(jobs).aggregate_with_telemetry(&matrix, "smoke", &parallel);
            prop_assert_eq!(
                serial.snapshot().render_json(),
                parallel.snapshot().render_json()
            );
            prop_assert_eq!(
                serial.snapshot().render_prometheus(),
                parallel.snapshot().render_prometheus()
            );
        }
    }

    #[test]
    fn fan_out_reaches_every_hook() {
        let matrix = ScenarioMatrix::smoke();
        let jsonl = JsonlTelemetry::from_writer(Vec::new());
        let metrics = MetricsFold::new();
        let hooks: [&dyn TelemetryHook; 2] = [&jsonl, &metrics];
        let fan = FanOut::new(&hooks);
        SweepExecutor::new(2).aggregate_with_telemetry(&matrix, "smoke", &fan);
        let stream = String::from_utf8(jsonl.into_inner()).expect("utf8");
        assert_eq!(validate::telemetry_jsonl(&stream).expect("valid").cells, matrix.len());
        let cells = metrics
            .snapshot()
            .counters
            .iter()
            .find(|c| c.name == "lbica_sweep_cells_total")
            .map(|c| c.value);
        assert_eq!(cells, Some(matrix.len() as u64));
    }

    #[test]
    fn rate_and_utilization_handle_degenerate_inputs() {
        assert_eq!(events_rate(100, 0), 0.0);
        assert!((events_rate(1_000, 1_000_000) - 1_000.0).abs() < 1e-9);
        assert_eq!(utilization(&[], 10), 0.0);
        assert_eq!(utilization(&[10, 10], 0), 0.0);
        assert!((utilization(&[5, 15], 20) - 0.5).abs() < 1e-9);
        // Clamped: folding rounds can make busy exceed wall.
        assert_eq!(utilization(&[100], 10), 1.0);
    }

    #[test]
    fn null_hook_accepts_every_event() {
        NullTelemetry.record(TelemetryEvent::SweepStart { matrix: "x", cells: 1, jobs: 1 });
        let cell = CellTelemetry {
            index: 0,
            id: "id".into(),
            worker: 0,
            wall_us: 1,
            events: 1,
            events_per_sec: 1.0,
            completed: 1,
            total: 2,
        };
        let report = ScenarioMatrix::smoke().cell(0).expect("cell").run();
        NullTelemetry.record(TelemetryEvent::Cell { cell: &cell, report: &report });
    }
}
