//! Work-stealing execution of a scenario matrix.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lbica_sim::SimulationReport;

use crate::aggregate::{Aggregator, SweepSummary};
use crate::matrix::ScenarioMatrix;
use crate::scenario::Scenario;
use crate::telemetry::{
    events_rate, utilization, CellTelemetry, NullTelemetry, SweepTelemetry, TelemetryEvent,
    TelemetryHook,
};

/// Runs the cells of a [`ScenarioMatrix`] across worker threads.
///
/// Scheduling is a shared atomic cursor over the cell index space: each
/// worker claims the next unclaimed cell with `fetch_add` and runs it to
/// completion, so long cells never stall the queue behind them. Because a
/// cell's stream seed depends only on its coordinates, the *results* are
/// identical for any `jobs` — only wall-clock time changes.
#[derive(Debug, Clone, Copy)]
pub struct SweepExecutor {
    jobs: usize,
}

impl SweepExecutor {
    /// Creates an executor with `jobs` worker threads; `0` means one per
    /// available core.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 { Self::default_jobs() } else { jobs };
        SweepExecutor { jobs }
    }

    /// A single-threaded executor (useful as the determinism reference).
    pub fn serial() -> Self {
        SweepExecutor { jobs: 1 }
    }

    /// The number of worker threads this executor spawns.
    pub const fn jobs(&self) -> usize {
        self.jobs
    }

    /// One worker per available core (at least one).
    pub fn default_jobs() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// The scheduling primitive behind every execution entry point: runs
    /// every cell of `matrix`, invoking
    /// `handle(worker, index, scenario, report, wall_us)` from worker
    /// threads as each cell completes, in nondeterministic order. `index`
    /// is the cell's matrix index. The worker index and wall-clock time
    /// exist only for telemetry — nothing derived from them may flow into
    /// reports.
    fn run_cells<F>(&self, matrix: &ScenarioMatrix, handle: F)
    where
        F: Fn(usize, usize, &Scenario, SimulationReport, u64) + Sync,
    {
        let cells = matrix.len();
        if cells == 0 {
            return;
        }
        let workers = self.jobs.min(cells);
        let cursor = AtomicUsize::new(0);
        let cursor = &cursor;
        let handle = &handle;
        std::thread::scope(|scope| {
            for worker in 0..workers {
                scope.spawn(move || {
                    // One arena per worker: cells claimed by this thread
                    // reuse the previous cell's backing stores whenever the
                    // config repeats (the common case — a matrix axis varies
                    // workload/controller/seed far more often than config).
                    // Reset is observationally equivalent to fresh
                    // construction, so reports stay byte-identical for any
                    // jobs count and any claim order.
                    let mut arena = lbica_sim::SimArena::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= cells {
                            break;
                        }
                        let scenario = matrix.cell(index).expect("cursor index in bounds");
                        let started = Instant::now();
                        let report = scenario.run_in(&mut arena);
                        let wall_us = started.elapsed().as_micros() as u64;
                        handle(worker, index, &scenario, report, wall_us);
                    }
                });
            }
        });
    }

    /// Runs every cell and returns the reports in cell-enumeration order.
    pub fn run(&self, matrix: &ScenarioMatrix) -> Vec<SimulationReport> {
        let slots: Mutex<Vec<Option<SimulationReport>>> = Mutex::new(vec![None; matrix.len()]);
        self.run_cells(matrix, |_, index, _, report, _| {
            slots.lock().expect("slot lock")[index] = Some(report);
        });
        slots
            .into_inner()
            .expect("slot lock")
            .into_iter()
            .map(|r| r.expect("every cell produced a report"))
            .collect()
    }

    /// Runs every cell, streaming each report into an [`Aggregator`] and
    /// discarding it; returns the aggregated summary. `hook` receives a
    /// [`TelemetryEvent::SweepStart`], one [`TelemetryEvent::Cell`] per
    /// completed cell (in completion order, with its wall-clock timing)
    /// and a [`TelemetryEvent::SweepEnd`] carrying the [`SweepTelemetry`].
    /// The summary itself reads only deterministic simulation quantities:
    /// it is byte-identical for any `jobs` and any hook (including none).
    pub fn aggregate_with_telemetry(
        &self,
        matrix: &ScenarioMatrix,
        matrix_name: &str,
        hook: &dyn TelemetryHook,
    ) -> SweepSummary {
        let total = matrix.len();
        hook.record(TelemetryEvent::SweepStart {
            matrix: matrix_name,
            cells: total,
            jobs: self.jobs,
        });
        let workers = self.jobs.min(total).max(1);
        let done = AtomicUsize::new(0);
        let busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let events = AtomicU64::new(0);
        let aggregator = Mutex::new(Aggregator::new());
        let started = Instant::now();
        self.run_cells(matrix, |worker, index, scenario, report, wall_us| {
            aggregator.lock().expect("aggregator lock").observe(scenario, &report);
            busy[worker].fetch_add(wall_us, Ordering::Relaxed);
            events.fetch_add(report.perf.events_processed, Ordering::Relaxed);
            let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
            let cell = CellTelemetry {
                index,
                id: scenario.id(),
                worker,
                wall_us,
                events: report.perf.events_processed,
                events_per_sec: events_rate(report.perf.events_processed, wall_us),
                completed,
                total,
            };
            hook.record(TelemetryEvent::Cell { cell: &cell, report: &report });
        });
        let wall_us = started.elapsed().as_micros() as u64;
        let busy: Vec<u64> = busy.into_iter().map(AtomicU64::into_inner).collect();
        let total_events = events.into_inner();
        let telemetry = SweepTelemetry {
            matrix: matrix_name.to_string(),
            jobs: self.jobs,
            cells: total,
            wall_us,
            events: total_events,
            events_per_sec: events_rate(total_events, wall_us),
            worker_utilization: utilization(&busy, wall_us),
            worker_busy_us: busy,
        };
        hook.record(TelemetryEvent::SweepEnd { telemetry: &telemetry });
        aggregator.into_inner().expect("aggregator lock").summary()
    }

    /// [`SweepExecutor::aggregate_with_telemetry`] without telemetry.
    pub fn aggregate(&self, matrix: &ScenarioMatrix) -> SweepSummary {
        self.aggregate_with_telemetry(matrix, "", &NullTelemetry)
    }
}

impl Default for SweepExecutor {
    fn default() -> Self {
        SweepExecutor::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_come_back_in_cell_order_regardless_of_jobs() {
        let matrix = ScenarioMatrix::smoke();
        let serial = SweepExecutor::serial().run(&matrix);
        assert_eq!(serial.len(), matrix.len());
        for (cell, report) in matrix.cells().zip(&serial) {
            assert_eq!(cell.workload().name(), report.workload);
            assert_eq!(cell.controller().label(), report.controller);
        }
        let parallel = SweepExecutor::new(4).run(&matrix);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn aggregation_is_deterministic_across_job_counts() {
        let matrix = ScenarioMatrix::smoke();
        let a = SweepExecutor::serial().aggregate(&matrix);
        let b = SweepExecutor::new(4).aggregate(&matrix);
        assert_eq!(a, b);
        assert_eq!(a.total.cells, matrix.len() as u64);
    }

    #[test]
    fn progress_reaches_the_total_exactly_once_per_cell() {
        /// Counts cell events and the highest `completed` they carry.
        struct Counting<'a> {
            total: usize,
            calls: &'a AtomicUsize,
            max_seen: &'a AtomicUsize,
        }
        impl TelemetryHook for Counting<'_> {
            fn record(&self, event: TelemetryEvent<'_>) {
                if let TelemetryEvent::Cell { cell, .. } = event {
                    self.calls.fetch_add(1, Ordering::Relaxed);
                    self.max_seen.fetch_max(cell.completed, Ordering::Relaxed);
                    assert_eq!(cell.total, self.total);
                }
            }
        }
        let matrix = ScenarioMatrix::smoke();
        let calls = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        let hook = Counting { total: matrix.len(), calls: &calls, max_seen: &max_seen };
        SweepExecutor::new(2).aggregate_with_telemetry(&matrix, "smoke", &hook);
        assert_eq!(calls.into_inner(), matrix.len());
        assert_eq!(max_seen.into_inner(), matrix.len());
    }

    #[test]
    fn empty_matrix_is_a_no_op() {
        let matrix = ScenarioMatrix::new();
        assert!(SweepExecutor::new(3).run(&matrix).is_empty());
        let summary = SweepExecutor::new(3).aggregate(&matrix);
        assert_eq!(summary.total.cells, 0);
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert!(SweepExecutor::new(0).jobs() >= 1);
        assert_eq!(SweepExecutor::serial().jobs(), 1);
    }
}
