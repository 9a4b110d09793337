//! Streaming aggregation of sweep results.
//!
//! The [`Aggregator`] folds each [`SimulationReport`] into per-axis
//! accumulators the moment it arrives and then drops it, so a sweep of
//! thousands of cells holds O(axis values) state, not O(cells). All
//! accumulators are integers — sums of `u64` measurements in `u128` —
//! which makes the fold associative and commutative: the summary is
//! bit-identical no matter how many worker threads completed the cells or
//! in which order.

use std::collections::BTreeMap;

use lbica_core::percent_reduction;
use lbica_sim::SimulationReport;

use crate::controller::ControllerKind;
use crate::matrix::{ScenarioMatrix, SeedMode};
use crate::scenario::{derive_seed, Scenario};

/// Integer accumulator for one aggregation key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Accum {
    cells: u64,
    app_completed: u64,
    latency_sum_us: u128,
    p50_sum_us: u128,
    p95_sum_us: u128,
    p99_sum_us: u128,
    max_latency_us: u64,
    intervals: u64,
    cache_load_sum_us: u128,
    disk_load_sum_us: u128,
    policy_changes: u64,
    bypassed: u64,
    burst_intervals: u64,
}

impl Accum {
    fn fold(&mut self, cell: &CellSummary) {
        self.cells += 1;
        self.app_completed += cell.app_completed;
        self.latency_sum_us += cell.avg_latency_us as u128;
        self.p50_sum_us += cell.p50_latency_us as u128;
        self.p95_sum_us += cell.p95_latency_us as u128;
        self.p99_sum_us += cell.p99_latency_us as u128;
        self.max_latency_us = self.max_latency_us.max(cell.max_latency_us);
        self.intervals += cell.intervals;
        self.cache_load_sum_us += cell.cache_load_sum_us;
        self.disk_load_sum_us += cell.disk_load_sum_us;
        self.policy_changes += cell.policy_changes;
        self.bypassed += cell.bypassed_requests;
        self.burst_intervals += cell.burst_intervals;
    }

    fn avg_latency_us(&self) -> f64 {
        ratio(self.latency_sum_us, self.cells as u128)
    }

    fn avg_cache_load_us(&self) -> f64 {
        ratio(self.cache_load_sum_us, self.intervals as u128)
    }

    fn avg_disk_load_us(&self) -> f64 {
        ratio(self.disk_load_sum_us, self.intervals as u128)
    }

    fn stats(&self, key: String) -> GroupStats {
        GroupStats {
            key,
            cells: self.cells,
            app_completed: self.app_completed,
            avg_latency_us: self.avg_latency_us(),
            avg_p50_latency_us: ratio(self.p50_sum_us, self.cells as u128),
            avg_p95_latency_us: ratio(self.p95_sum_us, self.cells as u128),
            avg_p99_latency_us: ratio(self.p99_sum_us, self.cells as u128),
            max_latency_us: self.max_latency_us,
            avg_cache_load_us: self.avg_cache_load_us(),
            avg_disk_load_us: self.avg_disk_load_us(),
            policy_changes: self.policy_changes,
            bypassed_requests: self.bypassed,
            burst_intervals: self.burst_intervals,
        }
    }
}

fn ratio(num: u128, den: u128) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything the [`Aggregator`] extracts from one finished cell: the
/// aggregation keys (coordinates) plus pre-summed integer measurements.
/// Every measurement is an integer, so folding is associative and
/// commutative across completion order.
#[derive(Debug)]
struct CellSummary {
    /// Workload-axis coordinate (aggregation key).
    workload: String,
    /// Configuration-axis coordinate (aggregation key).
    config: String,
    /// Controller-axis coordinate (aggregation key).
    controller: String,
    /// Application requests completed.
    app_completed: u64,
    /// The cell's mean application latency, µs.
    avg_latency_us: u64,
    /// The cell's median application latency, µs (log-bucketed).
    p50_latency_us: u64,
    /// The cell's 95th-percentile application latency, µs (log-bucketed).
    p95_latency_us: u64,
    /// The cell's 99th-percentile application latency, µs (log-bucketed).
    p99_latency_us: u64,
    /// The cell's maximum application latency, µs.
    max_latency_us: u64,
    /// Number of monitoring intervals the cell reported.
    intervals: u64,
    /// Sum of per-interval maximum cache latencies, µs.
    cache_load_sum_us: u128,
    /// Sum of per-interval maximum disk latencies, µs.
    disk_load_sum_us: u128,
    /// Write-policy changes applied after the initial policy.
    policy_changes: u64,
    /// Requests bypassed from the cache queue to the disk.
    bypassed_requests: u64,
    /// Intervals the controller flagged as bursts.
    burst_intervals: u64,
}

impl CellSummary {
    /// Extracts the summary of one finished cell.
    fn capture(scenario: &Scenario, report: &SimulationReport) -> Self {
        CellSummary {
            workload: scenario.workload().name().to_string(),
            config: scenario.config_label().to_string(),
            controller: scenario.controller().label().to_string(),
            app_completed: report.app_completed,
            avg_latency_us: report.app_avg_latency_us,
            p50_latency_us: report.app_p50_latency_us,
            p95_latency_us: report.app_p95_latency_us,
            p99_latency_us: report.app_p99_latency_us,
            max_latency_us: report.app_max_latency_us,
            intervals: report.intervals.len() as u64,
            cache_load_sum_us: report
                .intervals
                .iter()
                .map(|i| i.cache.max_latency_us as u128)
                .sum::<u128>(),
            disk_load_sum_us: report
                .intervals
                .iter()
                .map(|i| i.disk.max_latency_us as u128)
                .sum::<u128>(),
            policy_changes: (report.policy_changes.len() as u64).saturating_sub(1),
            bypassed_requests: report.bypassed_requests,
            burst_intervals: report.burst_intervals() as u64,
        }
    }
}

/// Aggregated measurements for one axis value (or the whole sweep).
///
/// `avg_latency_us` is the mean of the cells' average application
/// latencies; the load averages are means over every monitoring interval
/// of every cell in the group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStats {
    /// The axis value this row aggregates (`"total"` for the sweep row).
    pub key: String,
    /// Number of cells folded into the row.
    pub cells: u64,
    /// Total application requests completed.
    pub app_completed: u64,
    /// Mean of the cells' average application latencies, µs.
    pub avg_latency_us: f64,
    /// Mean of the cells' median application latencies, µs.
    pub avg_p50_latency_us: f64,
    /// Mean of the cells' 95th-percentile application latencies, µs.
    pub avg_p95_latency_us: f64,
    /// Mean of the cells' 99th-percentile application latencies, µs.
    pub avg_p99_latency_us: f64,
    /// Maximum application latency observed in any cell, µs.
    pub max_latency_us: u64,
    /// Mean per-interval I/O-cache load (max latency), µs — Fig. 4's
    /// metric.
    pub avg_cache_load_us: f64,
    /// Mean per-interval disk-subsystem load, µs — Fig. 5's metric.
    pub avg_disk_load_us: f64,
    /// Total write-policy changes applied by the controllers.
    pub policy_changes: u64,
    /// Total requests bypassed from the cache queue to the disk.
    pub bypassed_requests: u64,
    /// Total intervals flagged as bursts.
    pub burst_intervals: u64,
}

/// LBICA-vs-WB improvement for one workload, derived from the
/// (workload × controller) accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDelta {
    /// The workload the delta describes.
    pub workload: String,
    /// Reduction of the mean I/O-cache load, LBICA vs WB, percent.
    pub cache_load_reduction_vs_wb_pct: f64,
    /// Improvement of the mean application latency, LBICA vs WB, percent.
    pub latency_improvement_vs_wb_pct: f64,
}

/// The offered load of one tenant of a multi-tenant workload, regenerated
/// from the workload definition — not measured from simulation results (the
/// merged stream loses tenant identity once scheduled). Because the
/// regeneration is a pure function of the matrix definition, tenant rows
/// are byte-identical for any `--jobs` count, and identical whether
/// attached before or after execution.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TenantRow {
    /// The multi-tenant workload the tenant belongs to.
    pub workload: String,
    /// The tenant's index within the mix.
    pub tenant: u32,
    /// Name of the template the tenant runs.
    pub template: String,
    /// Distinct (config, seed) streams folded into the row.
    pub streams: u64,
    /// Requests the tenant offers across those streams.
    pub records: u64,
    /// Read requests offered.
    pub read_records: u64,
    /// Write requests offered.
    pub write_records: u64,
    /// Sectors transferred by the offered requests.
    pub sectors: u64,
}

/// Regenerates the per-tenant offered-load rows of every multi-tenant
/// workload on `matrix`'s workload axis — one row per (workload, tenant),
/// summed over the matrix's distinct (config, seed) streams (controllers
/// share a stream, so they are not re-counted). Single-stream workloads
/// contribute no rows, which keeps summaries of tenant-free matrices
/// byte-identical to their pre-tenant renders.
pub fn tenant_rows(matrix: &ScenarioMatrix) -> Vec<TenantRow> {
    let mut rows = Vec::new();
    for spec in matrix.workloads() {
        let Some(mix) = spec.tenants() else { continue };
        for tenant in 0..mix.count() {
            let template =
                mix.templates()[tenant as usize % mix.templates().len()].name().to_string();
            let mut row = TenantRow {
                workload: spec.name().to_string(),
                tenant,
                template,
                streams: 0,
                records: 0,
                read_records: 0,
                write_records: 0,
                sectors: 0,
            };
            for config in matrix.configs() {
                for &seed in matrix.seeds() {
                    let stream_seed = match matrix.seed_mode() {
                        SeedMode::Derived => derive_seed(spec.name(), &config.label, seed),
                        SeedMode::Literal => seed,
                    };
                    row.streams += 1;
                    for index in 0..spec.total_intervals() {
                        for record in spec.tenant_interval(tenant, index, stream_seed) {
                            row.records += 1;
                            if record.kind.is_read() {
                                row.read_records += 1;
                            } else {
                                row.write_records += 1;
                            }
                            row.sectors += u64::from(record.sectors);
                        }
                    }
                }
            }
            rows.push(row);
        }
    }
    rows
}

/// The rendered output of a sweep: one total row plus per-axis breakdowns
/// and the LBICA-vs-WB deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// The whole-sweep row.
    pub total: GroupStats,
    /// One row per workload, sorted by name.
    pub by_workload: Vec<GroupStats>,
    /// One row per controller, sorted by label.
    pub by_controller: Vec<GroupStats>,
    /// One row per configuration label, sorted.
    pub by_config: Vec<GroupStats>,
    /// Per-workload LBICA-vs-WB deltas (workloads whose sweep ran both
    /// controllers), sorted by workload.
    pub lbica_vs_wb: Vec<WorkloadDelta>,
    /// Per-tenant offered-load rows of the matrix's multi-tenant workloads
    /// (empty until attached via [`SweepSummary::with_tenant_rows`], and
    /// empty for matrices without tenant mixes).
    pub by_tenant: Vec<TenantRow>,
}

impl SweepSummary {
    /// The delta row for `workload`, if both WB and LBICA ran.
    pub fn delta(&self, workload: &str) -> Option<&WorkloadDelta> {
        self.lbica_vs_wb.iter().find(|d| d.workload == workload)
    }

    /// The per-workload row for `workload`.
    pub fn workload(&self, workload: &str) -> Option<&GroupStats> {
        self.by_workload.iter().find(|g| g.key == workload)
    }

    /// Attaches the per-tenant offered-load rows regenerated from `matrix`
    /// (builder style) — see [`tenant_rows`].
    pub fn with_tenant_rows(mut self, matrix: &ScenarioMatrix) -> Self {
        self.by_tenant = tenant_rows(matrix);
        self
    }
}

/// Folds [`SimulationReport`]s into per-axis summaries without retaining
/// them.
#[derive(Debug, Clone, Default)]
pub struct Aggregator {
    total: Accum,
    by_workload: BTreeMap<String, Accum>,
    by_controller: BTreeMap<String, Accum>,
    by_config: BTreeMap<String, Accum>,
    pairs: BTreeMap<(String, String), Accum>,
}

impl Aggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Aggregator::default()
    }

    /// Number of cells observed so far.
    pub const fn cells(&self) -> u64 {
        self.total.cells
    }

    /// Folds one cell's report into the accumulators.
    pub fn observe(&mut self, scenario: &Scenario, report: &SimulationReport) {
        let cell = &CellSummary::capture(scenario, report);
        self.total.fold(cell);
        self.by_workload.entry(cell.workload.clone()).or_default().fold(cell);
        self.by_controller.entry(cell.controller.clone()).or_default().fold(cell);
        self.by_config.entry(cell.config.clone()).or_default().fold(cell);
        self.pairs.entry((cell.workload.clone(), cell.controller.clone())).or_default().fold(cell);
    }

    /// Renders the summary from the current accumulators.
    pub fn summary(&self) -> SweepSummary {
        let rows = |map: &BTreeMap<String, Accum>| {
            map.iter().map(|(k, a)| a.stats(k.clone())).collect::<Vec<_>>()
        };
        let mut deltas = Vec::new();
        for workload in self.by_workload.keys() {
            let wb = self.pairs.get(&(workload.clone(), ControllerKind::Wb.label().to_string()));
            let lbica =
                self.pairs.get(&(workload.clone(), ControllerKind::Lbica.label().to_string()));
            if let (Some(wb), Some(lbica)) = (wb, lbica) {
                deltas.push(WorkloadDelta {
                    workload: workload.clone(),
                    cache_load_reduction_vs_wb_pct: percent_reduction(
                        wb.avg_cache_load_us(),
                        lbica.avg_cache_load_us(),
                    ),
                    latency_improvement_vs_wb_pct: percent_reduction(
                        wb.avg_latency_us(),
                        lbica.avg_latency_us(),
                    ),
                });
            }
        }
        SweepSummary {
            total: self.total.stats("total".to_string()),
            by_workload: rows(&self.by_workload),
            by_controller: rows(&self.by_controller),
            by_config: rows(&self.by_config),
            lbica_vs_wb: deltas,
            by_tenant: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ScenarioMatrix;

    fn folded_smoke() -> (ScenarioMatrix, Aggregator) {
        let matrix = ScenarioMatrix::smoke();
        let mut agg = Aggregator::new();
        for cell in matrix.cells() {
            let report = cell.run();
            agg.observe(&cell, &report);
        }
        (matrix, agg)
    }

    #[test]
    fn summary_groups_cover_every_axis_value() {
        let (matrix, agg) = folded_smoke();
        assert_eq!(agg.cells(), matrix.len() as u64);
        let summary = agg.summary();
        assert_eq!(summary.total.cells, matrix.len() as u64);
        assert_eq!(summary.by_workload.len(), 2);
        assert_eq!(summary.by_controller.len(), 3);
        assert_eq!(summary.by_config.len(), 1);
        assert_eq!(summary.lbica_vs_wb.len(), 2);
        // Per-axis cell counts sum back to the total.
        let per_workload: u64 = summary.by_workload.iter().map(|g| g.cells).sum();
        assert_eq!(per_workload, summary.total.cells);
        assert!(summary.total.app_completed > 0);
        assert!(summary.workload("web-server").is_some());
        assert!(summary.delta("web-server").is_some());
        assert!(summary.delta("nope").is_none());
    }

    #[test]
    fn fold_order_does_not_change_the_summary() {
        let matrix = ScenarioMatrix::smoke();
        let cells: Vec<_> = matrix.cells().collect();
        let reports: Vec<_> = cells.iter().map(|c| c.run()).collect();
        let mut forward = Aggregator::new();
        for (c, r) in cells.iter().zip(&reports) {
            forward.observe(c, r);
        }
        let mut backward = Aggregator::new();
        for (c, r) in cells.iter().zip(&reports).rev() {
            backward.observe(c, r);
        }
        assert_eq!(forward.summary(), backward.summary());
    }

    #[test]
    fn capture_extracts_coordinates_and_integer_measurements() {
        let matrix = ScenarioMatrix::smoke();
        let cell = matrix.cell(2).expect("in bounds");
        let report = cell.run();
        let summary = CellSummary::capture(&cell, &report);
        assert_eq!(summary.workload, cell.workload().name());
        assert_eq!(summary.config, cell.config_label());
        assert_eq!(summary.controller, cell.controller().label());
        assert_eq!(summary.app_completed, report.app_completed);
        assert_eq!(summary.intervals, report.intervals.len() as u64);
        assert_eq!(summary.p50_latency_us, report.app_p50_latency_us);
        assert_eq!(summary.p95_latency_us, report.app_p95_latency_us);
        assert_eq!(summary.p99_latency_us, report.app_p99_latency_us);
        assert!(summary.p50_latency_us <= summary.p95_latency_us);
        assert!(summary.p95_latency_us <= summary.p99_latency_us);
        assert!(summary.p99_latency_us <= summary.max_latency_us);
    }

    #[test]
    fn empty_aggregator_summarizes_to_zeroes() {
        let summary = Aggregator::new().summary();
        assert_eq!(summary.total.cells, 0);
        assert_eq!(summary.total.avg_latency_us, 0.0);
        assert!(summary.by_workload.is_empty());
        assert!(summary.lbica_vs_wb.is_empty());
        assert!(summary.by_tenant.is_empty());
    }

    #[test]
    fn tenant_rows_cover_every_tenant_of_every_mix() {
        let matrix = ScenarioMatrix::multi_tenant();
        let rows = tenant_rows(&matrix);
        // mt1 + mt2 + mt4 tenants.
        assert_eq!(rows.len(), 1 + 2 + 4);
        for row in &rows {
            assert_eq!(row.streams, 1, "1 config x 1 seed");
            assert!(row.records > 0, "tenant {}/{} offered no load", row.workload, row.tenant);
            assert_eq!(row.records, row.read_records + row.write_records);
            assert!(row.sectors > 0);
        }
        // Regeneration is deterministic.
        assert_eq!(rows, tenant_rows(&matrix));
        // Under a literal seed every mix shares one stream seed, so tenant
        // 0 (identical template across mixes) offers the identical stream
        // in every mix — the tenant-count stability property, at row
        // granularity.
        let pinned = tenant_rows(&ScenarioMatrix::multi_tenant().with_literal_seed(9));
        let t0: Vec<&TenantRow> = pinned.iter().filter(|r| r.tenant == 0).collect();
        assert_eq!(t0.len(), 3);
        assert!(t0.windows(2).all(|w| w[0].records == w[1].records
            && w[0].read_records == w[1].read_records
            && w[0].sectors == w[1].sectors));
    }

    #[test]
    fn tenant_rows_are_empty_for_single_stream_matrices() {
        assert!(tenant_rows(&ScenarioMatrix::smoke()).is_empty());
        assert!(tenant_rows(&ScenarioMatrix::tiny()).is_empty());
    }

    #[test]
    fn attaching_tenant_rows_is_independent_of_execution() {
        let matrix = ScenarioMatrix::paper_mt();
        let executed =
            crate::executor::SweepExecutor::serial().aggregate(&matrix).with_tenant_rows(&matrix);
        let unexecuted = Aggregator::new().summary().with_tenant_rows(&matrix);
        assert_eq!(executed.by_tenant, unexecuted.by_tenant);
        assert_eq!(executed.by_tenant.len(), 6);
    }
}
