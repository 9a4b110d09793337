//! Runs the paper's (workload × controller) evaluation matrix.
//!
//! Since the `lbica-lab` sweep subsystem landed, the paper figures are just
//! one small canonical [`ScenarioMatrix`]: three workloads × three
//! controllers sharing a single literal seed, executed by the
//! work-stealing [`SweepExecutor`] so all nine cells run concurrently.

use lbica_core::{HeadlineSummary, WorkloadComparison};
use lbica_lab::{ControllerKind, ScenarioMatrix, SweepExecutor, PAPER_SEED};
use lbica_sim::{SimulationConfig, SimulationReport};
use lbica_trace::workload::WorkloadScale;

/// Configuration of a full suite run.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Workload scale (interval counts, arrival rates, footprints).
    pub scale: WorkloadScale,
    /// Simulator configuration (cache geometry, device models).
    pub sim: SimulationConfig,
    /// Random seed shared by every run so the three schemes see identical
    /// arrival streams.
    pub seed: u64,
}

impl SuiteConfig {
    /// The full-size configuration used for the published figures.
    pub fn harness() -> Self {
        SuiteConfig {
            scale: WorkloadScale::harness(),
            sim: SimulationConfig::harness(),
            seed: PAPER_SEED,
        }
    }

    /// A scaled-down configuration for tests and Criterion benches.
    pub fn tiny() -> Self {
        SuiteConfig {
            scale: WorkloadScale::tiny(),
            sim: SimulationConfig::tiny(),
            seed: PAPER_SEED,
        }
    }

    /// The canonical paper matrix this configuration describes.
    pub fn matrix(&self) -> ScenarioMatrix {
        ScenarioMatrix::paper(self.scale, self.sim, self.seed)
    }
}

/// The three per-controller reports for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Report under the WB baseline.
    pub wb: SimulationReport,
    /// Report under SIB.
    pub sib: SimulationReport,
    /// Report under LBICA.
    pub lbica: SimulationReport,
}

impl WorkloadResult {
    /// The report for a given scheme.
    ///
    /// # Panics
    ///
    /// Panics for [`ControllerKind::LbicaTier`]: the paper's figure suite
    /// compares exactly WB, SIB and LBICA.
    pub fn report(&self, kind: ControllerKind) -> &SimulationReport {
        match kind {
            ControllerKind::Wb => &self.wb,
            ControllerKind::Sib => &self.sib,
            ControllerKind::Lbica => &self.lbica,
            ControllerKind::LbicaTier => {
                panic!("the paper suite tracks WB/SIB/LBICA only")
            }
        }
    }

    /// The per-workload comparison (load reductions, latency improvements).
    pub fn comparison(&self) -> WorkloadComparison {
        WorkloadComparison::from_reports(&self.wb, &self.sib, &self.lbica)
    }
}

/// The full evaluation (every workload under every controller).
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// Per-workload results, in the paper's order (TPC-C, mail, web).
    pub workloads: Vec<WorkloadResult>,
}

impl SuiteResult {
    /// The cross-workload headline summary (abstract numbers).
    pub fn headline(&self) -> HeadlineSummary {
        HeadlineSummary::new(self.workloads.iter().map(|w| w.comparison()).collect())
    }

    /// Looks a workload up by name.
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.workload == name)
    }
}

/// Regroups a matrix's cell-ordered reports into per-workload results.
fn group_reports(matrix: &ScenarioMatrix, reports: Vec<SimulationReport>) -> SuiteResult {
    let mut slots: Vec<(String, [Option<SimulationReport>; 3])> =
        matrix.workloads().iter().map(|w| (w.name().to_string(), [None, None, None])).collect();
    for (scenario, report) in matrix.cells().zip(reports) {
        let entry = slots
            .iter_mut()
            .find(|(name, _)| name == scenario.workload().name())
            .expect("every cell belongs to a workload-axis entry");
        let slot = match scenario.controller() {
            ControllerKind::Wb => 0,
            ControllerKind::Sib => 1,
            ControllerKind::Lbica => 2,
            ControllerKind::LbicaTier => unreachable!("the paper matrix has no LBICA-T cells"),
        };
        entry.1[slot] = Some(report);
    }
    SuiteResult {
        workloads: slots
            .into_iter()
            .map(|(workload, [wb, sib, lbica])| WorkloadResult {
                workload,
                wb: wb.expect("WB report"),
                sib: sib.expect("SIB report"),
                lbica: lbica.expect("LBICA report"),
            })
            .collect(),
    }
}

/// Runs the full paper suite (TPC-C, mail server, web server × WB, SIB,
/// LBICA) on `jobs` workers (`0` = one per core); all nine cells fan out
/// together. The result is identical for every `jobs` value; only
/// wall-clock time changes.
pub fn run_suite(config: &SuiteConfig, jobs: usize) -> SuiteResult {
    let matrix = config.matrix();
    let reports = SweepExecutor::new(jobs).run(&matrix);
    group_reports(&matrix, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_sim::Simulation;
    use lbica_trace::workload::WorkloadSpec;

    #[test]
    fn controller_kinds_build_correctly_named_controllers() {
        for kind in ControllerKind::ALL {
            let c = kind.build();
            assert_eq!(c.name(), kind.label());
        }
    }

    #[test]
    fn tiny_suite_runs_and_produces_reports_for_all_workloads() {
        let result = run_suite(&SuiteConfig::tiny(), 0);
        assert_eq!(result.workloads.len(), 3);
        for w in &result.workloads {
            assert_eq!(w.wb.controller, "WB");
            assert_eq!(w.sib.controller, "SIB");
            assert_eq!(w.lbica.controller, "LBICA");
            assert!(w.wb.app_completed > 0);
            assert_eq!(w.wb.intervals.len(), w.lbica.intervals.len());
        }
        assert!(result.workload("tpcc").is_some());
        assert!(result.workload("nope").is_none());
        let headline = result.headline();
        assert_eq!(headline.comparisons.len(), 3);
    }

    #[test]
    fn suite_results_are_identical_serial_and_parallel() {
        let config = SuiteConfig::tiny();
        let serial = run_suite(&config, 1);
        let parallel = run_suite(&config, 8);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn suite_matches_a_direct_controller_run() {
        // The executor path must agree with a plain single-cell run: same
        // literal seed, same reports.
        let config = SuiteConfig::tiny();
        let spec = WorkloadSpec::tpcc_scaled(config.scale);
        let direct = Simulation::new(config.sim, spec, config.seed)
            .run(ControllerKind::Lbica.build().as_mut());
        let suite = run_suite(&config, 0);
        assert_eq!(suite.workload("tpcc").unwrap().lbica, direct);
    }

    #[test]
    fn report_accessor_matches_kind() {
        let suite = run_suite(&SuiteConfig::tiny(), 0);
        let result = suite.workload("web-server").expect("the suite runs web-server");
        assert_eq!(result.report(ControllerKind::Wb).controller, "WB");
        assert_eq!(result.report(ControllerKind::Sib).controller, "SIB");
        assert_eq!(result.report(ControllerKind::Lbica).controller, "LBICA");
    }
}
