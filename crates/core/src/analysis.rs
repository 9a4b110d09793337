//! Aggregate comparisons between controllers — the numbers the paper quotes
//! in its abstract and Section IV.

use std::fmt;

use serde::{Deserialize, Serialize};

use lbica_sim::SimulationReport;

/// Relative reduction of `after` with respect to `before`, in percent.
/// Returns 0 when `before` is zero and clamps negative "reductions"
/// (regressions) to their signed value so they remain visible.
pub fn percent_reduction(before: f64, after: f64) -> f64 {
    if before <= f64::EPSILON {
        0.0
    } else {
        (before - after) / before * 100.0
    }
}

/// The comparison of the three schemes on one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadComparison {
    /// Workload name.
    pub workload: String,
    /// Average per-interval cache load (max latency, µs) under the WB
    /// baseline.
    pub wb_cache_load_us: f64,
    /// Average cache load under SIB.
    pub sib_cache_load_us: f64,
    /// Average cache load under LBICA.
    pub lbica_cache_load_us: f64,
    /// Average per-interval disk load under WB / SIB / LBICA.
    pub wb_disk_load_us: f64,
    /// Average disk load under SIB.
    pub sib_disk_load_us: f64,
    /// Average disk load under LBICA.
    pub lbica_disk_load_us: f64,
    /// Mean application latency under the WB baseline (µs, Fig. 7).
    pub wb_avg_latency_us: u64,
    /// Mean application latency under SIB.
    pub sib_avg_latency_us: u64,
    /// Mean application latency under LBICA.
    pub lbica_avg_latency_us: u64,
}

impl WorkloadComparison {
    /// Builds a comparison from the three per-controller reports of one
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics if the three reports describe different workloads.
    pub fn from_reports(
        wb: &SimulationReport,
        sib: &SimulationReport,
        lbica: &SimulationReport,
    ) -> Self {
        assert_eq!(wb.workload, sib.workload, "reports must describe the same workload");
        assert_eq!(wb.workload, lbica.workload, "reports must describe the same workload");
        WorkloadComparison {
            workload: wb.workload.clone(),
            wb_cache_load_us: wb.avg_cache_load_us(),
            sib_cache_load_us: sib.avg_cache_load_us(),
            lbica_cache_load_us: lbica.avg_cache_load_us(),
            wb_disk_load_us: wb.avg_disk_load_us(),
            sib_disk_load_us: sib.avg_disk_load_us(),
            lbica_disk_load_us: lbica.avg_disk_load_us(),
            wb_avg_latency_us: wb.app_avg_latency_us,
            sib_avg_latency_us: sib.app_avg_latency_us,
            lbica_avg_latency_us: lbica.app_avg_latency_us,
        }
    }

    /// Cache-load reduction of LBICA relative to the WB baseline, percent.
    pub fn cache_load_reduction_vs_wb(&self) -> f64 {
        percent_reduction(self.wb_cache_load_us, self.lbica_cache_load_us)
    }

    /// Cache-load reduction of LBICA relative to SIB, percent (the paper's
    /// headline "reduces the load on the I/O cache").
    pub fn cache_load_reduction_vs_sib(&self) -> f64 {
        percent_reduction(self.sib_cache_load_us, self.lbica_cache_load_us)
    }

    /// Latency improvement of LBICA relative to the WB baseline, percent.
    pub fn latency_improvement_vs_wb(&self) -> f64 {
        percent_reduction(self.wb_avg_latency_us as f64, self.lbica_avg_latency_us as f64)
    }

    /// Latency improvement of LBICA relative to SIB, percent.
    pub fn latency_improvement_vs_sib(&self) -> f64 {
        percent_reduction(self.sib_avg_latency_us as f64, self.lbica_avg_latency_us as f64)
    }
}

impl fmt::Display for WorkloadComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "workload: {}", self.workload)?;
        writeln!(
            f,
            "  cache load (us): WB {:.0}  SIB {:.0}  LBICA {:.0}",
            self.wb_cache_load_us, self.sib_cache_load_us, self.lbica_cache_load_us
        )?;
        writeln!(
            f,
            "  disk load  (us): WB {:.0}  SIB {:.0}  LBICA {:.0}",
            self.wb_disk_load_us, self.sib_disk_load_us, self.lbica_disk_load_us
        )?;
        write!(
            f,
            "  avg latency(us): WB {}  SIB {}  LBICA {}",
            self.wb_avg_latency_us, self.sib_avg_latency_us, self.lbica_avg_latency_us
        )
    }
}

/// The cross-workload aggregate the paper's abstract quotes: average cache
/// load reduction and average performance improvement of LBICA versus SIB
/// and the WB baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadlineSummary {
    /// Per-workload comparisons this summary aggregates.
    pub comparisons: Vec<WorkloadComparison>,
}

impl HeadlineSummary {
    /// Builds the summary from per-workload comparisons.
    pub fn new(comparisons: Vec<WorkloadComparison>) -> Self {
        HeadlineSummary { comparisons }
    }

    fn mean(values: impl Iterator<Item = f64>) -> f64 {
        let collected: Vec<f64> = values.collect();
        if collected.is_empty() {
            0.0
        } else {
            collected.iter().sum::<f64>() / collected.len() as f64
        }
    }

    /// Average cache-load reduction of LBICA vs the WB baseline (the paper
    /// reports 48 % on average, up to 70 %).
    pub fn avg_cache_load_reduction_vs_wb(&self) -> f64 {
        Self::mean(self.comparisons.iter().map(|c| c.cache_load_reduction_vs_wb()))
    }

    /// Average cache-load reduction of LBICA vs SIB (the paper reports 30 %).
    pub fn avg_cache_load_reduction_vs_sib(&self) -> f64 {
        Self::mean(self.comparisons.iter().map(|c| c.cache_load_reduction_vs_sib()))
    }

    /// Maximum cache-load reduction vs the WB baseline across workloads.
    pub fn max_cache_load_reduction_vs_wb(&self) -> f64 {
        self.comparisons.iter().map(|c| c.cache_load_reduction_vs_wb()).fold(0.0, f64::max)
    }

    /// Average latency improvement of LBICA vs the WB baseline (paper: 14 %
    /// on average, up to 22 %).
    pub fn avg_latency_improvement_vs_wb(&self) -> f64 {
        Self::mean(self.comparisons.iter().map(|c| c.latency_improvement_vs_wb()))
    }

    /// Average latency improvement of LBICA vs SIB (paper: 7 % on average,
    /// up to 11.7 %).
    pub fn avg_latency_improvement_vs_sib(&self) -> f64 {
        Self::mean(self.comparisons.iter().map(|c| c.latency_improvement_vs_sib()))
    }
}

impl fmt::Display for HeadlineSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.comparisons {
            writeln!(f, "{c}")?;
        }
        writeln!(
            f,
            "LBICA cache-load reduction: {:.1}% vs WB (max {:.1}%), {:.1}% vs SIB",
            self.avg_cache_load_reduction_vs_wb(),
            self.max_cache_load_reduction_vs_wb(),
            self.avg_cache_load_reduction_vs_sib()
        )?;
        write!(
            f,
            "LBICA latency improvement:  {:.1}% vs WB, {:.1}% vs SIB",
            self.avg_latency_improvement_vs_wb(),
            self.avg_latency_improvement_vs_sib()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_cache::CacheStats;

    fn report(workload: &str, controller: &str, cache_load: u64, latency: u64) -> SimulationReport {
        use lbica_trace::monitor::{IntervalReport, TierReport};
        SimulationReport {
            workload: workload.into(),
            controller: controller.into(),
            total_intervals: 1,
            intervals: vec![IntervalReport {
                index: 0,
                cache: TierReport { max_latency_us: cache_load, ..TierReport::default() },
                disk: TierReport { max_latency_us: cache_load / 2, ..TierReport::default() },
                ..IntervalReport::default()
            }],
            policy_changes: Vec::new(),
            app_completed: 100,
            unfinished_requests: 0,
            app_avg_latency_us: latency,
            app_max_latency_us: latency * 2,
            app_p50_latency_us: latency,
            app_p95_latency_us: latency * 2,
            app_p99_latency_us: latency * 2,
            bypassed_requests: 0,
            cache_stats: CacheStats::default(),
            perf: Default::default(),
            tier_stats: Vec::new(),
        }
    }

    #[test]
    fn percent_reduction_basics() {
        assert!((percent_reduction(200.0, 100.0) - 50.0).abs() < 1e-9);
        assert!((percent_reduction(100.0, 130.0) + 30.0).abs() < 1e-9);
        assert_eq!(percent_reduction(0.0, 10.0), 0.0);
    }

    #[test]
    fn comparison_computes_reductions() {
        let wb = report("tpcc", "WB", 400, 300);
        let sib = report("tpcc", "SIB", 300, 280);
        let lbica = report("tpcc", "LBICA", 200, 250);
        let c = WorkloadComparison::from_reports(&wb, &sib, &lbica);
        assert!((c.cache_load_reduction_vs_wb() - 50.0).abs() < 1e-9);
        assert!((c.cache_load_reduction_vs_sib() - 33.333).abs() < 0.01);
        assert!(c.latency_improvement_vs_wb() > 16.0);
        assert!(c.latency_improvement_vs_sib() > 10.0);
        assert!(c.to_string().contains("tpcc"));
    }

    #[test]
    #[should_panic(expected = "same workload")]
    fn mismatched_workloads_panic() {
        let wb = report("tpcc", "WB", 400, 300);
        let sib = report("mail", "SIB", 300, 280);
        let lbica = report("tpcc", "LBICA", 200, 250);
        let _ = WorkloadComparison::from_reports(&wb, &sib, &lbica);
    }

    #[test]
    fn headline_summary_averages_across_workloads() {
        let mk = |w: &str| {
            WorkloadComparison::from_reports(
                &report(w, "WB", 400, 300),
                &report(w, "SIB", 300, 280),
                &report(w, "LBICA", 200, 250),
            )
        };
        let summary = HeadlineSummary::new(vec![mk("tpcc"), mk("mail"), mk("web")]);
        assert!((summary.avg_cache_load_reduction_vs_wb() - 50.0).abs() < 1e-9);
        assert!((summary.max_cache_load_reduction_vs_wb() - 50.0).abs() < 1e-9);
        assert!(summary.avg_latency_improvement_vs_sib() > 0.0);
        assert!(summary.to_string().contains("cache-load reduction"));
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let summary = HeadlineSummary::new(Vec::new());
        assert_eq!(summary.avg_cache_load_reduction_vs_wb(), 0.0);
        assert_eq!(summary.avg_latency_improvement_vs_wb(), 0.0);
    }
}
