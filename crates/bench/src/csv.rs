//! CSV / console emitters for the reproduced figures and tables.

use std::fmt::Write as _;

use lbica_lab::ControllerKind;

use crate::harness::{SuiteResult, WorkloadResult};

/// Fig. 4 — per-interval I/O cache load (max latency, µs) for the three
/// schemes, one CSV per workload: `interval,WB,SIB,LBICA`.
pub fn fig4_cache_load_csv(result: &WorkloadResult) -> String {
    per_interval_csv(result, |report, idx| report.intervals[idx].cache.max_latency_us)
}

/// Fig. 5 — per-interval disk-subsystem load (max latency, µs):
/// `interval,WB,SIB,LBICA`.
pub fn fig5_disk_load_csv(result: &WorkloadResult) -> String {
    per_interval_csv(result, |report, idx| report.intervals[idx].disk.max_latency_us)
}

/// Fig. 6 — LBICA's per-interval view: cache and disk load, burst flag,
/// detected mix and assigned policy:
/// `interval,cache_max_us,disk_max_us,burst,R,W,P,E,policy`.
pub fn fig6_policy_timeline_csv(result: &WorkloadResult) -> String {
    let mut out = String::from("interval,cache_max_us,disk_max_us,burst,R,W,P,E,policy\n");
    for interval in &result.lbica.intervals {
        let mix = interval.cache_queue_mix;
        let total = mix.total().max(1) as f64;
        let _ = writeln!(
            out,
            "{},{},{},{},{:.3},{:.3},{:.3},{:.3},{}",
            interval.index,
            interval.cache.max_latency_us,
            interval.disk.max_latency_us,
            interval.burst_detected as u8,
            mix.reads as f64 / total,
            mix.writes as f64 / total,
            mix.promotes as f64 / total,
            mix.evicts as f64 / total,
            interval.policy_label,
        );
    }
    out
}

/// Fig. 7 — average application latency (µs) per workload and scheme:
/// `workload,WB,SIB,LBICA`.
pub fn fig7_avg_latency_csv(suite: &SuiteResult) -> String {
    let mut out = String::from("workload,WB,SIB,LBICA\n");
    for w in &suite.workloads {
        let _ = writeln!(
            out,
            "{},{},{},{}",
            w.workload,
            w.wb.app_avg_latency_us,
            w.sib.app_avg_latency_us,
            w.lbica.app_avg_latency_us
        );
    }
    out
}

/// The headline table: load reductions and latency improvements per
/// workload plus the cross-workload averages the abstract quotes.
pub fn headline_table(suite: &SuiteResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>14} {:>16} {:>16}",
        "workload", "cache-WB(us)", "cache-LBICA", "vs WB (%)", "vs SIB (%)", "latency vs WB (%)"
    );
    for w in &suite.workloads {
        let c = w.comparison();
        let _ = writeln!(
            out,
            "{:<12} {:>12.0} {:>12.0} {:>14.1} {:>16.1} {:>16.1}",
            c.workload,
            c.wb_cache_load_us,
            c.lbica_cache_load_us,
            c.cache_load_reduction_vs_wb(),
            c.cache_load_reduction_vs_sib(),
            c.latency_improvement_vs_wb(),
        );
    }
    let headline = suite.headline();
    let _ = writeln!(out).and_then(|_| writeln!(out, "{headline}"));
    out
}

fn per_interval_csv(
    result: &WorkloadResult,
    value: impl Fn(&lbica_sim::SimulationReport, usize) -> u64,
) -> String {
    let mut out = String::from("interval,WB,SIB,LBICA\n");
    let intervals = result.wb.intervals.len();
    for idx in 0..intervals {
        let _ = writeln!(
            out,
            "{},{},{},{}",
            idx,
            value(result.report(ControllerKind::Wb), idx),
            value(result.report(ControllerKind::Sib), idx),
            value(result.report(ControllerKind::Lbica), idx),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_suite, SuiteConfig};

    fn tiny_result() -> WorkloadResult {
        let suite = run_suite(&SuiteConfig::tiny(), 0);
        suite.workload("web-server").expect("the suite runs web-server").clone()
    }

    #[test]
    fn fig4_and_fig5_csvs_have_one_row_per_interval() {
        let result = tiny_result();
        let fig4 = fig4_cache_load_csv(&result);
        let fig5 = fig5_disk_load_csv(&result);
        let expected_rows = result.wb.intervals.len() + 1;
        assert_eq!(fig4.lines().count(), expected_rows);
        assert_eq!(fig5.lines().count(), expected_rows);
        assert!(fig4.starts_with("interval,WB,SIB,LBICA"));
    }

    #[test]
    fn fig6_csv_contains_policy_labels() {
        let result = tiny_result();
        let fig6 = fig6_policy_timeline_csv(&result);
        assert!(fig6.contains("policy"));
        // Every data row ends with a policy label column that parses.
        for line in fig6.lines().skip(1) {
            let policy = line.rsplit(',').next().unwrap();
            assert!(["WB", "WT", "RO", "WO"].contains(&policy), "bad policy {policy}");
        }
    }

    #[test]
    fn fig7_and_headline_cover_all_workloads() {
        let suite = run_suite(&SuiteConfig::tiny(), 0);
        let fig7 = fig7_avg_latency_csv(&suite);
        assert_eq!(fig7.lines().count(), 4);
        let table = headline_table(&suite);
        for name in ["tpcc", "mail-server", "web-server"] {
            assert!(fig7.contains(name));
            assert!(table.contains(name));
        }
        assert!(table.contains("LBICA cache-load reduction"));
    }
}
