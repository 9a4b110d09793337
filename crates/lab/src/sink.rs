//! CSV and JSON reporters for aggregated sweep summaries.
//!
//! Both sinks render from the deterministic [`SweepSummary`], so a sweep
//! produces byte-identical files regardless of `--jobs`. The JSON emitter
//! is hand-rolled: the build environment has no `serde_json`, and the
//! summary's shape is small and fixed. Strings are quoted with
//! [`lbica_obs::escape::json`], and the output reads back with
//! [`lbica_obs::json::parse`].

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use lbica_obs::escape;

use crate::aggregate::{GroupStats, SweepSummary, TenantRow};

/// Renders a [`SweepSummary`] as a single CSV table.
///
/// Each row is one aggregation group tagged by `section`
/// (`total` / `workload` / `controller` / `config`); workload rows
/// additionally carry the LBICA-vs-WB delta columns. Rows for which the
/// delta is undefined carry an explicit `n/a` sentinel in both columns.
///
/// **Pairwise-delta limitation:** the delta columns compare exactly one
/// controller pair — LBICA against the WB baseline, the paper's headline
/// comparison — and are defined per *workload* group only. Any other row
/// (total/controller/config sections, and workload groups whose cells do
/// not contain both a LBICA and a WB run — e.g. a matrix whose controller
/// axis is `LBICA-T` vs `WB`) renders `n/a`. Generalizing to arbitrary
/// controller pairs is a tracked ROADMAP item ("Pairwise controller
/// deltas + a controller bake-off framework"); until it lands, `n/a`
/// distinguishes "no delta defined here" from a delta of zero.
#[derive(Debug, Clone, Copy)]
pub struct CsvSink;

impl CsvSink {
    /// The header line of the CSV output.
    pub const HEADER: &'static str = "section,key,cells,app_completed,avg_latency_us,\
         avg_p50_latency_us,avg_p95_latency_us,avg_p99_latency_us,\
         max_latency_us,avg_cache_load_us,avg_disk_load_us,policy_changes,bypassed_requests,\
         burst_intervals,cache_load_reduction_vs_wb_pct,latency_improvement_vs_wb_pct";

    /// Renders the summary to a CSV string.
    pub fn render(summary: &SweepSummary) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", Self::HEADER);
        Self::push_row(&mut out, "total", &summary.total, None);
        for group in &summary.by_workload {
            let delta = summary.delta(&group.key);
            Self::push_row(
                &mut out,
                "workload",
                group,
                delta.map(|d| (d.cache_load_reduction_vs_wb_pct, d.latency_improvement_vs_wb_pct)),
            );
        }
        for group in &summary.by_controller {
            Self::push_row(&mut out, "controller", group, None);
        }
        for group in &summary.by_config {
            Self::push_row(&mut out, "config", group, None);
        }
        for row in &summary.by_tenant {
            Self::push_tenant_row(&mut out, row);
        }
        out
    }

    /// Renders and writes the summary to `path`.
    pub fn write_to(path: &Path, summary: &SweepSummary) -> io::Result<()> {
        fs::write(path, Self::render(summary))
    }

    fn push_row(out: &mut String, section: &str, g: &GroupStats, delta: Option<(f64, f64)>) {
        let _ = write!(
            out,
            "{section},{},{},{},{:.3},{:.3},{:.3},{:.3},{},{:.3},{:.3},{},{},{}",
            g.key,
            g.cells,
            g.app_completed,
            g.avg_latency_us,
            g.avg_p50_latency_us,
            g.avg_p95_latency_us,
            g.avg_p99_latency_us,
            g.max_latency_us,
            g.avg_cache_load_us,
            g.avg_disk_load_us,
            g.policy_changes,
            g.bypassed_requests,
            g.burst_intervals,
        );
        match delta {
            Some((load, latency)) => {
                let _ = writeln!(out, ",{load:.3},{latency:.3}");
            }
            None => {
                // Explicit sentinel, not empty cells: consumers can tell
                // "no LBICA-vs-WB delta defined for this row" apart from
                // a blank field (see the pairwise-delta limitation above).
                let _ = writeln!(out, ",n/a,n/a");
            }
        }
    }

    /// Renders one per-tenant offered-load row in the shared 16-column
    /// shape: `cells` carries the stream count and `app_completed` the
    /// offered record count; the remaining measured columns are `n/a`
    /// because tenant rows describe the workload definition, not an
    /// executed cell. Full per-tenant fidelity (read/write split, sector
    /// volume) lives in the JSON sink's `by_tenant` array.
    fn push_tenant_row(out: &mut String, row: &TenantRow) {
        let _ = writeln!(
            out,
            "tenant,{}/t{}/{},{},{},n/a,n/a,n/a,n/a,n/a,n/a,n/a,n/a,n/a,n/a,n/a,n/a",
            row.workload, row.tenant, row.template, row.streams, row.records,
        );
    }
}

/// Renders a [`SweepSummary`] as a JSON document.
#[derive(Debug, Clone, Copy)]
pub struct JsonSink;

impl JsonSink {
    /// Renders the summary to a JSON string.
    pub fn render(summary: &SweepSummary) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"total\": {},", Self::group(&summary.total));
        Self::group_array(&mut out, "by_workload", &summary.by_workload);
        Self::group_array(&mut out, "by_controller", &summary.by_controller);
        Self::group_array(&mut out, "by_config", &summary.by_config);
        out.push_str("  \"by_tenant\": [");
        for (i, t) in summary.by_tenant.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"workload\": \"{}\", \"tenant\": {}, \"template\": \"{}\", \
                 \"streams\": {}, \"records\": {}, \"read_records\": {}, \
                 \"write_records\": {}, \"sectors\": {}}}",
                escape::json(&t.workload),
                t.tenant,
                escape::json(&t.template),
                t.streams,
                t.records,
                t.read_records,
                t.write_records,
                t.sectors,
            );
        }
        out.push_str("],\n");
        out.push_str("  \"lbica_vs_wb\": [");
        for (i, d) in summary.lbica_vs_wb.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"workload\": \"{}\", \"cache_load_reduction_vs_wb_pct\": {:.3}, \
                 \"latency_improvement_vs_wb_pct\": {:.3}}}",
                escape::json(&d.workload),
                d.cache_load_reduction_vs_wb_pct,
                d.latency_improvement_vs_wb_pct,
            );
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders and writes the summary to `path`.
    pub fn write_to(path: &Path, summary: &SweepSummary) -> io::Result<()> {
        fs::write(path, Self::render(summary))
    }

    fn group_array(out: &mut String, name: &str, groups: &[GroupStats]) {
        let _ = write!(out, "  \"{name}\": [");
        for (i, g) in groups.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&Self::group(g));
        }
        out.push_str("],\n");
    }

    fn group(g: &GroupStats) -> String {
        format!(
            "{{\"key\": \"{}\", \"cells\": {}, \"app_completed\": {}, \
             \"avg_latency_us\": {:.3}, \"avg_p50_latency_us\": {:.3}, \
             \"avg_p95_latency_us\": {:.3}, \"avg_p99_latency_us\": {:.3}, \
             \"max_latency_us\": {}, \
             \"avg_cache_load_us\": {:.3}, \"avg_disk_load_us\": {:.3}, \
             \"policy_changes\": {}, \"bypassed_requests\": {}, \"burst_intervals\": {}}}",
            escape::json(&g.key),
            g.cells,
            g.app_completed,
            g.avg_latency_us,
            g.avg_p50_latency_us,
            g.avg_p95_latency_us,
            g.avg_p99_latency_us,
            g.max_latency_us,
            g.avg_cache_load_us,
            g.avg_disk_load_us,
            g.policy_changes,
            g.bypassed_requests,
            g.burst_intervals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregator;
    use crate::executor::SweepExecutor;
    use crate::matrix::ScenarioMatrix;

    fn smoke_summary() -> SweepSummary {
        SweepExecutor::serial().aggregate(&ScenarioMatrix::smoke())
    }

    #[test]
    fn csv_has_one_row_per_group_plus_header() {
        let summary = smoke_summary();
        let csv = CsvSink::render(&summary);
        let expected = 1 // header
            + 1 // total
            + summary.by_workload.len()
            + summary.by_controller.len()
            + summary.by_config.len();
        assert_eq!(csv.lines().count(), expected);
        assert!(csv.starts_with("section,key,cells"));
        let header = csv.lines().next().unwrap();
        for column in ["avg_p50_latency_us", "avg_p95_latency_us", "avg_p99_latency_us"] {
            assert!(header.contains(column), "missing column {column}");
        }
        // Workload rows carry delta columns; the total row marks them n/a.
        let total_row = csv.lines().nth(1).unwrap();
        assert!(total_row.ends_with(",n/a,n/a"));
        let workload_row = csv.lines().find(|l| l.starts_with("workload,")).unwrap();
        assert!(!workload_row.ends_with(",n/a,n/a"));
        // Every row has the same column count as the header.
        let columns = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), columns, "row {line}");
        }
    }

    #[test]
    fn json_is_balanced_and_mentions_every_section() {
        let json = JsonSink::render(&smoke_summary());
        for key in [
            "\"total\"",
            "\"by_workload\"",
            "\"by_controller\"",
            "\"by_config\"",
            "\"lbica_vs_wb\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        lbica_obs::json::parse(&json).expect("summary parses");
    }

    #[test]
    fn renders_are_deterministic() {
        let a = smoke_summary();
        let b = smoke_summary();
        assert_eq!(CsvSink::render(&a), CsvSink::render(&b));
        assert_eq!(JsonSink::render(&a), JsonSink::render(&b));
    }

    #[test]
    fn empty_summary_renders_without_panicking() {
        let summary = Aggregator::new().summary();
        assert!(CsvSink::render(&summary).contains("total"));
        let json = JsonSink::render(&summary);
        assert!(json.contains("\"cells\": 0"));
        lbica_obs::json::parse(&json).expect("empty summary parses");
    }

    #[test]
    fn tenant_rows_render_in_both_sinks() {
        let matrix = ScenarioMatrix::multi_tenant();
        let summary = SweepExecutor::serial().aggregate(&matrix).with_tenant_rows(&matrix);
        assert_eq!(summary.by_tenant.len(), 7); // mt1 + mt2 + mt4

        let csv = CsvSink::render(&summary);
        let tenant_rows: Vec<&str> = csv.lines().filter(|l| l.starts_with("tenant,")).collect();
        assert_eq!(tenant_rows.len(), 7);
        assert!(tenant_rows.iter().any(|l| l.starts_with("tenant,mt4/t3/")));
        // Tenant rows keep the uniform column count of the table.
        let columns = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), columns, "row {line}");
        }

        let json = JsonSink::render(&summary);
        assert!(json.contains("\"by_tenant\""));
        assert!(json.contains("\"read_records\""));
        // `lbica_vs_wb` must stay the final key (no trailing comma after it).
        assert!(json.rfind("\"by_tenant\"").unwrap() < json.rfind("\"lbica_vs_wb\"").unwrap());
        let doc = lbica_obs::json::parse(&json).expect("summary parses");
        assert_eq!(doc.array_field("by_tenant").unwrap().len(), 7);
    }

    #[test]
    fn tenant_free_summaries_render_an_empty_tenant_section() {
        let summary = smoke_summary();
        assert!(!CsvSink::render(&summary).contains("\ntenant,"));
        assert!(JsonSink::render(&summary).contains("\"by_tenant\": []"));
    }
}
