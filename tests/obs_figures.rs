//! Pins the committed reference Chrome traces byte-for-byte with a
//! `SimObserver` attached:
//!
//! * `figures/paper_cell0.trace.json` — the first cell of the canonical
//!   paper matrix (flat datapath, WB);
//! * `figures/tier_policy_cell11.trace.json` — cell 11 of the
//!   `tier-policy` matrix (two-level hierarchy, LBICA-T), the only pin of
//!   what the tiered datapath alone emits: composite policy labels, read
//!   and write spills, and promotion/demotion deltas.
//!
//! The traces carry sim-time only, so this holds across machines, build
//! profiles and worker counts. A diff here means either the simulator's
//! event sequence or the trace encoder changed — fix the regression or
//! consciously re-pin the file (and say so in the PR).

use lbica::lab::{Scenario, ScenarioMatrix};
use lbica::obs::{validate, SimObserver};
use lbica::sim::SimulationConfig;
use lbica::trace::workload::WorkloadScale;

const PAPER_CELL0: &str = include_str!("../figures/paper_cell0.trace.json");
const TIER_POLICY_CELL11: &str = include_str!("../figures/tier_policy_cell11.trace.json");

/// An observed run of `cell`, rendered as a Chrome trace labelled with
/// the cell id — what `sweep --trace-cell` writes.
fn observed_trace(cell: &Scenario) -> String {
    let (_report, observer) = cell.run_observed(SimObserver::new());
    observer.render_chrome_trace(&cell.id())
}

/// Rebuilds the same trace `sweep --matrix paper --trace-cell 0` writes:
/// the canonical paper matrix (`SuiteConfig::harness()` in `lbica-bench`),
/// first cell.
fn paper_cell0_trace() -> String {
    let matrix =
        ScenarioMatrix::paper(WorkloadScale::harness(), SimulationConfig::harness(), 0x1b1c_a000);
    let cell = matrix.cell(0).expect("the paper matrix is non-empty");
    assert_eq!(cell.id(), "tpcc/paper/WB/s454860800", "the canonical first cell moved");
    observed_trace(&cell)
}

/// Rebuilds the same trace `sweep --matrix tier-policy --trace-cell 11`
/// writes.
fn tier_policy_cell11_trace() -> String {
    let cell = ScenarioMatrix::tier_policy().cell(11).expect("the tier-policy matrix has 27 cells");
    assert_eq!(cell.id(), "mail-server/uniform-wb/LBICA-T/s0", "the pinned tiered cell moved");
    observed_trace(&cell)
}

#[test]
fn paper_cell_trace_is_pinned() {
    for (path, fresh, pinned) in [
        ("figures/paper_cell0.trace.json", paper_cell0_trace(), PAPER_CELL0),
        ("figures/tier_policy_cell11.trace.json", tier_policy_cell11_trace(), TIER_POLICY_CELL11),
    ] {
        assert_eq!(fresh, pinned, "{path} no longer regenerates byte-for-byte");
    }
}

#[test]
fn pinned_paper_trace_is_structurally_valid() {
    for (path, trace) in [
        ("figures/paper_cell0.trace.json", PAPER_CELL0),
        ("figures/tier_policy_cell11.trace.json", TIER_POLICY_CELL11),
    ] {
        let stats = validate::chrome_trace(trace)
            .unwrap_or_else(|e| panic!("{path} must stay Perfetto-loadable: {e}"));
        assert!(stats.spans > 0, "{path} must contain interval spans");
        assert!(stats.counters > 0, "{path} must contain counter tracks");
    }
}
