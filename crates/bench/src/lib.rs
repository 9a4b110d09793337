//! Figure- and table-reproduction harness for the LBICA paper.
//!
//! The paper's evaluation consists of four artefacts, each regenerated by
//! `lbica-bench reproduce`:
//!
//! * **Fig. 4** — I/O cache load (max latency per interval) under WB, SIB
//!   and LBICA for TPC-C, mail-server and web-server workloads;
//! * **Fig. 5** — the same series for the disk subsystem;
//! * **Fig. 6** — LBICA's burst detection, workload characterization and
//!   per-interval policy assignment;
//! * **Fig. 7** — average application latency per workload and scheme,
//!   plus the headline percentages quoted in the abstract.
//!
//! [`harness::run_suite`] runs all nine simulations (3 workloads × 3
//! controllers) concurrently on the `lbica-lab` sweep executor, and
//! [`csv`] renders the CSV files and console tables. The crate's one
//! binary, `lbica-bench`, has three subcommands: `reproduce` writes the
//! figures, `sweep` runs a named `lbica-lab` scenario matrix
//! (`--matrix tiny|paper|paper-tiered|...`) into aggregated CSV/JSON
//! summaries, and `validate` checks a telemetry stream, metrics snapshot
//! or Chrome trace. Simulator speed is measured by the standalone
//! `perfbench` package at the repository root, not by this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod harness;

pub use harness::{run_suite, SuiteConfig, SuiteResult, WorkloadResult};
