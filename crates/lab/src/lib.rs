//! Experiment orchestration for the LBICA reproduction.
//!
//! The paper evaluates exactly three canned workloads against two baselines;
//! this crate generalizes that 3 × 3 grid into a *scenario sweep*:
//!
//! * [`ScenarioMatrix`] — a declarative cartesian product of axes (workload
//!   specs, simulator configurations, controllers, seeds), expanded lazily
//!   into [`Scenario`] cells. Every cell carries a stable id and a stream
//!   seed derived by hashing its coordinates, so results do not depend on
//!   the order in which cells are executed.
//!   [`ScenarioMatrix::named`] resolves the registered matrices
//!   ([`MATRICES`]) by name.
//! * [`SweepExecutor`] — a work-stealing executor built on
//!   `std::thread::scope` and a shared atomic cursor: `jobs` worker threads
//!   pull the next unclaimed cell until the matrix is exhausted.
//! * [`Aggregator`] — a streaming fold of [`SimulationReport`]s into
//!   per-axis summaries (integer accumulators only, so the result is
//!   bit-identical regardless of completion order) without retaining the
//!   individual reports.
//! * [`CsvSink`] / [`JsonSink`] — reporters for the aggregated
//!   [`SweepSummary`].
//! * [`TelemetryHook`] — pluggable execution telemetry (per-cell wall
//!   time, worker utilization, JSONL streams, folded metrics). Telemetry
//!   observes the sweep but never feeds into its results: summaries and
//!   sinks stay byte-identical with any hook attached.
//!
//! [`SimulationReport`]: lbica_sim::SimulationReport
//!
//! # Example
//!
//! ```
//! use lbica_lab::{Aggregator, ScenarioMatrix, SweepExecutor};
//!
//! let matrix = ScenarioMatrix::smoke();
//! let summary = SweepExecutor::new(2).aggregate(&matrix);
//! assert_eq!(summary.total.cells, matrix.len() as u64);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aggregate;
pub mod controller;
pub mod executor;
pub mod matrix;
pub mod scenario;
pub mod sink;
pub mod telemetry;

pub use aggregate::{tenant_rows, Aggregator, GroupStats, SweepSummary, TenantRow, WorkloadDelta};
pub use controller::ControllerKind;
pub use executor::SweepExecutor;
pub use matrix::{ConfigAxis, MatrixDef, ScenarioMatrix, SeedMode, MATRICES, PAPER_SEED};
pub use scenario::{derive_seed, Scenario};
pub use sink::{CsvSink, JsonSink};
pub use telemetry::{
    CellTelemetry, FanOut, JsonlTelemetry, MetricsFold, NullTelemetry, StderrProgress,
    SweepTelemetry, TelemetryEvent, TelemetryHook,
};
