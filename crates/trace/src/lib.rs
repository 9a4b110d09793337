//! Workload generation, block-trace tooling and I/O monitors.
//!
//! The paper drives its physical testbed with burst-heavy enterprise
//! workloads (TPC-C, a mail server, a web server) and observes the system
//! with two kernel tools: `iostat` (per-device queue sizes and service
//! times, used by LBICA's bottleneck detector) and `blktrace` (the types of
//! the requests currently sitting in a queue, used by the workload
//! characterizer). This crate reproduces all three ingredients in
//! simulation:
//!
//! * [`record`] / [`io`] — `blktrace`-style [`TraceRecord`]s plus text and
//!   binary readers/writers so traces can be captured, stored and replayed.
//! * [`gen`] — composable address-pattern generators (random, sequential,
//!   Zipfian, mixed) and an arrival process for open-loop request streams.
//! * [`workload`] — [`WorkloadSpec`]: a phase-structured description of a
//!   burst workload, with canned specs for the paper's three workloads.
//! * [`monitor`] — [`IostatCollector`] and [`BlktraceProbe`]: the per-interval
//!   measurement channels LBICA consumes.
//!
//! # Example
//!
//! ```
//! use lbica_trace::workload::WorkloadSpec;
//!
//! let spec = WorkloadSpec::tpcc();
//! assert_eq!(spec.name(), "tpcc");
//! // The spec knows how many monitoring intervals the paper plots for it.
//! assert_eq!(spec.total_intervals(), 200);
//! let records = spec.generate_interval(3, 42);
//! assert!(!records.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod gen;
pub mod io;
pub mod monitor;
pub mod record;
pub mod workload;

/// Re-exported for the lab's cell seeds, so they and the tenant seeds share one hash.
pub use lbica_storage::hash;

pub use analyze::{analyze_intervals, TraceAnalysis};
pub use gen::{AccessPattern, ArrivalProcess, PatternSpec};
pub use io::{
    import_text_to_binary, import_text_trace, write_text_trace, BinaryTraceCodec, ImportError,
    ImportLineError,
};
pub use monitor::{BlktraceProbe, IntervalReport, IostatCollector, TierReport};
pub use record::TraceRecord;
pub use workload::{
    BurstPhase, DiurnalCurve, PhaseIntensity, TenantMix, TraceSpanError, WorkloadKind,
    WorkloadScale, WorkloadSpec,
};
