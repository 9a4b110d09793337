//! Observability substrate for the LBICA reproduction.
//!
//! The source paper is at heart an observability loop: `iostat`/`blktrace`
//! monitors feed a controller that reacts to queue buildup. This crate gives
//! the reproduction the same introspection for itself, under one hard rule —
//! the **determinism contract**: attaching any instrument from this crate to
//! a simulation or sweep must never change its reports. Telemetry is
//! out-of-band; wall-clock time lives only in telemetry artifacts, never in
//! simulator output.
//!
//! Three pieces:
//!
//! - [`MetricsRegistry`] — counters, gauges and latency histograms behind
//!   index handles with interned `&'static str` names. Updating an
//!   instrument is an array index plus an integer op: no allocation, no
//!   locking, no hashing on the hot path. Snapshots render to Prometheus
//!   text or JSON.
//! - [`TraceRing`] — a bounded ring buffer of structured simulation events
//!   stamped in *sim-time*, with deterministic 1-in-N sampling and an
//!   exporter to Chrome trace-event JSON ([`chrome::render`]) loadable in
//!   Perfetto.
//! - [`SimObserver`] — the facade the simulator runners talk to: one
//!   registry plus one ring with pre-registered instruments for the event
//!   vocabulary of the sim (interval rollover, burst, policy change,
//!   bypass/spill/promotion/demotion, queue high-water marks).
//!
//! Every JSON artifact reads back through [`json::parse`], which the CI
//! checks in [`validate`] build on.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chrome;
pub mod escape;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod ring;
pub mod validate;

pub use metrics::{
    CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot, METRICS_SCHEMA,
};
pub use observer::{QueueTier, SimObserver};
pub use ring::{SmallLabel, TraceEvent, TraceEventKind, TraceRing};
