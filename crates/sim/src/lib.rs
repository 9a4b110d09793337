//! Discrete-event simulator of a two-tier (SSD cache + disk subsystem)
//! storage hierarchy.
//!
//! The paper evaluates LBICA on a physical server; this crate provides the
//! deterministic, seedable stand-in: an event-driven model of
//!
//! * an application issuing the open-loop request stream of a
//!   [`lbica_trace::workload::WorkloadSpec`],
//! * the EnhanceIO-like [`lbica_cache::CacheModule`] that turns each
//!   application request into derived SSD / disk operations under the
//!   current write policy,
//! * two [`DeviceStation`]s — the SSD cache device and the disk subsystem —
//!   each a FIFO [`lbica_storage::queue::DeviceQueue`] in front of a
//!   configurable number of service slots, and
//! * the `iostat` / `blktrace` monitors sampled once per interval.
//!
//! That system is [`StorageSystem`]. The same [`System`], built around the
//! N-level [`lbica_tier::TieredCacheModule`] instead, is
//! [`TieredStorageSystem`]: one station per cache level in front of the
//! disk subsystem. [`System`] is generic over the sealed [`CacheFront`]
//! trait, which carries only what the two cache modules do differently.
//!
//! A [`CacheController`] (the WB baseline, SIB, or LBICA from
//! `lbica-core`) is consulted at every monitoring-interval boundary and may
//! switch the cache write policy and/or bypass queued requests to the disk
//! subsystem — exactly the two knobs the paper's Fig. 2 gives LBICA.
//!
//! # Example
//!
//! ```
//! use lbica_sim::{Simulation, SimulationConfig, StaticPolicyController};
//! use lbica_trace::workload::{WorkloadScale, WorkloadSpec};
//!
//! let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
//! let mut sim = Simulation::new(SimulationConfig::tiny(), spec, 42);
//! let report = sim.run(&mut StaticPolicyController::write_back());
//! assert_eq!(report.intervals.len() as u32, report.total_intervals);
//! assert!(report.app_completed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod checkpoint;
pub mod config;
pub mod controller;
pub mod event;
pub mod report;
pub mod runner;
pub mod system;
pub mod tiered;
pub mod tracker;

pub use arena::SimArena;
pub use checkpoint::ReplayCheckpoint;
pub use config::{DiskDeviceConfig, SimulationConfig};
pub use controller::{
    BypassDirective, CacheController, ControllerContext, ControllerDecision,
    StaticPolicyController, TierLoad,
};
pub use event::{EventKind, EventQueue};
pub use lbica_storage::snap::SnapError;
pub use report::{PolicyChange, SimPerf, SimulationReport, TierLevelStats};
pub use runner::Simulation;
pub use system::{CacheFront, DeviceStation, StorageSystem, System};
pub use tiered::TieredStorageSystem;
pub use tracker::AppTracker;
