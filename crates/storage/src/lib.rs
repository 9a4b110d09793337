//! Block-device substrate for the LBICA reproduction.
//!
//! This crate provides the storage-hierarchy primitives that every other
//! crate in the workspace builds on:
//!
//! * [`time`] — a microsecond-resolution simulated clock type, [`SimTime`],
//!   and a duration type, [`SimDuration`].
//! * [`block`] — logical block addressing ([`Lba`], [`BlockRange`]).
//! * [`request`] — the I/O request taxonomy used by the paper:
//!   application **R**ead, application **W**rite, cache **P**romote and
//!   cache **E**vict ([`RequestClass`]), carried by [`IoRequest`].
//! * [`device`] — analytical service-time models for the two tiers of the
//!   storage hierarchy: [`SsdModel`] (the I/O cache device) and
//!   [`HddModel`] (the disk subsystem), both implementing [`DeviceModel`].
//! * [`queue`] — [`DeviceQueue`], a FIFO device queue (requests are never
//!   merged) with wait-time accounting and snapshot support; this is the
//!   structure whose depth (`ssdQSize` / `hddQSize`) drives LBICA's
//!   bottleneck detector.
//! * [`snap`] — [`SnapWriter`] / [`SnapReader`], the hand-rolled
//!   little-endian encoding replay checkpoints use to serialize mid-flight
//!   simulation state across every crate in the workspace.
//! * [`hash`] — FNV-1a and the splitmix64 finisher, from which cell seeds
//!   and tenant seeds are derived.
//!
//! # Example
//!
//! ```
//! use lbica_storage::device::{DeviceModel, SsdModel, HddModel};
//! use lbica_storage::request::{IoRequest, RequestKind, RequestOrigin};
//! use lbica_storage::time::SimTime;
//!
//! let mut ssd = SsdModel::samsung_863a();
//! let mut hdd = HddModel::seagate_7200_sas();
//! let req = IoRequest::new(0, RequestKind::Read, RequestOrigin::Application, 42, 8)
//!     .with_arrival(SimTime::ZERO);
//! // An SSD serves a small random read orders of magnitude faster than an HDD.
//! assert!(ssd.service_time(&req) < hdd.service_time(&req));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod device;
pub mod error;
pub mod hash;
pub mod histogram;
pub mod queue;
pub mod request;
pub mod snap;
pub mod time;

pub use block::{BlockRange, Lba, BLOCK_SECTORS, SECTOR_SIZE};
pub use device::{
    AnyDeviceModel, DeviceKind, DeviceModel, HddConfig, HddModel, SsdConfig, SsdModel,
};
pub use error::StorageError;
pub use histogram::LatencyHistogram;
pub use queue::{DeviceQueue, QueueSnapshot, QueueStats};
pub use request::{IoRequest, RequestClass, RequestId, RequestKind, RequestOrigin};
pub use snap::{SnapError, SnapReader, SnapWriter};
pub use time::{SimDuration, SimTime};
