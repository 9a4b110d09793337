//! An EnhanceIO-like SSD block cache with runtime-switchable write policies.
//!
//! The paper implements its I/O cache with the EnhanceIO kernel module: a
//! *datapath* cache through which every application request passes. The
//! cache decides, per request, which derived operations hit the SSD (the
//! cache device) and which hit the HDD (the disk subsystem), and the mix of
//! those derived operations — application **R**ead / **W**rite plus cache
//! **P**romote / **E**vict — is exactly what LBICA's workload characterizer
//! observes in the SSD queue.
//!
//! This crate provides:
//!
//! * [`WritePolicy`] — the four policies the paper switches between:
//!   write-back (WB), write-through (WT), read-only (RO) and write-only (WO);
//! * [`SetAssociativeMap`] — the block-to-cache-slot mapping with LRU or
//!   FIFO replacement and dirty-bit tracking;
//! * [`CacheModule`] — the datapath cache itself: feed it an application
//!   [`lbica_storage::request::IoRequest`] and it returns a [`CacheOutcome`]
//!   listing the derived device operations, honouring whichever policy is
//!   currently assigned;
//! * [`CacheStats`] — hit/miss/promote/evict accounting.
//!
//! # Example
//!
//! ```
//! use lbica_cache::{CacheConfig, CacheModule, WritePolicy};
//! use lbica_storage::request::{IoRequest, RequestKind, RequestOrigin};
//!
//! let mut cache = CacheModule::new(CacheConfig::small_test());
//! let read = IoRequest::new(1, RequestKind::Read, RequestOrigin::Application, 0, 8);
//! let miss = cache.access(&read);
//! assert!(!miss.read_hit());
//! // A write-back cache promotes the missed data into the SSD.
//! assert!(miss.ssd_ops().iter().any(|op| op.origin == RequestOrigin::Promote));
//!
//! cache.set_policy(WritePolicy::WriteOnly);
//! let read2 = IoRequest::new(2, RequestKind::Read, RequestOrigin::Application, 512, 8);
//! let miss2 = cache.access(&read2);
//! // Under WO, read misses are *not* promoted — that is how LBICA sheds load.
//! assert!(miss2.ssd_ops().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod module;
pub mod outcome;
pub mod policy;
pub mod replacement;
pub mod set_assoc;
pub mod stats;

pub use module::{CacheConfig, CacheModule};
pub use outcome::{CacheOutcome, DerivedOp, TargetDevice};
pub use policy::WritePolicy;
pub use replacement::ReplacementKind;
pub use set_assoc::{InsertOutcome, SetAssociativeMap, SlotState};
pub use stats::CacheStats;
