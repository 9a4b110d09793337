//! The I/O request taxonomy.
//!
//! The paper classifies every operation that can sit in the I/O cache queue
//! into four classes (Fig. 1 and Section III-B):
//!
//! * **R** — an application read served by the cache,
//! * **W** — an application write buffered by the cache,
//! * **P** — a *promote*: the write into the cache that installs the data of
//!   a missed read, and
//! * **E** — an *evict*: the write-back of a dirty victim block to the disk
//!   subsystem (plus the bookkeeping write on the cache device).
//!
//! [`RequestClass`] captures that taxonomy; [`IoRequest`] is the concrete
//! unit of work that moves through the device queues and carries the
//! timestamps the monitors need (arrival, dispatch, completion).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::block::{BlockRange, Lba, SECTOR_SIZE};
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};

/// A monotonically increasing request identifier.
pub type RequestId = u64;

/// The data-transfer direction of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestKind {
    /// Data flows from the device to the host.
    Read,
    /// Data flows from the host to the device.
    Write,
}

impl RequestKind {
    /// Whether this is a read.
    pub const fn is_read(self) -> bool {
        matches!(self, RequestKind::Read)
    }

    /// Whether this is a write.
    pub const fn is_write(self) -> bool {
        matches!(self, RequestKind::Write)
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestKind::Read => write!(f, "read"),
            RequestKind::Write => write!(f, "write"),
        }
    }
}

/// Why a request exists: issued by the application, or generated internally
/// by the cache module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestOrigin {
    /// Issued by the running workload.
    Application,
    /// A cache-internal write that installs missed read data in the cache
    /// (the paper's **P**).
    Promote,
    /// A cache-internal operation that writes a victim block back to the
    /// disk subsystem (the paper's **E**).
    Evict,
    /// A background flush of dirty data. Nothing in the simulator flushes
    /// (dirty blocks reach the disk only as evictions); the variant stays
    /// because checkpoints encode it as tag 3.
    Flush,
}

impl fmt::Display for RequestOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestOrigin::Application => write!(f, "app"),
            RequestOrigin::Promote => write!(f, "promote"),
            RequestOrigin::Evict => write!(f, "evict"),
            RequestOrigin::Flush => write!(f, "flush"),
        }
    }
}

/// The paper's four in-queue request classes (R / W / P / E).
///
/// `blktrace`-style probes report the class mix of the requests currently
/// waiting in the I/O cache queue; LBICA's workload characterizer consumes
/// exactly this histogram.
///
/// ```
/// use lbica_storage::request::{RequestClass, RequestKind, RequestOrigin};
/// let class = RequestClass::classify(RequestKind::Read, RequestOrigin::Application);
/// assert_eq!(class, RequestClass::Read);
/// assert_eq!(class.symbol(), 'R');
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestClass {
    /// Application read (**R**).
    Read,
    /// Application write (**W**).
    Write,
    /// Cache promotion of missed read data (**P**).
    Promote,
    /// Eviction / write-back of a victim block (**E**).
    Evict,
}

impl RequestClass {
    /// All four classes, in the paper's R, W, P, E order.
    pub const ALL: [RequestClass; 4] =
        [RequestClass::Read, RequestClass::Write, RequestClass::Promote, RequestClass::Evict];

    /// Derives the class from a request's direction and origin.
    ///
    /// Flush traffic is accounted as **E**: like an eviction it is a
    /// cache-generated transfer of dirty data toward the disk subsystem.
    pub fn classify(kind: RequestKind, origin: RequestOrigin) -> RequestClass {
        match origin {
            RequestOrigin::Application => match kind {
                RequestKind::Read => RequestClass::Read,
                RequestKind::Write => RequestClass::Write,
            },
            RequestOrigin::Promote => RequestClass::Promote,
            RequestOrigin::Evict | RequestOrigin::Flush => RequestClass::Evict,
        }
    }

    /// The single-letter symbol the paper uses (R, W, P or E).
    pub const fn symbol(self) -> char {
        match self {
            RequestClass::Read => 'R',
            RequestClass::Write => 'W',
            RequestClass::Promote => 'P',
            RequestClass::Evict => 'E',
        }
    }

    /// Index of the class in [`RequestClass::ALL`]; handy for histograms.
    pub const fn index(self) -> usize {
        match self {
            RequestClass::Read => 0,
            RequestClass::Write => 1,
            RequestClass::Promote => 2,
            RequestClass::Evict => 3,
        }
    }
}

impl fmt::Display for RequestClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A single I/O operation queued at a device.
///
/// The request carries its full lifecycle timestamps so both the iostat-like
/// monitor (queue sizes, await) and the latency plots of Figures 4–7 can be
/// computed from completed requests alone.
///
/// The layout is packed to 64 bytes — one cache line — because requests are
/// moved by value through every device queue and service slot. The three
/// optional fields (parent, dispatch, completion) are stored as plain values
/// plus one presence bit each; an absent value is always stored as 0, so the
/// derived equality stays exact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoRequest {
    id: RequestId,
    range: BlockRange,
    /// Id of the application request this internal request was derived from
    /// (promotes/evictions/flushes point back at their trigger); meaningful
    /// only when `HAS_PARENT` is set.
    parent: RequestId,
    arrival: SimTime,
    /// Meaningful only when `DISPATCHED` is set.
    dispatch: SimTime,
    /// Meaningful only when `COMPLETED` is set.
    completion: SimTime,
    kind: RequestKind,
    origin: RequestOrigin,
    /// Presence bits of the optional fields.
    flags: u8,
}

/// `flags` bit: `parent` holds a value.
const HAS_PARENT: u8 = 1;
/// `flags` bit: `dispatch` holds a value.
const DISPATCHED: u8 = 2;
/// `flags` bit: `completion` holds a value.
const COMPLETED: u8 = 4;

impl IoRequest {
    /// Creates a request for `sectors` sectors starting at sector
    /// `start_sector`.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` is zero (see [`BlockRange::new`]).
    pub fn new(
        id: RequestId,
        kind: RequestKind,
        origin: RequestOrigin,
        start_sector: u64,
        sectors: u64,
    ) -> Self {
        IoRequest::from_range(id, kind, origin, BlockRange::new(Lba::new(start_sector), sectors))
    }

    /// Creates a request over an existing [`BlockRange`].
    pub fn from_range(
        id: RequestId,
        kind: RequestKind,
        origin: RequestOrigin,
        range: BlockRange,
    ) -> Self {
        IoRequest {
            id,
            range,
            parent: 0,
            arrival: SimTime::ZERO,
            dispatch: SimTime::ZERO,
            completion: SimTime::ZERO,
            kind,
            origin,
            flags: 0,
        }
    }

    /// Sets the arrival timestamp (builder style).
    pub fn with_arrival(mut self, at: SimTime) -> Self {
        self.arrival = at;
        self
    }

    /// Records the parent application request this internal request serves.
    pub fn with_parent(mut self, parent: RequestId) -> Self {
        self.parent = parent;
        self.flags |= HAS_PARENT;
        self
    }

    /// `value` if presence bit `bit` is set.
    const fn present<T: Copy>(&self, bit: u8, value: T) -> Option<T> {
        if self.flags & bit != 0 {
            Some(value)
        } else {
            None
        }
    }

    /// The request identifier.
    pub const fn id(&self) -> RequestId {
        self.id
    }

    /// The transfer direction.
    pub const fn kind(&self) -> RequestKind {
        self.kind
    }

    /// The origin (application / promote / evict / flush).
    pub const fn origin(&self) -> RequestOrigin {
        self.origin
    }

    /// The addressed sector range.
    pub const fn range(&self) -> BlockRange {
        self.range
    }

    /// The parent application request, if this is a derived internal request.
    pub const fn parent(&self) -> Option<RequestId> {
        self.present(HAS_PARENT, self.parent)
    }

    /// The paper's R/W/P/E class of this request.
    pub fn class(&self) -> RequestClass {
        RequestClass::classify(self.kind, self.origin)
    }

    /// When the request entered the queue.
    pub const fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// When the device started servicing the request, if it has.
    pub const fn dispatch(&self) -> Option<SimTime> {
        self.present(DISPATCHED, self.dispatch)
    }

    /// When the request completed, if it has.
    pub const fn completion(&self) -> Option<SimTime> {
        self.present(COMPLETED, self.completion)
    }

    /// Marks the request as dispatched to the device at `at`.
    pub fn mark_dispatched(&mut self, at: SimTime) {
        debug_assert!(self.flags & DISPATCHED == 0, "request dispatched twice");
        self.dispatch = at.max(self.arrival);
        self.flags |= DISPATCHED;
    }

    /// Marks the request as completed at `at`.
    pub fn mark_completed(&mut self, at: SimTime) {
        debug_assert!(self.flags & COMPLETED == 0, "request completed twice");
        self.completion = at;
        self.flags |= COMPLETED;
    }

    /// Time spent waiting in the queue before dispatch. `None` until the
    /// request is dispatched.
    pub fn queue_time(&self) -> Option<SimDuration> {
        self.dispatch().map(|d| d.saturating_since(self.arrival))
    }

    /// Time spent being serviced by the device. `None` until completion.
    pub fn service_time_observed(&self) -> Option<SimDuration> {
        match (self.dispatch(), self.completion()) {
            (Some(d), Some(c)) => Some(c.saturating_since(d)),
            _ => None,
        }
    }

    /// End-to-end latency (arrival to completion). `None` until completion.
    pub fn latency(&self) -> Option<SimDuration> {
        self.completion().map(|c| c.saturating_since(self.arrival))
    }

    /// How long the request has been waiting at `now`, for in-queue
    /// estimates (SIB's wait-time estimation uses this).
    pub fn age(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.arrival)
    }

    /// Serializes the full request lifecycle — including dispatch and
    /// completion timestamps, so mid-flight requests inside a replay
    /// checkpoint restore exactly.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        w.put_u64(self.id);
        w.put_u8(match self.kind {
            RequestKind::Read => 0,
            RequestKind::Write => 1,
        });
        w.put_u8(match self.origin {
            RequestOrigin::Application => 0,
            RequestOrigin::Promote => 1,
            RequestOrigin::Evict => 2,
            RequestOrigin::Flush => 3,
        });
        w.put_u64(self.range.start().sector());
        w.put_u64(self.range.sectors());
        w.put_opt_u64(self.parent());
        w.put_u64(self.arrival.as_micros());
        w.put_opt_u64(self.dispatch().map(SimTime::as_micros));
        w.put_opt_u64(self.completion().map(SimTime::as_micros));
    }

    /// Restores a request serialized by [`IoRequest::snap_to`].
    pub fn snap_from(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let id = r.get_u64()?;
        let kind = match r.get_u8()? {
            0 => RequestKind::Read,
            1 => RequestKind::Write,
            _ => return Err(SnapError::Corrupt("request kind tag")),
        };
        let origin = match r.get_u8()? {
            0 => RequestOrigin::Application,
            1 => RequestOrigin::Promote,
            2 => RequestOrigin::Evict,
            3 => RequestOrigin::Flush,
            _ => return Err(SnapError::Corrupt("request origin tag")),
        };
        let start = r.get_u64()?;
        let sectors = r.get_u64()?;
        if sectors == 0 {
            return Err(SnapError::Corrupt("zero-sector request"));
        }
        // The range's end LBA and its byte length must be representable:
        // the device models and `Lba::offset` compute both unchecked.
        if start.checked_add(sectors).is_none() || sectors.checked_mul(SECTOR_SIZE).is_none() {
            return Err(SnapError::Corrupt("request range overflows"));
        }
        let mut request =
            IoRequest::from_range(id, kind, origin, BlockRange::new(Lba::new(start), sectors));
        if let Some(parent) = r.get_opt_u64()? {
            request = request.with_parent(parent);
        }
        request.arrival = SimTime::from_micros(r.get_u64()?);
        // Stamps are restored raw, not through `mark_dispatched` (which
        // clamps to the arrival): a checkpoint restores them as taken.
        if let Some(at) = r.get_opt_u64()? {
            request.dispatch = SimTime::from_micros(at);
            request.flags |= DISPATCHED;
        }
        if let Some(at) = r.get_opt_u64()? {
            request.completion = SimTime::from_micros(at);
            request.flags |= COMPLETED;
        }
        Ok(request)
    }
}

impl fmt::Display for IoRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "req#{} {} {} {} at {}",
            self.id,
            self.class(),
            self.kind,
            self.range,
            self.arrival
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: RequestKind, origin: RequestOrigin) -> IoRequest {
        IoRequest::new(1, kind, origin, 0, 8)
    }

    #[test]
    fn classification_matches_paper_taxonomy() {
        assert_eq!(req(RequestKind::Read, RequestOrigin::Application).class(), RequestClass::Read);
        assert_eq!(
            req(RequestKind::Write, RequestOrigin::Application).class(),
            RequestClass::Write
        );
        assert_eq!(req(RequestKind::Write, RequestOrigin::Promote).class(), RequestClass::Promote);
        assert_eq!(req(RequestKind::Write, RequestOrigin::Evict).class(), RequestClass::Evict);
        assert_eq!(req(RequestKind::Write, RequestOrigin::Flush).class(), RequestClass::Evict);
    }

    #[test]
    fn symbols_are_rwpe() {
        let symbols: String = RequestClass::ALL.iter().map(|c| c.symbol()).collect();
        assert_eq!(symbols, "RWPE");
        for (i, class) in RequestClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    #[test]
    fn lifecycle_timestamps_produce_latencies() {
        let mut r = IoRequest::new(7, RequestKind::Read, RequestOrigin::Application, 100, 8)
            .with_arrival(SimTime::from_micros(1_000));
        assert_eq!(r.queue_time(), None);
        assert_eq!(r.latency(), None);

        r.mark_dispatched(SimTime::from_micros(1_400));
        r.mark_completed(SimTime::from_micros(1_500));

        assert_eq!(r.queue_time(), Some(SimDuration::from_micros(400)));
        assert_eq!(r.service_time_observed(), Some(SimDuration::from_micros(100)));
        assert_eq!(r.latency(), Some(SimDuration::from_micros(500)));
    }

    #[test]
    fn dispatch_never_precedes_arrival() {
        let mut r = IoRequest::new(9, RequestKind::Write, RequestOrigin::Application, 0, 8)
            .with_arrival(SimTime::from_micros(500));
        // Device claims to dispatch "before" arrival: clamp to arrival.
        r.mark_dispatched(SimTime::from_micros(100));
        assert_eq!(r.queue_time(), Some(SimDuration::ZERO));
    }

    #[test]
    fn age_grows_with_now() {
        let r = IoRequest::new(2, RequestKind::Read, RequestOrigin::Application, 0, 8)
            .with_arrival(SimTime::from_micros(100));
        assert_eq!(r.age(SimTime::from_micros(100)), SimDuration::ZERO);
        assert_eq!(r.age(SimTime::from_micros(350)), SimDuration::from_micros(250));
    }

    #[test]
    fn parent_links_internal_requests() {
        let promote =
            IoRequest::new(3, RequestKind::Write, RequestOrigin::Promote, 0, 8).with_parent(42);
        assert_eq!(promote.parent(), Some(42));
        assert_eq!(promote.class(), RequestClass::Promote);
    }

    #[test]
    fn snapshot_round_trips_mid_flight_requests() {
        let mut inflight = IoRequest::new(11, RequestKind::Write, RequestOrigin::Evict, 512, 16)
            .with_arrival(SimTime::from_micros(2_000))
            .with_parent(7);
        inflight.mark_dispatched(SimTime::from_micros(2_100));
        inflight.mark_completed(SimTime::from_micros(2_450));

        let mut w = SnapWriter::new();
        inflight.snap_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let restored = IoRequest::snap_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored, inflight);
    }

    #[test]
    fn snapshot_rejects_zero_sector_requests() {
        let mut w = SnapWriter::new();
        let req = IoRequest::new(1, RequestKind::Read, RequestOrigin::Application, 0, 8);
        req.snap_to(&mut w);
        let mut bytes = w.into_bytes();
        // Overwrite the sector count (bytes 18..26) with zero.
        bytes[18..26].copy_from_slice(&0u64.to_le_bytes());
        let mut r = SnapReader::new(&bytes);
        assert_eq!(IoRequest::snap_from(&mut r), Err(SnapError::Corrupt("zero-sector request")));
    }

    #[test]
    fn snapshot_rejects_ranges_that_overflow() {
        let mut w = SnapWriter::new();
        IoRequest::new(1, RequestKind::Write, RequestOrigin::Application, 0, 8).snap_to(&mut w);
        let bytes = w.into_bytes();
        // Start LBA at bytes 10..18, sector count at 18..26: a byte length
        // past u64, then an end LBA past u64.
        for (at, value) in [(18, u64::MAX), (10, u64::MAX - 1)] {
            let mut corrupted = bytes.clone();
            corrupted[at..at + 8].copy_from_slice(&value.to_le_bytes());
            assert_eq!(
                IoRequest::snap_from(&mut SnapReader::new(&corrupted)),
                Err(SnapError::Corrupt("request range overflows"))
            );
        }
    }

    #[test]
    fn request_fits_one_cache_line() {
        assert_eq!(std::mem::size_of::<IoRequest>(), 64);
    }

    #[test]
    fn absent_and_zero_valued_optionals_stay_distinct() {
        let plain = IoRequest::new(5, RequestKind::Read, RequestOrigin::Promote, 0, 8);
        assert_eq!(plain.parent(), None);
        assert_eq!(plain.dispatch(), None);
        assert_eq!(plain.completion(), None);
        // A present zero is not an absent value, in the accessors, in
        // equality and across a snapshot round trip.
        let mut zeroed = plain.clone().with_parent(0);
        zeroed.mark_dispatched(SimTime::ZERO);
        zeroed.mark_completed(SimTime::ZERO);
        assert_eq!(zeroed.parent(), Some(0));
        assert_eq!(zeroed.dispatch(), Some(SimTime::ZERO));
        assert_eq!(zeroed.completion(), Some(SimTime::ZERO));
        assert_ne!(zeroed, plain);
        for req in [plain, zeroed] {
            let mut w = SnapWriter::new();
            req.snap_to(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(IoRequest::snap_from(&mut SnapReader::new(&bytes)).unwrap(), req);
        }
    }

    #[test]
    fn display_contains_class_symbol() {
        let r = req(RequestKind::Read, RequestOrigin::Application);
        let s = r.to_string();
        assert!(s.contains('R'));
        assert!(s.contains("read"));
    }
}
