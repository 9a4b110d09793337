//! Property-based tests of the storage substrate's invariants.

use proptest::prelude::*;

use lbica_storage::block::{BlockRange, Lba, BLOCK_SECTORS};
use lbica_storage::device::{DeviceModel, HddModel, SsdModel};
use lbica_storage::histogram::LatencyHistogram;
use lbica_storage::queue::DeviceQueue;
use lbica_storage::request::{IoRequest, RequestClass, RequestKind, RequestOrigin};
use lbica_storage::time::{SimDuration, SimTime};

fn arb_kind() -> impl Strategy<Value = RequestKind> {
    prop_oneof![Just(RequestKind::Read), Just(RequestKind::Write)]
}

fn arb_origin() -> impl Strategy<Value = RequestOrigin> {
    prop_oneof![
        Just(RequestOrigin::Application),
        Just(RequestOrigin::Promote),
        Just(RequestOrigin::Evict),
        Just(RequestOrigin::Flush),
    ]
}

/// A `u64` at either edge or anywhere between.
fn arb_edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()]
}

/// A request length up to the `u32::MAX` sectors a queue entry holds.
fn arb_sectors() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(8u64), Just(u64::from(u32::MAX)), 1..=u64::from(u32::MAX)]
}

/// No parent, a parent of id 0 (present, not absent) or any parent.
fn arb_parent() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), Just(Some(0u64)), any::<u64>().prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn block_indices_cover_every_sector(start in 0u64..100_000, len in 1u64..512) {
        let range = BlockRange::new(Lba::new(start), len);
        let indices: Vec<u64> = range.block_indices().collect();
        // Every sector's block is in the list; the list is contiguous.
        for sector in start..start + len {
            prop_assert!(indices.contains(&(sector / BLOCK_SECTORS)));
        }
        for pair in indices.windows(2) {
            prop_assert_eq!(pair[1], pair[0] + 1);
        }
    }

    #[test]
    fn request_class_symbols_are_unique_and_consistent(
        kind in arb_kind(),
        origin in arb_origin(),
    ) {
        let class = RequestClass::classify(kind, origin);
        prop_assert_eq!(RequestClass::ALL[class.index()], class);
        // Application requests keep their direction; internal requests map to P/E.
        match origin {
            RequestOrigin::Application => prop_assert!(
                (kind.is_read() && class == RequestClass::Read)
                    || (kind.is_write() && class == RequestClass::Write)
            ),
            RequestOrigin::Promote => prop_assert_eq!(class, RequestClass::Promote),
            _ => prop_assert_eq!(class, RequestClass::Evict),
        }
    }

    #[test]
    fn queue_preserves_every_enqueued_request_without_merging(
        top_id in prop_oneof![Just(u64::MAX), Just(1_000u64)],
        specs in proptest::collection::vec(
            ((arb_kind(), arb_origin(), any::<bool>()), arb_edge_u64(), arb_sectors(),
             arb_parent(), arb_edge_u64()),
            1..100,
        ),
    ) {
        // Ids count down from `top_id`, so each is unique; `take` marks the
        // requests `remove_by_ids` pulls out.
        let requests: Vec<(IoRequest, bool)> = specs
            .iter()
            .enumerate()
            .map(|(i, &((kind, origin, take), start, sectors, parent, arrival))| {
                let req = IoRequest::new(top_id - i as u64, kind, origin, start, sectors)
                    .with_arrival(SimTime::from_micros(arrival));
                let req = match parent {
                    Some(parent) => req.with_parent(parent),
                    None => req,
                };
                (req, take)
            })
            .collect();
        let expected: Vec<IoRequest> = requests.iter().map(|(r, _)| r.clone()).collect();
        let mut q = DeviceQueue::new("p");
        for request in &expected {
            q.enqueue(request.clone());
        }
        prop_assert_eq!(q.depth(), expected.len());
        prop_assert_eq!(&q.iter().collect::<Vec<_>>(), &expected);

        let mut tail = q.clone();
        let mut newest_first = expected.clone();
        newest_first.reverse();
        prop_assert_eq!(&tail.drain_tail(expected.len(), |_| true), &newest_first);

        let mut picked = q.clone();
        let ids: Vec<u64> =
            requests.iter().filter(|(_, take)| *take).map(|(r, _)| r.id()).collect();
        let (taken, kept): (Vec<_>, Vec<_>) = requests.iter().partition(|(_, take)| *take);
        let taken: Vec<IoRequest> = taken.into_iter().map(|(r, _)| r.clone()).collect();
        let kept: Vec<IoRequest> = kept.into_iter().map(|(r, _)| r.clone()).collect();
        prop_assert_eq!(&picked.remove_by_ids(&ids), &taken);
        prop_assert_eq!(&picked.iter().collect::<Vec<_>>(), &kept);

        let now = SimTime::from_secs(1);
        for want in &expected {
            let mut want = want.clone();
            want.mark_dispatched(now);
            prop_assert_eq!(q.dispatch(now).as_ref(), Some(&want));
        }
        prop_assert!(q.dispatch(now).is_none());
        prop_assert_eq!(q.stats().enqueued, expected.len() as u64);
        prop_assert_eq!(q.stats().dispatched, expected.len() as u64);
    }

    #[test]
    fn device_service_times_are_positive_and_bounded(
        sector in 0u64..1_000_000_000,
        sectors in 1u64..2_048,
        kind in arb_kind(),
    ) {
        let req = IoRequest::new(0, kind, RequestOrigin::Application, sector, sectors);
        let mut ssd = SsdModel::samsung_863a();
        let mut hdd = HddModel::seagate_7200_sas();
        let ssd_t = ssd.service_time(&req);
        let hdd_t = hdd.service_time(&req);
        prop_assert!(ssd_t > SimDuration::ZERO);
        prop_assert!(hdd_t > SimDuration::ZERO);
        // Sanity bounds: no single request takes more than 10 seconds.
        prop_assert!(ssd_t.as_micros() < 10_000_000);
        prop_assert!(hdd_t.as_micros() < 10_000_000);
    }

    #[test]
    fn histogram_percentiles_are_monotone_and_within_range(
        samples in proptest::collection::vec(1u64..1_000_000, 1..300),
    ) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(SimDuration::from_micros(s));
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        prop_assert_eq!(h.max().as_micros(), max);
        prop_assert_eq!(h.min().as_micros(), min);
        let mut prev = 0u64;
        for pct in [10.0, 50.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(pct).as_micros();
            prop_assert!(v >= prev, "percentiles must be non-decreasing");
            prop_assert!(v <= max);
            prev = v;
        }
        prop_assert!(h.mean().as_micros() >= min && h.mean().as_micros() <= max);
    }
}
