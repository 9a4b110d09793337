//! Micro-benchmarks of LBICA's building blocks: the bottleneck detector,
//! the workload characterizer, the cache module's datapath decision, the
//! device service-time models, the device queue and the text-trace
//! writer and importer.
//!
//! These quantify the per-interval and per-request overhead of the control
//! loop — the paper argues LBICA's interval-granularity decisions are much
//! cheaper than SIB's per-request victim selection, and these numbers back
//! that up.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use lbica_cache::{CacheConfig, CacheModule, ReplacementKind, SetAssociativeMap, SlotState};
use lbica_core::{BottleneckDetector, RequestMix, SibController, WorkloadCharacterizer};
use lbica_sim::{AppTracker, CacheController, ControllerContext};
use lbica_storage::device::{DeviceModel, HddModel, SsdModel};
use lbica_storage::queue::{DeviceQueue, QueueSnapshot};
use lbica_storage::request::{IoRequest, RequestKind, RequestOrigin};
use lbica_storage::time::{SimDuration, SimTime};

fn bench_detector(c: &mut Criterion) {
    let detector = BottleneckDetector::new();
    c.bench_function("detector/evaluate", |b| {
        b.iter(|| {
            detector.evaluate(
                std::hint::black_box(42),
                SimDuration::from_micros(75),
                std::hint::black_box(3),
                SimDuration::from_micros(385),
            )
        })
    });
}

fn bench_characterizer(c: &mut Criterion) {
    let characterizer = WorkloadCharacterizer::new();
    let mix = RequestMix::new(0.44, 0.022, 0.51, 0.028);
    c.bench_function("characterizer/classify", |b| {
        b.iter(|| characterizer.classify(std::hint::black_box(&mix)))
    });
}

fn bench_cache_module(c: &mut Criterion) {
    c.bench_function("cache_module/access_read_hit", |b| {
        let mut cache = CacheModule::new(CacheConfig::enterprise());
        cache.prewarm(0..1024);
        let req = IoRequest::new(1, RequestKind::Read, RequestOrigin::Application, 0, 8);
        b.iter(|| cache.access(std::hint::black_box(&req)))
    });
    c.bench_function("cache_module/access_write_allocate", |b| {
        b.iter_batched(
            || CacheModule::new(CacheConfig::small_test()),
            |mut cache| {
                for i in 0..64u64 {
                    let req =
                        IoRequest::new(i, RequestKind::Write, RequestOrigin::Application, i * 8, 8);
                    cache.access(&req);
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_devices(c: &mut Criterion) {
    let req = IoRequest::new(1, RequestKind::Read, RequestOrigin::Application, 123_456, 8);
    c.bench_function("device/ssd_service_time", |b| {
        let mut ssd = SsdModel::samsung_863a();
        b.iter(|| ssd.service_time(std::hint::black_box(&req)))
    });
    c.bench_function("device/hdd_service_time", |b| {
        let mut hdd = HddModel::seagate_7200_sas();
        b.iter(|| hdd.service_time(std::hint::black_box(&req)))
    });
}

fn bench_queue(c: &mut Criterion) {
    c.bench_function("queue/enqueue_dispatch_64", |b| {
        b.iter_batched(
            DeviceQueue::default_for_bench,
            |mut q| {
                for i in 0..64u64 {
                    q.enqueue(
                        IoRequest::new(
                            i,
                            RequestKind::Write,
                            RequestOrigin::Application,
                            i * 64,
                            8,
                        )
                        .with_arrival(SimTime::from_micros(i)),
                    );
                }
                while q.dispatch(SimTime::from_millis(1)).is_some() {}
                q
            },
            BatchSize::SmallInput,
        )
    });
}

/// SIB's per-request victim selection over a deep queue — the overhead the
/// paper criticises — compared against LBICA's O(1) interval decision above.
fn bench_sib_selection(c: &mut Criterion) {
    let mut queue = DeviceQueue::without_merging("ssd");
    for i in 0..512u64 {
        queue.enqueue(
            IoRequest::new(i, RequestKind::Write, RequestOrigin::Application, i * 64, 8)
                .with_arrival(SimTime::from_micros(i)),
        );
    }
    c.bench_function("sib/victim_selection_512_deep_queue", |b| {
        b.iter_batched(
            SibController::new,
            |mut sib| {
                let ctx = ControllerContext {
                    interval_index: 0,
                    now: SimTime::from_millis(1),
                    cache_queue_depth: queue.depth(),
                    disk_queue_depth: 1,
                    cache_avg_latency: SimDuration::from_micros(75),
                    disk_avg_latency: SimDuration::from_micros(385),
                    cache_queue_mix: QueueSnapshot::default(),
                    current_policy: lbica_cache::WritePolicy::WriteThrough,
                    cache_queue: &queue,
                    tier_loads: &[],
                    tier_policies: &[],
                };
                sib.on_interval(&ctx)
            },
            BatchSize::SmallInput,
        )
    });
}

/// The flat set-associative arena under insert-eviction churn and pure hit
/// traffic — the two access shapes the simulator's cache module issues.
fn bench_set_assoc(c: &mut Criterion) {
    c.bench_function("set_assoc/insert_churn_1k_over_256_slots", |b| {
        b.iter_batched(
            || SetAssociativeMap::new(16, 16, ReplacementKind::Lru),
            |mut map| {
                for block in 0..1024u64 {
                    map.insert(block, SlotState::Dirty);
                }
                map
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("set_assoc/hit_touch_churn", |b| {
        let mut map = SetAssociativeMap::new(64, 16, ReplacementKind::Lru);
        for block in 0..1024u64 {
            map.insert(block, SlotState::Clean);
        }
        let mut block = 0u64;
        b.iter(|| {
            block = (block + 17) % 1024;
            map.touch(std::hint::black_box(block))
        })
    });
}

/// The slab-backed application tracker: dense-id register/complete cycles,
/// the operation pair every simulated application request pays.
fn bench_app_tracker(c: &mut Criterion) {
    c.bench_function("tracker/register_complete_1k", |b| {
        b.iter_batched(
            AppTracker::new,
            |mut tracker| {
                for id in 1..=1000u64 {
                    tracker.register(id, SimTime::from_micros(id), 2);
                }
                for id in 1..=1000u64 {
                    tracker.complete_op(id, SimTime::from_micros(id + 50));
                    tracker.complete_op(id, SimTime::from_micros(id + 90));
                }
                tracker
            },
            BatchSize::SmallInput,
        )
    });
}

/// O(1) incremental snapshot vs recomputing the class mix by scanning the
/// queue — the cost a monitor probe used to pay per observation.
fn bench_snapshot(c: &mut Criterion) {
    let mut q = DeviceQueue::without_merging("ssd");
    for i in 0..512u64 {
        let origin = match i % 4 {
            0 => RequestOrigin::Application,
            1 => RequestOrigin::Promote,
            2 => RequestOrigin::Evict,
            _ => RequestOrigin::Flush,
        };
        q.enqueue(
            IoRequest::new(i, RequestKind::Write, origin, i * 64, 8)
                .with_arrival(SimTime::from_micros(i)),
        );
    }
    c.bench_function("queue/snapshot_incremental_512_deep", |b| {
        b.iter(|| std::hint::black_box(&q).snapshot())
    });
    c.bench_function("queue/snapshot_recomputed_512_deep", |b| {
        b.iter(|| {
            let mut snap = QueueSnapshot::default();
            for r in std::hint::black_box(&q).iter() {
                snap.record(r.class());
            }
            snap
        })
    });
}

/// Single-pass id extraction from a deep queue (SIB's bypass mechanism).
fn bench_remove_by_ids(c: &mut Criterion) {
    let ids: Vec<u64> = (0..100u64).map(|i| i * 10).collect();
    c.bench_function("queue/remove_by_ids_100_of_1k", |b| {
        b.iter_batched(
            || {
                let mut q = DeviceQueue::without_merging("ssd");
                for i in 0..1_000u64 {
                    q.enqueue(
                        IoRequest::new(
                            i,
                            RequestKind::Write,
                            RequestOrigin::Application,
                            i * 64,
                            8,
                        )
                        .with_arrival(SimTime::from_micros(i)),
                    );
                }
                q
            },
            |mut q| q.remove_by_ids(&ids).len(),
            BatchSize::SmallInput,
        )
    });
}

/// The tiered hierarchy's promotion/demotion hot path: warm-tier hits that
/// promote into a full hot tier (each promotion demotes a victim down the
/// chain), and sustained write churn whose evictions cascade level to
/// level — the two inter-tier data movements every tiered simulation pays.
fn bench_tier_movement(c: &mut Criterion) {
    use lbica_cache::WritePolicy;
    use lbica_tier::{TierLevelSpec, TierTopology, TieredCacheModule, TieredOutcome};

    fn level(num_sets: usize) -> TierLevelSpec {
        TierLevelSpec::new(
            CacheConfig {
                num_sets,
                associativity: 4,
                replacement: ReplacementKind::Lru,
                initial_policy: WritePolicy::WriteBack,
            },
            lbica_storage::device::SsdConfig::samsung_863a(),
            1,
        )
    }

    c.bench_function("tier/promote_on_hit_with_demotion", |b| {
        // Hot tier full; every other read hits the warm tier, promoting
        // the block up and demoting the hot tier's LRU victim down.
        let mut cache = TieredCacheModule::new(TierTopology::two_level(level(64), level(256)));
        cache.prewarm_to_capacity();
        let mut outcome = TieredOutcome::new();
        let mut block = 0u64;
        b.iter(|| {
            // Alternate between hot-resident and warm-resident blocks.
            block = (block + 257) % 1280;
            let req =
                IoRequest::new(1, RequestKind::Read, RequestOrigin::Application, block * 8, 8);
            cache.access_into(std::hint::black_box(&req), &mut outcome);
            outcome.ops().len()
        })
    });

    c.bench_function("tier/write_churn_cascade_demotion", |b| {
        b.iter_batched(
            || {
                let mut cache =
                    TieredCacheModule::new(TierTopology::two_level(level(16), level(64)));
                cache.prewarm_to_capacity();
                cache
            },
            |mut cache| {
                let mut outcome = TieredOutcome::new();
                for i in 0..256u64 {
                    let req = IoRequest::new(
                        i,
                        RequestKind::Write,
                        RequestOrigin::Application,
                        (2_000 + i) * 8,
                        8,
                    );
                    cache.access_into(&req, &mut outcome);
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
}

/// Arena handout vs fresh construction of a flat simulated system: the
/// per-cell setup cost a sweep worker saves once its [`SimArena`] holds a
/// matching system — reset must be much cheaper than reallocating slot
/// arenas, slabs and monitor histories and re-prewarming the cache.
fn bench_arena(c: &mut Criterion) {
    use lbica_sim::{SimArena, SimulationConfig};

    let config = SimulationConfig::tiny();
    c.bench_function("arena/fresh_construction", |b| {
        b.iter(|| {
            let mut arena = SimArena::new();
            arena.take_flat(std::hint::black_box(&config))
        })
    });
    c.bench_function("arena/reset_vs_fresh", |b| {
        let mut arena = SimArena::new();
        let system = arena.take_flat(&config);
        arena.store_flat(config, system);
        b.iter(|| {
            let system = arena.take_flat(std::hint::black_box(&config));
            arena.store_flat(config, system);
        })
    });
}

/// One burst interval of the harness-scale Zipf workload (skew 0.9 over
/// 32 Ki ranks, ~1,200 arrivals): the per-interval generation cost a
/// `zipf` sweep pays. The spec builds its popularity table on the first
/// iteration and every later one samples the shared table.
fn bench_zipf_interval(c: &mut Criterion) {
    use lbica_trace::workload::{WorkloadScale, WorkloadSpec};

    let spec = WorkloadSpec::zipfian_scaled("zipf-900", WorkloadScale::harness(), 900);
    let burst = (0..spec.total_intervals())
        .find(|&index| spec.is_burst_interval(index))
        .expect("the Zipf workload has a burst phase");
    c.bench_function("trace/zipf_burst_interval", |b| {
        b.iter(|| spec.generate_interval(std::hint::black_box(burst), 7))
    });
}

/// The text-trace kernels over one fixed, time-ordered capture of 65,536
/// records (two back-to-back runs of a harness-scale write-heavy synthetic
/// workload, cut to length): writing it as text, importing the text, and
/// importing it straight to the binary codec (import, then sort and
/// encode). Divide a time by 65,536 for the per-record cost.
fn bench_trace_io(c: &mut Criterion) {
    use lbica_trace::io::{import_text_to_binary, import_text_trace, write_text_trace};
    use lbica_trace::workload::{WorkloadScale, WorkloadSpec};

    let spec = WorkloadSpec::synthetic_scaled("capture", WorkloadScale::harness(), 0.1);
    let mut records = spec.generate_all(7);
    let rerun = spec.generate_all(8).into_iter().map(|mut r| {
        r.timestamp_us += spec.total_duration_us();
        r
    });
    records.extend(rerun);
    assert!(records.len() >= 1 << 16, "the capture is shorter than the benched length");
    records.truncate(1 << 16);
    let mut text = Vec::new();
    c.bench_function("trace_io/write_text", |b| {
        b.iter(|| {
            text.clear();
            write_text_trace(&mut text, std::hint::black_box(&records))
        })
    });
    c.bench_function("trace_io/import_text", |b| {
        b.iter(|| import_text_trace(std::hint::black_box(text.as_slice())))
    });
    c.bench_function("trace_io/import_to_binary", |b| {
        b.iter(|| import_text_to_binary(std::hint::black_box(text.as_slice())))
    });
}

trait BenchQueueExt {
    fn default_for_bench() -> DeviceQueue;
}

impl BenchQueueExt for DeviceQueue {
    fn default_for_bench() -> DeviceQueue {
        DeviceQueue::without_merging("bench")
    }
}

criterion_group!(
    benches,
    bench_detector,
    bench_characterizer,
    bench_cache_module,
    bench_devices,
    bench_queue,
    bench_sib_selection,
    bench_set_assoc,
    bench_app_tracker,
    bench_snapshot,
    bench_remove_by_ids,
    bench_tier_movement,
    bench_arena,
    bench_zipf_interval,
    bench_trace_io
);
criterion_main!(benches);
