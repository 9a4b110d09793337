//! The comparison points of the paper's evaluation: the plain write-back
//! cache and SIB (Selective I/O Bypass, Kim et al., IEEE TC 2018).

use serde::{Deserialize, Serialize};

use lbica_cache::WritePolicy;
use lbica_sim::{BypassDirective, CacheController, ControllerContext, ControllerDecision};
use lbica_storage::request::{RequestClass, RequestId};
use lbica_storage::time::SimDuration;

use crate::detector::BottleneckDetector;

/// The paper's first baseline: a write-back cache with no load balancing at
/// all. Every request is directed at the cache to maximise hit ratio, which
/// is exactly why the cache becomes the bottleneck during bursts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WbController;

impl WbController {
    /// Creates the WB baseline.
    pub fn new() -> Self {
        WbController
    }
}

impl CacheController for WbController {
    fn name(&self) -> &str {
        "WB"
    }

    fn initial_policy(&self) -> WritePolicy {
        WritePolicy::WriteBack
    }

    fn on_interval(&mut self, _ctx: &ControllerContext<'_>) -> ControllerDecision {
        ControllerDecision::keep(WritePolicy::WriteBack)
    }
}

/// Tunables of the [`SibController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SibConfig {
    /// SIB is defined for write-through caches; this is the policy it pins.
    pub policy: WritePolicy,
    /// Fraction of the cache queue SIB may bypass in one interval.
    pub max_bypass_fraction: f64,
    /// Minimum cache queue depth before SIB engages.
    pub min_cache_queue: usize,
}

impl SibConfig {
    /// The configuration used in the reproduction: WT cache, at most half
    /// the queue bypassed per interval.
    pub fn paper() -> Self {
        SibConfig {
            policy: WritePolicy::WriteThrough,
            max_bypass_fraction: 0.5,
            min_cache_queue: 4,
        }
    }
}

impl Default for SibConfig {
    fn default() -> Self {
        SibConfig::paper()
    }
}

/// Selective I/O Bypass (SIB), the state-of-the-art load balancer the paper
/// compares against.
///
/// SIB assumes a write-through / write-only cache (so every block also
/// exists on the disk subsystem), estimates the wait time of each request in
/// the cache queue from its position, and redirects the requests whose
/// estimated wait exceeds what the disk subsystem would need to serve them.
/// The shortcomings the paper lists — it only works for WT/WO caches,
/// per-request selection is expensive, and it may bypass requests that would
/// have hit — are inherent to this strategy and visible in the reproduction
/// as a smaller load reduction than LBICA's.
#[derive(Debug, Clone, PartialEq)]
pub struct SibController {
    config: SibConfig,
    detector: BottleneckDetector,
    bypassed: u64,
}

impl SibController {
    /// Creates SIB with the reproduction's default configuration.
    pub fn new() -> Self {
        SibController::with_config(SibConfig::paper())
    }

    /// Creates SIB with an explicit configuration.
    pub fn with_config(config: SibConfig) -> Self {
        SibController {
            detector: BottleneckDetector::new().with_min_cache_queue(config.min_cache_queue),
            config,
            bypassed: 0,
        }
    }

    /// Requests selected for bypass so far.
    pub const fn bypassed(&self) -> u64 {
        self.bypassed
    }

    /// Selects the victims: walk the cache queue from its tail (the requests
    /// with the largest estimated wait) and pick application reads/writes
    /// whose estimated cache wait exceeds the disk subsystem's estimated
    /// response time.
    fn select_victims(&self, ctx: &ControllerContext<'_>) -> Vec<RequestId> {
        let cache_lat = ctx.cache_avg_latency.as_micros().max(1);
        let disk_lat = ctx.disk_avg_latency.as_micros();
        let disk_qtime = disk_lat * ctx.disk_queue_depth as u64;
        let depth = ctx.cache_queue.depth();
        let max_victims = ((depth as f64) * self.config.max_bypass_fraction).floor() as usize;

        let mut victims = Vec::new();
        // Queue iteration is oldest→newest; position i has an estimated wait
        // of (i+1) × cache latency.
        for (pos, request) in ctx.cache_queue.iter().enumerate() {
            if victims.len() >= max_victims {
                break;
            }
            let class = request.class();
            if class != RequestClass::Read && class != RequestClass::Write {
                // SIB cannot bypass cache-internal traffic.
                continue;
            }
            let estimated_wait = SimDuration::from_micros((pos as u64 + 1) * cache_lat);
            let disk_response = SimDuration::from_micros(disk_qtime + disk_lat);
            if estimated_wait > disk_response {
                victims.push(request.id());
            }
        }
        victims
    }
}

impl Default for SibController {
    fn default() -> Self {
        SibController::new()
    }
}

impl CacheController for SibController {
    fn name(&self) -> &str {
        "SIB"
    }

    fn initial_policy(&self) -> WritePolicy {
        self.config.policy
    }

    fn on_interval(&mut self, ctx: &ControllerContext<'_>) -> ControllerDecision {
        let verdict = self.detector.evaluate(
            ctx.cache_queue_depth,
            ctx.cache_avg_latency,
            ctx.disk_queue_depth,
            ctx.disk_avg_latency,
        );
        if !verdict.cache_is_bottleneck {
            return ControllerDecision {
                policy: self.config.policy,
                tier_policies: Vec::new(),
                bypass: BypassDirective::None,
                burst_detected: false,
            };
        }
        let victims = self.select_victims(ctx);
        self.bypassed += victims.len() as u64;
        let bypass = if victims.is_empty() {
            BypassDirective::None
        } else {
            BypassDirective::Requests(victims)
        };
        ControllerDecision {
            policy: self.config.policy,
            tier_policies: Vec::new(),
            bypass,
            burst_detected: true,
        }
    }

    // The detector and victim selector are stateless; the cumulative bypass
    // counter is the only state that has to survive a replay checkpoint.
    fn save_state(&self, w: &mut lbica_storage::snap::SnapWriter) {
        w.put_u64(self.bypassed);
    }

    fn restore_state(
        &mut self,
        r: &mut lbica_storage::snap::SnapReader<'_>,
    ) -> Result<(), lbica_storage::snap::SnapError> {
        self.bypassed = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_storage::queue::{DeviceQueue, QueueSnapshot};
    use lbica_storage::request::{IoRequest, RequestKind, RequestOrigin};
    use lbica_storage::time::SimTime;

    fn loaded_queue(requests: usize) -> DeviceQueue {
        let mut q = DeviceQueue::new("ssd");
        for i in 0..requests {
            let origin =
                if i % 4 == 3 { RequestOrigin::Promote } else { RequestOrigin::Application };
            let kind = if i % 2 == 0 { RequestKind::Read } else { RequestKind::Write };
            q.enqueue(
                IoRequest::new(i as u64, kind, origin, i as u64 * 64, 8)
                    .with_arrival(SimTime::from_micros(i as u64)),
            );
        }
        q
    }

    fn ctx<'a>(
        queue: &'a DeviceQueue,
        cache_depth: usize,
        disk_depth: usize,
    ) -> ControllerContext<'a> {
        ControllerContext {
            interval_index: 0,
            now: SimTime::from_millis(1),
            cache_queue_depth: cache_depth,
            disk_queue_depth: disk_depth,
            cache_avg_latency: SimDuration::from_micros(75),
            disk_avg_latency: SimDuration::from_micros(385),
            cache_queue_mix: QueueSnapshot::default(),
            current_policy: WritePolicy::WriteThrough,
            cache_queue: queue,
            tier_loads: &[],
            tier_policies: &[],
        }
    }

    #[test]
    fn wb_baseline_is_inert() {
        let queue = DeviceQueue::new("ssd");
        let mut wb = WbController::new();
        assert_eq!(wb.name(), "WB");
        assert_eq!(wb.initial_policy(), WritePolicy::WriteBack);
        let d = wb.on_interval(&ctx(&queue, 100, 0));
        assert_eq!(d.policy, WritePolicy::WriteBack);
        assert_eq!(d.bypass, BypassDirective::None);
        assert!(!d.burst_detected);
    }

    #[test]
    fn sib_pins_write_through_and_detects_bursts() {
        let queue = loaded_queue(50);
        let mut sib = SibController::new();
        assert_eq!(sib.initial_policy(), WritePolicy::WriteThrough);
        let d = sib.on_interval(&ctx(&queue, 50, 1));
        assert!(d.burst_detected);
        assert_eq!(d.policy, WritePolicy::WriteThrough);
        match d.bypass {
            BypassDirective::Requests(ids) => {
                assert!(!ids.is_empty());
                assert!(ids.len() <= 25, "at most half the queue: got {}", ids.len());
                assert_eq!(sib.bypassed(), ids.len() as u64);
            }
            other => panic!("expected per-request bypass, got {other:?}"),
        }
    }

    #[test]
    fn sib_only_selects_deep_application_requests() {
        let queue = loaded_queue(50);
        let mut sib = SibController::new();
        let d = sib.on_interval(&ctx(&queue, 50, 1));
        let BypassDirective::Requests(ids) = d.bypass else {
            panic!("expected request bypass");
        };
        // Victims must be application R/W requests (ids not ≡ 3 mod 4 in the
        // constructed queue) and must sit past the break-even position
        // (disk response ≈ 770 µs ≈ position 10 at 75 µs per slot).
        for id in &ids {
            assert_ne!(id % 4, 3, "promote requests are never bypassed");
            assert!(*id >= 10, "shallow requests stay in the cache queue (id {id})");
        }
    }

    #[test]
    fn sib_stays_quiet_without_a_bottleneck() {
        let queue = loaded_queue(3);
        let mut sib = SibController::new();
        let d = sib.on_interval(&ctx(&queue, 3, 20));
        assert!(!d.burst_detected);
        assert_eq!(d.bypass, BypassDirective::None);
        assert_eq!(sib.bypassed(), 0);
    }

    #[test]
    fn sib_respects_a_custom_bypass_cap() {
        let queue = loaded_queue(100);
        let mut sib = SibController::with_config(SibConfig {
            max_bypass_fraction: 0.1,
            ..SibConfig::paper()
        });
        let d = sib.on_interval(&ctx(&queue, 100, 0));
        let BypassDirective::Requests(ids) = d.bypass else {
            panic!("expected request bypass");
        };
        assert!(ids.len() <= 10);
    }
}
