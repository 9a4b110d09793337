//! Layer probes: each cell's arrival stream replayed through a fresh,
//! prewarmed cache map (`CacheModule::access_into`) and, on tiered cells,
//! through the hierarchy (`TieredCacheModule::access_into`), timed from
//! outside the simulator.
//!
//! On WB cells the probes double as a cross-check: WB never switches policy
//! or bypasses, the simulator accesses the cache once per arrival in
//! arrival order and runs no background flusher, so a probe's statistics
//! must equal the report's.

use std::time::Instant;

use lbica_cache::{CacheModule, CacheOutcome, CacheStats};
use lbica_lab::{ControllerKind, Scenario};
use lbica_sim::{SimulationReport, TierLevelStats};
use lbica_storage::request::IoRequest;
use lbica_tier::{TieredCacheModule, TieredOutcome};

/// Accumulated probe timings plus every cross-check difference found.
#[derive(Default)]
pub struct Probes {
    pub cache_accesses: u64,
    pub cache_ns: u64,
    pub tier_accesses: u64,
    pub tier_ns: u64,
    pub mismatches: Vec<String>,
}

impl Probes {
    /// Probes one cell against its plain-run report.
    pub fn cell(&mut self, cell: &Scenario, report: &SimulationReport) {
        let config = cell.config();
        let spec = cell.workload();
        let initial = cell.controller().build().initial_policy();
        // Requests per interval in arrival order: the event queue pops
        // arrivals by timestamp, ties in scheduling order (a stable sort).
        let intervals: Vec<Vec<IoRequest>> = (0..spec.total_intervals())
            .map(|index| {
                let mut records = spec.generate_interval(index, cell.stream_seed());
                records.sort_by_key(|r| r.timestamp_us);
                records.iter().enumerate().map(|(id, r)| r.to_request(id as u64 + 1)).collect()
            })
            .collect();
        let accesses: u64 = intervals.iter().map(|i| i.len() as u64).sum();
        let wb = cell.controller() == ControllerKind::Wb;

        let mut cache = CacheModule::new(config.cache);
        if config.prewarm_cache {
            cache.prewarm_full();
        }
        cache.set_policy(initial);
        let mut outcome = CacheOutcome::new();
        let started = Instant::now();
        for request in intervals.iter().flatten() {
            cache.access_into(request, &mut outcome);
        }
        self.cache_ns += started.elapsed().as_nanos() as u64;
        self.cache_accesses += accesses;
        if wb && !config.is_tiered() {
            self.compare(cell, "cache probe", cache.stats(), &report.cache_stats);
        }

        let Some(topology) = config.tiers.filter(|_| config.is_tiered()) else { return };
        let mut tiers = TieredCacheModule::new(topology);
        if config.prewarm_cache {
            tiers.prewarm_to_capacity();
        }
        tiers.set_policy(initial);
        let mut outcome = TieredOutcome::new();
        let started = Instant::now();
        for interval in &intervals {
            for request in interval {
                tiers.access_into(request, &mut outcome);
            }
            tiers.commit_moves();
        }
        self.tier_ns += started.elapsed().as_nanos() as u64;
        self.tier_accesses += accesses;
        if wb {
            self.compare(cell, "tier probe level 0", tiers.stats(0), &report.cache_stats);
            for row in &report.tier_stats {
                let probe = tier_row(&tiers, row.level);
                if probe != row_movement(row) {
                    self.mismatches.push(format!(
                        "{}: tier probe level {} (hits, promotions, demotions, spills, read \
                         spills, back-invalidations) {probe:?} != report {:?}",
                        cell.id(),
                        row.level,
                        row_movement(row)
                    ));
                }
            }
        }
    }

    fn compare(&mut self, cell: &Scenario, what: &str, probe: &CacheStats, report: &CacheStats) {
        if probe != report {
            self.mismatches
                .push(format!("{}: {what} stats {probe:?} != report {report:?}", cell.id()));
        }
    }
}

fn tier_row(tiers: &TieredCacheModule, level: usize) -> [u64; 6] {
    let stats = tiers.stats(level);
    let m = tiers.movement(level);
    [
        stats.read_hits + stats.write_hits,
        m.promotions_in,
        m.demotions_in,
        m.spills_in,
        m.read_spills_in,
        m.back_invalidations,
    ]
}

fn row_movement(row: &TierLevelStats) -> [u64; 6] {
    [
        row.hits,
        row.promotions_in,
        row.demotions_in,
        row.spills_in,
        row.read_spills_in,
        row.back_invalidations,
    ]
}
