//! The per-workload simulation driver.

use lbica_obs::{QueueTier, SimObserver};
use lbica_trace::workload::WorkloadSpec;

use crate::arena::SimArena;
use crate::checkpoint::ReplayCheckpoint;
use crate::config::SimulationConfig;
use crate::controller::{CacheController, ControllerContext, TierLoad};
use crate::report::{PolicyChange, SimulationReport};
use crate::system::StorageSystem;
use crate::tiered::TieredStorageSystem;

use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_storage::time::SimTime;
use lbica_trace::monitor::IntervalReport;

/// The end-of-run drain's cap, in 100 ms steps: 600 × 100 ms = 60
/// simulated seconds. A backlog the system cannot clear in that window is
/// left unfinished (and counted in
/// [`SimulationReport::unfinished_requests`]) rather than chased forever.
const DRAIN_STEPS: u32 = 600;

/// Drives one [`WorkloadSpec`] through a [`StorageSystem`] under a
/// [`CacheController`], interval by interval, producing a
/// [`SimulationReport`].
///
/// The loop mirrors the paper's deployment: the workload runs continuously;
/// once per monitoring interval the `iostat`/`blktrace` measurements are
/// gathered, handed to the controller, and the controller's policy /
/// bypass decision is applied before the next interval starts.
#[derive(Debug)]
pub struct Simulation {
    config: SimulationConfig,
    spec: WorkloadSpec,
    seed: u64,
    /// Cap of the end-of-run drain in 100 ms steps (0: no drain).
    drain_steps: u32,
    observer: Option<SimObserver>,
}

impl Simulation {
    /// Creates a simulation of `spec` with the given configuration and
    /// random seed.
    pub fn new(config: SimulationConfig, spec: WorkloadSpec, seed: u64) -> Self {
        Simulation { config, spec, seed, drain_steps: DRAIN_STEPS, observer: None }
    }

    /// Disables draining outstanding requests after the last interval
    /// (builder style). Draining is enabled by default so that conservation
    /// checks and aggregate latencies cover every request.
    pub fn without_drain(mut self) -> Self {
        self.drain_steps = 0;
        self
    }

    /// Attaches an observer that records interval-granularity trace events
    /// and metrics during the run (builder style). Observability is
    /// strictly out-of-band: the report of an observed run is byte-identical
    /// to an unobserved one, and with no observer attached the run pays
    /// zero instrumentation cost.
    pub fn with_observer(mut self, observer: SimObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Detaches and returns the observer (with everything it recorded),
    /// if one was attached.
    pub fn take_observer(&mut self) -> Option<SimObserver> {
        self.observer.take()
    }

    /// The workload being simulated.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The configuration in use.
    pub const fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Runs the full workload under `controller` and returns the report.
    ///
    /// Configurations describing two or more cache levels run on the
    /// tiered datapath ([`TieredStorageSystem`]);
    /// everything else takes
    /// the paper's flat single-SSD path, which is untouched by the tier
    /// subsystem (single-tier results are bit-identical to the seed).
    pub fn run(&mut self, controller: &mut dyn CacheController) -> SimulationReport {
        let mut arena = SimArena::new();
        self.run_in(controller, &mut arena)
    }

    /// Like [`Simulation::run`], but sourcing (and returning) the simulated
    /// system's backing stores from `arena`, so consecutive runs of the same
    /// [`SimulationConfig`] on one thread reuse their allocations instead of
    /// rebuilding them per run. Reset is observationally equivalent to fresh
    /// construction (see [`SimArena`]), so the report — and any observed
    /// trace — is byte-identical to [`Simulation::run`]'s.
    pub fn run_in(
        &mut self,
        controller: &mut dyn CacheController,
        arena: &mut SimArena,
    ) -> SimulationReport {
        if self.config.is_tiered() {
            self.run_tiered(controller, arena)
        } else {
            self.run_flat(controller, arena)
        }
    }

    /// The flat-datapath interval loop (see [`Simulation::run_in`]).
    fn run_flat(
        &mut self,
        controller: &mut dyn CacheController,
        arena: &mut SimArena,
    ) -> SimulationReport {
        let mut system = arena.take_flat(&self.config);
        system.set_policy(controller.initial_policy());

        let total_intervals = self.spec.total_intervals();
        let interval_us = self.spec.interval_us();
        let mut intervals = Vec::with_capacity(total_intervals as usize);
        let mut policy_changes = vec![PolicyChange {
            interval: 0,
            policy: controller.initial_policy().label().to_string(),
        }];
        let mut bypassed_total = 0u64;
        let mut records = arena.take_records();

        for index in 0..total_intervals {
            // 1. Feed the interval's arrivals and run the event loop to the
            //    interval boundary.
            for record in self.spec.interval_records(index, self.seed, &mut records) {
                system.schedule_record(record);
            }
            let boundary = SimTime::from_micros((index as u64 + 1) * interval_us);
            system.run_until(boundary);

            // 2. Gather the iostat/blktrace measurements for the interval.
            let mut report = system.end_interval(index);

            // 3. Consult the controller and apply its decision.
            let decision = {
                let ctx = ControllerContext {
                    interval_index: index,
                    now: system.now(),
                    cache_queue_depth: report.cache.queue_depth,
                    disk_queue_depth: report.disk.queue_depth,
                    cache_avg_latency: system.cache_avg_latency(),
                    disk_avg_latency: system.disk_avg_latency(),
                    cache_queue_mix: report.cache_queue_mix,
                    current_policy: system.policy(),
                    cache_queue: system.cache_queue(),
                    tier_loads: &[],
                    tier_policies: &[],
                };
                controller.on_interval(&ctx)
            };

            report.burst_detected = decision.burst_detected;
            let policy_switched = decision.policy != system.policy();
            if policy_switched {
                system.set_policy(decision.policy);
                policy_changes.push(PolicyChange {
                    interval: index + 1,
                    policy: decision.policy.label().to_string(),
                });
            }
            let moved = system.apply_bypass(&decision.bypass) as u64;
            bypassed_total += moved;

            // Out-of-band observability: reads interval measurements, never
            // feeds anything back into the system or the report.
            if let Some(obs) = self.observer.as_mut() {
                let start_us = index as u64 * interval_us;
                let end_us = start_us + interval_us;
                obs.interval_rollover(
                    index,
                    start_us,
                    interval_us,
                    report.cache.completed,
                    report.disk.completed,
                );
                obs.queue_high_water(
                    end_us,
                    index,
                    QueueTier::Cache,
                    report.cache.peak_queue_depth as u64,
                );
                obs.queue_high_water(
                    end_us,
                    index,
                    QueueTier::Disk,
                    report.disk.peak_queue_depth as u64,
                );
                if decision.burst_detected {
                    obs.burst(end_us, index);
                }
                if policy_switched {
                    obs.policy_change(end_us, index + 1, decision.policy.label());
                }
                obs.bypass(end_us, index, moved);
            }

            intervals.push(report);
        }

        // Let in-flight and queued requests finish so aggregate latencies
        // cover the whole workload (up to the drain cap).
        system.drain(self.drain_steps);

        if let Some(obs) = self.observer.as_mut() {
            controller.export_obs(obs, interval_us);
            obs.run_totals(
                system.events_processed(),
                system.app_completed(),
                system.peak_event_queue_depth() as u64,
            );
            obs.observe_app_latency(system.app_latency_histogram());
        }

        let report = SimulationReport {
            workload: self.spec.name().to_string(),
            controller: controller.name().to_string(),
            total_intervals,
            intervals,
            policy_changes,
            app_completed: system.app_completed(),
            unfinished_requests: system.app_outstanding(),
            app_avg_latency_us: system.app_avg_latency_us(),
            app_max_latency_us: system.app_max_latency_us(),
            app_p50_latency_us: system.app_percentile_us(50.0),
            app_p95_latency_us: system.app_percentile_us(95.0),
            app_p99_latency_us: system.app_percentile_us(99.0),
            bypassed_requests: bypassed_total,
            cache_stats: *system.cache().stats(),
            perf: crate::report::SimPerf {
                events_processed: system.events_processed(),
                peak_event_queue_depth: system.peak_event_queue_depth(),
            },
            tier_stats: Vec::new(),
        };
        arena.store_flat(self.config, system);
        arena.store_records(records);
        report
    }

    /// The tiered-datapath twin of [`Simulation::run`]: same interval loop,
    /// same controller protocol, but the system is an N-level hierarchy and
    /// the controller additionally sees the per-level tier-load vector (so
    /// tier-aware balancers can answer with spill directives).
    ///
    /// The loop is deliberately duplicated rather than abstracted over the
    /// two system types: the flat path is pinned bit-identical to the seed
    /// by the figure characterization tests, and keeping it monomorphic and
    /// untouched is the cheapest way to guarantee that. Changes to the
    /// interval protocol must be applied to both loops.
    fn run_tiered(
        &mut self,
        controller: &mut dyn CacheController,
        arena: &mut SimArena,
    ) -> SimulationReport {
        let mut system = arena.take_tiered(&self.config);
        // On an explicitly per-tier topology `set_policy` drives the hot
        // tier only (lower levels are config-pinned; see
        // `TieredCacheModule::set_policy`), so a configured warm-tier
        // policy survives run start, every burst switch and every revert.
        system.set_policy(controller.initial_policy());

        let total_intervals = self.spec.total_intervals();
        let interval_us = self.spec.interval_us();
        let mut intervals = Vec::with_capacity(total_intervals as usize);
        let mut policy_changes =
            vec![PolicyChange { interval: 0, policy: tier_policy_label(system.level_policies()) }];
        let mut bypassed_total = 0u64;
        let mut tier_loads: Vec<TierLoad> = Vec::with_capacity(system.tier_count());
        // Cumulative (promotions, demotions) at the last observed interval,
        // so the observer can trace per-interval movement deltas.
        let mut observed_moves = (0u64, 0u64);
        let mut records = arena.take_records();

        for index in 0..total_intervals {
            for record in self.spec.interval_records(index, self.seed, &mut records) {
                system.schedule_record(record);
            }
            let boundary = SimTime::from_micros((index as u64 + 1) * interval_us);
            system.run_until(boundary);

            let mut report = system.end_interval(index);
            system.tier_loads_into(&mut tier_loads);

            let decision = {
                let ctx = ControllerContext {
                    interval_index: index,
                    now: system.now(),
                    cache_queue_depth: report.cache.queue_depth,
                    disk_queue_depth: report.disk.queue_depth,
                    cache_avg_latency: system.cache_avg_latency(),
                    disk_avg_latency: system.disk_avg_latency(),
                    cache_queue_mix: report.cache_queue_mix,
                    current_policy: system.policy(),
                    cache_queue: system.cache_queue(),
                    tier_loads: &tier_loads,
                    tier_policies: system.level_policies(),
                };
                controller.on_interval(&ctx)
            };

            report.burst_detected = decision.burst_detected;
            let mut policy_switched = false;
            if decision.tier_policies.is_empty() {
                // The paper's single policy knob (which drives the hot tier
                // only on an explicitly per-tier stack); the recorded label
                // is the resulting hot-to-cold assignment.
                if decision.policy != system.policy() {
                    system.set_policy(decision.policy);
                    policy_changes.push(PolicyChange {
                        interval: index + 1,
                        policy: tier_policy_label(system.level_policies()),
                    });
                    policy_switched = true;
                }
            } else if system.level_policies() != decision.tier_policies.as_slice() {
                // Tier-aware assignment: one policy per level, recorded as
                // a composite hot-to-cold label (e.g. "WO/WB").
                system.set_level_policies(&decision.tier_policies);
                policy_changes.push(PolicyChange {
                    interval: index + 1,
                    policy: tier_policy_label(&decision.tier_policies),
                });
                policy_switched = true;
            }
            // `bypassed_requests` keeps its flat-path meaning — requests
            // reclassified *to the disk*. Spills (write and read alike)
            // stay in the hierarchy and are accounted separately
            // (tier_stats / spilled_requests() / spilled_reads()).
            let spilled_writes_before = system.spilled_requests();
            let spilled_reads_before = system.spilled_reads();
            let moved = system.apply_bypass(&decision.bypass) as u64;
            let spill_writes = system.spilled_requests() - spilled_writes_before;
            let spill_reads = system.spilled_reads() - spilled_reads_before;
            bypassed_total += moved - (spill_writes + spill_reads);

            // Out-of-band observability, mirroring the flat loop plus the
            // tier-movement events only this datapath can produce.
            if let Some(obs) = self.observer.as_mut() {
                let start_us = index as u64 * interval_us;
                let end_us = start_us + interval_us;
                obs.interval_rollover(
                    index,
                    start_us,
                    interval_us,
                    report.cache.completed,
                    report.disk.completed,
                );
                obs.queue_high_water(
                    end_us,
                    index,
                    QueueTier::Cache,
                    report.cache.peak_queue_depth as u64,
                );
                obs.queue_high_water(
                    end_us,
                    index,
                    QueueTier::Disk,
                    report.disk.peak_queue_depth as u64,
                );
                if decision.burst_detected {
                    obs.burst(end_us, index);
                }
                if policy_switched {
                    let label = &policy_changes.last().expect("just pushed").policy;
                    obs.policy_change(end_us, index + 1, label);
                }
                obs.bypass(end_us, index, moved - (spill_writes + spill_reads));
                obs.spill_writes(end_us, index, spill_writes);
                obs.spill_reads(end_us, index, spill_reads);
                let (promotions, demotions) = system.movement_totals();
                obs.promotions(end_us, index, promotions - observed_moves.0);
                obs.demotions(end_us, index, demotions - observed_moves.1);
                observed_moves = (promotions, demotions);
            }

            intervals.push(report);
        }

        system.drain(self.drain_steps);

        if let Some(obs) = self.observer.as_mut() {
            controller.export_obs(obs, interval_us);
            obs.run_totals(
                system.events_processed(),
                system.app_completed(),
                system.peak_event_queue_depth() as u64,
            );
            obs.observe_app_latency(system.app_latency_histogram());
        }

        // The headline cache stats stay hot-tier shaped (hit/miss/bypass of
        // the level every application request is judged against); the full
        // per-level breakdown rides in `tier_stats`.
        let report = SimulationReport {
            workload: self.spec.name().to_string(),
            controller: controller.name().to_string(),
            total_intervals,
            intervals,
            policy_changes,
            app_completed: system.app_completed(),
            unfinished_requests: system.app_outstanding(),
            app_avg_latency_us: system.app_avg_latency_us(),
            app_max_latency_us: system.app_max_latency_us(),
            app_p50_latency_us: system.app_percentile_us(50.0),
            app_p95_latency_us: system.app_percentile_us(95.0),
            app_p99_latency_us: system.app_percentile_us(99.0),
            bypassed_requests: bypassed_total,
            cache_stats: *system.cache().stats(0),
            perf: crate::report::SimPerf {
                events_processed: system.events_processed(),
                peak_event_queue_depth: system.peak_event_queue_depth(),
            },
            tier_stats: system.tier_level_stats(),
        };
        arena.store_tiered(self.config, system);
        arena.store_records(records);
        report
    }

    /// Runs intervals `[0, split_at)` and pauses, returning a
    /// [`ReplayCheckpoint`] that [`Simulation::resume_from_checkpoint`]
    /// continues byte-identically to the unsplit run.
    ///
    /// Checkpoints are taken at monitoring-interval boundaries, where the
    /// iostat/blktrace accumulators are freshly reset — the only points at
    /// which the monitors carry no state that would have to be serialized.
    /// `split_at` may equal the workload's interval count, in which case the
    /// resume only drains and builds the report. Checkpointed runs execute
    /// unobserved: attach no observer, or this returns an error.
    pub fn run_to_checkpoint(
        &mut self,
        controller: &mut dyn CacheController,
        split_at: u32,
    ) -> Result<ReplayCheckpoint, SnapError> {
        if self.observer.is_some() {
            return Err(SnapError::Mismatch("checkpoint runs execute unobserved"));
        }
        let total_intervals = self.spec.total_intervals();
        if split_at > total_intervals {
            return Err(SnapError::Mismatch("checkpoint split beyond workload end"));
        }
        let tiered = self.config.is_tiered();
        let mut arena = SimArena::new();
        let mut intervals = Vec::with_capacity(split_at as usize);
        let mut bypassed_total = 0u64;
        let mut w = SnapWriter::new();
        let policy_changes;
        if tiered {
            let mut system = arena.take_tiered(&self.config);
            system.set_policy(controller.initial_policy());
            let mut changes = vec![PolicyChange {
                interval: 0,
                policy: tier_policy_label(system.level_policies()),
            }];
            self.tiered_span(
                &mut system,
                controller,
                0,
                split_at,
                &mut intervals,
                &mut changes,
                &mut bypassed_total,
            );
            policy_changes = changes;
            system.snap_to(&mut w);
        } else {
            let mut system = arena.take_flat(&self.config);
            system.set_policy(controller.initial_policy());
            let mut changes = vec![PolicyChange {
                interval: 0,
                policy: controller.initial_policy().label().to_string(),
            }];
            self.flat_span(
                &mut system,
                controller,
                0,
                split_at,
                &mut intervals,
                &mut changes,
                &mut bypassed_total,
            );
            policy_changes = changes;
            system.snap_to(&mut w);
        }
        controller.save_state(&mut w);
        Ok(ReplayCheckpoint {
            workload: self.spec.name().to_string(),
            controller: controller.name().to_string(),
            seed: self.seed,
            tiered,
            next_interval: split_at,
            total_intervals,
            bypassed_total,
            intervals,
            policy_changes,
            state: w.into_bytes(),
        })
    }

    /// Continues a run paused by [`Simulation::run_to_checkpoint`], restoring
    /// the storage system and the controller and executing the remaining
    /// intervals. The returned report is byte-identical to the report the
    /// unsplit run would have produced.
    ///
    /// The checkpoint's identity fields are validated against this
    /// simulation and `controller`; any mismatch (different workload, seed,
    /// controller, datapath, or interval count) is a typed error, never a
    /// silently wrong replay.
    pub fn resume_from_checkpoint(
        &mut self,
        controller: &mut dyn CacheController,
        cp: &ReplayCheckpoint,
    ) -> Result<SimulationReport, SnapError> {
        if self.observer.is_some() {
            return Err(SnapError::Mismatch("checkpoint runs execute unobserved"));
        }
        if cp.tiered != self.config.is_tiered() {
            return Err(SnapError::Mismatch("checkpoint datapath mismatch"));
        }
        if cp.workload != self.spec.name() {
            return Err(SnapError::Mismatch("checkpoint workload mismatch"));
        }
        if cp.seed != self.seed {
            return Err(SnapError::Mismatch("checkpoint seed mismatch"));
        }
        if cp.controller != controller.name() {
            return Err(SnapError::Mismatch("checkpoint controller mismatch"));
        }
        if cp.total_intervals != self.spec.total_intervals() {
            return Err(SnapError::Mismatch("checkpoint interval count mismatch"));
        }
        if cp.next_interval > cp.total_intervals {
            return Err(SnapError::Corrupt("checkpoint interval beyond workload end"));
        }
        let mut arena = SimArena::new();
        let mut intervals = cp.intervals.clone();
        let mut policy_changes = cp.policy_changes.clone();
        let mut bypassed_total = cp.bypassed_total;
        let mut r = SnapReader::new(&cp.state);
        if cp.tiered {
            let mut system = arena.take_tiered(&self.config);
            // The restored cache carries the checkpointed write policy;
            // `set_policy(initial)` is deliberately *not* replayed.
            system.snap_state_from(&mut r)?;
            controller.restore_state(&mut r)?;
            r.finish()?;
            self.tiered_span(
                &mut system,
                controller,
                cp.next_interval,
                cp.total_intervals,
                &mut intervals,
                &mut policy_changes,
                &mut bypassed_total,
            );
            system.drain(self.drain_steps);
            Ok(SimulationReport {
                workload: self.spec.name().to_string(),
                controller: controller.name().to_string(),
                total_intervals: cp.total_intervals,
                intervals,
                policy_changes,
                app_completed: system.app_completed(),
                unfinished_requests: system.app_outstanding(),
                app_avg_latency_us: system.app_avg_latency_us(),
                app_max_latency_us: system.app_max_latency_us(),
                app_p50_latency_us: system.app_percentile_us(50.0),
                app_p95_latency_us: system.app_percentile_us(95.0),
                app_p99_latency_us: system.app_percentile_us(99.0),
                bypassed_requests: bypassed_total,
                cache_stats: *system.cache().stats(0),
                perf: crate::report::SimPerf {
                    events_processed: system.events_processed(),
                    peak_event_queue_depth: system.peak_event_queue_depth(),
                },
                tier_stats: system.tier_level_stats(),
            })
        } else {
            let mut system = arena.take_flat(&self.config);
            system.snap_state_from(&mut r)?;
            controller.restore_state(&mut r)?;
            r.finish()?;
            self.flat_span(
                &mut system,
                controller,
                cp.next_interval,
                cp.total_intervals,
                &mut intervals,
                &mut policy_changes,
                &mut bypassed_total,
            );
            system.drain(self.drain_steps);
            Ok(SimulationReport {
                workload: self.spec.name().to_string(),
                controller: controller.name().to_string(),
                total_intervals: cp.total_intervals,
                intervals,
                policy_changes,
                app_completed: system.app_completed(),
                unfinished_requests: system.app_outstanding(),
                app_avg_latency_us: system.app_avg_latency_us(),
                app_max_latency_us: system.app_max_latency_us(),
                app_p50_latency_us: system.app_percentile_us(50.0),
                app_p95_latency_us: system.app_percentile_us(95.0),
                app_p99_latency_us: system.app_percentile_us(99.0),
                bypassed_requests: bypassed_total,
                cache_stats: *system.cache().stats(),
                perf: crate::report::SimPerf {
                    events_processed: system.events_processed(),
                    peak_event_queue_depth: system.peak_event_queue_depth(),
                },
                tier_stats: Vec::new(),
            })
        }
    }

    /// Intervals `[start, end)` of the flat loop, shared by the two
    /// checkpoint paths. The body mirrors [`Simulation::run_flat`] step for
    /// step (minus observability, which checkpointed runs do not
    /// support) — the pinned `run_flat` datapath itself stays untouched.
    #[allow(clippy::too_many_arguments)]
    fn flat_span(
        &mut self,
        system: &mut StorageSystem,
        controller: &mut dyn CacheController,
        start: u32,
        end: u32,
        intervals: &mut Vec<IntervalReport>,
        policy_changes: &mut Vec<PolicyChange>,
        bypassed_total: &mut u64,
    ) {
        let interval_us = self.spec.interval_us();
        let mut records = Vec::new();
        for index in start..end {
            for record in self.spec.interval_records(index, self.seed, &mut records) {
                system.schedule_record(record);
            }
            let boundary = SimTime::from_micros((index as u64 + 1) * interval_us);
            system.run_until(boundary);

            let mut report = system.end_interval(index);
            let decision = {
                let ctx = ControllerContext {
                    interval_index: index,
                    now: system.now(),
                    cache_queue_depth: report.cache.queue_depth,
                    disk_queue_depth: report.disk.queue_depth,
                    cache_avg_latency: system.cache_avg_latency(),
                    disk_avg_latency: system.disk_avg_latency(),
                    cache_queue_mix: report.cache_queue_mix,
                    current_policy: system.policy(),
                    cache_queue: system.cache_queue(),
                    tier_loads: &[],
                    tier_policies: &[],
                };
                controller.on_interval(&ctx)
            };

            report.burst_detected = decision.burst_detected;
            if decision.policy != system.policy() {
                system.set_policy(decision.policy);
                policy_changes.push(PolicyChange {
                    interval: index + 1,
                    policy: decision.policy.label().to_string(),
                });
            }
            *bypassed_total += system.apply_bypass(&decision.bypass) as u64;
            intervals.push(report);
        }
    }

    /// Intervals `[start, end)` of the tiered loop, shared by the two
    /// checkpoint paths (the twin of [`Simulation::flat_span`]; mirrors
    /// [`Simulation::run_tiered`]).
    #[allow(clippy::too_many_arguments)]
    fn tiered_span(
        &mut self,
        system: &mut TieredStorageSystem,
        controller: &mut dyn CacheController,
        start: u32,
        end: u32,
        intervals: &mut Vec<IntervalReport>,
        policy_changes: &mut Vec<PolicyChange>,
        bypassed_total: &mut u64,
    ) {
        let interval_us = self.spec.interval_us();
        let mut tier_loads: Vec<TierLoad> = Vec::with_capacity(system.tier_count());
        let mut records = Vec::new();
        for index in start..end {
            for record in self.spec.interval_records(index, self.seed, &mut records) {
                system.schedule_record(record);
            }
            let boundary = SimTime::from_micros((index as u64 + 1) * interval_us);
            system.run_until(boundary);

            let mut report = system.end_interval(index);
            system.tier_loads_into(&mut tier_loads);

            let decision = {
                let ctx = ControllerContext {
                    interval_index: index,
                    now: system.now(),
                    cache_queue_depth: report.cache.queue_depth,
                    disk_queue_depth: report.disk.queue_depth,
                    cache_avg_latency: system.cache_avg_latency(),
                    disk_avg_latency: system.disk_avg_latency(),
                    cache_queue_mix: report.cache_queue_mix,
                    current_policy: system.policy(),
                    cache_queue: system.cache_queue(),
                    tier_loads: &tier_loads,
                    tier_policies: system.level_policies(),
                };
                controller.on_interval(&ctx)
            };

            report.burst_detected = decision.burst_detected;
            if decision.tier_policies.is_empty() {
                if decision.policy != system.policy() {
                    system.set_policy(decision.policy);
                    policy_changes.push(PolicyChange {
                        interval: index + 1,
                        policy: tier_policy_label(system.level_policies()),
                    });
                }
            } else if system.level_policies() != decision.tier_policies.as_slice() {
                system.set_level_policies(&decision.tier_policies);
                policy_changes.push(PolicyChange {
                    interval: index + 1,
                    policy: tier_policy_label(&decision.tier_policies),
                });
            }
            let spilled_writes_before = system.spilled_requests();
            let spilled_reads_before = system.spilled_reads();
            let moved = system.apply_bypass(&decision.bypass) as u64;
            let spill_writes = system.spilled_requests() - spilled_writes_before;
            let spill_reads = system.spilled_reads() - spilled_reads_before;
            *bypassed_total += moved - (spill_writes + spill_reads);
            intervals.push(report);
        }
    }
}

/// The Fig. 6-style label of a per-tier policy assignment: the plain policy
/// label when every level agrees, a hot-to-cold `"WO/WB"` composite when
/// they differ.
fn tier_policy_label(policies: &[lbica_cache::WritePolicy]) -> String {
    if policies.windows(2).all(|w| w[0] == w[1]) {
        policies[0].label().to_string()
    } else {
        policies.iter().map(|p| p.label()).collect::<Vec<_>>().join("/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::StaticPolicyController;
    use lbica_cache::WritePolicy;
    use lbica_trace::workload::{WorkloadScale, WorkloadSpec};

    fn tiny_sim(spec: WorkloadSpec) -> Simulation {
        Simulation::new(SimulationConfig::tiny(), spec, 7)
    }

    #[test]
    fn wb_baseline_completes_every_interval() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let total = spec.total_intervals();
        let mut sim = tiny_sim(spec);
        let report = sim.run(&mut StaticPolicyController::write_back());
        assert_eq!(report.intervals.len() as u32, total);
        assert_eq!(report.controller, "WB");
        assert_eq!(report.workload, "tpcc");
        assert!(report.app_completed > 100);
        assert_eq!(report.policy_changes.len(), 1);
        assert_eq!(report.bypassed_requests, 0);
        // Every interval carries the WB label.
        assert!(report.policy_series().iter().all(|p| *p == "WB"));
    }

    #[test]
    fn burst_intervals_show_higher_cache_load_than_the_preceding_calm_ones() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let first_burst = (0..spec.total_intervals())
            .find(|i| spec.is_burst_interval(*i))
            .expect("tpcc has burst intervals");
        let mut sim = tiny_sim(spec.clone());
        let report = sim.run(&mut StaticPolicyController::write_back());
        let burst_avg = mean_at(&report, |i| spec.is_burst_interval(i));
        // Compare against the calm intervals *before* the first burst: the
        // intervals after a burst still drain its backlog and are not a fair
        // "moderate" baseline.
        let pre_burst_avg = mean_at(&report, |i| i < first_burst);
        assert!(
            burst_avg > pre_burst_avg,
            "burst avg {burst_avg} should exceed pre-burst avg {pre_burst_avg}"
        );
    }

    fn mean_at(report: &SimulationReport, pred: impl Fn(u32) -> bool) -> f64 {
        let vals: Vec<u64> = report
            .intervals
            .iter()
            .filter(|i| pred(i.index))
            .map(|i| i.cache.max_latency_us)
            .collect();
        vals.iter().sum::<u64>() as f64 / vals.len().max(1) as f64
    }

    #[test]
    fn static_read_only_controller_pushes_writes_to_disk() {
        let spec = WorkloadSpec::mail_server_scaled(WorkloadScale::tiny());
        let mut wb_sim = tiny_sim(spec.clone());
        let wb = wb_sim.run(&mut StaticPolicyController::write_back());
        let mut ro_sim = tiny_sim(spec);
        let ro = ro_sim.run(&mut StaticPolicyController::new(WritePolicy::ReadOnly));
        let wb_disk: u64 = wb.intervals.iter().map(|i| i.disk.completed).sum();
        let ro_disk: u64 = ro.intervals.iter().map(|i| i.disk.completed).sum();
        assert!(
            ro_disk > wb_disk,
            "read-only cache must send more work to the disk ({ro_disk} vs {wb_disk})"
        );
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
        let a = Simulation::new(SimulationConfig::tiny(), spec.clone(), 3)
            .run(&mut StaticPolicyController::write_back());
        let b = Simulation::new(SimulationConfig::tiny(), spec, 3)
            .run(&mut StaticPolicyController::write_back());
        assert_eq!(a, b);
    }

    #[test]
    fn tiered_runs_complete_and_surface_per_tier_stats() {
        let spec = WorkloadSpec::mail_server_scaled(WorkloadScale::tiny());
        let total = spec.total_intervals();
        let mut sim = Simulation::new(SimulationConfig::tiny_two_tier(), spec, 7);
        let report = sim.run(&mut StaticPolicyController::write_back());
        assert_eq!(report.intervals.len() as u32, total);
        assert!(report.app_completed > 100);
        assert_eq!(report.tier_stats.len(), 2);
        assert_eq!(report.tier_count(), 2);
        assert!(report.tier(0).unwrap().hits > 0, "hot tier serves traffic");
        assert!(report.tier(0).unwrap().completed > 0);
        assert!(report.tier(1).is_some());
        assert!(report.tier(2).is_none());
    }

    #[test]
    fn tiered_runs_are_deterministic_for_a_fixed_seed() {
        let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
        let a = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 3)
            .run(&mut StaticPolicyController::write_back());
        let b = Simulation::new(SimulationConfig::tiny_two_tier(), spec, 3)
            .run(&mut StaticPolicyController::write_back());
        assert_eq!(a, b);
    }

    #[test]
    fn flat_reports_carry_no_tier_stats() {
        let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
        let report = tiny_sim(spec).run(&mut StaticPolicyController::write_back());
        assert!(report.tier_stats.is_empty());
        assert_eq!(report.tier_count(), 1);
        assert_eq!(report.spilled_requests(), 0);
    }

    #[test]
    fn configured_per_tier_policies_survive_run_start() {
        let spec = WorkloadSpec::mail_server_scaled(WorkloadScale::tiny());
        let uniform = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 7)
            .run(&mut StaticPolicyController::write_back());
        let warm_wt =
            SimulationConfig::tiny_two_tier().with_tier_level_policy(1, WritePolicy::WriteThrough);
        let wt = Simulation::new(warm_wt, spec, 7).run(&mut StaticPolicyController::write_back());
        // The initial Fig. 6 label is the composite hot-to-cold assignment.
        assert_eq!(wt.policy_changes[0].policy, "WB/WT");
        assert_eq!(uniform.policy_changes[0].policy, "WB");
        assert_ne!(uniform, wt, "a write-through warm tier must change behaviour");
        // Writes owned by the WT warm tier additionally reach the disk.
        let disk = |r: &SimulationReport| r.intervals.iter().map(|i| i.disk.completed).sum::<u64>();
        assert!(
            disk(&wt) > disk(&uniform),
            "warm-tier write-through traffic must show up at the disk ({} vs {})",
            disk(&wt),
            disk(&uniform)
        );
    }

    #[test]
    fn observed_runs_produce_identical_reports_to_unobserved_ones() {
        for config in [SimulationConfig::tiny(), SimulationConfig::tiny_two_tier()] {
            let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
            let plain = Simulation::new(config, spec.clone(), 11)
                .run(&mut StaticPolicyController::write_back());
            let mut observed =
                Simulation::new(config, spec, 11).with_observer(lbica_obs::SimObserver::new());
            let report = observed.run(&mut StaticPolicyController::write_back());
            assert_eq!(plain, report, "observer must not perturb the report");

            let obs = observed.take_observer().expect("observer attached");
            assert!(observed.take_observer().is_none());
            // One rollover + two queue marks per interval, at minimum.
            assert!(obs.ring().len() >= plain.intervals.len() * 3);
            let snap = obs.snapshot();
            let intervals = snap
                .counters
                .iter()
                .find(|c| c.name == "lbica_sim_intervals_total")
                .expect("interval counter registered");
            assert_eq!(intervals.value, plain.intervals.len() as u64);
            let events = snap
                .counters
                .iter()
                .find(|c| c.name == "lbica_sim_events_processed_total")
                .expect("events counter registered");
            assert_eq!(events.value, plain.perf.events_processed);
        }
    }

    #[test]
    fn observed_traces_are_deterministic() {
        let run = || {
            let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
            let mut sim = Simulation::new(SimulationConfig::tiny(), spec, 5)
                .with_observer(lbica_obs::SimObserver::new());
            sim.run(&mut StaticPolicyController::write_back());
            sim.take_observer().unwrap().render_chrome_trace("cell")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reports_surface_app_latency_percentiles() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let report = tiny_sim(spec).run(&mut StaticPolicyController::write_back());
        assert!(report.app_p50_latency_us > 0);
        assert!(report.app_p50_latency_us <= report.app_p95_latency_us);
        assert!(report.app_p95_latency_us <= report.app_p99_latency_us);
        assert!(report.app_p99_latency_us <= report.app_max_latency_us);
    }

    #[test]
    fn arena_reuse_reproduces_fresh_runs_exactly() {
        let mut arena = SimArena::new();
        for config in [
            SimulationConfig::tiny(),
            SimulationConfig::tiny_two_tier(),
            SimulationConfig::tiny_three_tier(),
        ] {
            let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
            let fresh = Simulation::new(config, spec.clone(), 13)
                .run(&mut StaticPolicyController::write_back());
            // First pass may build fresh; second pass reuses the stored
            // system via reset. Both must equal the from-scratch run.
            for pass in 0..2 {
                let reused = Simulation::new(config, spec.clone(), 13)
                    .run_in(&mut StaticPolicyController::write_back(), &mut arena);
                assert_eq!(fresh, reused, "pass {pass} diverged");
            }
        }
        // Cycling back to an earlier config after the arena holds a
        // different shape rebuilds fresh — and still matches.
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let fresh = Simulation::new(SimulationConfig::tiny(), spec.clone(), 13)
            .run(&mut StaticPolicyController::write_back());
        let reused = Simulation::new(SimulationConfig::tiny(), spec, 13)
            .run_in(&mut StaticPolicyController::write_back(), &mut arena);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn checkpointed_flat_replay_equals_the_unsplit_run() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let total = spec.total_intervals();
        let unsplit = Simulation::new(SimulationConfig::tiny(), spec.clone(), 7)
            .run(&mut StaticPolicyController::write_back());
        // Every boundary is a legal split point, including 0 (resume runs
        // everything) and total (resume only drains and reports).
        for split in [0, 1, total / 2, total - 1, total] {
            let cp = Simulation::new(SimulationConfig::tiny(), spec.clone(), 7)
                .run_to_checkpoint(&mut StaticPolicyController::write_back(), split)
                .unwrap();
            let cp = ReplayCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
            let resumed = Simulation::new(SimulationConfig::tiny(), spec.clone(), 7)
                .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
                .unwrap();
            assert_eq!(unsplit, resumed, "split at {split} diverged");
        }
    }

    #[test]
    fn checkpointed_tiered_replay_equals_the_unsplit_run() {
        let spec = WorkloadSpec::mail_server_scaled(WorkloadScale::tiny());
        let total = spec.total_intervals();
        let unsplit = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 7)
            .run(&mut StaticPolicyController::write_back());
        for split in [1, total / 2, total] {
            let cp = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 7)
                .run_to_checkpoint(&mut StaticPolicyController::write_back(), split)
                .unwrap();
            let cp = ReplayCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
            let resumed = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 7)
                .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
                .unwrap();
            assert_eq!(unsplit, resumed, "split at {split} diverged");
        }
    }

    #[test]
    fn checkpoints_refuse_to_resume_against_the_wrong_cell() {
        use lbica_storage::snap::SnapError;
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let cp = Simulation::new(SimulationConfig::tiny(), spec.clone(), 7)
            .run_to_checkpoint(&mut StaticPolicyController::write_back(), 2)
            .unwrap();
        // Wrong seed.
        let err = Simulation::new(SimulationConfig::tiny(), spec.clone(), 8)
            .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
            .unwrap_err();
        assert_eq!(err, SnapError::Mismatch("checkpoint seed mismatch"));
        // Wrong workload.
        let other = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
        let err = Simulation::new(SimulationConfig::tiny(), other, 7)
            .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
            .unwrap_err();
        assert_eq!(err, SnapError::Mismatch("checkpoint workload mismatch"));
        // Wrong controller.
        let err = Simulation::new(SimulationConfig::tiny(), spec.clone(), 7)
            .resume_from_checkpoint(&mut StaticPolicyController::new(WritePolicy::ReadOnly), &cp)
            .unwrap_err();
        assert_eq!(err, SnapError::Mismatch("checkpoint controller mismatch"));
        // Wrong datapath.
        let err = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 7)
            .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
            .unwrap_err();
        assert_eq!(err, SnapError::Mismatch("checkpoint datapath mismatch"));
        // Split past the end of the workload.
        let err = Simulation::new(SimulationConfig::tiny(), spec, 7)
            .run_to_checkpoint(&mut StaticPolicyController::write_back(), cp.total_intervals + 1)
            .unwrap_err();
        assert_eq!(err, SnapError::Mismatch("checkpoint split beyond workload end"));
    }

    #[test]
    fn checkpoint_paths_reject_observed_runs() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let err = Simulation::new(SimulationConfig::tiny(), spec, 7)
            .with_observer(lbica_obs::SimObserver::new())
            .run_to_checkpoint(&mut StaticPolicyController::write_back(), 1)
            .unwrap_err();
        assert_eq!(
            err,
            lbica_storage::snap::SnapError::Mismatch("checkpoint runs execute unobserved")
        );
    }

    /// Requests `spec` generates over its whole run.
    fn generated(spec: &WorkloadSpec, seed: u64) -> u64 {
        (0..spec.total_intervals()).map(|i| spec.generate_interval(i, seed).len() as u64).sum()
    }

    #[test]
    fn every_generated_request_completes_or_is_reported_unfinished() {
        use lbica_trace::gen::PatternSpec;
        use lbica_trace::workload::{BurstPhase, PhaseIntensity, WorkloadKind};
        // One 20 ms interval at 1 M IOPS: a backlog of seconds on the tiny
        // cache device, far more than one 100 ms drain step clears.
        let overload = WorkloadSpec::new("overload", WorkloadKind::Custom, 20_000).push_phase(
            BurstPhase::new(
                "flood",
                1,
                1_000_000.0,
                PatternSpec::RandomWrite { working_set_blocks: 4_096 },
                PhaseIntensity::Burst,
            ),
        );
        let mail = WorkloadSpec::mail_server_scaled(WorkloadScale::tiny());
        for config in [SimulationConfig::tiny(), SimulationConfig::tiny_two_tier()] {
            let conserved = |report: &SimulationReport, spec: &WorkloadSpec| {
                assert_eq!(
                    report.app_completed + report.unfinished_requests,
                    generated(spec, 7),
                    "{} on {config:?}",
                    spec.name()
                );
            };
            let drained = Simulation::new(config, mail.clone(), 7)
                .run(&mut StaticPolicyController::write_back());
            assert_eq!(drained.unfinished_requests, 0);
            conserved(&drained, &mail);

            let undrained = Simulation::new(config, overload.clone(), 7)
                .without_drain()
                .run(&mut StaticPolicyController::write_back());
            conserved(&undrained, &overload);

            let mut truncated = Simulation::new(config, overload.clone(), 7);
            truncated.drain_steps = 1;
            let truncated = truncated.run(&mut StaticPolicyController::write_back());
            assert!(truncated.unfinished_requests > 0, "one drain step cannot clear the flood");
            assert!(truncated.unfinished_requests < undrained.unfinished_requests);
            conserved(&truncated, &overload);

            let full = Simulation::new(config, overload.clone(), 7)
                .run(&mut StaticPolicyController::write_back());
            assert_eq!(full.unfinished_requests, 0, "60 simulated seconds clear the flood");
            conserved(&full, &overload);
        }
    }

    #[test]
    fn without_drain_skips_the_tail() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let drained = Simulation::new(SimulationConfig::tiny(), spec.clone(), 9)
            .run(&mut StaticPolicyController::write_back());
        let undrained = Simulation::new(SimulationConfig::tiny(), spec, 9)
            .without_drain()
            .run(&mut StaticPolicyController::write_back());
        assert!(drained.app_completed >= undrained.app_completed);
    }
}
