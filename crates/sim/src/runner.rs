//! The per-workload simulation driver.
//!
//! One interval loop drives both flavors of the simulated [`System`]: the
//! paper's flat [`crate::StorageSystem`] and the N-level
//! [`crate::TieredStorageSystem`]. The loop is generic over the system's
//! [`CacheFront`], so each flavor runs its own compiled copy. A run
//! executes the loop over `0..N`; a checkpoint runs `0..k` and its resume
//! `k..N`.

use std::ops::Range;

use lbica_cache::CacheModule;
use lbica_obs::{QueueTier, SimObserver};
use lbica_tier::TieredCacheModule;
use lbica_trace::workload::WorkloadSpec;

use crate::arena::{Arrivals, SimArena};
use crate::checkpoint::ReplayCheckpoint;
use crate::config::SimulationConfig;
use crate::controller::{CacheController, ControllerContext};
use crate::report::{PolicyChange, SimPerf, SimulationReport};
use crate::system::{CacheFront, System};

use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_storage::time::SimTime;
use lbica_trace::monitor::IntervalReport;

/// The end-of-run drain's cap, in 100 ms steps: 600 × 100 ms = 60
/// simulated seconds. A backlog the system cannot clear in that window is
/// left unfinished (and counted in
/// [`SimulationReport::unfinished_requests`]) rather than chased forever.
const DRAIN_STEPS: u32 = 600;

/// Drives one [`WorkloadSpec`] through a [`crate::StorageSystem`] (or, for
/// a configuration with two or more cache levels, a
/// [`crate::TieredStorageSystem`]) under a [`CacheController`], interval by
/// interval, producing a [`SimulationReport`].
///
/// The loop mirrors the paper's deployment: the workload runs continuously;
/// once per monitoring interval the `iostat`/`blktrace` measurements are
/// gathered, handed to the controller, and the controller's policy /
/// bypass decision is applied before the next interval starts. Full runs,
/// checkpoints and resumes all execute that one loop, over either system.
#[derive(Debug)]
pub struct Simulation {
    config: SimulationConfig,
    spec: WorkloadSpec,
    seed: u64,
    /// Cap of the end-of-run drain in 100 ms steps (0: no drain).
    drain_steps: u32,
    observer: Option<SimObserver>,
}

/// The report rows a run has accumulated so far: what a checkpoint carries
/// across the split besides the system and controller state.
struct Progress {
    intervals: Vec<IntervalReport>,
    policy_changes: Vec<PolicyChange>,
    bypassed_total: u64,
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
    /// tiered system ([`crate::TieredStorageSystem`]); everything else takes
    /// the paper's flat single-SSD system ([`crate::StorageSystem`]).
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
            self.run_on::<TieredCacheModule>(controller, arena)
        } else {
            self.run_on::<CacheModule>(controller, arena)
        }
    }

    fn run_on<C: CacheFront>(
        &mut self,
        controller: &mut dyn CacheController,
        arena: &mut SimArena,
    ) -> SimulationReport {
        let mut system = arena.take::<C>(&self.config);
        let mut progress = self.start(&mut system, controller);
        let mut arrivals = arena.take_arrivals(&self.spec, self.seed);
        let full = 0..self.spec.total_intervals();
        self.span(&mut system, controller, arena, &mut arrivals, full, &mut progress);
        arena.store_arrivals(arrivals, &self.spec, self.seed);
        let report = self.finish(&mut system, controller, progress);
        arena.store(self.config, system);
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
        let (progress, state) = if tiered {
            self.checkpoint_on::<TieredCacheModule>(controller, split_at)
        } else {
            self.checkpoint_on::<CacheModule>(controller, split_at)
        };
        Ok(ReplayCheckpoint {
            workload: self.spec.name().to_string(),
            controller: controller.name().to_string(),
            seed: self.seed,
            tiered,
            next_interval: split_at,
            total_intervals,
            bypassed_total: progress.bypassed_total,
            intervals: progress.intervals,
            policy_changes: progress.policy_changes,
            state,
        })
    }

    /// Runs `[0, split_at)` on a `System<C>`; returns the accumulated rows
    /// and the system-then-controller state bytes.
    fn checkpoint_on<C: CacheFront>(
        &mut self,
        controller: &mut dyn CacheController,
        split_at: u32,
    ) -> (Progress, Vec<u8>) {
        let mut arena = SimArena::new();
        let mut system = arena.take::<C>(&self.config);
        let mut progress = self.start(&mut system, controller);
        let mut arrivals = Arrivals::Generate;
        self.span(&mut system, controller, &mut arena, &mut arrivals, 0..split_at, &mut progress);
        let mut w = SnapWriter::new();
        system.snap_to(&mut w);
        controller.save_state(&mut w);
        (progress, w.into_bytes())
    }

    /// Continues a run paused by [`Simulation::run_to_checkpoint`], restoring
    /// the storage system and the controller and executing the remaining
    /// intervals. The returned report is byte-identical to the report the
    /// unsplit run would have produced.
    ///
    /// The checkpoint's identity fields are validated against this
    /// simulation and `controller`; any mismatch (different workload, seed,
    /// controller, datapath, or interval count) is a typed error, never a
    /// silently wrong replay. So is a checkpoint whose accumulated rows
    /// disagree with its `next_interval`.
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
        cp.check()?;
        if cp.tiered {
            self.resume_on::<TieredCacheModule>(controller, cp)
        } else {
            self.resume_on::<CacheModule>(controller, cp)
        }
    }

    fn resume_on<C: CacheFront>(
        &mut self,
        controller: &mut dyn CacheController,
        cp: &ReplayCheckpoint,
    ) -> Result<SimulationReport, SnapError> {
        let mut arena = SimArena::new();
        let mut system = arena.take::<C>(&self.config);
        // The restored cache carries the checkpointed write policy; the
        // run-start `set_policy(initial)` is deliberately *not* replayed.
        let mut r = SnapReader::new(&cp.state);
        system.snap_state_from(&mut r)?;
        controller.restore_state(&mut r)?;
        r.finish()?;
        let mut progress = Progress {
            intervals: cp.intervals.clone(),
            policy_changes: cp.policy_changes.clone(),
            bypassed_total: cp.bypassed_total,
        };
        let range = cp.next_interval..cp.total_intervals;
        let mut arrivals = Arrivals::Generate;
        self.span(&mut system, controller, &mut arena, &mut arrivals, range, &mut progress);
        Ok(self.finish(&mut system, controller, progress))
    }

    /// Applies the controller's initial policy and opens the report rows
    /// with the run-start policy label.
    fn start<C: CacheFront>(
        &self,
        system: &mut System<C>,
        controller: &dyn CacheController,
    ) -> Progress {
        system.set_policy(controller.initial_policy());
        Progress {
            intervals: Vec::with_capacity(self.spec.total_intervals() as usize),
            policy_changes: vec![PolicyChange { interval: 0, policy: system.policy_label() }],
            bypassed_total: 0,
        }
    }

    /// The interval loop: runs the intervals in `range`, taking their
    /// arrivals from `arrivals`, and appends their rows to `progress`.
    fn span<C: CacheFront>(
        &mut self,
        system: &mut System<C>,
        controller: &mut dyn CacheController,
        arena: &mut SimArena,
        arrivals: &mut Arrivals,
        range: Range<u32>,
        progress: &mut Progress,
    ) {
        let interval_us = self.spec.interval_us();
        let mut records = arena.take_records();
        let mut tier_loads = Vec::new();
        // Cumulative (promotions, demotions) at the last observed interval,
        // so the observer can trace per-interval movement deltas.
        let mut observed_moves = (0u64, 0u64);

        for index in range {
            // 1. Feed the interval's arrivals and run the event loop to the
            //    interval boundary.
            arrivals.feed(&self.spec, self.seed, index, &mut records, |record| {
                system.schedule_record(record);
            });
            let boundary = SimTime::from_micros((index as u64 + 1) * interval_us);
            system.run_until(boundary);

            // 2. Gather the iostat/blktrace measurements for the interval.
            let mut report = system.end_interval(index);
            system.tier_loads_into(&mut tier_loads);

            // 3. Consult the controller and apply its decision.
            let decision = controller.on_interval(&ControllerContext {
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
            });
            report.burst_detected = decision.burst_detected;
            let switched_to = system.apply_policy(&decision);
            // `bypassed_requests` counts requests reclassified *to the
            // disk*. Spills (write and read alike) stay in the hierarchy and
            // are accounted separately (tier_stats / spilled_requests()).
            let spilled = (system.spilled_requests(), system.spilled_reads());
            let moved = system.apply_bypass(&decision.bypass) as u64;
            let spill_writes = system.spilled_requests() - spilled.0;
            let spill_reads = system.spilled_reads() - spilled.1;
            let to_disk = moved - (spill_writes + spill_reads);
            progress.bypassed_total += to_disk;

            // Out-of-band observability: reads interval measurements, never
            // feeds anything back into the system or the report. The tier
            // events are no-ops at zero, so a flat run emits none.
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
                if let Some(label) = &switched_to {
                    obs.policy_change(end_us, index + 1, label);
                }
                obs.bypass(end_us, index, to_disk);
                obs.spill_writes(end_us, index, spill_writes);
                obs.spill_reads(end_us, index, spill_reads);
                let (promotions, demotions) = system.movement_totals();
                obs.promotions(end_us, index, promotions - observed_moves.0);
                obs.demotions(end_us, index, demotions - observed_moves.1);
                observed_moves = (promotions, demotions);
            }

            if let Some(policy) = switched_to {
                progress.policy_changes.push(PolicyChange { interval: index + 1, policy });
            }
            progress.intervals.push(report);
        }
        arena.store_records(records);
    }

    /// Drains the tail and builds the report.
    fn finish<C: CacheFront>(
        &mut self,
        system: &mut System<C>,
        controller: &mut dyn CacheController,
        progress: Progress,
    ) -> SimulationReport {
        // Let in-flight and queued requests finish so aggregate latencies
        // cover the whole workload (up to the drain cap).
        system.drain(self.drain_steps);

        let app = system.app_tracker();
        let perf = SimPerf {
            events_processed: system.events_processed(),
            peak_event_queue_depth: system.peak_event_queue_depth(),
        };
        if let Some(obs) = self.observer.as_mut() {
            controller.export_obs(obs, self.spec.interval_us());
            obs.run_totals(
                perf.events_processed,
                app.completed(),
                perf.peak_event_queue_depth as u64,
            );
            obs.observe_app_latency(app.latency_histogram());
        }

        SimulationReport {
            workload: self.spec.name().to_string(),
            controller: controller.name().to_string(),
            total_intervals: self.spec.total_intervals(),
            intervals: progress.intervals,
            policy_changes: progress.policy_changes,
            app_completed: app.completed(),
            unfinished_requests: app.outstanding() as u64,
            app_avg_latency_us: app.avg_latency_us(),
            app_max_latency_us: app.max_latency_us(),
            app_p50_latency_us: app.percentile_us(50.0),
            app_p95_latency_us: app.percentile_us(95.0),
            app_p99_latency_us: app.percentile_us(99.0),
            bypassed_requests: progress.bypassed_total,
            cache_stats: *system.cache().level_stats(0),
            perf,
            tier_stats: system.tier_level_stats(),
        }
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

    /// Resumes tiny `tpcc`'s in-memory checkpoint at interval 4 on
    /// `config` after `damage` has been applied to it.
    fn resume_damaged(
        config: SimulationConfig,
        damage: impl Fn(&mut ReplayCheckpoint),
    ) -> Result<SimulationReport, SnapError> {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let mut cp = Simulation::new(config, spec.clone(), 7)
            .run_to_checkpoint(&mut StaticPolicyController::write_back(), 4)
            .unwrap();
        damage(&mut cp);
        Simulation::new(config, spec, 7)
            .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
    }

    fn resume_rejects_rows_that_disagree_with_next_interval(config: SimulationConfig) {
        let popped = resume_damaged(config, |cp| {
            cp.intervals.pop();
        });
        assert_eq!(popped, Err(SnapError::Corrupt("checkpoint interval row count")));
        let no_timeline = resume_damaged(config, |cp| cp.policy_changes.clear());
        assert_eq!(no_timeline, Err(SnapError::Corrupt("checkpoint policy timeline")));
    }

    #[test]
    fn flat_resume_rejects_rows_that_disagree_with_next_interval() {
        resume_rejects_rows_that_disagree_with_next_interval(SimulationConfig::tiny());
    }

    #[test]
    fn tiered_resume_rejects_rows_that_disagree_with_next_interval() {
        resume_rejects_rows_that_disagree_with_next_interval(SimulationConfig::tiny_two_tier());
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
