//! Workspace-wiring test: the facade's `prelude` re-exports must compose
//! across crate boundaries — a cache from `lbica-cache` driven by requests
//! from `lbica-storage`, and a full `lbica-sim` run of an `lbica-trace`
//! workload under an `lbica-core` controller.

use lbica::prelude::*;

#[test]
fn prelude_cache_and_storage_types_compose() {
    let mut cache = CacheModule::new(CacheConfig::small_test());
    let write = IoRequest::new(1, RequestKind::Write, RequestOrigin::Application, 0, 8);
    let outcome = cache.access(&write);
    assert!(!outcome.ops().is_empty(), "a write must produce at least one derived op");
    assert!(cache.cached_blocks() <= cache.capacity_blocks());
}

#[test]
fn prelude_simulation_report_is_non_degenerate() {
    let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
    let mut controller = LbicaController::new();
    let mut sim = Simulation::new(SimulationConfig::tiny(), spec, 42);
    let report = sim.run(&mut controller);

    assert_eq!(report.controller, "LBICA");
    assert!(report.app_completed > 0, "the tiny workload must complete requests");
    assert!(!report.intervals.is_empty(), "monitoring intervals must be recorded");
    assert_eq!(report.intervals.len() as u32, report.total_intervals);
    assert!(report.app_max_latency_us >= report.app_avg_latency_us);
    let stats: CacheStats = report.cache_stats;
    assert_eq!(stats.reads() + stats.writes(), report.app_completed);
}

#[test]
fn prelude_sweep_subsystem_composes() {
    // The lab working set must be reachable from the prelude alone: build
    // a small matrix over prelude types, execute it, aggregate it and
    // render both sink formats.
    let matrix = ScenarioMatrix::new()
        .push_workload(WorkloadSpec::web_server_scaled(WorkloadScale::tiny()))
        .push_workload(WorkloadSpec::synthetic_scaled("syn", WorkloadScale::tiny(), 0.5))
        .push_config("tiny", SimulationConfig::tiny())
        .with_controllers(&[ControllerKind::Wb, ControllerKind::Lbica]);
    assert_eq!(matrix.len(), 4);
    assert_eq!(matrix.seed_mode(), SeedMode::Derived);

    let cell: Scenario = matrix.cell(0).expect("first cell");
    assert_eq!(cell.config_label(), "tiny");

    let summary: SweepSummary = SweepExecutor::new(2).aggregate(&matrix);
    assert_eq!(summary.total.cells, 4);
    assert!(summary.total.app_completed > 0);
    assert_eq!(summary.lbica_vs_wb.len(), 2);
    assert!(CsvSink::render(&summary).contains("web-server"));
    assert!(JsonSink::render(&summary).contains("\"by_controller\""));

    // The streaming aggregator is usable standalone too.
    let mut aggregator = Aggregator::new();
    let axis = ConfigAxis::new("tiny", SimulationConfig::tiny());
    assert_eq!(axis.label, "tiny");
    aggregator.observe(&cell, &cell.run());
    assert_eq!(aggregator.cells(), 1);

    // And the ≥36-cell canned matrix expands lazily without running.
    assert!(ScenarioMatrix::tiny().len() >= 36);
}

#[test]
fn prelude_tier_subsystem_composes() {
    // The tiered working set must be reachable from the prelude alone:
    // build a hierarchy over prelude types, run a workload through the
    // tiered datapath and read the per-tier stats off the report.
    let topology = TierTopology::two_level(
        TierLevelSpec::new(CacheConfig::small_test(), *SsdModel::samsung_863a().config(), 1),
        TierLevelSpec::new(CacheConfig::small_test(), *SsdModel::midrange_sata().config(), 2),
    )
    .with_placement(PlacementPolicy::HotTier)
    .with_promotion(PromotionPolicy::OnHit)
    .with_demotion(DemotionPolicy::Cascade);
    let mut module = TieredCacheModule::new(topology);
    let read = IoRequest::new(1, RequestKind::Read, RequestOrigin::Application, 0, 8);
    assert!(!module.access(&read).read_hit());

    let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
    let report = Simulation::new(SimulationConfig::tiny_two_tier(), spec, 11)
        .run(&mut LbicaController::new());
    assert_eq!(report.tier_count(), 2);
    let hot: &TierLevelStats = report.tier(0).expect("hot tier stats");
    assert!(hot.hits > 0);
    assert!(report.app_completed > 0);

    // The spill planner is reachable and decides over a tier vector.
    let planner = SpillPlanner::new();
    let loads = [
        lbica::sim::TierLoad { queue_depth: 50, avg_latency: SimDuration::from_micros(75) },
        lbica::sim::TierLoad { queue_depth: 1, avg_latency: SimDuration::from_micros(150) },
    ];
    let plan = planner.plan(&loads, 2, SimDuration::from_micros(385));
    assert_eq!(plan.target, SpillTarget::Level(1));
}

#[test]
fn prelude_observability_composes() {
    // The observability surface must be reachable from the prelude alone:
    // an observed run returns the same report as a plain run, with the
    // trace ring and metrics registry filled on the side.
    let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
    let plain = Simulation::new(SimulationConfig::tiny(), spec.clone(), 42)
        .run(&mut LbicaController::new());
    let mut sim =
        Simulation::new(SimulationConfig::tiny(), spec, 42).with_observer(SimObserver::new());
    let observed = sim.run(&mut LbicaController::new());
    assert_eq!(observed, plain, "attaching an observer must not perturb the simulation");

    let observer = sim.take_observer().expect("observer survives the run");
    let ring: &TraceRing = observer.ring();
    assert!(ring.recorded() > 0, "the run must leave events in the trace ring");
    let trace = observer.render_chrome_trace("wiring");
    lbica::obs::validate::chrome_trace(&trace).expect("structurally valid Chrome trace");

    let snapshot: MetricsSnapshot = observer.snapshot();
    assert!(!snapshot.counters.is_empty(), "the sim must register counters");
    let registry: &MetricsRegistry = observer.metrics();
    assert_eq!(registry.snapshot(), snapshot);
    lbica::obs::validate::metrics_json(&snapshot.render_json())
        .expect("structurally valid metrics snapshot");

    // Telemetry hooks plug into the sweep executor through the prelude too,
    // and never feed back into the summary.
    struct CountCells(std::sync::atomic::AtomicUsize);
    impl TelemetryHook for CountCells {
        fn record(&self, event: TelemetryEvent<'_>) {
            if matches!(event, TelemetryEvent::Cell { .. }) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }
    let matrix = ScenarioMatrix::smoke();
    let hook = CountCells(std::sync::atomic::AtomicUsize::new(0));
    let with_hook = SweepExecutor::serial().aggregate_with_telemetry(&matrix, "smoke", &hook);
    assert_eq!(with_hook, SweepExecutor::serial().aggregate(&matrix));
    assert_eq!(hook.0.load(std::sync::atomic::Ordering::Relaxed), matrix.len());
}

#[test]
fn prelude_controllers_share_one_interface() {
    let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
    let mut controllers: Vec<Box<dyn CacheController>> = vec![
        Box::new(WbController::new()),
        Box::new(SibController::new()),
        Box::new(LbicaController::new()),
    ];
    for controller in &mut controllers {
        let mut sim = Simulation::new(SimulationConfig::tiny(), spec.clone(), 7);
        let report = sim.run(controller.as_mut());
        assert_eq!(report.controller, controller.name());
        assert!(report.app_completed > 0);
    }
}
