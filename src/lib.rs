//! Meta crate re-exporting the whole LBICA reproduction workspace.
//!
//! This is a convenience facade: `lbica::prelude::*` pulls in the types
//! needed to build a storage system, pick a controller (WB baseline, SIB or
//! LBICA) and run a workload through it. The individual crates remain usable
//! on their own. Full documentation lives in each sub-crate.
//!
//! # Example
//!
//! ```
//! use lbica::prelude::*;
//!
//! let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
//! let mut controller = LbicaController::new();
//! let report = Simulation::new(SimulationConfig::tiny(), spec, 42).run(&mut controller);
//! assert!(report.app_completed > 0);
//! ```

#![forbid(unsafe_code)]

pub use lbica_cache as cache;
pub use lbica_core as core;
pub use lbica_lab as lab;
pub use lbica_obs as obs;
pub use lbica_sim as sim;
pub use lbica_storage as storage;
pub use lbica_tier as tier;
pub use lbica_trace as trace;

pub mod prelude {
    //! One-stop imports: everything needed to assemble a cached storage
    //! system, choose a controller and run a workload through it.

    pub use lbica_cache::{
        CacheConfig, CacheModule, CacheOutcome, CacheStats, ReplacementKind, WritePolicy,
    };
    pub use lbica_core::{
        BottleneckDetector, LbicaController, RequestMix, SibController, SpillPlanner, SpillTarget,
        WbController, WorkloadCharacterizer, WorkloadComparison, WorkloadGroup,
    };
    pub use lbica_lab::{
        Aggregator, ConfigAxis, ControllerKind, CsvSink, JsonSink, Scenario, ScenarioMatrix,
        SeedMode, SweepExecutor, SweepSummary, TelemetryEvent, TelemetryHook,
    };
    pub use lbica_obs::{MetricsRegistry, MetricsSnapshot, SimObserver, TraceRing};
    pub use lbica_sim::{
        CacheController, ControllerContext, ControllerDecision, DiskDeviceConfig, Simulation,
        SimulationConfig, SimulationReport, StaticPolicyController, StorageSystem, TierLevelStats,
        TieredStorageSystem,
    };
    pub use lbica_storage::device::{DeviceModel, HddModel, SsdModel};
    pub use lbica_storage::queue::DeviceQueue;
    pub use lbica_storage::request::{IoRequest, RequestClass, RequestKind, RequestOrigin};
    pub use lbica_storage::time::{SimDuration, SimTime};
    pub use lbica_tier::{
        DemotionPolicy, InclusionPolicy, PlacementPolicy, PromotionPolicy, TierLevelSpec,
        TierMovement, TierTopology, TieredCacheModule,
    };
    pub use lbica_trace::record::TraceRecord;
    pub use lbica_trace::workload::{WorkloadScale, WorkloadSpec};
}
