//! Declarative scenario matrices.

use lbica_cache::{ReplacementKind, WritePolicy};
use lbica_sim::{DiskDeviceConfig, SimulationConfig};
use lbica_tier::InclusionPolicy;
use lbica_trace::io::BinaryTraceCodec;
use lbica_trace::workload::{DiurnalCurve, WorkloadScale, WorkloadSpec};

use crate::controller::ControllerKind;
use crate::scenario::{derive_seed, Scenario};

/// How a cell's stream seed relates to the seed-axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMode {
    /// The stream seed is [`derive_seed`] of the cell coordinates (the
    /// default): unique per (workload, config, seed) triple and stable
    /// under axis reordering.
    Derived,
    /// The seed-axis value is passed to the simulation verbatim. Used by
    /// the figure harness, which pins [`PAPER_SEED`] across every cell to
    /// reproduce the published tables bit-for-bit.
    Literal,
}

/// One value of the simulator-configuration axis: a configuration plus the
/// label it is keyed by in aggregates and cell ids.
#[derive(Debug, Clone)]
pub struct ConfigAxis {
    /// The label (keeps cell ids readable; also the aggregation key).
    pub label: String,
    /// The configuration itself.
    pub config: SimulationConfig,
}

impl ConfigAxis {
    /// Creates a labelled configuration.
    pub fn new(label: impl Into<String>, config: SimulationConfig) -> Self {
        ConfigAxis { label: label.into(), config }
    }
}

/// A cartesian product of scenario axes, expanded lazily into [`Scenario`]
/// cells.
///
/// Cell order is workload-major: workloads, then configurations, then
/// seeds, then controllers. The cells that share an arrival stream (the
/// controllers of one stream seed) are therefore adjacent, which is what
/// lets a [`lbica_sim::SimArena`] generate each stream once per group. The
/// order only affects *enumeration* and speed — every cell's stream seed
/// is a pure function of its coordinates (see [`SeedMode`]), so results
/// are independent of both enumeration and execution order.
///
/// # Example
///
/// Assemble a custom matrix from builder calls and run one cell:
///
/// ```
/// use lbica_lab::{ControllerKind, ScenarioMatrix};
/// use lbica_sim::SimulationConfig;
/// use lbica_trace::workload::{WorkloadScale, WorkloadSpec};
///
/// let matrix = ScenarioMatrix::new()
///     .push_workload(WorkloadSpec::web_server_scaled(WorkloadScale::tiny()))
///     .push_config("flat", SimulationConfig::tiny())
///     .push_config("tier2", SimulationConfig::tiny_two_tier())
///     .with_controllers(&[ControllerKind::Wb, ControllerKind::LbicaTier])
///     .with_seed_range(2);
///
/// // 1 workload x 2 configs x 2 controllers x 2 seeds.
/// assert_eq!(matrix.len(), 8);
/// let cell = matrix.cell(0).unwrap();
/// assert_eq!(cell.id(), "web-server/flat/WB/s0");
/// let report = cell.run();
/// assert!(report.app_completed > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    workloads: Vec<WorkloadSpec>,
    configs: Vec<ConfigAxis>,
    controllers: Vec<ControllerKind>,
    seeds: Vec<u64>,
    seed_mode: SeedMode,
}

impl Default for ScenarioMatrix {
    fn default() -> Self {
        ScenarioMatrix::new()
    }
}

impl ScenarioMatrix {
    /// An empty matrix with the controller axis pre-populated with all
    /// three schemes and a single seed. Add workloads and configurations
    /// with the builder methods.
    pub fn new() -> Self {
        ScenarioMatrix {
            workloads: Vec::new(),
            configs: Vec::new(),
            controllers: ControllerKind::ALL.to_vec(),
            seeds: vec![0],
            seed_mode: SeedMode::Derived,
        }
    }

    /// Appends a workload to the workload axis (builder style).
    ///
    /// # Panics
    ///
    /// Panics if a workload with the same name is already on the axis:
    /// names key the derived stream seeds, cell ids and aggregation rows,
    /// so a duplicate would silently collide all three.
    pub fn push_workload(mut self, spec: WorkloadSpec) -> Self {
        assert!(
            self.workloads.iter().all(|w| w.name() != spec.name()),
            "duplicate workload name `{}` on the workload axis",
            spec.name()
        );
        self.workloads.push(spec);
        self
    }

    /// Replaces the workload axis (builder style).
    ///
    /// # Panics
    ///
    /// Panics if two workloads share a name (see
    /// [`ScenarioMatrix::push_workload`]).
    pub fn with_workloads(self, specs: Vec<WorkloadSpec>) -> Self {
        let mut matrix = Self { workloads: Vec::with_capacity(specs.len()), ..self };
        for spec in specs {
            matrix = matrix.push_workload(spec);
        }
        matrix
    }

    /// Appends a labelled configuration to the configuration axis
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the label is already on the axis: labels key the derived
    /// stream seeds, cell ids and aggregation rows.
    pub fn push_config(mut self, label: impl Into<String>, config: SimulationConfig) -> Self {
        let axis = ConfigAxis::new(label, config);
        assert!(
            self.configs.iter().all(|c| c.label != axis.label),
            "duplicate config label `{}` on the configuration axis",
            axis.label
        );
        self.configs.push(axis);
        self
    }

    /// Replaces the controller axis (builder style).
    pub fn with_controllers(mut self, controllers: &[ControllerKind]) -> Self {
        self.controllers = controllers.to_vec();
        self
    }

    /// Replaces the seed axis (builder style).
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the seed axis to `0..replicates` (builder style).
    pub fn with_seed_range(self, replicates: u64) -> Self {
        self.with_seeds((0..replicates).collect())
    }

    /// Pins a single literal seed shared by every cell (builder style):
    /// the harness mode — see [`SeedMode::Literal`].
    pub fn with_literal_seed(mut self, seed: u64) -> Self {
        self.seeds = vec![seed];
        self.seed_mode = SeedMode::Literal;
        self
    }

    /// The workload axis.
    pub fn workloads(&self) -> &[WorkloadSpec] {
        &self.workloads
    }

    /// The configuration axis.
    pub fn configs(&self) -> &[ConfigAxis] {
        &self.configs
    }

    /// The controller axis.
    pub fn controllers(&self) -> &[ControllerKind] {
        &self.controllers
    }

    /// The seed axis.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// How stream seeds are produced.
    pub const fn seed_mode(&self) -> SeedMode {
        self.seed_mode
    }

    /// Number of cells in the matrix (the product of the axis lengths).
    pub fn len(&self) -> usize {
        self.workloads.len() * self.configs.len() * self.controllers.len() * self.seeds.len()
    }

    /// Whether the matrix has no cells (any axis empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands cell `index` (in workload-major order), or `None` past the
    /// end. O(1): the matrix never materializes its cells.
    pub fn cell(&self, index: usize) -> Option<Scenario> {
        if index >= self.len() {
            return None;
        }
        let nk = self.controllers.len();
        let ns = self.seeds.len();
        let nc = self.configs.len();
        let k = index % nk;
        let rest = index / nk;
        let s = rest % ns;
        let rest = rest / ns;
        let c = rest % nc;
        let w = rest / nc;

        let workload = &self.workloads[w];
        let axis = &self.configs[c];
        let seed = self.seeds[s];
        let stream_seed = match self.seed_mode {
            SeedMode::Derived => derive_seed(workload.name(), &axis.label, seed),
            SeedMode::Literal => seed,
        };
        Some(Scenario::new(
            workload.clone(),
            axis.label.clone(),
            axis.config,
            self.controllers[k],
            seed,
            stream_seed,
        ))
    }

    /// Lazily iterates over every cell in enumeration order.
    pub fn cells(&self) -> impl Iterator<Item = Scenario> + '_ {
        (0..self.len()).map(|i| self.cell(i).expect("index in bounds"))
    }

    /// The paper's canonical figure matrix: the three canned workloads at
    /// `scale` under all three controllers against a single configuration,
    /// sharing one literal seed (so the schemes see identical arrivals and
    /// the historical headline tables reproduce exactly).
    pub fn paper(scale: WorkloadScale, sim: SimulationConfig, seed: u64) -> Self {
        ScenarioMatrix::new()
            .with_workloads(WorkloadSpec::paper_suite(scale))
            .push_config("paper", sim)
            .with_literal_seed(seed)
    }

    /// The matrix of the `perfbench` benchmark's `paper-tiered` workload
    /// (and `sweep --matrix paper-tiered`): the paper's canonical cells
    /// plus the same workloads against a two-level (hot + QLC warm)
    /// hierarchy derived from the same configuration — 18 cells sharing
    /// one literal seed.
    pub fn paper_tiered(scale: WorkloadScale, sim: SimulationConfig, seed: u64) -> Self {
        ScenarioMatrix::paper(scale, sim, seed).push_config("tier2", sim.two_tier_qlc())
    }

    /// The CI smoke matrix: 4 workloads (the paper's three plus a
    /// parameterized synthetic mix) × 3 controllers × 3 seeds at tiny
    /// scale — 36 cells.
    pub fn tiny() -> Self {
        let scale = WorkloadScale::tiny();
        let mut workloads = WorkloadSpec::paper_suite(scale);
        workloads.push(WorkloadSpec::synthetic_scaled("synthetic-mixed", scale, 0.35));
        ScenarioMatrix::new()
            .with_workloads(workloads)
            .push_config("tiny", SimulationConfig::tiny())
            .with_seed_range(3)
    }

    /// A minimal matrix for doctests and wiring tests: 2 workloads × 3
    /// controllers × 1 seed — 6 cells.
    pub fn smoke() -> Self {
        let scale = WorkloadScale::tiny();
        ScenarioMatrix::new()
            .push_workload(WorkloadSpec::web_server_scaled(scale))
            .push_workload(WorkloadSpec::synthetic_scaled("synthetic-mixed", scale, 0.35))
            .push_config("tiny", SimulationConfig::tiny())
    }

    /// A cache-geometry sweep: the paper's workloads at tiny scale against
    /// three cache sizes (half / paper / double the tiny set count).
    pub fn geometry() -> Self {
        let scale = WorkloadScale::tiny();
        let base = SimulationConfig::tiny();
        ScenarioMatrix::new()
            .with_workloads(WorkloadSpec::paper_suite(scale))
            .push_config("sets-64", base.with_cache_sets(64))
            .push_config("sets-128", base)
            .push_config("sets-256", base.with_cache_sets(256))
    }

    /// A disk-device sweep: the tiny workloads against the mid-range-SSD
    /// disk subsystem and the raw 7.2K SAS HDD.
    pub fn devices() -> Self {
        let scale = WorkloadScale::tiny();
        let base = SimulationConfig::tiny();
        ScenarioMatrix::new()
            .with_workloads(WorkloadSpec::paper_suite(scale))
            .push_config("midrange-ssd", base)
            .push_config("hdd", base.with_disk_device(DiskDeviceConfig::seagate_hdd()))
    }

    /// The tier-count/tier-geometry axis: the paper's workloads at tiny
    /// scale against the flat cache, a two-level and a three-level
    /// hierarchy — 27 cells exercising the tiered datapath end to end.
    pub fn tiered() -> Self {
        let scale = WorkloadScale::tiny();
        ScenarioMatrix::new()
            .with_workloads(WorkloadSpec::paper_suite(scale))
            .push_config("flat", SimulationConfig::tiny())
            .push_config("tier2", SimulationConfig::tiny_two_tier())
            .push_config("tier3", SimulationConfig::tiny_three_tier())
    }

    /// The replacement-policy axis: the paper's workloads at tiny scale
    /// under LRU and FIFO victim selection — 18 cells.
    pub fn replacement() -> Self {
        let scale = WorkloadScale::tiny();
        let base = SimulationConfig::tiny();
        ScenarioMatrix::new()
            .with_workloads(WorkloadSpec::paper_suite(scale))
            .push_config("lru", base.with_replacement(ReplacementKind::Lru))
            .push_config("fifo", base.with_replacement(ReplacementKind::Fifo))
    }

    /// The per-tier write-policy axis: the paper's workloads at tiny scale
    /// against a two-level hierarchy whose *warm* tier starts under a
    /// different write policy — uniform write-back, a write-through warm
    /// tier and a read-only warm tier — under the WB baseline, the paper's
    /// LBICA and the tier-aware `LBICA-T` (per-tier overrides + read
    /// spilling) — 27 cells. The axis varies the warm tier because the hot
    /// tier's run-start policy is owned by the controller
    /// (`CacheController::initial_policy`); lower levels keep their
    /// configured policies.
    pub fn tier_policy() -> Self {
        let scale = WorkloadScale::tiny();
        let base = SimulationConfig::tiny_two_tier();
        ScenarioMatrix::new()
            .with_workloads(WorkloadSpec::paper_suite(scale))
            .push_config("uniform-wb", base)
            .push_config("warm-wt", base.with_tier_level_policy(1, WritePolicy::WriteThrough))
            .push_config("warm-ro", base.with_tier_level_policy(1, WritePolicy::ReadOnly))
            .with_controllers(&[
                ControllerKind::Wb,
                ControllerKind::Lbica,
                ControllerKind::LbicaTier,
            ])
    }

    /// The inclusion axis: the paper's workloads at tiny scale against the
    /// same two-level hierarchy run exclusive (promotion moves blocks) and
    /// inclusive (promotion copies, with back-invalidation) — 18 cells.
    pub fn inclusion() -> Self {
        let scale = WorkloadScale::tiny();
        let base = SimulationConfig::tiny_two_tier();
        ScenarioMatrix::new()
            .with_workloads(WorkloadSpec::paper_suite(scale))
            .push_config("exclusive", base)
            .push_config("inclusive", base.with_tier_inclusion(InclusionPolicy::Inclusive))
    }

    /// The Zipfian-skew axis: one heavy-tail workload per skew value, from
    /// uniform-random (0) to strongly concentrated (1200 permille), under
    /// all three controllers — 12 cells. Cache hit rates rise monotonically
    /// with skew (pinned by the generator property suite).
    pub fn zipf() -> Self {
        let scale = WorkloadScale::tiny();
        let workloads = [0u32, 600, 900, 1200]
            .iter()
            .map(|&skew| WorkloadSpec::zipfian_scaled(format!("zipf-{skew}"), scale, skew))
            .collect();
        ScenarioMatrix::new()
            .with_workloads(workloads)
            .push_config("tiny", SimulationConfig::tiny())
    }

    /// The diurnal-modulation axis: the paper's workloads as-is and
    /// reshaped by the canned day/night load curve — 18 cells. The curve
    /// scales arrival rates only; record shapes and per-interval seeds are
    /// untouched, so the flat and curved variants stay comparable.
    pub fn diurnal() -> Self {
        let scale = WorkloadScale::tiny();
        let mut workloads = WorkloadSpec::paper_suite(scale);
        for spec in WorkloadSpec::paper_suite(scale) {
            let name = format!("{}-diurnal", spec.name());
            workloads.push(spec.with_diurnal(DiurnalCurve::day_night()).with_name(name));
        }
        ScenarioMatrix::new()
            .with_workloads(workloads)
            .push_config("tiny", SimulationConfig::tiny())
    }

    /// The tenant-count axis: the same fixed per-tenant templates
    /// interleaved as 1 / 2 / 4 tenants — 9 cells. The templates are
    /// identical across the axis (not rescaled per tenant count), so under
    /// a shared stream seed each tenant's private stream is byte-identical
    /// in every cell and only the interleaving widens; with the default
    /// derived seeds each mix draws its own streams (pin the comparison
    /// with [`ScenarioMatrix::with_literal_seed`] when pairing mixes).
    pub fn multi_tenant() -> Self {
        let scale = WorkloadScale::tiny();
        let workloads = [1u32, 2, 4]
            .iter()
            .map(|&count| {
                WorkloadSpec::multi_tenant(
                    format!("mt{count}"),
                    count,
                    scale.cache_blocks * 4,
                    WorkloadSpec::paper_suite(scale),
                )
            })
            .collect();
        ScenarioMatrix::new()
            .with_workloads(workloads)
            .push_config("tiny", SimulationConfig::tiny())
    }

    /// The multi-tenant headline grid: the paper's three workloads
    /// interleaved as six client streams, against the flat cache and a
    /// two-level hierarchy, under all three controllers — 6 cells. The CI
    /// workload-smoke matrix.
    pub fn paper_mt() -> Self {
        let scale = WorkloadScale::tiny();
        ScenarioMatrix::new()
            .push_workload(WorkloadSpec::paper_mt_scaled(scale, 6))
            .push_config("flat", SimulationConfig::tiny())
            .push_config("tier2", SimulationConfig::tiny_two_tier())
    }

    /// Trace-replay cells: captured [`lbica_trace::record::TraceRecord`]
    /// streams fed through the matrix instead of synthetic generators.
    /// Each workload replays the same recorded arrivals for every
    /// controller, seed and worker count, so the whole matrix is
    /// deterministic by construction.
    pub fn replay(traces: Vec<WorkloadSpec>, config: SimulationConfig) -> Self {
        for spec in &traces {
            assert!(spec.is_replay(), "`{}` is not a replay workload", spec.name());
        }
        ScenarioMatrix::new().with_workloads(traces).push_config("replay", config)
    }

    /// A self-contained replay demo matrix: two synthetic captures are
    /// generated, round-tripped through the [`BinaryTraceCodec`] (so the
    /// cells exercise the real capture→encode→decode→replay pipeline) and
    /// swept under all three controllers — 6 cells.
    pub fn replay_demo() -> Self {
        let scale = WorkloadScale::tiny();
        let codec = BinaryTraceCodec;
        let traces = [("replay-mixed", 0.5f64), ("replay-writes", 0.1)]
            .iter()
            .map(|(name, read_fraction)| {
                let synthetic = WorkloadSpec::synthetic_scaled(*name, scale, *read_fraction);
                let captured = codec.encode(&synthetic.generate_all(0x000b_1b1c));
                WorkloadSpec::replay_from_binary(*name, synthetic.interval_us(), captured)
                    .expect("the codec round-trips its own encoding")
            })
            .collect();
        ScenarioMatrix::replay(traces, SimulationConfig::tiny())
    }

    /// The registered matrix called `name` (see [`MATRICES`]), or `None`
    /// for a name the registry does not list.
    pub fn named(name: &str) -> Option<Self> {
        MATRICES.iter().find(|def| def.name == name).map(|def| (def.build)())
    }
}

/// The literal seed of the paper's figure runs: every cell of the `paper`
/// and `paper-tiered` matrices (and the figure harness) draws its arrivals
/// from it, so the published tables reproduce bit-for-bit.
pub const PAPER_SEED: u64 = 0x1b1c_a000;

/// One entry of the named-matrix registry: the name a command line selects
/// it by, a one-line description and its builder
/// ([`ScenarioMatrix::named`] runs it).
#[derive(Debug, Clone, Copy)]
pub struct MatrixDef {
    /// The registered name (`--matrix NAME`).
    pub name: &'static str,
    /// A one-line description with the cell count.
    pub desc: &'static str,
    build: fn() -> ScenarioMatrix,
}

/// Every named matrix, in listing order. [`ScenarioMatrix::named`] resolves
/// names through this table, and help and `--list` text render from it.
pub const MATRICES: [MatrixDef; 14] = [
    MatrixDef {
        name: "tiny",
        desc: "4 workloads x 3 controllers x 3 seeds, tiny scale (36 cells)",
        build: ScenarioMatrix::tiny,
    },
    MatrixDef {
        name: "geometry",
        desc: "cache-size sweep: 64/128/256 sets (27 cells)",
        build: ScenarioMatrix::geometry,
    },
    MatrixDef {
        name: "devices",
        desc: "mid-range-SSD vs 7.2K-HDD disk subsystem (18 cells)",
        build: ScenarioMatrix::devices,
    },
    MatrixDef {
        name: "tiered",
        desc: "flat vs 2-level vs 3-level cache hierarchy (27 cells)",
        build: ScenarioMatrix::tiered,
    },
    MatrixDef {
        name: "tier-policy",
        desc: "per-tier write policies under WB/LBICA/LBICA-T (27 cells)",
        build: ScenarioMatrix::tier_policy,
    },
    MatrixDef {
        name: "inclusion",
        desc: "exclusive vs inclusive two-level hierarchy (18 cells)",
        build: ScenarioMatrix::inclusion,
    },
    MatrixDef {
        name: "replacement",
        desc: "LRU vs FIFO victim selection (18 cells)",
        build: ScenarioMatrix::replacement,
    },
    MatrixDef {
        name: "replay",
        desc: "codec-round-tripped trace-replay cells (6 cells)",
        build: ScenarioMatrix::replay_demo,
    },
    MatrixDef {
        name: "zipf",
        desc: "Zipfian block-popularity skew sweep: s=0.0/0.6/0.9/1.2 (12 cells)",
        build: ScenarioMatrix::zipf,
    },
    MatrixDef {
        name: "diurnal",
        desc: "paper workloads flat vs day/night diurnal modulation (18 cells)",
        build: ScenarioMatrix::diurnal,
    },
    MatrixDef {
        name: "multi-tenant",
        desc: "1/2/4-tenant interleaves of identical templates (9 cells)",
        build: ScenarioMatrix::multi_tenant,
    },
    MatrixDef {
        name: "paper-mt",
        desc: "six-tenant paper mix, flat + two-tier (6 cells)",
        build: ScenarioMatrix::paper_mt,
    },
    MatrixDef {
        name: "paper",
        desc: "the canonical figure matrix at published scale (9 cells, slow)",
        build: || {
            ScenarioMatrix::paper(WorkloadScale::harness(), SimulationConfig::harness(), PAPER_SEED)
        },
    },
    MatrixDef {
        name: "paper-tiered",
        desc: "the figure matrix flat + two-level hot/QLC hierarchy (18 cells, slow)",
        build: || {
            let (scale, sim) = (WorkloadScale::harness(), SimulationConfig::harness());
            ScenarioMatrix::paper_tiered(scale, sim, PAPER_SEED)
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn len_is_the_axis_product_and_empty_axes_empty_the_matrix() {
        let m = ScenarioMatrix::tiny();
        // 4 workloads × 1 config × 3 controllers × 3 seeds.
        assert_eq!(m.len(), 36);
        assert!(!m.is_empty());
        let empty = ScenarioMatrix::new();
        assert!(empty.is_empty());
        assert!(empty.cell(0).is_none());
        assert_eq!(empty.cells().count(), 0);
    }

    #[test]
    fn enumeration_is_workload_major_then_config_seed_controller() {
        let m = ScenarioMatrix::smoke();
        let ids: Vec<String> = m.cells().map(|c| c.id()).collect();
        assert_eq!(ids.len(), 6);
        assert_eq!(ids[0], "web-server/tiny/WB/s0");
        assert_eq!(ids[1], "web-server/tiny/SIB/s0");
        assert_eq!(ids[2], "web-server/tiny/LBICA/s0");
        assert_eq!(ids[3], "synthetic-mixed/tiny/WB/s0");
        assert!(m.cell(6).is_none());
        let ids: Vec<String> = ScenarioMatrix::tiny().cells().take(4).map(|c| c.id()).collect();
        assert_eq!(
            ids,
            ["tpcc/tiny/WB/s0", "tpcc/tiny/SIB/s0", "tpcc/tiny/LBICA/s0", "tpcc/tiny/WB/s1"]
        );
    }

    /// Asserts that the cells of `m` sharing an arrival stream (one
    /// workload, one stream seed) occupy one contiguous index range.
    fn assert_stream_groups_are_contiguous(m: &ScenarioMatrix) {
        let keys: Vec<(String, u64)> =
            m.cells().map(|c| (c.workload().name().to_string(), c.stream_seed())).collect();
        let mut closed: Vec<&(String, u64)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if i > 0 && keys[i - 1] != *key {
                closed.push(&keys[i - 1]);
            }
            assert!(!closed.contains(&key), "{key:?} resumes at cell {i} of {}", m.len());
        }
    }

    #[test]
    fn every_stream_group_is_one_contiguous_index_range() {
        let scale = WorkloadScale::tiny();
        let derived = ScenarioMatrix::new()
            .with_workloads(WorkloadSpec::paper_suite(scale))
            .push_config("flat", SimulationConfig::tiny())
            .push_config("tier2", SimulationConfig::tiny_two_tier())
            .with_seed_range(3);
        let literal = ScenarioMatrix::paper_tiered(scale, SimulationConfig::tiny(), 5);
        for m in [derived, literal, ScenarioMatrix::tiny(), ScenarioMatrix::tier_policy()] {
            assert_stream_groups_are_contiguous(&m);
        }
        // Literal: each workload's six cells (two configs x three
        // controllers) are one group.
        let m = ScenarioMatrix::paper_tiered(scale, SimulationConfig::tiny(), 5);
        let names: Vec<String> = m.cells().map(|c| c.workload().name().to_string()).collect();
        assert!(names.chunks(6).all(|group| group.iter().all(|n| *n == group[0])));
    }

    #[test]
    fn derived_seeds_are_shared_across_controllers_but_not_coordinates() {
        let m = ScenarioMatrix::tiny();
        // Group stream seeds by (workload, config, seed): each group holds
        // all three controllers and exactly one stream seed.
        let mut groups: BTreeMap<(String, String, u64), Vec<u64>> = BTreeMap::new();
        for cell in m.cells() {
            groups
                .entry((
                    cell.workload().name().to_string(),
                    cell.config_label().to_string(),
                    cell.seed(),
                ))
                .or_default()
                .push(cell.stream_seed());
        }
        assert_eq!(groups.len(), 4 * 3);
        let mut distinct: Vec<u64> = Vec::new();
        for seeds in groups.values() {
            assert_eq!(seeds.len(), 3, "one cell per controller");
            assert!(seeds.windows(2).all(|w| w[0] == w[1]), "controllers share the stream");
            distinct.push(seeds[0]);
        }
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4 * 3, "stream seeds unique per coordinate triple");
    }

    #[test]
    #[should_panic(expected = "duplicate workload name")]
    fn duplicate_workload_names_are_rejected() {
        let scale = WorkloadScale::tiny();
        let _ = ScenarioMatrix::new()
            .push_workload(WorkloadSpec::synthetic_scaled("syn", scale, 0.2))
            .push_workload(WorkloadSpec::synthetic_scaled("syn", scale, 0.8));
    }

    #[test]
    #[should_panic(expected = "duplicate config label")]
    fn duplicate_config_labels_are_rejected() {
        let _ = ScenarioMatrix::new()
            .push_config("tiny", SimulationConfig::tiny())
            .push_config("tiny", SimulationConfig::tiny().with_cache_sets(64));
    }

    #[test]
    fn literal_mode_passes_the_seed_through() {
        let m = ScenarioMatrix::paper(WorkloadScale::tiny(), SimulationConfig::tiny(), 99);
        assert_eq!(m.seed_mode(), SeedMode::Literal);
        assert_eq!(m.len(), 9);
        assert!(m.cells().all(|c| c.stream_seed() == 99));
    }

    #[test]
    fn geometry_and_device_matrices_vary_the_config_axis() {
        let g = ScenarioMatrix::geometry();
        assert_eq!(g.len(), 3 * 3 * 3);
        assert_eq!(g.configs()[0].config.cache_capacity_blocks(), 256);
        assert_eq!(g.configs()[2].config.cache_capacity_blocks(), 1024);
        let d = ScenarioMatrix::devices();
        assert_eq!(d.len(), 3 * 2 * 3);
        assert_ne!(d.configs()[0].config.disk_device, d.configs()[1].config.disk_device);
    }

    #[test]
    fn tiered_matrix_spans_tier_counts() {
        let t = ScenarioMatrix::tiered();
        assert_eq!(t.len(), 3 * 3 * 3);
        let counts: Vec<usize> = t.configs().iter().map(|c| c.config.tier_count()).collect();
        assert_eq!(counts, vec![1, 2, 3]);
    }

    #[test]
    fn replacement_matrix_spans_both_policies() {
        use lbica_cache::ReplacementKind;
        let m = ScenarioMatrix::replacement();
        assert_eq!(m.len(), 3 * 2 * 3);
        assert_eq!(m.configs()[0].config.cache.replacement, ReplacementKind::Lru);
        assert_eq!(m.configs()[1].config.cache.replacement, ReplacementKind::Fifo);
    }

    #[test]
    fn paper_tiered_matrix_extends_the_canonical_grid() {
        let m = ScenarioMatrix::paper_tiered(WorkloadScale::tiny(), SimulationConfig::tiny(), 9);
        assert_eq!(m.len(), 3 * 2 * 3);
        assert_eq!(m.seed_mode(), SeedMode::Literal);
        assert_eq!(m.configs()[0].config.tier_count(), 1);
        assert_eq!(m.configs()[1].config.tier_count(), 2);
        assert!(m.cells().all(|c| c.stream_seed() == 9));
    }

    #[test]
    fn tier_policy_matrix_varies_initial_policies_and_adds_the_tier_controller() {
        let m = ScenarioMatrix::tier_policy();
        assert_eq!(m.len(), 3 * 3 * 3);
        let topo = |i: usize| m.configs()[i].config.tiers.unwrap();
        assert_eq!(topo(0).level(0).write_policy(), WritePolicy::WriteBack);
        assert_eq!(topo(1).level(1).write_policy(), WritePolicy::WriteThrough);
        assert_eq!(topo(2).level(1).write_policy(), WritePolicy::ReadOnly);
        assert_eq!(topo(2).level(0).write_policy(), WritePolicy::WriteBack);
        assert!(m.controllers().contains(&ControllerKind::LbicaTier));
    }

    #[test]
    fn inclusion_matrix_spans_both_modes() {
        let m = ScenarioMatrix::inclusion();
        assert_eq!(m.len(), 3 * 2 * 3);
        assert_eq!(m.configs()[0].config.tiers.unwrap().inclusion, InclusionPolicy::Exclusive);
        assert_eq!(m.configs()[1].config.tiers.unwrap().inclusion, InclusionPolicy::Inclusive);
    }

    #[test]
    fn zipf_matrix_spans_the_skew_axis() {
        let m = ScenarioMatrix::zipf();
        // 4 workloads x 1 config x 3 controllers x 1 seed.
        assert_eq!(m.len(), 12);
        let names: Vec<&str> = m.workloads().iter().map(|w| w.name()).collect();
        assert_eq!(names, vec!["zipf-0", "zipf-600", "zipf-900", "zipf-1200"]);
    }

    #[test]
    fn diurnal_matrix_pairs_flat_and_curved_variants() {
        let m = ScenarioMatrix::diurnal();
        // 6 workloads x 1 config x 3 controllers x 1 seed.
        assert_eq!(m.len(), 18);
        let curved: Vec<&WorkloadSpec> =
            m.workloads().iter().filter(|w| w.diurnal().is_some()).collect();
        assert_eq!(curved.len(), 3);
        assert!(curved.iter().all(|w| w.name().ends_with("-diurnal")));
        // Curved variants keep the flat variants' interval structure.
        for w in &curved {
            let base = w.name().trim_end_matches("-diurnal");
            let flat = m.workloads().iter().find(|f| f.name() == base).unwrap();
            assert_eq!(w.total_intervals(), flat.total_intervals());
        }
    }

    #[test]
    fn multi_tenant_matrix_reuses_identical_templates_across_counts() {
        let m = ScenarioMatrix::multi_tenant();
        // 3 workloads x 1 config x 3 controllers x 1 seed.
        assert_eq!(m.len(), 9);
        let counts: Vec<u32> = m.workloads().iter().map(|w| w.tenant_count()).collect();
        assert_eq!(counts, vec![1, 2, 4]);
        // Fixed templates: the mt2 and mt4 mixes carry byte-identical
        // template lists, which is what makes per-tenant streams stable
        // under the tenant-count axis.
        let t2 = m.workloads()[1].tenants().unwrap();
        let t4 = m.workloads()[2].tenants().unwrap();
        assert_eq!(t2.templates().len(), t4.templates().len());
        for (a, b) in t2.templates().iter().zip(t4.templates()) {
            assert_eq!(a.name(), b.name());
        }
    }

    #[test]
    fn paper_mt_matrix_is_the_six_tenant_smoke_grid() {
        let m = ScenarioMatrix::paper_mt();
        // 1 workload x 2 configs x 3 controllers x 1 seed.
        assert_eq!(m.len(), 6);
        assert_eq!(m.workloads()[0].tenant_count(), 6);
        assert_eq!(m.configs()[0].config.tier_count(), 1);
        assert_eq!(m.configs()[1].config.tier_count(), 2);
    }

    #[test]
    fn replay_demo_matrix_builds_codec_backed_cells() {
        let m = ScenarioMatrix::replay_demo();
        assert_eq!(m.len(), 6, "2 replay workloads x 1 config x 3 controllers");
        assert!(m.workloads().iter().all(|w| w.is_replay()));
        assert!(m.workloads().iter().all(|w| !w.replay_records().is_empty()));
    }

    #[test]
    #[should_panic(expected = "not a replay workload")]
    fn replay_matrix_rejects_synthetic_workloads() {
        let synthetic = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
        let _ = ScenarioMatrix::replay(vec![synthetic], SimulationConfig::tiny());
    }

    #[test]
    fn replay_cells_share_one_copy_of_the_trace() {
        let m = ScenarioMatrix::replay_demo();
        let shared = m.workloads()[0].replay_records().as_ptr();
        let (a, b) = (m.cell(0).unwrap(), m.cell(1).unwrap());
        assert_eq!(a.workload().name(), b.workload().name());
        assert_eq!(a.workload().replay_records().as_ptr(), shared);
        assert_eq!(b.workload().replay_records().as_ptr(), shared);
    }

    #[test]
    fn every_registered_matrix_builds_nonempty() {
        for def in &MATRICES {
            let matrix = ScenarioMatrix::named(def.name)
                .unwrap_or_else(|| panic!("matrix `{}` is not resolvable", def.name));
            assert!(!matrix.is_empty(), "matrix `{}` is empty", def.name);
        }
        assert_eq!(ScenarioMatrix::named("paper-tiered").expect("registered").len(), 18);
    }

    #[test]
    fn matrix_names_are_unique() {
        for (i, a) in MATRICES.iter().enumerate() {
            for b in &MATRICES[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate matrix name");
            }
        }
    }

    #[test]
    fn unlisted_matrix_names_are_rejected() {
        for name in ["", "no-such-matrix", "bogus", "Tiny", "paper_tiered", "smoke"] {
            assert!(ScenarioMatrix::named(name).is_none(), "unlisted matrix `{name}` resolved");
        }
    }

    #[test]
    fn named_paper_tiered_is_the_hand_built_matrix() {
        // perfbench builds this matrix by hand; the registry entry must
        // name the same cells (the ids carry the seed).
        let ids = |m: &ScenarioMatrix| m.cells().map(|c| c.id()).collect::<Vec<_>>();
        let hand = ScenarioMatrix::paper_tiered(
            WorkloadScale::harness(),
            SimulationConfig::harness(),
            PAPER_SEED,
        );
        let named = ScenarioMatrix::named("paper-tiered").expect("registered");
        assert_eq!(ids(&named), ids(&hand));
    }
}
