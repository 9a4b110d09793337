//! The three benchmark workloads, built from public `lbica-lab` builders.

use std::time::Instant;

use lbica_lab::{derive_seed, ControllerKind, ScenarioMatrix, SweepExecutor};
use lbica_sim::{SimArena, SimulationConfig, SimulationReport};
use lbica_trace::io::{import_text_to_binary, write_text_trace};
use lbica_trace::workload::{WorkloadScale, WorkloadSpec};

use crate::calib::Calibrator;

/// The historical figure-harness seed: the seed whose cell digests are
/// pinned in `pins.txt`.
pub const DEFAULT_SEED: u64 = 0x1b1c_a000;

/// Workload names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["paper-tiered", "zipf-tiered", "replay-writes"];

/// One benchmark workload: a matrix of cells plus how it is executed.
pub struct Workload {
    pub name: &'static str,
    pub matrix: ScenarioMatrix,
    /// Worker threads of a timed pass; 1 runs the cells in order through
    /// one persistent arena.
    pub jobs: usize,
    /// The controller whose cells the `sim_*` metrics are taken from.
    pub headline: ControllerKind,
    /// Host seconds spent in `import_text_to_binary` + `replay_from_binary`.
    pub import_s: f64,
}

impl Workload {
    /// Builds workload `name` from the workload seed. `None` for an unknown
    /// name.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let scale = WorkloadScale::harness();
        let workload = match name {
            // The ledger's 18 cells: paper suite x {flat, tier2} x
            // {WB, SIB, LBICA}, one literal seed shared by every cell.
            "paper-tiered" => Workload {
                name: NAMES[0],
                matrix: ScenarioMatrix::paper_tiered(scale, SimulationConfig::harness(), seed),
                jobs: 1,
                headline: ControllerKind::Lbica,
                import_s: 0.0,
            },
            // Zipf skew 0.6 / 0.9 / 1.2 on the two-level hierarchy only. Two
            // stream replicates (the seed and its complement): with one, the
            // three headline cells' p99 moved 18% between seeds.
            "zipf-tiered" => Workload {
                name: NAMES[1],
                matrix: ScenarioMatrix::new()
                    .with_workloads(
                        [600, 900, 1200]
                            .iter()
                            .map(|&skew| {
                                WorkloadSpec::zipfian_scaled(format!("zipf-{skew}"), scale, skew)
                            })
                            .collect(),
                    )
                    .push_config("tier2", SimulationConfig::harness_two_tier())
                    .with_controllers(&[ControllerKind::Wb, ControllerKind::LbicaTier])
                    .with_seeds(vec![seed, !seed]),
                jobs: 1,
                headline: ControllerKind::LbicaTier,
                import_s: 0.0,
            },
            "replay-writes" => replay_writes(scale, seed),
            _ => return None,
        };
        Some(workload)
    }

    /// Runs every cell once, as a user's sweep would: in order through
    /// `arena` with the calibration kernel run before each cell, or, when
    /// `jobs > 1`, on the lab executor with the kernel run before and after
    /// the pass. Returns the reports and the pass's host wall seconds,
    /// kernel time excluded.
    pub fn run_calibrated(
        &self,
        arena: &mut SimArena,
        cal: &mut Calibrator,
        jobs: usize,
    ) -> (Vec<SimulationReport>, f64) {
        let mut wall = 0.0;
        let reports = if jobs == 1 {
            self.matrix
                .cells()
                .map(|cell| {
                    cal.run();
                    let started = Instant::now();
                    let report = cell.run_in(arena);
                    wall += started.elapsed().as_secs_f64();
                    report
                })
                .collect()
        } else {
            cal.run();
            let started = Instant::now();
            let reports = SweepExecutor::new(jobs).run(&self.matrix);
            wall = started.elapsed().as_secs_f64();
            cal.run();
            reports
        };
        (std::hint::black_box(reports), wall)
    }
}

/// Write-dominated captures (burst read fraction 0.0-0.3), rendered to
/// text, imported to the binary codec and replayed flat under WB, SIB and
/// LBICA on up to two workers.
fn replay_writes(scale: WorkloadScale, seed: u64) -> Workload {
    let mut import_s = 0.0;
    let traces = [0u32, 10, 20, 30]
        .iter()
        .map(|&read_pct| {
            let name = format!("replay-r{read_pct:02}");
            let synthetic =
                WorkloadSpec::synthetic_scaled(&name, scale, f64::from(read_pct) / 100.0);
            let records = synthetic.generate_all(derive_seed(&name, "capture", seed));
            let mut text = Vec::new();
            write_text_trace(&mut text, &records).expect("writing to memory cannot fail");
            let started = Instant::now();
            let binary = import_text_to_binary(text.as_slice())
                .expect("the importer accepts the text writer's own format");
            let spec = WorkloadSpec::replay_from_binary(name, synthetic.interval_us(), binary)
                .expect("the codec decodes its own encoding");
            import_s += started.elapsed().as_secs_f64();
            spec
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Workload {
        name: NAMES[2],
        matrix: ScenarioMatrix::replay(traces, SimulationConfig::harness()),
        jobs: cores.min(2),
        headline: ControllerKind::Lbica,
        import_s,
    }
}

/// Builds the workload and warms a fresh arena by running the first cell
/// of every configuration through it. Returns the workload, the warm arena
/// and the host seconds the whole set-up took.
pub fn set_up(name: &str, seed: u64) -> Option<(Workload, SimArena, f64)> {
    let started = Instant::now();
    let workload = Workload::build(name, seed)?;
    let mut arena = SimArena::new();
    let mut warmed: Vec<String> = Vec::new();
    for cell in workload.matrix.cells() {
        if !warmed.iter().any(|label| label == cell.config_label()) {
            warmed.push(cell.config_label().to_string());
            std::hint::black_box(cell.run_in(&mut arena));
        }
    }
    Some((workload, arena, started.elapsed().as_secs_f64()))
}
