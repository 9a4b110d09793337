//! The arena-reuse determinism contract, pinned end to end: a run drawing
//! its simulated system from a [`SimArena`] that already holds a previous
//! run's state must be **byte-identical** to a fresh-state run — same
//! report, same figures CSV, same chrome-trace snapshot — for flat and
//! tiered configs, serially and under `--jobs 8`. The same holds for a run
//! that decodes its arrivals from the arena's stream memo, and a sweep
//! through one arena generates each stream once per group.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use lbica_lab::{
    derive_seed, ControllerKind, CsvSink, JsonSink, Scenario, ScenarioMatrix, SweepExecutor,
};
use lbica_obs::SimObserver;
use lbica_sim::{SimArena, SimulationConfig, SimulationReport};
use lbica_trace::gen::PatternSpec;
use lbica_trace::workload::{
    BurstPhase, PhaseIntensity, WorkloadKind, WorkloadScale, WorkloadSpec,
};

fn workload(which: usize) -> WorkloadSpec {
    let scale = WorkloadScale::tiny();
    match which {
        0 => WorkloadSpec::tpcc_scaled(scale),
        1 => WorkloadSpec::mail_server_scaled(scale),
        _ => WorkloadSpec::web_server_scaled(scale),
    }
}

fn controller(which: usize) -> ControllerKind {
    match which {
        0 => ControllerKind::Wb,
        1 => ControllerKind::Sib,
        _ => ControllerKind::Lbica,
    }
}

fn config(tiered: bool) -> (&'static str, SimulationConfig) {
    if tiered {
        ("tiny-2t", SimulationConfig::tiny_two_tier())
    } else {
        ("tiny", SimulationConfig::tiny())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A reused arena's second (and third) run of a cell reproduces the
    /// fresh-state report and trace snapshot bit for bit.
    #[test]
    fn arena_reused_runs_are_byte_identical_to_fresh_runs(
        wl in 0usize..3,
        ctrl in 0usize..3,
        seed in 0u64..4,
        tiered in prop_oneof![Just(false), Just(true)],
    ) {
        let spec = workload(wl);
        let (label, cfg) = config(tiered);
        let stream = derive_seed(spec.name(), label, seed);
        let cell = Scenario::new(spec, label, cfg, controller(ctrl), seed, stream);

        let fresh = cell.run();
        let (fresh_observed, fresh_obs) = cell.run_observed(SimObserver::new());
        prop_assert_eq!(&fresh, &fresh_observed);
        let fresh_trace = fresh_obs.render_chrome_trace("cell");

        let mut arena = SimArena::new();
        let first = cell.run_in(&mut arena);   // builds fresh, stores
        let second = cell.run_in(&mut arena);  // reset + reuse
        prop_assert_eq!(&fresh, &first);
        prop_assert_eq!(&fresh, &second, "arena-reused report diverged");

        let (observed, obs) = cell.run_observed_in(SimObserver::new(), &mut arena);
        prop_assert_eq!(&fresh, &observed, "arena-reused observed report diverged");
        prop_assert_eq!(
            fresh_trace,
            obs.render_chrome_trace("cell"),
            "arena-reused trace snapshot diverged"
        );
    }

    /// Whole-sweep check across a flat + tiered matrix: the per-worker
    /// arenas inside the executor change nothing — serial and `--jobs 8`
    /// sweeps render identical figures CSV and JSON.
    #[test]
    fn sweep_figures_are_identical_serial_and_jobs_8(
        wl in 0usize..3,
        seed in 0u64..4,
    ) {
        let matrix = ScenarioMatrix::new()
            .with_workloads(vec![workload(wl)])
            .with_seeds(vec![seed])
            .push_config("tiny", SimulationConfig::tiny())
            .push_config("tiny-2t", SimulationConfig::tiny_two_tier());

        let serial = SweepExecutor::serial().aggregate(&matrix);
        let jobs8 = SweepExecutor::new(8).aggregate(&matrix);
        prop_assert_eq!(&serial, &jobs8);
        prop_assert_eq!(CsvSink::render(&serial), CsvSink::render(&jobs8));
        prop_assert_eq!(JsonSink::render(&serial), JsonSink::render(&jobs8));
    }
}

/// A two-tenant mix whose tenants issue 1- and 2-block requests, so its
/// intervals mix request lengths and its stream never enters the memo.
fn mixed_length_tenants() -> WorkloadSpec {
    let scale = WorkloadScale::tiny();
    let narrow = WorkloadSpec::synthetic_scaled("narrow", scale, 0.5);
    let wide = WorkloadSpec::new("wide", WorkloadKind::Custom, scale.interval_us).push_phase(
        BurstPhase::new(
            "wide",
            narrow.total_intervals(),
            scale.base_iops,
            PatternSpec::Mixed { read_fraction: 0.5, working_set_blocks: scale.cache_blocks },
            PhaseIntensity::Moderate,
        )
        .with_request_blocks(2),
    );
    WorkloadSpec::multi_tenant("mixed-lengths", 2, scale.cache_blocks * 4, vec![narrow, wide])
}

/// How a cell's stream meets the memo: it packs under a (workload, stream
/// seed) key, it does not pack (the tenant mix, whose run empties the
/// memo), or it is a replay (whose run leaves the memo alone).
#[derive(Clone, Copy, PartialEq, Debug)]
enum Stream {
    Packs(usize, u64),
    Unpacked,
    Replay,
}

/// The cells the memo sequences draw from: two synthetic workloads under
/// derived and literal seeds on flat and tiered configs, a replay, and the
/// mixed-length tenant mix.
fn memo_pool() -> Vec<(Scenario, Stream)> {
    let scale = WorkloadScale::tiny();
    let mut pool = Vec::new();
    for (w, spec) in [WorkloadSpec::tpcc_scaled(scale), WorkloadSpec::mail_server_scaled(scale)]
        .into_iter()
        .enumerate()
    {
        for tiered in [false, true] {
            let (label, cfg) = config(tiered);
            for ctrl in [ControllerKind::Wb, ControllerKind::Lbica] {
                // Derived: one stream per (workload, config, seed).
                let derived = derive_seed(spec.name(), label, 1);
                let cell = Scenario::new(spec.clone(), label, cfg, ctrl, 1, derived);
                pool.push((cell, Stream::Packs(w, derived)));
                // Literal: flat and tiered share the stream.
                let cell = Scenario::new(spec.clone(), label, cfg, ctrl, 7, 7);
                pool.push((cell, Stream::Packs(w, 7)));
            }
        }
    }
    let synthetic = WorkloadSpec::synthetic_scaled("replayed", scale, 0.3);
    let replay = WorkloadSpec::replay("replayed", scale.interval_us, synthetic.generate_all(3));
    let (label, cfg) = config(false);
    pool.push((Scenario::new(replay, label, cfg, ControllerKind::Lbica, 0, 0), Stream::Replay));
    let mix = mixed_length_tenants();
    let seed = derive_seed(mix.name(), label, 0);
    pool.push((Scenario::new(mix, label, cfg, ControllerKind::Wb, 0, seed), Stream::Unpacked));
    pool
}

/// Runs `picks` of `pool` through one arena and checks every report
/// against a fresh-state run, and the arena's generation count against a
/// one-entry model of the memo.
fn run_memo_sequence(pool: &[(Scenario, Stream)], picks: &[usize]) {
    let mut fresh: HashMap<usize, SimulationReport> = HashMap::new();
    let mut arena = SimArena::new();
    let mut memo: Option<(usize, u64)> = None;
    let mut generated = 0;
    for (step, &pick) in picks.iter().enumerate() {
        let (cell, stream) = &pool[pick];
        match *stream {
            Stream::Packs(w, seed) if memo == Some((w, seed)) => {}
            Stream::Packs(w, seed) => {
                memo = Some((w, seed));
                generated += 1;
            }
            Stream::Unpacked => {
                memo = None;
                generated += 1;
            }
            Stream::Replay => {}
        }
        let report = cell.run_in(&mut arena);
        let expected = fresh.entry(pick).or_insert_with(|| cell.run());
        assert_eq!(*expected, report, "step {step} ({}) diverged", cell.id());
        assert_eq!(arena.streams_generated(), generated, "step {step} ({})", cell.id());
    }
}

#[test]
fn memo_sequence_with_repeats_a_b_a_replays_and_unpacked_mixes() {
    let pool = memo_pool();
    let replay = pool.len() - 2;
    let mix = pool.len() - 1;
    // 0/2: tpcc derived flat, WB/LBICA (one stream); 4: tpcc derived
    // tiered (another); 1/3/5: tpcc literal, flat and tiered (one stream);
    // 8: mail derived flat.
    let picks = [0, 2, 0, 4, 0, 1, 5, 3, replay, 3, mix, mix, 1, 8, replay, 8, mix, 0];
    run_memo_sequence(&pool, &picks);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any sequence of cells through one arena reproduces each cell's
    /// fresh-state report, whether its stream was generated or decoded.
    #[test]
    fn memoized_runs_are_byte_identical_to_fresh_runs(
        picks in proptest::collection::vec(0usize..18, 4..12),
    ) {
        let pool = memo_pool();
        prop_assert_eq!(pool.len(), 18);
        run_memo_sequence(&pool, &picks);
    }
}

/// The distinct (workload, stream seed) pairs of `matrix`.
fn distinct_streams(matrix: &ScenarioMatrix) -> u64 {
    let streams: BTreeSet<(String, u64)> =
        matrix.cells().map(|c| (c.workload().name().to_string(), c.stream_seed())).collect();
    streams.len() as u64
}

#[test]
fn a_sweep_through_one_arena_generates_each_stream_once() {
    let scale = WorkloadScale::tiny();
    let literal = ScenarioMatrix::paper_tiered(scale, SimulationConfig::tiny(), 0x1b1c_a000);
    let derived = ScenarioMatrix::new()
        .push_workload(WorkloadSpec::web_server_scaled(scale))
        .push_config("tiny", SimulationConfig::tiny())
        .push_config("tiny-2t", SimulationConfig::tiny_two_tier())
        .with_controllers(&[ControllerKind::Wb, ControllerKind::LbicaTier])
        .with_seed_range(2);
    for (matrix, streams) in [(literal, 3), (derived, 4)] {
        assert_eq!(distinct_streams(&matrix), streams);
        let mut arena = SimArena::new();
        let reports: Vec<SimulationReport> = matrix.cells().map(|c| c.run_in(&mut arena)).collect();
        assert_eq!(arena.streams_generated(), streams);
        assert_eq!(reports, SweepExecutor::new(2).run(&matrix));

        // The first and last groups differ, so a second pass through the
        // same arena misses on its first cell and generates every stream
        // again.
        let first = matrix.cell(0).unwrap();
        let last = matrix.cell(matrix.len() - 1).unwrap();
        let key = |c: &Scenario| (c.workload().name().to_string(), c.stream_seed());
        assert_ne!(key(&first), key(&last));
        for cell in matrix.cells() {
            cell.run_in(&mut arena);
        }
        assert_eq!(arena.streams_generated(), 2 * streams);
    }
}
