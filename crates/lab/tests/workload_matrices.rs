//! Determinism and paper-property tests of the realistic-workload
//! matrices: multi-tenant interleaves are `--jobs`-invariant,
//! the new workload axes keep per-coordinate stream seeds unique, the
//! tenant axis survives reordering, and Zipfian skew buys hit rate.

use std::collections::{BTreeMap, BTreeSet};

use lbica_lab::{
    derive_seed, tenant_rows, CsvSink, JsonSink, ScenarioMatrix, SweepExecutor, TenantRow,
};
use lbica_sim::{Simulation, SimulationConfig, StaticPolicyController};
use lbica_trace::workload::{WorkloadScale, WorkloadSpec};

#[test]
fn multi_tenant_sweep_is_jobs_invariant() {
    let matrix = ScenarioMatrix::multi_tenant();
    let serial = SweepExecutor::serial().aggregate(&matrix).with_tenant_rows(&matrix);
    let parallel = SweepExecutor::new(8).aggregate(&matrix).with_tenant_rows(&matrix);
    assert_eq!(serial, parallel);
    assert_eq!(CsvSink::render(&serial), CsvSink::render(&parallel), "CSV bytes differ");
    assert_eq!(JsonSink::render(&serial), JsonSink::render(&parallel), "JSON bytes differ");
}

fn tenant_mixes(reverse: bool) -> Vec<WorkloadSpec> {
    let scale = WorkloadScale::tiny();
    let mut specs: Vec<WorkloadSpec> = [1u32, 2, 4]
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
    if reverse {
        specs.reverse();
    }
    specs
}

#[test]
fn tenant_axis_reordering_keeps_stream_seeds_and_tenant_rows() {
    let build = |reverse| {
        ScenarioMatrix::new()
            .with_workloads(tenant_mixes(reverse))
            .push_config("tiny", SimulationConfig::tiny())
            .with_seeds(vec![0, 1])
    };
    let forward = build(false);
    let reversed = build(true);
    let seeds = |m: &ScenarioMatrix| -> BTreeMap<String, u64> {
        m.cells().map(|c| (c.id(), c.stream_seed())).collect()
    };
    assert_eq!(seeds(&forward), seeds(&reversed));
    // Tenant rows are keyed by coordinates too: reordering the axis only
    // permutes the row order, never the row contents.
    let keyed =
        |m: &ScenarioMatrix| -> BTreeSet<TenantRow> { tenant_rows(m).into_iter().collect() };
    assert_eq!(keyed(&forward), keyed(&reversed));
}

#[test]
fn new_matrix_axes_keep_stream_seeds_unique_per_triple() {
    for (name, matrix) in [
        ("zipf", ScenarioMatrix::zipf()),
        ("diurnal", ScenarioMatrix::diurnal()),
        ("multi-tenant", ScenarioMatrix::multi_tenant()),
        ("paper-mt", ScenarioMatrix::paper_mt()),
    ] {
        let triples: BTreeSet<(String, String, u64)> = matrix
            .cells()
            .map(|c| (c.workload().name().to_string(), c.config_label().to_string(), c.seed()))
            .collect();
        let seeds: BTreeSet<u64> = matrix.cells().map(|c| c.stream_seed()).collect();
        assert_eq!(
            seeds.len(),
            triples.len(),
            "matrix `{name}`: distinct (workload, config, seed) triples must \
             draw distinct stream seeds"
        );
    }
}

#[test]
fn zipfian_skew_monotonically_improves_read_hit_rate() {
    // The zipf matrix's paper property: concentrating block popularity on
    // a fixed-size cache raises the read hit rate. One seed, one config,
    // WB policy — only the skew moves.
    let scale = WorkloadScale::tiny();
    let mut rates = Vec::new();
    for skew in [0u32, 600, 1200] {
        let spec = WorkloadSpec::zipfian_scaled(format!("zipf-{skew}"), scale, skew);
        let seed = derive_seed("zipf-hit-rate", "tiny", 0);
        let report = Simulation::new(SimulationConfig::tiny(), spec, seed)
            .run(&mut StaticPolicyController::write_back());
        let s = report.cache_stats;
        let reads = s.read_hits + s.read_misses;
        assert!(reads > 0, "skew {skew} issued no reads");
        rates.push(s.read_hits as f64 / reads as f64);
    }
    assert!(rates[0] < rates[1] && rates[1] < rates[2], "hit rate not monotone in skew: {rates:?}");
}
