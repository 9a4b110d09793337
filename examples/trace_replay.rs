//! Capture a synthetic burst trace to disk in the text format, read it back
//! and replay it through the storage system under two different static
//! cache policies — the workflow a storage engineer would use with real
//! `blktrace` captures.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use std::error::Error;
use std::fs::File;
use std::io::BufReader;

use lbica::cache::WritePolicy;
use lbica::sim::StorageSystem;
use lbica::sim::{Simulation, SimulationConfig, StaticPolicyController};
use lbica::storage::time::SimTime;
use lbica::trace::io::{import_text_trace, write_text_trace};
use lbica::trace::workload::{WorkloadScale, WorkloadSpec};

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Generate a burst trace from the web-server spec and store it in the
    //    one-line-per-request text format.
    let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
    let records = spec.generate_all(123);
    let path = std::env::temp_dir().join("lbica_web_server.trace");
    write_text_trace(File::create(&path)?, &records)?;
    println!("captured {} requests to {}", records.len(), path.display());

    // 2. Read the trace back with the importer, the same reader that takes
    //    external blktrace-style and CSV captures.
    let replayed = import_text_trace(BufReader::new(File::open(&path)?))?;
    assert_eq!(replayed, records, "the text round trip is lossless");

    // 3. Replay it directly through a StorageSystem under two policies.
    for policy in [WritePolicy::WriteBack, WritePolicy::ReadOnly] {
        let mut system = StorageSystem::new(&SimulationConfig::tiny());
        system.set_policy(policy);
        for record in &replayed {
            system.schedule_record(record);
        }
        let end = SimTime::from_micros(spec.total_duration_us() + 5_000_000);
        system.run_until(end);
        println!(
            "replay under {policy}: {} requests completed, avg latency {} us, \
             cache served {:.1}% of reads",
            system.app_completed(),
            system.app_avg_latency_us(),
            system.cache().stats().read_hit_ratio() * 100.0
        );
    }

    // 4. The same trace can also drive the full interval-by-interval
    //    simulation with a pinned policy.
    let report = Simulation::new(SimulationConfig::tiny(), spec, 123)
        .run(&mut StaticPolicyController::new(WritePolicy::WriteBack));
    println!(
        "interval-driven WB replay: {} intervals, avg cache load {:.0} us",
        report.intervals.len(),
        report.avg_cache_load_us()
    );
    Ok(())
}
