//! A frozen reference kernel that measures how fast the host runs right
//! now, so that pass times can be reported in reference seconds.
//!
//! Shared hosts change speed by tens of percent over seconds to minutes,
//! and the thread's CPU time slows with its wall time, so neither is a
//! steady measure of the program. The benchmark therefore times this
//! kernel between cells and reports each pass as
//! `pass wall / kernel wall × NOMINAL_S`: the wall time the pass would have
//! taken had the kernel run at its nominal speed. The kernel sorts
//! pseudo-random keys (branchy compares over a working set larger than the
//! L1 cache), which on the development host tracks the simulator's
//! slowdowns far better than a table walk or a heap. It depends on nothing
//! in the repository, so no change to the program under test can move it.
//! Do not change it: that rescales every reported time.

use std::time::Instant;

/// Wall seconds one kernel run takes at nominal host speed (its median on
/// the 2-core development container, a Xeon at 2.1 GHz, in its fast state).
pub const NOMINAL_S: f64 = 0.001;

const KEYS: usize = 50_000;

pub struct Calibrator {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    /// Kernel runs and their wall seconds since the last `reference`.
    runs: u32,
    spent: f64,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let keys = (0..KEYS)
            .map(|_| {
                x = splitmix64(x);
                x
            })
            .collect();
        Calibrator { keys, scratch: Vec::with_capacity(KEYS), runs: 0, spent: 0.0 }
    }

    /// Runs the kernel once, adding its wall time to the running total.
    pub fn run(&mut self) {
        let started = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.keys);
        self.scratch.sort_unstable();
        std::hint::black_box(self.scratch[KEYS / 2]);
        self.spent += started.elapsed().as_secs_f64();
        self.runs += 1;
    }

    /// Converts `wall` seconds, measured while the kernel runs since the
    /// last call were interleaved with it, to reference seconds; then
    /// starts a new sample.
    pub fn reference(&mut self, wall: f64) -> f64 {
        assert!(self.runs > 0, "the kernel must run alongside the measured work");
        let nominal = NOMINAL_S * f64::from(self.runs);
        let scaled = wall * nominal / self.spent;
        self.runs = 0;
        self.spent = 0.0;
        scaled
    }
}

fn splitmix64(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}
