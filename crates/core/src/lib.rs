//! LBICA — the load balancer for I/O cache architectures.
//!
//! This crate is the paper's primary contribution, reproduced on top of the
//! workspace's simulation substrate. Fig. 2 of the paper decomposes LBICA
//! into three procedures, and the module layout mirrors it exactly:
//!
//! 1. [`detector`] — **bottleneck detection**: compares the maximum queue
//!    time of the I/O cache and the disk subsystem
//!    (`Qtime = QSize × latency`, Eq. 1) and flags burst intervals where
//!    the cache has become the bottleneck;
//! 2. [`characterizer`] — **workload characterization**: classifies the
//!    running workload from the R/W/P/E class mix of the requests in the
//!    cache queue into the paper's Groups 1–4 (random read, mixed
//!    read/write, write intensive, sequential read);
//! 3. [`balancer`] — **load balancing**: maps the detected group onto an
//!    effective cache write policy (Group 1 → WO, Group 2 → RO,
//!    Groups 3/4 → WB) and, for write-intensive bursts, bypasses the tail
//!    of the cache queue to the disk subsystem.
//!
//! [`tier`] generalizes step 3 to multi-SSD cache hierarchies: the
//! [`tier::SpillPlanner`] decides, over the per-tier load vector, whether a
//! reclassified queue tail spills to a lower cache level or bypasses all
//! the way to the disk (the *spill chain*). Write tails spill on Group-3
//! bursts; with [`LbicaController::tier_aware`] the Group-2 read tail
//! spills too (reads never fall through to the disk) and the burst
//! group's policy is scoped to the hot tier.
//!
//! [`controller::LbicaController`] glues the three together behind the
//! simulator's [`lbica_sim::CacheController`] interface. The comparison
//! points of the evaluation — the plain write-back cache and SIB, the
//! selective I/O bypass scheme of Kim et al. — live in [`baseline`].
//! [`analysis`] computes the aggregate numbers the paper quotes (average
//! load reduction, latency improvement).
//!
//! # Example
//!
//! ```
//! use lbica_core::LbicaController;
//! use lbica_sim::{Simulation, SimulationConfig};
//! use lbica_trace::workload::{WorkloadScale, WorkloadSpec};
//!
//! let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
//! let mut sim = Simulation::new(SimulationConfig::tiny(), spec, 1);
//! let report = sim.run(&mut LbicaController::new());
//! assert_eq!(report.controller, "LBICA");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod balancer;
pub mod baseline;
pub mod characterizer;
pub mod controller;
pub mod detector;
pub mod history;
pub mod tier;

pub use analysis::{percent_reduction, HeadlineSummary, WorkloadComparison};
pub use balancer::{BalancingAction, LoadBalancer, PolicyMap};
pub use baseline::{SibConfig, SibController, WbController};
pub use characterizer::{RequestMix, WorkloadCharacterizer, WorkloadGroup};
pub use controller::{LbicaConfig, LbicaController};
pub use detector::{BottleneckDetector, BottleneckVerdict};
pub use history::{DecisionLog, DecisionRecord};
pub use tier::{SpillPlan, SpillPlanner, SpillTarget};
