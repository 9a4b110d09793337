//! The controller axis of a scenario matrix.
//!
//! This lived in `lbica-bench` while the evaluation was hard-wired to the
//! paper's 3 × 3 grid; it moved here so that every layer that enumerates
//! scenarios (the sweep subsystem, the figure harness, the benches) shares
//! one definition.

use lbica_core::{LbicaController, SibController, WbController};
use lbica_sim::CacheController;

/// Which controller to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerKind {
    /// The write-back baseline.
    Wb,
    /// Selective I/O Bypass.
    Sib,
    /// The paper's contribution.
    Lbica,
    /// LBICA with the tier-aware actions enabled (per-tier policy
    /// overrides + Group-2 read-tail spilling); identical to
    /// [`ControllerKind::Lbica`] on flat configurations.
    LbicaTier,
}

impl ControllerKind {
    /// The paper's three schemes, in the order the paper plots them — the
    /// default controller axis. [`ControllerKind::LbicaTier`] is opt-in
    /// (the tiered-policy matrices add it explicitly) so every historical
    /// matrix keeps its exact cell set.
    pub const ALL: [ControllerKind; 3] =
        [ControllerKind::Wb, ControllerKind::Sib, ControllerKind::Lbica];

    /// The scheme's display label.
    pub const fn label(self) -> &'static str {
        match self {
            ControllerKind::Wb => "WB",
            ControllerKind::Sib => "SIB",
            ControllerKind::Lbica => "LBICA",
            ControllerKind::LbicaTier => "LBICA-T",
        }
    }

    /// Builds a fresh controller of this kind.
    pub fn build(self) -> Box<dyn CacheController + Send> {
        match self {
            ControllerKind::Wb => Box::new(WbController::new()),
            ControllerKind::Sib => Box::new(SibController::new()),
            ControllerKind::Lbica => Box::new(LbicaController::new()),
            ControllerKind::LbicaTier => Box::new(LbicaController::tier_aware()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_built_controller_names() {
        for kind in
            ControllerKind::ALL.into_iter().chain(std::iter::once(ControllerKind::LbicaTier))
        {
            assert_eq!(kind.build().name(), kind.label());
        }
    }

    #[test]
    fn all_lists_the_paper_schemes_only() {
        assert_eq!(ControllerKind::ALL.len(), 3);
        assert!(ControllerKind::ALL.contains(&ControllerKind::Wb));
        assert!(ControllerKind::ALL.contains(&ControllerKind::Sib));
        assert!(ControllerKind::ALL.contains(&ControllerKind::Lbica));
        assert!(!ControllerKind::ALL.contains(&ControllerKind::LbicaTier));
    }
}
