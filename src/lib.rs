//! # weakest-failure-detectors
//!
//! Facade crate for the executable reproduction of Delporte-Gallet,
//! Fauconnier, Guerraoui, Hadzilacos, Kouznetsov, Toueg — *"The Weakest
//! Failure Detectors to Solve Certain Fundamental Problems in Distributed
//! Computing"* (PODC 2004).
//!
//! Re-exports the whole workspace under stable module names:
//!
//! * [`sim`] — the asynchronous message-passing model (processes, crash
//!   failure patterns, environments, schedulers, traces).
//! * [`detectors`] — failure detector values, oracles (Ω, Σ, FS, Ψ, …),
//!   message-passing implementations and spec checkers.
//! * [`registers`] — atomic registers from Σ (ABD), the majority baseline,
//!   linearizability checking, and the Figure 1 Σ-extraction.
//! * [`consensus`] — consensus from (Ω, Σ), the register-based Ω algorithm,
//!   the Chandra–Toueg baseline, and the multivalued transformation.
//! * [`quittable`] — quittable consensus and the Figure 2 Ψ algorithm.
//! * [`extraction`] — CHT-style machinery and the Figure 3 Ψ-extraction.
//! * [`nbac`] — non-blocking atomic commit and the Figure 4/5
//!   transformations.
//! * [`core`] — the reduction framework and executable theorem harnesses.
//!
//! See the repository README for a guided tour and `examples/` for runnable
//! entry points.

pub use wfd_consensus as consensus;
pub use wfd_core as core;
pub use wfd_detectors as detectors;
pub use wfd_extraction as extraction;
pub use wfd_nbac as nbac;
pub use wfd_quittable as quittable;
pub use wfd_registers as registers;
pub use wfd_sim as sim;

/// Convenience prelude re-exporting the most common types of the workspace.
///
/// One `use weakest_failure_detectors::prelude::*;` is enough to run
/// simulations, explorations and the executable theorems: it pulls in the
/// per-crate staples from [`wfd_core::prelude`] (protocols, detectors,
/// registers, consensus, the engine) plus the cross-crate entry points
/// every example needs — the bounded explorer and its builder
/// ([`explore`](wfd_sim::explore()), [`ExploreConfig`](wfd_sim::ExploreConfig)),
/// the liveness checker
/// ([`check_liveness`](wfd_sim::check_liveness()),
/// [`LivenessConfig`](wfd_sim::LivenessConfig), [`Ltl`](wfd_sim::Ltl)),
/// the machine-layer replay entry point, reduction switches, and
/// state-space diagrams ([`Replay`](wfd_sim::Replay),
/// [`ReductionConfig`](wfd_sim::ReductionConfig),
/// [`Diagram`](wfd_sim::Diagram)),
/// the observability layer
/// ([`Obs`](wfd_sim::Obs), [`EnvOverrides`](wfd_sim::EnvOverrides)), the
/// theorem harnesses ([`theorems`](wfd_core::theorems)), and the ABD
/// op-history helpers.
pub mod prelude {
    pub use wfd_core::prelude::*;
    pub use wfd_core::theorems::{self, RunSetup};
    pub use wfd_registers::abd::{op_history_from_trace, AbdOp};
    pub use wfd_sim::{
        check_liveness, explore, Diagram, DiagramConfig, EnvOverrides, ExploreConfig,
        LivenessConfig, LivenessReport, LivenessVerdict, Ltl, MetricsMode, NoDetector, Obs,
        ReductionConfig, Replay, TraceMode,
    };
}
