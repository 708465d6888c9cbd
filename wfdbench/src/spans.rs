//! Span timers and counts for the traced run, recorded from the
//! benchmark's side of each layer boundary.
//!
//! With tracing off, [`Spans::time`] calls straight through: the untraced
//! run reads no clock inside a unit.

use std::time::Instant;
use wfd_sim::Obs;

/// A span the benchmark opens around a call into one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `Sim::run` / `Sim::run_until`.
    Engine,
    /// `history_from_outputs` and `op_history_from_trace`.
    History,
    /// The spec checkers (`check_psi`, `check_sigma`, `check_consensus`,
    /// `check_qc`, `check_nbac`).
    Check,
    /// `check_linearizable`.
    Linearizability,
    /// `explore`.
    Explore,
    /// `check_liveness`.
    Liveness,
    /// `Replay::run` / `Replay::run_fair` outside the shrinker.
    Replay,
    /// `shrink`, predicate calls included.
    Shrink,
    /// `Repro::to_json` plus `Repro::from_json`.
    ReproJson,
}

impl Span {
    const COUNT: usize = 9;
}

/// Counts gathered from the sims and reports of traced units.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub engine_steps: u64,
    pub engine_messages_delivered: u64,
    pub explore_states: u64,
    pub explore_entries: u64,
    pub explore_hits: u64,
    pub explore_dpor: u64,
    pub explore_symmetry: u64,
    pub liveness_states: u64,
    pub liveness_edges: u64,
    pub liveness_product: u64,
    pub shrink_calls: u64,
}

/// Span totals for one run mode.
pub struct Spans {
    on: bool,
    /// The metric store handed to the forests and the explorer of traced
    /// units (off when tracing is off).
    pub obs: Obs,
    ns: [u64; Span::COUNT],
    pub counts: Counts,
}

impl Spans {
    /// Tracing off: no clocks, no metrics.
    pub fn off() -> Self {
        Spans {
            on: false,
            obs: Obs::off(),
            ns: [0; Span::COUNT],
            counts: Counts::default(),
        }
    }

    /// Tracing on, reporting into a fresh metric store.
    pub fn on() -> Self {
        Spans {
            on: true,
            obs: Obs::on(),
            ..Spans::off()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f`, charging its wall-clock time to `span` when tracing is on.
    pub fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.ns[span as usize] += started.elapsed().as_nanos() as u64;
        out
    }

    /// Total nanoseconds charged to `span`.
    pub fn ns(&self, span: Span) -> u64 {
        self.ns[span as usize]
    }
}
