//! The pre-optimization explorer, preserved verbatim as a benchmark
//! baseline and differential-testing oracle.
//!
//! This is the PR 2 inner loop: sequential depth-first search, a full
//! `State` clone (including the O(depth) decision and output vectors) per
//! branch, a per-(state, process) `choices` vector, and a single
//! `HashMap` seen-table — parametrized over [`StateHasher`] only so
//! `exp_explore_bench` can separate the two optimization axes
//! (string key → fingerprint vs. clone → shared-prefix).
//!
//! Not public API: it exists so the speedup claimed in
//! `BENCH_explore.json` is measured against the real former code rather
//! than a remembered approximation, and so tests can differentially check
//! [`crate::explore()`] against an independent implementation. It is
//! `#[doc(hidden)]` and may disappear once the trajectory has enough
//! history.

use crate::explore::{
    ExploreConfig, ExploreDecision, ExploreReport, ExploreViolation, StateHasher,
};
use crate::failure::FailurePattern;
use crate::id::{ProcessId, Time};
use crate::oracle::FdOracle;
use crate::protocol::{Ctx, Protocol};
use std::collections::HashMap;
use std::fmt::Debug;

#[derive(Clone)]
struct State<P: Protocol> {
    procs: Vec<P>,
    inboxes: Vec<Vec<(ProcessId, P::Msg)>>,
    started: Vec<bool>,
    pending_inv: Vec<Option<P::Inv>>,
    outputs: Vec<(ProcessId, P::Output)>,
    depth: usize,
    decisions: Vec<ExploreDecision>,
}

fn apply_step<P, D>(
    state: &State<P>,
    p: ProcessId,
    choice: Option<usize>,
    pattern: &FailurePattern,
    detector: &mut D,
    n: usize,
) -> State<P>
where
    P: Protocol + Clone,
    D: FdOracle<Value = P::Fd>,
{
    let t = state.depth as Time;
    let mut next = state.clone();
    next.depth += 1;
    let fd = detector.query(p, t);
    let mut ctx = Ctx::<P>::detached(p, n, t, fd);
    if !next.started[p.index()] {
        next.started[p.index()] = true;
        next.decisions.push((p, None));
        next.procs[p.index()].on_start(&mut ctx);
        if let Some(inv) = next.pending_inv[p.index()].take() {
            next.procs[p.index()].on_invoke(&mut ctx, inv);
        }
    } else {
        let inbox_len = next.inboxes[p.index()].len();
        match choice {
            Some(i) if inbox_len > 0 => {
                let i = i.min(inbox_len - 1);
                next.decisions.push((p, Some(i)));
                let (from, msg) = next.inboxes[p.index()].remove(i);
                next.procs[p.index()].on_message(&mut ctx, from, msg);
            }
            _ => {
                next.decisions.push((p, None));
                next.procs[p.index()].on_tick(&mut ctx);
            }
        }
    }
    for (to, msg) in ctx.take_sends() {
        if !pattern.is_crashed(to, t) {
            next.inboxes[to.index()].push((p, msg));
        }
    }
    for out in ctx.take_outputs() {
        next.outputs.push((p, out));
    }
    next
}

fn initial_state<P: Protocol>(procs: Vec<P>, invocations: Vec<Option<P::Inv>>) -> State<P> {
    let n = procs.len();
    assert_eq!(invocations.len(), n, "one invocation slot per process");
    State {
        procs,
        inboxes: vec![Vec::new(); n],
        started: vec![false; n],
        pending_inv: invocations,
        outputs: Vec::new(),
        depth: 0,
        decisions: Vec::new(),
    }
}

/// The PR 2 exploration loop, byte-for-byte — sequential DFS with
/// full-clone branching — except that the dedup key comes from `hasher`.
/// Only [`ExploreConfig::max_depth`], [`ExploreConfig::max_states`] and
/// [`ExploreConfig::dedup`] are honored (the loop predates the other
/// knobs); the report's observability counters are filled in so it can be
/// compared against [`crate::explore()`]'s with `==`.
pub fn explore_baseline<H, P, D>(
    cfg: ExploreConfig,
    hasher: H,
    make_procs: impl Fn() -> Vec<P>,
    invocations: Vec<Option<P::Inv>>,
    pattern: &FailurePattern,
    mut detector: D,
    mut safety: impl FnMut(&[P], &[(ProcessId, P::Output)]) -> Result<(), String>,
) -> ExploreReport
where
    H: StateHasher,
    P: Protocol + Clone + Debug,
    D: FdOracle<Value = P::Fd>,
{
    let root = initial_state(make_procs(), invocations);
    let n = root.procs.len();

    let mut seen: HashMap<H::Key, usize> = HashMap::new();
    let mut stack = vec![root];
    let mut states_visited = 0usize;
    let mut depth_bounded = false;
    let mut states_capped = false;
    let mut dedup_hits = 0usize;
    let mut max_frontier_len = 0usize;

    let violation = loop {
        max_frontier_len = max_frontier_len.max(stack.len());
        let Some(state) = stack.pop() else { break None };
        if states_visited >= cfg.max_states {
            states_capped = true;
            break None;
        }
        if cfg.dedup {
            let key = hasher.key(&state.procs, &state.inboxes, &state.started, &state.outputs);
            match seen.get_mut(&key) {
                Some(prev_depth) if *prev_depth <= state.depth => {
                    dedup_hits += 1;
                    continue;
                }
                Some(prev_depth) => *prev_depth = state.depth,
                None => {
                    seen.insert(key, state.depth);
                }
            }
        }
        states_visited += 1;

        if let Err(message) = safety(&state.procs, &state.outputs) {
            break Some(ExploreViolation {
                message,
                decisions: state.decisions,
            });
        }
        if state.depth >= cfg.max_depth {
            depth_bounded = true;
            continue;
        }

        let t = state.depth as Time;
        for p in ProcessId::all(n) {
            if pattern.is_crashed(p, t) {
                continue;
            }
            let choices: Vec<Option<usize>> =
                if !state.started[p.index()] || state.inboxes[p.index()].is_empty() {
                    vec![None]
                } else {
                    (0..state.inboxes[p.index()].len()).map(Some).collect()
                };
            for choice in choices {
                stack.push(apply_step(&state, p, choice, pattern, &mut detector, n));
            }
        }
    };

    ExploreReport {
        states_visited,
        depth_bounded,
        states_capped,
        violation,
        dedup_entries: seen.len(),
        dedup_hits,
        max_frontier_len,
        states_pruned_dpor: 0,
        symmetry_canonical_hits: 0,
        reduction_enabled: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_custom, ExactKeyHasher};
    use crate::oracle::NoDetector;

    /// Relays a hop-counted token; outputs every payload received.
    #[derive(Clone, Debug)]
    struct Relay;

    impl Protocol for Relay {
        type Msg = u8;
        type Output = u8;
        type Inv = u8;
        type Fd = ();

        fn on_invoke(&mut self, ctx: &mut Ctx<Self>, hops: u8) {
            ctx.broadcast_others(hops);
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, hops: u8) {
            ctx.output(hops);
            if hops > 0 {
                ctx.broadcast_others(hops - 1);
            }
        }
    }

    /// The optimized explorer at batch 1 with exact keys must
    /// reproduce the historical loop *exactly* — the differential anchor
    /// that ties the new code to PR 2 semantics.
    #[test]
    fn optimized_explorer_matches_the_baseline_bit_for_bit() {
        for (plant, depth) in [(false, 7), (true, 7), (false, 5)] {
            let safety = move |_: &[Relay], outputs: &[(ProcessId, u8)]| {
                if plant && outputs.iter().filter(|(_, h)| *h == 0).count() >= 2 {
                    Err("two zero-hop deliveries".to_string())
                } else {
                    Ok(())
                }
            };
            let mk = || vec![Relay, Relay];
            let inv = vec![Some(2), None];
            let pattern = FailurePattern::failure_free(2);
            let old = explore_baseline(
                ExploreConfig::new(depth),
                ExactKeyHasher,
                mk,
                inv.clone(),
                &pattern,
                NoDetector,
                safety,
            );
            let new = explore_custom(
                ExploreConfig::new(depth).with_batch(1),
                ExactKeyHasher,
                mk,
                inv,
                &pattern,
                NoDetector,
                safety,
            );
            assert_eq!(old, new, "plant={plant} depth={depth}");
        }
    }
}
