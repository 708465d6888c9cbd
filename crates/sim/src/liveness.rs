//! Temporal-property checking: LTL over the explorer's state graph.
//!
//! The bounded explorer answers safety questions ("no violation up to
//! depth 23"). This module answers *liveness* questions — "every fair
//! infinite run eventually decides", "the leader stabilizes" — over **all
//! fair infinite runs** of a finitized model:
//!
//! 1. **Formulas** are written in the [`Ltl`] AST over atomic
//!    propositions the protocol declares through
//!    [`Protocol::props`]/[`Protocol::eval_prop`].
//! 2. The *negation* of the formula is compiled to a Büchi automaton
//!    (GPVW expansion into a generalized automaton, then a counting
//!    degeneralization).
//! 3. A **fair state graph** is built whose infinite paths are exactly
//!    the engine's fair runs: the graph branches only over choices the
//!    engine's scheduler could make under its fairness forcing rules
//!    (`choose_actor` / `choose_message` in `engine.rs` — an overdue
//!    process is forced, an overdue front message is forced, otherwise
//!    any of the oldest `POLICY_WINDOW` messages or λ may be picked).
//!    Per-process step-gap counters and per-message ages are part of the
//!    node identity, so fairness is *structural*: no Büchi fairness
//!    constraints are needed, and every lasso found is a real fair run.
//! 4. The product of graph and automaton is searched for an **accepting
//!    lasso** by the CVWY nested depth-first search. A lasso (stem +
//!    cycle decision lists) is a replayable, shrinkable counterexample —
//!    it ships as a [`Repro`](crate::Repro) with
//!    [`ReproDecisions::Lasso`](crate::ReproDecisions::Lasso).
//!
//! # Finitization and its exactness
//!
//! The graph is finite because of four quotients, three of them exact:
//!
//! * **Step-gap counters** saturate nowhere: under the forcing rule a
//!   counter provably never exceeds `max_step_gap + n - 1` (an overdue
//!   process waits at most once for each process ahead of it, and the
//!   ahead-set only shrinks). A violated bound panics.
//! * **Message ages** saturate at `max_delay`: the engine forces the
//!   front message exactly when its age reaches the bound, so ages past
//!   the bound are behaviorally indistinguishable — an exact bisimulation
//!   quotient.
//! * **Time** advances with depth until [`LivenessConfig::t_stable`] and
//!   freezes there. This is exact when every crash happens at or before
//!   `t_stable` and the detector is stationary past it — both are
//!   validated (the latter by a spot check over a window).
//! * **Inbox capacity** ([`LivenessConfig::max_inbox`]) is the one lossy
//!   bound: edges that would overflow an inbox are dropped. Every
//!   remaining run is real, so `Violated` verdicts stand; a `Holds` over
//!   a truncated graph degrades to `Inconclusive`.
//!
//! # Symmetry
//!
//! With [`ReductionConfig::symmetry`](crate::ReductionConfig) on (via
//! [`LivenessConfig::reduction`]), nodes are canonicalized under the
//! scenario-preserving subgroup of [`Protocol::symmetry`] (the same
//! restriction the safety explorer applies). Propositions must then be
//! symmetric — invariant under the declared group — which is checked on
//! every canonicalization. The quotient preserves verdicts; to keep
//! counterexamples concrete, a violation found under symmetry is re-run
//! without it to extract the replayable lasso.
//!
//! # DPOR
//!
//! [`ReductionConfig::dpor`](crate::ReductionConfig) is **rejected** by
//! this checker at validation time rather than silently ignored:
//! sleep-set reduction is unsound for cycle detection without a cycle
//! proviso (an ignored transition may close the only accepting cycle),
//! and the fair graphs this checker targets are small enough not to
//! need it. A configuration sweep that flips the flag gets an explicit
//! error instead of a quietly identical verdict.

use crate::explore::{debug_fp, scenario_symmetry, SymPerm};
use crate::failure::FailurePattern;
use crate::id::{ProcessId, Time};
use crate::json::Json;
use crate::machine::{node_eq, ExploreDecision, FairMachine, LiveNode, ReductionConfig, State};
use crate::oracle::FdOracle;
use crate::protocol::{PropView, Protocol, SendBuf};
use std::collections::BTreeMap;
use std::fmt::{self, Debug, Display};

/// The most propositions a protocol may declare — valuations are packed
/// into a `u32` bitmask.
pub const MAX_PROPS: usize = 32;

// ---------------------------------------------------------------------------
// LTL formulas
// ---------------------------------------------------------------------------

/// A linear temporal logic formula over a protocol's declared atomic
/// propositions (referenced by name; see [`Protocol::props`]).
///
/// Build formulas with the combinator methods:
///
/// ```
/// use wfd_sim::liveness::Ltl;
/// // "the leader eventually stays agreed forever"
/// let f = Ltl::prop("leader-agreed").always().eventually();
/// assert_eq!(f.to_string(), "F(G(\"leader-agreed\"))");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ltl {
    /// Constant truth.
    True,
    /// Constant falsehood.
    False,
    /// An atomic proposition, by declared name.
    Prop(String),
    /// Negation.
    Not(Box<Ltl>),
    /// Conjunction.
    And(Box<Ltl>, Box<Ltl>),
    /// Disjunction.
    Or(Box<Ltl>, Box<Ltl>),
    /// Next: the argument holds one step from now.
    Next(Box<Ltl>),
    /// Until: the second argument eventually holds, and the first holds
    /// at every step before that.
    Until(Box<Ltl>, Box<Ltl>),
    /// Release: the dual of until — the second argument holds up to and
    /// including the step where the first holds (possibly forever).
    Release(Box<Ltl>, Box<Ltl>),
    /// Eventually (`F φ`).
    Eventually(Box<Ltl>),
    /// Always (`G φ`).
    Always(Box<Ltl>),
}

impl Ltl {
    /// The atomic proposition `name` (must appear in the checked
    /// protocol's [`Protocol::props`]).
    pub fn prop(name: &str) -> Ltl {
        Ltl::Prop(name.to_string())
    }

    /// `¬self`.
    #[allow(clippy::should_implement_trait)] // combinator naming, mirrors until/and
    pub fn not(self) -> Ltl {
        Ltl::Not(Box::new(self))
    }

    /// `self ∧ other`.
    pub fn and(self, other: Ltl) -> Ltl {
        Ltl::And(Box::new(self), Box::new(other))
    }

    /// `self ∨ other`.
    pub fn or(self, other: Ltl) -> Ltl {
        Ltl::Or(Box::new(self), Box::new(other))
    }

    /// `self → other`.
    pub fn implies(self, other: Ltl) -> Ltl {
        self.not().or(other)
    }

    /// `X self`.
    pub fn next(self) -> Ltl {
        Ltl::Next(Box::new(self))
    }

    /// `self U other`.
    pub fn until(self, other: Ltl) -> Ltl {
        Ltl::Until(Box::new(self), Box::new(other))
    }

    /// `self R other`.
    pub fn release(self, other: Ltl) -> Ltl {
        Ltl::Release(Box::new(self), Box::new(other))
    }

    /// `F self`.
    pub fn eventually(self) -> Ltl {
        Ltl::Eventually(Box::new(self))
    }

    /// `G self`.
    pub fn always(self) -> Ltl {
        Ltl::Always(Box::new(self))
    }
}

impl Display for Ltl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ltl::True => write!(f, "true"),
            Ltl::False => write!(f, "false"),
            Ltl::Prop(name) => write!(f, "\"{name}\""),
            Ltl::Not(a) => write!(f, "!{a}"),
            Ltl::And(a, b) => write!(f, "({a} & {b})"),
            Ltl::Or(a, b) => write!(f, "({a} | {b})"),
            Ltl::Next(a) => write!(f, "X({a})"),
            Ltl::Until(a, b) => write!(f, "({a} U {b})"),
            Ltl::Release(a, b) => write!(f, "({a} R {b})"),
            Ltl::Eventually(a) => write!(f, "F({a})"),
            Ltl::Always(a) => write!(f, "G({a})"),
        }
    }
}

// ---------------------------------------------------------------------------
// Negation normal form
// ---------------------------------------------------------------------------

/// A formula in negation normal form, with subformulas interned in an
/// arena (ids are arena indices). `F φ ≡ true U φ` and `G φ ≡ false R φ`
/// are rewritten away; negation survives only on propositions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Nf {
    True,
    False,
    Prop(u32),
    NProp(u32),
    And(u32, u32),
    Or(u32, u32),
    Next(u32),
    Until(u32, u32),
    Release(u32, u32),
}

#[derive(Default)]
struct Arena {
    nodes: Vec<Nf>,
    dedup: BTreeMap<Nf, u32>,
}

impl Arena {
    fn intern(&mut self, nf: Nf) -> u32 {
        if let Some(&id) = self.dedup.get(&nf) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(nf);
        self.dedup.insert(nf, id);
        id
    }

    /// Translate `f` (or its negation, when `pos` is false) into the
    /// arena. Unknown proposition names are an error.
    fn nnf(&mut self, f: &Ltl, props: &BTreeMap<&str, u32>, pos: bool) -> Result<u32, String> {
        let nf = match (f, pos) {
            (Ltl::True, true) | (Ltl::False, false) => Nf::True,
            (Ltl::True, false) | (Ltl::False, true) => Nf::False,
            (Ltl::Prop(name), _) => {
                let Some(&i) = props.get(name.as_str()) else {
                    let known: Vec<&str> = props.keys().copied().collect();
                    return Err(format!(
                        "unknown proposition \"{name}\" (protocol declares: {})",
                        known.join(", ")
                    ));
                };
                if pos {
                    Nf::Prop(i)
                } else {
                    Nf::NProp(i)
                }
            }
            (Ltl::Not(a), _) => return self.nnf(a, props, !pos),
            (Ltl::And(a, b), true) | (Ltl::Or(a, b), false) => {
                Nf::And(self.nnf(a, props, pos)?, self.nnf(b, props, pos)?)
            }
            (Ltl::And(a, b), false) | (Ltl::Or(a, b), true) => {
                Nf::Or(self.nnf(a, props, pos)?, self.nnf(b, props, pos)?)
            }
            (Ltl::Next(a), _) => Nf::Next(self.nnf(a, props, pos)?),
            (Ltl::Until(a, b), true) | (Ltl::Release(a, b), false) => {
                Nf::Until(self.nnf(a, props, pos)?, self.nnf(b, props, pos)?)
            }
            (Ltl::Until(a, b), false) | (Ltl::Release(a, b), true) => {
                Nf::Release(self.nnf(a, props, pos)?, self.nnf(b, props, pos)?)
            }
            (Ltl::Eventually(a), true) | (Ltl::Always(a), false) => {
                let t = self.intern(Nf::True);
                Nf::Until(t, self.nnf(a, props, pos)?)
            }
            (Ltl::Eventually(a), false) | (Ltl::Always(a), true) => {
                let fls = self.intern(Nf::False);
                Nf::Release(fls, self.nnf(a, props, pos)?)
            }
        };
        Ok(self.intern(nf))
    }
}

// ---------------------------------------------------------------------------
// GPVW tableau → Büchi automaton
// ---------------------------------------------------------------------------

/// Sentinel "incoming" id marking automaton-initial tableau nodes.
const INIT: usize = usize::MAX;

#[derive(Clone)]
struct TabNode {
    incoming: Vec<usize>,
    new: Vec<u32>,
    old: Vec<u32>,
    next: Vec<u32>,
}

fn set_insert(set: &mut Vec<u32>, v: u32) -> bool {
    match set.binary_search(&v) {
        Ok(_) => false,
        Err(pos) => {
            set.insert(pos, v);
            true
        }
    }
}

fn set_contains(set: &[u32], v: u32) -> bool {
    set.binary_search(&v).is_ok()
}

/// The GPVW expansion: turn the NNF formula `root` into a generalized
/// Büchi automaton's node set (Gerth–Peled–Vardi–Wolper 1995). Each
/// returned node carries its incoming edges; node `q`'s label is the set
/// of literals in `old(q)`.
fn gpvw(arena: &Arena, root: u32) -> Vec<TabNode> {
    let mut done: Vec<TabNode> = Vec::new();
    let start = TabNode {
        incoming: vec![INIT],
        new: vec![root],
        old: Vec::new(),
        next: Vec::new(),
    };
    expand(arena, start, &mut done);
    done
}

fn expand(arena: &Arena, mut node: TabNode, done: &mut Vec<TabNode>) {
    let Some(&f) = node.new.first() else {
        // Fully processed: merge with an existing node over (old, next),
        // or allocate and expand the temporal successor.
        if let Some(existing) = done
            .iter_mut()
            .find(|nd| nd.old == node.old && nd.next == node.next)
        {
            for inc in node.incoming {
                if !existing.incoming.contains(&inc) {
                    existing.incoming.push(inc);
                }
            }
            return;
        }
        let id = done.len();
        let succ = TabNode {
            incoming: vec![id],
            new: node.next.clone(),
            old: Vec::new(),
            next: Vec::new(),
        };
        done.push(node);
        expand(arena, succ, done);
        return;
    };
    node.new.retain(|&g| g != f);
    if set_contains(&node.old, f) {
        return expand(arena, node, done);
    }
    match arena.nodes[f as usize] {
        Nf::False => { /* contradiction: drop this node */ }
        Nf::True => expand(arena, node, done),
        Nf::Prop(i) => {
            let neg = arena.dedup.get(&Nf::NProp(i)).copied();
            if neg.is_some_and(|n| set_contains(&node.old, n)) {
                return; // p ∧ ¬p: drop
            }
            set_insert(&mut node.old, f);
            expand(arena, node, done);
        }
        Nf::NProp(i) => {
            let pos = arena.dedup.get(&Nf::Prop(i)).copied();
            if pos.is_some_and(|p| set_contains(&node.old, p)) {
                return;
            }
            set_insert(&mut node.old, f);
            expand(arena, node, done);
        }
        Nf::And(a, b) => {
            set_insert(&mut node.old, f);
            set_insert(&mut node.new, a);
            set_insert(&mut node.new, b);
            expand(arena, node, done);
        }
        Nf::Or(a, b) => {
            set_insert(&mut node.old, f);
            let mut left = node.clone();
            set_insert(&mut left.new, a);
            expand(arena, left, done);
            set_insert(&mut node.new, b);
            expand(arena, node, done);
        }
        Nf::Next(a) => {
            set_insert(&mut node.old, f);
            set_insert(&mut node.next, a);
            expand(arena, node, done);
        }
        Nf::Until(a, b) => {
            set_insert(&mut node.old, f);
            // a U b  ≡  b ∨ (a ∧ X(a U b))
            let mut left = node.clone();
            set_insert(&mut left.new, a);
            set_insert(&mut left.next, f);
            expand(arena, left, done);
            set_insert(&mut node.new, b);
            expand(arena, node, done);
        }
        Nf::Release(a, b) => {
            set_insert(&mut node.old, f);
            // a R b  ≡  (a ∧ b) ∨ (b ∧ X(a R b))
            let mut left = node.clone();
            set_insert(&mut left.new, b);
            set_insert(&mut left.next, f);
            expand(arena, left, done);
            set_insert(&mut node.new, a);
            set_insert(&mut node.new, b);
            expand(arena, node, done);
        }
    }
}

/// A degeneralized Büchi automaton over proposition bitmask labels.
///
/// `k` acceptance counters are folded in at the *product* level (the
/// counter is part of the product state, advanced by the source state's
/// membership in the current acceptance set), so the automaton itself
/// stays at GPVW size.
struct Buchi {
    /// Number of tableau states.
    n_states: usize,
    /// Degeneralization modulus (≥ 1).
    k: usize,
    /// Per-state positive-literal mask: these propositions must hold in
    /// the graph node consumed at this state.
    label_pos: Vec<u32>,
    /// Per-state negative-literal mask: these propositions must be false.
    label_neg: Vec<u32>,
    /// Per-state successor lists, ascending.
    succ: Vec<Vec<u32>>,
    /// Initial states, ascending.
    init: Vec<u32>,
    /// `in_acc[j][q]`: state `q` belongs to acceptance set `j`.
    in_acc: Vec<Vec<bool>>,
}

impl Buchi {
    /// Whether automaton state `q` may consume a graph node whose
    /// proposition valuation is `val`.
    fn sat(&self, val: u32, q: u32) -> bool {
        let q = q as usize;
        val & self.label_pos[q] == self.label_pos[q] && val & self.label_neg[q] == 0
    }
}

fn build_buchi(arena: &Arena, nodes: &[TabNode]) -> Buchi {
    let n = nodes.len();
    let mut label_pos = vec![0u32; n];
    let mut label_neg = vec![0u32; n];
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut init: Vec<u32> = Vec::new();
    for (q, nd) in nodes.iter().enumerate() {
        for &f in &nd.old {
            match arena.nodes[f as usize] {
                Nf::Prop(i) => label_pos[q] |= 1 << i,
                Nf::NProp(i) => label_neg[q] |= 1 << i,
                _ => {}
            }
        }
        for &r in &nd.incoming {
            if r == INIT {
                if !init.contains(&(q as u32)) {
                    init.push(q as u32);
                }
            } else {
                succ[r].push(q as u32);
            }
        }
    }
    for s in &mut succ {
        s.sort_unstable();
        s.dedup();
    }
    init.sort_unstable();
    // One acceptance set per distinct Until subformula: state q is in
    // F_(a U b) unless it promises (a U b) without certifying b.
    let untils: Vec<(u32, u32)> = arena
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(id, nf)| match nf {
            Nf::Until(_, b) => Some((id as u32, *b)),
            _ => None,
        })
        .collect();
    let k = untils.len().max(1);
    let mut in_acc: Vec<Vec<bool>> = Vec::with_capacity(k);
    if untils.is_empty() {
        in_acc.push(vec![true; n]);
    } else {
        for &(u, b) in &untils {
            in_acc.push(
                nodes
                    .iter()
                    .map(|nd| !set_contains(&nd.old, u) || set_contains(&nd.old, b))
                    .collect(),
            );
        }
    }
    Buchi {
        n_states: n,
        k,
        label_pos,
        label_neg,
        succ,
        init,
        in_acc,
    }
}

// ---------------------------------------------------------------------------
// Configuration, report
// ---------------------------------------------------------------------------

/// Parameters of a liveness check. `new(max_step_gap, max_delay,
/// t_stable)` gives usable defaults for the rest.
#[derive(Clone, Debug)]
pub struct LivenessConfig {
    /// Fairness bound `G`: an alive process takes a step at least every
    /// `G` steps (mirrors [`SimConfig::max_step_gap`](crate::SimConfig)).
    pub max_step_gap: Time,
    /// Fairness bound `D`: a message to an alive process is delivered
    /// within `D` steps of being sent.
    pub max_delay: Time,
    /// The time after which the model is stationary: every crash has
    /// happened (validated) and the detector answers the same value it
    /// answers at `t_stable` forever after (spot-checked). Graph time
    /// freezes here.
    pub t_stable: Time,
    /// Node budget; exceeding it yields `Inconclusive` unless a
    /// violation was already found.
    pub max_states: usize,
    /// Per-inbox message capacity; edges that would overflow are dropped
    /// (`Holds` then degrades to `Inconclusive`).
    pub max_inbox: usize,
    /// The shared reduction knobs (see [`ReductionConfig`]). Only
    /// `symmetry` is usable here; a configuration with `dpor` set is
    /// **rejected** at validation time (see the module docs' DPOR
    /// section).
    pub reduction: ReductionConfig,
}

impl LivenessConfig {
    /// A configuration with the given fairness bounds and stabilization
    /// time, default budgets, reductions off.
    pub fn new(max_step_gap: Time, max_delay: Time, t_stable: Time) -> Self {
        LivenessConfig {
            max_step_gap,
            max_delay,
            t_stable,
            max_states: 250_000,
            max_inbox: 8,
            reduction: ReductionConfig::none(),
        }
    }

    /// Set the node budget.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Set the per-inbox capacity.
    pub fn with_max_inbox(mut self, max_inbox: usize) -> Self {
        self.max_inbox = max_inbox;
        self
    }

    /// Replace the reduction configuration wholesale.
    pub fn with_reduction(mut self, reduction: ReductionConfig) -> Self {
        self.reduction = reduction;
        self
    }

    /// Toggle symmetry canonicalization.
    pub fn with_symmetry(mut self, on: bool) -> Self {
        self.reduction.symmetry = on;
        self
    }

    /// Toggle the DPOR flag. Note that a liveness check **rejects** a
    /// configuration with DPOR on (unsound for cycle detection — see the
    /// module docs); the builder exists so sweeps constructing one
    /// [`ReductionConfig`] per run get a clear error instead of a
    /// silently unreduced check.
    pub fn with_dpor(mut self, on: bool) -> Self {
        self.reduction.dpor = on;
        self
    }

    /// Does nothing: the graph build runs on the calling thread. Kept
    /// for one release so callers that pinned a worker count still
    /// compile.
    #[deprecated(
        since = "0.7.0",
        note = "the liveness checker has no worker pool; drop the call"
    )]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

/// The outcome of a liveness check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LivenessVerdict {
    /// The property holds over every fair infinite run of the (complete)
    /// finite model.
    Holds,
    /// A fair infinite run violating the property exists; see the lasso.
    Violated,
    /// The model was truncated (inbox capacity or node budget) before a
    /// verdict could be certified.
    Inconclusive,
}

impl LivenessVerdict {
    /// Stable lowercase tag (used in JSON reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            LivenessVerdict::Holds => "holds",
            LivenessVerdict::Violated => "violated",
            LivenessVerdict::Inconclusive => "inconclusive",
        }
    }
}

/// A concrete violating run: `stem · cycleʷ` in explorer decision
/// vocabulary. Replay with
/// [`Replay::lasso`](crate::Replay::lasso) +
/// [`Replay::run_fair`](crate::Replay::run_fair); ship as a
/// [`Repro`](crate::Repro) via [`Repro::from_lasso`](crate::Repro::from_lasso).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LassoWitness {
    /// Decisions from the initial configuration to the loop head.
    pub stem: Vec<ExploreDecision>,
    /// Decisions around the loop (non-empty).
    pub cycle: Vec<ExploreDecision>,
}

/// The result of [`check_liveness`], with model-size statistics.
#[derive(Clone, Debug)]
pub struct LivenessReport {
    /// The verdict.
    pub verdict: LivenessVerdict,
    /// The violating lasso, when one was found (a violation detected
    /// under symmetry whose witness extraction hit the state budget may
    /// report `Violated` with no lasso).
    pub lasso: Option<LassoWitness>,
    /// The checked formula, rendered.
    pub formula: String,
    /// Why the verdict is `Inconclusive`, when it is.
    pub reason: Option<String>,
    /// Fair-graph nodes built.
    pub states: usize,
    /// Fair-graph edges built.
    pub edges: usize,
    /// Büchi automaton states (for ¬φ, before degeneralization).
    pub buchi_states: usize,
    /// Product states visited by the nested DFS.
    pub product_states: usize,
    /// Whether the inbox capacity dropped at least one edge.
    pub truncated: bool,
}

impl LivenessReport {
    /// A machine-readable JSON rendering (used by experiment binaries).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("verdict".to_string(), Json::str(self.verdict.as_str())),
            ("formula".to_string(), Json::str(&self.formula)),
            ("states".to_string(), Json::usize(self.states)),
            ("edges".to_string(), Json::usize(self.edges)),
            ("buchi_states".to_string(), Json::usize(self.buchi_states)),
            (
                "product_states".to_string(),
                Json::usize(self.product_states),
            ),
            ("truncated".to_string(), Json::bool(self.truncated)),
        ];
        if let Some(reason) = &self.reason {
            fields.push(("reason".to_string(), Json::str(reason)));
        }
        if let Some(lasso) = &self.lasso {
            fields.push((
                "lasso".to_string(),
                Json::Obj(vec![
                    ("stem_len".to_string(), Json::usize(lasso.stem.len())),
                    ("cycle_len".to_string(), Json::usize(lasso.cycle.len())),
                ]),
            ));
        }
        Json::Obj(fields)
    }
}

// ---------------------------------------------------------------------------
// The fair state graph
// ---------------------------------------------------------------------------

// `LiveNode` (the graph node: machine state + fairness bookkeeping) and
// its structural equality live in [`crate::machine`], shared with the
// lasso replayer; the fingerprint stays here with the other
// `debug_fp`-based hashing.
fn node_fp<P: Protocol + Debug>(node: &LiveNode<P>) -> u128 {
    debug_fp(&(
        &node.state.procs,
        &node.state.inboxes,
        &node.state.started,
        &node.state.pending_inv,
        node.state.depth,
        &node.since,
        &node.ages,
    ))
}

/// The scenario the graph build reads: detector samples, liveness and
/// correctness tables, the symmetry group and the proposition count.
struct GraphEnv<'a, P: Protocol> {
    pattern: &'a FailurePattern,
    cfg: &'a LivenessConfig,
    /// `fd[p * stride + t]` for `t ≤ t_stable`, `None` when crashed.
    fd: Vec<Option<P::Fd>>,
    stride: usize,
    /// `alive[t][p]` for `t ≤ t_stable`.
    alive: Vec<Vec<bool>>,
    correct: Vec<bool>,
    perms: Vec<SymPerm>,
    prop_count: usize,
}

impl<P: Protocol> GraphEnv<'_, P> {
    fn fd_at(&self, p: usize, t: Time) -> &P::Fd {
        self.fd[p * self.stride + t as usize]
            .as_ref()
            .expect("fair decisions never step a crashed process")
    }

    fn eval(&self, procs: &[P], t: Time) -> u32 {
        let view = PropView {
            alive: &self.alive[t as usize],
            correct: &self.correct,
        };
        let mut val = 0u32;
        for i in 0..self.prop_count {
            if P::eval_prop(i, procs, &view) {
                val |= 1 << i;
            }
        }
        val
    }
}

// Fair decision enumeration and fair stepping live on
// [`FairMachine`] in [`crate::machine`] (`enabled_fair` / `step_with`),
// shared between this graph builder and `Replay::run_fair`.

/// Rebuild `node` with every process renamed through `sp` (canonical
/// slot `j` is filled from original slot `inverse[j]`, embedded ids
/// rewritten forward). Invocation payloads are moved, not rewritten,
/// matching the safety explorer (scenario symmetry already requires
/// orbit slots to hold `Debug`-equal invocations).
fn permute_node<P: Protocol + Clone>(node: &LiveNode<P>, sp: &SymPerm) -> LiveNode<P> {
    let n = node.state.procs.len();
    let mut state = State::blank();
    state.depth = node.state.depth;
    let mut since = Vec::with_capacity(n);
    let mut ages = Vec::with_capacity(n);
    for j in 0..n {
        let src = sp.inverse[j];
        let mut proc = node.state.procs[src].clone();
        proc.permute(&sp.perm);
        state.procs.push(proc);
        state.started.push(node.state.started[src]);
        state.pending_inv.push(node.state.pending_inv[src].clone());
        state.inboxes.push(
            node.state.inboxes[src]
                .iter()
                .map(|(from, msg)| {
                    let mut msg = msg.clone();
                    P::permute_msg(&mut msg, &sp.perm);
                    (sp.perm.apply(*from), msg)
                })
                .collect(),
        );
        since.push(node.since[src]);
        ages.push(node.ages[src].clone());
    }
    LiveNode { state, since, ages }
}

/// Canonicalize under the scenario symmetry group: the permuted variant
/// with the least fingerprint wins (identity on ties, then the earlier
/// group element). Checks that the proposition valuation is invariant —
/// the soundness obligation symmetric protocols take on.
fn canonicalize<P>(env: &GraphEnv<'_, P>, node: LiveNode<P>) -> Result<LiveNode<P>, String>
where
    P: Protocol + Clone + Debug,
{
    if env.perms.is_empty() {
        return Ok(node);
    }
    let t = node.state.depth as Time;
    let val = env.eval(&node.state.procs, t);
    let mut best_fp = node_fp(&node);
    let mut best: Option<LiveNode<P>> = None;
    for sp in &env.perms {
        let permuted = permute_node(&node, sp);
        if env.eval(&permuted.state.procs, t) != val {
            return Err(format!(
                "propositions of {} are not invariant under its declared \
                 symmetry group; liveness props must be symmetric \
                 (quantify over processes instead of naming one)",
                std::any::type_name::<P>()
            ));
        }
        let fp = node_fp(&permuted);
        if fp < best_fp {
            best_fp = fp;
            best = Some(permuted);
        }
    }
    Ok(best.unwrap_or(node))
}

struct LiveGraph<P: Protocol> {
    nodes: Vec<LiveNode<P>>,
    succs: Vec<Vec<(u32, ExploreDecision)>>,
    vals: Vec<u32>,
    truncated: bool,
    capped: bool,
}

/// Build the deduplicated fair state graph breadth-first: each node is
/// expanded in frontier order and its successors are merged into the
/// graph before the next node is expanded.
fn build_graph<P>(
    env: &GraphEnv<'_, P>,
    procs: Vec<P>,
    invocations: Vec<Option<P::Inv>>,
) -> Result<LiveGraph<P>, String>
where
    P: Protocol + Clone + Debug + PartialEq,
    P::Msg: PartialEq,
    P::Inv: PartialEq,
{
    // The fair semantics: enumeration and stepping both come from the
    // shared machine layer. Each step is handed its detector value from
    // the pre-computed table (the machine's own sampler is the same
    // lookup), so `step_with` reuses one set of send/output buffers.
    let machine = FairMachine::<P, _>::new(
        env.pattern,
        env.cfg.max_step_gap,
        env.cfg.max_delay,
        env.cfg.t_stable,
        |p: ProcessId, t: Time| env.fd_at(p.index(), t).clone(),
    );
    let root = canonicalize(env, machine.initial(procs, invocations))?;
    let root_fp = node_fp(&root);
    let root_val = env.eval(&root.state.procs, 0);
    let mut nodes = vec![root];
    let mut vals = vec![root_val];
    let mut succs: Vec<Vec<(u32, ExploreDecision)>> = vec![Vec::new()];
    let mut buckets: BTreeMap<u128, Vec<u32>> = BTreeMap::new();
    buckets.insert(root_fp, vec![0]);
    let mut frontier: Vec<u32> = vec![0];
    let mut truncated = false;
    let mut capped = false;
    let mut decisions = Vec::new();
    let mut bufs: (SendBuf<P>, Vec<P::Output>) = (Vec::new(), Vec::new());
    let mut edges: Vec<(ExploreDecision, LiveNode<P>, u128, u32)> = Vec::new();
    while !frontier.is_empty() && !capped {
        for src in std::mem::take(&mut frontier) {
            let node = &nodes[src as usize];
            let t = node.state.depth as Time;
            decisions.clear();
            machine.enabled_fair(node, &mut decisions);
            for &dec in &decisions {
                let fd = env.fd_at(dec.0.index(), t).clone();
                let succ = machine.step_with(node, dec, fd, &mut bufs);
                if succ
                    .state
                    .inboxes
                    .iter()
                    .any(|ib| ib.len() > env.cfg.max_inbox)
                {
                    truncated = true;
                    continue;
                }
                let succ = canonicalize(env, succ)?;
                let fp = node_fp(&succ);
                let val = env.eval(&succ.state.procs, succ.state.depth as Time);
                edges.push((dec, succ, fp, val));
            }
            for (dec, succ, fp, val) in edges.drain(..) {
                let bucket = buckets.entry(fp).or_default();
                let found = bucket
                    .iter()
                    .copied()
                    .find(|&id| node_eq(&nodes[id as usize], &succ));
                let id = match found {
                    Some(id) => id,
                    None => {
                        if nodes.len() >= env.cfg.max_states {
                            capped = true;
                            continue;
                        }
                        let id = nodes.len() as u32;
                        nodes.push(succ);
                        vals.push(val);
                        succs.push(Vec::new());
                        bucket.push(id);
                        frontier.push(id);
                        id
                    }
                };
                succs[src as usize].push((id, dec));
            }
        }
    }
    Ok(LiveGraph {
        nodes,
        succs,
        vals,
        truncated,
        capped,
    })
}

// ---------------------------------------------------------------------------
// Product construction and nested DFS
// ---------------------------------------------------------------------------

/// CVWY nested depth-first search for an accepting lasso in the product
/// of the fair graph and the (degeneralized) Büchi automaton for ¬φ.
/// Returns the lasso and the number of product states visited.
fn find_lasso<P: Protocol>(graph: &LiveGraph<P>, ba: &Buchi) -> (Option<LassoWitness>, usize) {
    if graph.nodes.is_empty() || ba.n_states == 0 {
        return (None, 0);
    }
    // Product state = (graph node, automaton state, acceptance counter).
    let mut index: BTreeMap<(u32, u32, u32), u32> = BTreeMap::new();
    // Product state: (graph node, Büchi state, acceptance counter).
    type Key = (u32, u32, u32);
    // Interner threaded into `succs_of` by mutable reference: it must
    // also borrow the state tables, so those travel as arguments.
    type Intern<'a> = dyn FnMut(&mut Vec<Key>, &mut Vec<u8>, &mut Vec<bool>, Key) -> u32 + 'a;
    let mut states: Vec<Key> = Vec::new();
    let mut colors: Vec<u8> = Vec::new(); // 0 white, 1 cyan, 2 blue
    let mut red: Vec<bool> = Vec::new();
    let mut intern =
        |states: &mut Vec<Key>, colors: &mut Vec<u8>, red: &mut Vec<bool>, key: Key| {
            *index.entry(key).or_insert_with(|| {
                let id = states.len() as u32;
                states.push(key);
                colors.push(0);
                red.push(false);
                id
            })
        };
    // Successors of a product state, in deterministic order. The
    // acceptance counter advances on leaving a state that belongs to the
    // current acceptance set; accepting product states are those about
    // to complete a full counter cycle at set 0.
    let succs_of = |states: &mut Vec<Key>,
                    colors: &mut Vec<u8>,
                    red: &mut Vec<bool>,
                    intern: &mut Intern<'_>,
                    pid: u32| {
        let (g, q, c) = states[pid as usize];
        let c_next = if ba.in_acc[c as usize][q as usize] {
            (c + 1) % ba.k as u32
        } else {
            c
        };
        let mut out: Vec<(u32, ExploreDecision)> = Vec::new();
        for &(g2, dec) in &graph.succs[g as usize] {
            for &q2 in &ba.succ[q as usize] {
                if ba.sat(graph.vals[g2 as usize], q2) {
                    let id = intern(states, colors, red, (g2, q2, c_next));
                    out.push((id, dec));
                }
            }
        }
        out
    };
    let accepting = |states: &[Key], pid: u32| -> bool {
        let (_, q, c) = states[pid as usize];
        c == 0 && ba.in_acc[0][q as usize]
    };

    struct Frame {
        pid: u32,
        entered: Option<ExploreDecision>,
        succs: Vec<(u32, ExploreDecision)>,
        next: usize,
    }

    let mut roots: Vec<u32> = Vec::new();
    for &q in &ba.init {
        if ba.sat(graph.vals[0], q) {
            let id = intern(&mut states, &mut colors, &mut red, (0, q, 0));
            roots.push(id);
        }
    }
    let mut intern_box: Box<Intern<'_>> = Box::new(intern);
    for root in roots {
        if colors[root as usize] != 0 {
            continue;
        }
        let mut blue: Vec<Frame> = Vec::new();
        colors[root as usize] = 1;
        let root_succs = succs_of(&mut states, &mut colors, &mut red, &mut *intern_box, root);
        blue.push(Frame {
            pid: root,
            entered: None,
            succs: root_succs,
            next: 0,
        });
        while let Some(top) = blue.last_mut() {
            if top.next < top.succs.len() {
                let (child, dec) = top.succs[top.next];
                top.next += 1;
                if colors[child as usize] == 0 {
                    colors[child as usize] = 1;
                    let child_succs =
                        succs_of(&mut states, &mut colors, &mut red, &mut *intern_box, child);
                    blue.push(Frame {
                        pid: child,
                        entered: Some(dec),
                        succs: child_succs,
                        next: 0,
                    });
                }
                continue;
            }
            // Post-order on top.pid: nested red search from accepting
            // states, while the blue stack (cyan states) is intact.
            let seed = top.pid;
            if accepting(&states, seed) && !red[seed as usize] {
                let mut red_stack: Vec<Frame> = Vec::new();
                red[seed as usize] = true;
                let seed_succs =
                    succs_of(&mut states, &mut colors, &mut red, &mut *intern_box, seed);
                red_stack.push(Frame {
                    pid: seed,
                    entered: None,
                    succs: seed_succs,
                    next: 0,
                });
                let mut hit: Option<(u32, ExploreDecision)> = None;
                'red: while let Some(rtop) = red_stack.last_mut() {
                    if rtop.next < rtop.succs.len() {
                        let (child, dec) = rtop.succs[rtop.next];
                        rtop.next += 1;
                        if colors[child as usize] == 1 {
                            // Reached a state on the blue stack: the
                            // cycle seed → … → child → (stack) → seed
                            // closes an accepting loop through seed.
                            hit = Some((child, dec));
                            break 'red;
                        }
                        if !red[child as usize] {
                            red[child as usize] = true;
                            let child_succs = succs_of(
                                &mut states,
                                &mut colors,
                                &mut red,
                                &mut *intern_box,
                                child,
                            );
                            red_stack.push(Frame {
                                pid: child,
                                entered: Some(dec),
                                succs: child_succs,
                                next: 0,
                            });
                        }
                        continue;
                    }
                    red_stack.pop();
                }
                if let Some((cyan, closing)) = hit {
                    // Stem: blue-stack path root → seed.
                    let stem: Vec<ExploreDecision> =
                        blue.iter().filter_map(|f| f.entered).collect();
                    // Cycle: red path seed → … → cyan, then the blue
                    // stack segment cyan → seed.
                    let mut cycle: Vec<ExploreDecision> =
                        red_stack.iter().filter_map(|f| f.entered).collect();
                    cycle.push(closing);
                    let pos = blue
                        .iter()
                        .position(|f| f.pid == cyan)
                        .expect("a cyan state is on the blue stack");
                    cycle.extend(blue[pos + 1..].iter().filter_map(|f| f.entered));
                    return (Some(LassoWitness { stem, cycle }), states.len());
                }
            }
            colors[seed as usize] = 2;
            blue.pop();
        }
    }
    (None, states.len())
}

// ---------------------------------------------------------------------------
// Validation and entry points
// ---------------------------------------------------------------------------

fn resolve_props<P: Protocol>() -> Result<BTreeMap<&'static str, u32>, String> {
    let names = P::props();
    if names.len() > MAX_PROPS {
        return Err(format!(
            "{} declares {} propositions; at most {MAX_PROPS} are supported",
            std::any::type_name::<P>(),
            names.len()
        ));
    }
    let mut map = BTreeMap::new();
    for (i, &name) in names.iter().enumerate() {
        if map.insert(name, i as u32).is_some() {
            return Err(format!(
                "{} declares proposition \"{name}\" twice",
                std::any::type_name::<P>()
            ));
        }
    }
    Ok(map)
}

/// Reject ill-formed scenarios and unsound reduction requests before any
/// graph work. Shared with [`Replay::run_fair`](crate::Replay::run_fair),
/// so replayed artifacts face exactly the checker's preconditions.
pub(crate) fn validate<P, D>(
    cfg: &LivenessConfig,
    pattern: &FailurePattern,
    n: usize,
    detector: &mut D,
) -> Result<(), String>
where
    P: Protocol,
    P::Fd: PartialEq,
    D: FdOracle<Value = P::Fd>,
{
    if cfg.reduction.dpor {
        return Err(
            "LivenessConfig requests DPOR, but sleep-set reduction is unsound for \
             cycle detection without a cycle proviso (an ignored transition may \
             close the only accepting cycle); clear ReductionConfig::dpor for \
             liveness checks"
                .to_string(),
        );
    }
    if n == 0 {
        return Err("a system needs at least one process".to_string());
    }
    if pattern.n() != n {
        return Err(format!(
            "failure pattern is over {} processes, the system has {n}",
            pattern.n()
        ));
    }
    if cfg.max_step_gap == 0 || cfg.max_delay == 0 {
        return Err("fairness bounds must be at least 1".to_string());
    }
    if cfg.max_inbox == 0 {
        return Err("max_inbox must be at least 1".to_string());
    }
    let correct: Vec<ProcessId> = (0..n)
        .map(ProcessId)
        .filter(|&p| pattern.is_correct(p))
        .collect();
    if correct.is_empty() {
        return Err(
            "at least one process must be correct (infinite fair runs need an actor)".into(),
        );
    }
    for p in (0..n).map(ProcessId) {
        if let Some(t) = pattern.crash_time(p) {
            if t > cfg.t_stable {
                return Err(format!(
                    "process {p} crashes at t={t}, after t_stable={}: raise t_stable \
                     so the frozen-time region is stationary",
                    cfg.t_stable
                ));
            }
        }
    }
    // Stationarity spot check: past t_stable the detector must keep
    // answering its t_stable value, or frozen-time graph steps would
    // diverge from real replays. A window bounded by the fairness
    // constants catches every oracle whose schedule is still moving.
    let window = 2 * (cfg.max_step_gap + cfg.max_delay) + n as Time + 2;
    for &p in &correct {
        let frozen = detector.query(p, cfg.t_stable);
        for dt in 1..=window {
            if detector.query(p, cfg.t_stable + dt) != frozen {
                return Err(format!(
                    "detector is not stationary at t_stable={}: process {p} sees a \
                     different value at t={} (stabilize the oracle or raise t_stable)",
                    cfg.t_stable,
                    cfg.t_stable + dt
                ));
            }
        }
    }
    Ok(())
}

/// Check an LTL property over **all fair infinite runs** of the finite
/// model defined by `cfg` and the scenario.
///
/// Returns `Err` for ill-formed scenarios (no correct process, crashes
/// after `t_stable`, a non-stationary detector, unknown propositions,
/// asymmetric propositions under symmetry); otherwise a
/// [`LivenessReport`] whose verdict is `Holds`, `Violated` (with a
/// replayable [`LassoWitness`]) or `Inconclusive` (budget/capacity hit).
pub fn check_liveness<P, D>(
    cfg: LivenessConfig,
    make_procs: impl Fn() -> Vec<P>,
    invocations: Vec<Option<P::Inv>>,
    pattern: &FailurePattern,
    mut detector: D,
    formula: &Ltl,
) -> Result<LivenessReport, String>
where
    P: Protocol + Clone + Debug + PartialEq,
    P::Msg: PartialEq,
    P::Inv: PartialEq,
    D: FdOracle<Value = P::Fd>,
{
    let procs = make_procs();
    let n = procs.len();
    if invocations.len() != n {
        return Err(format!(
            "{} invocation slots for {n} processes",
            invocations.len()
        ));
    }
    validate::<P, D>(&cfg, pattern, n, &mut detector)?;
    let props = resolve_props::<P>()?;

    // Compile ¬φ: an accepting lasso of the product is a fair run
    // violating φ.
    let mut arena = Arena::default();
    let neg_root = arena.nnf(formula, &props, false)?;
    let tableau = gpvw(&arena, neg_root);
    let ba = build_buchi(&arena, &tableau);

    // Pre-sample the detector for every alive (p, t) in the non-frozen
    // region, so the graph build reads a table instead of the (mutable)
    // oracle.
    let stride = cfg.t_stable as usize + 1;
    let mut fd: Vec<Option<P::Fd>> = vec![None; n * stride];
    let mut alive: Vec<Vec<bool>> = Vec::with_capacity(stride);
    for t in 0..stride {
        let t = t as Time;
        alive.push(
            (0..n)
                .map(|q| !pattern.is_crashed(ProcessId(q), t))
                .collect(),
        );
        for q in 0..n {
            if !pattern.is_crashed(ProcessId(q), t) {
                fd[q * stride + t as usize] = Some(detector.query(ProcessId(q), t));
            }
        }
    }
    let correct: Vec<bool> = (0..n).map(|q| pattern.is_correct(ProcessId(q))).collect();
    let perms = if cfg.reduction.symmetry {
        scenario_symmetry::<P, _>(n, stride, pattern, &invocations, &mut detector)
    } else {
        Vec::new()
    };
    let used_symmetry = !perms.is_empty();
    let env = GraphEnv::<P> {
        pattern,
        cfg: &cfg,
        fd,
        stride,
        alive,
        correct,
        perms,
        prop_count: P::props().len(),
    };
    let graph = build_graph(&env, procs, invocations.clone())?;
    let (lasso, product_states) = find_lasso(&graph, &ba);
    let edges = graph.succs.iter().map(Vec::len).sum();
    let mut report = LivenessReport {
        verdict: LivenessVerdict::Holds,
        lasso: None,
        formula: formula.to_string(),
        reason: None,
        states: graph.nodes.len(),
        edges,
        buchi_states: ba.n_states,
        product_states,
        truncated: graph.truncated,
    };
    match lasso {
        Some(witness) => {
            report.verdict = LivenessVerdict::Violated;
            if used_symmetry {
                // The lasso's decisions reference canonicalized nodes and
                // need not replay concretely; re-run without symmetry to
                // extract a concrete witness (the verdict itself is
                // already sound — the quotient preserves lassos).
                let concrete = check_liveness(
                    cfg.with_symmetry(false),
                    make_procs,
                    invocations,
                    pattern,
                    detector,
                    formula,
                )?;
                report.lasso = concrete.lasso;
                if report.lasso.is_none() {
                    report.reason = Some(
                        "violated under symmetry; concrete witness extraction \
                         exceeded the state budget"
                            .to_string(),
                    );
                }
            } else {
                report.lasso = Some(witness);
            }
        }
        None => {
            if graph.truncated || graph.capped {
                report.verdict = LivenessVerdict::Inconclusive;
                report.reason = Some(if graph.capped {
                    format!("state budget of {} exhausted", cfg.max_states)
                } else {
                    format!(
                        "inbox capacity {} dropped at least one edge; no violation \
                         found on the remaining (real) runs",
                        cfg.max_inbox
                    )
                });
            }
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Tiny protocols exercising the liveness checker: a planted livelock
/// the nested DFS must catch, and a terminating counterpart.
pub mod fixtures {
    use super::*;
    use crate::protocol::{Ctx, Symmetry};

    /// The planted livelock: on start every process sends one token to
    /// every other; every token is bounced straight back to its sender,
    /// forever. Nobody ever decides, so `F "decided"` is violated by the
    /// bounce cycle — the accepting lasso the checker must find. Fully
    /// symmetric (reply-to-sender structure, id-free state).
    #[derive(Clone, Debug, PartialEq)]
    pub struct PingPong {
        /// Never set — the planted bug.
        pub decided: bool,
    }

    impl PingPong {
        /// `n` fresh processes.
        pub fn fleet(n: usize) -> Vec<PingPong> {
            (0..n).map(|_| PingPong { decided: false }).collect()
        }
    }

    impl Protocol for PingPong {
        type Msg = u8;
        type Output = ();
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            ctx.broadcast_others(0);
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: u8) {
            ctx.send(from, msg);
        }

        fn symmetry(_n: usize) -> Symmetry {
            Symmetry::Full
        }

        fn props() -> &'static [&'static str] {
            &["decided"]
        }

        fn eval_prop(_prop: usize, procs: &[Self], _view: &PropView<'_>) -> bool {
            procs.iter().any(|p| p.decided)
        }
    }

    /// The terminating counterpart: every process decides on its first
    /// step, so `F "all-decided"` holds over every fair run.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Decider {
        /// Set on the first step.
        pub decided: bool,
    }

    impl Decider {
        /// `n` fresh processes.
        pub fn fleet(n: usize) -> Vec<Decider> {
            (0..n).map(|_| Decider { decided: false }).collect()
        }
    }

    impl Protocol for Decider {
        type Msg = u8;
        type Output = ();
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, _ctx: &mut Ctx<Self>) {
            self.decided = true;
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, _msg: u8) {}

        fn symmetry(_n: usize) -> Symmetry {
            Symmetry::Full
        }

        fn props() -> &'static [&'static str] {
            &["all-decided"]
        }

        fn eval_prop(_prop: usize, procs: &[Self], view: &PropView<'_>) -> bool {
            procs
                .iter()
                .zip(view.correct)
                .all(|(p, &c)| !c || p.decided)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{Decider, PingPong};
    use super::*;
    use crate::machine::Replay;
    use crate::oracle::NoDetector;

    fn cfg() -> LivenessConfig {
        LivenessConfig::new(3, 3, 0)
    }

    #[test]
    fn ltl_renders_in_standard_notation() {
        let f = Ltl::prop("a").until(Ltl::prop("b")).always();
        assert_eq!(f.to_string(), "G((\"a\" U \"b\"))");
        let g = Ltl::prop("a").not().implies(Ltl::prop("b").next());
        assert_eq!(g.to_string(), "(!!\"a\" | X(\"b\"))");
    }

    #[test]
    fn planted_livelock_is_caught_with_a_replayable_lasso() {
        let report = check_liveness(
            cfg(),
            || PingPong::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &Ltl::prop("decided").eventually(),
        )
        .expect("valid scenario");
        assert_eq!(report.verdict, LivenessVerdict::Violated);
        let lasso = report.lasso.expect("a concrete witness");
        assert!(!lasso.cycle.is_empty());
        Replay::lasso(lasso.stem.clone(), lasso.cycle.clone())
            .run_fair(
                &cfg(),
                || PingPong::fleet(2),
                vec![None, None],
                &FailurePattern::failure_free(2),
                NoDetector,
            )
            .expect("the witness must replay");
    }

    #[test]
    fn livelock_never_decides_so_never_decided_holds() {
        let report = check_liveness(
            cfg(),
            || PingPong::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &Ltl::prop("decided").not().always(),
        )
        .expect("valid scenario");
        assert_eq!(report.verdict, LivenessVerdict::Holds);
        assert!(report.lasso.is_none());
    }

    #[test]
    fn decider_terminates_under_all_fair_schedules() {
        let report = check_liveness(
            cfg(),
            || Decider::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &Ltl::prop("all-decided").eventually(),
        )
        .expect("valid scenario");
        assert_eq!(report.verdict, LivenessVerdict::Holds);
    }

    #[test]
    fn next_and_until_operators_work_end_to_end() {
        // From the initial configuration nobody has decided, and one step
        // cannot make everyone decided when n = 2 — but eventually all
        // decide: ¬p ∧ X ¬p ∧ (¬p U p) holds on every fair run.
        let p = || Ltl::prop("all-decided");
        let f = p().not().and(p().not().next()).and(p().not().until(p()));
        let report = check_liveness(
            cfg(),
            || Decider::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &f,
        )
        .expect("valid scenario");
        assert_eq!(report.verdict, LivenessVerdict::Holds);
        // And the converse — X "all-decided" — is violated (two starts
        // are needed).
        let report = check_liveness(
            cfg(),
            || Decider::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &p().next(),
        )
        .expect("valid scenario");
        assert_eq!(report.verdict, LivenessVerdict::Violated);
    }

    #[test]
    fn crashes_after_t_stable_are_rejected() {
        let pattern = FailurePattern::failure_free(2).with_crash(ProcessId(1), 5);
        let err = check_liveness(
            cfg(),
            || PingPong::fleet(2),
            vec![None, None],
            &pattern,
            NoDetector,
            &Ltl::prop("decided").eventually(),
        )
        .expect_err("crash at 5 > t_stable 0");
        assert!(err.contains("t_stable"), "unexpected error: {err}");
    }

    #[test]
    fn dpor_requests_are_rejected_not_ignored() {
        let err = check_liveness(
            cfg().with_dpor(true),
            || PingPong::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &Ltl::prop("decided").eventually(),
        )
        .expect_err("dpor is unsound for cycle detection");
        assert!(err.contains("DPOR"), "unexpected error: {err}");
    }

    #[test]
    fn unknown_propositions_are_rejected_with_the_known_list() {
        let err = check_liveness(
            cfg(),
            || PingPong::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &Ltl::prop("nope").eventually(),
        )
        .expect_err("unknown prop");
        assert!(err.contains("nope") && err.contains("decided"), "{err}");
    }

    #[test]
    fn symmetry_preserves_the_verdict_and_still_ships_a_witness() {
        for symmetric in [false, true] {
            let report = check_liveness(
                cfg().with_symmetry(symmetric),
                || PingPong::fleet(3),
                vec![None, None, None],
                &FailurePattern::failure_free(3),
                NoDetector,
                &Ltl::prop("decided").eventually(),
            )
            .expect("valid scenario");
            assert_eq!(report.verdict, LivenessVerdict::Violated);
            let lasso = report.lasso.expect("witness extraction re-runs concretely");
            Replay::lasso(lasso.stem.clone(), lasso.cycle.clone())
                .run_fair(
                    &cfg(),
                    || PingPong::fleet(3),
                    vec![None, None, None],
                    &FailurePattern::failure_free(3),
                    NoDetector,
                )
                .expect("witness replays");
        }
    }

    #[test]
    fn a_crashed_majority_still_leaves_a_fair_model() {
        let pattern = FailurePattern::failure_free(3)
            .with_crash(ProcessId(1), 0)
            .with_crash(ProcessId(2), 0);
        let report = check_liveness(
            cfg(),
            || Decider::fleet(3),
            vec![None, None, None],
            &pattern,
            NoDetector,
            &Ltl::prop("all-decided").eventually(),
        )
        .expect("valid scenario");
        // Only p0 is correct; it decides on its first (forced) step.
        assert_eq!(report.verdict, LivenessVerdict::Holds);
    }

    #[test]
    fn tight_inbox_capacity_reports_inconclusive_not_holds() {
        let report = check_liveness(
            cfg().with_max_inbox(1),
            || PingPong::fleet(3),
            vec![None, None, None],
            &FailurePattern::failure_free(3),
            NoDetector,
            &Ltl::prop("decided").not().always(),
        )
        .expect("valid scenario");
        // The property actually holds, but edges were dropped: the
        // checker must not overclaim.
        assert_ne!(report.verdict, LivenessVerdict::Violated);
        if report.truncated {
            assert_eq!(report.verdict, LivenessVerdict::Inconclusive);
        }
    }
}
