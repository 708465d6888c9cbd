//! Exhaustive schedule exploration — a bounded model checker for small
//! systems.
//!
//! Random schedules sample the paper's "for all runs" quantifier;
//! [`explore`] *enumerates* it, bounded: starting from the initial
//! configuration it branches over every choice the adversary has at each
//! step — which alive process acts, and which of its pending messages it
//! receives (λ only when its inbox is empty, so runs cannot stutter
//! forever) — and evaluates a safety predicate in every reachable state.
//!
//! The exploration is sound for safety bug-hunting (every explored
//! interleaving is an admissible prefix of a fair run) and exhaustive up
//! to the depth bound over message-delivery orders. Liveness is out of
//! scope by construction.
//!
//! A violation comes back as an [`ExploreViolation`] carrying the full
//! decision list `(actor, message choice)` of the counterexample branch;
//! [`Replay`](crate::Replay) re-executes such a list deterministically,
//! and [`crate::repro`] packages it as a portable artifact.
//!
//! The step semantics itself — how one decision becomes `Protocol`
//! callbacks, sends and outputs — is not defined here: the explorer
//! drives the shared [`crate::machine`] layer
//! ([`enabled_decisions`](crate::machine)/`apply_step_into`), the same
//! transition system the engine, the liveness checker and [`Replay`]
//! execute.
//!
//! [`Replay`]: crate::Replay
//!
//! ## Performance model
//!
//! The inner loop is built for throughput, SPIN-style:
//!
//! * **Fingerprinted dedup** — visited states are keyed by a 128-bit
//!   structural fingerprint ([`FingerprintHasher`]) streamed directly off
//!   the state's `Debug` rendering, instead of storing the rendering
//!   itself. [`ExactKeyHasher`] keeps the full `String` key and exists to
//!   property-test that the fingerprint never changes a verdict; plug it,
//!   or any other [`StateHasher`], in via [`explore_custom`].
//! * **Shared-prefix states** — the per-branch decision and output
//!   histories are `Arc`-linked cons-lists sharing their prefix with the
//!   parent state, materialized into flat vectors only when the safety
//!   predicate, a violation report, or a replay needs them. Popped states
//!   are recycled through a free-list arena, so steady-state expansion
//!   performs no `Vec` growth.
//! * **Batched frontier** — states are processed in frontier batches of
//!   [`ExploreConfig::batch`] states: the batch is keyed, its revisits are
//!   resolved against the seen-table in batch order, each distinct
//!   `(p, t)` detector answer is sampled once, and the survivors are
//!   safety-checked and expanded. A batch with violations reports the
//!   lexicographically-least decision list among them. Everything runs on
//!   the calling thread.
//!
//! ## State-space reduction
//!
//! On top of the per-state machinery, two opt-in reductions shrink the
//! space itself — they prune *interleavings*, not soundness:
//!
//! * **Dynamic partial-order reduction** ([`ExploreConfig::with_dpor`]) —
//!   sleep sets over an explicit independence relation. Protocols declare
//!   per-step [`Footprint`]s (which inboxes a step may append to, whether
//!   it may output); two enabled steps of different processes are
//!   *independent* when their footprints are disjoint, neither both
//!   output, neither sends into the other's pending λ step, and the
//!   failure pattern and detector are stable across the two adjacent step
//!   times. Once a step has been explored from a state, equivalent
//!   interleavings that merely commute it with independent steps are
//!   skipped ([`ExploreReport::states_pruned_dpor`]). Sleep sets thread
//!   through the frontier entries, survive batching, and are stored in
//!   the seen-table: a revisit is pruned only when the recorded
//!   exploration covered at least as many steps (a depth- and sleep-aware
//!   cover check) — the naive "prune any revisit" composition of sleep
//!   sets with state caching is unsound, and a regression fixture keeps
//!   it that way. Declared footprints are validated against every
//!   executed step, so an under-declaration panics instead of silently
//!   pruning a reachable violation.
//! * **Process-symmetry canonicalization**
//!   ([`ExploreConfig::with_symmetry`]) — protocols declare a symmetry
//!   group ([`Symmetry`], with [`Permutation`] hooks for ids embedded in
//!   state, messages and outputs); before a state is fingerprinted it is
//!   streamed through the hasher once per group element (restricted to
//!   elements preserving the failure pattern and the invocation vector)
//!   and keyed by the least fingerprint. Two states that are renamings of
//!   each other then dedup to one
//!   ([`ExploreReport::symmetry_canonical_hits`]). Decisions and
//!   violations always stay in *original* ids — only the dedup key is
//!   canonicalized — so counterexamples found under reduction replay
//!   through [`Replay`](crate::Replay) and [`crate::repro`] unchanged. Symmetry
//!   is sound only when the safety predicate is itself invariant under
//!   the declared group.
//!
//! Both reductions are deterministic, and both are differentially anchored against the unreduced explorer by the
//! 40-seed equivalence ladders in `tests/explore_dedup.rs`.
//!
//! ```
//! use wfd_sim::{explore, Ctx, ExploreConfig, FailurePattern, NoDetector,
//!               ProcessId, Protocol};
//!
//! #[derive(Clone, Debug)]
//! struct Flood;
//! impl Protocol for Flood {
//!     type Msg = ();
//!     type Output = ();
//!     type Inv = ();
//!     type Fd = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<Self>) { ctx.broadcast_others(()); }
//!     fn on_message(&mut self, _: &mut Ctx<Self>, _: ProcessId, _: ()) {}
//! }
//!
//! let report = explore(
//!     ExploreConfig::new(6),
//!     || vec![Flood, Flood],
//!     vec![None, None],
//!     &FailurePattern::failure_free(2),
//!     NoDetector,
//!     |_procs, _outputs| Ok(()),
//! );
//! assert!(report.violation.is_none());
//! assert!(report.states_visited > 2);
//! ```

use crate::failure::FailurePattern;
use crate::id::{ProcessId, Time};
use crate::json::Json;
use crate::machine::{
    apply_step_into, enabled_decisions, initial_state, materialize_decisions, materialize_outputs,
    ReductionConfig, State, StepEnv,
};
use crate::obs::{CounterId, HistId, Obs, PhaseId};
use crate::oracle::FdOracle;
use crate::protocol::{Footprint, Permutation, Protocol, SendBuf, StepKind, Symmetry};
use std::collections::hash_map::Entry;
use std::collections::HashMap; // wfd-lint: allow(d1-hash-collections, imported only for the seen-table, which is keyed insert/lookup; nothing iterates it)
use std::fmt::Debug;
use std::hash::Hash;
use std::time::Instant; // wfd-lint: allow(d2-wall-clock, feeds obs phase timers only, a side table nothing on the decision path reads; proven by obs_invariance.rs)

/// Cap on the free-list arena (recycled `State` allocations).
const POOL_CAP: usize = 2048;

/// Default frontier batch size. The batch boundaries are part of the
/// deterministic traversal order.
const DEFAULT_BATCH: usize = 256;

/// Bounds for an exploration.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum schedule depth (steps along one branch).
    pub max_depth: usize,
    /// Cap on state expansions (safety net for the caller).
    pub max_states: usize,
    /// Deduplicate states by structural fingerprint (collapses converging
    /// interleavings). A state is pruned only when it was already expanded
    /// at an equal-or-lower depth *with the same output history*, so dedup
    /// never hides a reachable violation within the depth bound.
    pub dedup: bool,
    /// Frontier batch size: how many pending states are deduplicated and
    /// expanded per round. Part of the deterministic traversal order; `1`
    /// reproduces a plain depth-first search exactly.
    pub batch: usize,
    /// The budget-aware revisit rule: a revisited state is re-expanded
    /// when the new visit is strictly shallower (it has more remaining
    /// depth budget than the expansion the seen-table remembers). Enabled
    /// by default — disabling it reintroduces a historical soundness bug
    /// and exists only so regression tests can prove the fixtures still
    /// catch it.
    pub budget_aware: bool,
    /// The state-space reductions ([`ReductionConfig`], shared with
    /// [`LivenessConfig`](crate::LivenessConfig); default: none). DPOR
    /// requires honest [`Protocol::footprint`] declarations — the default
    /// opaque footprint is sound but prunes nothing; symmetry requires
    /// dedup and a group-invariant safety predicate. See the
    /// [module docs](self#state-space-reduction).
    pub reduction: ReductionConfig,
    /// Build sleep sets even at depths where the failure pattern or the
    /// detector oracle changes between `t` and `t + 1` — **test-only**:
    /// reintroduces the naive (unsound) sleep-set implementation that
    /// commutes steps across an oracle transition, so the regression
    /// fixture can prove the stability guard is load-bearing. Meaningless
    /// without [`ReductionConfig::dpor`].
    pub unstable_sleep: bool,
    /// Observability handle (default: [`Obs::off`], which costs nothing).
    /// Metrics never influence the traversal or the report.
    pub obs: Obs,
}

impl ExploreConfig {
    /// Defaults: the given depth, one million states, dedup on, batch size
    /// 256, metrics off.
    pub fn new(max_depth: usize) -> Self {
        ExploreConfig {
            max_depth,
            max_states: 1_000_000,
            dedup: true,
            batch: DEFAULT_BATCH,
            budget_aware: true,
            reduction: ReductionConfig::none(),
            unstable_sleep: false,
            obs: Obs::off(),
        }
    }

    /// Override the state cap.
    pub fn with_max_states(mut self, cap: usize) -> Self {
        self.max_states = cap;
        self
    }

    /// Override deduplication (on by default).
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Does nothing: the explorer runs on the calling thread. Kept for
    /// one release so callers that pinned a worker count still compile.
    #[deprecated(
        since = "0.7.0",
        note = "the explorer has no worker pool; drop the call"
    )]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Override the frontier batch size (`1` ⇒ plain DFS order).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Disable the budget-aware revisit rule — **test-only**: this
    /// deliberately reintroduces the historical "prune shallower revisits"
    /// dedup bug so regression fixtures can prove they still detect it.
    pub fn with_budget_aware(mut self, budget_aware: bool) -> Self {
        self.budget_aware = budget_aware;
        self
    }

    /// Replace the whole reduction configuration (the struct shared with
    /// [`LivenessConfig`](crate::LivenessConfig)).
    pub fn with_reduction(mut self, reduction: ReductionConfig) -> Self {
        self.reduction = reduction;
        self
    }

    /// Enable sleep-set dynamic partial-order reduction (default: off;
    /// shorthand for toggling [`ExploreConfig::reduction`]). Prunes
    /// interleavings that merely commute independent steps, as proven by
    /// the protocol's declared [`Protocol::footprint`]s; with the default
    /// opaque footprints it is a sound no-op. The verdict is unchanged;
    /// the traversal-shaped counters legitimately shrink.
    pub fn with_dpor(mut self, dpor: bool) -> Self {
        self.reduction.dpor = dpor;
        self
    }

    /// Enable process-symmetry canonicalization of dedup keys (default:
    /// off; shorthand for toggling [`ExploreConfig::reduction`]).
    /// Effective only with dedup on and a non-trivial declared
    /// [`Protocol::symmetry`] group; **sound only when the safety
    /// predicate is invariant under that group** (restricted to elements
    /// preserving the failure pattern and invocation vector — the
    /// explorer enforces the restriction itself).
    pub fn with_symmetry(mut self, symmetry: bool) -> Self {
        self.reduction.symmetry = symmetry;
        self
    }

    /// Skip the oracle-stability guard when building sleep sets —
    /// **test-only**: this deliberately reintroduces the naive (unsound)
    /// sleep-set implementation that treats locally-independent steps as
    /// commutable even across a detector transition, so the regression
    /// fixture in `tests/explore_dedup.rs` can prove the guard is
    /// load-bearing (the analogue of
    /// [`ExploreConfig::with_budget_aware`]).
    pub fn with_unstable_sleep(mut self, unstable: bool) -> Self {
        self.unstable_sleep = unstable;
        self
    }

    /// Attach an observability handle (see [`crate::obs`]). Like the
    /// other builders this is an *explicit* choice and therefore beats
    /// the `WFD_METRICS` environment toggle — binaries that want env
    /// control resolve via [`crate::EnvOverrides::resolve_obs`] first.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

pub use crate::machine::ExploreDecision;

/// A safety violation found by [`explore`]: the predicate's message plus
/// the complete decision list of the branch that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreViolation {
    /// The safety predicate's error message.
    pub message: String,
    /// The counterexample branch, one `(actor, message choice)` per step,
    /// materialized from the explorer's shared-prefix chain into a flat
    /// vector. Replayable with [`Replay`](crate::Replay).
    pub decisions: Vec<ExploreDecision>,
}

/// Outcome of an exploration.
#[derive(Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// States expanded in full (post-dedup; a state revisited at a
    /// strictly lower depth is re-expanded and counted again). Revisits
    /// re-expanded only on a restricted decision subset — partial cache
    /// hits under the reductions — count in [`dedup_hits`] instead.
    ///
    /// [`dedup_hits`]: ExploreReport::dedup_hits
    pub states_visited: usize,
    /// Whether some branch hit the depth bound (the space is bigger than
    /// what was explored).
    pub depth_bounded: bool,
    /// Whether the exploration stopped early because `max_states` was
    /// reached (the space was truncated *independently* of the depth
    /// bound).
    pub states_capped: bool,
    /// The safety violation, if one was found: the lexicographically-least
    /// decision list among the violations of the first frontier batch that
    /// contained any.
    pub violation: Option<ExploreViolation>,
    /// Distinct keys committed to the dedup seen-table (0 with dedup off).
    pub dedup_entries: usize,
    /// States pruned as already-covered revisits (0 with dedup off).
    /// Under the reductions this also counts partial cache hits —
    /// revisits re-expanded only on the decisions the seen-table does
    /// not yet cover — and the individual child states a restriction
    /// skipped.
    pub dedup_hits: usize,
    /// High-water mark of the pending-state frontier, in states.
    pub max_frontier_len: usize,
    /// Child states skipped by sleep-set partial-order reduction. 0
    /// unless [`ReductionConfig::dpor`] is on — and 0 with it on when the
    /// protocol declares only the opaque default footprint.
    pub states_pruned_dpor: usize,
    /// Keyed states whose canonical form used a non-identity permutation
    /// (a renaming of an already-seen state was collapsed onto it). 0
    /// unless [`ReductionConfig::symmetry`] found a usable group.
    pub symmetry_canonical_hits: usize,
    /// Whether a state-space reduction ([`ReductionConfig::dpor`] or
    /// [`ReductionConfig::symmetry`]) was requested for this run.
    pub reduction_enabled: bool,
}

/// Renders like a derived `Debug`, followed by `threads_used: 1`: the
/// worker count the report carried while the explorer had a thread pool,
/// kept so digests of earlier renderings (the benchmark pins some) stay
/// valid.
impl Debug for ExploreReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExploreReport")
            .field("states_visited", &self.states_visited)
            .field("depth_bounded", &self.depth_bounded)
            .field("states_capped", &self.states_capped)
            .field("violation", &self.violation)
            .field("dedup_entries", &self.dedup_entries)
            .field("dedup_hits", &self.dedup_hits)
            .field("max_frontier_len", &self.max_frontier_len)
            .field("states_pruned_dpor", &self.states_pruned_dpor)
            .field("symmetry_canonical_hits", &self.symmetry_canonical_hits)
            .field("reduction_enabled", &self.reduction_enabled)
            .field("threads_used", &1usize)
            .finish()
    }
}

impl ExploreReport {
    /// The report as a JSON object (decision lists in the same
    /// `{"step": pid, "msg": index|null}` shape as [`crate::repro`]
    /// artifacts) — used by experiment binaries to make capped or bounded
    /// runs diagnosable from their artifacts.
    pub fn to_json(&self) -> Json {
        let violation = match &self.violation {
            None => Json::Null,
            Some(v) => Json::Obj(vec![
                ("message".to_string(), Json::str(&v.message)),
                (
                    "decisions".to_string(),
                    Json::Arr(
                        v.decisions
                            .iter()
                            .map(|(p, c)| {
                                Json::Obj(vec![
                                    ("step".to_string(), Json::usize(p.index())),
                                    ("msg".to_string(), c.map_or(Json::Null, Json::usize)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        Json::Obj(vec![
            (
                "states_visited".to_string(),
                Json::usize(self.states_visited),
            ),
            ("depth_bounded".to_string(), Json::bool(self.depth_bounded)),
            ("states_capped".to_string(), Json::bool(self.states_capped)),
            ("dedup_entries".to_string(), Json::usize(self.dedup_entries)),
            ("dedup_hits".to_string(), Json::usize(self.dedup_hits)),
            (
                "max_frontier_len".to_string(),
                Json::usize(self.max_frontier_len),
            ),
            (
                "states_pruned_dpor".to_string(),
                Json::usize(self.states_pruned_dpor),
            ),
            (
                "symmetry_canonical_hits".to_string(),
                Json::usize(self.symmetry_canonical_hits),
            ),
            (
                "reduction_enabled".to_string(),
                Json::bool(self.reduction_enabled),
            ),
            ("violation".to_string(), violation),
        ])
    }
}

// ---------------------------------------------------------------------------
// State fingerprinting
// ---------------------------------------------------------------------------

/// How the explorer keys a state for deduplication.
///
/// The key must be a pure function of the four arguments — which together
/// determine everything the safety predicate and the expansion can observe
/// (`pending_inv` is determined by `started` plus the fixed initial
/// invocation vector, so it needs no key component).
///
/// Two implementations ship: [`FingerprintHasher`] (what [`explore`]
/// uses — a 128-bit structural fingerprint, no allocation) and
/// [`ExactKeyHasher`] (the full rendering as a `String`; collision-free
/// but slow, passed to [`explore_custom`] by equivalence tests to prove
/// the fingerprint never changes a verdict).
pub trait StateHasher {
    /// The dedup key type. `Ord` so symmetry canonicalization can take
    /// the least key over the candidate permutations deterministically.
    type Key: Eq + Ord + Hash;

    /// Key the given state components.
    fn key<P: Protocol + Debug>(
        &self,
        procs: &[P],
        inboxes: &[Vec<(ProcessId, P::Msg)>],
        started: &[bool],
        outputs: &[(ProcessId, P::Output)],
    ) -> Self::Key;
}

/// Two independent 64-bit multiply-xor streams over the same byte
/// stream, mixed one 64-bit word at a time and finalized into a 128-bit
/// fingerprint. Implements [`std::fmt::Write`] so the state's `Debug`
/// rendering is hashed as it is produced, without ever materializing the
/// string; bytes are buffered into words *across* fragment boundaries, so
/// the fingerprint depends only on the rendered byte stream, never on how
/// the formatter chose to chunk it.
#[derive(Debug)]
struct Fingerprint128 {
    a: u64,
    b: u64,
    /// Partial word being filled, little-endian; `buf_len` bytes valid.
    buf: u64,
    buf_len: u32,
    len: u64,
}

impl Fingerprint128 {
    // FNV-64 offset basis / golden ratio as the two stream seeds; the
    // word mixer below is the MurmurHash3-x64 inner round (multiply,
    // rotate, multiply, fold), whose rotations diffuse differences
    // downward as well as upward — a plain multiply-xor stream only
    // carries differences toward the high bits, and correlated high-bit
    // differences in two words can then cancel in *both* streams at once
    // (observed as real collisions on structured `Debug` renderings).
    const SEED_A: u64 = 0xcbf2_9ce4_8422_2325;
    const SEED_B: u64 = 0x9e37_79b9_7f4a_7c15;
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;

    fn new() -> Self {
        Fingerprint128 {
            a: Self::SEED_A,
            b: Self::SEED_B,
            buf: 0,
            buf_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn mix_word(&mut self, w: u64) {
        let ka = w
            .wrapping_mul(Self::C1)
            .rotate_left(31)
            .wrapping_mul(Self::C2);
        self.a ^= ka;
        self.a = self
            .a
            .rotate_left(27)
            .wrapping_mul(5)
            .wrapping_add(0x52dc_e729);
        let kb = w
            .wrapping_mul(Self::C2)
            .rotate_left(33)
            .wrapping_mul(Self::C1);
        self.b ^= kb;
        self.b = self
            .b
            .rotate_left(31)
            .wrapping_mul(5)
            .wrapping_add(0x3855_4107);
    }

    fn finish(mut self) -> u128 {
        if self.buf_len > 0 {
            let w = self.buf;
            self.mix_word(w);
        }
        // Fold in the total byte count: a zero-padded final word must not
        // collide with explicit trailing NULs or an empty tail.
        let len = self.len;
        self.mix_word(len);
        // splitmix64-style finalizer on each stream so nearby inputs
        // spread across the whole key space.
        fn avalanche(mut x: u64) -> u64 {
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        (u128::from(avalanche(self.a)) << 64) | u128::from(avalanche(self.b))
    }
}

impl std::fmt::Write for Fingerprint128 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let mut bytes = s.as_bytes();
        self.len += bytes.len() as u64;
        // Top up a partial word left by the previous fragment.
        while self.buf_len > 0 {
            let Some((&byte, rest)) = bytes.split_first() else {
                return Ok(());
            };
            bytes = rest;
            self.buf |= u64::from(byte) << (8 * self.buf_len);
            self.buf_len += 1;
            if self.buf_len == 8 {
                let w = self.buf;
                self.mix_word(w);
                self.buf = 0;
                self.buf_len = 0;
            }
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.mix_word(w);
        }
        for &byte in chunks.remainder() {
            self.buf |= u64::from(byte) << (8 * self.buf_len);
            self.buf_len += 1;
        }
        Ok(())
    }
}

/// The [`StateHasher`] [`explore`] uses: a 128-bit structural
/// fingerprint of the state's `Debug` rendering, computed streaming (no
/// `String` is ever allocated or stored). Collisions are possible in
/// principle (2⁻¹²⁸-ish); the `explore_dedup` property suite continuously
/// checks verdict equivalence against [`ExactKeyHasher`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FingerprintHasher;

impl StateHasher for FingerprintHasher {
    type Key = u128;

    fn key<P: Protocol + Debug>(
        &self,
        procs: &[P],
        inboxes: &[Vec<(ProcessId, P::Msg)>],
        started: &[bool],
        outputs: &[(ProcessId, P::Output)],
    ) -> u128 {
        use std::fmt::Write;
        let mut w = Fingerprint128::new();
        write!(w, "{procs:?}|{inboxes:?}|{started:?}|{outputs:?}")
            .expect("fingerprint writer is infallible");
        w.finish()
    }
}

/// The exact (collision-free) [`StateHasher`]: the full `Debug` rendering
/// as a heap `String`. Slow and memory-hungry; passed to
/// [`explore_custom`] by equivalence tests (and available to callers that
/// want certainty over speed) to cross-check [`FingerprintHasher`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactKeyHasher;

impl StateHasher for ExactKeyHasher {
    type Key = String;

    fn key<P: Protocol + Debug>(
        &self,
        procs: &[P],
        inboxes: &[Vec<(ProcessId, P::Msg)>],
        started: &[bool],
        outputs: &[(ProcessId, P::Output)],
    ) -> String {
        format!("{procs:?}|{inboxes:?}|{started:?}|{outputs:?}")
    }
}

// ---------------------------------------------------------------------------
// State-space reduction machinery: sleep sets, seen-covers, symmetry
// ---------------------------------------------------------------------------

/// Membership in a sorted sleep set.
fn sleep_contains(sleep: &[ExploreDecision], d: ExploreDecision) -> bool {
    sleep.binary_search(&d).is_ok()
}

/// `a ⊆ b` over sorted decision sets (merge scan).
fn sleep_subset(a: &[ExploreDecision], b: &[ExploreDecision]) -> bool {
    let mut b_iter = b.iter();
    'outer: for x in a {
        for y in b_iter.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// One recorded expansion of a seen key: the depth it ran from and the
/// enabled decisions it *slept* (skipped). A revisit is covered — safely
/// prunable — only by an entry that had at least as much remaining depth
/// budget (`depth ≤` the revisit's) and slept at most what the revisit
/// would sleep (`sleep ⊆` the revisit's): the recorded subtree then
/// contains every run the revisit could contribute. This is the
/// sleep-aware caching rule from Godefroid's state-space caching work:
/// pruning any revisit regardless of its sleep set is unsound in
/// general, because the earlier visit may have skipped exactly the
/// direction the revisit still needs. The entries of one key form a
/// small Pareto front: no entry dominates another. A revisit no single
/// entry covers is not necessarily re-expanded in full: the resolution
/// pass restricts it to the intersection of the valid entries' sleeps —
/// everything outside that intersection is covered by *some* entry (see
/// [`State::restrict`]).
struct SeenCover {
    depth: usize,
    sleep: Vec<ExploreDecision>,
}

/// Whether the recorded covers of a key cover a visit at `depth` that
/// would sleep `sleep`. Coverage only ever *grows* as entries are pushed.
fn covered_by(
    covers: &[SeenCover],
    depth: usize,
    sleep: &[ExploreDecision],
    budget_aware: bool,
) -> bool {
    covers
        .iter()
        .any(|c| (!budget_aware || c.depth <= depth) && sleep_subset(&c.sleep, sleep))
}

/// Record a kept (re-)expansion: push its cover and drop entries it
/// dominates. Without reductions every sleep is empty, so this degenerates
/// to the historical single min-depth entry per key.
fn push_cover(entry: &mut Vec<SeenCover>, depth: usize, sleep: Vec<ExploreDecision>) {
    entry.retain(|c| !(depth <= c.depth && sleep_subset(&sleep, &c.sleep)));
    entry.push(SeenCover { depth, sleep });
}

/// Fingerprint one `Debug` rendering — used to compare detector values
/// and invocation slots for equality, since `Fd`/`Inv` only promise
/// `Debug` (the same representation choice the state keys make).
pub(crate) fn debug_fp<T: Debug>(v: &T) -> u128 {
    use std::fmt::Write;
    let mut w = Fingerprint128::new();
    write!(w, "{v:?}").expect("fingerprint writer is infallible");
    w.finish()
}

/// Dense per-batch cache of one detector value per `(process, time)`
/// pair, with a touched-slot list so clearing between batches costs
/// O(entries written), not O(capacity). Replaces a `HashMap` keyed by
/// `(usize, Time)`: the cache sits on determinism-scoped code, and dense
/// indexing leaves no iteration-order question for wfd-lint to audit.
struct FdTable<F> {
    slots: Vec<Option<F>>,
    touched: Vec<usize>,
    stride: usize,
}

impl<F> FdTable<F> {
    /// One slot per `(p, t)` with `p < n` and `t <= max_depth`.
    fn new(n: usize, max_depth: usize) -> Self {
        let stride = max_depth + 1;
        FdTable {
            slots: (0..n * stride).map(|_| None).collect(),
            touched: Vec::new(),
            stride,
        }
    }

    fn clear(&mut self) {
        for &i in &self.touched {
            self.slots[i] = None;
        }
        self.touched.clear();
    }

    fn fill_with(&mut self, p: usize, t: Time, f: impl FnOnce() -> F) {
        let i = p * self.stride + t as usize;
        if self.slots[i].is_none() {
            self.slots[i] = Some(f());
            self.touched.push(i);
        }
    }

    fn get(&self, p: usize, t: Time) -> &F {
        self.slots[p * self.stride + t as usize]
            .as_ref()
            .expect("oracle phase fills every alive (p, t) in the batch")
    }
}

/// Dense per-batch map from a survivor depth to the DPOR stability
/// verdict at that depth (same touched-list clearing discipline as
/// [`FdTable`], same `HashMap`-replacement rationale).
struct DepthTable {
    slots: Vec<Option<bool>>,
    touched: Vec<usize>,
}

impl DepthTable {
    fn new(max_depth: usize) -> Self {
        DepthTable {
            slots: vec![None; max_depth + 1],
            touched: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for &i in &self.touched {
            self.slots[i] = None;
        }
        self.touched.clear();
    }

    fn contains(&self, t: Time) -> bool {
        self.slots[t as usize].is_some()
    }

    fn insert(&mut self, t: Time, v: bool) {
        let i = t as usize;
        if self.slots[i].is_none() {
            self.touched.push(i);
        }
        self.slots[i] = Some(v);
    }

    fn get(&self, t: Time) -> Option<bool> {
        self.slots[t as usize]
    }
}

/// Whether two enabled decisions at the same state are *independent* —
/// executing them in either order yields the same state, and neither
/// order hides the other's enabledness. Requires (checked by the caller)
/// that the failure pattern and detector are stable across the two
/// adjacent step times. `fa`/`fb` are the decisions' declared footprints;
/// `started` is the state's started vector.
fn independent(
    (p, ca): ExploreDecision,
    fa: &Footprint,
    (q, cb): ExploreDecision,
    fb: &Footprint,
    started: &[bool],
) -> bool {
    // A process's own steps always conflict (they share its local state
    // and inbox); two outputs conflict (the output history is ordered and
    // safety-visible); two sends to a common inbox conflict (the append
    // order is part of the state); a send into a process whose decision
    // is a λ step disables that step (λ requires an empty inbox) — start
    // steps are immune, they read no inbox.
    p != q
        && !(fa.may_output() && fb.may_output())
        && !fa.sends_intersect(fb)
        && !(fa.may_send_to(q) && cb.is_none() && started[q.index()])
        && !(fb.may_send_to(p) && ca.is_none() && started[p.index()])
}

/// The declared footprint of one enabled decision at `state`.
fn decision_footprint<P: Protocol>(state: &State<P>, d: ExploreDecision, n: usize) -> Footprint {
    let (p, choice) = d;
    let idx = p.index();
    if !state.started[idx] {
        let kind = StepKind::Start {
            inv: state.pending_inv[idx].as_ref(),
        };
        return state.procs[idx].footprint(p, n, kind);
    }
    let kind = match choice {
        Some(i) if !state.inboxes[idx].is_empty() => {
            let i = i.min(state.inboxes[idx].len() - 1);
            let (from, msg) = &state.inboxes[idx][i];
            StepKind::Deliver { from: *from, msg }
        }
        _ => StepKind::Tick,
    };
    state.procs[idx].footprint(p, n, kind)
}

/// A usable non-identity symmetry group element, with its inverse image
/// table cached for state rebuilding (`inverse[j]` = the original slot
/// canonical slot `j` is filled from).
pub(crate) struct SymPerm {
    pub(crate) perm: Permutation,
    pub(crate) inverse: Vec<usize>,
}

/// Restrict the protocol's declared symmetry group to the elements this
/// *scenario* cannot distinguish: preserving the failure pattern at every
/// step time, mapping invocation slots onto `Debug`-equal ones, and
/// seeing a structurally equal detector value at every alive `(p, t)`
/// (`P::Fd: PartialEq`; invocations only promise `Debug`). Asymmetric
/// scenarios thus never inherit a symmetric protocol's full group. The
/// identity is excluded — it is the implicit first candidate of every
/// canonicalization.
pub(crate) fn scenario_symmetry<P, D>(
    n: usize,
    max_depth: usize,
    pattern: &FailurePattern,
    invocations: &[Option<P::Inv>],
    detector: &mut D,
) -> Vec<SymPerm>
where
    P: Protocol,
    D: FdOracle<Value = P::Fd>,
{
    let declared: Symmetry = P::symmetry(n);
    let group = declared.permutations(n);
    if group.len() <= 1 {
        return Vec::new();
    }
    let inv_fps: Vec<u128> = invocations.iter().map(debug_fp).collect();
    // One detector sample per (p, t) — oracles are pure in (p, t), so
    // sampling here cannot perturb the exploration's own queries.
    let fd_samples: Vec<Vec<Option<P::Fd>>> = ProcessId::all(n)
        .map(|p| {
            (0..max_depth)
                .map(|t| {
                    let t = t as Time;
                    (!pattern.is_crashed(p, t)).then(|| detector.query(p, t))
                })
                .collect()
        })
        .collect();
    group
        .into_iter()
        .filter(|perm| !perm.is_identity())
        .filter(|perm| {
            ProcessId::all(n).all(|p| {
                let q = perm.apply(p);
                inv_fps[p.index()] == inv_fps[q.index()]
                    && (0..max_depth).all(|t| {
                        pattern.is_crashed(p, t as Time) == pattern.is_crashed(q, t as Time)
                            && fd_samples[p.index()][t] == fd_samples[q.index()][t]
                    })
            })
        })
        .map(|perm| {
            let inverse = perm.inverse_map();
            SymPerm { perm, inverse }
        })
        .collect()
}

/// Scratch for building permuted state views (allocations are reused
/// across the states and permutations of an exploration).
struct SymScratch<P: Protocol> {
    procs: Vec<P>,
    inboxes: Vec<Vec<(ProcessId, P::Msg)>>,
    started: Vec<bool>,
    outputs: Vec<(ProcessId, P::Output)>,
}

impl<P: Protocol> SymScratch<P> {
    fn new(n: usize) -> Self {
        SymScratch {
            procs: Vec::with_capacity(n),
            inboxes: vec![Vec::new(); n],
            started: vec![false; n],
            outputs: Vec::new(),
        }
    }
}

/// The canonical dedup key of a state under the scenario's symmetry
/// group: the least key over the identity and every usable permutation,
/// plus the index of the permutation that realized it (`None` when the
/// identity is least — ties break toward the identity, then toward the
/// earlier group element, so the choice is deterministic).
fn canonical_key<H, P>(
    hasher: &H,
    state: &State<P>,
    outputs: &[(ProcessId, P::Output)],
    perms: &[SymPerm],
    scratch: &mut SymScratch<P>,
) -> (H::Key, Option<usize>)
where
    H: StateHasher,
    P: Protocol + Clone + Debug,
{
    let mut best = hasher.key(&state.procs, &state.inboxes, &state.started, outputs);
    let mut best_perm = None;
    let n = state.procs.len();
    for (pi, sp) in perms.iter().enumerate() {
        // Canonical slot j is original slot inverse[j], with every
        // embedded id rewritten forward through the permutation. Inbox
        // order is preserved — appends are order-sensitive state.
        scratch.procs.clear();
        for j in 0..n {
            let mut proc = state.procs[sp.inverse[j]].clone();
            proc.permute(&sp.perm);
            scratch.procs.push(proc);
            scratch.started[j] = state.started[sp.inverse[j]];
            let inbox = &mut scratch.inboxes[j];
            inbox.clear();
            inbox.extend(state.inboxes[sp.inverse[j]].iter().map(|(from, msg)| {
                let mut msg = msg.clone();
                P::permute_msg(&mut msg, &sp.perm);
                (sp.perm.apply(*from), msg)
            }));
        }
        scratch.outputs.clear();
        scratch.outputs.extend(outputs.iter().map(|(p, out)| {
            let mut out = out.clone();
            P::permute_output(&mut out, &sp.perm);
            (sp.perm.apply(*p), out)
        }));
        let key = hasher.key(
            &scratch.procs,
            &scratch.inboxes,
            &scratch.started,
            &scratch.outputs,
        );
        if key < best {
            best = key;
            best_perm = Some(pi);
        }
    }
    (best, best_perm)
}

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

/// Return a no-longer-needed state to the arena (dropping its shared
/// history links so unshared chain segments are freed promptly).
fn recycle<P: Protocol>(mut s: State<P>, pool: &mut Vec<State<P>>) {
    if pool.len() >= POOL_CAP {
        return;
    }
    s.outputs = None;
    s.decisions = None;
    s.sleep.clear();
    s.restrict = None;
    pool.push(s);
}

/// Exhaustively explore message-delivery interleavings, keying visited
/// states by [`FingerprintHasher`]. See [`explore_custom`] for the
/// traversal mechanics (and for keying by another [`StateHasher`]).
///
/// * `make_procs` builds the initial configuration (fresh per call).
/// * `invocations[p]` is consumed at `p`'s first step (with `on_start`).
/// * `detector` must be a pure function of `(p, t)` (as all oracles are);
///   the step's time is its depth.
/// * `safety` is evaluated in every reachable state over the protocol
///   states and all outputs emitted so far; returning `Err` stops the
///   exploration with a replayable counterexample.
pub fn explore<P, D>(
    cfg: ExploreConfig,
    make_procs: impl Fn() -> Vec<P>,
    invocations: Vec<Option<P::Inv>>,
    pattern: &FailurePattern,
    detector: D,
    safety: impl Fn(&[P], &[(ProcessId, P::Output)]) -> Result<(), String>,
) -> ExploreReport
where
    P: Protocol + Clone + Debug,
    D: FdOracle<Value = P::Fd>,
{
    explore_custom(
        cfg,
        FingerprintHasher,
        make_procs,
        invocations,
        pattern,
        detector,
        safety,
    )
}

/// [`explore`] keyed by an explicit, possibly user-defined,
/// [`StateHasher`].
///
/// Traversal: batched depth-first. Each round pops up to
/// [`ExploreConfig::batch`] states off the frontier stack (`batch == 1` is
/// bit-for-bit the classic DFS) and runs five phases over them, each
/// timed as its own [`Obs`] phase:
///
/// 1. *key* — key every batch state, canonicalized under symmetry;
/// 2. *revisit* — resolve the budget-aware revisit rule against the
///    seen-table in batch order (the rule is order-dependent);
/// 3. *oracle* — sample each distinct `(p, t)` detector answer the batch
///    needs once (oracles are pure in `(p, t)`);
/// 4. *expand* — safety-check every survivor and push its children onto
///    the stack, in survivor order;
/// 5. *merge* — end the exploration if the batch had violations, with the
///    lexicographically-least decision list among them; otherwise commit
///    the batch's prune counts and recycle its states.
pub fn explore_custom<H, P, D>(
    cfg: ExploreConfig,
    hasher: H,
    make_procs: impl Fn() -> Vec<P>,
    invocations: Vec<Option<P::Inv>>,
    pattern: &FailurePattern,
    mut detector: D,
    safety: impl Fn(&[P], &[(ProcessId, P::Output)]) -> Result<(), String>,
) -> ExploreReport
where
    H: StateHasher,
    P: Protocol + Clone + Debug,
    D: FdOracle<Value = P::Fd>,
{
    let batch_cap = cfg.batch.max(1);
    // Metrics (side table only — nothing below reads them back, so the
    // traversal and the report are byte-identical with metrics on or
    // off). The clock is read once per *phase*, never per state, and
    // only when the handle is on.
    let obs = cfg.obs.clone();
    let t_start = obs.is_on().then(Instant::now); // wfd-lint: allow(d2-wall-clock, read once per phase for obs metrics only; never compared on the decision path)

    // Resolve the scenario's usable symmetry group before the invocation
    // vector is consumed by the initial state (the filter compares its
    // slots). Without dedup there is no key to canonicalize.
    let sym_perms: Vec<SymPerm> = if cfg.reduction.symmetry && cfg.dedup {
        scenario_symmetry::<P, D>(
            invocations.len(),
            cfg.max_depth,
            pattern,
            &invocations,
            &mut detector,
        )
    } else {
        Vec::new()
    };
    let root = initial_state(make_procs(), invocations);
    let n = root.procs.len();
    let env = StepEnv { pattern, n };

    // Seen-table: state key → the Pareto front of recorded expansions
    // (depth, sleep set) — see [`SeenCover`]. A revisit is pruned only
    // when some recorded expansion had at least as much remaining depth
    // budget *and* slept no more than the revisit would; without
    // reductions this degenerates to the historical "lowest expanded
    // depth" rule. The key includes the output history: the safety
    // predicate reads outputs, so two branches that converge in
    // `(procs, inboxes, started)` but emitted different outputs are
    // *different* states to the checker.
    let mut seen = HashMap::<H::Key, Vec<SeenCover>>::new(); // wfd-lint: allow(d1-hash-collections, keyed insert/lookup only; dedup_entries reads len(), never iterates entries)

    let mut stack = vec![root];
    // Free-list arena of recycled states, persistent across batches.
    let mut free: Vec<State<P>> = Vec::new();
    let mut survivors: Vec<State<P>> = Vec::new();
    // The key phase's output, one entry per batch state in batch order:
    // the key, the sleep set in the key's coordinates, and the index of
    // the canonicalizing permutation.
    let mut keyed: Vec<(H::Key, Vec<ExploreDecision>, Option<usize>)> = Vec::new();
    let mut scratch = (!sym_perms.is_empty()).then(|| SymScratch::<P>::new(n));
    let mut fd_cache: FdTable<P::Fd> = FdTable::new(n, cfg.max_depth);
    // Per-batch map: survivor depth `t` → whether the failure pattern and
    // the detector are stable across times `t` and `t + 1` (the
    // precondition for certifying independence at that depth).
    let mut dpor_stable = DepthTable::new(cfg.max_depth);
    // Expansion buffers, reused across every state: materialized outputs,
    // the machine's send/output buffers, the machine-layer enabled set,
    // and the DPOR scratch (the sleeping decisions' footprints and the
    // decisions already executed at the current state, with theirs).
    let mut outputs = Vec::new();
    let mut bufs: (SendBuf<P>, Vec<P::Output>) = (Vec::new(), Vec::new());
    let mut enabled: Vec<ExploreDecision> = Vec::new();
    let mut sleep_fps: Vec<(ExploreDecision, Footprint)> = Vec::new();
    let mut executed: Vec<(ExploreDecision, Footprint)> = Vec::new();

    let mut states_visited = 0usize;
    let mut depth_bounded = false;
    let mut states_capped = false;
    let mut dedup_hits = 0usize;
    let mut max_frontier_len = 0usize;
    let mut states_pruned_dpor = 0usize;
    let mut symmetry_canonical_hits = 0usize;

    let found = loop {
        max_frontier_len = max_frontier_len.max(stack.len());
        if stack.is_empty() {
            break None;
        }
        if states_visited >= cfg.max_states {
            states_capped = true;
            break None;
        }

        // The batch is the top `take` states of the stack; batch index
        // `j` is stack slot `top - 1 - j`, so batch order is pop order
        // and `batch == 1` reproduces the depth-first order exactly. The
        // states are keyed *in place* — they move at most once, straight
        // into `survivors`.
        let take = batch_cap.min(stack.len());
        let top = stack.len();
        obs.add(CounterId::ExploreBatches, 1);
        obs.record(HistId::ExploreFrontierLen, stack.len() as u64);
        obs.record(HistId::ExploreBatchSize, take as u64);

        survivors.clear();
        if cfg.dedup {
            let key_phase = obs.phase(PhaseId::ExploreKey);
            for state in stack[top - take..].iter().rev() {
                materialize_outputs(&state.outputs, state.outputs_len, &mut outputs);
                let (key, arg_perm) = match &mut scratch {
                    Some(scratch) => {
                        let (key, arg) =
                            canonical_key(&hasher, state, &outputs, &sym_perms, scratch);
                        symmetry_canonical_hits += usize::from(arg.is_some());
                        (key, arg)
                    }
                    None => (
                        hasher.key(&state.procs, &state.inboxes, &state.started, &outputs),
                        None,
                    ),
                };
                // The sleep set enters the seen-table in the *same*
                // coordinates as the key: mapped through the
                // canonicalizing permutation (inbox indices survive
                // unchanged — permutation preserves inbox order).
                let canon_sleep = match arg_perm {
                    None => state.sleep.clone(),
                    Some(pi) => {
                        let perm = &sym_perms[pi].perm;
                        let mut sl: Vec<ExploreDecision> = state
                            .sleep
                            .iter()
                            .map(|&(p, c)| (perm.apply(p), c))
                            .collect();
                        sl.sort_unstable();
                        sl
                    }
                };
                keyed.push((key, canon_sleep, arg_perm));
            }
            drop(key_phase);

            // Revisit phase, in batch order: the revisit rule is
            // order-dependent *within* a batch.
            let _revisit_phase = obs.phase(PhaseId::ExploreRevisit);
            for (key, canon_sleep, arg_perm) in keyed.drain(..) {
                let mut state = stack.pop().expect("batch within stack");
                let keep = match seen.entry(key) {
                    Entry::Occupied(mut e) => {
                        if covered_by(e.get(), state.depth, &canon_sleep, cfg.budget_aware) {
                            false
                        } else {
                            // Partial cover — restricted re-expansion
                            // (Godefroid's state-space caching). Every
                            // decision some *valid* cover (one with at least
                            // as much remaining depth budget) did not sleep
                            // already has an explored subtree; only the
                            // intersection of the valid covers' sleeps may
                            // still hide unexplored runs. When that
                            // intersection is asleep here too, the covers
                            // jointly subsume this visit even though no
                            // single one does — prune, after strengthening
                            // the front with this visit's cover (its claim
                            // is backed by the same union). Otherwise keep
                            // the state, restricted to the intersection
                            // mapped back from the table's canonical
                            // coordinates into this state's own ids (inbox
                            // positions survive — permutations preserve inbox
                            // order). `restrict` stays `None` exactly when no
                            // cover is valid, or when DPOR is off (all sleeps
                            // empty then, so any valid cover is a full
                            // cover).
                            let mut valid = e
                                .get()
                                .iter()
                                .filter(|c| !cfg.budget_aware || c.depth <= state.depth);
                            let mandatory = valid.next().map(|first| {
                                let mut m = first.sleep.clone();
                                for c in valid {
                                    m.retain(|d| sleep_contains(&c.sleep, *d));
                                }
                                m
                            });
                            // The cover this visit records claims only what
                            // is actually backed: with a restriction,
                            // everything outside `mandatory ∩ canon_sleep` is
                            // explored — either expanded now (in `mandatory`,
                            // awake) or by the cover union (outside
                            // `mandatory`). Recording that smaller sleep
                            // makes the front converge: repeat revisits with
                            // fresh sleeps shrink the recorded sleep toward
                            // the intersection until full prunes take over.
                            match mandatory {
                                Some(m) if m.iter().all(|d| sleep_contains(&canon_sleep, *d)) => {
                                    push_cover(e.get_mut(), state.depth, m);
                                    false
                                }
                                Some(mut m) => {
                                    let cover_sleep: Vec<ExploreDecision> = m
                                        .iter()
                                        .copied()
                                        .filter(|d| sleep_contains(&canon_sleep, *d))
                                        .collect();
                                    if let Some(pi) = arg_perm {
                                        let inv = &sym_perms[pi].inverse;
                                        for (p, _) in m.iter_mut() {
                                            *p = ProcessId(inv[p.index()]);
                                        }
                                        m.sort_unstable();
                                    }
                                    state.restrict = Some(m);
                                    push_cover(e.get_mut(), state.depth, cover_sleep);
                                    true
                                }
                                None => {
                                    push_cover(e.get_mut(), state.depth, canon_sleep);
                                    true
                                }
                            }
                        }
                    }
                    Entry::Vacant(v) => {
                        v.insert(vec![SeenCover {
                            depth: state.depth,
                            sleep: canon_sleep,
                        }]);
                        true
                    }
                };
                if keep {
                    survivors.push(state);
                } else {
                    dedup_hits += 1;
                    recycle(state, &mut free);
                }
            }
        } else {
            survivors.extend(stack.drain(top - take..).rev());
        }

        // Enforce the state cap mid-batch, in batch order. Restricted
        // revisits (partial cache hits — see [`State::restrict`]) count
        // neither toward the cap nor toward `states_visited`: the state
        // itself was already visited in full; only its residual decisions
        // are expanded. They land in `dedup_hits` with the fully covered
        // revisits.
        let remaining = cfg.max_states - states_visited;
        let mut full_visits = 0usize;
        let mut cut = survivors.len();
        for (i, s) in survivors.iter().enumerate() {
            if s.restrict.is_none() {
                if full_visits == remaining {
                    cut = i;
                    break;
                }
                full_visits += 1;
            }
        }
        if cut < survivors.len() {
            states_capped = true;
            for s in survivors.drain(cut..) {
                recycle(s, &mut free);
            }
        }
        states_visited += full_visits;
        dedup_hits += survivors.len() - full_visits;
        if survivors.is_empty() {
            continue;
        }

        // Oracle phase: detector answers are pure functions of `(p, t)`
        // (the FdOracle contract), so one query per distinct pair serves
        // the whole batch.
        let oracle_phase = obs.phase(PhaseId::ExploreOracle);
        fd_cache.clear();
        dpor_stable.clear();
        for state in &survivors {
            obs.record(HistId::ExploreStateDepth, state.depth as u64);
            if state.depth >= cfg.max_depth {
                continue;
            }
            let t = state.depth as Time;
            for p in ProcessId::all(n) {
                if !pattern.is_crashed(p, t) {
                    fd_cache.fill_with(p.index(), t, || detector.query(p, t));
                }
            }
            if cfg.reduction.dpor && !dpor_stable.contains(t) {
                // Independence at depth `t` commutes a step between times
                // `t` and `t + 1`; that is only behavior-preserving when
                // no process's crash status changes and every alive
                // process sees the same detector value at both times.
                // The comparison is structural (`P::Fd: PartialEq`): a
                // `Debug`-fingerprint proxy would wrongly certify
                // independence for distinct values that print alike.
                let stable = ProcessId::all(n).all(|p| {
                    let crashed = pattern.is_crashed(p, t);
                    crashed == pattern.is_crashed(p, t + 1)
                        && (crashed || *fd_cache.get(p.index(), t) == detector.query(p, t + 1))
                });
                dpor_stable.insert(t, stable);
            }
        }
        drop(oracle_phase);

        // Expansion phase: safety-check each survivor and push its
        // children onto the stack. Children skipped because their
        // decision was asleep, or fell outside a partially covered
        // revisit's [`State::restrict`] set (the seen-table already
        // covers their subtree), are counted per batch and committed only
        // if the batch turns out violation-free.
        let expand_phase = obs.phase(PhaseId::ExploreExpand);
        let mut violations: Vec<ExploreViolation> = Vec::new();
        let mut batch_dpor_pruned = 0usize;
        let mut batch_restricted = 0usize;
        for state in &survivors {
            // A restricted revisit's safety verdict is fixed by its
            // first visit — the key covers the procs and the output
            // history, and a violation there would have ended the
            // exploration — so only full visits are checked.
            if state.restrict.is_none() {
                materialize_outputs(&state.outputs, state.outputs_len, &mut outputs);
                if let Err(message) = safety(&state.procs, &outputs) {
                    violations.push(ExploreViolation {
                        message,
                        decisions: materialize_decisions(&state.decisions),
                    });
                    continue;
                }
            }
            if state.depth >= cfg.max_depth {
                depth_bounded = true;
                continue;
            }
            // A violation in this batch ends the exploration before its
            // children are ever popped, so once one is seen only the
            // safety checks and flags above still matter.
            if !violations.is_empty() {
                continue;
            }
            let t = state.depth as Time;
            // The branching rule is the machine layer's enabled set —
            // the same enumeration, in the same order, that
            // `ProtocolMachine` exposes and the baseline explorer walks.
            enabled.clear();
            enabled_decisions(state, pattern, n, &mut enabled);
            if cfg.reduction.dpor {
                // Sleep-set expansion (Godefroid): skip sleeping
                // decisions; a child's sleep is the still-independent
                // part of the parent's sleep plus the earlier-executed
                // independent decisions — certified only when the
                // pattern and detector are stable at this depth.
                let stable = cfg.unstable_sleep || dpor_stable.get(t).unwrap_or(false);
                sleep_fps.clear();
                sleep_fps.extend(
                    state
                        .sleep
                        .iter()
                        .map(|&d| (d, decision_footprint(state, d, n))),
                );
                executed.clear();
                for &d in &enabled {
                    let (p, choice) = d;
                    if sleep_contains(&state.sleep, d) {
                        batch_dpor_pruned += 1;
                        continue;
                    }
                    if let Some(mandatory) = &state.restrict {
                        if !sleep_contains(mandatory, d) {
                            // Outside the restriction: an earlier visit's
                            // recorded expansion already covers this
                            // subtree (see the revisit phase). Skip it,
                            // and — when independence is certified at
                            // this depth — let later siblings' children
                            // sleep it, exactly as if it had been
                            // executed first.
                            batch_restricted += 1;
                            if stable {
                                sleep_fps.push((d, decision_footprint(state, d, n)));
                            }
                            continue;
                        }
                    }
                    let fd = fd_cache.get(p.index(), t);
                    let fp = decision_footprint(state, d, n);
                    let mut dst = free.pop().unwrap_or_else(State::blank);
                    apply_step_into(
                        &env,
                        state,
                        &mut dst,
                        p,
                        fd.clone(),
                        choice,
                        &mut bufs,
                        Some(&fp),
                    );
                    if stable {
                        dst.sleep.extend(
                            sleep_fps
                                .iter()
                                .chain(executed.iter())
                                .filter(|(e, efp)| independent(*e, efp, d, &fp, &state.started))
                                .map(|(e, _)| *e),
                        );
                        dst.sleep.sort_unstable();
                    }
                    stack.push(dst);
                    executed.push((d, fp));
                }
            } else {
                for &(p, choice) in &enabled {
                    let fd = fd_cache.get(p.index(), t);
                    let mut dst = free.pop().unwrap_or_else(State::blank);
                    apply_step_into(
                        &env,
                        state,
                        &mut dst,
                        p,
                        fd.clone(),
                        choice,
                        &mut bufs,
                        None,
                    );
                    stack.push(dst);
                }
            }
        }
        drop(expand_phase);

        // Merge: a batch with violations reports the least decision list
        // among them, before its prune counts (which stop short at the
        // first violation) are committed.
        let _merge_phase = obs.phase(PhaseId::ExploreMerge);
        if let Some(best) = violations
            .into_iter()
            .min_by(|a, b| a.decisions.cmp(&b.decisions))
        {
            break Some(best);
        }
        // Restricted-out children are seen-table economies, so they land
        // in `dedup_hits`.
        states_pruned_dpor += batch_dpor_pruned;
        dedup_hits += batch_restricted;
        for s in survivors.drain(..) {
            recycle(s, &mut free);
        }
        // No `max_frontier_len` update here: the loop top re-reads
        // `stack.len()` before anything can break, so the post-merge
        // length is always captured there.
        obs.heartbeat(|| {
            let secs = t_start
                .expect("heartbeat implies on")
                .elapsed()
                .as_secs_f64();
            let attempted = states_visited + dedup_hits;
            format!(
                "explore: {} states ({:.0}/s), dedup {:.1}% of {} keyed, frontier {} (hw {})",
                states_visited,
                states_visited as f64 / secs.max(1e-9),
                100.0 * dedup_hits as f64 / attempted.max(1) as f64,
                attempted,
                stack.len(),
                max_frontier_len,
            )
        });
    };

    let dedup_entries = seen.len();
    if obs.is_on() {
        obs.add(CounterId::ExploreRuns, 1);
        obs.add(CounterId::ExploreStatesVisited, states_visited as u64);
        obs.add(CounterId::ExploreDedupHits, dedup_hits as u64);
        obs.add(CounterId::ExploreDedupEntries, dedup_entries as u64);
        obs.add(CounterId::ExploreDporPruned, states_pruned_dpor as u64);
        obs.add(
            CounterId::ExploreSymmetryHits,
            symmetry_canonical_hits as u64,
        );
    }
    ExploreReport {
        states_visited,
        depth_bounded,
        states_capped,
        violation: found,
        dedup_entries,
        dedup_hits,
        max_frontier_len,
        states_pruned_dpor,
        symmetry_canonical_hits,
        reduction_enabled: cfg.reduction.any(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{DecisionNode, OutputNode, Replay};
    use crate::oracle::NoDetector;
    use crate::protocol::Ctx;
    use std::sync::Arc;

    /// Each process outputs every message payload it receives.
    #[derive(Clone, Debug)]
    struct Tag {
        sent: bool,
    }

    impl Protocol for Tag {
        type Msg = u8;
        type Output = u8;
        type Inv = u8;
        type Fd = ();

        fn on_invoke(&mut self, ctx: &mut Ctx<Self>, inv: u8) {
            if !self.sent {
                self.sent = true;
                ctx.broadcast_others(inv);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, msg: u8) {
            ctx.output(msg);
        }
    }

    fn two_taggers() -> Vec<Tag> {
        vec![Tag { sent: false }, Tag { sent: false }]
    }

    #[test]
    fn explores_all_delivery_orders() {
        let report = explore(
            ExploreConfig::new(8),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
        assert!(report.violation.is_none());
        assert!(report.states_visited >= 6, "got {}", report.states_visited);
    }

    #[test]
    fn finds_a_planted_violation_with_counterexample() {
        // "Nobody ever outputs 2" is violated on the branch where p1's
        // broadcast is delivered.
        let report = explore(
            ExploreConfig::new(8),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, outputs| {
                if outputs.iter().any(|(_, o)| *o == 2) {
                    Err("saw a 2".into())
                } else {
                    Ok(())
                }
            },
        );
        let violation = report.violation.expect("must find the violation");
        assert_eq!(violation.message, "saw a 2");
        assert!(
            !violation.decisions.is_empty(),
            "counterexample decisions provided"
        );
        assert!(
            violation.decisions.iter().any(|&(p, _)| p == ProcessId(1)),
            "p1 must have acted"
        );
    }

    #[test]
    fn violations_replay_to_the_same_message() {
        let safety = |_: &[Tag], outputs: &[(ProcessId, u8)]| {
            if outputs.iter().any(|(_, o)| *o == 2) {
                Err("saw a 2".to_string())
            } else {
                Ok(())
            }
        };
        let pattern = FailurePattern::failure_free(2);
        let report = explore(
            ExploreConfig::new(8),
            two_taggers,
            vec![Some(1), Some(2)],
            &pattern,
            NoDetector,
            safety,
        );
        let violation = report.violation.expect("must find the violation");
        let replayed = Replay::explore(violation.decisions.clone()).run(
            two_taggers,
            vec![Some(1), Some(2)],
            &pattern,
            NoDetector,
            safety,
        );
        assert_eq!(replayed, Err(violation.message));
    }

    #[test]
    fn replay_of_safe_decision_list_is_ok() {
        // A single p0 step cannot produce any output.
        let pattern = FailurePattern::failure_free(2);
        let replayed = Replay::explore(vec![(ProcessId(0), None)]).run(
            two_taggers,
            vec![Some(1), Some(2)],
            &pattern,
            NoDetector,
            |_, outputs| {
                if outputs.is_empty() {
                    Ok(())
                } else {
                    Err("unexpected output".into())
                }
            },
        );
        assert_eq!(replayed, Ok(()));
    }

    #[test]
    fn replay_tolerates_mutated_decision_lists() {
        // Out-of-range pids, crashed actors and wild message indices must
        // not panic — they are skipped or clamped deterministically.
        let pattern = FailurePattern::failure_free(2).with_crash(ProcessId(1), 0);
        let decisions = vec![
            (ProcessId(7), None),
            (ProcessId(1), Some(3)), // crashed: skipped
            (ProcessId(0), None),
            (ProcessId(0), Some(42)), // empty inbox: λ
        ];
        let replayed = Replay::explore(decisions).run(
            two_taggers,
            vec![Some(1), Some(2)],
            &pattern,
            NoDetector,
            |_, _| Ok(()),
        );
        assert_eq!(replayed, Ok(()));
    }

    #[test]
    fn crashed_processes_do_not_branch() {
        let report = explore(
            ExploreConfig::new(6),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2).with_crash(ProcessId(1), 0),
            NoDetector,
            |_, outputs| {
                // p1 never starts, so nobody can ever receive its 2.
                if outputs.iter().any(|(_, o)| *o == 2) {
                    Err("impossible output".into())
                } else {
                    Ok(())
                }
            },
        );
        assert!(report.violation.is_none());
    }

    #[test]
    fn depth_bound_is_reported() {
        let report = explore(
            ExploreConfig::new(2),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
        assert!(report.depth_bounded);
        assert!(!report.states_capped);
    }

    #[test]
    fn state_cap_is_reported_separately_from_depth_bound() {
        let report = explore(
            ExploreConfig::new(50).with_max_states(3),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
        assert!(report.states_visited <= 3);
        assert!(report.states_capped, "hitting the cap must be reported");
        assert!(
            !report.depth_bounded,
            "3 expansions cannot reach depth 50 — the cap must not \
             masquerade as a depth bound"
        );
    }

    #[test]
    fn fingerprint_and_exact_key_produce_identical_reports() {
        let safety = |_: &[Tag], outputs: &[(ProcessId, u8)]| {
            if outputs.iter().any(|(_, o)| *o == 2) {
                Err("saw a 2".to_string())
            } else {
                Ok(())
            }
        };
        let pattern = FailurePattern::failure_free(2);
        let fp = explore(
            ExploreConfig::new(8),
            two_taggers,
            vec![Some(1), Some(2)],
            &pattern,
            NoDetector,
            safety,
        );
        let exact = explore_custom(
            ExploreConfig::new(8),
            ExactKeyHasher,
            two_taggers,
            vec![Some(1), Some(2)],
            &pattern,
            NoDetector,
            safety,
        );
        assert_eq!(fp, exact);
    }

    #[test]
    fn observability_fields_are_populated() {
        let report = explore(
            ExploreConfig::new(8),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
        assert!(report.dedup_entries > 0);
        assert!(report.dedup_entries <= report.states_visited);
        assert!(report.dedup_hits > 0, "delivery orders converge on Tag");
        assert!(report.max_frontier_len >= 1);
        assert!(!report.reduction_enabled, "reductions are opt-in");
        // The `Debug` rendering keeps its historical `threads_used: 1`
        // tail, so pinned digests of it stay valid.
        assert!(
            format!("{report:?}").ends_with(", reduction_enabled: false, threads_used: 1 }"),
            "{report:?}"
        );
        let json = report.to_json();
        for field in [
            "states_visited",
            "dedup_entries",
            "dedup_hits",
            "max_frontier_len",
            "violation",
            "states_pruned_dpor",
            "symmetry_canonical_hits",
            "reduction_enabled",
        ] {
            assert!(json.get(field).is_some(), "missing {field}");
        }

        let off = explore(
            ExploreConfig::new(8).with_dedup(false),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
        assert_eq!(off.dedup_entries, 0);
        assert_eq!(off.dedup_hits, 0);
    }

    #[test]
    fn shared_prefix_chains_drop_iteratively() {
        // A depth-200k chain must unlink without recursing (one stack
        // frame per node would overflow long before that).
        let mut decisions: Option<Arc<DecisionNode>> = None;
        let mut outputs: Option<Arc<OutputNode<Tag>>> = None;
        for i in 0..200_000usize {
            decisions = Some(Arc::new(DecisionNode {
                decision: (ProcessId(i % 2), None),
                parent: decisions,
            }));
            outputs = Some(Arc::new(OutputNode {
                output: (ProcessId(i % 2), i as u8),
                parent: outputs,
            }));
        }
        drop(decisions);
        drop(outputs);
    }

    /// Regression fixture for the depth-budget dedup bug: p0 must receive
    /// p1's hello and then tick three times to emit the forbidden output.
    /// DFS reaches the post-hello state first via a depth-wasting branch
    /// (p1 tick-cycles with period 2 before p0 starts); the old dedup then
    /// suppressed the shallower revisit that still had budget to violate.
    #[derive(Clone, Debug, Default)]
    struct DepthBug {
        ready: bool,
        c0: u8,
        c1: u8,
    }

    impl Protocol for DepthBug {
        type Msg = ();
        type Output = ();
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            if ctx.me() == ProcessId(1) {
                ctx.send(ProcessId(0), ());
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, _msg: ()) {
            self.ready = true;
        }

        fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
            if ctx.me() == ProcessId(0) {
                if self.ready {
                    self.c0 += 1;
                    if self.c0 == 3 {
                        ctx.output(());
                    }
                }
            } else {
                self.c1 = (self.c1 + 1) % 2;
            }
        }
    }

    fn depth_bug_report(cfg: ExploreConfig) -> ExploreReport {
        explore(
            cfg,
            || vec![DepthBug::default(), DepthBug::default()],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, outputs| {
                if outputs.is_empty() {
                    Ok(())
                } else {
                    Err("forbidden output emitted".into())
                }
            },
        )
    }

    #[test]
    fn dedup_must_not_prune_shallower_revisits_with_remaining_budget() {
        // The violation needs depth 6 exactly; without dedup it is found.
        let no_dedup = depth_bug_report(ExploreConfig::new(6).with_dedup(false));
        assert!(
            no_dedup.violation.is_some(),
            "sanity: the violation is reachable within the depth bound"
        );
        // With dedup on, the first visit of the pre-violation state happens
        // at depth 4 (via p1's tick cycle); the depth-2 revisit must be
        // re-expanded, not pruned, or the violation is missed.
        let dedup = depth_bug_report(ExploreConfig::new(6));
        assert!(
            dedup.violation.is_some(),
            "dedup pruned a shallower revisit that still had budget \
             (the documented exhaustive-up-to-depth guarantee is broken)"
        );
    }

    #[test]
    fn weakened_budget_rule_still_reproduces_the_historical_bug() {
        // The fixture is only trustworthy if it *fails* when the budget
        // rule is deliberately weakened back to "prune any revisit"
        // (batch 1 pins the original DFS visit order the bug needs).
        let weakened =
            depth_bug_report(ExploreConfig::new(6).with_batch(1).with_budget_aware(false));
        assert!(
            weakened.violation.is_none(),
            "the weakened rule unexpectedly found the violation — the \
             regression fixture no longer exercises the budget rule"
        );
    }

    /// Regression fixture for the outputs-omitted-from-key dedup bug: both
    /// delivery orders of p0's two messages converge to identical
    /// `(procs, inboxes, started)` but different output histories.
    #[derive(Clone, Debug)]
    struct EmitBug;

    impl Protocol for EmitBug {
        type Msg = u8;
        type Output = u8;
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            if ctx.me() == ProcessId(0) {
                ctx.send(ProcessId(1), 1);
                ctx.send(ProcessId(1), 2);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, msg: u8) {
            ctx.output(msg);
        }
    }

    fn emit_bug_safety(_: &[EmitBug], outputs: &[(ProcessId, u8)]) -> Result<(), String> {
        if outputs.len() == 2 && outputs[0].1 == 1 && outputs[1].1 == 2 {
            Err("delivered 1 before 2".to_string())
        } else {
            Ok(())
        }
    }

    #[test]
    fn dedup_key_must_distinguish_output_histories() {
        // DFS explores the "deliver 2 first" order first, so the branch
        // with output history [1, 2] is the one the old dedup merged away
        // before the predicate ever saw it.
        let report = explore(
            ExploreConfig::new(6),
            || vec![EmitBug, EmitBug],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            emit_bug_safety,
        );
        let violation = report
            .violation
            .expect("dedup merged two states with different output histories");
        assert_eq!(violation.message, "delivered 1 before 2");
        // Both orders sit at the same depth, so this is caught only by the
        // outputs component of the key — and the counterexample replays.
        let replayed = Replay::explore(violation.decisions.clone()).run(
            || vec![EmitBug, EmitBug],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            emit_bug_safety,
        );
        assert_eq!(replayed, Err(violation.message));
    }

    /// A deliberately output-blind key — the historical EmitBug dedup,
    /// expressed as a [`StateHasher`] to prove the fixture still bites on
    /// a weakened key and passes on the real fingerprint path.
    struct OutputBlindHasher;

    impl StateHasher for OutputBlindHasher {
        type Key = String;

        fn key<P: Protocol + Debug>(
            &self,
            procs: &[P],
            inboxes: &[Vec<(ProcessId, P::Msg)>],
            started: &[bool],
            _outputs: &[(ProcessId, P::Output)],
        ) -> String {
            format!("{procs:?}|{inboxes:?}|{started:?}")
        }
    }

    #[test]
    fn output_blind_hasher_still_reproduces_the_historical_bug() {
        let report = explore_custom(
            ExploreConfig::new(6).with_batch(1),
            OutputBlindHasher,
            || vec![EmitBug, EmitBug],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            emit_bug_safety,
        );
        assert!(
            report.violation.is_none(),
            "the output-blind key unexpectedly found the violation — the \
             regression fixture no longer exercises the outputs key component"
        );
    }

    /// Invocation broadcasts to the others; deliveries are absorbed
    /// silently — so two deliveries at different processes are genuinely
    /// independent. Declares precise footprints and full symmetry.
    #[derive(Clone, Debug, Default)]
    struct Quiet {
        seen: Vec<u8>,
    }

    impl Protocol for Quiet {
        type Msg = u8;
        type Output = u8;
        type Inv = u8;
        type Fd = ();

        fn on_invoke(&mut self, ctx: &mut Ctx<Self>, inv: u8) {
            ctx.broadcast_others(inv);
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, msg: u8) {
            self.seen.push(msg);
        }

        fn footprint(&self, me: ProcessId, n: usize, step: StepKind<'_, Self>) -> Footprint {
            match step {
                StepKind::Start { inv: Some(_) } => Footprint::local().sends_to_others(n, me),
                StepKind::Start { inv: None } | StepKind::Tick | StepKind::Deliver { .. } => {
                    Footprint::local()
                }
            }
        }

        fn symmetry(_n: usize) -> Symmetry {
            Symmetry::Full
        }
    }

    fn quiet_explore(cfg: ExploreConfig, invs: Vec<Option<u8>>) -> ExploreReport {
        let n = invs.len();
        explore(
            cfg,
            move || (0..n).map(|_| Quiet::default()).collect(),
            invs,
            &FailurePattern::failure_free(n),
            NoDetector,
            |_, _| Ok(()),
        )
    }

    #[test]
    fn dpor_with_opaque_footprints_is_a_no_op() {
        // Tag keeps the default `Footprint::opaque`, so every step pair is
        // dependent and sleep sets never fill: same space, nothing pruned.
        let run = |dpor: bool| {
            explore(
                ExploreConfig::new(8).with_dpor(dpor),
                two_taggers,
                vec![Some(1), Some(2)],
                &FailurePattern::failure_free(2),
                NoDetector,
                |_, _| Ok(()),
            )
        };
        let base = run(false);
        let dpor = run(true);
        assert_eq!(dpor.states_pruned_dpor, 0);
        assert_eq!(dpor.states_visited, base.states_visited);
        assert_eq!(dpor.violation, base.violation);
        assert!(dpor.reduction_enabled);
    }

    #[test]
    fn trivial_symmetry_is_a_no_op() {
        // Tag keeps the default `Symmetry::Trivial`: only the identity is
        // ever tried, so canonicalization can never hit.
        let run = |sym: bool| {
            explore(
                ExploreConfig::new(8).with_symmetry(sym),
                two_taggers,
                vec![Some(1), Some(1)],
                &FailurePattern::failure_free(2),
                NoDetector,
                |_, _| Ok(()),
            )
        };
        let base = run(false);
        let sym = run(true);
        assert_eq!(sym.symmetry_canonical_hits, 0);
        assert_eq!(sym.states_visited, base.states_visited);
        assert!(sym.reduction_enabled);
    }

    #[test]
    fn precise_footprints_let_dpor_prune() {
        // Dedup off isolates the sleep sets' own effect: with it on, a
        // pruned interleaving can also *weaken* a cover (smaller sleep
        // sets cover fewer revisits), so raw interleavings — not the
        // dedup'd state count — are the honest measure here.
        let base = quiet_explore(
            ExploreConfig::new(10).with_dedup(false),
            vec![Some(1), Some(2)],
        );
        let dpor = quiet_explore(
            ExploreConfig::new(10).with_dedup(false).with_dpor(true),
            vec![Some(1), Some(2)],
        );
        assert!(dpor.states_pruned_dpor > 0, "{dpor:?}");
        assert!(dpor.states_visited < base.states_visited);
        assert_eq!(dpor.violation, base.violation);
    }

    #[test]
    fn symmetric_scenarios_canonicalize_asymmetric_ones_do_not() {
        // Equal invocations: swapping the two processes maps reachable
        // states onto each other, so canonicalization collapses mirrored
        // branches.
        let sym = quiet_explore(
            ExploreConfig::new(10).with_symmetry(true),
            vec![Some(7), Some(7)],
        );
        let base = quiet_explore(ExploreConfig::new(10), vec![Some(7), Some(7)]);
        assert!(sym.symmetry_canonical_hits > 0, "{sym:?}");
        assert!(sym.states_visited <= base.states_visited);
        assert_eq!(sym.violation, base.violation);

        // Distinct invocations: no non-identity permutation preserves the
        // invocation vector, so the protocol's Full group is cut down to
        // the identity and canonicalization never fires.
        let asym = quiet_explore(
            ExploreConfig::new(10).with_symmetry(true),
            vec![Some(1), Some(2)],
        );
        assert_eq!(asym.symmetry_canonical_hits, 0, "{asym:?}");
    }
}
