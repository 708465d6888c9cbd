//! **Figure 3 of the paper**: the transformation extracting Ψ from any
//! failure detector `D` and QC algorithm `A`.
//!
//! Per process, the protocol runs the paper's two tasks:
//!
//! * **Task 1** — keep sampling the local `D` module and flooding the
//!   samples ([`SampleStore`]); keep growing simulated runs of `A` for
//!   the `n+1` initial configurations ([`crate::forest`]).
//! * **Task 2** — once every tree's simulation has decided (line 8):
//!   propose `0` to a *real* execution of `A` if any simulation decided
//!   `Q` (line 11), else propose the critical tuple `(I, I′, S, S′)`
//!   (lines 13–14). If the real execution returns `0`/`Q`, output `red`
//!   forever (line 18); if it returns a tuple, extract (Ω, Σ) forever
//!   (lines 20–34):
//!   - **Σ** exactly as lines 24–32: per round, walk each agreed
//!     schedule once, fork the configuration after every prefix (the set
//!     `C`), extend each fork with *fresh* samples until it decides, and
//!     output the union of the step-takers;
//!   - **Ω** by re-evaluating the critical index of the simulated forest
//!     on the same fresh windows (the executable counterpart of the CHT
//!     limit-forest procedure of line 22 — see DESIGN.md §6).
//!
//! Until a branch is taken the output is ⊥, so the emitted stream is a
//! [`PsiValue`] history checkable by
//! [`check_psi`](wfd_detectors::check::check_psi).

use crate::family::QcFamily;
use crate::forest::{critical_pair, initial_proposals, ForestEvaluator};
use crate::runner::Runner;
use crate::sampling::{Sample, SampleStore};
use std::fmt::Debug;
use wfd_consensus::ConsensusOutput;
use wfd_detectors::value::{OmegaSigma, PsiValue, Signal};
use wfd_quittable::QcDecision;
use wfd_sim::obs::{CounterId, Obs, PhaseId};
use wfd_sim::{Ctx, Footprint, ProcessId, ProcessSet, Protocol, StepKind, Time};

/// The critical tuple `(I, I′, S, S′)` of Figure 3 line 13: two adjacent
/// initial configurations and schedules deciding 0 and 1 respectively.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalTuple<Fd> {
    /// `I`: the tree (number of leading 1-proposers) whose run decided 0.
    pub zero_tree: usize,
    /// `I′`: the adjacent tree whose run decided 1.
    pub one_tree: usize,
    /// `S`: schedule deciding 0 from `I`.
    pub s0: Vec<(ProcessId, Fd)>,
    /// `S′`: schedule deciding 1 from `I′`.
    pub s1: Vec<(ProcessId, Fd)>,
}

/// What a process proposes to the real execution of `A` (lines 11/14).
#[derive(Clone, Debug, PartialEq)]
pub enum ExtractProposal<Fd> {
    /// "I saw a `Q` decision in my simulations" (line 11).
    Zero,
    /// A critical tuple (line 14).
    Tuple(CriticalTuple<Fd>),
}

/// Messages: flooded detector samples plus the real execution's traffic.
#[derive(Clone, Debug, PartialEq)]
pub enum Fig3Msg<Fd, M> {
    /// A flooded `D` sample.
    Sample(Sample<Fd>),
    /// Traffic of the hosted real execution of `A`.
    Real(M),
}

#[derive(Clone, Debug)]
enum Phase<Fd> {
    /// Task 1 only: simulating until every tree decides.
    Simulating,
    /// Proposed to the real execution, awaiting its decision.
    RealExec,
    /// Line 18: output red forever.
    Red,
    /// Lines 20–34: extract (Ω, Σ) forever.
    OmegaSigma {
        tuple: CriticalTuple<Fd>,
        watermark: Time,
        leader: ProcessId,
        quorum: ProcessSet,
    },
}

/// One process of the Figure 3 transformation, generic over the QC
/// algorithm family (`A` + `D`).
#[derive(Debug)]
pub struct PsiExtraction<F: QcFamily> {
    family: F,
    store: SampleStore<F::Fd>,
    real: F::Multi,
    phase: Phase<F::Fd>,
    own_steps: u64,
    /// `None` = default to `n` (one sample broadcast per `n` own steps).
    /// The default matters: with `n − 1` recipients per broadcast, any
    /// interval below `n − 1` *produces* messages faster than the
    /// one-delivery-per-step model can consume them, and the growing
    /// backlog starves every other protocol message.
    sample_interval: Option<u64>,
    eval_interval: u64,
    out_interval: u64,
    real_decision_seen: bool,
    /// Incremental forest over the whole store (Task 1, line 8). Created
    /// lazily because `n` is only known once a step context exists.
    sim_forest: Option<ForestEvaluator<F>>,
    /// Incremental forest over the current fresh-sample window, tagged
    /// with the watermark it started from (lines 22/24–32); replaced
    /// whenever the watermark advances.
    round_forest: Option<(Time, ForestEvaluator<F>)>,
    /// Observability handle for the rounds, forwarded to every
    /// [`ForestEvaluator`] this process creates (off by default; never
    /// influences extraction).
    obs: Obs,
}

impl<F: QcFamily> PsiExtraction<F> {
    /// Create an extraction process.
    pub fn new(family: F) -> Self {
        let real = family.multi();
        PsiExtraction {
            family,
            store: SampleStore::new(),
            real,
            phase: Phase::Simulating,
            own_steps: 0,
            sample_interval: None,
            eval_interval: 64,
            out_interval: 8,
            real_decision_seen: false,
            sim_forest: None,
            round_forest: None,
            obs: Obs::off(),
        }
    }

    /// Attach an observability handle (see [`wfd_sim::obs`]): rounds
    /// report [`PhaseId::PsiRound`] and [`CounterId::PsiExtensionSteps`],
    /// the forest evaluators their incremental vs full-replay split.
    /// Metrics never change what is extracted.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Override how often (in own steps) the process samples `D` and
    /// floods the sample. The default is `n`; anything below `n − 1`
    /// floods the network faster than it drains (see the field docs).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_sample_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "sample interval must be positive");
        self.sample_interval = Some(interval);
        self
    }

    /// Override how often (in own steps) simulations are re-evaluated.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_eval_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "eval interval must be positive");
        self.eval_interval = interval;
        self
    }

    /// Whether this process has left the ⊥ phase.
    pub fn has_switched(&self) -> bool {
        matches!(self.phase, Phase::Red | Phase::OmegaSigma { .. })
    }

    fn current_output(&self) -> PsiValue {
        match &self.phase {
            Phase::Simulating | Phase::RealExec => PsiValue::Bot,
            Phase::Red => PsiValue::Fs(Signal::Red),
            Phase::OmegaSigma { leader, quorum, .. } => PsiValue::OmegaSigma(OmegaSigma {
                leader: *leader,
                quorum: *quorum,
            }),
        }
    }

    fn with_real(
        &mut self,
        ctx: &mut Ctx<Self>,
        f: impl FnOnce(&mut F::Multi, &mut Ctx<F::Multi>),
    ) {
        let fd = *ctx.fd();
        let mut ictx = Ctx::<F::Multi>::detached(ctx.me(), ctx.n(), ctx.now(), fd);
        f(&mut self.real, &mut ictx);
        for (to, msg) in ictx.take_sends() {
            ctx.send(to, Fig3Msg::Real(msg));
        }
        for out in ictx.take_outputs() {
            let ConsensusOutput::Decided(d) = out;
            self.on_real_decision(ctx, d);
        }
    }

    /// Lines 15–20: the real execution of `A` decided.
    fn on_real_decision(&mut self, ctx: &mut Ctx<Self>, d: QcDecision<ExtractProposal<F::Fd>>) {
        if self.real_decision_seen {
            return;
        }
        self.real_decision_seen = true;
        match d {
            QcDecision::Quit | QcDecision::Value(ExtractProposal::Zero) => {
                // Line 18: Ψ-output := red.
                self.phase = Phase::Red;
                ctx.output(PsiValue::Fs(Signal::Red));
            }
            QcDecision::Value(ExtractProposal::Tuple(tuple)) => {
                // Line 20: Ω-output := p; Σ-output := Π.
                let watermark = self.store.max_time().unwrap_or(0);
                self.phase = Phase::OmegaSigma {
                    tuple,
                    watermark,
                    leader: ctx.me(),
                    quorum: ProcessSet::full(ctx.n()),
                };
                ctx.output(PsiValue::OmegaSigma(OmegaSigma {
                    leader: ctx.me(),
                    quorum: ProcessSet::full(ctx.n()),
                }));
            }
        }
    }

    /// Line 8–14: check whether every tree's simulation has decided and,
    /// if so, propose to the real execution.
    fn try_finish_simulating(&mut self, ctx: &mut Ctx<Self>) {
        let n = ctx.n();
        let window: Vec<Sample<F::Fd>> = self.store.iter().collect();
        // The store only grows, so the cached evaluator usually just
        // consumes the delta; a late-flooded sample landing before its
        // frontier triggers a transparent full replay.
        let forest = self.sim_forest.get_or_insert_with(|| {
            ForestEvaluator::new(&self.family, n).with_obs(self.obs.clone())
        });
        let runs = forest.evaluate(&self.family, &window);
        if !runs.iter().all(|r| r.decision.is_some()) {
            return;
        }
        let proposal = if runs.iter().any(|r| r.decision == Some(QcDecision::Quit)) {
            // Line 11: a simulated Q decision licenses proposing 0.
            ExtractProposal::Zero
        } else if let Some((zero_tree, one_tree)) = critical_pair(runs) {
            ExtractProposal::Tuple(CriticalTuple {
                zero_tree,
                one_tree,
                s0: runs[zero_tree].schedule.clone(),
                s1: runs[one_tree].schedule.clone(),
            })
        } else {
            // All trees decided the same non-Q value — impossible for a
            // correct A (tree 0 must decide 0, tree n must decide 1), but
            // be defensive: keep simulating.
            return;
        };
        self.sim_forest = None; // simulation phase over — free the cache
        self.phase = Phase::RealExec;
        self.with_real(ctx, |real, ictx| real.on_invoke(ictx, proposal));
    }

    /// One (Ω, Σ) extraction round over the fresh-sample window
    /// (lines 22 and 24–32). Leaves state untouched if the window cannot
    /// yet decide everything it must.
    fn try_extraction_round(&mut self, ctx: &mut Ctx<Self>) {
        let _round = self.obs.phase(PhaseId::PsiRound);
        let n = ctx.n();
        let Phase::OmegaSigma {
            tuple, watermark, ..
        } = &self.phase
        else {
            return;
        };
        let watermark = *watermark;
        let window: Vec<Sample<F::Fd>> = self.store.window_after(watermark).collect();
        if window.is_empty() {
            return;
        }

        // Ω: re-evaluate the critical index on the fresh window. Until
        // the round completes the watermark is fixed and the window only
        // grows, so a cached evaluator consumes just the delta.
        if self
            .round_forest
            .as_ref()
            .is_none_or(|(wm, _)| *wm != watermark)
        {
            let forest = ForestEvaluator::new(&self.family, n).with_obs(self.obs.clone());
            self.round_forest = Some((watermark, forest));
        }
        let (_, forest) = self.round_forest.as_mut().expect("just ensured");
        let runs = forest.evaluate(&self.family, &window);
        if !runs.iter().all(|r| r.decision.is_some()) {
            return; // window not yet rich enough — wait for more samples
        }
        if runs.iter().any(|r| r.decision == Some(QcDecision::Quit)) {
            // Fresh simulations decided Q: no critical index in this
            // window. Keep the previous outputs and wait (cannot happen
            // with a mode-consistent Ψ-style D; defensive for exotic Ds).
            return;
        }
        let Some((zero_tree, one_tree)) = critical_pair(runs) else {
            return;
        };
        let leader = ProcessId(zero_tree.min(one_tree));

        let mut extension_steps = 0;
        let quorum = sigma_quorum(&self.family, n, tuple, &window, &mut extension_steps);
        self.obs.add(CounterId::PsiExtensionSteps, extension_steps);
        let Some(quorum) = quorum else {
            return; // some configuration needs more fresh samples
        };

        if let Phase::OmegaSigma {
            watermark: wm,
            leader: l,
            quorum: q,
            ..
        } = &mut self.phase
        {
            *l = leader;
            *q = quorum;
            // Next round must use strictly fresher samples (line 27).
            *wm = window.last().expect("non-empty window").t;
        }
        self.round_forest = None; // round done — next one starts fresh
        ctx.output(PsiValue::OmegaSigma(OmegaSigma { leader, quorum }));
    }

    /// Work done on every step: sampling, periodic evaluation, periodic
    /// output.
    fn advance(&mut self, ctx: &mut Ctx<Self>) {
        self.own_steps += 1;

        // Task 1: sample the local D module and flood the sample.
        let sample_interval = self.sample_interval.unwrap_or(ctx.n() as u64);
        if self.own_steps.is_multiple_of(sample_interval) {
            let s = Sample {
                q: ctx.me(),
                t: ctx.now(),
                val: *ctx.fd(),
            };
            self.store.insert(s.clone());
            ctx.broadcast_others(Fig3Msg::Sample(s));
        }

        // Phase work.
        if self.own_steps.is_multiple_of(self.eval_interval) {
            match self.phase {
                Phase::Simulating => self.try_finish_simulating(ctx),
                Phase::OmegaSigma { .. } => self.try_extraction_round(ctx),
                _ => {}
            }
        }
        if matches!(self.phase, Phase::RealExec) {
            self.with_real(ctx, |real, ictx| real.on_tick(ictx));
        }

        // Periodic (re-)emission so checkers see dense histories.
        if self.own_steps.is_multiple_of(self.out_interval) {
            ctx.output(self.current_output());
        }
    }
}

/// Σ of one round (lines 24–32): the processes that step when every
/// configuration in `C` — one per prefix of `S` from `I` and of `S′`
/// from `I′` — is extended with `window` until it decides; `None` if the
/// window runs out first. Extension steps are added to `steps`.
///
/// A spine runner walks each schedule once and every prefix's
/// configuration is forked off it. All extensions consume a prefix of
/// the same window, so their step-takers are those of the longest.
fn sigma_quorum<F: QcFamily>(
    family: &F,
    n: usize,
    tuple: &CriticalTuple<F::Fd>,
    window: &[Sample<F::Fd>],
    steps: &mut u64,
) -> Option<ProcessSet> {
    let mut longest = 0;
    for (ones, schedule) in [(tuple.zero_tree, &tuple.s0), (tuple.one_tree, &tuple.s1)] {
        let procs = (0..n).map(|_| family.binary()).collect();
        let mut spine = Runner::new(procs, initial_proposals(n, ones));
        let mut rest = schedule.iter();
        loop {
            let consumed = steps_to_decision(&spine, window);
            *steps += consumed.unwrap_or(window.len()) as u64;
            longest = longest.max(consumed?);
            let Some((q, fd)) = rest.next() else { break };
            spine.step(*q, *fd);
        }
    }
    Some(window[..longest].iter().map(|s| s.q).collect())
}

/// How many samples of `window` a fork of `config` consumes until its
/// first output (a simulated QC process outputs only its decision):
/// `Some(0)` if `config` has already decided, `None` if the window runs
/// out first.
fn steps_to_decision<P: Protocol<Fd: Copy> + Clone>(
    config: &Runner<P>,
    window: &[Sample<P::Fd>],
) -> Option<usize> {
    if !config.outputs().is_empty() {
        return Some(0);
    }
    let mut fork = config.clone();
    for (k, s) in window.iter().enumerate() {
        fork.step(s.q, s.val);
        if !fork.outputs().is_empty() {
            return Some(k + 1);
        }
    }
    None
}

impl<F: QcFamily> Protocol for PsiExtraction<F> {
    type Msg = Fig3Msg<F::Fd, <F::Multi as Protocol>::Msg>;
    type Output = PsiValue;
    type Inv = ();
    type Fd = F::Fd;

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        // Ψ-output is initially ⊥ (line 1).
        ctx.output(PsiValue::Bot);
        self.advance(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.advance(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: Self::Msg) {
        match msg {
            Fig3Msg::Sample(s) => self.store.insert(s),
            Fig3Msg::Real(inner) => {
                self.with_real(ctx, |real, ictx| real.on_message(ictx, from, inner));
            }
        }
        self.advance(ctx);
    }

    fn footprint(&self, _me: ProcessId, n: usize, _step: StepKind<'_, Self>) -> Footprint {
        // The extraction never quiesces: it gossips samples, drives the
        // hosted real execution, and re-emits its Ψ output periodically.
        // wfd-lint: allow(d7-footprint, gossip plus the hosted execution may message anyone on any step and the sampler re-outputs)
        Footprint::opaque(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{OmegaSigmaQcFamily, PsiQcFamily};
    use crate::forest::evaluate_forest;
    use wfd_detectors::check::{check_psi, PsiPhase};
    use wfd_detectors::history::history_from_outputs;
    use wfd_detectors::oracles::{OmegaOracle, PairOracle, PsiMode, PsiOracle, SigmaOracle};
    use wfd_sim::{FailurePattern, FdOracle, RandomFair, Sim, SimConfig, SimRng};

    type Host = PsiExtraction<PsiQcFamily>;

    fn run_extraction(
        pattern: &FailurePattern,
        mode: PsiMode,
        switch: u64,
        seed: u64,
        horizon: u64,
    ) -> wfd_detectors::History<PsiValue> {
        let n = pattern.n();
        let psi = PsiOracle::new(pattern, mode, switch, 20, seed);
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n)
                .map(|_| Host::new(PsiQcFamily).with_eval_interval(48))
                .collect(),
            pattern.clone(),
            psi,
            RandomFair::new(seed),
        );
        sim.run();
        history_from_outputs(sim.trace(), |v: &PsiValue| Some(*v))
    }

    #[test]
    fn consensus_mode_extracts_omega_sigma() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        for seed in 0..2 {
            let h = run_extraction(&pattern, PsiMode::OmegaSigma, 10, seed, 120_000);
            let stats = check_psi(&h, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert_eq!(
                stats.phase,
                PsiPhase::OmegaSigma,
                "seed {seed}: extraction should settle in (Ω,Σ) mode"
            );
        }
    }

    #[test]
    fn fs_mode_extracts_red() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(2), 30);
        for seed in 0..2 {
            let h = run_extraction(&pattern, PsiMode::Fs, 40, seed, 60_000);
            let stats = check_psi(&h, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert_eq!(
                stats.phase,
                PsiPhase::Fs,
                "seed {seed}: FS-mode D should lead to red extraction"
            );
        }
    }

    #[test]
    fn consensus_mode_with_crash_still_extracts_omega_sigma() {
        // Ψ may stay in consensus mode despite a failure; the extraction
        // must then deliver a correct (Ω, Σ), with the crashed process
        // eventually dropped from quorums and never the leader.
        let n = 3;
        let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(0), 500);
        let h = run_extraction(&pattern, PsiMode::OmegaSigma, 10, 3, 200_000);
        let stats = check_psi(&h, &pattern).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.phase, PsiPhase::OmegaSigma);
    }

    #[test]
    fn accessors_and_validation() {
        let host: Host = PsiExtraction::new(PsiQcFamily);
        assert!(!host.has_switched());
    }

    #[test]
    fn extraction_works_for_a_second_algorithm_family() {
        // A = consensus-that-never-quits, D = (Ω, Σ): the simulated runs
        // can never decide Q, so the extraction must take the (Ω, Σ)
        // branch — with a crash present and all.
        use crate::family::OmegaSigmaQcFamily;
        use wfd_detectors::oracles::{OmegaOracle, PairOracle, SigmaOracle};

        let n = 3;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(2), 300)]);
        let fd = PairOracle::new(
            OmegaOracle::new(&pattern, 60, 2),
            SigmaOracle::new(&pattern, 60, 2),
        );
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(150_000),
            (0..n)
                .map(|_| PsiExtraction::new(OmegaSigmaQcFamily).with_eval_interval(48))
                .collect(),
            pattern.clone(),
            fd,
            RandomFair::new(2),
        );
        sim.run();
        let h = history_from_outputs(sim.trace(), |v: &PsiValue| Some(*v));
        let stats = check_psi(&h, &pattern).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.phase, PsiPhase::OmegaSigma);
    }

    #[test]
    #[should_panic(expected = "sample interval")]
    fn zero_sample_interval_rejected() {
        let _ = PsiExtraction::new(PsiQcFamily).with_sample_interval(0);
    }

    /// Σ as the paper states it, kept as the reference for
    /// [`sigma_quorum`]: rebuild every configuration in `C` by replaying
    /// its prefix from scratch, extend it over the window until it
    /// decides, and union the step-takers.
    fn naive_sigma_quorum<F: QcFamily>(
        family: &F,
        n: usize,
        tuple: &CriticalTuple<F::Fd>,
        window: &[Sample<F::Fd>],
    ) -> Option<ProcessSet> {
        let decided = |r: &Runner<F::Binary>| {
            r.outputs()
                .iter()
                .any(|(_, o)| matches!(o, ConsensusOutput::Decided(_)))
        };
        let mut quorum = ProcessSet::new();
        for (ones, schedule) in [(tuple.zero_tree, &tuple.s0), (tuple.one_tree, &tuple.s1)] {
            for prefix_len in 0..=schedule.len() {
                let procs = (0..n).map(|_| family.binary()).collect();
                let mut runner = Runner::new(procs, initial_proposals(n, ones));
                for (q, fd) in &schedule[..prefix_len] {
                    runner.step(*q, *fd);
                }
                let mut fresh = window.iter();
                while !decided(&runner) {
                    let s = fresh.next()?;
                    runner.step(s.q, s.val);
                    quorum.insert(s.q);
                }
            }
        }
        Some(quorum)
    }

    /// `len` samples of `oracle` from time `start` on, each taken by a
    /// uniformly random process that is alive at that time.
    fn random_window<O: FdOracle>(
        oracle: &mut O,
        pattern: &FailurePattern,
        rng: &mut SimRng,
        start: Time,
        len: usize,
    ) -> Vec<Sample<O::Value>> {
        (start..)
            .filter_map(|t| {
                let q = ProcessId(rng.pick(pattern.n()));
                (!pattern.is_crashed(q, t)).then(|| Sample {
                    q,
                    t,
                    val: oracle.query(q, t),
                })
            })
            .take(len)
            .collect()
    }

    /// The critical tuple the forest finds on `window`.
    fn critical_tuple<F: QcFamily>(
        family: &F,
        n: usize,
        window: &[Sample<F::Fd>],
    ) -> CriticalTuple<F::Fd> {
        let runs = evaluate_forest(family, n, window);
        let (zero_tree, one_tree) = critical_pair(&runs).expect("window has a critical pair");
        CriticalTuple {
            zero_tree,
            one_tree,
            s0: runs[zero_tree].schedule.clone(),
            s1: runs[one_tree].schedule.clone(),
        }
    }

    /// `sigma_quorum` agrees with the replay-every-prefix reference on
    /// seeded random windows, from windows too short for some prefix to
    /// ones every prefix decides on.
    fn differential<F, O>(family: F, pattern: &FailurePattern, mut oracle: O)
    where
        F: QcFamily,
        O: FdOracle<Value = F::Fd>,
    {
        let n = pattern.n();
        let (mut too_short, mut decided) = (0, 0);
        for seed in 0..3 {
            let mut rng = SimRng::new(seed);
            let start = 10_000 * seed;
            let agreed = random_window(&mut oracle, pattern, &mut rng, start, 2_000);
            let tuple = critical_tuple(&family, n, &agreed);
            for (k, len) in [0, 1, 8, 60, 250, 1_000].into_iter().enumerate() {
                let fresh_start = start + 3_000 * (k as Time + 1);
                let window = random_window(&mut oracle, pattern, &mut rng, fresh_start, len);
                let fast = sigma_quorum(&family, n, &tuple, &window, &mut 0);
                let naive = naive_sigma_quorum(&family, n, &tuple, &window);
                assert_eq!(fast, naive, "seed {seed}, window of {len}");
                match fast {
                    None => too_short += 1,
                    Some(_) => decided += 1,
                }
            }
        }
        assert!(
            too_short > 0 && decided > 0,
            "{too_short} short, {decided} decided"
        );
    }

    #[test]
    fn sigma_quorum_matches_prefix_replay_for_psi_qc() {
        let pattern = FailurePattern::failure_free(3).with_crash(ProcessId(2), 15_000);
        let psi = PsiOracle::new(&pattern, PsiMode::OmegaSigma, 300, 20, 7);
        differential(PsiQcFamily, &pattern, psi);
    }

    #[test]
    fn sigma_quorum_matches_prefix_replay_for_consensus_as_qc() {
        let pattern = FailurePattern::failure_free(3).with_crash(ProcessId(0), 15_000);
        let fd = PairOracle::new(
            OmegaOracle::new(&pattern, 300, 7),
            SigmaOracle::new(&pattern, 300, 7),
        );
        differential(OmegaSigmaQcFamily, &pattern, fd);
    }

    #[test]
    fn decided_configuration_contributes_nothing() {
        let pattern = FailurePattern::failure_free(3);
        let mut psi = PsiOracle::new(&pattern, PsiMode::OmegaSigma, 0, 0, 1);
        let mut rng = SimRng::new(1);
        let agreed = random_window(&mut psi, &pattern, &mut rng, 0, 2_000);
        let tuple = critical_tuple(&PsiQcFamily, 3, &agreed);
        // The last prefix is all of S: that configuration has decided.
        let procs = (0..3).map(|_| PsiQcFamily.binary()).collect();
        let mut config = Runner::new(procs, initial_proposals(3, tuple.zero_tree));
        for (q, fd) in &tuple.s0 {
            config.step(*q, *fd);
        }
        assert_eq!(steps_to_decision(&config, &[]), Some(0));
        assert_eq!(steps_to_decision(&config, &agreed), Some(0));
    }

    #[test]
    fn round_waits_for_a_window_every_configuration_decides_on() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        // Ψ answers ⊥ until t = 300, so the agreed schedules are long and
        // some of their configurations decide later than every tree does.
        let mut psi = PsiOracle::new(&pattern, PsiMode::OmegaSigma, 300, 20, 0);
        let mut rng = SimRng::new(0);
        let agreed = random_window(&mut psi, &pattern, &mut rng, 0, 2_000);
        let tuple = critical_tuple(&PsiQcFamily, n, &agreed);
        let fresh = random_window(&mut psi, &pattern, &mut rng, 1_000, 2_000);
        let mut host: Host = PsiExtraction::new(PsiQcFamily);
        host.phase = Phase::OmegaSigma {
            tuple,
            watermark: 999,
            leader: ProcessId(0),
            quorum: ProcessSet::full(n),
        };
        let fd = fresh[0].val;
        // Feed the fresh window one sample at a time: the round must stay
        // silent until Σ's extensions all decide, then emit their quorum.
        let mut skipped_by_sigma = 0;
        for (len, s) in fresh.iter().enumerate() {
            host.store.insert(s.clone());
            let Phase::OmegaSigma { tuple, .. } = &host.phase else {
                unreachable!("the host stays in the (Ω, Σ) phase")
            };
            let expected = sigma_quorum(&PsiQcFamily, n, tuple, &fresh[..=len], &mut 0);
            let runs = evaluate_forest(&PsiQcFamily, n, &fresh[..=len]);
            let forest_decided =
                runs.iter().all(|r| r.decision.is_some()) && critical_pair(&runs).is_some();
            let mut ctx = Ctx::detached(ProcessId(0), n, s.t, fd);
            host.try_extraction_round(&mut ctx);
            let outputs = ctx.take_outputs();
            match expected {
                Some(quorum) if forest_decided => {
                    let [PsiValue::OmegaSigma(out)] = &outputs[..] else {
                        panic!("one (Ω, Σ) output expected, got {outputs:?}")
                    };
                    assert_eq!(out.quorum, quorum);
                    assert!(skipped_by_sigma > 0, "no window was too short for Σ alone");
                    return;
                }
                expected => {
                    assert!(
                        outputs.is_empty(),
                        "window of {} emitted {outputs:?}",
                        len + 1
                    );
                    skipped_by_sigma += usize::from(forest_decided && expected.is_none());
                }
            }
        }
        panic!("the fresh window never completed a round");
    }
}
