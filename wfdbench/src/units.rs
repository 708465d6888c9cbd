//! Units: one spec-checked verdict each — one simulation run plus its
//! history and checker, or one `explore` / `check_liveness` query plus
//! its witness pipeline.
//!
//! With tracing off, simulation units call the public
//! `wfd_core::theorems` harnesses. With tracing on they rebuild the same
//! `Sim` with every process wrapped in [`Timed`] and the metric store
//! handed to the forests and the explorer; the two paths must produce
//! byte-identical stats, which the
//! run checks unit by unit through [`Verdict::digest`].

use crate::spans::{Span, Spans};
use crate::timed::{Layer, Timed};
use std::fmt::Debug;
use wfd_consensus::register_omega::RegisterOmegaConsensus;
use wfd_consensus::spec::{check_consensus, ConsensusOutput};
use wfd_consensus::OmegaSigmaConsensus;
use wfd_core::theorems::{self, RegisterEvidence, RunSetup};
use wfd_detectors::check::{check_psi, check_sigma};
use wfd_detectors::history::history_from_outputs;
use wfd_detectors::impls::{HeartbeatOmega, MajoritySigma, TimeoutFs};
use wfd_detectors::oracles::{FsOracle, OmegaOracle, PairOracle, PsiMode, PsiOracle, SigmaOracle};
use wfd_detectors::PsiValue;
use wfd_extraction::{OmegaSigmaQcFamily, PsiExtraction, PsiQcFamily};
use wfd_nbac::spec::{check_nbac, Decision};
use wfd_nbac::{NbacFromQc, QcFromNbac, Vote};
use wfd_quittable::spec::check_qc;
use wfd_quittable::{PsiQc, QcDecision};
use wfd_registers::abd::{op_history_from_trace, AbdOp, AbdRegister, QuorumRule};
use wfd_registers::linearizability::check_linearizable;
use wfd_registers::sigma_extraction::{initial_e_value, EValue, SigmaExtraction};
use wfd_sim::liveness::fixtures::PingPong;
use wfd_sim::{
    check_liveness, explore, shrink, ExploreConfig, ExploreReport, FailurePattern, FdOracle,
    LivenessConfig, LivenessReport, LivenessVerdict, Ltl, NoDetector, OracleSpec, ProcessId,
    ProcessSet, Protocol, RandomFair, Replay, Repro, Sim, SimConfig, Time,
};

/// One unit of a workload: its inputs and the verdict it must reach.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Stable name within the workload (the key of its pinned digest).
    pub name: String,
    pub kind: Kind,
    /// The verdict label [`run`] must return.
    pub expect: &'static str,
}

/// A unit's inputs.
#[derive(Clone, Debug)]
pub enum Kind {
    /// Theorem 1 sufficiency: ABD over Σ, checked for linearizability.
    Registers(RunSetup),
    /// Theorem 1 necessity: Figure 1 over ABD, checked against Σ.
    RegistersYieldSigma(RunSetup),
    /// Corollary 4: (Ω, Σ) consensus.
    OmegaSigmaConsensus(RunSetup, Vec<u64>),
    /// Corollary 2: consensus via Σ-backed registers plus Ω.
    ConsensusViaRegisters(RunSetup, Vec<u64>),
    /// Corollary 7 sufficiency (Figure 2): Ψ-QC.
    PsiQc(RunSetup, PsiMode, Vec<u64>),
    /// Theorem 8(a) (Figure 4): QC + FS solve NBAC.
    QcFsNbac(RunSetup, PsiMode, Vec<Option<Vote>>),
    /// Theorem 8(b) (Figure 5): NBAC solves QC.
    NbacYieldsQc(RunSetup, PsiMode, Vec<Option<u8>>),
    /// Corollary 7 necessity (Figure 3) over Ψ-QC.
    QcYieldsPsi(RunSetup, PsiMode),
    /// Corollary 3: Figure 3 over consensus as QC.
    ConsensusYieldsOmegaSigma(RunSetup),
    /// `explore` of Σ ex nihilo with the quorum-intersection check.
    ExploreSigma {
        pattern: FailurePattern,
        depth: usize,
        reduced: bool,
    },
    /// `explore` of (Ω, Σ) consensus with the agreement/validity check.
    ExploreAgreement {
        pattern: FailurePattern,
        proposals: Vec<u64>,
        depth: usize,
        reduced: bool,
    },
    /// `explore` of (Ω, Σ) consensus against a checker that no process
    /// decides: the violation it must catch goes through `Repro` JSON,
    /// `Replay` and `shrink`.
    ExplorePlanted { proposals: Vec<u64>, depth: usize },
    /// `check_liveness` of one temporal spec.
    Liveness(LiveSpec),
    /// The `PingPong` livelock: `F "decided"` must be violated and the
    /// lasso must go through `Repro` JSON, `Replay::lasso` and `shrink`.
    Livelock { n: usize, gap: Time },
}

/// The liveness specs of the `model-check` workload.
#[derive(Clone, Debug)]
pub enum LiveSpec {
    /// `F G "leader-agreed"` for `HeartbeatOmega`.
    OmegaStabilizes {
        pattern: FailurePattern,
        gap: Time,
        timeout: u64,
    },
    /// `G !"some-correct-red"` for `TimeoutFs` (failure-free).
    FsAccuracy {
        n: usize,
        gap: Time,
        threshold: u64,
        symmetry: bool,
    },
    /// `F "all-correct-red"` for `TimeoutFs` (someone crashes).
    FsCompleteness {
        pattern: FailurePattern,
        gap: Time,
        threshold: u64,
        symmetry: bool,
    },
    /// `F "all-decided"` for (Ω, Σ) consensus.
    ConsensusTerminates {
        pattern: FailurePattern,
        proposals: Vec<u64>,
        gap: Time,
    },
}

/// What a unit reached: a short verdict label plus a digest of its full
/// stats (or report), which must not depend on tracing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    pub label: String,
    pub digest: u64,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(value: &impl Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

fn verdict<T: Debug, E: Debug>(result: &Result<T, E>, label: impl FnOnce(&T) -> String) -> Verdict {
    Verdict {
        label: match result {
            Ok(v) => label(v),
            Err(_) => "violation".to_string(),
        },
        digest: digest(result),
    }
}

fn ok<T>(_: &T) -> String {
    "ok".to_string()
}

fn decided<V>(decision: &Option<V>) -> String {
    if decision.is_some() {
        "decided"
    } else {
        "undecided"
    }
    .to_string()
}

fn qc_label<V>(decision: &Option<QcDecision<V>>) -> String {
    match decision {
        Some(QcDecision::Value(_)) => "value",
        Some(QcDecision::Quit) => "quit",
        None => "undecided",
    }
    .to_string()
}

fn nbac_label(decision: &Option<Decision>) -> String {
    match decision {
        Some(Decision::Commit) => "commit",
        Some(Decision::Abort) => "abort",
        None => "undecided",
    }
    .to_string()
}

fn psi_label(stats: &wfd_detectors::check::PsiStats) -> String {
    format!("psi:{:?}", stats.phase)
}

/// Run one unit and return its verdict. With `spans` on, simulation
/// units run the traced replica and every layer call is timed.
pub fn run(unit: &Unit, spans: &mut Spans) -> Verdict {
    let traced = spans.is_on();
    match &unit.kind {
        Kind::Registers(s) if !traced => verdict(&theorems::sigma_implements_registers(s), ok),
        Kind::Registers(s) => verdict(&traced_registers(s, spans), ok),
        Kind::RegistersYieldSigma(s) if !traced => verdict(&theorems::registers_yield_sigma(s), ok),
        Kind::RegistersYieldSigma(s) => verdict(&traced_registers_yield_sigma(s, spans), ok),
        Kind::OmegaSigmaConsensus(s, props) if !traced => {
            verdict(&theorems::omega_sigma_solves_consensus(s, props), |st| {
                decided(&st.decision)
            })
        }
        Kind::OmegaSigmaConsensus(s, props) => {
            let fd = PairOracle::new(
                OmegaOracle::new(&s.pattern, s.stabilize, s.seed).with_jitter(s.stabilize / 2 + 1),
                SigmaOracle::new(&s.pattern, s.stabilize, s.seed).with_jitter(s.stabilize / 2 + 1),
            );
            let procs = (0..s.pattern.n())
                .map(|_| OmegaSigmaConsensus::<u64>::new())
                .collect();
            let sim = traced_sim(
                spans,
                Layer::Consensus,
                s,
                procs,
                fd,
                &proposals_at_zero(props),
                Some(|p| p.decision().is_some()),
            );
            let result = spans.time(Span::Check, || {
                check_consensus(sim.trace(), &somes(props), &s.pattern)
            });
            verdict(&result, |st| decided(&st.decision))
        }
        Kind::ConsensusViaRegisters(s, props) if !traced => {
            verdict(&theorems::consensus_via_registers(s, props), |st| {
                decided(&st.decision)
            })
        }
        Kind::ConsensusViaRegisters(s, props) => {
            let n = s.pattern.n();
            let procs = (0..n)
                .map(|_| RegisterOmegaConsensus::<u64>::new(n))
                .collect();
            let sim = traced_sim(
                spans,
                Layer::Consensus,
                s,
                procs,
                omega_sigma(s),
                &proposals_at_zero(props),
                Some(|p| p.decision().is_some()),
            );
            let result = spans.time(Span::Check, || {
                check_consensus(sim.trace(), &somes(props), &s.pattern)
            });
            verdict(&result, |st| decided(&st.decision))
        }
        Kind::PsiQc(s, mode, props) if !traced => {
            verdict(&theorems::psi_solves_qc(s, *mode, props), |st| {
                qc_label(&st.decision)
            })
        }
        Kind::PsiQc(s, mode, props) => {
            let psi = PsiOracle::new(&s.pattern, *mode, s.stabilize, 30, s.seed);
            let procs = (0..s.pattern.n()).map(|_| PsiQc::<u64>::new()).collect();
            let sim = traced_sim(
                spans,
                Layer::Quittable,
                s,
                procs,
                psi,
                &proposals_at_zero(props),
                Some(|p| p.decision().is_some()),
            );
            let result = spans.time(Span::Check, || {
                check_qc(sim.trace(), &somes(props), &s.pattern)
            });
            verdict(&result, |st| qc_label(&st.decision))
        }
        Kind::QcFsNbac(s, mode, votes) if !traced => {
            verdict(&theorems::qc_fs_solve_nbac(s, *mode, votes), |st| {
                nbac_label(&st.decision)
            })
        }
        Kind::QcFsNbac(s, mode, votes) => {
            let n = s.pattern.n();
            let procs = (0..n)
                .map(|_| NbacFromQc::new(n, PsiQc::<u8>::new()))
                .collect();
            let sim = traced_sim(
                spans,
                Layer::Nbac,
                s,
                procs,
                fs_psi(s, *mode),
                &slots_at_zero(votes),
                Some(|p| p.decision().is_some()),
            );
            let result = spans.time(Span::Check, || check_nbac(sim.trace(), &s.pattern));
            verdict(&result, |st| nbac_label(&st.decision))
        }
        Kind::NbacYieldsQc(s, mode, props) if !traced => {
            verdict(&theorems::nbac_yields_qc(s, *mode, props), |st| {
                qc_label(&st.decision)
            })
        }
        Kind::NbacYieldsQc(s, mode, props) => {
            let n = s.pattern.n();
            let procs = (0..n)
                .map(|_| QcFromNbac::new(n, NbacFromQc::new(n, PsiQc::<u8>::new())))
                .collect();
            let sim = traced_sim(
                spans,
                Layer::Nbac,
                s,
                procs,
                fs_psi(s, *mode),
                &slots_at_zero(props),
                Some(|p| p.decision().is_some()),
            );
            let result = spans.time(Span::Check, || check_qc(sim.trace(), props, &s.pattern));
            verdict(&result, |st| qc_label(&st.decision))
        }
        Kind::QcYieldsPsi(s, mode) if !traced => {
            verdict(&theorems::qc_yields_psi(s, *mode), psi_label)
        }
        Kind::QcYieldsPsi(s, mode) => {
            let psi = PsiOracle::new(&s.pattern, *mode, s.stabilize, 20, s.seed);
            let obs = spans.obs.clone();
            let procs = (0..s.pattern.n())
                .map(|_| {
                    PsiExtraction::new(PsiQcFamily)
                        .with_eval_interval(48)
                        .with_obs(obs.clone())
                })
                .collect();
            verdict(&traced_psi(spans, s, procs, psi), psi_label)
        }
        Kind::ConsensusYieldsOmegaSigma(s) if !traced => {
            verdict(&theorems::consensus_yields_omega_sigma(s), psi_label)
        }
        Kind::ConsensusYieldsOmegaSigma(s) => {
            let obs = spans.obs.clone();
            let procs = (0..s.pattern.n())
                .map(|_| {
                    PsiExtraction::new(OmegaSigmaQcFamily)
                        .with_eval_interval(48)
                        .with_obs(obs.clone())
                })
                .collect();
            verdict(&traced_psi(spans, s, procs, omega_sigma(s)), psi_label)
        }
        Kind::ExploreSigma {
            pattern,
            depth,
            reduced,
        } => {
            let n = pattern.n();
            let report = traced_explore(spans, *depth, *reduced, |cfg| {
                explore(
                    cfg,
                    || (0..n).map(|_| MajoritySigma::new(n, 2)).collect(),
                    vec![None; n],
                    pattern,
                    NoDetector,
                    quorums_intersect,
                )
            });
            explore_verdict(&report)
        }
        Kind::ExploreAgreement {
            pattern,
            proposals,
            depth,
            reduced,
        } => {
            let n = pattern.n();
            let report = traced_explore(spans, *depth, *reduced, |cfg| {
                explore(
                    cfg,
                    || (0..n).map(|_| OmegaSigmaConsensus::<u64>::new()).collect(),
                    proposals.iter().copied().map(Some).collect(),
                    pattern,
                    stable_omega_sigma(pattern),
                    |_, outputs| agreement(proposals, outputs),
                )
            });
            explore_verdict(&report)
        }
        Kind::ExplorePlanted { proposals, depth } => planted(spans, proposals, *depth),
        Kind::Liveness(spec) => {
            let result = liveness(spans, spec);
            if let Ok(report) = &result {
                count_liveness(spans, report);
            }
            verdict(&result, |r| format!("liveness:{}", r.verdict.as_str()))
        }
        Kind::Livelock { n, gap } => livelock(spans, *n, *gap),
    }
}

fn somes<V: Clone>(values: &[V]) -> Vec<Option<V>> {
    values.iter().cloned().map(Some).collect()
}

fn proposals_at_zero<V: Clone>(values: &[V]) -> Vec<(ProcessId, Time, V)> {
    values
        .iter()
        .enumerate()
        .map(|(p, v)| (ProcessId(p), 0, v.clone()))
        .collect()
}

fn slots_at_zero<V: Clone>(slots: &[Option<V>]) -> Vec<(ProcessId, Time, V)> {
    slots
        .iter()
        .enumerate()
        .filter_map(|(p, v)| v.clone().map(|v| (ProcessId(p), 0, v)))
        .collect()
}

/// The (Ω, Σ) oracle pair the necessity harnesses use.
fn omega_sigma(s: &RunSetup) -> PairOracle<OmegaOracle, SigmaOracle> {
    PairOracle::new(
        OmegaOracle::new(&s.pattern, s.stabilize, s.seed),
        SigmaOracle::new(&s.pattern, s.stabilize, s.seed),
    )
}

/// The FS + Ψ oracle pair of the NBAC harnesses.
fn fs_psi(s: &RunSetup, mode: PsiMode) -> PairOracle<FsOracle, PsiOracle> {
    PairOracle::new(
        FsOracle::new(&s.pattern, 30, s.seed),
        PsiOracle::new(&s.pattern, mode, s.stabilize, 30, s.seed),
    )
}

/// Build the harness's `Sim` with every process wrapped in [`Timed`],
/// schedule the invocations, and run it: to the horizon, or, given
/// `decided`, until every correct process satisfies it (as the harnesses
/// with proposals do).
fn traced_sim<P, D>(
    spans: &mut Spans,
    layer: Layer,
    s: &RunSetup,
    procs: Vec<P>,
    fd: D,
    invocations: &[(ProcessId, Time, P::Inv)],
    decided: Option<fn(&P) -> bool>,
) -> Sim<Timed<P>, D, RandomFair>
where
    P: Protocol,
    D: FdOracle<Value = P::Fd>,
{
    let n = s.pattern.n();
    // No metric store on the engine: its per-step histogram would add to
    // the traced run's overhead, and `Sim::stats` has the counts.
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(s.horizon),
        procs.into_iter().map(|p| Timed::new(layer, p)).collect(),
        s.pattern.clone(),
        fd,
        RandomFair::new(s.seed),
    );
    for (p, t, inv) in invocations {
        sim.schedule_invoke(*p, *t, inv.clone());
    }
    let correct = s.pattern.correct();
    spans.time(Span::Engine, || match decided {
        None => sim.run(),
        Some(decided) => sim.run_until(|_, procs| {
            procs
                .iter()
                .enumerate()
                .all(|(i, p)| !correct.contains(ProcessId(i)) || decided(p.inner()))
        }),
    });
    let stats = sim.stats();
    spans.counts.engine_steps += stats.steps as u64;
    spans.counts.engine_messages_delivered += stats.messages_delivered as u64;
    sim
}

fn traced_registers(
    s: &RunSetup,
    spans: &mut Spans,
) -> Result<RegisterEvidence, wfd_registers::linearizability::LinearizabilityError> {
    let n = s.pattern.n();
    let sigma = SigmaOracle::new(&s.pattern, s.stabilize, s.seed).with_jitter(s.stabilize / 2 + 1);
    let spacing = (s.stabilize / 2).max(50);
    let mut invocations = Vec::new();
    for p in 0..n {
        for k in 0..4u64 {
            let t = k * spacing;
            invocations.push((ProcessId(p), t, AbdOp::Write((p as u64 + 1) * 1_000 + k)));
            invocations.push((ProcessId(p), t + spacing / 2, AbdOp::Read));
        }
    }
    let procs = (0..n)
        .map(|_| AbdRegister::new(QuorumRule::Detector, 0u64))
        .collect();
    // The register harness runs to the horizon despite its invocations.
    let sim = traced_sim(spans, Layer::Registers, s, procs, sigma, &invocations, None);
    let h = spans.time(Span::History, || op_history_from_trace(sim.trace(), 0));
    spans.time(Span::Linearizability, || check_linearizable(&h))?;
    let last_crash = s.pattern.last_crash_time().unwrap_or(0);
    Ok(RegisterEvidence {
        completed_ops: h.completed().count(),
        pending_ops: h.pending().count(),
        post_crash_completions: h
            .completed()
            .filter(|o| o.response.expect("completed").0 > last_crash)
            .count(),
    })
}

fn traced_registers_yield_sigma(
    s: &RunSetup,
    spans: &mut Spans,
) -> Result<wfd_detectors::check::SigmaStats, wfd_detectors::check::SigmaViolation> {
    let n = s.pattern.n();
    let sigma = SigmaOracle::new(&s.pattern, s.stabilize, s.seed).with_jitter(s.stabilize / 2 + 1);
    let procs = (0..n)
        .map(|_| {
            SigmaExtraction::new(
                n,
                (0..n)
                    .map(|_| AbdRegister::new(QuorumRule::Detector, initial_e_value(n)))
                    .collect::<Vec<AbdRegister<EValue>>>(),
            )
        })
        .collect();
    let sim = traced_sim(spans, Layer::Registers, s, procs, sigma, &[], None);
    let h = spans.time(Span::History, || {
        history_from_outputs(sim.trace(), |q: &ProcessSet| Some(q.clone()))
    });
    spans.time(Span::Check, || check_sigma(&h, &s.pattern))
}

fn traced_psi<F, D>(
    spans: &mut Spans,
    s: &RunSetup,
    procs: Vec<PsiExtraction<F>>,
    fd: D,
) -> Result<wfd_detectors::check::PsiStats, wfd_detectors::check::PsiViolation>
where
    F: wfd_extraction::QcFamily,
    D: FdOracle<Value = F::Fd>,
{
    let sim = traced_sim(spans, Layer::Extraction, s, procs, fd, &[], None);
    let h = spans.time(Span::History, || {
        history_from_outputs(sim.trace(), |v: &PsiValue| Some(v.clone()))
    });
    spans.time(Span::Check, || check_psi(&h, &s.pattern))
}

/// Oracles that are stationary from time 0, as the model checkers need.
fn stable_omega_sigma(pattern: &FailurePattern) -> PairOracle<OmegaOracle, SigmaOracle> {
    PairOracle::new(
        OmegaOracle::new(pattern, 0, 0),
        SigmaOracle::new(pattern, 0, 0),
    )
}

/// Σ's intersection property over every quorum output so far.
fn quorums_intersect(
    _: &[MajoritySigma],
    outputs: &[(ProcessId, ProcessSet)],
) -> Result<(), String> {
    for (i, (p, a)) in outputs.iter().enumerate() {
        for (q, b) in &outputs[i + 1..] {
            if !a.intersects(b) {
                return Err(format!("{p} trusted {a:?} but {q} trusted {b:?}"));
            }
        }
    }
    Ok(())
}

/// Consensus agreement and validity over the decisions so far.
fn agreement(
    proposals: &[u64],
    outputs: &[(ProcessId, ConsensusOutput<u64>)],
) -> Result<(), String> {
    let mut decisions = outputs.iter().map(|(_, ConsensusOutput::Decided(v))| *v);
    let Some(first) = decisions.next() else {
        return Ok(());
    };
    if !proposals.contains(&first) {
        return Err(format!("validity violated: {first} was never proposed"));
    }
    match decisions.find(|v| *v != first) {
        Some(other) => Err(format!("agreement violated: {first} vs {other}")),
        None => Ok(()),
    }
}

/// The planted bug's checker: "no process ever decides", false for a
/// live consensus protocol.
fn nobody_decides(
    _: &[OmegaSigmaConsensus<u64>],
    outputs: &[(ProcessId, ConsensusOutput<u64>)],
) -> Result<(), String> {
    match outputs.first() {
        Some((p, ConsensusOutput::Decided(v))) => Err(format!("{p} decided {v}")),
        None => Ok(()),
    }
}

const EXPLORE_STATE_CAP: usize = 2_000_000;

fn traced_explore(
    spans: &mut Spans,
    depth: usize,
    reduced: bool,
    query: impl FnOnce(ExploreConfig) -> ExploreReport,
) -> ExploreReport {
    let cfg = ExploreConfig::new(depth)
        .with_max_states(EXPLORE_STATE_CAP)
        .with_threads(1)
        .with_dpor(reduced)
        .with_symmetry(reduced)
        .with_obs(spans.obs.clone());
    let report = spans.time(Span::Explore, || query(cfg));
    let c = &mut spans.counts;
    c.explore_states += report.states_visited as u64;
    c.explore_entries += report.dedup_entries as u64;
    c.explore_hits += report.dedup_hits as u64;
    c.explore_dpor += report.states_pruned_dpor as u64;
    c.explore_symmetry += report.symmetry_canonical_hits as u64;
    report
}

fn explore_verdict(report: &ExploreReport) -> Verdict {
    let label = match (&report.violation, report.states_capped) {
        (Some(_), _) => "explore:found",
        (None, true) => "explore:capped",
        (None, false) => "explore:clean",
    };
    Verdict {
        label: label.to_string(),
        digest: digest(report),
    }
}

/// The planted explorer violation, caught and pushed through the
/// artifact pipeline.
fn planted(spans: &mut Spans, proposals: &[u64], depth: usize) -> Verdict {
    let n = proposals.len();
    let pattern = FailurePattern::failure_free(n);
    let procs = || {
        (0..n)
            .map(|_| OmegaSigmaConsensus::<u64>::new())
            .collect::<Vec<_>>()
    };
    let invocations = || proposals.iter().copied().map(Some).collect::<Vec<_>>();
    let report = traced_explore(spans, depth, false, |cfg| {
        explore(
            cfg,
            procs,
            invocations(),
            &pattern,
            stable_omega_sigma(&pattern),
            nobody_decides,
        )
    });
    let Some(violation) = &report.violation else {
        return explore_verdict(&report);
    };
    let repro = Repro::from_explore(
        "consensus-omega-sigma",
        "planted:nobody-decides",
        violation,
        depth,
        &pattern,
        OracleSpec::new("omega+sigma").with("stabilize_at", 0),
    );
    let parsed = spans.time(Span::ReproJson, || Repro::from_json(&repro.to_json()));
    let replay = |r: &Repro| -> Option<String> {
        Replay::from_repro(r)
            .ok()?
            .run(
                procs,
                invocations(),
                &r.pattern(),
                stable_omega_sigma(&pattern),
                nobody_decides,
            )
            .err()
    };
    let reproduced = spans.time(Span::Replay, || parsed.as_ref().ok().and_then(replay));
    let mut calls = 0u64;
    let shrunk = spans.time(Span::Shrink, || {
        shrink(&repro, |candidate| {
            calls += 1;
            replay(candidate)
        })
    });
    spans.counts.shrink_calls += calls;
    pipeline_verdict(
        parsed.as_ref() == Ok(&repro),
        reproduced.as_ref() == Some(&violation.message),
        &repro,
        &shrunk.repro,
        digest(&(&report, &shrunk.repro.to_json())),
    )
}

fn pipeline_verdict(
    round_trip: bool,
    reproduced: bool,
    original: &Repro,
    shrunk: &Repro,
    digest: u64,
) -> Verdict {
    let label = if !round_trip {
        "artifact:json-mismatch"
    } else if !reproduced {
        "artifact:not-reproduced"
    } else if shrunk.decisions.len() > original.decisions.len() {
        "artifact:shrink-grew"
    } else {
        "caught"
    };
    Verdict {
        label: label.to_string(),
        digest,
    }
}

fn liveness(spans: &mut Spans, spec: &LiveSpec) -> Result<LivenessReport, String> {
    let cfg = |gap: Time| LivenessConfig::new(gap, gap, 0).with_threads(1);
    match spec {
        LiveSpec::OmegaStabilizes {
            pattern,
            gap,
            timeout,
        } => {
            let n = pattern.n();
            let goal = Ltl::prop("leader-agreed").always().eventually();
            spans.time(Span::Liveness, || {
                check_liveness(
                    cfg(*gap),
                    || (0..n).map(|_| HeartbeatOmega::new(n, *timeout)).collect(),
                    vec![None; n],
                    pattern,
                    NoDetector,
                    &goal,
                )
            })
        }
        LiveSpec::FsAccuracy {
            n,
            gap,
            threshold,
            symmetry,
        } => {
            let goal = Ltl::prop("some-correct-red").not().always();
            spans.time(Span::Liveness, || {
                check_liveness(
                    cfg(*gap).with_symmetry(*symmetry),
                    || (0..*n).map(|_| TimeoutFs::new(*n, *threshold)).collect(),
                    vec![None; *n],
                    &FailurePattern::failure_free(*n),
                    NoDetector,
                    &goal,
                )
            })
        }
        LiveSpec::FsCompleteness {
            pattern,
            gap,
            threshold,
            symmetry,
        } => {
            let n = pattern.n();
            let goal = Ltl::prop("all-correct-red").eventually();
            spans.time(Span::Liveness, || {
                check_liveness(
                    cfg(*gap).with_symmetry(*symmetry),
                    || (0..n).map(|_| TimeoutFs::new(n, *threshold)).collect(),
                    vec![None; n],
                    pattern,
                    NoDetector,
                    &goal,
                )
            })
        }
        LiveSpec::ConsensusTerminates {
            pattern,
            proposals,
            gap,
        } => {
            let n = pattern.n();
            let goal = Ltl::prop("all-decided").eventually();
            spans.time(Span::Liveness, || {
                check_liveness(
                    cfg(*gap),
                    || (0..n).map(|_| OmegaSigmaConsensus::<u64>::new()).collect(),
                    proposals.iter().copied().map(Some).collect(),
                    pattern,
                    stable_omega_sigma(pattern),
                    &goal,
                )
            })
        }
    }
}

fn count_liveness(spans: &mut Spans, report: &LivenessReport) {
    let c = &mut spans.counts;
    c.liveness_states += report.states as u64;
    c.liveness_edges += report.edges as u64;
    c.liveness_product += report.product_states as u64;
}

/// The planted livelock, caught and pushed through the artifact
/// pipeline.
fn livelock(spans: &mut Spans, n: usize, gap: Time) -> Verdict {
    let cfg = || LivenessConfig::new(gap, gap, 0).with_threads(1);
    let pattern = FailurePattern::failure_free(n);
    let goal = Ltl::prop("decided").eventually();
    let result = spans.time(Span::Liveness, || {
        check_liveness(
            cfg(),
            || PingPong::fleet(n),
            vec![None; n],
            &pattern,
            NoDetector,
            &goal,
        )
    });
    let report = match &result {
        Ok(report) => report,
        Err(_) => return verdict(&result, |_| String::new()),
    };
    count_liveness(spans, report);
    let Some(lasso) = &report.lasso else {
        return verdict(&result, |r| format!("liveness:{}", r.verdict.as_str()));
    };
    let repro = Repro::from_lasso(
        "fixtures::PingPong",
        &goal.to_string(),
        "no process ever decides on this fair cycle",
        lasso.stem.clone(),
        lasso.cycle.clone(),
        0,
        gap,
        gap,
        &pattern,
        OracleSpec::new("none"),
    );
    let parsed = spans.time(Span::ReproJson, || Repro::from_json(&repro.to_json()));
    let replay = |r: &Repro| -> Option<String> {
        let (stem, cycle) = r.decisions.as_lasso()?;
        Replay::lasso(stem.to_vec(), cycle.to_vec())
            .run_fair(
                &cfg(),
                || PingPong::fleet(n),
                vec![None; n],
                &pattern,
                NoDetector,
            )
            .ok()
            .map(|()| "still a fair non-deciding cycle".to_string())
    };
    let reproduced = spans.time(Span::Replay, || parsed.as_ref().ok().and_then(replay));
    let mut calls = 0u64;
    let shrunk = spans.time(Span::Shrink, || {
        shrink(&repro, |candidate| {
            calls += 1;
            replay(candidate)
        })
    });
    spans.counts.shrink_calls += calls;
    let violated = report.verdict == LivenessVerdict::Violated;
    let mut v = pipeline_verdict(
        parsed.as_ref() == Ok(&repro),
        reproduced.is_some(),
        &repro,
        &shrunk.repro,
        digest(&(report, &shrunk.repro.to_json())),
    );
    if !violated {
        v.label = format!("liveness:{}", report.verdict.as_str());
    }
    v
}
