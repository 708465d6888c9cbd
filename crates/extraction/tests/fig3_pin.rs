//! Pins Figure 3's complete emitted stream on the E5 and E10 setups.
//!
//! Each case hashes every `PsiValue` output the extraction emits —
//! process, time and value, in trace order — together with the
//! `check_psi` statistics. Any change to how the (Ω, Σ) rounds are
//! computed that alters a single output moves the digest, so a
//! refactor or speed-up of the extraction must keep these constants.
//!
//! The setups are those of `exp_fig3_psi_extraction` (E5's (Ω,Σ) rows:
//! seed 3, stabilisation 60) and `exp_corollary3_chain` (E10's Figure 3
//! leg: seed 5, default stabilisation), with horizons cut so that a
//! debug-build `cargo test` stays quick.

use wfd_detectors::check::{check_psi, PsiPhase};
use wfd_detectors::history::history_from_outputs;
use wfd_detectors::oracles::{OmegaOracle, PairOracle, PsiMode, PsiOracle, SigmaOracle};
use wfd_detectors::PsiValue;
use wfd_extraction::{OmegaSigmaQcFamily, PsiExtraction, PsiQcFamily, QcFamily};
use wfd_sim::{FailurePattern, FdOracle, ProcessId, RandomFair, Sim, SimConfig, Time};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run Figure 3 to `horizon` and digest its output stream plus the
/// `check_psi` statistics (which must pass in (Ω, Σ) mode).
fn digest<F, D>(family: F, pattern: &FailurePattern, fd: D, seed: u64, horizon: u64) -> u64
where
    F: QcFamily + Clone,
    D: FdOracle<Value = F::Fd>,
{
    let n = pattern.n();
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(horizon),
        (0..n)
            .map(|_| PsiExtraction::new(family.clone()).with_eval_interval(48))
            .collect(),
        pattern.clone(),
        fd,
        RandomFair::new(seed),
    );
    sim.run();
    let mut text = String::new();
    for (t, p, v) in sim.trace().outputs() {
        text.push_str(&format!("{p:?} {t} {v:?}\n"));
    }
    let h = history_from_outputs(sim.trace(), |v: &PsiValue| Some(*v));
    let stats = check_psi(&h, pattern).unwrap_or_else(|v| panic!("Ψ violated: {v}"));
    assert_eq!(stats.phase, PsiPhase::OmegaSigma);
    text.push_str(&format!("{stats:?}"));
    fnv1a(text.as_bytes())
}

fn pattern(n: usize, crash: Option<Time>) -> FailurePattern {
    match crash {
        None => FailurePattern::failure_free(n),
        Some(t) => FailurePattern::failure_free(n).with_crash(ProcessId(n - 1), t),
    }
}

/// E5's (Ω,Σ) rows: `A` = Figure 2, `D` = Ψ in consensus mode.
fn e5(n: usize, crash: Option<Time>, horizon: u64) -> u64 {
    let (seed, stabilize) = (3, 60);
    let pattern = pattern(n, crash);
    let psi = PsiOracle::new(&pattern, PsiMode::OmegaSigma, stabilize, 20, seed);
    digest(PsiQcFamily, &pattern, psi, seed, horizon)
}

/// E10's Figure 3 leg: `A` = consensus as QC, `D` = (Ω, Σ).
fn e10(crash: Option<Time>, horizon: u64) -> u64 {
    let seed = 5;
    let pattern = pattern(3, crash);
    let stabilize = pattern.last_crash_time().unwrap_or(0) + 100;
    let fd = PairOracle::new(
        OmegaOracle::new(&pattern, stabilize, seed),
        SigmaOracle::new(&pattern, stabilize, seed),
    );
    digest(OmegaSigmaQcFamily, &pattern, fd, seed, horizon)
}

#[test]
fn e5_n3_failure_free() {
    assert_eq!(e5(3, None, 20_000), 2014311428966968353);
}

#[test]
fn e5_n3_crash_at_600() {
    assert_eq!(e5(3, Some(600), 20_000), 3818757632854775903);
}

#[test]
fn e5_n4_failure_free() {
    assert_eq!(e5(4, None, 20_000), 4307941702051124098);
}

#[test]
fn e5_n4_crash_at_600() {
    assert_eq!(e5(4, Some(600), 20_000), 6285929593770086032);
}

#[test]
fn e10_failure_free() {
    assert_eq!(e10(None, 20_000), 8490111526068961028);
}

#[test]
fn e10_crash_at_400() {
    assert_eq!(e10(Some(400), 20_000), 7990500643293780756);
}
