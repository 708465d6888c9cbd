//! The three workloads: each turns a seed into a fixed-size batch of
//! units. The seed picks scheduler and oracle seeds, crash times,
//! crashed processes and proposals; the batch's shape (which harnesses,
//! system sizes, horizons and depths) is fixed, so a batch costs about
//! the same whatever the seed.
//!
//! Batches are small (under a second, but for Figure 3's) so that a run
//! repeats every unit many times: the end-to-end times take each unit at
//! its fastest round, and that needs rounds to choose from.

use crate::units::{Kind, LiveSpec, Unit};
use wfd_core::theorems::RunSetup;
use wfd_detectors::oracles::PsiMode;
use wfd_nbac::Vote;
use wfd_sim::{FailurePattern, ProcessId, SimRng, Time};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fig3OmegaSigma,
    SimSweep,
    ModelCheck,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig3OmegaSigma,
        Workload::SimSweep,
        Workload::ModelCheck,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3OmegaSigma => "fig3-omega-sigma",
            Workload::SimSweep => "sim-sweep",
            Workload::ModelCheck => "model-check",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's batch of units for `seed`.
    pub fn units(self, seed: u64) -> Vec<Unit> {
        let mut g = Gen {
            rng: SimRng::new(seed),
            units: Vec::new(),
        };
        match self {
            Workload::Fig3OmegaSigma => fig3_omega_sigma(&mut g),
            Workload::SimSweep => sim_sweep(&mut g),
            // The model checker's two entry points share one batch:
            // `explore` queries, then `check_liveness` queries.
            Workload::ModelCheck => {
                explore_safety(&mut g);
                liveness_fair(&mut g);
            }
        }
        g.units
    }
}

struct Gen {
    rng: SimRng,
    units: Vec<Unit>,
}

impl Gen {
    fn push(&mut self, name: String, kind: Kind, expect: &'static str) {
        self.units.push(Unit { name, kind, expect });
    }

    /// A uniform value in `lo..=hi`.
    fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.rng.gen_range(hi - lo + 1)
    }

    /// A run setup with a fresh scheduler/oracle seed.
    fn setup(&mut self, pattern: FailurePattern, horizon: u64) -> RunSetup {
        let seed = self.rng.next_u64();
        RunSetup::new(pattern).with_seed(seed).with_horizon(horizon)
    }

    /// `n` distinct proposals.
    fn proposals(&mut self, n: usize) -> Vec<u64> {
        let base = self.between(1, 1_000_000) * 16;
        (0..n as u64).map(|i| base + i).collect()
    }

    /// `f` crashes of distinct processes (the seed picks which), at times
    /// drawn from `times`.
    fn crashes(&mut self, n: usize, f: usize, times: (Time, Time)) -> FailurePattern {
        let mut pattern = FailurePattern::failure_free(n);
        let mut alive: Vec<usize> = (0..n).collect();
        for _ in 0..f {
            let p = alive.remove(self.rng.pick(alive.len()));
            let t = self.between(times.0, times.1);
            pattern = pattern.with_crash(ProcessId(p), t);
        }
        pattern
    }
}

/// Figure 3 in consensus mode: E10's chain and E5's (Ω, Σ) rows over
/// n ∈ {3, 4}, failure-free and with one crash. A unit's cost depends
/// on its schedule, so five replicas average the seed out of the batch
/// while a run still repeats the batch five or six times.
const FIG3_REPLICAS: usize = 5;
/// Horizons for n = 3 and n = 4. Over 40 probe seeds every unit had
/// switched to (Ω, Σ) by t = 955, well inside both.
const FIG3_HORIZON: [u64; 2] = [2_500, 3_000];

fn fig3_omega_sigma(g: &mut Gen) {
    for r in 0..FIG3_REPLICAS {
        for (i, n) in [3usize, 4].into_iter().enumerate() {
            for crash in [false, true] {
                let horizon = FIG3_HORIZON[i];
                // As in E10 and E5, the highest id crashes, at t = 400 in
                // the chain and t = 600 in the rows.
                let crashed = |t| {
                    if crash {
                        FailurePattern::failure_free(n).with_crash(ProcessId(n - 1), t)
                    } else {
                        FailurePattern::failure_free(n)
                    }
                };
                let tag = if crash { "crash" } else { "ff" };
                let chain = g.setup(crashed(400), horizon);
                g.push(
                    format!("e10-chain/n{n}/{tag}/{r}"),
                    Kind::ConsensusYieldsOmegaSigma(chain),
                    "psi:OmegaSigma",
                );
                let row = g.setup(crashed(600), horizon).with_stabilize(60);
                g.push(
                    format!("e5-row/n{n}/{tag}/{r}"),
                    Kind::QcYieldsPsi(row, PsiMode::OmegaSigma),
                    "psi:OmegaSigma",
                );
            }
        }
    }
}

/// Short runs of the sufficiency halves and Figure 1, plus Figure 3 in
/// FS mode.
const SWEEP_REPLICAS: usize = 30;

fn sim_sweep(g: &mut Gen) {
    for r in 0..SWEEP_REPLICAS {
        // Theorem 1: ABD over Σ, failure-free and with a crashed majority.
        for (n, f) in [(3usize, 0usize), (5, 3)] {
            let pattern = g.crashes(n, f, (100, 300));
            let s = g.setup(pattern, 20_000);
            g.push(format!("abd/n{n}/f{f}/{r}"), Kind::Registers(s), "ok");
        }
        // Figure 1 over ABD.
        for (n, f) in [(3usize, 0usize), (3, 1)] {
            let pattern = g.crashes(n, f, (200, 400));
            let s = g.setup(pattern, 15_000);
            g.push(
                format!("fig1-abd/n{n}/f{f}/{r}"),
                Kind::RegistersYieldSigma(s),
                "ok",
            );
        }
        // (Ω, Σ) consensus, f = 0 up to a crashed majority.
        for f in 0..=3 {
            let pattern = g.crashes(5, f, (50, 300));
            let s = g.setup(pattern, 60_000);
            let props = g.proposals(5);
            g.push(
                format!("consensus/n5/f{f}/{r}"),
                Kind::OmegaSigmaConsensus(s, props),
                "decided",
            );
        }
        // Consensus via Σ-backed registers plus Ω.
        for f in 0..=2 {
            let pattern = g.crashes(3, f, (50, 300));
            let s = g.setup(pattern, 80_000);
            let props = g.proposals(3);
            g.push(
                format!("consensus-via-registers/n3/f{f}/{r}"),
                Kind::ConsensusViaRegisters(s, props),
                "decided",
            );
        }
        // Ψ-QC in both modes.
        let s = g.setup(FailurePattern::failure_free(3), 60_000);
        let props = g.proposals(3);
        g.push(
            format!("psi-qc/omega-sigma/{r}"),
            Kind::PsiQc(s, PsiMode::OmegaSigma, props),
            "value",
        );
        let pattern = g.crashes(3, 1, (20, 60));
        let s = g.setup(pattern, 40_000);
        let props = g.proposals(3);
        g.push(
            format!("psi-qc/fs/{r}"),
            Kind::PsiQc(s, PsiMode::Fs, props),
            "quit",
        );
        // Figure 4: unanimous Yes commits, one No aborts.
        let s = g.setup(FailurePattern::failure_free(3), 80_000);
        g.push(
            format!("fig4-nbac/yes/{r}"),
            Kind::QcFsNbac(s, PsiMode::OmegaSigma, vec![Some(Vote::Yes); 3]),
            "commit",
        );
        let s = g.setup(FailurePattern::failure_free(3), 80_000);
        let mut votes = vec![Some(Vote::Yes); 3];
        votes[g.rng.pick(3)] = Some(Vote::No);
        g.push(
            format!("fig4-nbac/no/{r}"),
            Kind::QcFsNbac(s, PsiMode::OmegaSigma, votes),
            "abort",
        );
        // Figure 5: QC from NBAC.
        let s = g.setup(FailurePattern::failure_free(3), 80_000);
        let props = (0..3).map(|_| Some(g.rng.gen_range(2) as u8)).collect();
        g.push(
            format!("fig5-qc/{r}"),
            Kind::NbacYieldsQc(s, PsiMode::OmegaSigma, props),
            "value",
        );
        // Figure 3 in FS mode (Task-1 forest plus the red branch).
        let t = g.between(30, 60);
        let pattern = FailurePattern::failure_free(3).with_crash(ProcessId(2), t);
        let s = g.setup(pattern, 20_000).with_stabilize(60);
        g.push(
            format!("fig3-fs/n3/{r}"),
            Kind::QcYieldsPsi(s, PsiMode::Fs),
            "psi:Fs",
        );
    }
}

/// `explore` on real protocols at one thread.
const EXPLORE_REPLICAS: usize = 7;
/// One depth for Σ with reductions off and on, so the two explore the
/// same space.
const SIGMA_DEPTH: usize = 5;
const AGREEMENT_DEPTH: usize = 18;
const PLANTED_DEPTH: usize = 14;

fn explore_safety(g: &mut Gen) {
    for r in 0..EXPLORE_REPLICAS {
        // Σ ex nihilo, failure-free and with one crash (the seed picks the
        // process; the protocol is fully symmetric, so the space is the
        // same size whichever it is).
        for crash in [false, true] {
            let pattern = if crash {
                g.crashes(3, 1, (3, 3))
            } else {
                FailurePattern::failure_free(3)
            };
            let tag = if crash { "crash" } else { "ff" };
            g.push(
                format!("sigma/n3/{tag}/plain/{r}"),
                Kind::ExploreSigma {
                    pattern: pattern.clone(),
                    depth: SIGMA_DEPTH,
                    reduced: false,
                },
                "explore:clean",
            );
            g.push(
                format!("sigma/n3/{tag}/dpor-sym/{r}"),
                Kind::ExploreSigma {
                    pattern,
                    depth: SIGMA_DEPTH,
                    reduced: true,
                },
                "explore:clean",
            );
        }
        let proposals = g.proposals(4);
        g.push(
            format!("agreement/n4/{r}"),
            Kind::ExploreAgreement {
                pattern: FailurePattern::failure_free(4),
                proposals,
                depth: AGREEMENT_DEPTH,
                reduced: false,
            },
            "explore:clean",
        );
        let proposals = g.proposals(2);
        g.push(
            format!("planted/n2/{r}"),
            Kind::ExplorePlanted {
                proposals,
                depth: PLANTED_DEPTH,
            },
            "caught",
        );
    }
}

/// `check_liveness` at one thread on E14's specs, scaled up from n = 2
/// to n = 3.
const LIVENESS_REPLICAS: usize = 5;
const LIVE_GAP: Time = 3;
const FS_GAP: Time = 2;
const OMEGA_GAP: Time = 2;
/// Above the worst-case beat staleness `n · G + D` = 8 at n = 3, G = D = 2.
const OMEGA_TIMEOUT: u64 = 9;
/// FS suspicion threshold at step gap 2.
const FS_THRESHOLD: u64 = 8;

fn liveness_fair(g: &mut Gen) {
    for r in 0..LIVENESS_REPLICAS {
        let leader_crash = FailurePattern::failure_free(3).with_crash(ProcessId(0), 0);
        for (tag, pattern) in [
            ("ff", FailurePattern::failure_free(3)),
            ("leader-crash", leader_crash),
        ] {
            g.push(
                format!("omega/n3/{tag}/{r}"),
                Kind::Liveness(LiveSpec::OmegaStabilizes {
                    pattern,
                    gap: OMEGA_GAP,
                    timeout: OMEGA_TIMEOUT,
                }),
                "liveness:holds",
            );
        }
        for symmetry in [false, true] {
            let tag = if symmetry { "sym" } else { "plain" };
            g.push(
                format!("fs-accuracy/n3/{tag}/{r}"),
                Kind::Liveness(LiveSpec::FsAccuracy {
                    n: 3,
                    gap: FS_GAP,
                    threshold: FS_THRESHOLD,
                    symmetry,
                }),
                "liveness:holds",
            );
            let pattern = g.crashes(3, 1, (0, 0));
            g.push(
                format!("fs-completeness/n3/{tag}/{r}"),
                Kind::Liveness(LiveSpec::FsCompleteness {
                    pattern,
                    gap: FS_GAP,
                    threshold: FS_THRESHOLD,
                    symmetry,
                }),
                "liveness:holds",
            );
        }
        // (Ω, Σ) termination with one crash and with a crashed majority.
        for f in [1, 2] {
            let pattern = g.crashes(3, f, (0, 0));
            let proposals = g.proposals(3);
            g.push(
                format!("consensus/n3/f{f}/{r}"),
                Kind::Liveness(LiveSpec::ConsensusTerminates {
                    pattern,
                    proposals,
                    gap: LIVE_GAP,
                }),
                "liveness:holds",
            );
        }
        g.push(
            format!("livelock/n3/{r}"),
            Kind::Livelock {
                n: 3,
                gap: LIVE_GAP,
            },
            "caught",
        );
    }
}
