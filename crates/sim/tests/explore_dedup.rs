//! Seeded property sweep: neither state deduplication, the dedup key
//! representation, nor the state-space reductions may change the
//! explorer's verdict.
//!
//! Three equivalence ladders over a 40-seed family of randomized
//! protocols:
//!
//! 1. **Key representation is invisible** — [`FingerprintHasher`] (what
//!    [`explore`] keys by) and [`ExactKeyHasher`] (through
//!    [`explore_custom`]) traverse the identical state graph, so their
//!    reports must be equal field for field. This is the collision check
//!    for the 128-bit fingerprint.
//! 2. **Dedup is invisible to the verdict** — fingerprint-dedup,
//!    exact-key-dedup, and dedup-off all agree on whether a violation
//!    exists and on the states-capped flag. (With batched traversal the
//!    *specific* counterexample may differ between dedup on/off: dedup
//!    changes which states share the first violating batch, and the
//!    report picks the lexicographically-least violation of that batch.
//!    At `batch == 1` — classic DFS — even the message is identical, and
//!    a dedicated ladder asserts exactly that.)
//! 3. **Reductions are invisible to the verdict** — DPOR, symmetry
//!    canonicalization, and their combination agree with the unreduced
//!    explorer on whether a violation exists, and reduced counterexamples
//!    still replay.
//!
//! This is also the regression net for the two historical dedup bugs
//! (pruning shallower revisits with remaining budget; merging states that
//! differed only in output history — both would break ladder 2) and for
//! the naive sleep-set implementation that commutes steps across a
//! detector transition (a hand-traced fixture proves the miss is still
//! reproducible via `with_unstable_sleep`).

use wfd_sim::{
    explore, explore_custom, Ctx, ExactKeyHasher, ExploreConfig, ExploreReport, FailurePattern,
    FingerprintHasher, FnDetector, Footprint, NoDetector, OracleSpec, ProcessId, Protocol, Replay,
    Repro, StepKind, Symmetry, Time,
};

/// A seed-parameterized toy protocol: on start, broadcast a burst of
/// tagged messages; on receipt, mix the tag into an accumulator, output
/// it, and (budget permitting) re-send a decremented tag. The reachable
/// tree's shape and outputs vary with every parameter.
#[derive(Clone, Debug, PartialEq)]
struct Mixer {
    burst: u64,
    mult: u64,
    acc: u64,
    relays_left: u64,
}

impl Mixer {
    fn family(seed: u64) -> Self {
        Mixer {
            burst: 1 + seed % 3,
            mult: 3 + seed % 5,
            acc: seed % 7,
            relays_left: seed % 2,
        }
    }
}

impl Protocol for Mixer {
    type Msg = u64;
    type Output = u64;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        for tag in 0..self.burst {
            ctx.broadcast_others(tag);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, tag: u64) {
        self.acc = self.acc.wrapping_mul(self.mult).wrapping_add(tag);
        ctx.output(self.acc);
        if self.relays_left > 0 && tag > 0 {
            self.relays_left -= 1;
            ctx.broadcast_others(tag - 1);
        }
    }

    // Precise reduction declarations — validated against every executed
    // step by the explorer whenever DPOR is on, so the ladders also prove
    // the declarations honest.
    fn footprint(&self, me: ProcessId, n: usize, step: StepKind<'_, Self>) -> Footprint {
        match step {
            StepKind::Start { .. } => Footprint::local().sends_to_others(n, me),
            StepKind::Tick => Footprint::local(),
            StepKind::Deliver { msg: tag, .. } => {
                let fp = Footprint::local().outputs();
                if self.relays_left > 0 && *tag > 0 {
                    fp.sends_to_others(n, me)
                } else {
                    fp
                }
            }
        }
    }

    // Mixer is fully id-agnostic: broadcast-to-others topology, id-free
    // payloads, no pids in local state, messages or outputs (so the
    // permute hooks stay the default no-ops).
    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Fingerprint,
    ExactKey,
    DedupOff,
}

fn family_pattern(seed: u64) -> FailurePattern {
    if seed.is_multiple_of(4) {
        FailurePattern::failure_free(2).with_crash(ProcessId(1), (seed % 5) as Time)
    } else {
        FailurePattern::failure_free(2)
    }
}

fn family_cfg(seed: u64) -> ExploreConfig {
    ExploreConfig::new(4 + (seed as usize % 4)).with_max_states(500_000)
}

fn run_family(seed: u64, mode: Mode, cfg: ExploreConfig) -> ExploreReport {
    let pattern = family_pattern(seed);
    // A seed-dependent safety bar some families break and others respect.
    let bar = 20 + (seed % 30);
    let make = move || (0..2).map(|_| Mixer::family(seed)).collect::<Vec<_>>();
    let safety = move |_procs: &[Mixer], outputs: &[(ProcessId, u64)]| match outputs
        .iter()
        .find(|(_, acc)| *acc > bar)
    {
        Some((p, acc)) => Err(format!("{p} accumulated {acc} > {bar}")),
        None => Ok(()),
    };
    let (cfg, invs) = (cfg.with_dedup(mode != Mode::DedupOff), vec![None, None]);
    match mode {
        Mode::ExactKey => explore_custom(
            cfg,
            ExactKeyHasher,
            make,
            invs,
            &pattern,
            NoDetector,
            safety,
        ),
        Mode::Fingerprint | Mode::DedupOff => explore_custom(
            cfg,
            FingerprintHasher,
            make,
            invs,
            &pattern,
            NoDetector,
            safety,
        ),
    }
}

#[test]
fn key_representation_and_dedup_never_change_the_verdict() {
    let mut violating_families = 0;
    let mut clean_families = 0;
    for seed in 0..40 {
        let fp = run_family(seed, Mode::Fingerprint, family_cfg(seed));
        let exact = run_family(seed, Mode::ExactKey, family_cfg(seed));
        let brute = run_family(seed, Mode::DedupOff, family_cfg(seed));
        assert!(
            !fp.states_capped && !brute.states_capped,
            "seed {seed}: state cap hit"
        );

        // Ladder 1 (strict): the fingerprint must be a drop-in for the
        // exact key — identical traversal, counts, flags, counterexample.
        assert_eq!(
            fp, exact,
            "seed {seed}: fingerprint diverged from exact key"
        );

        // Ladder 2: dedup on/off agree on the verdict and flags.
        assert_eq!(
            fp.violation.is_some(),
            brute.violation.is_some(),
            "seed {seed}: dedup changed the verdict\n{fp:?}\nvs\n{brute:?}"
        );
        // Dedup may *clear* the depth-bounded flag (a deep revisit that
        // would have hit the bound is pruned because its subtree was
        // already covered in full from a shallower visit), but it can
        // never introduce a bound-hit brute force does not see.
        assert!(
            !fp.depth_bounded || brute.depth_bounded,
            "seed {seed}: dedup invented a depth-bound hit"
        );

        match fp.violation {
            Some(_) => violating_families += 1,
            None => clean_families += 1,
        }
    }
    // The sweep is only meaningful if it actually exercises both outcomes.
    assert!(
        violating_families >= 5,
        "sweep too tame: {violating_families}"
    );
    assert!(clean_families >= 5, "sweep too strict: {clean_families}");
}

/// At `batch == 1` the traversal is the classic depth-first search, and
/// the PR 2 guarantee holds verbatim: sound dedup only prunes subtrees
/// already explored violation-free with at least as much remaining depth
/// budget, so even the *first* violation found is identical, message and
/// all.
#[test]
fn at_batch_one_dedup_preserves_the_exact_counterexample() {
    for seed in 0..40 {
        let dfs = |mode| run_family(seed, mode, family_cfg(seed).with_batch(1));
        let with_dedup = dfs(Mode::Fingerprint);
        let without = dfs(Mode::DedupOff);
        assert_eq!(
            with_dedup.violation.map(|v| v.message),
            without.violation.map(|v| v.message),
            "seed {seed}: dedup changed the DFS counterexample"
        );
    }
}

/// Ladder 3 (reductions): DPOR, symmetry canonicalization, and their
/// combination must agree with the unreduced explorer on the *verdict*
/// for every seed — safe families stay safe, violating families stay
/// violating. (Counts legitimately differ between reduced and unreduced
/// runs: that is the point of the reductions.)
#[test]
fn reductions_never_change_the_verdict() {
    let reduce = |cfg: ExploreConfig, dpor: bool, symmetry: bool| {
        cfg.with_dpor(dpor).with_symmetry(symmetry)
    };
    let mut violating_families = 0;
    let mut clean_families = 0;
    let mut dpor_pruned_somewhere = false;
    let mut symmetry_hit_somewhere = false;
    for seed in 0..40 {
        let base = run_family(seed, Mode::Fingerprint, family_cfg(seed));
        match base.violation {
            Some(_) => violating_families += 1,
            None => clean_families += 1,
        }
        for (dpor, symmetry) in [(true, false), (false, true), (true, true)] {
            let one = run_family(
                seed,
                Mode::Fingerprint,
                reduce(family_cfg(seed), dpor, symmetry),
            );
            assert_eq!(
                one.violation.is_some(),
                base.violation.is_some(),
                "seed {seed}, dpor={dpor} symmetry={symmetry}: reduction changed the verdict\n\
                 {one:?}\nvs\n{base:?}"
            );
            assert!(one.reduction_enabled);
            dpor_pruned_somewhere |= one.states_pruned_dpor > 0;
            symmetry_hit_somewhere |= one.symmetry_canonical_hits > 0;
        }
    }
    // The sweep is only meaningful if it exercises both outcomes and both
    // reduction mechanisms.
    assert!(
        violating_families >= 5,
        "sweep too tame: {violating_families}"
    );
    assert!(clean_families >= 5, "sweep too strict: {clean_families}");
    assert!(dpor_pruned_somewhere, "DPOR never pruned anything");
    assert!(
        symmetry_hit_somewhere,
        "symmetry never canonicalized anything"
    );
}

/// Counterexamples found under full reduction must replay outside the
/// reduced search: decisions and violations stay in *original* process
/// ids (only the dedup key is canonicalized), so [`Replay::run`]
/// reproduces the exact message.
#[test]
fn reduced_violations_replay() {
    let mut replayed_some = false;
    for seed in 0..40 {
        let report = run_family(
            seed,
            Mode::Fingerprint,
            family_cfg(seed).with_dpor(true).with_symmetry(true),
        );
        let Some(violation) = report.violation else {
            continue;
        };
        let pattern = family_pattern(seed);
        let bar = 20 + (seed % 30);
        let checker = |_procs: &[Mixer], outputs: &[(ProcessId, u64)]| match outputs
            .iter()
            .find(|(_, acc)| *acc > bar)
        {
            Some((p, acc)) => Err(format!("{p} accumulated {acc} > {bar}")),
            None => Ok(()),
        };
        let replayed = Replay::explore(violation.decisions.clone()).run(
            move || (0..2).map(|_| Mixer::family(seed)).collect::<Vec<_>>(),
            vec![None, None],
            &pattern,
            NoDetector,
            checker,
        );
        assert_eq!(
            replayed,
            Err(violation.message.clone()),
            "seed {seed}: reduced counterexample did not replay"
        );
        replayed_some = true;
    }
    assert!(replayed_some, "no violating family to replay");
}

/// A counterexample found under full reduction survives the portable
/// repro artifact: package → JSON → parse → replay the recovered
/// decision list to the identical violation message.
#[test]
fn reduced_violations_round_trip_through_repro() {
    let mut round_tripped = false;
    for seed in 0..40 {
        let report = run_family(
            seed,
            Mode::Fingerprint,
            family_cfg(seed).with_dpor(true).with_symmetry(true),
        );
        let Some(violation) = report.violation else {
            continue;
        };
        let pattern = family_pattern(seed);
        let repro = Repro::from_explore(
            "mixer",
            "accumulator-bound",
            &violation,
            family_cfg(seed).max_depth,
            &pattern,
            OracleSpec::new("none"),
        );
        let parsed = Repro::from_json(&repro.to_json()).expect("repro JSON parses back");
        assert_eq!(parsed.pattern(), pattern, "seed {seed}: pattern survived");
        let bar = 20 + (seed % 30);
        let replayed = Replay::from_repro(&parsed)
            .expect("explore-sourced repro builds a machine replay")
            .run(
                move || (0..2).map(|_| Mixer::family(seed)).collect::<Vec<_>>(),
                vec![None, None],
                &pattern,
                NoDetector,
                |_procs: &[Mixer], outputs: &[(ProcessId, u64)]| match outputs
                    .iter()
                    .find(|(_, acc)| *acc > bar)
                {
                    Some((p, acc)) => Err(format!("{p} accumulated {acc} > {bar}")),
                    None => Ok(()),
                },
            );
        assert_eq!(
            replayed,
            Err(violation.message),
            "seed {seed}: repro round-trip lost the counterexample"
        );
        round_tripped = true;
        break; // one violating family suffices for the round-trip
    }
    assert!(round_tripped, "no violating family to round-trip");
}

/// The hand-traced regression fixture for the sleep-set stability guard.
///
/// Two processes, depth 2, no messages, honest all-local footprints — so
/// every pair of steps is *locally* independent. The detector, however,
/// transitions between `t = 0` and `t = 1` (`fd(p, t) = t`), and p1 arms
/// itself only when it starts while `fd == 0`. The single violating
/// state — p1 armed *and* p0 started — is reached by exactly one
/// interleaving: p1 first (arming at `t = 0`), then p0.
///
/// Trace the naive search (batch 1, LIFO frontier): the root enumerates
/// p0's start, then p1's start, so p1's child inherits sleep `{p0}` —
/// the footprints commute. The frontier pops p1's child *first*, skips
/// the sleeping p0 (pruning the armed-then-started state), and the
/// p0-first subtree can never arm p1 because its start runs at `t = 1`.
/// The naive explorer reports a clean space.
///
/// The real implementation certifies independence only at depths where
/// crash status and detector values are stable between `t` and `t + 1` —
/// nowhere in this scenario — so it builds no sleep sets and finds the
/// violation. `with_unstable_sleep` re-enables the naive behavior so
/// this fixture keeps the miss reproducible.
#[test]
fn naive_sleep_sets_would_miss_the_oracle_transition() {
    #[derive(Clone, Debug, PartialEq)]
    struct TimeBomb {
        started: bool,
        armed: bool,
    }

    impl Protocol for TimeBomb {
        type Msg = ();
        type Output = ();
        type Inv = ();
        type Fd = Time;

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            self.started = true;
            if ctx.me() == ProcessId(1) && *ctx.fd() == 0 {
                self.armed = true;
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, _msg: ()) {}

        // Honest and exact: no handler ever sends or outputs.
        fn footprint(&self, _me: ProcessId, _n: usize, _step: StepKind<'_, Self>) -> Footprint {
            Footprint::local()
        }
    }

    let run = |unstable: bool| {
        explore(
            ExploreConfig::new(2)
                .with_batch(1)
                .with_dpor(true)
                .with_unstable_sleep(unstable),
            || {
                (0..2)
                    .map(|_| TimeBomb {
                        started: false,
                        armed: false,
                    })
                    .collect()
            },
            vec![None, None],
            &FailurePattern::failure_free(2),
            FnDetector::new(|_p: ProcessId, t: Time| t),
            |procs: &[TimeBomb], _: &[(ProcessId, ())]| {
                if procs[0].started && procs[1].armed {
                    Err("p1 armed at t = 0 and p0 started after it".into())
                } else {
                    Ok(())
                }
            },
        )
    };

    let sound = run(false);
    assert!(
        sound.violation.is_some(),
        "the stability guard must keep the armed interleaving reachable: {sound:?}"
    );
    let naive = run(true);
    assert!(
        naive.violation.is_none(),
        "fixture stale: naive sleep sets no longer prune the miss: {naive:?}"
    );
    assert!(
        naive.states_pruned_dpor > 0,
        "the naive miss must come from a sleep prune: {naive:?}"
    );
}

/// Regression fixture for the DPOR stability certificate's detector
/// comparison: it must be *structural* (`P::Fd: PartialEq`), never a
/// `Debug`-rendering fingerprint.
///
/// The scenario is [`naive_sleep_sets_would_miss_the_oracle_transition`]
/// verbatim except the detector value is wrapped in [`Opaque`], whose
/// handwritten `Debug` impl renders every value identically. The detector
/// still transitions between `t = 0` and `t = 1`, so independence is
/// *not* certifiable at depth 0 — but a fingerprint of the renderings
/// cannot see that: `{:?}` says `Opaque(·) == Opaque(·)`, the certificate
/// wrongly reports the detector stable, sleep sets get built, and the
/// single armed interleaving is pruned. The historical implementation
/// compared exactly those fingerprints, so this test fails on it
/// (`run(false)` reports a clean space); the structural comparison sees
/// `Opaque(0) != Opaque(1)` and keeps the violation reachable.
/// `with_unstable_sleep` reproduces the miss on demand — for this
/// scenario it builds the same sleep sets the fingerprint certificate
/// would have certified.
#[test]
fn debug_alike_fd_values_must_not_certify_independence() {
    /// Structurally distinct detector values sharing one `Debug` rendering.
    #[derive(Clone, PartialEq)]
    struct Opaque(Time);

    impl std::fmt::Debug for Opaque {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Opaque(·)")
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Sleeper {
        started: bool,
        armed: bool,
    }

    impl Protocol for Sleeper {
        type Msg = ();
        type Output = ();
        type Inv = ();
        type Fd = Opaque;

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            self.started = true;
            if ctx.me() == ProcessId(1) && *ctx.fd() == Opaque(0) {
                self.armed = true;
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, _msg: ()) {}

        // Honest and exact: no handler ever sends or outputs.
        fn footprint(&self, _me: ProcessId, _n: usize, _step: StepKind<'_, Self>) -> Footprint {
            Footprint::local()
        }
    }

    let run = |unstable: bool| {
        explore(
            ExploreConfig::new(2)
                .with_batch(1)
                .with_dpor(true)
                .with_unstable_sleep(unstable),
            || {
                (0..2)
                    .map(|_| Sleeper {
                        started: false,
                        armed: false,
                    })
                    .collect()
            },
            vec![None, None],
            &FailurePattern::failure_free(2),
            FnDetector::new(|_p: ProcessId, t: Time| Opaque(t)),
            |procs: &[Sleeper], _: &[(ProcessId, ())]| {
                if procs[0].started && procs[1].armed {
                    Err("p1 armed behind an opaque rendering and p0 started after it".into())
                } else {
                    Ok(())
                }
            },
        )
    };

    let structural = run(false);
    assert!(
        structural.violation.is_some(),
        "a Debug-blind detector transition must still block the certificate: {structural:?}"
    );
    let fingerprint_alike = run(true);
    assert!(
        fingerprint_alike.violation.is_none(),
        "fixture stale: the rendering collision no longer prunes the miss: {fingerprint_alike:?}"
    );
    assert!(
        fingerprint_alike.states_pruned_dpor > 0,
        "the fingerprint miss must come from a sleep prune: {fingerprint_alike:?}"
    );
}

/// Dedup on a clean family may only *reduce* the states expanded, never
/// miss any verdict-relevant ones — sanity-check the count relation too.
#[test]
fn dedup_only_shrinks_the_search() {
    for seed in [1, 2, 3, 5, 6] {
        let count = |mode| {
            run_family(seed, mode, ExploreConfig::new(6).with_max_states(500_000)).states_visited
        };
        assert!(
            count(Mode::Fingerprint) <= count(Mode::DedupOff),
            "seed {seed}"
        );
    }
}
