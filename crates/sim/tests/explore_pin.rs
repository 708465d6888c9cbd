//! Pins the model checker's reports on `explore_dedup`'s 40-seed family
//! and on the E14-style liveness fixtures.
//!
//! Each explorer case folds every semantic `ExploreReport` field of all
//! 40 seeds (counts, flags and the counterexample's message and decision
//! list) into one FNV-1a digest, for plain exploration, DPOR, symmetry
//! and DPOR + symmetry, each at the default batch and at `batch = 1`.
//! Each liveness case digests `LivenessReport::to_json()` together with
//! the lasso's decision lists. Any change to the traversal order, the
//! revisit rule, the counterexample choice or the fair-graph build that
//! alters a single report moves a digest, so a refactor of the explorer
//! or the liveness checker must keep these constants.

use wfd_sim::liveness::fixtures::{Decider, PingPong};
use wfd_sim::{
    check_liveness, explore, Ctx, ExploreConfig, ExploreReport, FailurePattern, Footprint,
    LivenessConfig, Ltl, NoDetector, ProcessId, Protocol, StepKind, Symmetry, Time,
};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `explore_dedup`'s seed-parameterized protocol, verbatim: a burst of
/// tagged broadcasts, a mixing accumulator that is output on every
/// receipt, and a seed-dependent relay budget. Declares precise
/// footprints and full symmetry, so both reductions have work to do.
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

    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }
}

fn family_pattern(seed: u64) -> FailurePattern {
    if seed.is_multiple_of(4) {
        FailurePattern::failure_free(2).with_crash(ProcessId(1), (seed % 5) as Time)
    } else {
        FailurePattern::failure_free(2)
    }
}

fn run_family(seed: u64, cfg: ExploreConfig) -> ExploreReport {
    let bar = 20 + (seed % 30);
    let make = move || (0..2).map(|_| Mixer::family(seed)).collect::<Vec<_>>();
    let safety = move |_procs: &[Mixer], outputs: &[(ProcessId, u64)]| match outputs
        .iter()
        .find(|(_, acc)| *acc > bar)
    {
        Some((p, acc)) => Err(format!("{p} accumulated {acc} > {bar}")),
        None => Ok(()),
    };
    let pattern = family_pattern(seed);
    explore(cfg, make, vec![None, None], &pattern, NoDetector, safety)
}

/// Every semantic field of a report, one per line.
fn render(r: &ExploreReport) -> String {
    format!(
        "visited {} bounded {} capped {} entries {} hits {} frontier {} dpor {} sym {} reduced {}\n\
         violation {:?}\n",
        r.states_visited,
        r.depth_bounded,
        r.states_capped,
        r.dedup_entries,
        r.dedup_hits,
        r.max_frontier_len,
        r.states_pruned_dpor,
        r.symmetry_canonical_hits,
        r.reduction_enabled,
        r.violation
            .as_ref()
            .map(|v| (v.message.as_str(), &v.decisions)),
    )
}

/// One digest over the 40 seeds of the family under one configuration.
fn family_digest(dpor: bool, symmetry: bool, batch: Option<usize>) -> u64 {
    let mut text = String::new();
    for seed in 0..40u64 {
        let mut cfg = ExploreConfig::new(4 + (seed as usize % 4))
            .with_max_states(500_000)
            .with_dpor(dpor)
            .with_symmetry(symmetry);
        if let Some(batch) = batch {
            cfg = cfg.with_batch(batch);
        }
        text.push_str(&format!("seed {seed}\n"));
        text.push_str(&render(&run_family(seed, cfg)));
    }
    fnv1a(text.as_bytes())
}

#[test]
fn explorer_reports_are_pinned() {
    // (dpor, symmetry, batch, digest); `None` is the default batch.
    let cases: [(bool, bool, Option<usize>, u64); 8] = [
        (false, false, None, 0xf6c0_23cc_0f80_bb25),
        (false, false, Some(1), 0xcfbf_909c_cec9_d0d6),
        (true, false, None, 0x994f_fe7e_e752_6a51),
        (true, false, Some(1), 0x14ec_159c_d9f6_bbbc),
        (false, true, None, 0x24d9_2799_0e02_eda8),
        (false, true, Some(1), 0xa551_424c_722f_ccf1),
        (true, true, None, 0xe21c_0303_5d43_b176),
        (true, true, Some(1), 0x4068_644d_d037_5d05),
    ];
    let mut mismatches = Vec::new();
    for (dpor, symmetry, batch, want) in cases {
        let got = family_digest(dpor, symmetry, batch);
        if got != want {
            mismatches.push(format!(
                "dpor={dpor} symmetry={symmetry} batch={batch:?}: {got:#018x} (pinned {want:#018x})"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Run one liveness case and digest its JSON report plus its lasso.
fn liveness_digest(
    protocol: &str,
    n: usize,
    crashed: &[usize],
    gap: Time,
    symmetry: bool,
    formula: &Ltl,
) -> u64 {
    let mut pattern = FailurePattern::failure_free(n);
    for &p in crashed {
        pattern = pattern.with_crash(ProcessId(p), 0);
    }
    let cfg = LivenessConfig::new(gap, gap, 0).with_symmetry(symmetry);
    let report = match protocol {
        "PingPong" => check_liveness(
            cfg,
            || PingPong::fleet(n),
            vec![None; n],
            &pattern,
            NoDetector,
            formula,
        ),
        "Decider" => check_liveness(
            cfg,
            || Decider::fleet(n),
            vec![None; n],
            &pattern,
            NoDetector,
            formula,
        ),
        other => panic!("unknown fixture {other}"),
    }
    .expect("well-formed scenario");
    let lasso = report.lasso.as_ref().map(|l| (&l.stem, &l.cycle));
    fnv1a(format!("{}\n{lasso:?}", report.to_json()).as_bytes())
}

/// (fixture, n, processes crashed at 0, fairness gap, formula,
/// [digest with symmetry off, digest with symmetry on]).
type LivenessCase<'a> = (&'a str, usize, &'a [usize], Time, &'a Ltl, [u64; 2]);

#[test]
fn liveness_reports_are_pinned() {
    let decided = Ltl::prop("decided").eventually();
    let never_decided = Ltl::prop("decided").not().always();
    let all_decided = Ltl::prop("all-decided").eventually();
    let cases: [LivenessCase; 6] = [
        (
            "PingPong",
            2,
            &[],
            2,
            &decided,
            [0x7264_3a5d_09d2_7a49, 0x7238_37a4_28e8_28f4],
        ),
        (
            "PingPong",
            3,
            &[],
            2,
            &decided,
            [0x9a89_e014_62d9_2856, 0xeee7_4692_35f0_cc5a],
        ),
        (
            "PingPong",
            3,
            &[1],
            3,
            &decided,
            [0x4efb_e35e_4464_b65d, 0x134e_ca12_9c47_3944],
        ),
        (
            "PingPong",
            2,
            &[],
            3,
            &never_decided,
            [0x11d7_bf7e_9aea_ff78, 0x88f3_5468_554a_9afa],
        ),
        (
            "Decider",
            3,
            &[],
            2,
            &all_decided,
            [0x47cc_1e7d_4fab_3c9d, 0xdebb_56f6_ee82_0831],
        ),
        (
            "Decider",
            3,
            &[1, 2],
            3,
            &all_decided,
            [0xf6e8_be1c_d5b9_e9c6, 0xf6e8_be1c_d5b9_e9c6],
        ),
    ];
    let mut mismatches = Vec::new();
    for (protocol, n, crashed, gap, formula, pins) in cases {
        for (symmetry, want) in [false, true].into_iter().zip(pins) {
            let got = liveness_digest(protocol, n, crashed, gap, symmetry, formula);
            if got != want {
                mismatches.push(format!(
                    "{protocol} n={n} crashed={crashed:?} gap={gap} symmetry={symmetry} \
                     {formula}: {got:#018x} (pinned {want:#018x})"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
