//! The observability layer's load-bearing guarantee: metrics **never**
//! influence what the simulator or the explorer compute. Turning metrics
//! on must leave every [`RunOutcome`], every trace, and every
//! [`ExploreReport`] byte-identical to a metrics-off execution — at any
//! thread count — because the obs handle only ever writes to a side table
//! of relaxed atomics that nothing on the decision path reads back.
//!
//! These tests are the acceptance gate for that claim:
//!
//! * engine runs with `Obs::off()` vs `Obs::on()` produce identical
//!   outcomes and identical traces (full `Debug` form),
//! * explorations with metrics off vs on produce byte-identical reports
//!   at 1 and 4 worker threads,
//! * the Figure 3 extraction host emits the same trace with metrics off
//!   or on, its rounds timed and their extension steps counted,
//! * and while invisible to results, the metrics are *not* inert: the
//!   snapshot carries the exact traversal counters and its JSON export
//!   round-trips through the crate's own parser.

use wfd_detectors::oracles::{OmegaOracle, PairOracle, SigmaOracle};
use wfd_extraction::{OmegaSigmaQcFamily, PsiExtraction};
use wfd_sim::json::Json;
use wfd_sim::{
    explore, CounterId, Ctx, ExploreConfig, ExploreReport, FailurePattern, NoDetector, Obs,
    PhaseId, ProcessId, Protocol, RandomFair, RoundRobin, Sim, SimConfig,
};

/// A small token-relay protocol with enough branching to exercise the
/// explorer's dedup table and the engine's send paths.
#[derive(Clone, Debug, PartialEq)]
struct Relay {
    acc: u64,
    relays_left: u64,
}

impl Protocol for Relay {
    type Msg = u64;
    type Output = u64;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        ctx.broadcast_others(ctx.me().index() as u64);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, tag: u64) {
        self.acc = self.acc.wrapping_mul(7).wrapping_add(tag);
        ctx.output(self.acc);
        if self.relays_left > 0 && tag > 0 {
            self.relays_left -= 1;
            ctx.broadcast_others(tag - 1);
        }
    }
}

fn make_procs() -> Vec<Relay> {
    (0..2)
        .map(|_| Relay {
            acc: 1,
            relays_left: 1,
        })
        .collect()
}

fn safety(_: &[Relay], outputs: &[(ProcessId, u64)]) -> Result<(), String> {
    match outputs.iter().find(|(_, acc)| *acc > 40) {
        Some((p, acc)) => Err(format!("{p} overflowed: {acc}")),
        None => Ok(()),
    }
}

fn run_sim(obs: Obs) -> String {
    let n = 3;
    let mut sim = Sim::new(
        SimConfig::new(n).with_obs(obs),
        (0..n)
            .map(|_| Relay {
                acc: 1,
                relays_left: 2,
            })
            .collect(),
        FailurePattern::failure_free(n),
        NoDetector,
        RoundRobin::new(),
    );
    let outcome = sim.run();
    format!("{outcome:?}\n{:?}", sim.trace())
}

fn run_explore(obs: Obs, threads: usize) -> ExploreReport {
    let cfg = ExploreConfig::new(7)
        .with_max_states(500_000)
        .with_threads(threads)
        .with_obs(obs);
    explore(
        cfg,
        make_procs,
        vec![None, None],
        &FailurePattern::failure_free(2),
        NoDetector,
        safety,
    )
}

/// Figure 3 with `A` = consensus as QC and `D` = (Ω, Σ), one crash: the
/// host reaches its (Ω, Σ) rounds well before the horizon.
fn run_fig3(obs: Obs) -> String {
    let n = 3;
    let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(2), 400);
    let fd = PairOracle::new(
        OmegaOracle::new(&pattern, 500, 5),
        SigmaOracle::new(&pattern, 500, 5),
    );
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(6_000).with_obs(obs.clone()),
        (0..n)
            .map(|_| {
                PsiExtraction::new(OmegaSigmaQcFamily)
                    .with_eval_interval(48)
                    .with_obs(obs.clone())
            })
            .collect(),
        pattern,
        fd,
        RandomFair::new(5),
    );
    let outcome = sim.run();
    format!("{outcome:?}\n{:?}", sim.trace())
}

#[test]
fn engine_outcome_and_trace_are_identical_with_metrics_on() {
    assert_eq!(run_sim(Obs::off()), run_sim(Obs::on()));
}

#[test]
fn explore_reports_are_byte_identical_with_metrics_on_at_any_thread_count() {
    for threads in [1, 4] {
        let off = run_explore(Obs::off(), threads);
        let on = run_explore(Obs::on(), threads);
        assert_eq!(
            format!("{off:?}"),
            format!("{on:?}"),
            "{threads} threads: metrics changed the report"
        );
    }
}

#[test]
fn figure3_trace_is_identical_with_metrics_on() {
    let obs = Obs::on();
    assert_eq!(run_fig3(Obs::off()), run_fig3(obs.clone()));
    let snap = obs.snapshot().expect("metrics are on");
    let rounds = snap
        .phase(PhaseId::PsiRound)
        .expect("every phase is listed");
    assert!(rounds.calls > 0, "no (Ω, Σ) round ran");
    assert!(snap.counter(CounterId::PsiExtensionSteps) > 0);
}

#[test]
fn metrics_actually_measure_the_traversal() {
    let obs = Obs::on();
    let report = run_explore(obs.clone(), 1);
    let snap = obs.snapshot().expect("metrics are on");
    assert_eq!(
        snap.counter(CounterId::ExploreStatesVisited),
        report.states_visited as u64
    );
    assert_eq!(
        snap.counter(CounterId::ExploreDedupHits),
        report.dedup_hits as u64
    );
    assert_eq!(
        snap.counter(CounterId::ExploreDedupEntries),
        report.dedup_entries as u64
    );
    assert_eq!(snap.counter(CounterId::ExploreRuns), 1);
}

#[test]
fn snapshot_json_round_trips_through_the_crate_parser() {
    let obs = Obs::on();
    let _ = run_explore(obs.clone(), 2);
    let json = obs.snapshot().expect("metrics are on").to_json();
    let parsed = Json::parse(&json.to_string()).expect("metrics JSON must parse");
    let counters = parsed.get("counters").expect("counters block");
    assert!(counters.get("explore_states_visited").is_some());
    assert!(parsed.get("histograms").is_some());
    assert!(parsed.get("phases").is_some());
}

#[test]
fn off_handle_never_allocates_a_snapshot() {
    let obs = Obs::off();
    let _ = run_explore(obs.clone(), 1);
    assert!(obs.snapshot().is_none());
    assert!(!obs.is_on());
}
