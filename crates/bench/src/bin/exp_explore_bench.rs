//! **A4 — model-checker throughput ladder.** States/sec of the bounded
//! explorer across its optimization axes, written to `BENCH_explore.json`
//! at the repo root so future PRs have a trajectory to beat:
//!
//! * `baseline_string_key` — the PR 2 inner loop verbatim
//!   ([`wfd_sim::explore_baseline`]): sequential DFS, full `State` clone
//!   per branch, `format!("{:?}")` `String` dedup keys,
//! * `baseline_fingerprint` — the same loop with 128-bit fingerprint keys
//!   (isolates the key-representation axis),
//! * `optimized_1_thread` — fingerprints + shared-prefix states +
//!   free-list arena + batched frontier ([`wfd_sim::explore()`], which
//!   runs on the calling thread; isolates the state-representation axis),
//! * `reduced_dpor` / `reduced_symmetry` / `reduced_dpor_symmetry` — the
//!   state-space reductions ([`ExploreConfig::with_dpor`] /
//!   [`ExploreConfig::with_symmetry`]) on the optimized loop. These rungs
//!   visit *fewer* states by design, so they are cross-checked on the
//!   verdict and the bound flags — not on report equality — and the
//!   combined rung must shrink the visit count (by ≥ 5× at the full
//!   ladder depth),
//! * `reduced_deep` — the combined reduction pushed past the unreduced
//!   horizon (depth 30), recorded to show the reductions buy *reach*,
//!   not just speed. Unreduced, that depth does not fit the bench budget.
//!
//! Every rung explores the *same* workload: all reports are cross-checked
//! before any number is written — a rung that silently changed the
//! verdict is a bug, not a result. The artifact records each rung's
//! seconds and `states_visited` next to its states/sec: the rungs visit
//! different numbers of states for the same coverage, so states/sec alone
//! does not compare across rungs.
//!
//! `--smoke` shrinks the workload and skips the artifact write (unless
//! `WFD_BENCH_OUT` is set) so CI can exercise the binary in seconds —
//! including the reduction rungs and their visit-shrink assertion.
//! Override reps with `WFD_EXPLORE_BENCH_REPS`. `--metrics[=PATH]` turns
//! on the [`wfd_sim::obs`] layer for the optimized rungs and appends the
//! `metrics` block to the artifact (or writes it to `PATH`).

use std::time::Instant;
use wfd_bench::{MetricsFlag, Table};
use wfd_sim::explore_baseline::explore_baseline;
use wfd_sim::json::Json;
use wfd_sim::{
    explore, Ctx, ExactKeyHasher, ExploreConfig, ExploreReport, FailurePattern, FingerprintHasher,
    Footprint, NoDetector, ProcessId, Protocol, StepKind, Symmetry,
};

/// The benchmark workload: a token-relay mesh with decaying traffic.
/// Each process pings every other process on start; every receipt mixes
/// the tag into a small accumulator and — while the process still has
/// reply budget (two replies each) — bounces a re-tagged token back to
/// the *sender*; λ steps advance a local phase counter. The mixing is
/// coarse (mod 64) so interleavings genuinely converge and the dedup
/// table works for a living; the reply budget tames the branching so the
/// full ladder depth lands around two million unreduced states — exactly
/// the regime where per-branch O(depth) cloning and `String` keys hurt
/// the historical loop.
///
/// The mesh is deliberately `S_n`-equivariant — identical initial state,
/// reply-to-sender routing, id-free payloads — so the full symmetry
/// group applies, and its footprints are exact (the reply budget is
/// visible to [`Protocol::footprint`], so a drained process declares a
/// purely local delivery), so DPOR has a real independence relation to
/// work with. (The previous id-seeded ring workload was only trivially
/// symmetric: a reduction ladder over it would have measured nothing.)
#[derive(Clone, Debug, PartialEq)]
struct Relay {
    acc: u8,
    phase: u8,
    replies: u8,
}

/// Per-process reply budget: each receipt re-arms the sender at most this
/// many times before the token dies out.
const REPLY_BUDGET: u8 = 2;

impl Protocol for Relay {
    type Msg = u8;
    type Output = u8;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        ctx.broadcast_others(1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, tag: u8) {
        self.acc = (self.acc.wrapping_mul(5).wrapping_add(tag)) % 64;
        if self.replies < REPLY_BUDGET {
            self.replies += 1;
            ctx.send(from, (tag + 1) % 8);
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        let _ = ctx;
        self.phase = (self.phase + 1) % 3;
    }

    fn footprint(&self, me: ProcessId, n: usize, step: StepKind<'_, Self>) -> Footprint {
        match step {
            StepKind::Start { .. } => Footprint::local().sends_to_others(n, me),
            StepKind::Deliver { from, .. } if self.replies < REPLY_BUDGET => {
                Footprint::local().sends_to(from)
            }
            _ => Footprint::local(),
        }
    }

    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }
}

const N: usize = 3;

fn make_procs() -> Vec<Relay> {
    (0..N)
        .map(|_| Relay {
            acc: 1,
            phase: 0,
            replies: 0,
        })
        .collect()
}

fn safety(_: &[Relay], _: &[(ProcessId, u8)]) -> Result<(), String> {
    Ok(())
}

struct Rung {
    name: &'static str,
    report: ExploreReport,
    secs: f64,
}

impl Rung {
    fn states_per_sec(&self) -> f64 {
        self.report.states_visited as f64 / self.secs.max(1e-9)
    }

    /// The rung's artifact entry: wall-clock, visits and their ratio.
    fn to_json(&self) -> (String, Json) {
        (
            self.name.to_string(),
            Json::Obj(vec![
                ("secs".to_string(), Json::Num(format!("{:.3}", self.secs))),
                (
                    "states_visited".to_string(),
                    Json::usize(self.report.states_visited),
                ),
                (
                    "states_per_sec".to_string(),
                    Json::Num(format!("{:.0}", self.states_per_sec())),
                ),
            ]),
        )
    }
}

/// Best-of-`reps` timing of one exploration mode.
fn time_rung(name: &'static str, reps: usize, run: impl Fn() -> ExploreReport) -> Rung {
    let mut best: Option<Rung> = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let report = run();
        let secs = t0.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|b| secs < b.secs) {
            best = Some(Rung { name, report, secs });
        }
    }
    best.expect("reps >= 1")
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = MetricsFlag::take(&mut args);
    let smoke = args.iter().any(|a| a == "--smoke");
    let obs = metrics.resolve_obs();
    let depth = std::env::var("WFD_EXPLORE_BENCH_DEPTH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 6 } else { 23 });
    let deep_depth = depth + 7;
    let reps = std::env::var("WFD_EXPLORE_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1 } else { 3 });
    let pattern = FailurePattern::failure_free(N);
    let cfg = ExploreConfig::new(depth).with_max_states(10_000_000);
    // The optimized rungs carry the obs handle (off unless `--metrics` or
    // `WFD_METRICS` asked for it — and off costs nothing, which is
    // exactly what the speedup acceptance gate measures).
    let optimized = || cfg.clone().with_obs(obs.clone());
    let invocations = || vec![None; N];

    let rungs = [
        time_rung("baseline_string_key", reps, || {
            explore_baseline(
                cfg.clone(),
                ExactKeyHasher,
                make_procs,
                invocations(),
                &pattern,
                NoDetector,
                safety,
            )
        }),
        time_rung("baseline_fingerprint", reps, || {
            explore_baseline(
                cfg.clone(),
                FingerprintHasher,
                make_procs,
                invocations(),
                &pattern,
                NoDetector,
                safety,
            )
        }),
        time_rung("optimized_1_thread", reps, || {
            explore(
                optimized(),
                make_procs,
                invocations(),
                &pattern,
                NoDetector,
                safety,
            )
        }),
    ];

    // No rung may change what was decided — only how fast. Between the
    // baseline (classic DFS) and the optimized loop (batched traversal)
    // the *visit order* legitimately differs, which moves the
    // traversal-shaped counters (`states_visited` can shrink because the
    // batch order commits minimal depths earlier and budget-aware
    // re-expansion rarely triggers; `dedup_hits`/`max_frontier_len`
    // follow) — but the verdict, the flags, and the distinct-state
    // coverage (`dedup_entries`) must be identical.
    let anchor = &rungs[0].report;
    for rung in &rungs[1..] {
        let r = &rung.report;
        assert!(
            anchor.depth_bounded == r.depth_bounded
                && anchor.states_capped == r.states_capped
                && anchor.dedup_entries == r.dedup_entries
                && anchor.violation == r.violation,
            "{} diverged from the baseline:\n{anchor:?}\nvs\n{r:?}",
            rung.name,
        );
    }
    assert!(
        *anchor == rungs[1].report,
        "the two baseline rungs share a traversal and must agree exactly"
    );
    let optimized_report = &rungs[2].report;
    assert!(
        anchor.violation.is_none() && !anchor.states_capped,
        "workload must be clean and uncapped, got {anchor:?}"
    );

    // The reduction rungs: fewer states, same verdict. Report equality
    // would be the wrong cross-check here — shrinking the space is the
    // point — so the gate is verdict + bound-flag equality plus a strict
    // visit decrease for the combined rung (≥ 5× at full ladder depth).
    let reduced = |dpor: bool, symmetry: bool| optimized().with_dpor(dpor).with_symmetry(symmetry);
    let reduction_rungs = vec![
        time_rung("reduced_dpor", reps, || {
            explore(
                reduced(true, false),
                make_procs,
                invocations(),
                &pattern,
                NoDetector,
                safety,
            )
        }),
        time_rung("reduced_symmetry", reps, || {
            explore(
                reduced(false, true),
                make_procs,
                invocations(),
                &pattern,
                NoDetector,
                safety,
            )
        }),
        time_rung("reduced_dpor_symmetry", reps, || {
            explore(
                reduced(true, true),
                make_procs,
                invocations(),
                &pattern,
                NoDetector,
                safety,
            )
        }),
    ];
    for rung in &reduction_rungs {
        let r = &rung.report;
        assert!(
            r.reduction_enabled
                && anchor.depth_bounded == r.depth_bounded
                && anchor.states_capped == r.states_capped
                && anchor.violation == r.violation,
            "{} changed the verdict:\n{anchor:?}\nvs\n{r:?}",
            rung.name,
        );
    }
    let unreduced_states = optimized_report.states_visited;
    let combined = &reduction_rungs[2];
    assert!(
        combined.report.states_visited < unreduced_states,
        "combined reduction must visit strictly fewer states: {} vs {unreduced_states}",
        combined.report.states_visited
    );
    let reduction_factor = unreduced_states as f64 / combined.report.states_visited.max(1) as f64;
    if !smoke && std::env::var("WFD_EXPLORE_BENCH_DEPTH").is_err() {
        assert!(
            reduction_factor >= 5.0,
            "DPOR+symmetry must shrink the full-depth ladder ≥ 5×, got {reduction_factor:.2}×"
        );
    }

    // Reach: the combined reduction at a depth the unreduced loop cannot
    // afford. Smoke keeps the deep rung tiny via the shrunken base depth.
    let deep = time_rung("reduced_deep", 1, || {
        explore(
            ExploreConfig::new(deep_depth)
                .with_max_states(10_000_000)
                .with_dpor(true)
                .with_symmetry(true),
            make_procs,
            invocations(),
            &pattern,
            NoDetector,
            safety,
        )
    });
    assert!(
        deep.report.violation.is_none() && !deep.report.states_capped,
        "deep reduced rung must stay clean and uncapped, got {:?}",
        deep.report
    );

    let mut table = Table::new(
        "A4-explore-bench",
        "Bounded-explorer throughput ladder (same workload per rung)",
        &["rung", "states/sec", "secs", "speedup"],
    );
    // Speedup is wall-clock on the identical workload (states/sec is
    // reported per rung because the batched traversal legitimately needs
    // fewer visits for the same coverage — that is part of the win).
    let base_secs = rungs[0].secs;
    for rung in rungs.iter().chain(&reduction_rungs).chain([&deep]) {
        table.row_strings(vec![
            rung.name.to_string(),
            format!("{:.0}", rung.states_per_sec()),
            format!("{:.3}", rung.secs),
            format!("{:.2}x", base_secs / rung.secs.max(1e-9)),
        ]);
    }
    table.row_strings(vec![
        "states_visited".into(),
        anchor.states_visited.to_string(),
        String::new(),
        String::new(),
    ]);
    table.row_strings(vec![
        "dedup_entries/hits".into(),
        format!("{}/{}", anchor.dedup_entries, anchor.dedup_hits),
        String::new(),
        String::new(),
    ]);
    table.finish();

    let ratio = |slow: &Rung, fast: &Rung| slow.secs / fast.secs.max(1e-9);
    let fingerprint_gain = ratio(&rungs[0], &rungs[1]);
    let shared_prefix_gain = ratio(&rungs[1], &rungs[2]);
    let optimized_gain = ratio(&rungs[0], &rungs[2]);
    println!(
        "fingerprint {fingerprint_gain:.2}x · shared-prefix {shared_prefix_gain:.2}x · \
         combined single-thread {optimized_gain:.2}x over the PR 2 loop · \
         reduction {reduction_factor:.2}x fewer states · \
         deep rung depth {deep_depth}: {} states in {:.3}s",
        deep.report.states_visited, deep.secs
    );

    let rung_json: Vec<(String, Json)> = rungs
        .iter()
        .chain(&reduction_rungs)
        .chain([&deep])
        .map(Rung::to_json)
        .collect();

    let mut json = Json::Obj(vec![
        (
            "workload".to_string(),
            Json::Obj(vec![
                ("protocol".to_string(), Json::str("relay-mesh")),
                ("n".to_string(), Json::usize(N)),
                ("depth".to_string(), Json::usize(depth)),
                (
                    "states_visited".to_string(),
                    Json::usize(anchor.states_visited),
                ),
                (
                    "dedup_entries".to_string(),
                    Json::usize(anchor.dedup_entries),
                ),
                ("dedup_hits".to_string(), Json::usize(anchor.dedup_hits)),
                (
                    "max_frontier_len".to_string(),
                    Json::usize(anchor.max_frontier_len),
                ),
                ("smoke".to_string(), Json::bool(smoke)),
            ]),
        ),
        ("rungs".to_string(), Json::Obj(rung_json)),
        (
            "speedup".to_string(),
            Json::Obj(vec![
                (
                    "fingerprint_vs_string_key".to_string(),
                    Json::Num(format!("{fingerprint_gain:.2}")),
                ),
                (
                    "shared_prefix_vs_clone".to_string(),
                    Json::Num(format!("{shared_prefix_gain:.2}")),
                ),
                (
                    "optimized_vs_baseline_single_thread".to_string(),
                    Json::Num(format!("{optimized_gain:.2}")),
                ),
            ]),
        ),
        (
            "reduction".to_string(),
            Json::Obj(vec![
                (
                    "unreduced_states".to_string(),
                    Json::usize(unreduced_states),
                ),
                (
                    "dpor_states".to_string(),
                    Json::usize(reduction_rungs[0].report.states_visited),
                ),
                (
                    "symmetry_states".to_string(),
                    Json::usize(reduction_rungs[1].report.states_visited),
                ),
                (
                    "dpor_symmetry_states".to_string(),
                    Json::usize(combined.report.states_visited),
                ),
                (
                    "states_pruned_dpor".to_string(),
                    Json::usize(combined.report.states_pruned_dpor),
                ),
                (
                    "symmetry_canonical_hits".to_string(),
                    Json::usize(combined.report.symmetry_canonical_hits),
                ),
                (
                    "factor".to_string(),
                    Json::Num(format!("{reduction_factor:.2}")),
                ),
                ("deep_depth".to_string(), Json::usize(deep_depth)),
                (
                    "deep_states".to_string(),
                    Json::usize(deep.report.states_visited),
                ),
                (
                    "deep_secs".to_string(),
                    Json::Num(format!("{:.3}", deep.secs)),
                ),
            ]),
        ),
    ]);

    if let Some(metrics_json) = metrics.emit(&obs) {
        let Json::Obj(fields) = &mut json else {
            unreachable!("artifact root is an object")
        };
        fields.push(("metrics".to_string(), metrics_json));
        // The whole artifact must still parse with the metrics block in.
        Json::parse(&json.to_string()).expect("artifact with metrics block must parse");
        println!("(metrics block attached: phase timers, dedup counters, frontier histograms)");
    }

    let out = std::env::var("WFD_BENCH_OUT").ok();
    if smoke && out.is_none() {
        if metrics.enabled && metrics.path.is_none() {
            println!("{json}");
        }
        println!("(smoke run: artifact write skipped)");
        return;
    }
    let out = out.unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json").to_string()
    });
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_explore.json");
    println!("(saved {out})");
}
