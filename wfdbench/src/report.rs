//! Turning measured rounds into metrics, and printing them.
//!
//! End-to-end metrics come from the untraced rounds, through each unit's
//! fastest time over them: this host's speed comes and goes in bursts
//! of contention from its neighbours, and a unit's best of several rounds
//! falls in a quiet stretch far more reliably than its mean or median
//! does, while a slower program still raises every round, the best one
//! too. Per-layer metrics come from the traced rounds and are reported per round (totals divided
//! by the traced round count). Every parent time is split into its
//! children plus an explicit remainder:
//!
//! ```text
//! units.s       = engine.run_s + history.s + check.s + registers.linearizability_s
//!               + explore.s + liveness.s + replay.s + shrink.s + repro.json_s
//!               + units.unattributed_s
//! engine.run_s  = Σ <layer>.handler_s + engine.self_s
//! extraction.handler_s = extraction.forest_s + extraction.round_residual_s
//! explore.s     = explore.{key,revisit,oracle,expand,merge}_s + explore.unattributed_s
//! ```

use crate::host;
use crate::spans::{Span, Spans};
use crate::timed::{handler_ns, Layer};
use crate::workloads::Workload;
use wfd_sim::json::Json;
use wfd_sim::{CounterId, PhaseId};

/// One pass over the batch.
pub struct Round {
    pub wall_s: f64,
    pub unit_secs: Vec<f64>,
}

/// Everything one run measured.
pub struct Measured {
    pub workload: Workload,
    pub units_per_batch: usize,
    pub setup_s: Vec<f64>,
    pub plain: Vec<Round>,
    pub traced: Vec<Round>,
    pub spans: Spans,
}

/// A named value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Percentile of unsorted samples (`p` in 0..=100), interpolated
/// linearly between the two nearest ranks.
fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The percentile `verdict_s_tail` reports over the units' best times.
/// Every batch puts it inside its slowest kind of unit, not on the edge
/// between two kinds, where a single unit would decide it.
const TAIL_PERCENTILE: f64 = 90.0;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Measured {
    /// Unit executions, untraced and traced.
    pub fn attempted(&self) -> usize {
        self.units_per_batch * (self.plain.len() + self.traced.len())
    }

    /// Each unit's fastest time over the untraced rounds.
    pub fn unit_best(&self) -> Vec<f64> {
        (0..self.units_per_batch)
            .map(|i| {
                self.plain
                    .iter()
                    .map(|r| r.unit_secs[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        let best = self.unit_best();
        let batch_s: f64 = best.iter().sum();
        vec![
            m("setup_s", median(&self.setup_s), "s"),
            // The batch's seconds with every unit at its best.
            m("wall_s", batch_s, "s"),
            m("verdicts_per_s", ratio(best.len() as f64, batch_s), "1/s"),
            m("verdict_s_p50", median(&best), "s"),
            m("verdict_s_tail", percentile(&best, TAIL_PERCENTILE), "s"),
            m("peak_rss_mib", host::peak_rss_mib(), "MiB"),
        ]
    }

    pub fn per_layer(&self) -> Vec<Metric> {
        let rounds = self.traced.len().max(1) as f64;
        let sp = &self.spans;
        let s = |span: Span| sp.ns(span) as f64 / 1e9 / rounds;
        let snap = sp
            .obs
            .snapshot()
            .expect("the traced run's metric store is on");
        let phase = |id: PhaseId| snap.phase(id).map_or(0, |p| p.nanos) as f64 / 1e9 / rounds;
        let counter = |id: CounterId| snap.counter(id) as f64 / rounds;
        let handler = |layer: Layer| handler_ns(layer) as f64 / 1e9 / rounds;
        let per_round = |v: u64| v as f64 / rounds;
        let c = &sp.counts;

        let units_s: f64 = self
            .traced
            .iter()
            .flat_map(|r| r.unit_secs.iter())
            .sum::<f64>()
            / rounds;
        let engine_run = s(Span::Engine);
        let handlers: f64 = Layer::ALL.into_iter().map(handler).sum();
        let engine_self = engine_run - handlers;
        let steps = per_round(c.engine_steps);
        let forest = phase(PhaseId::ForestEvalIncremental) + phase(PhaseId::ForestEvalFullReplay);
        let explore_s = s(Span::Explore);
        let explore_phases = [
            ("explore.key_s", PhaseId::ExploreKey),
            ("explore.revisit_s", PhaseId::ExploreRevisit),
            ("explore.oracle_s", PhaseId::ExploreOracle),
            ("explore.expand_s", PhaseId::ExploreExpand),
            ("explore.merge_s", PhaseId::ExploreMerge),
        ];
        let explore_children: f64 = explore_phases.iter().map(|(_, id)| phase(*id)).sum();
        let liveness_s = s(Span::Liveness);
        let children = engine_run
            + s(Span::History)
            + s(Span::Check)
            + s(Span::Linearizability)
            + explore_s
            + liveness_s
            + s(Span::Replay)
            + s(Span::Shrink)
            + s(Span::ReproJson);
        let plain_walls: Vec<f64> = self.plain.iter().map(|r| r.wall_s).collect();
        let traced_walls: Vec<f64> = self.traced.iter().map(|r| r.wall_s).collect();

        let mut out = vec![
            m("units.s", units_s, "s"),
            m("units.unattributed_s", units_s - children, "s"),
            m(
                "trace.overhead_s",
                median(&traced_walls) - median(&plain_walls),
                "s",
            ),
            m("engine.run_s", engine_run, "s"),
            m("engine.self_s", engine_self, "s"),
            m("engine.steps", steps, "count"),
            m(
                "engine.messages_delivered",
                per_round(c.engine_messages_delivered),
                "count",
            ),
            m("engine.ns_per_step", ratio(engine_self * 1e9, steps), "ns"),
            m("extraction.forest_s", forest, "s"),
            m(
                "extraction.forest_full_replays",
                counter(CounterId::ForestEvalsFullReplay),
                "count",
            ),
            m(
                "extraction.forest_samples",
                counter(CounterId::ForestSamplesConsumed),
                "count",
            ),
            m(
                "extraction.round_residual_s",
                handler(Layer::Extraction) - forest,
                "s",
            ),
            m("history.s", s(Span::History), "s"),
            m("check.s", s(Span::Check), "s"),
            m("registers.linearizability_s", s(Span::Linearizability), "s"),
            m("explore.s", explore_s, "s"),
            m("explore.unattributed_s", explore_s - explore_children, "s"),
            m(
                "explore.states_visited",
                per_round(c.explore_states),
                "count",
            ),
            m(
                "explore.dedup_entries",
                per_round(c.explore_entries),
                "count",
            ),
            m(
                "explore.dedup_hit_rate",
                ratio(
                    c.explore_hits as f64,
                    (c.explore_hits + c.explore_states) as f64,
                ),
                "ratio",
            ),
            m("explore.dpor_pruned", per_round(c.explore_dpor), "count"),
            m(
                "explore.symmetry_hits",
                per_round(c.explore_symmetry),
                "count",
            ),
            m(
                "explore.ns_per_distinct_state",
                ratio(explore_s * 1e9, per_round(c.explore_entries)),
                "ns",
            ),
            m("liveness.s", liveness_s, "s"),
            m("liveness.states", per_round(c.liveness_states), "count"),
            m("liveness.edges", per_round(c.liveness_edges), "count"),
            m(
                "liveness.product_states",
                per_round(c.liveness_product),
                "count",
            ),
            m(
                "liveness.ns_per_state",
                ratio(liveness_s * 1e9, per_round(c.liveness_states)),
                "ns",
            ),
            m("replay.s", s(Span::Replay), "s"),
            m("shrink.s", s(Span::Shrink), "s"),
            m("shrink.predicate_calls", per_round(c.shrink_calls), "count"),
            m("repro.json_s", s(Span::ReproJson), "s"),
        ];
        for (name, id) in explore_phases {
            out.push(m(name, phase(id), "s"));
        }
        for layer in Layer::ALL {
            out.push(m(handler_name(layer), handler(layer), "s"));
        }
        out
    }

    /// Remainders more negative than clock resolution allows: a child
    /// span outside its parent, which would make the attribution wrong.
    pub fn residue_failures(&self, metrics: &[Metric]) -> Vec<String> {
        // Nanosecond clocks, truncated once per span: a microsecond per
        // round is far beyond what truncation can lose.
        const TOLERANCE_S: f64 = 1e-6;
        metrics
            .iter()
            .filter(|m| RESIDUES.contains(&m.name) && m.value < -TOLERANCE_S)
            .map(|m| format!("residue {} is negative: {} s", m.name, m.value))
            .collect()
    }
}

/// The remainder metrics: each is a parent minus its children.
const RESIDUES: [&str; 4] = [
    "units.unattributed_s",
    "engine.self_s",
    "extraction.round_residual_s",
    "explore.unattributed_s",
];

fn handler_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Extraction => "extraction.handler_s",
        Layer::Registers => "registers.handler_s",
        Layer::Consensus => "consensus.handler_s",
        Layer::Quittable => "quittable.handler_s",
        Layer::Nbac => "nbac.handler_s",
    }
}

fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    })
}

/// Print the human-readable lines, the host/config record, and — last —
/// the result JSON.
pub fn print(
    m: &Measured,
    seed: u64,
    trace: bool,
    metrics: &[Metric],
    attempted: usize,
    failed: usize,
) {
    let mode = if trace { "traced" } else { "untraced" };
    println!("# {} seed={seed} {mode}", m.workload.name());
    for metric in metrics {
        println!(
            "{:<34} {:>18} {}",
            metric.name,
            format!("{:.9}", metric.value),
            metric.unit
        );
    }
    let failed_share = ratio(failed as f64, attempted as f64);
    println!(
        "{:<34} {:>18} ratio ({failed} of {attempted} unit executions)",
        "failed_share", failed_share
    );
    if !trace {
        println!(
            "verdict_s_tail is p{} over the best times of {} units ({} rounds)",
            TAIL_PERCENTILE,
            m.units_per_batch,
            m.plain.len()
        );
    }
    for name in RESIDUES.iter().filter(|_| trace) {
        if let Some(r) = metrics.iter().find(|x| x.name == *name) {
            println!("residue {name} = {:.9} s", r.value);
        }
    }
    let record = Json::Obj(vec![
        ("workload".into(), Json::str(m.workload.name())),
        ("seed".into(), Json::u64(seed)),
        ("trace".into(), Json::bool(trace)),
        ("units_per_batch".into(), Json::usize(m.units_per_batch)),
        ("untraced_rounds".into(), Json::usize(m.plain.len())),
        (
            "untraced_round_walls_s".into(),
            Json::Arr(m.plain.iter().map(|r| num(r.wall_s)).collect()),
        ),
        ("traced_rounds".into(), Json::usize(m.traced.len())),
        ("tail_percentile".into(), num(TAIL_PERCENTILE)),
        ("failed_share".into(), num(failed_share)),
        ("nproc".into(), Json::usize(host::nproc())),
        ("cpu_model".into(), Json::str(&host::cpu_model())),
        ("rustc".into(), Json::str(host::rustc())),
        ("commit".into(), Json::str(&host::commit())),
        ("source_digest".into(), Json::str(&host::source_digest())),
        (
            "threads".into(),
            Json::Obj(vec![
                ("sweep".into(), Json::u64(1)),
                ("explore".into(), Json::u64(1)),
                ("liveness".into(), Json::u64(1)),
            ]),
        ),
    ]);
    println!("{}", Json::Obj(vec![("record".into(), record)]));
    let result = Json::Obj(vec![
        ("correct".into(), Json::bool(failed == 0)),
        ("attempted".into(), Json::usize(attempted)),
        ("failed".into(), Json::usize(failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|x| {
                        (
                            x.name.to_string(),
                            Json::Obj(vec![
                                ("value".into(), num(x.value)),
                                ("unit".into(), Json::str(x.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_json(relative: &str) -> Json {
        let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("benchmark file is readable");
        Json::parse(&text).expect("benchmark file is valid JSON")
    }

    fn listed(doc: &Json, key: &str) -> Vec<String> {
        let mut names: Vec<String> = doc
            .get(key)
            .and_then(Json::as_array)
            .expect("list present")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("named")
                    .to_string()
            })
            .collect();
        names.sort();
        names
    }

    fn reported(metrics: Vec<Metric>) -> Vec<String> {
        let mut names: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
        names.sort();
        names
    }

    fn measured() -> Measured {
        let round = || Round {
            wall_s: 1.0,
            unit_secs: vec![1.0],
        };
        Measured {
            workload: Workload::SimSweep,
            units_per_batch: 1,
            setup_s: vec![1.0],
            plain: vec![round()],
            traced: vec![round()],
            spans: Spans::on(),
        }
    }

    #[test]
    fn reported_metrics_are_the_ones_benchmark_json_lists() {
        let doc = read_json("../BENCHMARK.json");
        assert_eq!(
            reported(measured().end_to_end()),
            listed(&doc, "end_to_end")
        );
        assert_eq!(reported(measured().per_layer()), listed(&doc, "per_layer"));
    }

    #[test]
    fn layer_map_places_every_per_layer_metric_once() {
        let map = read_json("layer_map.json");
        let mut mapped: Vec<String> = map
            .get("layers")
            .and_then(Json::as_array)
            .expect("layers")
            .iter()
            .flat_map(|l| l.get("metrics").and_then(Json::as_array).expect("metrics"))
            .map(|m| m.as_str().expect("metric name").to_string())
            .collect();
        mapped.sort();
        assert_eq!(mapped, reported(measured().per_layer()));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 50.0), 2.5);
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 100.0), 4.0);
        assert_eq!(percentile(&[0.0, 10.0], 90.0), 9.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }
}
