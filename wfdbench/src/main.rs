//! The repository's benchmark: the paper's spec-checked runs and the
//! model checker, end to end (tracing off) and layer by layer (tracing
//! on).
//!
//! ```text
//! cargo run --release --manifest-path wfdbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates the workload's batch of units from the seed, then
//! runs the batch in rounds until `--seconds` is spent (at least
//! [`MIN_ROUNDS`] rounds). Every unit's verdict is checked against its
//! expectation, its stats digest against the first round's (and, for the
//! default seed, against the digest pinned in `digests.txt`). With
//! `--trace 1` each round runs the batch twice, untraced and traced, and
//! the traced digests must equal the untraced ones. The last line of
//! standard output is the result JSON; the lines before it are the
//! human-readable metrics and the host/config record.
//! End-to-end times take each unit at its fastest round (see `report`).
//!
//! `--pin` prints the digest lines of the default seed for `digests.txt`.

mod host;
mod report;
mod spans;
mod timed;
mod units;
mod workloads;

use report::{Measured, Round};
use spans::Spans;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use units::Unit;
use workloads::Workload;

/// The seed whose per-unit digests are pinned in `digests.txt`.
const DEFAULT_SEED: u64 = 1;
/// Rounds every run completes, whatever `--seconds` says, so every unit
/// has several times to take the best of.
const MIN_ROUNDS: usize = 3;
/// Rounds a traced run completes (each runs the batch untraced and
/// traced); the traced run reports no tail.
const MIN_TRACED_ROUNDS: usize = 2;
/// Input generations timed for `setup_s` before each round (the median
/// over all of them is reported).
const SETUP_REPS: usize = 21;
const PINNED: &str = include_str!("../digests.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut pin = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        pin,
    })
}

/// The pinned digests of `workload`'s units, by unit name.
fn pinned(workload: Workload) -> BTreeMap<&'static str, u64> {
    PINNED
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            (f.next()? == workload.name())
                .then(|| Some((f.next()?, u64::from_str_radix(f.next()?, 16).ok()?)))
                .flatten()
        })
        .collect()
}

/// Run the batch once, checking every verdict. `reference` holds each
/// unit's first untraced digest (filled on the first round).
fn run_round(
    units: &[Unit],
    spans: &mut Spans,
    reference: &mut Vec<u64>,
    failures: &mut Vec<String>,
) -> Round {
    let mut unit_secs = Vec::with_capacity(units.len());
    let started = Instant::now();
    for (i, unit) in units.iter().enumerate() {
        let t0 = Instant::now();
        let verdict = units::run(unit, spans);
        unit_secs.push(t0.elapsed().as_secs_f64());
        if reference.len() == i {
            reference.push(verdict.digest);
        }
        if verdict.label != unit.expect {
            failures.push(format!(
                "{}: verdict {} (expected {})",
                unit.name, verdict.label, unit.expect
            ));
        } else if verdict.digest != reference[i] {
            failures.push(format!(
                "{}: digest {:016x} differs from {:016x}{}",
                unit.name,
                verdict.digest,
                reference[i],
                if spans.is_on() {
                    " (traced vs untraced)"
                } else {
                    ""
                }
            ));
        }
    }
    Round {
        wall_s: started.elapsed().as_secs_f64(),
        unit_secs,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: wfd-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--pin]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Single process, every worker-thread knob pinned to one.
    std::env::set_var("WFD_SWEEP_THREADS", "1");
    std::env::set_var("WFD_EXPLORE_THREADS", "1");

    if args.pin {
        let units = args.workload.units(DEFAULT_SEED);
        for unit in &units {
            let v = units::run(unit, &mut Spans::off());
            println!("{} {} {:016x}", args.workload.name(), unit.name, v.digest);
        }
        return ExitCode::SUCCESS;
    }

    let units = args.workload.units(args.seed);
    let mut setup_s = Vec::new();
    let mut failures = Vec::new();
    // Digests are pinned for the default seed only.
    let pins = if args.seed == DEFAULT_SEED {
        pinned(args.workload)
    } else {
        BTreeMap::new()
    };
    let mut reference: Vec<u64> = Vec::new();
    let mut plain_rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut traced = Spans::on();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    loop {
        // Set-up (generating the batch's inputs) is timed again before
        // every round, so its samples see the same host as the rounds do
        // rather than only the cold start of the process.
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let inputs = std::hint::black_box(args.workload.units(args.seed));
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(inputs);
        }
        plain_rounds.push(run_round(
            &units,
            &mut Spans::off(),
            &mut reference,
            &mut failures,
        ));
        if plain_rounds.len() == 1 && args.seed == DEFAULT_SEED {
            for (unit, digest) in units.iter().zip(&reference) {
                match pins.get(unit.name.as_str()) {
                    None => failures.push(format!("{}: no pinned digest", unit.name)),
                    Some(pin) if pin != digest => failures.push(format!(
                        "{}: digest {digest:016x} is not the pinned {pin:016x}",
                        unit.name
                    )),
                    Some(_) => {}
                }
            }
        }
        if args.trace {
            traced_rounds.push(run_round(
                &units,
                &mut traced,
                &mut reference,
                &mut failures,
            ));
        }
        let rounds = plain_rounds.len();
        let elapsed = started.elapsed();
        let min_rounds = if args.trace {
            MIN_TRACED_ROUNDS
        } else {
            MIN_ROUNDS
        };
        if rounds >= min_rounds && elapsed + elapsed / rounds as u32 > budget {
            break;
        }
    }

    let measured = Measured {
        workload: args.workload,
        units_per_batch: units.len(),
        setup_s,
        plain: plain_rounds,
        traced: traced_rounds,
        spans: traced,
    };
    // Per-unit best times go to standard error, for reading a run by hand.
    for (unit, best) in units.iter().zip(measured.unit_best()) {
        eprintln!("unit {:<40} {best:>12.6} s  {}", unit.name, unit.expect);
    }
    let attempted = measured.attempted();
    let mut metrics = if args.trace {
        measured.per_layer()
    } else {
        measured.end_to_end()
    };
    if args.trace {
        failures.extend(measured.residue_failures(&metrics));
    }
    let failed = failures.len().min(attempted);
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    metrics.sort_by_key(|m| m.name);
    report::print(
        &measured, args.seed, args.trace, &metrics, attempted, failed,
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
