//! **E5 — Figure 3**: extract Ψ from a QC algorithm. Sweep system size,
//! Ψ mode and failure timing; validate the emitted stream against Ψ's
//! spec and report which behaviour it settled on and when processes left
//! the ⊥ phase.
//!
//! These are the longest runs in the experiment suite (up to 250k steps
//! each), so they fan out across cores ([`wfd_bench::sweep`]); rows come
//! back in grid order, byte-identical to a sequential sweep. The binary
//! exits non-zero if any run violates Ψ's spec.

use std::process::ExitCode;
use wfd_bench::sweep::{grid2, Sweep};
use wfd_bench::Table;
use wfd_core::theorems::{self, RunSetup};
use wfd_detectors::check::PsiPhase;
use wfd_detectors::oracles::PsiMode;
use wfd_sim::{FailurePattern, ProcessId};

fn main() -> ExitCode {
    let mut table = Table::new(
        "E5-fig3-psi-extraction",
        "Figure 3: Ψ extracted from (D = Ψ-oracle, A = Figure-2 QC) — spec verdict, \
         settled phase, and ⊥-exit times",
        &[
            "n",
            "mode",
            "crash_at",
            "ok",
            "phase",
            "first_switch",
            "last_switch",
        ],
    );
    let cases: Vec<(PsiMode, Option<u64>)> = vec![
        (PsiMode::OmegaSigma, None),
        (PsiMode::OmegaSigma, Some(600)),
        (PsiMode::Fs, Some(40)),
    ];
    let specs = grid2(&[3usize, 4], &cases);
    let rows = Sweep::over(specs).run_parallel(|(n, (mode, crash))| {
        let (n, mode, crash) = (*n, *mode, *crash);
        let pattern = match crash {
            None => FailurePattern::failure_free(n),
            Some(t) => FailurePattern::failure_free(n).with_crash(ProcessId(n - 1), t),
        };
        let crash_str = crash.map(|t| t.to_string()).unwrap_or_else(|| "-".into());
        let setup = RunSetup::new(pattern)
            .with_seed(3)
            .with_stabilize(60)
            .with_horizon(if n == 3 { 150_000 } else { 250_000 });
        let verdict = theorems::qc_yields_psi(&setup, mode);
        let row = match &verdict {
            Ok(stats) => {
                let phase = match stats.phase {
                    PsiPhase::AllBot => "all-bot",
                    PsiPhase::OmegaSigma => "omega-sigma",
                    PsiPhase::Fs => "fs",
                };
                let switches: Vec<u64> = stats.switch_times.iter().flatten().copied().collect();
                vec![
                    n.to_string(),
                    format!("{mode:?}"),
                    crash_str,
                    "yes".into(),
                    phase.into(),
                    format!("{:?}", switches.iter().min()),
                    format!("{:?}", switches.iter().max()),
                ]
            }
            Err(v) => vec![
                n.to_string(),
                format!("{mode:?}"),
                crash_str,
                format!("VIOLATION: {v}"),
                "-".into(),
                "-".into(),
                "-".into(),
            ],
        };
        (verdict.is_err(), row)
    });
    let violations = rows.iter().filter(|(violated, _)| *violated).count();
    for (_, row) in rows {
        table.row_strings(row);
    }
    table.finish();
    println!(
        "\nExpected shape: consensus-mode detectors extract omega-sigma (even with \
         a crash), FS-mode detectors extract fs; every run spec-checked."
    );
    if violations > 0 {
        eprintln!("{violations} run(s) violated Ψ's spec");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
