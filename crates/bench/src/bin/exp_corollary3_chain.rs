//! **E10 — the Corollary 3 necessity chain, end to end.**
//!
//! The paper derives "(Ω, Σ) is necessary for consensus" by composition:
//! a detector `D` solving consensus implements registers (state-machine
//! approach), so Figure 1 extracts Σ from it; and it solves QC trivially,
//! so Figure 3 extracts the rest. Both compositions run here with
//! `D` = (Ω, Σ) and their outputs judged by the Σ- and Ψ-spec checkers.
//! The binary exits non-zero if either chain violates its spec.

use std::process::ExitCode;
use wfd_bench::Table;
use wfd_core::theorems::{self, RunSetup};
use wfd_detectors::check::PsiPhase;
use wfd_sim::{FailurePattern, ProcessId};

fn main() -> ExitCode {
    let mut violations = 0;
    let mut table = Table::new(
        "E10-corollary3-chain",
        "Corollary 3 executable: consensus → SMR registers → Fig 1 (Σ) and consensus-as-QC → Fig 3 ((Ω,Σ))",
        &["n", "crash", "sigma_chain", "omega_sigma_chain"],
    );
    for (n, crash) in [(3usize, None), (3, Some(400u64))] {
        let pattern = match crash {
            None => FailurePattern::failure_free(n),
            Some(t) => FailurePattern::failure_free(n).with_crash(ProcessId(n - 1), t),
        };
        let crash_str = crash.map(|t| t.to_string()).unwrap_or_else(|| "-".into());
        let setup = RunSetup::new(pattern).with_seed(5).with_horizon(150_000);

        let sigma = match theorems::consensus_yields_sigma(&setup) {
            Ok(stats) => format!(
                "ok ({} samples, stabilized {:?})",
                stats.samples,
                stats.stabilization_time()
            ),
            Err(v) => {
                violations += 1;
                format!("VIOLATION: {v}")
            }
        };
        let os = match theorems::consensus_yields_omega_sigma(&setup) {
            Ok(stats) => format!(
                "ok (phase {:?})",
                match stats.phase {
                    PsiPhase::AllBot => "all-bot",
                    PsiPhase::OmegaSigma => "omega-sigma",
                    PsiPhase::Fs => "fs",
                }
            ),
            Err(v) => {
                violations += 1;
                format!("VIOLATION: {v}")
            }
        };
        table.row(&[&n, &crash_str, &sigma, &os]);
    }
    table.finish();
    println!(
        "\nExpected shape: both chains conform in both environments; the Σ \
         chain's stabilisation follows the crash, the (Ω,Σ) chain settles in \
         omega-sigma mode (consensus never quits)."
    );
    if violations > 0 {
        eprintln!("{violations} chain run(s) violated their spec");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
