//! Value ranges of the paper's failure detectors.

use std::fmt;
use wfd_sim::{ProcessId, ProcessSet};

/// The range of the failure-signal detector FS: `{green, red}`.
///
/// `green` means "no failure observed so far"; `red` is a (truthful) signal
/// that some process has crashed.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum Signal {
    /// No failure has been signalled.
    Green,
    /// A failure has occurred (FS may only show this truthfully).
    Red,
}

impl Signal {
    /// Whether this is [`Signal::Red`].
    pub fn is_red(self) -> bool {
        matches!(self, Signal::Red)
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Signal::Green => "green",
            Signal::Red => "red",
        })
    }
}

/// The range of the composite detector (Ω, Σ): a leader id paired with a
/// quorum.
///
/// The paper writes `(D, D′)` for the detector outputting the vector of
/// both components; (Ω, Σ) is the weakest detector for consensus in every
/// environment.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct OmegaSigma {
    /// The Ω component: current leader estimate.
    pub leader: ProcessId,
    /// The Σ component: current quorum.
    pub quorum: ProcessSet,
}

impl fmt::Display for OmegaSigma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(leader={}, quorum={})", self.leader, self.quorum)
    }
}

/// The range of Ψ: `⊥` for an initial period, then either (Ω, Σ) values or
/// FS values — the same choice at all processes, and the FS choice only if
/// a failure has occurred.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum PsiValue {
    /// The initial "undecided" output.
    Bot,
    /// Ψ has switched to behaving like (Ω, Σ).
    OmegaSigma(OmegaSigma),
    /// Ψ has switched to behaving like FS (legitimate only after a
    /// failure).
    Fs(Signal),
}

impl PsiValue {
    /// Whether this value is the initial ⊥.
    pub fn is_bot(&self) -> bool {
        matches!(self, PsiValue::Bot)
    }

    /// The (Ω, Σ) component, if Ψ is in consensus mode.
    pub fn as_omega_sigma(&self) -> Option<&OmegaSigma> {
        match self {
            PsiValue::OmegaSigma(v) => Some(v),
            _ => None,
        }
    }

    /// The FS component, if Ψ is in failure-signal mode.
    pub fn as_fs(&self) -> Option<Signal> {
        match self {
            PsiValue::Fs(s) => Some(*s),
            _ => None,
        }
    }
}

impl fmt::Display for PsiValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsiValue::Bot => f.write_str("⊥"),
            PsiValue::OmegaSigma(v) => write!(f, "{v}"),
            PsiValue::Fs(s) => write!(f, "FS:{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_predicates_and_display() {
        assert!(Signal::Red.is_red());
        assert!(!Signal::Green.is_red());
        assert_eq!(Signal::Green.to_string(), "green");
        assert_eq!(Signal::Red.to_string(), "red");
        assert!(Signal::Green < Signal::Red);
    }

    #[test]
    fn omega_sigma_display() {
        let v = OmegaSigma {
            leader: ProcessId(1),
            quorum: [ProcessId(0), ProcessId(1)].into_iter().collect(),
        };
        assert_eq!(v.to_string(), "(leader=p1, quorum={p0, p1})");
    }

    #[test]
    fn psi_value_accessors() {
        let os = OmegaSigma {
            leader: ProcessId(0),
            quorum: ProcessSet::singleton(ProcessId(0)),
        };
        let bot = PsiValue::Bot;
        let cons = PsiValue::OmegaSigma(os);
        let fsv = PsiValue::Fs(Signal::Red);

        assert!(bot.is_bot());
        assert!(!cons.is_bot());
        assert_eq!(cons.as_omega_sigma(), Some(&os));
        assert_eq!(bot.as_omega_sigma(), None);
        assert_eq!(fsv.as_fs(), Some(Signal::Red));
        assert_eq!(cons.as_fs(), None);
        assert_eq!(bot.to_string(), "⊥");
        assert_eq!(fsv.to_string(), "FS:red");
    }
}
