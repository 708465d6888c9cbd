//! Failure patterns `F : T → 2^Π` and environments `E ⊆ {failure patterns}`.

use crate::id::{assert_capacity, ProcessId, ProcessSet, Time};
use crate::rng::SimRng;
use std::fmt;

/// A failure pattern: for each process, the time at which it crashes (if
/// ever).
///
/// This is the paper's `F : T → 2^Π` in its canonical compressed form —
/// crashes are permanent (`F(t) ⊆ F(t+1)`), so a pattern is fully described
/// by one optional crash time per process.
///
/// ```
/// use wfd_sim::{FailurePattern, ProcessId};
/// let f = FailurePattern::failure_free(3).with_crash(ProcessId(1), 10);
/// assert!(!f.is_crashed(ProcessId(1), 9));
/// assert!(f.is_crashed(ProcessId(1), 10));
/// assert_eq!(f.faulty().len(), 1);
/// assert_eq!(f.correct().len(), 2);
/// ```
#[derive(Clone, Eq, PartialEq, Hash, Debug)]
pub struct FailurePattern {
    crash: Vec<Option<Time>>,
}

impl FailurePattern {
    /// The failure-free pattern on `n` processes (nobody ever crashes).
    ///
    /// # Panics
    ///
    /// Panics if `n` is above [`ProcessSet::CAPACITY`].
    pub fn failure_free(n: usize) -> Self {
        assert_capacity(n);
        FailurePattern {
            crash: vec![None; n],
        }
    }

    /// Builder-style: return a copy of this pattern in which `p`
    /// additionally crashes at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn with_crash(mut self, p: ProcessId, t: Time) -> Self {
        self.crash[p.index()] = Some(t);
        self
    }

    /// A pattern in which exactly the given `(process, time)` pairs crash.
    pub fn with_crashes(n: usize, crashes: &[(ProcessId, Time)]) -> Self {
        let mut f = Self::failure_free(n);
        for &(p, t) in crashes {
            f.crash[p.index()] = Some(t);
        }
        f
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.crash.len()
    }

    /// The crash time of `p`, if `p` is faulty in this pattern.
    pub fn crash_time(&self, p: ProcessId) -> Option<Time> {
        self.crash[p.index()]
    }

    /// Whether `p` has crashed by time `t` (inclusive): `p ∈ F(t)`.
    pub fn is_crashed(&self, p: ProcessId, t: Time) -> bool {
        matches!(self.crash[p.index()], Some(ct) if ct <= t)
    }

    /// `F(t)`: the set of processes crashed through time `t`.
    pub fn crashed_at(&self, t: Time) -> ProcessSet {
        ProcessId::all(self.n())
            .filter(|&p| self.is_crashed(p, t))
            .collect()
    }

    /// The set of processes alive (not yet crashed) at time `t`.
    pub fn alive_at(&self, t: Time) -> ProcessSet {
        ProcessId::all(self.n())
            .filter(|&p| !self.is_crashed(p, t))
            .collect()
    }

    /// `faulty(F)`: processes that crash at some time in this pattern.
    pub fn faulty(&self) -> ProcessSet {
        ProcessId::all(self.n())
            .filter(|&p| self.crash[p.index()].is_some())
            .collect()
    }

    /// `correct(F) = Π − faulty(F)`.
    pub fn correct(&self) -> ProcessSet {
        ProcessId::all(self.n())
            .filter(|&p| self.crash[p.index()].is_none())
            .collect()
    }

    /// Whether `p` is correct (never crashes) in this pattern.
    pub fn is_correct(&self, p: ProcessId) -> bool {
        self.crash[p.index()].is_none()
    }

    /// Number of faulty processes.
    pub fn num_faulty(&self) -> usize {
        self.crash.iter().filter(|c| c.is_some()).count()
    }

    /// The earliest crash time, if any process is faulty. This is the time
    /// `t*` after which the failure-signal detector FS is allowed to turn
    /// red.
    pub fn first_crash_time(&self) -> Option<Time> {
        self.crash.iter().flatten().min().copied()
    }

    /// The latest crash time, if any — after this instant the set of alive
    /// processes equals `correct(F)` forever.
    pub fn last_crash_time(&self) -> Option<Time> {
        self.crash.iter().flatten().max().copied()
    }

    /// Whether no process ever crashes.
    pub fn is_failure_free(&self) -> bool {
        self.crash.iter().all(|c| c.is_none())
    }
}

impl fmt::Display for FailurePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F[n={}", self.n())?;
        for (i, c) in self.crash.iter().enumerate() {
            if let Some(t) = c {
                write!(f, ", p{i}@{t}")?;
            }
        }
        write!(f, "]")
    }
}

/// An environment `E`: a set of admissible failure patterns.
///
/// The paper's headline results hold *for all environments*; the named
/// variants here are the environments its discussion singles out, plus a
/// `Custom` escape hatch.
///
/// ```
/// use wfd_sim::{Environment, FailurePattern, ProcessId};
/// let f = FailurePattern::failure_free(4).with_crash(ProcessId(0), 5);
/// assert!(Environment::Any.contains(&f));
/// assert!(Environment::MajorityCorrect.contains(&f));
/// assert!(!Environment::TResilient(0).contains(&f));
/// ```
#[derive(Clone, Copy, Debug)]
pub enum Environment {
    /// Every failure pattern is admissible (any number of crashes, any
    /// timing) — the paper's most general setting.
    Any,
    /// A majority of processes are correct: `|faulty(F)| < ⌈n/2⌉` — the
    /// classical setting of Chandra–Hadzilacos–Toueg.
    MajorityCorrect,
    /// At most `t` processes crash.
    TResilient(usize),
    /// At least one process is correct (excludes the all-crash pattern).
    AtLeastOneCorrect,
    /// A named predicate over failure patterns.
    Custom(&'static str, fn(&FailurePattern) -> bool),
}

impl Environment {
    /// Whether the pattern belongs to this environment.
    pub fn contains(&self, f: &FailurePattern) -> bool {
        match self {
            Environment::Any => true,
            Environment::MajorityCorrect => f.correct().len() * 2 > f.n(),
            Environment::TResilient(t) => f.num_faulty() <= *t,
            Environment::AtLeastOneCorrect => !f.correct().is_empty(),
            Environment::Custom(_, pred) => pred(f),
        }
    }

    /// A short human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Environment::Any => "any",
            Environment::MajorityCorrect => "majority-correct",
            Environment::TResilient(_) => "t-resilient",
            Environment::AtLeastOneCorrect => "at-least-one-correct",
            Environment::Custom(name, _) => name,
        }
    }
}

impl fmt::Display for Environment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Environment::TResilient(t) => write!(f, "{}-resilient", t),
            other => f.write_str(other.name()),
        }
    }
}

/// Deterministic random sampler of failure patterns inside an environment.
///
/// Used by property tests and the experiment harness to sweep over many
/// admissible patterns reproducibly.
///
/// ```
/// use wfd_sim::{Environment, PatternSampler};
/// let mut sampler = PatternSampler::new(5, Environment::MajorityCorrect, 42);
/// for _ in 0..20 {
///     let f = sampler.sample(100);
///     assert!(Environment::MajorityCorrect.contains(&f));
/// }
/// ```
#[derive(Debug)]
pub struct PatternSampler {
    n: usize,
    env: Environment,
    rng: SimRng,
}

impl PatternSampler {
    /// Create a sampler for systems of size `n` restricted to `env`,
    /// seeded deterministically.
    pub fn new(n: usize, env: Environment, seed: u64) -> Self {
        PatternSampler {
            n,
            env,
            rng: SimRng::new(seed),
        }
    }

    /// Sample one admissible pattern with crash times drawn from
    /// `0..horizon`. Rejection-samples until the environment accepts; the
    /// failure-free pattern is always admissible for the built-in
    /// environments, so this terminates.
    pub fn sample(&mut self, horizon: Time) -> FailurePattern {
        loop {
            let mut f = FailurePattern::failure_free(self.n);
            // Bias the number of crashes towards the interesting low range
            // but allow up to n − 1 (and occasionally n for Environment::Any).
            let max_crashes = match self.env {
                Environment::Any => self.n,
                _ => self.n.saturating_sub(1),
            };
            let k = self.rng.gen_range(max_crashes as u64 + 1) as usize;
            let mut ids: Vec<usize> = (0..self.n).collect();
            for i in 0..k {
                let j = i + self.rng.pick(self.n - i);
                ids.swap(i, j);
                let t = self.rng.gen_range(horizon.max(1));
                f = f.with_crash(ProcessId(ids[i]), t);
            }
            if self.env.contains(&f) {
                return f;
            }
        }
    }

    /// Sample `count` admissible patterns.
    pub fn sample_many(&mut self, horizon: Time, count: usize) -> Vec<FailurePattern> {
        (0..count).map(|_| self.sample(horizon)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_free_pattern() {
        let f = FailurePattern::failure_free(3);
        assert!(f.is_failure_free());
        assert_eq!(f.n(), 3);
        assert_eq!(f.correct(), ProcessSet::full(3));
        assert!(f.faulty().is_empty());
        assert_eq!(f.first_crash_time(), None);
        assert_eq!(f.last_crash_time(), None);
    }

    #[test]
    #[should_panic(expected = "ProcessSet::CAPACITY = 64")]
    fn patterns_are_capped_at_the_process_set_capacity() {
        FailurePattern::failure_free(65);
    }

    #[test]
    fn crash_is_permanent_and_inclusive() {
        let f = FailurePattern::failure_free(2).with_crash(ProcessId(0), 5);
        assert!(!f.is_crashed(ProcessId(0), 4));
        assert!(f.is_crashed(ProcessId(0), 5));
        assert!(f.is_crashed(ProcessId(0), 1_000_000));
        assert!(!f.is_crashed(ProcessId(1), 1_000_000));
    }

    #[test]
    fn crashed_at_is_monotone() {
        let f = FailurePattern::with_crashes(4, &[(ProcessId(1), 3), (ProcessId(2), 7)]);
        let mut prev = ProcessSet::new();
        for t in 0..10 {
            let cur = f.crashed_at(t);
            assert!(prev.is_subset(&cur), "F(t) must be monotone");
            prev = cur;
        }
        assert_eq!(f.crashed_at(2).len(), 0);
        assert_eq!(f.crashed_at(3).len(), 1);
        assert_eq!(f.crashed_at(7).len(), 2);
    }

    #[test]
    fn faulty_correct_partition() {
        let f = FailurePattern::with_crashes(5, &[(ProcessId(0), 1), (ProcessId(4), 2)]);
        assert_eq!(f.num_faulty(), 2);
        assert_eq!(f.faulty().union(&f.correct()), ProcessSet::full(5));
        assert!(f.faulty().intersection(&f.correct()).is_empty());
        assert!(f.is_correct(ProcessId(2)));
        assert!(!f.is_correct(ProcessId(0)));
    }

    #[test]
    fn first_and_last_crash_times() {
        let f = FailurePattern::with_crashes(3, &[(ProcessId(0), 9), (ProcessId(1), 4)]);
        assert_eq!(f.first_crash_time(), Some(4));
        assert_eq!(f.last_crash_time(), Some(9));
        assert_eq!(f.crash_time(ProcessId(0)), Some(9));
        assert_eq!(f.crash_time(ProcessId(2)), None);
    }

    #[test]
    fn alive_at_complements_crashed_at() {
        let f = FailurePattern::with_crashes(4, &[(ProcessId(3), 2)]);
        for t in 0..5 {
            assert_eq!(f.alive_at(t).union(&f.crashed_at(t)), ProcessSet::full(4));
        }
    }

    #[test]
    fn environment_membership() {
        let n = 5;
        let one = FailurePattern::failure_free(n).with_crash(ProcessId(0), 0);
        let three = FailurePattern::with_crashes(
            n,
            &[(ProcessId(0), 0), (ProcessId(1), 0), (ProcessId(2), 0)],
        );
        assert!(Environment::Any.contains(&three));
        assert!(Environment::MajorityCorrect.contains(&one));
        assert!(!Environment::MajorityCorrect.contains(&three));
        assert!(Environment::TResilient(1).contains(&one));
        assert!(!Environment::TResilient(1).contains(&three));
        assert!(Environment::AtLeastOneCorrect.contains(&three));
    }

    #[test]
    fn custom_environment() {
        fn p0_never_fails(f: &FailurePattern) -> bool {
            f.is_correct(ProcessId(0))
        }
        let env = Environment::Custom("p0-correct", p0_never_fails);
        assert!(env.contains(&FailurePattern::failure_free(3)));
        assert!(!env.contains(&FailurePattern::failure_free(3).with_crash(ProcessId(0), 1)));
        assert_eq!(env.name(), "p0-correct");
    }

    #[test]
    fn display_formats() {
        let f = FailurePattern::with_crashes(3, &[(ProcessId(1), 4)]);
        assert_eq!(f.to_string(), "F[n=3, p1@4]");
        assert_eq!(Environment::TResilient(2).to_string(), "2-resilient");
        assert_eq!(Environment::Any.to_string(), "any");
    }

    #[test]
    fn sampler_respects_environment_and_is_deterministic() {
        let mut a = PatternSampler::new(6, Environment::TResilient(2), 7);
        let mut b = PatternSampler::new(6, Environment::TResilient(2), 7);
        for _ in 0..50 {
            let fa = a.sample(200);
            let fb = b.sample(200);
            assert_eq!(fa, fb, "same seed must give same pattern stream");
            assert!(fa.num_faulty() <= 2);
        }
    }

    #[test]
    fn sampler_any_environment_can_crash_everyone() {
        let mut s = PatternSampler::new(3, Environment::Any, 1);
        let saw_all_crash = (0..200).any(|_| s.sample(50).correct().is_empty());
        assert!(
            saw_all_crash,
            "Environment::Any should include all-crash patterns"
        );
    }
}
