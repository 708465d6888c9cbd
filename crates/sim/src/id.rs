//! Process identifiers, the global clock, and sets of processes.

use std::cmp::Ordering;
use std::fmt;
use std::iter::FusedIterator;

/// The discrete global clock of the model.
///
/// The clock exists "for presentational convenience" only (it indexes
/// failure patterns and detector histories); processes can never read it.
pub type Time = u64;

/// Identifier of one of the `n` processes `p0 .. p{n-1}` of the system `Π`.
///
/// Process ids are dense indices, which lets per-process state live in plain
/// vectors throughout the workspace.
///
/// ```
/// use wfd_sim::ProcessId;
/// let p = ProcessId(2);
/// assert_eq!(p.to_string(), "p2");
/// assert_eq!(p.index(), 2);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The dense index of this process in `0..n`.
    pub fn index(self) -> usize {
        self.0
    }

    /// Iterate over all process ids of a system of size `n`.
    ///
    /// ```
    /// use wfd_sim::ProcessId;
    /// let ids: Vec<_> = ProcessId::all(3).collect();
    /// assert_eq!(ids, vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
    /// ```
    pub fn all(n: usize) -> impl DoubleEndedIterator<Item = ProcessId> + Clone {
        (0..n).map(ProcessId)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(i: usize) -> Self {
        ProcessId(i)
    }
}

/// An ordered set of processes — quorums, participant sets, correct sets.
///
/// `ProcessSet` is the value type of the quorum failure detector Σ and is
/// used pervasively by the extraction algorithms, so it carries the set
/// operations the paper's proofs rely on (intersection tests, subset tests).
///
/// The set is one 64-bit word, bit `i` standing for `p{i}`, so it is `Copy`
/// and every set operation is a single word operation. Systems are
/// therefore capped at [`ProcessSet::CAPACITY`] processes. Order and
/// `Debug` are those of a `BTreeSet<ProcessId>` of the same members:
/// lexicographic over the sorted members (`{p0, p2} < {p1}`), printed as
/// `ProcessSet({ProcessId(0), …})`.
///
/// ```
/// use wfd_sim::{ProcessId, ProcessSet};
/// let a: ProcessSet = [0, 1].into_iter().map(ProcessId).collect();
/// let b: ProcessSet = [1, 2].into_iter().map(ProcessId).collect();
/// assert!(a.intersects(&b));
/// assert!(!a.is_subset(&b));
/// assert_eq!(a.to_string(), "{p0, p1}");
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Default)]
pub struct ProcessSet(u64);

impl ProcessSet {
    /// The largest system a set can describe: ids `p0 ..= p63`.
    pub const CAPACITY: usize = 64;

    /// The empty set.
    pub fn new() -> Self {
        ProcessSet(0)
    }

    /// The full system `Π = {p0, …, p{n-1}}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > ProcessSet::CAPACITY`.
    pub fn full(n: usize) -> Self {
        assert_capacity(n);
        ProcessSet(if n == Self::CAPACITY {
            u64::MAX
        } else {
            (1 << n) - 1
        })
    }

    /// A singleton set.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not below `ProcessSet::CAPACITY`.
    pub fn singleton(p: ProcessId) -> Self {
        ProcessSet(bit(p))
    }

    /// Insert a process; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not below `ProcessSet::CAPACITY`.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let b = bit(p);
        let fresh = self.0 & b == 0;
        self.0 |= b;
        fresh
    }

    /// Remove a process; returns `true` if it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let present = self.contains(p);
        if present {
            self.0 &= !(1 << p.0);
        }
        present
    }

    /// Whether `p` belongs to the set.
    pub fn contains(&self, p: ProcessId) -> bool {
        p.0 < Self::CAPACITY && self.0 >> p.0 & 1 == 1
    }

    /// Number of processes in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Whether the two sets share at least one process — the heart of Σ's
    /// *intersection* property.
    pub fn intersects(&self, other: &ProcessSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether `self ⊆ other` — used by Σ's *completeness* property
    /// (`quorum ⊆ correct(F)`).
    pub fn is_subset(&self, other: &ProcessSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Set union.
    pub fn union(&self, other: &ProcessSet) -> ProcessSet {
        ProcessSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &ProcessSet) -> ProcessSet {
        ProcessSet(self.0 & other.0)
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &ProcessSet) -> ProcessSet {
        ProcessSet(self.0 & !other.0)
    }

    /// Iterate over members in increasing id order.
    pub fn iter(&self) -> ProcessSetIter {
        ProcessSetIter(self.0)
    }

    /// The smallest member, if any — a convenient deterministic
    /// representative (e.g. for leader extraction).
    pub fn first(&self) -> Option<ProcessId> {
        self.iter().next()
    }
}

/// The bit standing for `p`.
fn bit(p: ProcessId) -> u64 {
    assert!(
        p.0 < ProcessSet::CAPACITY,
        "process {p} is beyond ProcessSet::CAPACITY = {}",
        ProcessSet::CAPACITY
    );
    1 << p.0
}

/// Panics unless a system of `n` processes fits in a [`ProcessSet`].
pub(crate) fn assert_capacity(n: usize) {
    assert!(
        n <= ProcessSet::CAPACITY,
        "{n} processes are beyond ProcessSet::CAPACITY = {}",
        ProcessSet::CAPACITY
    );
}

impl Ord for ProcessSet {
    /// Lexicographic over the sorted members, as `BTreeSet` orders them.
    /// Below the lowest bit `d` where the sets differ they agree; the set
    /// holding `d` is smaller exactly when the other still has a member
    /// above `d` (otherwise the other is a proper prefix of it).
    fn cmp(&self, other: &ProcessSet) -> Ordering {
        let diff = self.0 ^ other.0;
        if diff == 0 {
            return Ordering::Equal;
        }
        let d = diff.trailing_zeros();
        let self_holds_d = self.0 >> d & 1 == 1;
        let non_holder = if self_holds_d { other.0 } else { self.0 };
        if self_holds_d == (non_holder >> d != 0) {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }
}

impl PartialOrd for ProcessSet {
    fn partial_cmp(&self, other: &ProcessSet) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Members(ProcessSet);
        impl fmt::Debug for Members {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.iter()).finish()
            }
        }
        f.debug_tuple("ProcessSet").field(&Members(*self)).finish()
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = ProcessSet::new();
        s.extend(iter);
        s
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

/// The members of a [`ProcessSet`] in increasing id order.
#[derive(Clone, Debug)]
pub struct ProcessSetIter(u64);

impl Iterator for ProcessSetIter {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(ProcessId(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for ProcessSetIter {
    fn next_back(&mut self) -> Option<ProcessId> {
        if self.0 == 0 {
            return None;
        }
        let i = 63 - self.0.leading_zeros() as usize;
        self.0 &= !(1 << i);
        Some(ProcessId(i))
    }
}

impl ExactSizeIterator for ProcessSetIter {}

impl FusedIterator for ProcessSetIter {}

impl IntoIterator for &ProcessSet {
    type Item = ProcessId;
    type IntoIter = ProcessSetIter;

    fn into_iter(self) -> ProcessSetIter {
        self.iter()
    }
}

impl IntoIterator for ProcessSet {
    type Item = ProcessId;
    type IntoIter = ProcessSetIter;

    fn into_iter(self) -> ProcessSetIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[usize]) -> ProcessSet {
        ids.iter().copied().map(ProcessId).collect()
    }

    #[test]
    fn process_id_display_and_order() {
        assert_eq!(ProcessId(0).to_string(), "p0");
        assert!(ProcessId(0) < ProcessId(1));
        assert_eq!(ProcessId::from(7).index(), 7);
    }

    #[test]
    fn all_enumerates_in_order() {
        assert_eq!(ProcessId::all(0).count(), 0);
        let v: Vec<_> = ProcessId::all(4).map(|p| p.index()).collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn full_set_has_n_members() {
        let s = ProcessSet::full(5);
        assert_eq!(s.len(), 5);
        assert!(ProcessId::all(5).all(|p| s.contains(p)));
    }

    #[test]
    fn intersects_is_symmetric_and_correct() {
        let a = set(&[0, 1]);
        let b = set(&[1, 2]);
        let c = set(&[3, 4]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!ProcessSet::new().intersects(&a));
        assert!(!ProcessSet::new().intersects(&ProcessSet::new()));
    }

    #[test]
    fn subset_union_intersection_difference() {
        let a = set(&[0, 1]);
        let b = set(&[0, 1, 2]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert_eq!(a.union(&b), b);
        assert_eq!(a.intersection(&b), a);
        assert_eq!(b.difference(&a), set(&[2]));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcessSet::new();
        assert!(s.insert(ProcessId(3)));
        assert!(!s.insert(ProcessId(3)));
        assert!(s.contains(ProcessId(3)));
        assert!(s.remove(ProcessId(3)));
        assert!(!s.remove(ProcessId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn first_is_deterministic_representative() {
        assert_eq!(set(&[4, 2, 7]).first(), Some(ProcessId(2)));
        assert_eq!(ProcessSet::new().first(), None);
    }

    #[test]
    fn display_formats_sorted() {
        assert_eq!(set(&[2, 0]).to_string(), "{p0, p2}");
        assert_eq!(ProcessSet::new().to_string(), "{}");
    }

    #[test]
    fn iteration_round_trips() {
        let s = set(&[1, 3]);
        let t: ProcessSet = (&s).into_iter().collect();
        assert_eq!(s, t);
        let u: ProcessSet = s.into_iter().collect();
        assert_eq!(s, u);
    }

    /// The representation `ProcessSet` must stay observably equal to: a
    /// `BTreeSet<ProcessId>` newtype of the same name, so the derived
    /// `Debug` and `Ord` are the ones the explorer keys and the liveness
    /// fingerprints were built on.
    mod reference {
        use super::super::ProcessId;
        use std::collections::BTreeSet;

        #[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
        pub struct ProcessSet(pub BTreeSet<ProcessId>);

        impl ProcessSet {
            pub fn display(&self) -> String {
                let members: Vec<String> = self.0.iter().map(|p| p.to_string()).collect();
                format!("{{{}}}", members.join(", "))
            }
        }
    }

    fn assert_same(s: &ProcessSet, r: &reference::ProcessSet) {
        let members: Vec<ProcessId> = r.0.iter().copied().collect();
        assert_eq!(s.len(), r.0.len());
        assert_eq!(s.is_empty(), r.0.is_empty());
        assert_eq!(s.first(), r.0.first().copied());
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), members);
        assert_eq!((*s).into_iter().collect::<Vec<_>>(), members);
        for p in ProcessId::all(64) {
            assert_eq!(s.contains(p), r.0.contains(&p), "{p}");
        }
        assert_eq!(format!("{s:?}"), format!("{r:?}"));
        assert_eq!(format!("{s:#?}"), format!("{r:#?}"));
        assert_eq!(s.to_string(), r.display());
    }

    #[test]
    fn differential_against_btreeset_reference() {
        let mut rng = crate::SimRng::new(0x5e7_d1ff);
        let pick = |rng: &mut crate::SimRng| {
            // Bias towards the top id so the last bit is exercised often.
            if rng.chance(10) {
                ProcessId(63)
            } else {
                ProcessId(rng.gen_range(64) as usize)
            }
        };
        let (mut a, mut b) = (ProcessSet::new(), ProcessSet::new());
        let (mut ra, mut rb) = (
            reference::ProcessSet::default(),
            reference::ProcessSet::default(),
        );
        for _ in 0..5_000 {
            let p = pick(&mut rng);
            match rng.gen_range(9) {
                0 | 1 => assert_eq!(a.insert(p), ra.0.insert(p)),
                2 => assert_eq!(a.remove(p), ra.0.remove(&p)),
                3 => assert_eq!(b.insert(p), rb.0.insert(p)),
                4 | 5 => assert_eq!(b.remove(p), rb.0.remove(&p)),
                6 => {
                    // Swap roles so both sets see every kind of operation.
                    std::mem::swap(&mut a, &mut b);
                    std::mem::swap(&mut ra, &mut rb);
                }
                7 => {
                    let k = rng.gen_range(4) as usize;
                    let ids: Vec<ProcessId> = (0..k).map(|_| pick(&mut rng)).collect();
                    a.extend(ids.iter().copied());
                    ra.0.extend(ids.iter().copied());
                }
                _ => {
                    let k = rng.gen_range(4) as usize;
                    let ids: Vec<ProcessId> = (0..k).map(|_| pick(&mut rng)).collect();
                    b = ids.iter().copied().collect();
                    rb = reference::ProcessSet(ids.iter().copied().collect());
                }
            }
            assert_same(&a, &ra);
            assert_same(&b, &rb);
            let union = reference::ProcessSet(ra.0.union(&rb.0).copied().collect());
            let inter = reference::ProcessSet(ra.0.intersection(&rb.0).copied().collect());
            let diff = reference::ProcessSet(ra.0.difference(&rb.0).copied().collect());
            assert_same(&a.union(&b), &union);
            assert_same(&a.intersection(&b), &inter);
            assert_same(&a.difference(&b), &diff);
            assert_eq!(a.is_subset(&b), ra.0.is_subset(&rb.0));
            assert_eq!(b.is_subset(&a), rb.0.is_subset(&ra.0));
            assert_eq!(a.intersects(&b), !inter.0.is_empty());
            assert_eq!(a.cmp(&b), ra.cmp(&rb));
            assert_eq!(a.partial_cmp(&b), ra.partial_cmp(&rb));
            assert_eq!(a == b, ra == rb);
        }
    }

    #[test]
    fn order_is_lexicographic_over_sorted_members() {
        // Not the numeric order of any bit encoding: {p0, p2} < {p1}.
        assert!(set(&[0, 2]) < set(&[1]));
        assert!(set(&[0]) < set(&[0, 1]));
        assert!(ProcessSet::new() < set(&[63]));
        assert!(set(&[0, 63]) < set(&[1]));
        assert!(set(&[5, 6]) > set(&[5]));
    }

    #[test]
    fn full_covers_the_whole_capacity() {
        let s = ProcessSet::full(64);
        assert_eq!(s.len(), 64);
        assert!(s.contains(ProcessId(63)));
        assert_eq!(s.iter().next_back(), Some(ProcessId(63)));
        assert_eq!(ProcessSet::full(0), ProcessSet::new());
    }

    #[test]
    fn ids_beyond_the_capacity_are_never_members() {
        let mut s = ProcessSet::full(64);
        assert!(!s.contains(ProcessId(64)));
        assert!(!s.remove(ProcessId(usize::MAX)));
        assert_eq!(s.len(), 64);
    }

    #[test]
    #[should_panic(expected = "ProcessSet::CAPACITY = 64")]
    fn insert_beyond_the_capacity_panics() {
        ProcessSet::new().insert(ProcessId(64));
    }

    #[test]
    #[should_panic(expected = "ProcessSet::CAPACITY = 64")]
    fn full_beyond_the_capacity_panics() {
        ProcessSet::full(65);
    }
}
