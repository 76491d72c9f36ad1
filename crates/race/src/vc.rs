//! Vector clocks.
//!
//! The happens-before detector tracks one clock per thread plus release
//! clocks per mutex/atomic cell — the same theory ThreadSanitizer
//! implements. Full clocks back the reference backend; the default
//! detector path stores FastTrack-style `(thread, clock)` epochs per
//! shadow cell instead (see the `epoch` module and
//! [`crate::EpochStats`]) and only consults whole vectors at
//! synchronization points.

use owl_vm::ThreadId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A vector clock over thread ids.
#[derive(Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorClock(Vec<u64>);

impl Clone for VectorClock {
    fn clone(&self) -> Self {
        VectorClock(self.0.clone())
    }

    /// Reuses `self`'s allocation (`Vec::clone_from`), so overwriting a
    /// stored release clock allocates nothing once it is large enough.
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl VectorClock {
    /// The zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// The component for `t`.
    pub fn get(&self, t: ThreadId) -> u64 {
        self.0.get(t.index()).copied().unwrap_or(0)
    }

    /// Sets the component for `t`.
    pub fn set(&mut self, t: ThreadId, v: u64) {
        if self.0.len() <= t.index() {
            self.0.resize(t.index() + 1, 0);
        }
        self.0[t.index()] = v;
    }

    /// Increments the component for `t`.
    pub fn tick(&mut self, t: ThreadId) {
        let v = self.get(t);
        self.set(t, v + 1);
    }

    /// Pointwise maximum with `other` (the join of the HB lattice).
    pub fn join(&mut self, other: &VectorClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// Pointwise minimum with `other` (the meet of the HB lattice).
    /// Components missing from either clock read as zero, so the
    /// result is truncated to the shorter clock's knowledge — exactly
    /// the conservative behavior shadow-state GC wants: an access is
    /// only reclaimable when *every* live thread provably knows it.
    pub fn meet(&mut self, other: &VectorClock) {
        if self.0.len() > other.0.len() {
            self.0.truncate(other.0.len());
        }
        for (i, v) in self.0.iter_mut().enumerate() {
            let o = other.0[i];
            if o < *v {
                *v = o;
            }
        }
    }

    /// Whether `self ≤ other` pointwise — i.e. every event in `self`
    /// happens-before (or is) the knowledge in `other`.
    pub fn le(&self, other: &VectorClock) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.0.get(i).copied().unwrap_or(0))
    }

    /// Whether the two clocks are ordered neither way (concurrent).
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// Partial-order comparison (`None` when concurrent).
    pub fn partial_cmp_hb(&self, other: &VectorClock) -> Option<Ordering> {
        match (self.le(other), other.le(self)) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_and_order() {
        let mut a = VectorClock::new();
        a.set(ThreadId(0), 3);
        let mut b = VectorClock::new();
        b.set(ThreadId(1), 2);
        assert!(a.concurrent(&b));
        let mut j = a.clone();
        j.join(&b);
        assert!(a.le(&j));
        assert!(b.le(&j));
        assert_eq!(j.get(ThreadId(0)), 3);
        assert_eq!(j.get(ThreadId(1)), 2);
    }

    #[test]
    fn tick_advances_only_own_component() {
        let mut a = VectorClock::new();
        a.tick(ThreadId(2));
        a.tick(ThreadId(2));
        assert_eq!(a.get(ThreadId(2)), 2);
        assert_eq!(a.get(ThreadId(0)), 0);
    }

    #[test]
    fn partial_order_classification() {
        let mut a = VectorClock::new();
        a.set(ThreadId(0), 1);
        let mut b = a.clone();
        b.set(ThreadId(0), 2);
        assert_eq!(a.partial_cmp_hb(&b), Some(Ordering::Less));
        assert_eq!(b.partial_cmp_hb(&a), Some(Ordering::Greater));
        assert_eq!(a.partial_cmp_hb(&a), Some(Ordering::Equal));
        let mut c = VectorClock::new();
        c.set(ThreadId(1), 1);
        assert_eq!(a.partial_cmp_hb(&c), None);
    }

    #[test]
    fn missing_components_read_zero() {
        let a = VectorClock::new();
        assert_eq!(a.get(ThreadId(9)), 0);
        let mut b = VectorClock::new();
        b.set(ThreadId(0), 1);
        assert!(a.le(&b));
    }
}
