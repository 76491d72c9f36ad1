//! FastTrack-style epoch shadow memory — the detector's fast path.
//!
//! The reference backend (the `hb` module) keeps a full `VectorClock`
//! per remembered access. FastTrack's observation is that almost every
//! access is totally ordered with the shadow state it meets, and a
//! total order is decided by a single component: thread `t`'s clock
//! published at value `c` is `le` another clock `K` iff `c <= K[t]`
//! (components only propagate along genuine happens-before edges, and
//! every release in this codebase publishes *before* ticking). So a
//! shadow cell stores `(thread, clock)` *epochs* instead of vectors:
//!
//! * the last write is always a single epoch;
//! * the read history is adaptively `None` → one epoch → a small
//!   per-thread epoch list, **promoted** only when genuinely
//!   concurrent reads are observed and **demoted** back once an
//!   ordering write clears it.
//!
//! The epoch list is exact, not an approximation: in the reference
//! backend at most one read per thread ever survives in a cell
//! (same-thread clocks are pointwise monotone, so each read prunes its
//! predecessor), which is precisely a per-thread epoch map. The two
//! backends therefore produce identical report streams — enforced by
//! `prop_hb.rs` and `tests/detector_equivalence.rs`.
//!
//! Layout choices for the hot loop:
//!
//! * cells live in an open-addressed, linear-probed table keyed on
//!   address (fibonacci hashing) with a last-cell cache — corpus
//!   traces hammer the same few globals back to back;
//! * call stacks are interned by `Arc` pointer identity (the VM reuses
//!   one `Arc` per thread between call-stack changes), so recording an
//!   access on the fast path allocates nothing.

use crate::report::Access;
use crate::vc::VectorClock;
use owl_ir::{FxHashMap, InstRef, Type};
use owl_vm::{CallStack, ThreadId};

/// Interns call stacks by `Arc` pointer identity.
///
/// Keying on `(data pointer, length)` is sound because the interner
/// keeps an `Arc` clone of every stack it has seen, pinning the
/// allocation: a pointer can never be reused for a different stack
/// while the interner is alive. Distinct `Arc`s with equal contents
/// get distinct ids, which costs a little memory but never changes a
/// reconstructed [`Access`] (its `stack` compares by contents).
#[derive(Clone, Debug, Default)]
struct StackInterner {
    stacks: Vec<CallStack>,
    by_ptr: FxHashMap<(usize, usize), u32>,
    /// Per-thread cache, indexed by thread: each VM thread reuses one
    /// `Arc` between call-stack changes, but threads interleave in the
    /// trace, so a single shared entry would thrash on every switch.
    last: Vec<Option<((usize, usize), u32)>>,
}

impl StackInterner {
    fn intern(&mut self, tid: ThreadId, stack: &CallStack) -> u32 {
        let key = (stack.as_ptr() as usize, stack.len());
        let ti = tid.index();
        if let Some(Some((k, id))) = self.last.get(ti) {
            if *k == key {
                return *id;
            }
        }
        let id = match self.by_ptr.get(&key) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.stacks.len()).expect("< 2^32 distinct stacks");
                self.stacks.push(stack.clone());
                self.by_ptr.insert(key, id);
                id
            }
        };
        if self.last.len() <= ti {
            self.last.resize(ti + 1, None);
        }
        self.last[ti] = Some((key, id));
        id
    }

    fn get(&self, id: u32) -> &CallStack {
        &self.stacks[id as usize]
    }
}

/// One remembered access, with the call stack interned: `Copy`, no
/// heap, 1/64th the size of a `(VectorClock, Access)` history entry.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EpochAccess {
    site: InstRef,
    stack: u32,
    tid: ThreadId,
    /// The accessing thread's own clock component at access time — the
    /// epoch. `epoch <= clock[tid]` iff the access happens-before
    /// `clock` (see the module docs for why this is exact here).
    clock: u64,
    value: i64,
    ty: Type,
    is_write: bool,
}

impl EpochAccess {
    /// Whether this access happens-before a thread at `clock`.
    #[inline]
    fn ordered_before(&self, clock: &VectorClock) -> bool {
        self.clock <= clock.get(self.tid)
    }
}

/// Adaptive read history: epoch until concurrent reads force a
/// promotion, demoted back when pruning leaves at most one entry.
/// `Many` keeps insertion order — report emission order must match the
/// reference backend's `Vec` exactly.
#[derive(Clone, Debug, Default)]
enum ReadHistory {
    #[default]
    None,
    One(EpochAccess),
    Many(Vec<EpochAccess>),
}

/// Shadow state for one address.
#[derive(Clone, Debug, Default)]
struct Cell {
    write: Option<EpochAccess>,
    reads: ReadHistory,
}

#[derive(Clone, Debug)]
struct Slot {
    addr: u64,
    cell: Cell,
}

/// Fast-path and adaptivity counters for the epoch backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Plain reads processed.
    pub reads: u64,
    /// Plain writes processed.
    pub writes: u64,
    /// Reads that stayed entirely on the O(1) epoch path (no conflict,
    /// no promotion, no epoch-list scan).
    pub read_fast: u64,
    /// Writes that stayed on the O(1) path (no conflict, no epoch-list
    /// scan).
    pub write_fast: u64,
    /// Accesses served by the last-cell lookup cache (no hashing).
    pub cell_cache_hits: u64,
    /// Read histories promoted from an epoch to an epoch list because
    /// genuinely concurrent reads were observed.
    pub read_promotions: u64,
    /// Read histories demoted back to an epoch (or cleared) after an
    /// ordering access pruned the list.
    pub read_demotions: u64,
    /// Reads skipped entirely because the static check-elision
    /// pre-pass proved their site race-free (no shadow lookup at all).
    pub reads_elided: u64,
    /// Writes skipped entirely by the elision pre-pass.
    pub writes_elided: u64,
}

impl EpochStats {
    /// Fraction of accesses that stayed on the O(1) fast path.
    pub fn fast_path_rate(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            return 0.0;
        }
        (self.read_fast + self.write_fast) as f64 / total as f64
    }

    /// Total accesses the elision pre-pass let the backend skip.
    pub fn events_elided(&self) -> u64 {
        self.reads_elided + self.writes_elided
    }
}

/// Epoch shadow memory: open-addressed cell table + stack interner +
/// a scratch conflict list (reused across writes, so the steady state
/// allocates nothing).
#[derive(Clone, Debug, Default)]
pub(crate) struct EpochShadow {
    slots: Vec<Option<Slot>>,
    len: usize,
    /// Per-thread index of the most recently touched slot
    /// (`usize::MAX` = none). Threads tend to re-touch their own hot
    /// variable, so the cache is keyed by thread rather than shared.
    last: Vec<usize>,
    stacks: StackInterner,
    conflicts: Vec<EpochAccess>,
    stats: EpochStats,
}

#[inline]
fn hash_addr(addr: u64) -> usize {
    // Fibonacci hashing; the high bits are well mixed, so fold them in
    // before masking.
    let h = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h ^ (h >> 32)) as usize
}

impl EpochShadow {
    /// Index of `addr`'s slot, inserting an empty cell if absent.
    fn cell_index(&mut self, tid: ThreadId, addr: u64) -> usize {
        let ti = tid.index();
        if let Some(&cached) = self.last.get(ti) {
            if let Some(Some(s)) = self.slots.get(cached) {
                if s.addr == addr {
                    self.stats.cell_cache_hits += 1;
                    return cached;
                }
            }
        }
        if self.slots.is_empty() || self.len * 10 >= self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash_addr(addr) & mask;
        loop {
            match &self.slots[i] {
                Some(s) if s.addr == addr => break,
                Some(_) => i = (i + 1) & mask,
                None => {
                    self.slots[i] = Some(Slot {
                        addr,
                        cell: Cell::default(),
                    });
                    self.len += 1;
                    break;
                }
            }
        }
        if self.last.len() <= ti {
            self.last.resize(ti + 1, usize::MAX);
        }
        self.last[ti] = i;
        i
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![None; cap]);
        self.last.clear();
        let mask = cap - 1;
        for slot in old.into_iter().flatten() {
            let mut i = hash_addr(slot.addr) & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(slot);
        }
    }

    /// Re-inserts every surviving slot in place: removing an entry
    /// breaks the linear-probe chains running through it, so lookups
    /// are only correct again after a rehash.
    fn rehash(&mut self) {
        let cap = self.slots.len();
        if cap == 0 {
            return;
        }
        let old = std::mem::replace(&mut self.slots, vec![None; cap]);
        self.last.clear();
        let mask = cap - 1;
        for slot in old.into_iter().flatten() {
            let mut i = hash_addr(slot.addr) & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(slot);
        }
    }

    /// Reclaims shadow cells whose every remembered access is ordered
    /// before `min` — the pointwise minimum over all live threads'
    /// clocks. Any future access runs at a clock ≥ `min` pointwise
    /// (live threads only advance; forked threads inherit their
    /// parent's knowledge), so a reclaimed access could never again be
    /// a conflict: dropping it cannot change the report stream.
    /// Returns the number of cells freed. Interned stacks are pinned
    /// for the detector's lifetime and are not reclaimed here.
    pub(crate) fn gc(&mut self, min: &VectorClock) -> u64 {
        self.sweep(|_| true, min)
    }

    /// Same criterion, restricted to addresses in `[start, end)` — the
    /// targeted sweep a `Free` event triggers for the dying region.
    pub(crate) fn gc_range(&mut self, start: u64, end: u64, min: &VectorClock) -> u64 {
        self.sweep(|addr| addr >= start && addr < end, min)
    }

    fn sweep(&mut self, in_scope: impl Fn(u64) -> bool, min: &VectorClock) -> u64 {
        let mut freed = 0u64;
        for slot in self.slots.iter_mut() {
            let Some(s) = slot else { continue };
            if !in_scope(s.addr) {
                continue;
            }
            let cell = &mut s.cell;
            if let Some(w) = &cell.write {
                if w.ordered_before(min) {
                    cell.write = None;
                }
            }
            cell.reads = match std::mem::take(&mut cell.reads) {
                ReadHistory::None => ReadHistory::None,
                ReadHistory::One(e) if e.ordered_before(min) => ReadHistory::None,
                ReadHistory::One(e) => ReadHistory::One(e),
                ReadHistory::Many(mut v) => {
                    v.retain(|e| !e.ordered_before(min));
                    match v.len() {
                        0 => {
                            self.stats.read_demotions += 1;
                            ReadHistory::None
                        }
                        1 => {
                            self.stats.read_demotions += 1;
                            ReadHistory::One(v[0])
                        }
                        _ => ReadHistory::Many(v),
                    }
                }
            };
            if cell.write.is_none() && matches!(cell.reads, ReadHistory::None) {
                *slot = None;
                self.len -= 1;
                freed += 1;
            }
        }
        if freed > 0 {
            self.rehash();
        }
        freed
    }

    /// Processes a plain read; returns the prior racy write, if any.
    /// Mirrors the reference backend's shadow update exactly: check
    /// the last write, prune reads that happen-before this one, record
    /// this read.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn read(
        &mut self,
        addr: u64,
        tid: ThreadId,
        clock: &VectorClock,
        site: InstRef,
        stack: &CallStack,
        value: i64,
        ty: Type,
    ) -> Option<EpochAccess> {
        self.stats.reads += 1;
        let frame = self.stacks.intern(tid, stack);
        let idx = self.cell_index(tid, addr);
        let entry = EpochAccess {
            site,
            stack: frame,
            tid,
            clock: clock.get(tid),
            value,
            ty,
            is_write: false,
        };
        let Self { slots, stats, .. } = self;
        let cell = &mut slots[idx].as_mut().expect("occupied slot").cell;
        let racy_write = match &cell.write {
            Some(w) if w.tid != tid && !w.ordered_before(clock) => Some(*w),
            _ => None,
        };
        let mut fast = racy_write.is_none();
        cell.reads = match std::mem::take(&mut cell.reads) {
            ReadHistory::None => ReadHistory::One(entry),
            // Same-thread re-read: the previous epoch is necessarily
            // ordered before (own clocks are monotone), so it is
            // pruned and replaced in O(1).
            ReadHistory::One(e) if e.tid == tid => ReadHistory::One(entry),
            ReadHistory::One(e) => {
                if e.ordered_before(clock) {
                    ReadHistory::One(entry)
                } else {
                    // Genuinely concurrent reads: promote to a list.
                    fast = false;
                    stats.read_promotions += 1;
                    ReadHistory::Many(vec![e, entry])
                }
            }
            ReadHistory::Many(mut v) => {
                fast = false;
                v.retain(|e| !e.ordered_before(clock));
                v.push(entry);
                if v.len() == 1 {
                    stats.read_demotions += 1;
                    ReadHistory::One(entry)
                } else {
                    ReadHistory::Many(v)
                }
            }
        };
        if fast {
            stats.read_fast += 1;
        }
        racy_write
    }

    /// Processes a plain write. Conflicts (the racy prior write first,
    /// then racy reads in insertion order — the reference backend's
    /// emission order) are left in the scratch list for the detector
    /// to drain via [`EpochShadow::conflict_count`] /
    /// [`EpochShadow::conflict_access`].
    pub(crate) fn write(
        &mut self,
        addr: u64,
        tid: ThreadId,
        clock: &VectorClock,
        site: InstRef,
        stack: &CallStack,
        value: i64,
    ) {
        self.stats.writes += 1;
        self.conflicts.clear();
        let frame = self.stacks.intern(tid, stack);
        let idx = self.cell_index(tid, addr);
        let Self {
            slots,
            conflicts,
            stats,
            ..
        } = self;
        let cell = &mut slots[idx].as_mut().expect("occupied slot").cell;
        if let Some(w) = &cell.write {
            if w.tid != tid && !w.ordered_before(clock) {
                conflicts.push(*w);
            }
        }
        let mut fast = true;
        match &cell.reads {
            ReadHistory::None => {}
            ReadHistory::One(e) => {
                if e.tid != tid && !e.ordered_before(clock) {
                    conflicts.push(*e);
                }
            }
            ReadHistory::Many(v) => {
                fast = false;
                for e in v {
                    if e.tid != tid && !e.ordered_before(clock) {
                        conflicts.push(*e);
                    }
                }
            }
        }
        cell.write = Some(EpochAccess {
            site,
            stack: frame,
            tid,
            clock: clock.get(tid),
            value,
            ty: Type::I64,
            is_write: true,
        });
        cell.reads = match std::mem::take(&mut cell.reads) {
            ReadHistory::None => ReadHistory::None,
            ReadHistory::One(e) => {
                if e.ordered_before(clock) {
                    ReadHistory::None
                } else {
                    ReadHistory::One(e)
                }
            }
            ReadHistory::Many(mut v) => {
                v.retain(|e| !e.ordered_before(clock));
                match v.len() {
                    0 => {
                        stats.read_demotions += 1;
                        ReadHistory::None
                    }
                    1 => {
                        stats.read_demotions += 1;
                        ReadHistory::One(v[0])
                    }
                    _ => ReadHistory::Many(v),
                }
            }
        };
        if fast && conflicts.is_empty() {
            stats.write_fast += 1;
        }
    }

    /// Conflicts found by the last [`EpochShadow::write`].
    pub(crate) fn conflict_count(&self) -> usize {
        self.conflicts.len()
    }

    /// The `i`-th conflict of the last write, rehydrated (slow path
    /// only: a report is about to be recorded).
    pub(crate) fn conflict_access(&self, i: usize) -> Access {
        self.materialize(&self.conflicts[i])
    }

    /// Reconstructs a full [`Access`] from an interned epoch record.
    pub(crate) fn materialize(&self, e: &EpochAccess) -> Access {
        Access {
            tid: e.tid,
            site: e.site,
            stack: self.stacks.get(e.stack).clone(),
            is_write: e.is_write,
            value: e.value,
            ty: e.ty,
        }
    }

    /// Counts a read whose shadow work was skipped by static elision.
    pub(crate) fn note_elided_read(&mut self) {
        self.stats.reads_elided += 1;
    }

    /// Counts a write whose shadow work was skipped by static elision.
    pub(crate) fn note_elided_write(&mut self) {
        self.stats.writes_elided += 1;
    }

    /// Counters accumulated so far.
    pub(crate) fn stats(&self) -> EpochStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_vm::ThreadId;
    use std::sync::Arc;

    fn stack() -> CallStack {
        Arc::from(vec![].into_boxed_slice())
    }

    fn clock(vals: &[u64]) -> VectorClock {
        let mut c = VectorClock::new();
        for (i, v) in vals.iter().enumerate() {
            c.set(ThreadId(i as u32), *v);
        }
        c
    }

    fn site() -> InstRef {
        InstRef::new(owl_ir::FuncId(0), owl_ir::InstId(0))
    }

    #[test]
    fn table_grows_past_initial_capacity_and_keeps_cells() {
        let mut s = EpochShadow::default();
        let st = stack();
        let c = clock(&[5]);
        for a in 0..500u64 {
            s.write(a, ThreadId(0), &c, site(), &st, 3);
        }
        // Same thread, later clock: every cell still resolves, no
        // conflicts.
        let c2 = clock(&[9]);
        for a in 0..500u64 {
            assert!(s
                .read(a, ThreadId(0), &c2, site(), &st, 3, Type::I64)
                .is_none());
            assert_eq!(s.conflict_count(), 0);
        }
        assert!(s.len >= 500);
    }

    #[test]
    fn last_cell_cache_hits_on_repeated_address() {
        let mut s = EpochShadow::default();
        let st = stack();
        let c = clock(&[1]);
        for _ in 0..10 {
            let _ = s.read(0x40, ThreadId(0), &c, site(), &st, 0, Type::I64);
        }
        assert!(s.stats().cell_cache_hits >= 9, "{:?}", s.stats());
    }

    #[test]
    fn gc_reclaims_ordered_cells_and_keeps_concurrent_ones() {
        let mut s = EpochShadow::default();
        let st = stack();
        // Thread 0 writes two addresses at clock 2.
        let c0 = clock(&[2]);
        s.write(0x10, ThreadId(0), &c0, site(), &st, 1);
        s.write(0x20, ThreadId(0), &c0, site(), &st, 2);
        // min over live threads knows thread 0 only up to clock 1:
        // nothing is reclaimable.
        assert_eq!(s.gc(&clock(&[1])), 0);
        assert_eq!(s.len, 2);
        // Everyone has seen clock 2: both cells go, lookups still work.
        assert_eq!(s.gc(&clock(&[2])), 2);
        assert_eq!(s.len, 0);
        let c3 = clock(&[3]);
        assert!(s
            .read(0x10, ThreadId(0), &c3, site(), &st, 1, Type::I64)
            .is_none());
    }

    #[test]
    fn gc_range_only_touches_the_region() {
        let mut s = EpochShadow::default();
        let st = stack();
        let c = clock(&[1]);
        s.write(0x10, ThreadId(0), &c, site(), &st, 0);
        s.write(0x80, ThreadId(0), &c, site(), &st, 0);
        assert_eq!(s.gc_range(0x00, 0x40, &clock(&[5])), 1);
        assert_eq!(s.len, 1);
        // The out-of-range cell survived with its write intact.
        let c2 = clock(&[9]);
        assert!(s
            .read(0x80, ThreadId(0), &c2, site(), &st, 0, Type::I64)
            .is_none());
        assert_eq!(s.len, 1, "read of surviving cell must not re-insert");
    }

    #[test]
    fn gc_prunes_ordered_reads_inside_surviving_cells() {
        let mut s = EpochShadow::default();
        let st = stack();
        // Concurrent reads by threads 0 and 1 promote to a list.
        let _ = s.read(
            0x10,
            ThreadId(0),
            &clock(&[1, 0]),
            site(),
            &st,
            0,
            Type::I64,
        );
        let _ = s.read(
            0x10,
            ThreadId(1),
            &clock(&[0, 1]),
            site(),
            &st,
            0,
            Type::I64,
        );
        assert_eq!(s.stats().read_promotions, 1);
        // min knows thread 0's read but not thread 1's: cell survives
        // (no full reclaim), but nothing is miscounted.
        assert_eq!(s.gc(&clock(&[1, 0])), 0);
        assert_eq!(s.len, 1);
        // Now everyone has seen both reads.
        assert_eq!(s.gc(&clock(&[1, 1])), 1);
        assert_eq!(s.len, 0);
    }

    #[test]
    fn interner_reuses_pointer_identical_stacks() {
        let mut i = StackInterner::default();
        let a: CallStack = Arc::from(vec![site()].into_boxed_slice());
        let b = a.clone();
        let t = ThreadId(0);
        assert_eq!(i.intern(t, &a), i.intern(t, &b));
        let other: CallStack = Arc::from(vec![site()].into_boxed_slice());
        // Equal contents, distinct allocation: a fresh id, and both
        // rehydrate to equal stacks.
        let id2 = i.intern(t, &other);
        assert_eq!(i.get(id2)[..], i.get(0)[..]);
    }
}
