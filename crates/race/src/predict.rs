//! Predictive race detection over one observed trace.
//!
//! The HB backends report only races whose accesses actually ran
//! concurrently in the observed schedule. Prediction asks a stronger
//! question of the *same* trace: is there a **correct reordering** —
//! an event subsequence that every thread could replay with identical
//! control flow — in which two conflicting accesses become co-enabled?
//! Two prediction regimes are implemented, following
//! "Optimal Prediction of Synchronization-Preserving Races"
//! (Mathur/Pavlogiannis/Viswanathan) and "Optimistic Prediction of
//! Synchronization-Reversal Data Races":
//!
//! * **Sync-preserving** ([`PredictMode::SyncPreserving`]): the
//!   reordering must keep the observed relative order of any two
//!   synchronization operations on the same object (lock
//!   acquisitions/releases, atomic accesses) that both appear in it.
//! * **Sync-reversal** ([`PredictMode::SyncReversal`]): additionally
//!   tries reorderings that flip the order of whole lock critical
//!   sections (the optimistic OSR check), keeping atomic order and
//!   lock mutual exclusion intact.
//!
//! Every candidate pair goes through three gates before it may be
//! reported:
//!
//! 1. **Closure**: the set of events that *must* precede both
//!    endpoints — program-order predecessors, each read's observed
//!    writer (so control flow replays identically), fork-before and
//!    join-after edges — computed to a fixpoint. If either endpoint
//!    lands in its own closure the pair is ordered in every correct
//!    reordering and is rejected.
//! 2. **Greedy witness scheduling**: a deterministic scheduler
//!    linearizes the closure under lock mutual exclusion,
//!    read-sees-same-writer, fork/join, and (per mode) sync-order
//!    constraints. A stuck schedule rejects the candidate — greedy
//!    incompleteness can only lose predictions, never invent one.
//! 3. **Independent witness validation**: the produced sequence is
//!    re-checked from scratch by a separate validator
//!    ([`validate_witness`]). Only validated witnesses become reports,
//!    so no unwitnessed pair ever reaches the verification stages.
//!
//! **Common-lock prune.** A candidate whose two threads hold a common
//! lock at their accesses is rejected before the gates run, because
//! gate 3 can never accept it. The validator requires each thread's
//! witness events to be exactly a program-order prefix of that thread,
//! ending at its endpoint. So each endpoint thread's prefix contains
//! its `Lock(L)` and not its matching `Unlock(L)`: both acquisitions are
//! in the witness and neither is released. Whichever acquisition comes
//! second finds `L` owned (an `Unlock(L)` by any third thread fails the
//! owner check first), and validation fails. The prune therefore only
//! skips work whose answer is already known: the pair is still counted
//! as a candidate and as rejected, in the same order and against the
//! same caps. The unit tests check this against the full gate sequence
//! on random traces.
//!
//! Both gates 1 and 2 work on dense ids: the closure is kept as one
//! program-order prefix length per thread (it is closed under program
//! order), and the scheduler's per-step state lives in id-indexed
//! tables reset in O(1) between strategies. The index they read is
//! built while the trace is recorded, one event at a time, so the pass
//! after the run starts at the candidate loop.
//!
//! Prediction is strictly additive: it runs after the normal HB sweep
//! and routes its pairs through the same report path (annotation
//! suppression, site-pair dedup, report cap), so a predictive
//! backend's report set is always a superset of the reference
//! backend's set on the same trace.
//!
//! Condition variables are invisible in the event stream (a
//! `CondWait` emits plain `Unlock`/`Lock` events at one site; the
//! wait-for-signal dependency is not recorded), so a trace that shows
//! any site emitting both `Lock` and `Unlock` events — the signature
//! of a cond re-acquire — conservatively disables prediction for that
//! unit rather than risk an unrealizable witness.

use crate::report::Access;
use owl_ir::{FxHashMap, FxHashSet, InstRef, Type};
use owl_vm::{CallStack, EventKind, ThreadId, TraceEvent};

/// Outcome counters of one unit's prediction pass, the predictive
/// analogue of `EpochStats`: threaded through `ExploreResult` into
/// `PipelineHealth` and every health surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Conflicting cross-thread access pairs submitted to the witness
    /// machinery.
    pub candidates: u64,
    /// Candidates for which a validated witness reordering was found
    /// (each becomes at most one report, subject to suppression and
    /// dedup).
    pub witnessed: u64,
    /// Candidates rejected by the common-lock prune, closure,
    /// scheduling, or validation.
    pub witness_rejected: u64,
    /// Witnessed races that needed a lock-acquire reversal (only ever
    /// non-zero under the sync-reversal mode).
    pub reversal_races: u64,
    /// 1 when a cost ceiling cut this unit's pass short: the trace
    /// exceeded `MAX_TRACE_EVENTS` (nothing predicted), an access list
    /// was truncated to `MAX_LIST`, a candidate's closure passed
    /// `MAX_CLOSURE`, or the pass spent `MAX_TOTAL_ATTEMPTS` with
    /// candidates left. Sums to a count of capped units.
    pub capped: u64,
}

/// Which reorderings the witness scheduler may explore.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PredictMode {
    /// Keep the observed order of same-object sync operations.
    SyncPreserving,
    /// Also try reorderings that reverse lock-acquire order.
    SyncReversal,
}

/// One predicted race, ready to be routed through the detector's
/// report path.
pub(crate) struct PredictedRace {
    pub addr: u64,
    pub first: Access,
    pub second: Access,
    /// First post-race read of the address in the observed trace, for
    /// write-write pairs (§6.3 needs a corrupted load to start from).
    pub read_hint: Option<Access>,
}

/// Compact recorded event: everything prediction needs, nothing the
/// detector already keeps elsewhere.
#[derive(Clone, Debug)]
enum PKind {
    Read { addr: u64, value: i64, ty: Type },
    Write { addr: u64, value: i64 },
    AtomicRead { addr: u64 },
    AtomicWrite { addr: u64 },
    Lock { addr: u64 },
    Unlock { addr: u64 },
    Fork { child: ThreadId },
    Join { child: ThreadId },
    Free { start: u64, end: u64 },
}

#[derive(Clone, Debug)]
struct PEvent {
    tid: ThreadId,
    site: InstRef,
    /// Shared with the VM's event (`Arc` clone), so recording adds no
    /// per-frame allocation.
    stack: CallStack,
    kind: PKind,
    /// Statically elided site: still a memory event (reads-from must
    /// stay exact) but never a race candidate, mirroring how the
    /// epoch backend skips shadow work at stamped sites.
    elided: bool,
}

/// A synchronization object for the sync-order constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum SyncObj {
    LockAddr(u64),
    AtomicAddr(u64),
}

/// Witness-search cost ceilings. All are *soundness-free* knobs:
/// hitting one rejects (or skips) candidates, it never fabricates a
/// witness. They exist so prediction stays linear-ish on traces with
/// heavy properly-synchronized traffic.
const MAX_TRACE_EVENTS: usize = 500_000;
const MAX_CLOSURE: usize = 10_000;
const MAX_ATTEMPTS_PER_PAIR: u32 = 4;
const MAX_TOTAL_ATTEMPTS: u64 = 4_000;
const MAX_LIST: usize = 512;

/// Records a unit's trace, indexing each event as it arrives, and
/// predicts races from it once the run is over. Owned by `HbDetector`
/// when a predictive backend is selected; forking the detector clones
/// the partial index with it.
#[derive(Clone, Debug)]
pub(crate) struct Predictor {
    mode: PredictMode,
    events: Vec<PEvent>,
    idx: TraceIndex,
    /// Events offered to the recorder (`Malloc` and `Fault` are not
    /// events here). Past `MAX_TRACE_EVENTS` nothing more is kept.
    offered: usize,
    /// Live heap regions (base → words), so `Free` records its extent.
    regions: FxHashMap<u64, u64>,
    pub(crate) stats: PredictStats,
}

impl Predictor {
    pub(crate) fn new(mode: PredictMode) -> Self {
        Predictor {
            mode,
            events: Vec::new(),
            idx: TraceIndex::new(),
            offered: 0,
            regions: FxHashMap::default(),
            stats: PredictStats::default(),
        }
    }

    /// Records one VM event. Runs on the hot path, so it only clones
    /// the `Arc` stack and copies scalars.
    pub(crate) fn record(&mut self, ev: &TraceEvent) {
        let kind = match ev.kind {
            EventKind::Read {
                addr,
                value,
                ty,
                atomic,
            } => {
                if atomic {
                    PKind::AtomicRead { addr }
                } else {
                    PKind::Read { addr, value, ty }
                }
            }
            EventKind::Write {
                addr,
                value,
                atomic,
                ..
            } => {
                if atomic {
                    PKind::AtomicWrite { addr }
                } else {
                    PKind::Write { addr, value }
                }
            }
            EventKind::Lock { addr } => PKind::Lock { addr },
            EventKind::Unlock { addr } => PKind::Unlock { addr },
            EventKind::Fork { child } => PKind::Fork { child },
            EventKind::Join { child } => PKind::Join { child },
            EventKind::Malloc { addr, size } => {
                self.regions.insert(addr, size.max(1));
                return;
            }
            EventKind::Free { addr } => {
                let size = self.regions.remove(&addr).unwrap_or(1);
                PKind::Free {
                    start: addr,
                    end: addr + size,
                }
            }
            // Faults carry no ordering or memory information.
            EventKind::Fault { .. } => return,
        };
        self.push(PEvent {
            tid: ev.tid,
            site: ev.site,
            stack: ev.stack.clone(),
            kind,
            elided: ev.no_shadow,
        });
    }

    /// Appends one event to the trace and its index. Once the pass is
    /// known to predict nothing — the trace is over `MAX_TRACE_EVENTS`
    /// or shows a cond re-acquire — it only counts.
    fn push(&mut self, e: PEvent) {
        self.offered += 1;
        if self.offered > MAX_TRACE_EVENTS || self.idx.has_cond_reacquire {
            return;
        }
        self.idx.push(&e, self.events.len());
        self.events.push(e);
    }

    /// Runs prediction over the recorded trace. `already` holds site
    /// pairs the HB sweep has reported — those need no witness.
    /// Deterministic: candidates walk addresses in order, occurrences
    /// in trace order, and every scheduler decision is index-based.
    pub(crate) fn predict(&mut self, already: &FxHashSet<(InstRef, InstRef)>) -> Vec<PredictedRace> {
        if self.offered > MAX_TRACE_EVENTS {
            self.stats.capped = 1;
            return Vec::new();
        }
        let idx = &self.idx;
        if idx.has_cond_reacquire {
            // See the module docs: the wait-for-signal edge is not in
            // the trace, so any witness could be unrealizable.
            return Vec::new();
        }
        let mut scratch = Scratch::new(idx);
        let mut out = Vec::new();
        let mut done = already.clone();
        let mut attempts: FxHashMap<(InstRef, InstRef), u32> = FxHashMap::default();
        let mut total = 0u64;
        // Addresses ascending; an address's generations were opened in
        // trace order.
        let mut order: Vec<usize> = (0..idx.lists.len()).collect();
        order.sort_unstable_by_key(|&l| (idx.lists[l].addr, l));
        'all: for l in order {
            let (addr, list) = (idx.lists[l].addr, &idx.lists[l].accs);
            if list.len() < 2 {
                continue;
            }
            // Cheap pre-filter: single-thread lists cannot conflict.
            let first_tid = self.events[list[0]].tid;
            if list.iter().all(|&i| self.events[i].tid == first_tid) {
                continue;
            }
            if list.len() > MAX_LIST {
                self.stats.capped = 1;
            }
            let accs = &list[..list.len().min(MAX_LIST)];
            for (jj, &j) in accs.iter().enumerate() {
                for &i in &accs[..jj] {
                    let (e1, e2) = (&self.events[i], &self.events[j]);
                    if e1.tid == e2.tid {
                        continue;
                    }
                    let w1 = matches!(e1.kind, PKind::Write { .. });
                    let w2 = matches!(e2.kind, PKind::Write { .. });
                    if !w1 && !w2 {
                        continue;
                    }
                    let key = normalize(e1.site, e2.site);
                    if done.contains(&key) {
                        continue;
                    }
                    let tries = attempts.entry(key).or_insert(0);
                    if *tries >= MAX_ATTEMPTS_PER_PAIR {
                        continue;
                    }
                    *tries += 1;
                    if total >= MAX_TOTAL_ATTEMPTS {
                        self.stats.capped = 1;
                        break 'all;
                    }
                    total += 1;
                    self.stats.candidates += 1;
                    // The common-lock prune (module docs): validation
                    // would reject every witness the gates produce.
                    let witness = if idx.hold_common_lock(i, j) {
                        None
                    } else {
                        match closure(idx, i, j) {
                            Ok(cl) => try_witness(&self.events, idx, &mut scratch, &cl, i, j, self.mode),
                            Err(NoClosure::Ordered) => None,
                            Err(NoClosure::Capped) => {
                                self.stats.capped = 1;
                                None
                            }
                        }
                    };
                    match witness {
                        Some(reversal) => {
                            self.stats.witnessed += 1;
                            if reversal {
                                self.stats.reversal_races += 1;
                            }
                            done.insert(key);
                            let hint = list
                                .iter()
                                .copied()
                                .filter(|&r| r > j)
                                .find(|&r| matches!(self.events[r].kind, PKind::Read { .. }))
                                .map(|r| access_of(&self.events[r]));
                            out.push(PredictedRace {
                                addr,
                                first: access_of(e1),
                                second: access_of(e2),
                                read_hint: if w1 && w2 { hint } else { None },
                            });
                        }
                        None => self.stats.witness_rejected += 1,
                    }
                }
            }
        }
        out
    }
}

fn normalize(a: InstRef, b: InstRef) -> (InstRef, InstRef) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn access_of(e: &PEvent) -> Access {
    let (is_write, value, ty) = match e.kind {
        PKind::Read { value, ty, .. } => (false, value, ty),
        PKind::Write { value, .. } => (true, value, Type::I64),
        // Only plain accesses become candidates / hints.
        _ => unreachable!("access_of on a non-access event"),
    };
    Access {
        tid: e.tid,
        site: e.site,
        stack: e.stack.clone(),
        is_write,
        value,
        ty,
    }
}

fn event_addr(kind: &PKind) -> Option<u64> {
    match *kind {
        PKind::Read { addr, .. }
        | PKind::Write { addr, .. }
        | PKind::AtomicRead { addr }
        | PKind::AtomicWrite { addr } => Some(addr),
        _ => None,
    }
}

/// "No event / no id" in the dense tables.
const NONE: u32 = u32::MAX;

/// A recorded event over dense ids: memory locations, sync objects and
/// threads are numbered in order of first appearance, so the closure
/// and the scheduler index `Vec`s instead of hashing.
#[derive(Clone, Copy, Debug)]
enum Op {
    Read { loc: u32 },
    Write { loc: u32 },
    AtomicRead { loc: u32, obj: u32 },
    AtomicWrite { loc: u32, obj: u32 },
    Lock { obj: u32 },
    Unlock { obj: u32 },
    Fork { child: u32 },
    Join { child: u32 },
    Free,
}

impl Op {
    /// The sync object this event orders against, if any.
    fn sync_obj(self) -> Option<u32> {
        match self {
            Op::AtomicRead { obj, .. }
            | Op::AtomicWrite { obj, .. }
            | Op::Lock { obj }
            | Op::Unlock { obj } => Some(obj),
            _ => None,
        }
    }
}

/// A memory location's recording state.
#[derive(Clone, Copy, Debug)]
struct LocState {
    addr: u64,
    /// The last write (plain or atomic) so far; `NONE` before any.
    last_writer: u32,
    /// The access list the location's next plain access joins; `NONE`
    /// before its first one and after a `Free` of it.
    open_list: u32,
}

/// Plain, un-elided accesses to one address within one heap
/// generation: a `Free` of the address closes its list, so a recycled
/// address never pairs accesses to different objects.
#[derive(Clone, Debug)]
struct AccessList {
    addr: u64,
    /// Event indices, in trace order.
    accs: Vec<usize>,
}

/// Everything the witness machinery needs, extended by
/// [`TraceIndex::push`] as each event is recorded.
#[derive(Clone, Debug, Default)]
struct TraceIndex {
    /// Each event over dense ids.
    ops: Vec<Op>,
    /// Dense thread of each event.
    thread: Vec<u32>,
    /// Position of each event among its thread's events.
    pos: Vec<u32>,
    /// Observed writer per read event (plain and atomic); `NONE` = the
    /// read saw the initial value (or the event is not a read).
    rf: Vec<u32>,
    /// The locks each event's thread holds at it, as an id into
    /// `locksets` (0 = none held).
    held: Vec<u32>,
    /// Interned held-lock sets, sorted lock-object ids; the first is
    /// the empty set.
    locksets: Vec<Vec<u32>>,
    /// Event indices per dense thread, in program (= trace) order.
    thread_events: Vec<Vec<usize>>,
    /// The `Fork` event that created each dense thread (`NONE` if
    /// recording began after it).
    forker: Vec<u32>,
    /// Dense thread of each recorded thread id (by [`ThreadId::index`],
    /// `NONE` if it never appeared).
    thread_ids: Vec<u32>,
    /// Per sync object: an atomic address (always order-constrained)
    /// rather than a lock.
    atomic_obj: Vec<bool>,
    /// Per dense memory location.
    locs: Vec<LocState>,
    /// Access lists in order of their first access.
    lists: Vec<AccessList>,
    /// Whether any site emitted both `Lock` and `Unlock` events — the
    /// trace signature of a `CondWait` re-acquire.
    has_cond_reacquire: bool,
    // Recording state, read by `push` only.
    loc_ids: FxHashMap<u64, u32>,
    sync_ids: FxHashMap<SyncObj, u32>,
    /// Per dense thread: the locks it holds now, and that set's id.
    held_now: Vec<(Vec<u32>, u32)>,
    lockset_ids: FxHashMap<Vec<u32>, u32>,
    lock_sites: FxHashSet<InstRef>,
    unlock_sites: FxHashSet<InstRef>,
}

impl TraceIndex {
    fn new() -> Self {
        TraceIndex {
            locksets: vec![Vec::new()],
            lockset_ids: FxHashMap::from_iter([(Vec::new(), 0)]),
            ..TraceIndex::default()
        }
    }

    /// Indexes event `i` of the trace, `e`.
    fn push(&mut self, e: &PEvent, i: usize) {
        let t = self.dense_thread(e.tid);
        let op = match e.kind {
            PKind::Read { addr, .. } => Op::Read { loc: self.loc(addr) },
            PKind::Write { addr, .. } => Op::Write { loc: self.loc(addr) },
            PKind::AtomicRead { addr } => Op::AtomicRead {
                loc: self.loc(addr),
                obj: self.sync(SyncObj::AtomicAddr(addr)),
            },
            PKind::AtomicWrite { addr } => Op::AtomicWrite {
                loc: self.loc(addr),
                obj: self.sync(SyncObj::AtomicAddr(addr)),
            },
            PKind::Lock { addr } => Op::Lock {
                obj: self.sync(SyncObj::LockAddr(addr)),
            },
            PKind::Unlock { addr } => Op::Unlock {
                obj: self.sync(SyncObj::LockAddr(addr)),
            },
            PKind::Fork { child } => Op::Fork {
                child: self.dense_thread(child),
            },
            PKind::Join { child } => Op::Join {
                child: self.dense_thread(child),
            },
            PKind::Free { .. } => Op::Free,
        };
        self.ops.push(op);
        self.thread.push(t);
        let tu = t as usize;
        self.pos.push(self.thread_events[tu].len() as u32);
        self.thread_events[tu].push(i);
        let mut rf = NONE;
        match op {
            Op::Read { loc } | Op::AtomicRead { loc, .. } => rf = self.locs[loc as usize].last_writer,
            Op::Write { loc } | Op::AtomicWrite { loc, .. } => self.locs[loc as usize].last_writer = i as u32,
            Op::Lock { obj } => {
                self.lock_sites.insert(e.site);
                self.has_cond_reacquire |= self.unlock_sites.contains(&e.site);
                let set = &mut self.held_now[tu].0;
                if let Err(k) = set.binary_search(&obj) {
                    set.insert(k, obj);
                }
                self.intern_held(tu);
            }
            Op::Unlock { obj } => {
                self.unlock_sites.insert(e.site);
                self.has_cond_reacquire |= self.lock_sites.contains(&e.site);
                self.held_now[tu].0.retain(|&o| o != obj);
                self.intern_held(tu);
            }
            Op::Fork { child } => self.forker[child as usize] = i as u32,
            Op::Join { .. } | Op::Free => {}
        }
        self.rf.push(rf);
        self.held.push(self.held_now[tu].1);
        match (op, &e.kind) {
            (Op::Read { loc } | Op::Write { loc }, _) if !e.elided => {
                let state = &mut self.locs[loc as usize];
                if state.open_list == NONE {
                    state.open_list = self.lists.len() as u32;
                    self.lists.push(AccessList {
                        addr: state.addr,
                        accs: Vec::new(),
                    });
                }
                self.lists[state.open_list as usize].accs.push(i);
            }
            (Op::Free, &PKind::Free { start, end }) => self.close_lists(start, end),
            _ => {}
        }
    }

    /// Dense id of thread `tid`, numbering it on first appearance.
    fn dense_thread(&mut self, tid: ThreadId) -> u32 {
        let k = tid.index();
        if self.thread_ids.len() <= k {
            self.thread_ids.resize(k + 1, NONE);
        }
        if self.thread_ids[k] == NONE {
            let d = self.thread_events.len() as u32;
            self.thread_ids[k] = d;
            self.thread_events.push(Vec::new());
            self.forker.push(NONE);
            self.held_now.push((Vec::new(), 0));
        }
        self.thread_ids[k]
    }

    /// Dense id of memory location `addr`, numbering it on first
    /// appearance.
    fn loc(&mut self, addr: u64) -> u32 {
        let next = self.locs.len() as u32;
        *self.loc_ids.entry(addr).or_insert_with(|| {
            self.locs.push(LocState {
                addr,
                last_writer: NONE,
                open_list: NONE,
            });
            next
        })
    }

    /// Dense id of sync object `o`, numbering it on first appearance.
    fn sync(&mut self, o: SyncObj) -> u32 {
        let next = self.atomic_obj.len() as u32;
        *self.sync_ids.entry(o).or_insert_with(|| {
            self.atomic_obj.push(matches!(o, SyncObj::AtomicAddr(_)));
            next
        })
    }

    /// Re-derives dense thread `t`'s held-lockset id after a lock or
    /// unlock. Looked up by slice: only a set never seen before is
    /// copied.
    fn intern_held(&mut self, t: usize) {
        let set = &self.held_now[t].0;
        let id = match self.lockset_ids.get(set.as_slice()) {
            Some(&id) => id,
            None => {
                let id = self.locksets.len() as u32;
                self.lockset_ids.insert(set.clone(), id);
                self.locksets.push(set.clone());
                id
            }
        };
        self.held_now[t].1 = id;
    }

    /// A `Free` of `[start, end)`: the next access to any address in
    /// it starts a new list. Visits whichever is smaller, the range or
    /// the locations seen so far.
    fn close_lists(&mut self, start: u64, end: u64) {
        if end.saturating_sub(start) <= self.locs.len() as u64 {
            for addr in start..end {
                if let Some(&loc) = self.loc_ids.get(&addr) {
                    self.locs[loc as usize].open_list = NONE;
                }
            }
        } else {
            for state in &mut self.locs {
                if (start..end).contains(&state.addr) {
                    state.open_list = NONE;
                }
            }
        }
    }

    /// Whether the threads of events `a` and `b` hold a common lock at
    /// them (see the module docs' common-lock prune).
    fn hold_common_lock(&self, a: usize, b: usize) -> bool {
        let (x, y) = (self.held[a], self.held[b]);
        if x == 0 || y == 0 {
            return false;
        }
        let ys = &self.locksets[y as usize];
        x == y
            || self.locksets[x as usize]
                .iter()
                .any(|l| ys.binary_search(l).is_ok())
    }

    /// Dense thread of recorded thread `t`, if it appeared.
    fn dense_of(&self, t: ThreadId) -> Option<usize> {
        match self.thread_ids.get(t.index()) {
            Some(&d) if d != NONE => Some(d as usize),
            _ => None,
        }
    }

    /// Events of thread `t` recorded in the whole trace.
    fn events_of(&self, t: ThreadId) -> &[usize] {
        self.dense_of(t).map_or(&[], |d| &self.thread_events[d])
    }

    /// Number of events of thread `t` recorded in the whole trace.
    fn thread_len(&self, t: ThreadId) -> usize {
        self.events_of(t).len()
    }

    /// Whether a recorded `Fork` created thread `t`.
    fn has_forker(&self, t: ThreadId) -> bool {
        self.dense_of(t).is_some_and(|d| self.forker[d] != NONE)
    }

    /// The writer read event `x` observed (`None`: the initial value).
    fn rf_of(&self, x: usize) -> Option<usize> {
        (self.rf[x] != NONE).then_some(self.rf[x] as usize)
    }
}

/// The set of events that must precede both endpoints in any correct
/// reordering. It is closed under program order, so it is kept as one
/// prefix length per thread.
struct Closure {
    /// Thread `t` contributes its first `len[t]` events.
    len: Vec<u32>,
    /// Total number of events.
    size: usize,
    /// The sync events in the closure, in trace order.
    sync: Vec<usize>,
}

impl Closure {
    #[cfg(test)]
    fn contains(&self, idx: &TraceIndex, x: usize) -> bool {
        idx.pos[x] < self.len[idx.thread[x] as usize]
    }
}

/// Why a candidate pair has no closure.
#[derive(Debug, PartialEq, Eq)]
enum NoClosure {
    /// An endpoint reached its own closure: one must precede the other.
    Ordered,
    /// The closure passed `MAX_CLOSURE` events.
    Capped,
}

/// PO-downward closure, each read's observed writer, fork-before,
/// join-pulls-the-whole-child, computed to a fixpoint.
fn closure(idx: &TraceIndex, e1: usize, e2: usize) -> Result<Closure, NoClosure> {
    let mut len = vec![0u32; idx.thread_events.len()];
    let mut size = 0usize;
    let mut sync = Vec::new();
    let mut work: Vec<usize> = Vec::new();
    // An endpoint needs everything before it in its thread (or, as the
    // thread's first event, the fork that created it).
    for e in [e1, e2] {
        let t = idx.thread[e] as usize;
        match idx.pos[e] {
            0 if idx.forker[t] != NONE => work.push(idx.forker[t] as usize),
            0 => {}
            p => work.push(idx.thread_events[t][p as usize - 1]),
        }
    }
    let ends = [
        (idx.thread[e1] as usize, idx.pos[e1]),
        (idx.thread[e2] as usize, idx.pos[e2]),
    ];
    while let Some(x) = work.pop() {
        let t = idx.thread[x] as usize;
        let upto = idx.pos[x] + 1;
        if upto <= len[t] {
            continue;
        }
        // Extend thread `t`'s prefix through `x`, following the edges
        // of every event the extension adds.
        for &y in &idx.thread_events[t][len[t] as usize..upto as usize] {
            if idx.pos[y] == 0 && idx.forker[t] != NONE {
                work.push(idx.forker[t] as usize);
            }
            if idx.rf[y] != NONE {
                work.push(idx.rf[y] as usize);
            }
            match idx.ops[y] {
                // A join in the reordering needs the whole child run.
                Op::Join { child } => {
                    if let Some(&last) = idx.thread_events[child as usize].last() {
                        work.push(last);
                    }
                }
                op if op.sync_obj().is_some() => sync.push(y),
                _ => {}
            }
        }
        size += (upto - len[t]) as usize;
        len[t] = upto;
        if ends.iter().any(|&(et, ep)| et == t && ep < upto) {
            return Err(NoClosure::Ordered);
        }
        if size > MAX_CLOSURE {
            return Err(NoClosure::Capped);
        }
    }
    sync.sort_unstable();
    Ok(Closure { len, size, sync })
}

/// An id-indexed table reset in O(1): entries written before the last
/// `clear` read as unset.
struct Table {
    stamp: u32,
    cells: Vec<(u32, u32)>,
}

impl Table {
    fn new(n: usize) -> Self {
        Table {
            stamp: 0,
            cells: vec![(0, NONE); n],
        }
    }

    fn clear(&mut self) {
        self.stamp += 1;
    }

    fn get(&self, i: u32) -> Option<u32> {
        let (stamp, v) = self.cells[i as usize];
        (stamp == self.stamp && v != NONE).then_some(v)
    }

    fn set(&mut self, i: u32, v: u32) {
        self.cells[i as usize] = (self.stamp, v);
    }
}

/// Scheduler state, allocated once per prediction pass and reused by
/// every candidate and strategy.
struct Scratch {
    /// Rank of each in-closure sync event among its object's in-closure
    /// events, in trace order (valid for the current candidate).
    rank: Vec<u32>,
    /// Last scheduled writer per memory location.
    writer: Table,
    /// Owning thread per lock object.
    owner: Table,
    /// Scheduled event count per order-constrained sync object.
    cursor: Table,
    /// Scheduled event count per thread.
    ptr: Vec<u32>,
    /// Whether each thread may run yet.
    forked: Vec<bool>,
}

impl Scratch {
    fn new(idx: &TraceIndex) -> Self {
        let objs = idx.atomic_obj.len();
        Scratch {
            rank: vec![0; idx.ops.len()],
            writer: Table::new(idx.locs.len()),
            owner: Table::new(objs),
            cursor: Table::new(objs),
            ptr: vec![0; idx.thread_events.len()],
            forked: vec![false; idx.thread_events.len()],
        }
    }

    /// Ranks the closure's sync events within their objects: the
    /// sync-order constraint lets an event run only once every
    /// in-closure event of its object before it has.
    fn rank_sync(&mut self, idx: &TraceIndex, cl: &Closure) {
        self.cursor.clear();
        for &x in &cl.sync {
            let o = idx.ops[x].sync_obj().expect("sync event");
            let r = self.cursor.get(o).unwrap_or(0);
            self.rank[x] = r;
            self.cursor.set(o, r + 1);
        }
    }
}

/// Tie-break rules for the greedy scheduler. A small fixed portfolio:
/// lowest-trace-index first (the sync-preserving natural order), then
/// endpoint-thread-first variants, which find the critical-section
/// reversals the plain greedy order walks past. All deterministic.
#[derive(Clone, Copy)]
enum Strategy {
    LowestIndex,
    PreferThread(u32),
}

/// Greedily linearizes the closure under the reordering constraints.
/// Returns the full witness (closure order plus the two endpoints) or
/// `None` if the schedule gets stuck. `preserve_sync_order` keeps the
/// observed order of same-lock operations (the SyncP regime); atomic
/// order is always preserved. Expects `sc.rank_sync` to have run for
/// this closure.
fn schedule(
    idx: &TraceIndex,
    cl: &Closure,
    sc: &mut Scratch,
    e1: usize,
    e2: usize,
    preserve_sync_order: bool,
    strat: Strategy,
) -> Option<Vec<usize>> {
    sc.writer.clear();
    sc.owner.clear();
    sc.cursor.clear();
    let main = idx.dense_of(ThreadId::MAIN);
    for t in 0..cl.len.len() {
        sc.ptr[t] = 0;
        // A thread with no recorded `Fork` (main, or one alive before
        // recording began) may run from the start.
        sc.forked[t] = idx.forker[t] == NONE || Some(t) == main;
    }
    let runnable = |x: usize, sc: &Scratch| -> bool {
        let t = idx.thread[x];
        if !sc.forked[t as usize] {
            return false;
        }
        let op = idx.ops[x];
        if let Some(o) = op.sync_obj() {
            let constrained = preserve_sync_order || idx.atomic_obj[o as usize];
            if constrained && sc.cursor.get(o).unwrap_or(0) != sc.rank[x] {
                return false;
            }
        }
        match op {
            Op::Lock { obj } => sc.owner.get(obj).is_none(),
            Op::Unlock { obj } => sc.owner.get(obj) == Some(t),
            Op::Read { loc } | Op::AtomicRead { loc, .. } => {
                sc.writer.get(loc).map(|w| w as usize) == idx.rf_of(x)
            }
            Op::Join { child } => {
                // The closure pulled the whole child in, so the
                // in-closure count must equal the trace count too.
                let c = child as usize;
                let total = idx.thread_events[c].len() as u32;
                total == 0 || (cl.len[c] == total && sc.ptr[c] == total)
            }
            _ => true,
        }
    };
    let head = |t: usize, sc: &Scratch| {
        (sc.ptr[t] < cl.len[t]).then(|| idx.thread_events[t][sc.ptr[t] as usize])
    };
    let mut order = Vec::with_capacity(cl.size + 2);
    for _ in 0..cl.size {
        // Candidates are the per-thread heads: PO forces thread-local
        // order, and the closure is a PO prefix of every thread.
        let mut pick = match strat {
            Strategy::PreferThread(t) => head(t as usize, sc).filter(|&x| runnable(x, sc)),
            Strategy::LowestIndex => None,
        };
        if pick.is_none() {
            for t in 0..cl.len.len() {
                if let Some(x) = head(t, sc) {
                    if pick.is_none_or(|p| x < p) && runnable(x, sc) {
                        pick = Some(x);
                    }
                }
            }
        }
        let x = pick?;
        let t = idx.thread[x];
        sc.ptr[t as usize] += 1;
        let op = idx.ops[x];
        if let Some(o) = op.sync_obj() {
            if preserve_sync_order || idx.atomic_obj[o as usize] {
                sc.cursor.set(o, sc.rank[x] + 1);
            }
        }
        match op {
            Op::Lock { obj } => sc.owner.set(obj, t),
            Op::Unlock { obj } => sc.owner.set(obj, NONE),
            Op::Write { loc } | Op::AtomicWrite { loc, .. } => sc.writer.set(loc, x as u32),
            Op::Fork { child } => sc.forked[child as usize] = true,
            _ => {}
        }
        order.push(x);
    }
    order.push(e1);
    order.push(e2);
    Some(order)
}

/// Independent witness check: replays `order` from scratch and
/// verifies it is a correct reordering ending in the co-enabled
/// conflicting pair. Shares no state with the scheduler — this is the
/// gate the soundness contract names.
fn validate_witness(events: &[PEvent], idx: &TraceIndex, order: &[usize], e1: usize, e2: usize) -> bool {
    let n = order.len();
    if n < 2 || order[n - 2] != e1 || order[n - 1] != e2 {
        return false;
    }
    let (a, b) = (&events[e1], &events[e2]);
    let conflict = a.tid != b.tid
        && event_addr(&a.kind) == event_addr(&b.kind)
        && event_addr(&a.kind).is_some()
        && (matches!(a.kind, PKind::Write { .. }) || matches!(b.kind, PKind::Write { .. }))
        && matches!(a.kind, PKind::Read { .. } | PKind::Write { .. })
        && matches!(b.kind, PKind::Read { .. } | PKind::Write { .. });
    if !conflict {
        return false;
    }
    let mut seen: FxHashMap<ThreadId, usize> = FxHashMap::default();
    let mut lock_owner: FxHashMap<u64, ThreadId> = FxHashMap::default();
    let mut writer: FxHashMap<u64, Option<usize>> = FxHashMap::default();
    let mut forked: FxHashSet<ThreadId> = FxHashSet::from_iter([ThreadId::MAIN]);
    for &x in order {
        if !idx.has_forker(events[x].tid) {
            forked.insert(events[x].tid);
        }
    }
    for (k, &x) in order.iter().enumerate() {
        let e = &events[x];
        let endpoint = k >= n - 2;
        // Program order: the witness's events of each thread must be
        // exactly a prefix of that thread's trace events.
        let cnt = seen.entry(e.tid).or_insert(0);
        if idx.events_of(e.tid).get(*cnt) != Some(&x) {
            return false;
        }
        *cnt += 1;
        if !forked.contains(&e.tid) {
            return false;
        }
        match e.kind {
            PKind::Lock { addr } => {
                if lock_owner.contains_key(&addr) {
                    return false;
                }
                lock_owner.insert(addr, e.tid);
            }
            PKind::Unlock { addr } => {
                if lock_owner.remove(&addr) != Some(e.tid) {
                    return false;
                }
            }
            PKind::Read { addr, .. } | PKind::AtomicRead { addr } => {
                // Endpoints are exempt: the race is about the access
                // happening, not about which value it sees.
                if !endpoint && writer.get(&addr).copied().unwrap_or(None) != idx.rf_of(x) {
                    return false;
                }
            }
            PKind::Write { addr, .. } | PKind::AtomicWrite { addr } => {
                writer.insert(addr, Some(x));
            }
            PKind::Fork { child } => {
                forked.insert(child);
            }
            PKind::Join { child } => {
                if seen.get(&child).copied().unwrap_or(0) != idx.thread_len(child) {
                    return false;
                }
            }
            PKind::Free { .. } => {}
        }
    }
    true
}

/// Runs gates 2 and 3 for one candidate whose closure is `cl`.
/// Returns `Some(reversal)` when a validated witness exists.
fn try_witness(
    events: &[PEvent],
    idx: &TraceIndex,
    sc: &mut Scratch,
    cl: &Closure,
    e1: usize,
    e2: usize,
    mode: PredictMode,
) -> Option<bool> {
    sc.rank_sync(idx, cl);
    let strategies = [
        Strategy::LowestIndex,
        Strategy::PreferThread(idx.thread[e2]),
        Strategy::PreferThread(idx.thread[e1]),
    ];
    for strat in strategies {
        if let Some(order) = schedule(idx, cl, sc, e1, e2, true, strat) {
            if validate_witness(events, idx, &order, e1, e2) {
                return Some(false);
            }
        }
    }
    if mode == PredictMode::SyncReversal {
        for strat in strategies {
            if let Some(order) = schedule(idx, cl, sc, e1, e2, false, strat) {
                if validate_witness(events, idx, &order, e1, e2) {
                    return Some(true);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{FuncId, InstId};
    use std::sync::Arc;

    fn ev(tid: u32, func: u32, inst: u32, kind: PKind) -> PEvent {
        PEvent {
            tid: ThreadId(tid),
            site: InstRef::new(FuncId(func), InstId(inst)),
            stack: Arc::from(vec![].into_boxed_slice()),
            kind,
            elided: false,
        }
    }

    fn predictor_with(mode: PredictMode, events: Vec<PEvent>) -> Predictor {
        let mut p = Predictor::new(mode);
        for e in events {
            p.push(e);
        }
        p
    }

    /// The index recording `trace` builds.
    fn indexed(trace: &[PEvent]) -> TraceIndex {
        predictor_with(PredictMode::SyncPreserving, trace.to_vec()).idx
    }

    fn schedule_lowest(idx: &TraceIndex, cl: &Closure, e1: usize, e2: usize) -> Option<Vec<usize>> {
        let mut sc = Scratch::new(idx);
        sc.rank_sync(idx, cl);
        schedule(idx, cl, &mut sc, e1, e2, true, Strategy::LowestIndex)
    }

    const X: u64 = 0x1000;
    const L: u64 = 0x2000;

    /// main: fork; write x; lock; unlock; T1: lock; unlock; read x.
    /// HB-ordered in this trace (lock edge), but sync-preservingly
    /// racy: a reordering omitting main's critical section co-enables
    /// the write and the read.
    fn syncp_trace() -> Vec<PEvent> {
        vec![
            ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
            ev(0, 0, 1, PKind::Write { addr: X, value: 1 }),
            ev(0, 0, 2, PKind::Lock { addr: L }),
            ev(0, 0, 3, PKind::Unlock { addr: L }),
            ev(1, 1, 0, PKind::Lock { addr: L }),
            ev(1, 1, 1, PKind::Unlock { addr: L }),
            ev(
                1,
                1,
                2,
                PKind::Read {
                    addr: X,
                    value: 1,
                    ty: Type::I64,
                },
            ),
        ]
    }

    /// main: fork; lock; write x; unlock; T1: lock; unlock; write x.
    /// Both accesses inside/behind critical sections on the same lock:
    /// only a critical-section reversal exposes the race.
    fn reversal_trace() -> Vec<PEvent> {
        vec![
            ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
            ev(0, 0, 1, PKind::Lock { addr: L }),
            ev(0, 0, 2, PKind::Write { addr: X, value: 1 }),
            ev(1, 1, 0, PKind::Lock { addr: L }),
            ev(1, 1, 1, PKind::Unlock { addr: L }),
            ev(1, 1, 2, PKind::Write { addr: X, value: 2 }),
        ]
    }

    /// Both accesses *inside* same-lock critical sections: no correct
    /// reordering co-enables them, whatever the regime.
    fn locked_trace() -> Vec<PEvent> {
        vec![
            ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
            ev(0, 0, 1, PKind::Lock { addr: L }),
            ev(0, 0, 2, PKind::Write { addr: X, value: 1 }),
            ev(0, 0, 3, PKind::Unlock { addr: L }),
            ev(1, 1, 0, PKind::Lock { addr: L }),
            ev(
                1,
                1,
                1,
                PKind::Read {
                    addr: X,
                    value: 1,
                    ty: Type::I64,
                },
            ),
            ev(1, 1, 2, PKind::Unlock { addr: L }),
        ]
    }

    #[test]
    fn syncp_predicts_hb_ordered_race() {
        let mut p = predictor_with(PredictMode::SyncPreserving, syncp_trace());
        let races = p.predict(&FxHashSet::default());
        assert_eq!(races.len(), 1, "{:?}", p.stats);
        assert_eq!(races[0].addr, X);
        assert_eq!(p.stats.witnessed, 1);
        assert_eq!(p.stats.reversal_races, 0);
    }

    #[test]
    fn reversal_needs_osr_mode() {
        let mut syncp = predictor_with(PredictMode::SyncPreserving, reversal_trace());
        assert!(
            syncp.predict(&FxHashSet::default()).is_empty(),
            "SyncP must not reverse lock order: {:?}",
            syncp.stats
        );
        assert!(syncp.stats.witness_rejected >= 1);

        let mut osr = predictor_with(PredictMode::SyncReversal, reversal_trace());
        let races = osr.predict(&FxHashSet::default());
        assert_eq!(races.len(), 1, "{:?}", osr.stats);
        assert_eq!(osr.stats.reversal_races, 1);
    }

    #[test]
    fn common_lock_pairs_are_pruned_before_the_gates() {
        // main's write and T1's read both sit inside `L`; the prune
        // rejects the pair from the held locksets alone.
        let trace = locked_trace();
        let idx = indexed(&trace);
        assert!(idx.hold_common_lock(2, 5));
        // Outside the critical sections nothing is held.
        assert!(!idx.hold_common_lock(0, 4));
        // A critical section on a different lock shares nothing.
        let mut other = locked_trace();
        other[4].kind = PKind::Lock { addr: L + 1 };
        other[6].kind = PKind::Unlock { addr: L + 1 };
        assert!(!indexed(&other).hold_common_lock(2, 5));
        // The rejection is counted exactly like a failed witness.
        let mut p = predictor_with(PredictMode::SyncReversal, trace);
        assert!(p.predict(&FxHashSet::default()).is_empty());
        assert_eq!(p.stats.candidates, 1);
        assert_eq!(p.stats.witness_rejected, 1);
    }

    #[test]
    fn attempt_ceiling_counts_the_unit_as_capped() {
        // Two threads each write `x` at 100 distinct sites inside `L`:
        // 100 × 100 cross-thread site pairs, more than the pass may try.
        let n = 100;
        let mut trace = vec![ev(0, 0, 0, PKind::Fork { child: ThreadId(1) })];
        for tid in 0..2u32 {
            trace.push(ev(tid, tid, 1, PKind::Lock { addr: L }));
            for k in 0..n {
                trace.push(ev(tid, tid, 10 + k, PKind::Write { addr: X, value: 1 }));
            }
            trace.push(ev(tid, tid, 2, PKind::Unlock { addr: L }));
        }
        let mut p = predictor_with(PredictMode::SyncReversal, trace);
        assert!(p.predict(&FxHashSet::default()).is_empty());
        assert_eq!(p.stats.candidates, MAX_TOTAL_ATTEMPTS);
        assert_eq!(p.stats.capped, 1, "{:?}", p.stats);

        // A trace under every ceiling is not capped.
        let mut p = predictor_with(PredictMode::SyncPreserving, syncp_trace());
        assert_eq!(p.predict(&FxHashSet::default()).len(), 1);
        assert_eq!(p.stats.capped, 0, "{:?}", p.stats);
    }

    #[test]
    fn closure_ceiling_counts_the_unit_as_capped() {
        // T1 runs `n` private writes and then writes `x`; T2 writes
        // `x`. The pair's closure holds T1's whole prefix.
        let trace = |n: u32| {
            let mut t = vec![
                ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
                ev(0, 0, 1, PKind::Fork { child: ThreadId(2) }),
            ];
            for k in 0..n {
                t.push(ev(1, 1, 10 + k, PKind::Write { addr: X + 1, value: 1 }));
            }
            t.push(ev(1, 1, 1, PKind::Write { addr: X, value: 1 }));
            t.push(ev(2, 2, 0, PKind::Write { addr: X, value: 2 }));
            t
        };
        let mut p = predictor_with(PredictMode::SyncReversal, trace(MAX_CLOSURE as u32));
        assert!(p.predict(&FxHashSet::default()).is_empty());
        assert_eq!(p.stats.candidates, 1, "{:?}", p.stats);
        assert_eq!(p.stats.witness_rejected, 1, "{:?}", p.stats);
        assert_eq!(p.stats.capped, 1, "{:?}", p.stats);

        // The same shape under the ceiling is witnessed, uncapped.
        let mut p = predictor_with(PredictMode::SyncReversal, trace(100));
        assert_eq!(p.predict(&FxHashSet::default()).len(), 1);
        assert_eq!(p.stats.capped, 0, "{:?}", p.stats);
    }

    #[test]
    fn same_lock_protection_is_never_predicted() {
        for mode in [PredictMode::SyncPreserving, PredictMode::SyncReversal] {
            let mut p = predictor_with(mode, locked_trace());
            assert!(
                p.predict(&FxHashSet::default()).is_empty(),
                "{mode:?} predicted through a common lock: {:?}",
                p.stats
            );
        }
    }

    #[test]
    fn rf_constraint_blocks_control_flow_divergence() {
        // T1 writes x; T2 reads x (from T1's write) and then writes y;
        // candidate pair is (write y, read y by main)... simplified:
        // the read of x inside the closure must still see T1's write,
        // which forces the write before it in every witness.
        let trace = vec![
            ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
            ev(0, 0, 1, PKind::Fork { child: ThreadId(2) }),
            ev(1, 1, 0, PKind::Write { addr: X, value: 7 }),
            ev(
                2,
                2,
                0,
                PKind::Read {
                    addr: X,
                    value: 7,
                    ty: Type::I64,
                },
            ),
            ev(2, 2, 1, PKind::Write { addr: X + 1, value: 1 }),
            ev(0, 0, 2, PKind::Write { addr: X + 1, value: 2 }),
        ];
        let idx = indexed(&trace);
        // Candidate: (T2's write at 4, main's write at 5) on X+1. The
        // closure must contain T2's read (PO) and transitively T1's
        // write (RF).
        let set = closure(&idx, 4, 5).expect("co-enablable");
        assert!(set.contains(&idx, 3), "PO pred of endpoint in closure");
        assert!(set.contains(&idx, 2), "observed writer pulled in via RF");
        let order = schedule_lowest(&idx, &set, 4, 5).expect("schedulable");
        assert!(validate_witness(&trace, &idx, &order, 4, 5));
        // The validator rejects a witness whose read sees the wrong
        // writer: drop T1's write from the order.
        let broken: Vec<usize> = order.iter().copied().filter(|&x| x != 2).collect();
        assert!(!validate_witness(&trace, &idx, &broken, 4, 5));
    }

    #[test]
    fn free_generation_split_prevents_cross_object_pairs() {
        // T1 writes addr inside region; main frees the region; T2
        // writes the recycled addr. Different heap objects — not a
        // candidate pair.
        let trace = vec![
            ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
            ev(1, 1, 0, PKind::Write { addr: X, value: 1 }),
            ev(0, 0, 1, PKind::Join { child: ThreadId(1) }),
            ev(
                0,
                0,
                2,
                PKind::Free {
                    start: X,
                    end: X + 4,
                },
            ),
            ev(0, 0, 3, PKind::Fork { child: ThreadId(2) }),
            ev(2, 2, 0, PKind::Write { addr: X, value: 2 }),
        ];
        let idx = indexed(&trace);
        assert_eq!(idx.lists.len(), 2, "free splits the generation");
        let mut p = predictor_with(PredictMode::SyncReversal, trace);
        assert!(p.predict(&FxHashSet::default()).is_empty());
        assert_eq!(p.stats.candidates, 0, "no cross-generation candidates");
    }

    #[test]
    fn cond_reacquire_signature_disables_prediction() {
        // A CondWait re-acquire emits Lock at the same site as its
        // phase-1 Unlock; such traces must predict nothing.
        let mut trace = syncp_trace();
        trace.push(ev(1, 1, 3, PKind::Unlock { addr: L }));
        trace.push(ev(1, 1, 3, PKind::Lock { addr: L }));
        let mut p = predictor_with(PredictMode::SyncReversal, trace);
        assert!(p.predict(&FxHashSet::default()).is_empty());
        assert_eq!(p.stats.candidates, 0);
    }

    #[test]
    fn join_pulls_whole_child_into_witness() {
        // main forks T1, joins it, then writes x; T2 writes x. The
        // join in main's prefix forces all of T1 into the witness.
        let trace = vec![
            ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
            ev(0, 0, 1, PKind::Fork { child: ThreadId(2) }),
            ev(1, 1, 0, PKind::Write { addr: X + 9, value: 3 }),
            ev(0, 0, 2, PKind::Join { child: ThreadId(1) }),
            ev(0, 0, 3, PKind::Write { addr: X, value: 1 }),
            ev(2, 2, 0, PKind::Write { addr: X, value: 2 }),
        ];
        let idx = indexed(&trace);
        let set = closure(&idx, 4, 5).expect("co-enablable");
        assert!(set.contains(&idx, 2), "child's events pulled in by the join");
        assert!(set.contains(&idx, 3));
        let order = schedule_lowest(&idx, &set, 4, 5).expect("schedulable");
        assert!(validate_witness(&trace, &idx, &order, 4, 5));
    }

    #[test]
    fn elided_accesses_are_memory_events_but_not_candidates() {
        let mut trace = syncp_trace();
        for e in &mut trace {
            if matches!(e.kind, PKind::Read { .. } | PKind::Write { .. }) {
                e.elided = true;
            }
        }
        let mut p = predictor_with(PredictMode::SyncPreserving, trace);
        assert!(p.predict(&FxHashSet::default()).is_empty());
        assert_eq!(p.stats.candidates, 0);
    }

    /// The common-lock prune against the full gate sequence, on random
    /// traces: two to four threads forked by main, each running plain
    /// reads and writes and critical sections over two locks (some
    /// nested), interleaved by a random schedule that respects lock
    /// ownership.
    mod prune_property {
        use super::*;
        use proptest::prelude::{any, prop, prop_assert, prop_oneof, proptest, ProptestConfig};
        use proptest::strategy::Strategy as Gen;

        #[derive(Clone, Debug)]
        enum Act {
            Access {
                cell: u64,
                write: bool,
            },
            /// `lock` around the body; `nested` (when set) around all
            /// but the body's first access.
            Section {
                lock: u64,
                nested: Option<u64>,
                body: Vec<(u64, bool)>,
            },
        }

        fn act() -> impl Gen<Value = Act> {
            prop_oneof![
                (0..3u64, any::<bool>()).prop_map(|(cell, write)| Act::Access { cell, write }),
                (
                    0..2u64,
                    0..4u64,
                    prop::collection::vec((0..3u64, any::<bool>()), 1..4)
                )
                    .prop_map(|(lock, nested, body)| Act::Section {
                        lock,
                        nested: (nested < 2 && nested != lock).then_some(nested),
                        body,
                    }),
            ]
        }

        fn access(cell: u64, write: bool) -> PKind {
            let addr = X + cell;
            if write {
                PKind::Write { addr, value: 1 }
            } else {
                PKind::Read {
                    addr,
                    value: 1,
                    ty: Type::I64,
                }
            }
        }

        fn program(acts: &[Act]) -> Vec<PKind> {
            let mut out = Vec::new();
            for a in acts {
                match a {
                    Act::Access { cell, write } => out.push(access(*cell, *write)),
                    Act::Section { lock, nested, body } => {
                        out.push(PKind::Lock { addr: L + lock });
                        out.push(access(body[0].0, body[0].1));
                        if let Some(n) = nested {
                            out.push(PKind::Lock { addr: L + n });
                        }
                        out.extend(body[1..].iter().map(|&(c, w)| access(c, w)));
                        if let Some(n) = nested {
                            out.push(PKind::Unlock { addr: L + n });
                        }
                        out.push(PKind::Unlock { addr: L + lock });
                    }
                }
            }
            out
        }

        /// Main forks every thread, `picks` interleaves them (a thread
        /// waiting for a held lock cannot run; a deadlock ends the
        /// trace), and main joins them all if every one finished.
        fn interleave(threads: &[Vec<Act>], picks: &[u8]) -> Vec<PEvent> {
            let progs: Vec<Vec<PKind>> = threads.iter().map(|a| program(a)).collect();
            let mut trace: Vec<PEvent> = (0..progs.len())
                .map(|k| {
                    let child = ThreadId(k as u32 + 1);
                    ev(0, 0, k as u32, PKind::Fork { child })
                })
                .collect();
            let mut next = vec![0usize; progs.len()];
            let mut owner: FxHashMap<u64, usize> = FxHashMap::default();
            for step in 0.. {
                let runnable: Vec<usize> = (0..progs.len())
                    .filter(|&k| match progs[k].get(next[k]) {
                        None => false,
                        Some(PKind::Lock { addr }) => !owner.contains_key(addr),
                        Some(_) => true,
                    })
                    .collect();
                if runnable.is_empty() {
                    break;
                }
                let k = runnable[picks[step % picks.len()] as usize % runnable.len()];
                let kind = progs[k][next[k]].clone();
                match kind {
                    PKind::Lock { addr } => {
                        owner.insert(addr, k);
                    }
                    PKind::Unlock { addr } => {
                        owner.remove(&addr);
                    }
                    _ => {}
                }
                trace.push(ev(k as u32 + 1, k as u32 + 1, next[k] as u32, kind));
                next[k] += 1;
            }
            if (0..progs.len()).all(|k| next[k] == progs[k].len()) {
                for k in 0..progs.len() {
                    let child = ThreadId(k as u32 + 1);
                    trace.push(ev(0, 0, (progs.len() + k) as u32, PKind::Join { child }));
                }
            }
            trace
        }

        /// Plain accesses to one address from two threads, at least one
        /// a write: the shape of a prediction candidate.
        fn candidate(a: &PEvent, b: &PEvent) -> bool {
            let plain = |k: &PKind| matches!(k, PKind::Read { .. } | PKind::Write { .. });
            a.tid != b.tid
                && plain(&a.kind)
                && plain(&b.kind)
                && event_addr(&a.kind) == event_addr(&b.kind)
                && (matches!(a.kind, PKind::Write { .. }) || matches!(b.kind, PKind::Write { .. }))
        }

        /// A witness for `(i, j)` that passes the full gate sequence:
        /// the closure, every strategy of both regimes, the validator.
        fn any_witness(
            trace: &[PEvent],
            idx: &TraceIndex,
            sc: &mut Scratch,
            i: usize,
            j: usize,
        ) -> Option<Vec<usize>> {
            let cl = closure(idx, i, j).ok()?;
            sc.rank_sync(idx, &cl);
            let strategies = [
                Strategy::LowestIndex,
                Strategy::PreferThread(idx.thread[j]),
                Strategy::PreferThread(idx.thread[i]),
            ];
            for preserve in [true, false] {
                for strat in strategies {
                    if let Some(order) = schedule(idx, &cl, sc, i, j, preserve, strat) {
                        if validate_witness(trace, idx, &order, i, j) {
                            return Some(order);
                        }
                    }
                }
            }
            None
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every candidate pair the prune rejects also gets no
            /// validated witness from the full gate sequence.
            #[test]
            fn every_pruned_pair_fails_the_full_gate_sequence(
                threads in prop::collection::vec(prop::collection::vec(act(), 1..6), 2..5),
                picks in prop::collection::vec(any::<u8>(), 1..48),
            ) {
                let trace = interleave(&threads, &picks);
                let idx = indexed(&trace);
                let mut sc = Scratch::new(&idx);
                for j in 0..trace.len() {
                    for i in 0..j {
                        if candidate(&trace[i], &trace[j]) && idx.hold_common_lock(i, j) {
                            let w = any_witness(&trace, &idx, &mut sc, i, j);
                            prop_assert!(
                                w.is_none(),
                                "pruned pair ({i}, {j}) has a witness: {w:?}\n{trace:#?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
