//! Static check-elision pre-pass.
//!
//! Classifies every plain load/store site whose accesses are provably
//! race-free, so the dynamic detectors can skip their shadow-memory
//! work at those sites ("Compiling Away the Overhead of Race
//! Detection"-style elision stacked on the epoch fast path).
//!
//! The unit of proof is the **abstract location** ([`AbsLoc`]) from the
//! Andersen points-to solution. A location is race-free when one of
//! three obligations holds over *every* access site that may touch it:
//!
//! 1. **Thread-local** — either the location is a non-escaping
//!    allocation site (its address never flows into a global cell or a
//!    `ThreadCreate` argument, so no other thread can ever name it), or
//!    every function containing an access is reachable from exactly one
//!    *single-instance* thread root (the entry function, or a worker
//!    spawned exactly once from straight-line entry code).
//! 2. **Read-only-shared** — no plain store or `MemCopy` destination
//!    may touch the location anywhere in the module. Atomic stores are
//!    permitted: atomics never touch shadow memory (they are pure
//!    synchronization edges), so a location with only atomic writers
//!    has an empty shadow history and its reads can never conflict.
//! 3. **Lock-dominated** — a static must-lockset dataflow (forward,
//!    meet = intersection, interprocedural entry locksets via the call
//!    graph, lock identity restricted to singleton `Global` points-to
//!    sets so acquisition sites must-alias one concrete mutex) proves a
//!    common lock held at every access site. Two accesses under one
//!    mutex are mutually excluded and ordered by its release/acquire
//!    clocks, so neither backend can ever report them.
//!
//! A *site* is elided iff its points-to set is non-empty and every
//! location in it is race-free. `MemCopy` sites are never elided (one
//! instruction fans out into many dynamic accesses) but their accesses
//! participate in every location's obligation. Empty points-to sets
//! mean "untracked address — may touch anything": one such access site,
//! or one indirect call with no resolved targets, poisons the whole
//! module and nothing is elided ([`ElisionStats::poisoned`]).
//!
//! Accesses borrow their location sets from the points-to solution as
//! dense ids, which index every per-location table. Each function's
//! block-entry locksets are recomputed only when its entry set changes.
//!
//! Soundness contract consumed by `owl_race`: if a site is elided, no
//! execution has a racing access pair involving that site, so skipping
//! its shadow lookup/update changes neither the report stream nor the
//! read-hint, suppression, or drop counters of any detector backend.

use super::cfg::Cfg;
use super::dom::DomTree;
use super::loops::LoopInfo;
use super::pointsto::{AbsLoc, PointsTo};
use crate::hash::FxHashSet;
use crate::ids::{BlockId, FuncId, GlobalId, InstId, InstRef};
use crate::inst::{Callee, Inst, Operand};
use crate::module::Module;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Why a site's shadow-memory work can be skipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ElisionClass {
    /// Every location the site may touch is provably confined to one
    /// thread.
    ThreadLocal,
    /// Every location the site may touch is never plainly written.
    ReadOnlyShared,
    /// Every location the site may touch has a common mutex held at
    /// all of its access sites.
    LockDominated,
}

impl fmt::Display for ElisionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ElisionClass::ThreadLocal => "thread-local",
            ElisionClass::ReadOnlyShared => "read-only-shared",
            ElisionClass::LockDominated => "lock-dominated",
        })
    }
}

/// Aggregate counts from one [`ElisionMap::analyze`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElisionStats {
    /// Plain load/store sites considered (root-reachable functions).
    pub sites_total: usize,
    /// Sites proven race-free (sum of the three classes).
    pub sites_elided: usize,
    /// Sites elided as thread-local.
    pub thread_local: usize,
    /// Sites elided as read-only-shared.
    pub read_only: usize,
    /// Sites elided as lock-dominated.
    pub lock_dominated: usize,
    /// Abstract locations with at least one access.
    pub locations: usize,
    /// Locations proven race-free.
    pub locations_elidable: usize,
    /// Whether an untracked access or unresolved indirect call forced
    /// the analysis to give up on the whole module.
    pub poisoned: bool,
}

/// Per-site elision classification for one module.
#[derive(Clone, Debug, Default)]
pub struct ElisionMap {
    classes: BTreeMap<InstRef, ElisionClass>,
    stats: ElisionStats,
}

/// One may-access of one abstract location set.
struct Access<'a> {
    site: InstRef,
    write: bool,
    /// Plain `Load`/`Store` — a candidate for elision. `MemCopy`
    /// accesses participate in proofs but are never elided themselves.
    candidate: bool,
    /// The ids of the locations the address may point to, borrowed
    /// from the points-to solution.
    locs: &'a [u32],
}

/// Which thread roots can reach a function, or access a location.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reach {
    None,
    One(usize),
    Many,
}

impl Reach {
    /// Adds the roots of `other`.
    fn merge(self, other: Reach) -> Reach {
        match (self, other) {
            (Reach::None, r) | (r, Reach::None) => r,
            (Reach::One(a), Reach::One(b)) if a == b => self,
            _ => Reach::Many,
        }
    }
}

/// Locks a function (or its transitive callees) may release.
#[derive(Clone, PartialEq, Eq)]
enum Released {
    Set(BTreeSet<GlobalId>),
    All,
}

/// A must-lockset: `None` is ⊤ (no path reaches here yet — vacuously
/// holds every lock), `Some(s)` is the set held on every path.
type Lockset = Option<BTreeSet<GlobalId>>;

/// The shadow-memory accesses `inst` makes, as `(address, is write,
/// elision candidate)` (see [`Access`]). Atomic accesses are excluded
/// by design: they never touch shadow memory.
fn accessed(inst: &Inst) -> impl Iterator<Item = (Operand, bool, bool)> {
    let (first, second) = match *inst {
        Inst::Load { addr, .. } => (Some((addr, false, true)), None),
        Inst::Store { addr, .. } => (Some((addr, true, true)), None),
        Inst::MemCopy { dst, src, .. } => (Some((src, false, false)), Some((dst, true, false))),
        _ => (None, None),
    };
    first.into_iter().chain(second)
}

fn meet(acc: &mut Lockset, other: &BTreeSet<GlobalId>) -> bool {
    match acc {
        None => {
            *acc = Some(other.clone());
            true
        }
        Some(s) => {
            let before = s.len();
            s.retain(|g| other.contains(g));
            s.len() != before
        }
    }
}

impl ElisionMap {
    /// Runs the pre-pass with a freshly solved points-to analysis.
    pub fn analyze(m: &Module, entry: FuncId) -> Self {
        Self::analyze_with(m, entry, &PointsTo::new(m))
    }

    /// Runs the pre-pass over an existing points-to solution.
    pub fn analyze_with(m: &Module, entry: FuncId, pts: &PointsTo) -> Self {
        Analysis::new(m, entry, pts).run()
    }

    /// The class under which `site` was elided, if any.
    pub fn class_of(&self, site: InstRef) -> Option<ElisionClass> {
        self.classes.get(&site).copied()
    }

    /// Whether `site`'s shadow work can be skipped.
    pub fn is_elided(&self, site: InstRef) -> bool {
        self.classes.contains_key(&site)
    }

    /// All elided sites with their classes, in site order.
    pub fn sites(&self) -> impl Iterator<Item = (InstRef, ElisionClass)> + '_ {
        self.classes.iter().map(|(s, c)| (*s, *c))
    }

    /// The elided sites as a lookup set (for the VM's event stamping).
    pub fn elided_set(&self) -> FxHashSet<InstRef> {
        self.classes.keys().copied().collect()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ElisionStats {
        self.stats
    }

    /// Number of elided sites.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether nothing was elided.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

struct Analysis<'a> {
    m: &'a Module,
    entry: FuncId,
    pts: &'a PointsTo,
    /// Call adjacency, per function and keyed by call site (internal
    /// targets only; thread spawns excluded — a spawned function runs
    /// on its own root, not its creator's).
    calls: Vec<BTreeMap<InstId, Vec<FuncId>>>,
    /// Whether some reachable indirect call resolved to nothing.
    unresolved_call: bool,
    /// `ThreadCreate` sites: (containing function, instruction,
    /// internal target).
    creates: Vec<(FuncId, InstId, FuncId)>,
    reach: Vec<Reach>,
    roots: Vec<FuncId>,
    single: Vec<bool>,
}

impl<'a> Analysis<'a> {
    fn new(m: &'a Module, entry: FuncId, pts: &'a PointsTo) -> Self {
        let n = m.funcs.len();
        let mut calls = vec![BTreeMap::new(); n];
        let mut unresolved_call = false;
        let mut creates = Vec::new();
        for (fi, f) in m.funcs.iter().enumerate() {
            if !f.is_internal {
                continue;
            }
            let fid = FuncId::from_index(fi);
            for (i, inst) in f.iter_insts() {
                match inst {
                    Inst::Call { callee, .. } => {
                        let site = InstRef::new(fid, i);
                        let targets = match callee {
                            Callee::Direct(t) => vec![*t],
                            Callee::Indirect(_) => match pts.resolve_targets(site) {
                                Some(ts) if !ts.is_empty() => ts.to_vec(),
                                // Nothing tracked into the callee
                                // operand: the call could execute
                                // anything. Poisons the module.
                                _ => {
                                    unresolved_call = true;
                                    Vec::new()
                                }
                            },
                        };
                        let internal: Vec<FuncId> = targets
                            .into_iter()
                            .filter(|t| m.func(*t).is_internal)
                            .collect();
                        calls[fi].insert(i, internal);
                    }
                    Inst::ThreadCreate { func, .. } if m.func(*func).is_internal => {
                        creates.push((fid, i, *func));
                    }
                    _ => {}
                }
            }
        }
        Analysis {
            m,
            entry,
            pts,
            calls,
            unresolved_call,
            creates,
            reach: vec![Reach::None; n],
            roots: Vec::new(),
            single: Vec::new(),
        }
    }

    fn run(mut self) -> ElisionMap {
        self.compute_roots_and_reach();
        let accesses = self.collect_accesses();
        let poisoned = self.unresolved_call || accesses.iter().any(|a| a.locs.is_empty());

        let mut stats = ElisionStats {
            sites_total: accesses.iter().filter(|a| a.candidate).count(),
            poisoned,
            ..ElisionStats::default()
        };
        let mut classes = Vec::new();

        if !poisoned {
            // Per location: the roots reaching its access sites
            // (`Reach::None`: never accessed), and whether one writes.
            let locs = self.pts.locations();
            let mut reach = vec![Reach::None; locs.len()];
            let mut written = vec![false; locs.len()];
            for a in &accesses {
                let r = self.reach[a.site.func.index()];
                for &l in a.locs {
                    reach[l as usize] = reach[l as usize].merge(r);
                    written[l as usize] |= a.write;
                }
            }
            stats.locations = reach.iter().filter(|r| **r != Reach::None).count();

            let escaped = self.escape_set();
            let locksets = LocksetAnalysis::solve(&self);

            let mut loc_class = vec![None; locs.len()];
            for (l, loc) in locs.iter().enumerate() {
                if reach[l] == Reach::None || matches!(loc, AbsLoc::Func(_)) {
                    continue; // unaccessed, or code rather than data memory
                }
                // Non-escaping allocation sites: every dynamic instance
                // is private to its allocating thread, even when the
                // allocating function runs on many threads (instances
                // never share a concrete address — the VM never recycles
                // allocations). Otherwise root confinement: every access
                // site lives in code only one single-instance thread
                // root can reach.
                let private = matches!(loc, AbsLoc::Alloca(_) | AbsLoc::Heap(_)) && !escaped[l];
                let class = if private || matches!(reach[l], Reach::One(r) if self.single[r]) {
                    ElisionClass::ThreadLocal
                } else if !written[l] {
                    ElisionClass::ReadOnlyShared
                } else if locksets.common_lock(l) {
                    ElisionClass::LockDominated
                } else {
                    continue;
                };
                loc_class[l] = Some(class);
            }
            stats.locations_elidable = loc_class.iter().flatten().count();

            'sites: for a in accesses.iter().filter(|a| a.candidate) {
                let (mut local, mut locked) = (true, false);
                for &l in a.locs {
                    let Some(c) = loc_class[l as usize] else {
                        continue 'sites;
                    };
                    local &= c == ElisionClass::ThreadLocal;
                    locked |= c == ElisionClass::LockDominated;
                }
                let class = if local {
                    ElisionClass::ThreadLocal
                } else if !a.write && !locked {
                    ElisionClass::ReadOnlyShared
                } else {
                    debug_assert!(a.write || locked);
                    ElisionClass::LockDominated
                };
                match class {
                    ElisionClass::ThreadLocal => stats.thread_local += 1,
                    ElisionClass::ReadOnlyShared => stats.read_only += 1,
                    ElisionClass::LockDominated => stats.lock_dominated += 1,
                }
                stats.sites_elided += 1;
                classes.push((a.site, class));
            }
        }

        ElisionMap {
            classes: classes.into_iter().collect(),
            stats,
        }
    }

    /// Thread roots (entry first, then distinct spawn targets), the
    /// root-reachability of every function, and per-root
    /// single-instance flags.
    fn compute_roots_and_reach(&mut self) {
        self.roots.push(self.entry);
        let mut seen: BTreeSet<FuncId> = BTreeSet::new();
        seen.insert(self.entry);
        for &(_, _, target) in &self.creates {
            if seen.insert(target) {
                self.roots.push(target);
            }
        }

        for (ri, &root) in self.roots.iter().enumerate() {
            let mut visited = vec![false; self.m.funcs.len()];
            let mut work = VecDeque::from([root]);
            visited[root.index()] = true;
            while let Some(f) = work.pop_front() {
                self.reach[f.index()] = self.reach[f.index()].merge(Reach::One(ri));
                for targets in self.calls[f.index()].values() {
                    for &t in targets {
                        if !visited[t.index()] {
                            visited[t.index()] = true;
                            work.push_back(t);
                        }
                    }
                }
            }
        }

        // A root is single-instance when exactly one thread ever runs
        // its tree. Entry: nobody calls or spawns it. Worker: spawned
        // exactly once, from straight-line (non-loop) entry code, with
        // entry itself single-instance. Calls into a worker from other
        // code are caught by the `Reach::Many` merge, not here.
        let entry_f = self.m.func(self.entry);
        let cfg = Cfg::new(entry_f);
        let dom = DomTree::new(entry_f, &cfg);
        let loops = LoopInfo::new(entry_f, &cfg, &dom);
        let entry_single = !self.unresolved_call
            && !self
                .calls
                .iter()
                .flat_map(BTreeMap::values)
                .any(|ts| ts.contains(&self.entry))
            && !self.creates.iter().any(|&(_, _, t)| t == self.entry);
        self.single = self
            .roots
            .iter()
            .enumerate()
            .map(|(ri, &root)| {
                if ri == 0 {
                    return entry_single;
                }
                let sites: Vec<_> = self
                    .creates
                    .iter()
                    .filter(|&&(_, _, t)| t == root)
                    .collect();
                entry_single
                    && sites.len() == 1
                    && sites[0].0 == self.entry
                    && !loops.inst_in_loop(sites[0].1)
            })
            .collect();
    }

    /// All may-accesses in root-reachable internal functions.
    fn collect_accesses(&self) -> Vec<Access<'a>> {
        let pts = self.pts;
        let mut out = Vec::new();
        for (fi, f) in self.m.funcs.iter().enumerate() {
            if !f.is_internal || self.reach[fi] == Reach::None {
                continue;
            }
            let fid = FuncId::from_index(fi);
            for (i, inst) in f.iter_insts() {
                let site = InstRef::new(fid, i);
                for (addr, write, candidate) in accessed(inst) {
                    out.push(Access {
                        site,
                        write,
                        candidate,
                        locs: pts.operand_locs(fid, addr),
                    });
                }
            }
        }
        out
    }

    /// Locations another thread could ever name, by location id: every
    /// global, every `ThreadCreate` argument's points-to set, and the
    /// transitive closure of their cell contents. Allocation sites
    /// outside this set are only ever addressed by the thread that
    /// allocated them.
    fn escape_set(&self) -> Vec<bool> {
        let locs = self.pts.locations();
        let mut escaped = vec![false; locs.len()];
        let mut work: Vec<u32> = (0..locs.len() as u32)
            .filter(|&l| matches!(locs[l as usize], AbsLoc::Global(_)))
            .collect();
        for (fi, f) in self.m.funcs.iter().enumerate() {
            if !f.is_internal || self.reach[fi] == Reach::None {
                continue;
            }
            let fid = FuncId::from_index(fi);
            for (_, inst) in f.iter_insts() {
                if let Inst::ThreadCreate { arg, .. } = inst {
                    work.extend(self.pts.operand_locs(fid, *arg));
                }
            }
        }
        while let Some(l) = work.pop() {
            if !std::mem::replace(&mut escaped[l as usize], true) {
                work.extend(self.pts.cell_locs(l));
            }
        }
        escaped
    }
}

/// One function's CFG, built once, with its block-entry locksets and
/// the entry lockset they were computed from.
struct Flow {
    cfg: Cfg,
    rpo: Vec<BlockId>,
    /// Every edge out of a reachable block goes forward in `rpo`, so
    /// one pass in reverse postorder reaches the fixpoint.
    acyclic: bool,
    entry: Option<BTreeSet<GlobalId>>,
    block_in: Vec<Lockset>,
}

/// Interprocedural must-lockset solution.
struct LocksetAnalysis<'a> {
    a: &'a Analysis<'a>,
    universe: BTreeSet<GlobalId>,
    released: Vec<Released>,
    entry_sets: Vec<Lockset>,
    flows: Vec<Option<Flow>>,
    /// Per location id, the meet of the must-locksets held at its
    /// access sites. Sites in dead blocks never execute and constrain
    /// nothing, so a location whose every site is dead stays ⊤
    /// (`None`).
    common: Vec<Lockset>,
}

impl<'a> LocksetAnalysis<'a> {
    fn solve(a: &'a Analysis<'a>) -> Self {
        // Lock identity: only acquisition sites whose mutex operand
        // points to exactly one global can be proven to take one
        // concrete lock (allocation-site mutexes have one abstract but
        // many dynamic instances, so they never must-alias).
        let mut universe = BTreeSet::new();
        for (fi, f) in a.m.funcs.iter().enumerate() {
            if !f.is_internal || a.reach[fi] == Reach::None {
                continue;
            }
            let fid = FuncId::from_index(fi);
            for (_, inst) in f.iter_insts() {
                if let Inst::MutexLock { addr } = inst {
                    let p = a.pts.pts_operand(fid, *addr);
                    if p.len() == 1 {
                        if let Some(AbsLoc::Global(g)) = p.first() {
                            universe.insert(*g);
                        }
                    }
                }
            }
        }

        let n = a.m.funcs.len();
        let mut s = LocksetAnalysis {
            a,
            universe,
            released: vec![Released::Set(BTreeSet::new()); n],
            entry_sets: vec![None; n],
            flows: (0..n).map(|_| None).collect(),
            common: Vec::new(),
        };
        s.solve_released();
        s.solve_entry_sets();
        let mut common = vec![None; a.pts.locations().len()];
        for (fi, f) in a.m.funcs.iter().enumerate() {
            if f.is_internal && a.reach[fi] != Reach::None {
                let fid = FuncId::from_index(fi);
                s.sweep(fid, |i, st| {
                    for (addr, _, _) in accessed(f.inst(i)) {
                        for &l in a.pts.operand_locs(fid, addr) {
                            meet(&mut common[l as usize], st);
                        }
                    }
                });
            }
        }
        s.common = common;
        s
    }

    /// Fixpoint of the may-release summaries over the call graph: what
    /// each function releases itself, found in one scan, then what its
    /// callees release.
    fn solve_released(&mut self) {
        for (fi, f) in self.a.m.funcs.iter().enumerate() {
            if !f.is_internal {
                continue;
            }
            let fid = FuncId::from_index(fi);
            let mut eff = Released::Set(BTreeSet::new());
            for (_, inst) in f.iter_insts() {
                if let Inst::MutexUnlock { addr } | Inst::CondWait { mutex: addr, .. } = inst {
                    let p = self.a.pts.pts_operand(fid, *addr);
                    if p.is_empty() {
                        eff = Released::All;
                    } else if let Released::Set(s) = &mut eff {
                        s.extend(
                            self.universe
                                .iter()
                                .filter(|g| p.contains(&AbsLoc::Global(**g))),
                        );
                    }
                }
            }
            self.released[fi] = eff;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for fi in 0..self.a.m.funcs.len() {
                let mut eff = self.released[fi].clone();
                for t in self.a.calls[fi].values().flatten() {
                    match (&mut eff, &self.released[t.index()]) {
                        (Released::All, _) => {}
                        (_, Released::All) => eff = Released::All,
                        (Released::Set(s), Released::Set(o)) => s.extend(o.iter().copied()),
                    }
                }
                if eff != self.released[fi] {
                    self.released[fi] = eff;
                    changed = true;
                }
            }
        }
    }

    /// Fixpoint of the entry locksets: what a function's caller is
    /// guaranteed to hold at every call site. Thread roots start with
    /// nothing (a fresh thread holds no locks). A function's call sites
    /// pass its locksets on again only after its entry lockset changed.
    fn solve_entry_sets(&mut self) {
        self.entry_sets[self.a.entry.index()] = Some(BTreeSet::new());
        for &root in &self.a.roots {
            self.entry_sets[root.index()] = Some(BTreeSet::new());
        }
        let a = self.a;
        let mut dirty: Vec<bool> = self.entry_sets.iter().map(Option::is_some).collect();
        let mut at_calls = Vec::new();
        while dirty.contains(&true) {
            for fi in 0..a.m.funcs.len() {
                let calls = &a.calls[fi];
                if !std::mem::take(&mut dirty[fi]) || calls.is_empty() {
                    continue;
                }
                // Calls in dead blocks never run and are never visited.
                self.sweep(FuncId::from_index(fi), |i, st| {
                    if let Some(targets) = calls.get(&i) {
                        at_calls.push((targets, st.clone()));
                    }
                });
                for (targets, state) in at_calls.drain(..) {
                    for t in targets {
                        dirty[t.index()] |= meet(&mut self.entry_sets[t.index()], &state);
                    }
                }
            }
        }
    }

    /// Brings `fid`'s block-entry locksets up to date with its entry
    /// lockset: the intraprocedural forward must-lockset dataflow,
    /// meet = intersection over predecessors, iterated to fixpoint in
    /// reverse postorder. The ∩-meet is the dataflow form of the
    /// dominance obligation: a lock survives into the must-set only if
    /// an acquisition covers *every* path to the block.
    fn update_flow(&mut self, fid: FuncId) {
        let f = self.a.m.func(fid);
        let mut flow = self.flows[fid.index()].take().unwrap_or_else(|| {
            let cfg = Cfg::new(f);
            let rpo = cfg.reverse_postorder();
            let mut pos = vec![usize::MAX; cfg.len()];
            for (k, b) in rpo.iter().enumerate() {
                pos[b.index()] = k;
            }
            let forward =
                |(k, b): (usize, &BlockId)| cfg.succs(*b).iter().all(|s| pos[s.index()] > k);
            let acyclic = rpo.iter().enumerate().all(forward);
            Flow {
                cfg,
                rpo,
                acyclic,
                entry: None,
                block_in: Vec::new(),
            }
        });
        let entry_set = self.entry_sets[fid.index()].clone().unwrap_or_default();
        if flow.entry.as_ref() != Some(&entry_set) {
            let mut inb: Vec<Lockset> = vec![None; f.blocks.len()];
            let mut outb: Vec<Lockset> = vec![None; f.blocks.len()];
            loop {
                let mut changed = false;
                for &b in &flow.rpo {
                    let mut acc: Lockset = (b.index() == 0).then(|| entry_set.clone());
                    for &p in flow.cfg.preds(b) {
                        if let Some(o) = &outb[p.index()] {
                            meet(&mut acc, o);
                        }
                    }
                    if acc != inb[b.index()] {
                        inb[b.index()] = acc.clone();
                        changed = true;
                    }
                    let out = acc.map(|mut st| {
                        for &i in &f.blocks[b.index()].insts {
                            self.transfer(fid, i, &mut st);
                        }
                        st
                    });
                    if out != outb[b.index()] {
                        outb[b.index()] = out;
                        changed = true;
                    }
                }
                if !changed || flow.acyclic {
                    break;
                }
            }
            flow.block_in = inb;
            flow.entry = Some(entry_set);
        }
        self.flows[fid.index()] = Some(flow);
    }

    /// One forward pass over every block of `fid` that some path
    /// reaches, from its up-to-date block-entry locksets: `visit` sees
    /// each instruction with the must-lockset held immediately before
    /// it. Instructions in dead blocks never run and are not visited.
    fn sweep(&mut self, fid: FuncId, mut visit: impl FnMut(InstId, &BTreeSet<GlobalId>)) {
        self.update_flow(fid);
        let f = self.a.m.func(fid);
        let flow = self.flows[fid.index()].as_ref().expect("flow just updated");
        for (block, entry) in f.blocks.iter().zip(&flow.block_in) {
            let Some(mut st) = entry.clone() else {
                continue;
            };
            for &i in &block.insts {
                visit(i, &st);
                self.transfer(fid, i, &mut st);
            }
        }
    }

    fn transfer(&self, fid: FuncId, i: InstId, st: &mut BTreeSet<GlobalId>) {
        match self.a.m.func(fid).inst(i) {
            Inst::MutexLock { addr } => {
                let p = self.a.pts.pts_operand(fid, *addr);
                if p.len() == 1 {
                    if let Some(AbsLoc::Global(g)) = p.first() {
                        if self.universe.contains(g) {
                            st.insert(*g);
                        }
                    }
                }
            }
            // CondWait re-acquires before returning, but killing is
            // simpler to argue and costs little precision.
            Inst::MutexUnlock { addr } | Inst::CondWait { mutex: addr, .. } => {
                let p = self.a.pts.pts_operand(fid, *addr);
                if p.is_empty() {
                    st.clear();
                } else {
                    st.retain(|g| !p.contains(&AbsLoc::Global(*g)));
                }
            }
            Inst::Call { .. } => {
                if let Some(targets) = self.a.calls[fid.index()].get(&i) {
                    for t in targets {
                        match &self.released[t.index()] {
                            Released::All => st.clear(),
                            Released::Set(s) => st.retain(|g| !s.contains(g)),
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Whether one lock is held at every access site of the location
    /// with id `loc` that can execute.
    fn common_lock(&self, loc: usize) -> bool {
        self.common[loc].as_ref().is_some_and(|s| !s.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::Operand;
    use crate::types::Type;

    fn finish(mb: ModuleBuilder) -> (Module, FuncId) {
        let m = mb.finish();
        let main = m.func_by_name("main").unwrap();
        (m, main)
    }

    /// Load/store sites of a named function, in order.
    fn access_sites(m: &Module, name: &str) -> Vec<InstRef> {
        let fid = m.func_by_name(name).unwrap();
        m.func(fid)
            .iter_insts()
            .filter(|(_, i)| matches!(i, Inst::Load { .. } | Inst::Store { .. }))
            .map(|(i, _)| InstRef::new(fid, i))
            .collect()
    }

    #[test]
    fn racy_global_is_never_elided() {
        let mut mb = ModuleBuilder::new("racy");
        let g = mb.global("x", 1, Type::I64);
        let w = mb.declare_func("w", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let a = b.global_addr(g);
            b.store(a, 1);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(w, 0);
            let a = b.global_addr(g);
            b.load(a, Type::I64);
            b.thread_join(t);
            b.ret(None);
        }
        let (m, main) = finish(mb);
        let map = ElisionMap::analyze(&m, main);
        assert!(map.is_empty(), "{:?}", map);
        assert_eq!(map.stats().sites_total, 2);
        assert!(!map.stats().poisoned);
    }

    #[test]
    fn per_thread_private_globals_are_thread_local() {
        let mut mb = ModuleBuilder::new("private");
        let gm = mb.global("main_only", 1, Type::I64);
        let gw = mb.global("worker_only", 1, Type::I64);
        let w = mb.declare_func("w", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let a = b.global_addr(gw);
            let v = b.load(a, Type::I64);
            b.store(a, Operand::Value(v));
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(w, 0);
            let a = b.global_addr(gm);
            b.store(a, 7);
            b.thread_join(t);
            b.ret(None);
        }
        let (m, main) = finish(mb);
        let map = ElisionMap::analyze(&m, main);
        for site in access_sites(&m, "w")
            .into_iter()
            .chain(access_sites(&m, "main"))
        {
            assert_eq!(
                map.class_of(site),
                Some(ElisionClass::ThreadLocal),
                "{site}"
            );
        }
        assert_eq!(map.stats().sites_elided, 3);
    }

    #[test]
    fn loop_spawned_worker_loses_thread_locality() {
        let mut mb = ModuleBuilder::new("loopspawn");
        let gw = mb.global("per_worker", 1, Type::I64);
        let w = mb.declare_func("w", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let a = b.global_addr(gw);
            b.store(a, 1);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let head = b.block();
            let done = b.block();
            b.jmp(head);
            b.switch_to(head);
            b.thread_create(w, 0);
            let again = b.input(0);
            b.br(again, head, done);
            b.switch_to(done);
            b.ret(None);
        }
        let (m, main) = finish(mb);
        let map = ElisionMap::analyze(&m, main);
        assert!(map.is_empty(), "two workers may race on per_worker");
    }

    #[test]
    fn lock_dominated_accesses_elide_and_unlocked_tail_breaks_it() {
        let mut mb = ModuleBuilder::new("locked");
        let shared = mb.global("shared", 1, Type::I64);
        let racy = mb.global("racy", 1, Type::I64);
        let mu = mb.global("m", 1, Type::I64);
        let w1 = mb.declare_func("w1", 1);
        let w2 = mb.declare_func("w2", 1);
        let main = mb.declare_func("main", 0);
        for w in [w1, w2] {
            let mut b = mb.build_func(w);
            let ma = b.global_addr(mu);
            b.lock(ma);
            let sa = b.global_addr(shared);
            let v = b.load(sa, Type::I64);
            b.store(sa, Operand::Value(v));
            b.unlock(ma);
            // Unlocked access to `racy` only.
            let ra = b.global_addr(racy);
            b.store(ra, 9);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(w1, 0);
            let t2 = b.thread_create(w2, 0);
            b.thread_join(t1);
            b.thread_join(t2);
            b.ret(None);
        }
        let (m, main) = finish(mb);
        let map = ElisionMap::analyze(&m, main);
        for w in ["w1", "w2"] {
            let sites = access_sites(&m, w);
            assert_eq!(map.class_of(sites[0]), Some(ElisionClass::LockDominated));
            assert_eq!(map.class_of(sites[1]), Some(ElisionClass::LockDominated));
            assert_eq!(map.class_of(sites[2]), None, "unlocked store must stay");
        }
        assert_eq!(map.stats().lock_dominated, 4);
    }

    #[test]
    fn mixed_locked_and_unlocked_access_breaks_domination() {
        let mut mb = ModuleBuilder::new("mixed");
        let g = mb.global("g", 1, Type::I64);
        let mu = mb.global("m", 1, Type::I64);
        let w1 = mb.declare_func("w1", 1);
        let w2 = mb.declare_func("w2", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w1);
            let ma = b.global_addr(mu);
            b.lock(ma);
            let ga = b.global_addr(g);
            b.store(ga, 1);
            b.unlock(ma);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(w2);
            let ga = b.global_addr(g);
            b.store(ga, 2);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(w1, 0);
            let t2 = b.thread_create(w2, 0);
            b.thread_join(t1);
            b.thread_join(t2);
            b.ret(None);
        }
        let (m, main) = finish(mb);
        let map = ElisionMap::analyze(&m, main);
        assert!(map.is_empty(), "{:?}", map);
    }

    #[test]
    fn read_only_shared_globals_elide_reads() {
        let mut mb = ModuleBuilder::new("rodata");
        let table = mb.global_init("table", 4, vec![1, 2, 3, 4], Type::I64);
        let w = mb.declare_func("w", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let a = b.global_addr(table);
            b.load(a, Type::I64);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(w, 0);
            let t2 = b.thread_create(w, 0);
            let a = b.global_addr(table);
            b.load(a, Type::I64);
            b.thread_join(t1);
            b.thread_join(t2);
            b.ret(None);
        }
        let (m, main) = finish(mb);
        let map = ElisionMap::analyze(&m, main);
        for site in access_sites(&m, "w")
            .into_iter()
            .chain(access_sites(&m, "main"))
        {
            assert_eq!(
                map.class_of(site),
                Some(ElisionClass::ReadOnlyShared),
                "{site}"
            );
        }
    }

    #[test]
    fn non_escaping_heap_is_thread_local_even_with_many_workers() {
        let mut mb = ModuleBuilder::new("heap");
        let w = mb.declare_func("w", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let p = b.malloc(2);
            b.store(p, 5);
            b.load(p, Type::I64);
            b.free(p);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(w, 0);
            let t2 = b.thread_create(w, 0);
            b.thread_join(t1);
            b.thread_join(t2);
            b.ret(None);
        }
        let (m, main) = finish(mb);
        let map = ElisionMap::analyze(&m, main);
        for site in access_sites(&m, "w") {
            assert_eq!(
                map.class_of(site),
                Some(ElisionClass::ThreadLocal),
                "{site}"
            );
        }
    }

    #[test]
    fn escaping_alloca_is_not_thread_local() {
        let mut mb = ModuleBuilder::new("escape");
        let w = mb.declare_func("w", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            b.store(Operand::Param(0), 3);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let p = b.alloca(1);
            let t1 = b.thread_create(w, Operand::Value(p));
            let t2 = b.thread_create(w, Operand::Value(p));
            b.thread_join(t1);
            b.thread_join(t2);
            b.ret(None);
        }
        let (m, main) = finish(mb);
        let map = ElisionMap::analyze(&m, main);
        assert!(map.is_empty(), "{:?}", map);
    }

    #[test]
    fn lockset_flows_into_callees() {
        let mut mb = ModuleBuilder::new("interproc");
        let g = mb.global("g", 1, Type::I64);
        let mu = mb.global("m", 1, Type::I64);
        let helper = mb.declare_func("helper", 0);
        let w1 = mb.declare_func("w1", 1);
        let w2 = mb.declare_func("w2", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(helper);
            let ga = b.global_addr(g);
            b.store(ga, 1);
            b.ret(None);
        }
        for w in [w1, w2] {
            let mut b = mb.build_func(w);
            let ma = b.global_addr(mu);
            b.lock(ma);
            b.call(helper, vec![]);
            b.unlock(ma);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(w1, 0);
            let t2 = b.thread_create(w2, 0);
            b.thread_join(t1);
            b.thread_join(t2);
            b.ret(None);
        }
        let (m, main) = finish(mb);
        let map = ElisionMap::analyze(&m, main);
        let sites = access_sites(&m, "helper");
        assert_eq!(map.class_of(sites[0]), Some(ElisionClass::LockDominated));
    }

    #[test]
    fn callee_that_unlocks_kills_the_lockset() {
        let mut mb = ModuleBuilder::new("killer");
        let g = mb.global("g", 1, Type::I64);
        let mu = mb.global("m", 1, Type::I64);
        let bad = mb.declare_func("bad", 0);
        let w1 = mb.declare_func("w1", 1);
        let w2 = mb.declare_func("w2", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(bad);
            let ma = b.global_addr(mu);
            b.unlock(ma);
            b.ret(None);
        }
        for w in [w1, w2] {
            let mut b = mb.build_func(w);
            let ma = b.global_addr(mu);
            b.lock(ma);
            b.call(bad, vec![]);
            let ga = b.global_addr(g);
            b.store(ga, 1);
            b.unlock(ma);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(w1, 0);
            let t2 = b.thread_create(w2, 0);
            b.thread_join(t1);
            b.thread_join(t2);
            b.ret(None);
        }
        let (m, main) = finish(mb);
        let map = ElisionMap::analyze(&m, main);
        assert!(map.is_empty(), "store after may-unlock call must stay");
    }

    #[test]
    fn untracked_address_poisons_everything() {
        let mut mb = ModuleBuilder::new("poison");
        let g = mb.global("private", 1, Type::I64);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            let wild = b.input(0);
            b.load(Operand::Value(wild), Type::I64);
            let a = b.global_addr(g);
            b.store(a, 1);
            b.ret(None);
        }
        let (m, main) = finish(mb);
        let map = ElisionMap::analyze(&m, main);
        assert!(map.stats().poisoned);
        assert!(map.is_empty(), "untracked access may touch anything");
    }

    #[test]
    fn memcopy_counts_as_writes_but_is_never_elided() {
        let mut mb = ModuleBuilder::new("copy");
        let src = mb.global_init("src", 2, vec![1, 2], Type::I64);
        let dst = mb.global("dst", 2, Type::I64);
        let w = mb.declare_func("w", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let a = b.global_addr(dst);
            b.load(a, Type::I64);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(w, 0);
            let s = b.global_addr(src);
            let d = b.global_addr(dst);
            b.memcopy(d, s, 2);
            b.thread_join(t);
            b.ret(None);
        }
        let (m, main) = finish(mb);
        let map = ElisionMap::analyze(&m, main);
        let sites = access_sites(&m, "w");
        assert_eq!(
            map.class_of(sites[0]),
            None,
            "memcopy writes dst concurrently with the load"
        );
        assert!(!map.stats().poisoned);
    }
}
