//! Flow-insensitive, field-insensitive Andersen-style points-to
//! analysis.
//!
//! The paper's Algorithm 1 deliberately skips pointer analysis and
//! leans on runtime call stacks instead (§6.1). That blind spot makes
//! any attack whose corrupted value is stored to memory and reloaded
//! elsewhere invisible to the static vulnerability analyzer. This
//! module closes the gap with the cheapest analysis that is still
//! sound for the IR's memory model:
//!
//! * **Abstract locations** ([`AbsLoc`]) name every allocation site
//!   statically: one per global, one per `alloca` instruction, one per
//!   `malloc` instruction, and one per function (for function-pointer
//!   constants). The VM never reuses concrete addresses across
//!   allocation sites (globals are laid out once, heap and stack
//!   cursors only grow), so two accesses with equal concrete addresses
//!   always share an abstract location — the over-approximation
//!   property the soundness tests check.
//! * **Field-insensitive**: a location is a single cell; `gep` is a
//!   copy of its base pointer. Distinct fields of one object therefore
//!   alias, which is conservative.
//! * **Flow-insensitive**: one points-to set per SSA value for the
//!   whole program. SSA already gives def-use precision within a
//!   function; the imprecision is confined to memory cells, which is
//!   what the vulnerability analyzer treats conservatively anyway.
//!
//! Nodes are dense ids laid out from the module: each function's
//! instructions, parameters and return value, then one cell per
//! location. A node holds the id of a hash-consed sorted location set,
//! so a copy edge propagates by a cached union of two ids.
//!
//! Constraints are solved with a standard worklist: base constraints
//! seed the sets, copy edges propagate them, and `load`/`store`/
//! indirect-call constraints add edges on the fly as the sets of their
//! pointer operands grow. A node is on the worklist at most once (an
//! on-list flag, cleared when it is popped), and one visit propagates
//! its whole current set along its copy edges, so growth while it
//! waits costs no extra visit. Deferred constraints see only the
//! locations the node gained since its last visit (difference
//! propagation), so each pair of a constraint and a location adds its
//! edges once. The least fixpoint does not depend on visit order.
//!
//! Indirect calls are resolved on the fly from the `Func` locations
//! flowing into the callee operand, which is also what
//! [`super::CallGraph`] consumes to refine its arity-based fallback.

use crate::hash::FxHashMap;
use crate::ids::{FuncId, GlobalId, InstId, InstRef};
use crate::inst::{Callee, Inst, Operand};
use crate::module::Module;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::rc::Rc;

/// An abstract memory location: one per static allocation site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AbsLoc {
    /// A global variable.
    Global(GlobalId),
    /// The stack object allocated by an `alloca` instruction (all
    /// dynamic instances collapse into one location).
    Alloca(InstRef),
    /// The heap object allocated by a `malloc` instruction (all
    /// dynamic instances collapse into one location).
    Heap(InstRef),
    /// A function, as the target of a function-pointer constant.
    Func(FuncId),
}

impl std::fmt::Display for AbsLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbsLoc::Global(g) => write!(f, "{g}"),
            AbsLoc::Alloca(r) => write!(f, "alloca:{r}"),
            AbsLoc::Heap(r) => write!(f, "heap:{r}"),
            AbsLoc::Func(id) => write!(f, "fn:{id}"),
        }
    }
}

/// Solver statistics, exposed so the pipeline can report the cost of
/// memory-awareness next to its detection gain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PointsToStats {
    /// Nodes in the constraint graph: instructions, parameters a call
    /// can reach, return values and location cells.
    pub nodes: usize,
    /// Base + copy + complex constraints generated from the IR.
    pub constraints: usize,
    /// Worklist items processed until the fixpoint.
    pub iterations: u64,
}

/// Where one function's nodes start: its instructions, then its
/// parameters, then its return value.
#[derive(Clone, Copy, Debug)]
struct FuncNodes {
    base: u32,
    insts: u32,
    params: u32,
}

/// The dense numbering of a module's nodes and locations.
#[derive(Debug)]
struct Layout {
    funcs: Vec<FuncNodes>,
    /// Every abstract location, in `AbsLoc` order: a location's id is
    /// its index here, and its cell is node `cells + id`.
    locs: Vec<AbsLoc>,
    cells: u32,
}

impl Layout {
    fn new(m: &Module) -> Self {
        // No parameter past the widest call's arguments can receive a
        // pointer: none gets a node, however many a function declares.
        let mut widest = 1u32;
        let (mut allocas, mut heaps) = (Vec::new(), Vec::new());
        for (fi, f) in m.funcs.iter().enumerate().filter(|(_, f)| f.is_internal) {
            for (i, inst) in f.insts.iter().enumerate() {
                let r = InstRef::new(FuncId::from_index(fi), InstId::from_index(i));
                match inst {
                    Inst::Alloca { .. } => allocas.push(AbsLoc::Alloca(r)),
                    Inst::Malloc { .. } => heaps.push(AbsLoc::Heap(r)),
                    Inst::Call { args, .. } => widest = widest.max(args.len() as u32),
                    _ => {}
                }
            }
        }
        let mut locs: Vec<AbsLoc> = (0..m.globals.len())
            .map(|g| AbsLoc::Global(GlobalId::from_index(g)))
            .collect();
        locs.extend(allocas);
        locs.extend(heaps);
        locs.extend((0..m.funcs.len()).map(|f| AbsLoc::Func(FuncId::from_index(f))));
        let (mut funcs, mut next) = (Vec::with_capacity(m.funcs.len()), 0usize);
        for f in &m.funcs {
            let params = f.num_params.min(widest);
            funcs.push(FuncNodes {
                base: next as u32,
                insts: f.insts.len() as u32,
                params,
            });
            next += f.insts.len() + params as usize + 1;
        }
        // Checked after the casts above: past `u32`, they truncated.
        assert!(next + locs.len() < NONE as usize, "node ids overflow");
        let cells = next as u32;
        Layout { funcs, locs, cells }
    }

    /// The node of an operand evaluated in `f`, if it can carry a
    /// pointer: `None` for constants and references outside the module.
    fn operand(&self, f: FuncId, op: Operand) -> Option<u32> {
        let n = self.funcs.get(f.index())?;
        match op {
            Operand::Value(v) if v.0 < n.insts => Some(n.base + v.0),
            Operand::Param(p) if p < n.params => Some(n.base + n.insts + p),
            _ => None,
        }
    }

    fn ret(&self, f: FuncId) -> u32 {
        let n = self.funcs[f.index()];
        n.base + n.insts + n.params
    }

    /// The id of location `l`, if the module has it.
    fn loc_id(&self, l: AbsLoc) -> Option<u32> {
        self.locs.binary_search(&l).ok().map(|id| id as u32)
    }
}

/// The id of the empty set in every [`SetTable`].
const EMPTY: u32 = 0;

/// Hash-consed sorted location sets: each distinct set is stored once
/// and named by its index.
#[derive(Default)]
struct SetTable {
    sets: Vec<Rc<[u32]>>,
    ids: FxHashMap<Rc<[u32]>, u32>,
    /// Union results, keyed by the ordered pair of operand ids.
    unions: FxHashMap<(u32, u32), u32>,
    scratch: Vec<u32>,
}

impl SetTable {
    fn get(&self, id: u32) -> &[u32] {
        &self.sets[id as usize]
    }

    fn intern(&mut self, set: &[u32]) -> u32 {
        if let Some(&id) = self.ids.get(set) {
            return id;
        }
        let id = self.sets.len() as u32;
        let set: Rc<[u32]> = set.into();
        self.sets.push(Rc::clone(&set));
        self.ids.insert(set, id);
        id
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        if a == b || b == EMPTY {
            return a;
        }
        if a == EMPTY {
            return b;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&u) = self.unions.get(&key) {
            return u;
        }
        let (x, y) = (&self.sets[a as usize], &self.sets[b as usize]);
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        out.extend_from_slice(x);
        out.extend_from_slice(y);
        out.sort_unstable();
        out.dedup();
        let u = match out.len() {
            n if n == x.len() => a,
            n if n == y.len() => b,
            _ => self.intern(&out),
        };
        self.scratch = out;
        self.unions.insert(key, u);
        u
    }
}

/// A deferred constraint attached to a pointer node, instantiated for
/// each location the node gains.
#[derive(Clone, Copy)]
enum Deferred {
    /// `dst ⊇ *p`: the node is loaded through.
    LoadInto(u32),
    /// `*p ⊇ src`: the node is stored through.
    StoreFrom(u32),
    /// The node is the callee operand of the indirect call with this
    /// index in [`Solver::calls`].
    Call(u32),
}

/// An indirect call site and what the solve resolved it to.
struct IndirectCall {
    site: InstRef,
    /// The call's result node, and its argument nodes in position order
    /// (`None` for constants).
    res: u32,
    args: Vec<Option<u32>>,
    /// Internal targets of matching arity, sorted.
    targets: Vec<FuncId>,
}

/// No deferred constraint: the end of a node's list.
const NONE: u32 = u32::MAX;

/// Constraint-graph state used only while solving.
struct Solver<'m> {
    m: &'m Module,
    layout: &'m Layout,
    table: SetTable,
    /// Each node's set, and the part of it its last visit propagated.
    set: Vec<u32>,
    done: Vec<u32>,
    /// Copy edges: successors per node (`dst ⊇ src`).
    succs: Vec<Vec<u32>>,
    /// Deferred constraints as one list per node: its first entry in
    /// `deferred`, and each entry's successor.
    first: Vec<u32>,
    deferred: Vec<(Deferred, u32)>,
    /// Indirect call sites, in site order.
    calls: Vec<IndirectCall>,
    /// Nodes whose set must be re-propagated, each at most once.
    work: Vec<u32>,
    /// Whether a node is on `work` (cleared when it is popped).
    queued: Vec<bool>,
    constraints: usize,
}

impl<'m> Solver<'m> {
    fn new(m: &'m Module, layout: &'m Layout) -> Self {
        let nodes = layout.cells as usize + layout.locs.len();
        let mut table = SetTable::default();
        table.intern(&[]);
        Solver {
            m,
            layout,
            table,
            set: vec![EMPTY; nodes],
            done: vec![EMPTY; nodes],
            succs: vec![Vec::new(); nodes],
            first: vec![NONE; nodes],
            deferred: Vec::new(),
            calls: Vec::new(),
            work: Vec::new(),
            queued: vec![false; nodes],
            constraints: 0,
        }
    }

    fn base(&mut self, n: u32, loc: AbsLoc) {
        self.constraints += 1;
        if let Some(l) = self.layout.loc_id(loc) {
            let one = self.table.intern(&[l]);
            self.flow(one, n);
        }
    }

    /// Copy edge `dst ⊇ src`. It carries `src`'s set at once, because
    /// an edge added while solving may come after `src`'s last visit.
    fn edge(&mut self, src: u32, dst: u32) {
        self.constraints += 1;
        if src != dst {
            self.succs[src as usize].push(dst);
            self.flow(self.set[src as usize], dst);
        }
    }

    /// Adds set `s` to node `d`; if it grew, queues `d` unless it is
    /// already queued.
    fn flow(&mut self, s: u32, d: u32) {
        let (u, i) = (self.table.union(self.set[d as usize], s), d as usize);
        if u != self.set[i] {
            self.set[i] = u;
            if !std::mem::replace(&mut self.queued[i], true) {
                self.work.push(d);
            }
        }
    }

    /// Attaches a deferred constraint to pointer node `n`.
    fn defer(&mut self, n: u32, c: Deferred) {
        self.constraints += 1;
        self.deferred.push((c, self.first[n as usize]));
        self.first[n as usize] = (self.deferred.len() - 1) as u32;
    }

    /// The whole constraint system of every internal function.
    fn generate(&mut self) {
        let (m, layout) = (self.m, self.layout);
        for (fi, func) in m.funcs.iter().enumerate() {
            if !func.is_internal {
                continue;
            }
            let fid = FuncId::from_index(fi);
            let node = |op: Operand| layout.operand(fid, op);
            for (i, inst) in func.insts.iter().enumerate() {
                let iref = InstRef::new(fid, InstId::from_index(i));
                let n = layout.funcs[fi].base + i as u32;
                match inst {
                    Inst::GlobalAddr(g) => self.base(n, AbsLoc::Global(*g)),
                    Inst::FuncAddr(f) => self.base(n, AbsLoc::Func(*f)),
                    Inst::Alloca { .. } => self.base(n, AbsLoc::Alloca(iref)),
                    Inst::Malloc { .. } => self.base(n, AbsLoc::Heap(iref)),
                    // Field-insensitive: interior pointers alias their
                    // base object.
                    Inst::Gep { base, .. } => {
                        if let Some(b) = node(*base) {
                            self.edge(b, n);
                        }
                    }
                    Inst::Phi { incoming } => {
                        for src in incoming.iter().filter_map(|(_, v)| node(*v)) {
                            self.edge(src, n);
                        }
                    }
                    Inst::Load { addr, .. } | Inst::AtomicLoad { addr } => {
                        if let Some(a) = node(*addr) {
                            self.defer(a, Deferred::LoadInto(n));
                        }
                    }
                    Inst::Store { addr, val } | Inst::AtomicStore { addr, val } => {
                        if let (Some(a), Some(v)) = (node(*addr), node(*val)) {
                            self.defer(a, Deferred::StoreFrom(v));
                        }
                    }
                    // Word-level copy through memory: a load from
                    // `src`'s cells into a synthetic value (the memcopy
                    // inst itself) stored into `dst`'s cells.
                    Inst::MemCopy { dst, src, .. } => {
                        if let Some(s) = node(*src) {
                            self.defer(s, Deferred::LoadInto(n));
                        }
                        if let Some(d) = node(*dst) {
                            self.defer(d, Deferred::StoreFrom(n));
                        }
                    }
                    Inst::Call {
                        callee: Callee::Direct(t),
                        args,
                    } => {
                        let args: Vec<Option<u32>> = args.iter().map(|a| node(*a)).collect();
                        self.wire(&args, n, *t);
                    }
                    Inst::Call {
                        callee: Callee::Indirect(p),
                        args,
                    } => {
                        let args = args.iter().map(|a| node(*a)).collect();
                        self.calls.push(IndirectCall {
                            site: iref,
                            res: n,
                            args,
                            targets: Vec::new(),
                        });
                        if let Some(c) = node(*p) {
                            self.defer(c, Deferred::Call(self.calls.len() as u32 - 1));
                        }
                    }
                    Inst::ThreadCreate { func, arg } if m.func(*func).is_internal => {
                        let (a, p) = (node(*arg), layout.operand(*func, Operand::Param(0)));
                        if let (Some(a), Some(p)) = (a, p) {
                            self.edge(a, p);
                        }
                    }
                    Inst::Ret(Some(v)) => {
                        if let Some(src) = node(*v) {
                            self.edge(src, layout.ret(fid));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Argument → parameter and return → result edges of a call from
    /// result node `res` to `target`, when `target` is internal and
    /// takes `args.len()` arguments; whether it does.
    fn wire(&mut self, args: &[Option<u32>], res: u32, target: FuncId) -> bool {
        let callee = self.m.func(target);
        if !callee.is_internal || callee.num_params as usize != args.len() {
            return false;
        }
        for (k, arg) in args.iter().enumerate() {
            let p = self.layout.operand(target, Operand::Param(k as u32));
            if let (Some(a), Some(p)) = (*arg, p) {
                self.edge(a, p);
            }
        }
        self.edge(self.layout.ret(target), res);
        true
    }

    /// Instantiates deferred constraint `c` for location `l`, which its
    /// pointer node just gained.
    fn instantiate(&mut self, c: Deferred, l: u32) {
        let cell = self.layout.cells + l;
        match c {
            Deferred::LoadInto(dst) => self.edge(cell, dst),
            Deferred::StoreFrom(src) => self.edge(src, cell),
            Deferred::Call(k) => {
                let AbsLoc::Func(t) = self.layout.locs[l as usize] else {
                    return;
                };
                let call = &mut self.calls[k as usize];
                let (args, res) = (std::mem::take(&mut call.args), call.res);
                if self.wire(&args, res, t) {
                    let targets = &mut self.calls[k as usize].targets;
                    targets.insert(targets.binary_search(&t).unwrap_or_else(|i| i), t);
                }
                self.calls[k as usize].args = args;
            }
        }
    }

    /// Worklist solve to the least fixpoint; returns the visit count.
    /// Every node that generation gave a set is already queued.
    fn solve(&mut self) -> u64 {
        let mut iterations = 0;
        let mut gained = Vec::new();
        while let Some(n) = self.work.pop() {
            let i = n as usize;
            self.queued[i] = false;
            iterations += 1;
            let (now, before) = (self.set[i], self.done[i]);
            self.done[i] = now;
            // Copy edges carry the whole set; no edge is added here, so
            // the successor list can be borrowed out and put back.
            let succs = std::mem::take(&mut self.succs[i]);
            for &d in &succs {
                self.flow(now, d);
            }
            self.succs[i] = succs;
            if self.first[i] == NONE {
                continue;
            }
            let old = self.table.get(before);
            gained.clear();
            let new = self.table.get(now).iter().copied();
            gained.extend(new.filter(|l| old.binary_search(l).is_err()));
            let mut k = self.first[i];
            while k != NONE {
                let (c, next) = self.deferred[k as usize];
                for &l in &gained {
                    self.instantiate(c, l);
                }
                k = next;
            }
        }
        iterations
    }
}

/// The solved points-to relation over one module.
#[derive(Debug)]
pub struct PointsTo {
    layout: Layout,
    /// Each node's points-to set, as an index into `sets`.
    set_ids: Vec<u32>,
    /// The distinct sets some node holds, one copy each; set 0 is
    /// empty. Most nodes share a set (every `gep` has its base's), and
    /// a pipeline run holds the solution from the elision pre-pass to
    /// stage 4.
    sets: Vec<BTreeSet<AbsLoc>>,
    /// The same sets as sorted location ids, for the elision pre-pass.
    loc_ids: Vec<Box<[u32]>>,
    /// Resolved targets per indirect call site, in site order
    /// (arity-checked, deterministic order).
    indirect: Vec<(InstRef, Vec<FuncId>)>,
    stats: PointsToStats,
}

impl PointsTo {
    /// Builds and solves the points-to constraints of `m`, which must
    /// pass [`crate::verify_module`].
    pub fn new(m: &Module) -> Self {
        let layout = Layout::new(m);
        let mut s = Solver::new(m, &layout);
        s.generate();
        let iterations = s.solve();
        let stats = PointsToStats {
            nodes: s.set.len(),
            constraints: s.constraints,
            iterations,
        };
        // Only the distinct sets some node holds become answers.
        let mut answer = vec![NONE; s.table.sets.len()];
        answer[EMPTY as usize] = 0;
        let (mut sets, mut loc_ids) = (vec![BTreeSet::new()], vec![Box::<[u32]>::default()]);
        let set_ids = s
            .set
            .iter()
            .map(|&id| {
                if answer[id as usize] == NONE {
                    answer[id as usize] = sets.len() as u32;
                    let locs = s.table.get(id);
                    sets.push(locs.iter().map(|&l| layout.locs[l as usize]).collect());
                    loc_ids.push(locs.into());
                }
                answer[id as usize]
            })
            .collect();
        let indirect = s.calls.into_iter().map(|c| (c.site, c.targets)).collect();
        PointsTo {
            layout,
            set_ids,
            sets,
            loc_ids,
            indirect,
            stats,
        }
    }

    fn answer(&self, node: Option<u32>) -> usize {
        node.map_or(0, |n| self.set_ids[n as usize] as usize)
    }

    /// Points-to set of an instruction's SSA result (empty when the
    /// result is not a pointer the analysis tracked).
    pub fn pts_inst(&self, r: InstRef) -> &BTreeSet<AbsLoc> {
        self.pts_operand(r.func, Operand::Value(r.inst))
    }

    /// Points-to set of an operand evaluated in function `f`.
    pub fn pts_operand(&self, f: FuncId, op: Operand) -> &BTreeSet<AbsLoc> {
        &self.sets[self.answer(self.layout.operand(f, op))]
    }

    /// What the (single) cell of an abstract location may hold.
    pub fn cell(&self, l: AbsLoc) -> &BTreeSet<AbsLoc> {
        let node = self.layout.loc_id(l).map(|id| self.layout.cells + id);
        &self.sets[self.answer(node)]
    }

    /// Every abstract location of the module, in order: a location's
    /// index here is the id [`Self::operand_locs`] and
    /// [`Self::cell_locs`] answer in.
    pub(crate) fn locations(&self) -> &[AbsLoc] {
        &self.layout.locs
    }

    /// [`Self::pts_operand`] as sorted location ids.
    pub(crate) fn operand_locs(&self, f: FuncId, op: Operand) -> &[u32] {
        &self.loc_ids[self.answer(self.layout.operand(f, op))]
    }

    /// [`Self::cell`] of the location with id `loc`, as sorted location
    /// ids.
    pub(crate) fn cell_locs(&self, loc: u32) -> &[u32] {
        &self.loc_ids[self.answer(Some(self.layout.cells + loc))]
    }

    /// May the two pointer operands refer to the same object?
    ///
    /// Conservative: returns `true` when either set is empty, because
    /// an empty set means the analysis could not track the value (it
    /// was synthesized from input or arithmetic), not that it points
    /// nowhere.
    pub fn may_alias(&self, fa: FuncId, a: Operand, fb: FuncId, b: Operand) -> bool {
        let sa = self.pts_operand(fa, a);
        let sb = self.pts_operand(fb, b);
        if sa.is_empty() || sb.is_empty() {
            return true;
        }
        sa.iter().any(|l| sb.contains(l))
    }

    /// Resolved targets of an indirect call site: internal functions of
    /// matching arity whose address flows into the callee operand.
    /// `None` when `site` is not an indirect call; an empty slice when
    /// nothing flowed in (callers should fall back to an arity match).
    pub fn resolve_targets(&self, site: InstRef) -> Option<&[FuncId]> {
        let k = self
            .indirect
            .binary_search_by_key(&site, |(s, _)| *s)
            .ok()?;
        Some(&self.indirect[k].1)
    }

    /// All indirect call sites seen, with their resolved targets.
    pub fn indirect_sites(&self) -> impl Iterator<Item = (InstRef, &[FuncId])> + '_ {
        self.indirect.iter().map(|(r, v)| (*r, v.as_slice()))
    }

    /// Solver statistics.
    pub fn stats(&self) -> PointsToStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;

    #[test]
    fn globals_and_geps_alias_their_base() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 4, Type::I64);
        let h = mb.global("h", 4, Type::I64);
        let f = mb.declare_func("f", 0);
        let (ga, gp, ha);
        {
            let mut b = mb.build_func(f);
            ga = b.global_addr(g);
            gp = b.gep(ga, 2);
            ha = b.global_addr(h);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        let gref = InstRef::new(f, ga);
        let gpref = InstRef::new(f, gp);
        assert_eq!(
            pts.pts_inst(gref).iter().collect::<Vec<_>>(),
            vec![&AbsLoc::Global(g)]
        );
        // Field-insensitive: the gep aliases its base.
        assert!(pts.may_alias(f, ga.into(), f, gp.into()));
        assert_eq!(pts.pts_inst(gpref), pts.pts_inst(gref));
        // Distinct globals do not alias.
        assert!(!pts.may_alias(f, ga.into(), f, ha.into()));
    }

    #[test]
    fn store_load_through_global_cell() {
        // p = malloc; store gcell, p; q = load gcell  =>  q aliases p.
        let mut mb = ModuleBuilder::new("t");
        let cell = mb.global("cell", 1, Type::Ptr);
        let f = mb.declare_func("f", 0);
        let (p, q);
        {
            let mut b = mb.build_func(f);
            p = b.malloc(4);
            let ca = b.global_addr(cell);
            b.store(ca, p);
            q = b.load(ca, Type::Ptr);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        let heap = AbsLoc::Heap(InstRef::new(f, p));
        assert!(pts.pts_inst(InstRef::new(f, q)).contains(&heap));
        assert!(pts.may_alias(f, p.into(), f, q.into()));
        assert!(pts.cell(AbsLoc::Global(cell)).contains(&heap));
    }

    #[test]
    fn phi_cycles_terminate_and_merge() {
        // A loop whose phi merges an alloca with a gep over itself:
        // the classic copy cycle the worklist must terminate on.
        let mut mb = ModuleBuilder::new("t");
        let f = mb.declare_func("f", 0);
        let (a, phi);
        {
            let mut b = mb.build_func(f);
            a = b.alloca(8);
            let head = b.block();
            let body = b.block();
            let exit = b.block();
            b.jmp(head);
            b.switch_to(head);
            phi = b.phi(vec![]);
            let go = b.load(a, Type::I64);
            b.br(go, body, exit);
            b.switch_to(body);
            let step = b.gep(phi, 1);
            b.jmp(head);
            b.switch_to(exit);
            b.ret(None);
            b.set_phi(
                phi,
                vec![
                    (crate::BlockId(0), a.into()),
                    (crate::BlockId(2), step.into()),
                ],
            );
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        let obj = AbsLoc::Alloca(InstRef::new(f, a));
        assert!(pts.pts_inst(InstRef::new(f, phi)).contains(&obj));
        assert!(pts.stats().iterations > 0);
    }

    #[test]
    fn address_taken_functions_resolve_indirect_calls() {
        let mut mb = ModuleBuilder::new("t");
        let cb = mb.declare_func("cb", 1);
        let other = mb.declare_func("other", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(cb);
            b.ret(Some(Operand::Param(0)));
        }
        {
            let mut b = mb.build_func(other);
            b.ret(Some(Operand::Param(0)));
        }
        let site;
        {
            let mut b = mb.build_func(main);
            let fp = b.func_addr(cb);
            // `other` is address-taken too, but its address never
            // flows into this call.
            let _unused = b.func_addr(other);
            site = b.call_indirect(fp, vec![Operand::Const(1)]);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        let sref = InstRef::new(main, site);
        // Points-to narrows the arity fallback {cb, other} to {cb}.
        assert_eq!(pts.resolve_targets(sref), Some(&[cb][..]));
    }

    #[test]
    fn function_pointer_through_memory_resolves() {
        // store table, &cb; fp = load table; fp() — the relay shape.
        let mut mb = ModuleBuilder::new("t");
        let table = mb.global("table", 1, Type::FuncPtr);
        let cb = mb.declare_func("cb", 0);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(cb);
            b.ret(None);
        }
        let site;
        {
            let mut b = mb.build_func(main);
            let fa = b.func_addr(cb);
            let ta = b.global_addr(table);
            b.store(ta, fa);
            let fp = b.load(ta, Type::FuncPtr);
            site = b.call_indirect(fp, vec![]);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        assert_eq!(
            pts.resolve_targets(InstRef::new(main, site)),
            Some(&[cb][..])
        );
    }

    #[test]
    fn global_initializers_do_not_invent_pointers() {
        // Integer initializers are data, not addresses: the cell of an
        // initialized global starts empty, and a pointer loaded from it
        // has an empty (conservatively aliasing) set.
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global_init("g", 2, vec![0x1000, 0x2000], Type::I64);
        let h = mb.global("h", 1, Type::I64);
        let f = mb.declare_func("f", 0);
        let (ld, ha);
        {
            let mut b = mb.build_func(f);
            let ga = b.global_addr(g);
            ld = b.load(ga, Type::I64);
            ha = b.global_addr(h);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        assert!(pts.cell(AbsLoc::Global(g)).is_empty());
        assert!(pts.pts_inst(InstRef::new(f, ld)).is_empty());
        // Empty sets alias everything (conservative).
        assert!(pts.may_alias(f, ld.into(), f, ha.into()));
    }

    #[test]
    fn params_and_returns_flow_interprocedurally() {
        // id(p) { return p; } main: a = alloca; r = id(a)
        let mut mb = ModuleBuilder::new("t");
        let id = mb.declare_func("id", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(id);
            b.ret(Some(Operand::Param(0)));
        }
        let (a, r);
        {
            let mut b = mb.build_func(main);
            a = b.alloca(1);
            r = b.call(id, vec![a.into()]);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        let obj = AbsLoc::Alloca(InstRef::new(main, a));
        assert!(pts.pts_inst(InstRef::new(main, r)).contains(&obj));
        assert!(pts.pts_operand(id, Operand::Param(0)).contains(&obj));
    }

    #[test]
    fn thread_entry_argument_flows() {
        let mut mb = ModuleBuilder::new("t");
        let worker = mb.declare_func("worker", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(worker);
            b.ret(None);
        }
        let buf;
        {
            let mut b = mb.build_func(main);
            buf = b.malloc(16);
            let t = b.thread_create(worker, buf);
            b.thread_join(t);
            b.ret(None);
        }
        let m = mb.finish();
        let pts = PointsTo::new(&m);
        assert!(pts
            .pts_operand(worker, Operand::Param(0))
            .contains(&AbsLoc::Heap(InstRef::new(main, buf))));
    }
}
