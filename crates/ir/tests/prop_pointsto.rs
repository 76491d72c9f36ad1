//! Reference property for the points-to solver: on random verified
//! modules, `PointsTo` must answer exactly what a naive fixpoint
//! answers, one that re-runs every constraint rule over every
//! instruction until nothing changes.
//!
//! The random modules carry what an incremental solver can get wrong:
//! pointer phis in loops (a set that grows after its node was
//! visited), pointers stored and reloaded through global, heap and
//! alloca cells two levels deep, `MemCopy`, direct calls that pass and
//! return pointers, indirect calls through function pointers loaded
//! from memory, and `ThreadCreate` arguments. Every answer is
//! compared: `pts_inst` on every instruction, `pts_operand` on every
//! parameter, `cell` on every location, and `indirect_sites`.

use owl_ir::analysis::{AbsLoc, PointsTo};
use owl_ir::{
    Callee, FuncId, FunctionBuilder, GlobalId, Inst, InstId, InstRef, Module, ModuleBuilder,
    Operand, Type,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// SplitMix64: the module generator's own stream, drawn from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What a function body may refer to.
struct Scope<'a> {
    globals: &'a [GlobalId],
    /// Internal functions other than `main`, with their arity.
    funcs: &'a [(FuncId, u32)],
    ext: FuncId,
}

/// A value of the pool, or (one time in eight, or from an empty pool)
/// a constant, which carries no pointer.
fn pick(rng: &mut Rng, pool: &[Operand]) -> Operand {
    if pool.is_empty() || rng.below(8) == 0 {
        Operand::Const(0)
    } else {
        pool[rng.below(pool.len())]
    }
}

/// A fresh object of a random kind: a global, a heap or a stack cell.
fn object(b: &mut FunctionBuilder<'_>, rng: &mut Rng, s: &Scope<'_>) -> InstId {
    match rng.below(3) {
        0 => b.global_addr(s.globals[rng.below(s.globals.len())]),
        1 => b.malloc(2),
        _ => b.alloca(2),
    }
}

/// Emits 4–13 random operations at the insertion point, adding the
/// pointers they produce to `pool`. Loops nest `depth` deep.
fn body(
    b: &mut FunctionBuilder<'_>,
    rng: &mut Rng,
    pool: &mut Vec<Operand>,
    s: &Scope<'_>,
    depth: u32,
) {
    for _ in 0..4 + rng.below(10) {
        match rng.below(16) {
            0 | 1 => {
                let o = object(b, rng, s);
                pool.push(o.into());
            }
            2 => {
                let p = pick(rng, pool);
                let g = b.gep(p, rng.below(3) as i64);
                pool.push(g.into());
            }
            3 | 4 => {
                let (a, v) = (pick(rng, pool), pick(rng, pool));
                b.store(a, v);
            }
            5 | 6 => {
                let a = pick(rng, pool);
                let v = b.load(a, Type::Ptr);
                pool.push(v.into());
            }
            7 => {
                // Two levels: an object stored into a cell, reloaded,
                // written through, and its own cell reloaded.
                let outer = object(b, rng, s);
                let inner = object(b, rng, s);
                b.store(outer, inner);
                let back = b.load(outer, Type::Ptr);
                let v = pick(rng, pool);
                b.store(back, v);
                let deep = b.load(back, Type::Ptr);
                pool.push(deep.into());
            }
            8 => {
                let (d, src) = (pick(rng, pool), pick(rng, pool));
                b.memcopy(d, src, 1);
            }
            9 => {
                let (f, params) = s.funcs[rng.below(s.funcs.len())];
                let args = (0..params).map(|_| pick(rng, pool)).collect();
                let r = b.call(f, args);
                pool.push(r.into());
            }
            10 => {
                // A function pointer parked in memory, for the indirect
                // calls to load.
                let f = b.func_addr(s.funcs[rng.below(s.funcs.len())].0);
                let cell = pick(rng, pool);
                b.store(cell, f);
                pool.push(f.into());
            }
            11 => {
                let cell = pick(rng, pool);
                let fp = b.load(cell, Type::FuncPtr);
                let args = (0..1 + rng.below(2)).map(|_| pick(rng, pool)).collect();
                let r = b.call_indirect(fp, args);
                pool.push(r.into());
            }
            12 => {
                let workers: Vec<FuncId> =
                    s.funcs.iter().filter(|f| f.1 == 1).map(|f| f.0).collect();
                let arg = pick(rng, pool);
                if workers.is_empty() {
                    b.call(s.ext, vec![arg]);
                } else {
                    b.thread_create(workers[rng.below(workers.len())], arg);
                }
            }
            13 => {
                let (a, v) = (pick(rng, pool), pick(rng, pool));
                b.atomic_store(a, v);
                let l = b.atomic_load(a);
                pool.push(l.into());
            }
            _ if depth > 0 => {
                // A loop whose phi merges a value from before the loop
                // with one computed in its body.
                let init = pick(rng, pool);
                let pre = b.current_block();
                let (head, body_bb, exit) = (b.block(), b.block(), b.block());
                b.jmp(head);
                b.switch_to(head);
                let phi = b.phi(vec![]);
                let go = b.input(0);
                b.br(go, body_bb, exit);
                b.switch_to(body_bb);
                let outer = pool.len();
                pool.push(phi.into());
                body(b, rng, pool, s, depth - 1);
                let next = if rng.below(2) == 0 {
                    b.gep(phi, 1).into()
                } else {
                    pick(rng, pool)
                };
                let latch = b.current_block();
                b.jmp(head);
                b.set_phi(phi, vec![(pre, init), (latch, next)]);
                b.switch_to(exit);
                pool.truncate(outer);
                pool.push(phi.into());
            }
            _ => {}
        }
    }
}

/// A random verified module: `main` and 3–5 functions of one or two
/// parameters over four pointer-sized globals and one external
/// function.
fn random_module(seed: u64) -> Module {
    let mut rng = Rng(seed);
    let mut mb = ModuleBuilder::new(format!("pts-{seed}"));
    let globals: Vec<GlobalId> = (0..4)
        .map(|k| mb.global(format!("g{k}"), 4, Type::Ptr))
        .collect();
    let ext = mb.declare_external("ext", 1);
    let funcs: Vec<(FuncId, u32)> = (0..3 + rng.below(3))
        .map(|k| {
            let params = 1 + rng.below(2) as u32;
            (mb.declare_func(format!("f{k}"), params), params)
        })
        .collect();
    let main = mb.declare_func("main", 0);
    let scope = Scope {
        globals: &globals,
        funcs: &funcs,
        ext,
    };
    for &(f, params) in funcs.iter().chain(&[(main, 0)]) {
        let mut b = mb.build_func(f);
        let mut pool: Vec<Operand> = (0..params).map(Operand::Param).collect();
        body(&mut b, &mut rng, &mut pool, &scope, 2);
        let ret = pick(&mut rng, &pool);
        b.ret(Some(ret));
    }
    let m = mb.finish();
    owl_ir::assert_verified(&m);
    m
}

/// A variable of the reference constraint system.
#[derive(Clone, Copy)]
enum Var {
    Inst(InstRef),
    Param(FuncId, u32),
    Ret(FuncId),
    Cell(AbsLoc),
}

/// The naive solution: every rule re-applied to every instruction
/// until one whole pass changes nothing.
#[derive(Default)]
struct Reference {
    inst: BTreeMap<InstRef, BTreeSet<AbsLoc>>,
    param: BTreeMap<(FuncId, u32), BTreeSet<AbsLoc>>,
    ret: BTreeMap<FuncId, BTreeSet<AbsLoc>>,
    cell: BTreeMap<AbsLoc, BTreeSet<AbsLoc>>,
    indirect: BTreeMap<InstRef, BTreeSet<FuncId>>,
}

impl Reference {
    fn get(&self, v: Var) -> BTreeSet<AbsLoc> {
        let set = match v {
            Var::Inst(r) => self.inst.get(&r),
            Var::Param(f, p) => self.param.get(&(f, p)),
            Var::Ret(f) => self.ret.get(&f),
            Var::Cell(l) => self.cell.get(&l),
        };
        set.cloned().unwrap_or_default()
    }

    /// Adds `locs` to `v`'s set; whether it grew.
    fn add(&mut self, v: Var, locs: BTreeSet<AbsLoc>) -> bool {
        let set = match v {
            Var::Inst(r) => self.inst.entry(r).or_default(),
            Var::Param(f, p) => self.param.entry((f, p)).or_default(),
            Var::Ret(f) => self.ret.entry(f).or_default(),
            Var::Cell(l) => self.cell.entry(l).or_default(),
        };
        let before = set.len();
        set.extend(locs);
        set.len() != before
    }

    fn val(&self, f: FuncId, op: Operand) -> BTreeSet<AbsLoc> {
        match op {
            Operand::Value(v) => self.get(Var::Inst(InstRef::new(f, v))),
            Operand::Param(p) => self.get(Var::Param(f, p)),
            Operand::Const(_) => BTreeSet::new(),
        }
    }

    /// Arguments into `target`'s parameters and its return value into
    /// `site`, when `target` is internal and takes `args.len()`.
    fn call(
        &mut self,
        m: &Module,
        f: FuncId,
        site: InstRef,
        target: FuncId,
        args: &[Operand],
    ) -> bool {
        let callee = m.func(target);
        if !callee.is_internal || callee.num_params as usize != args.len() {
            return false;
        }
        let mut changed = false;
        for (k, &a) in args.iter().enumerate() {
            changed |= self.add(Var::Param(target, k as u32), self.val(f, a));
        }
        changed | self.add(Var::Inst(site), self.get(Var::Ret(target)))
    }

    fn apply(&mut self, m: &Module, f: FuncId, r: InstRef, inst: &Inst) -> bool {
        let me = Var::Inst(r);
        let one = |l: AbsLoc| BTreeSet::from([l]);
        match inst {
            Inst::GlobalAddr(g) => self.add(me, one(AbsLoc::Global(*g))),
            Inst::FuncAddr(t) => self.add(me, one(AbsLoc::Func(*t))),
            Inst::Alloca { .. } => self.add(me, one(AbsLoc::Alloca(r))),
            Inst::Malloc { .. } => self.add(me, one(AbsLoc::Heap(r))),
            Inst::Gep { base, .. } => self.add(me, self.val(f, *base)),
            Inst::Phi { incoming } => incoming
                .iter()
                .fold(false, |c, (_, v)| self.add(me, self.val(f, *v)) | c),
            Inst::Load { addr, .. } | Inst::AtomicLoad { addr } => self
                .val(f, *addr)
                .into_iter()
                .fold(false, |c, l| self.add(me, self.get(Var::Cell(l))) | c),
            Inst::Store { addr, val } | Inst::AtomicStore { addr, val } => {
                let v = self.val(f, *val);
                self.val(f, *addr)
                    .into_iter()
                    .fold(false, |c, l| self.add(Var::Cell(l), v.clone()) | c)
            }
            Inst::MemCopy { dst, src, .. } => {
                let mut changed = false;
                for l in self.val(f, *src) {
                    changed |= self.add(me, self.get(Var::Cell(l)));
                }
                let tmp = self.get(me);
                for l in self.val(f, *dst) {
                    changed |= self.add(Var::Cell(l), tmp.clone());
                }
                changed
            }
            Inst::Call {
                callee: Callee::Direct(t),
                args,
            } => self.call(m, f, r, *t, args),
            Inst::Call {
                callee: Callee::Indirect(p),
                args,
            } => {
                self.indirect.entry(r).or_default();
                let mut changed = false;
                for l in self.val(f, *p) {
                    if let AbsLoc::Func(t) = l {
                        let callee = m.func(t);
                        if callee.is_internal && callee.num_params as usize == args.len() {
                            changed |= self.indirect.entry(r).or_default().insert(t);
                        }
                        changed |= self.call(m, f, r, t, args);
                    }
                }
                changed
            }
            Inst::ThreadCreate { func, arg } if m.func(*func).is_internal => {
                self.add(Var::Param(*func, 0), self.val(f, *arg))
            }
            Inst::Ret(Some(v)) => self.add(Var::Ret(f), self.val(f, *v)),
            _ => false,
        }
    }

    fn solve(m: &Module) -> Self {
        let mut reference = Reference::default();
        loop {
            let mut changed = false;
            for (fi, func) in m.funcs.iter().enumerate() {
                if !func.is_internal {
                    continue;
                }
                let f = FuncId::from_index(fi);
                for (i, inst) in func.insts.iter().enumerate() {
                    let r = InstRef::new(f, InstId::from_index(i));
                    changed |= reference.apply(m, f, r, inst);
                }
            }
            if !changed {
                return reference;
            }
        }
    }
}

/// Every abstract location the module can name.
fn all_locations(m: &Module) -> Vec<AbsLoc> {
    let mut locs: Vec<AbsLoc> = (0..m.globals.len())
        .map(|g| AbsLoc::Global(GlobalId::from_index(g)))
        .collect();
    for (fi, f) in m.funcs.iter().enumerate() {
        let fid = FuncId::from_index(fi);
        locs.push(AbsLoc::Func(fid));
        for (i, inst) in f.insts.iter().enumerate() {
            let r = InstRef::new(fid, InstId::from_index(i));
            match inst {
                Inst::Alloca { .. } => locs.push(AbsLoc::Alloca(r)),
                Inst::Malloc { .. } => locs.push(AbsLoc::Heap(r)),
                _ => {}
            }
        }
    }
    locs
}

/// The solver's answers against the reference's, every one of them,
/// plus references past the module's ends, which must answer empty.
fn check(m: &Module) {
    let pts = PointsTo::new(m);
    let want = Reference::solve(m);
    let empty = BTreeSet::new();
    for (fi, f) in m.funcs.iter().enumerate() {
        let fid = FuncId::from_index(fi);
        for i in 0..=f.insts.len() {
            let r = InstRef::new(fid, InstId::from_index(i));
            let expected = want.inst.get(&r).unwrap_or(&empty);
            assert_eq!(pts.pts_inst(r), expected, "{}: pts_inst {r}", m.name);
        }
        for p in 0..=f.num_params {
            let expected = want.param.get(&(fid, p)).unwrap_or(&empty);
            let got = pts.pts_operand(fid, Operand::Param(p));
            assert_eq!(got, expected, "{}: {fid} parameter {p}", m.name);
        }
    }
    let beyond = FuncId::from_index(m.funcs.len());
    assert!(pts.pts_inst(InstRef::new(beyond, InstId(0))).is_empty());
    assert!(pts.pts_operand(beyond, Operand::Param(0)).is_empty());
    assert!(pts
        .cell(AbsLoc::Global(GlobalId::from_index(m.globals.len())))
        .is_empty());
    assert!(pts.cell(AbsLoc::Func(beyond)).is_empty());
    for l in all_locations(m) {
        let expected = want.cell.get(&l).unwrap_or(&empty);
        assert_eq!(pts.cell(l), expected, "{}: cell of {l}", m.name);
        // The same instruction under the other allocation kind names
        // no location.
        let other = match l {
            AbsLoc::Alloca(r) => AbsLoc::Heap(r),
            AbsLoc::Heap(r) => AbsLoc::Alloca(r),
            _ => continue,
        };
        assert!(pts.cell(other).is_empty(), "{}: cell of {other}", m.name);
    }
    let got: Vec<(InstRef, Vec<FuncId>)> = pts
        .indirect_sites()
        .map(|(site, targets)| (site, targets.to_vec()))
        .collect();
    let expected: Vec<(InstRef, Vec<FuncId>)> = want
        .indirect
        .iter()
        .map(|(site, targets)| (*site, targets.iter().copied().collect()))
        .collect();
    assert_eq!(got, expected, "{}: indirect sites", m.name);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_matches_the_naive_fixpoint(seed in any::<u64>()) {
        check(&random_module(seed));
    }
}

#[test]
fn corpus_programs_match_the_naive_fixpoint() {
    for entry in &owl_corpus::PROGRAMS {
        check(&entry.build().module);
    }
}
