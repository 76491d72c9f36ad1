//! Pinned output of the check-elision pre-pass and the points-to
//! solution under it.
//!
//! Both analyses are least fixpoints: their results do not depend on
//! the order in which the points-to worklist visits nodes or in which
//! the lockset dataflow evaluates its queries. Any change to either
//! solver's internals (worklist discipline, memoization, data layout)
//! must therefore leave every row below exactly as pinned:
//!
//! * the [`ElisionStats`] of the pre-pass;
//! * an FNV-1a digest of [`ElisionMap::sites`] (site and class, in site
//!   order);
//! * an FNV-1a digest of every points-to set: `pts_inst` per
//!   instruction, `pts_operand` per parameter, `cell` per abstract
//!   location, and the resolved targets of every indirect call site.
//!
//! `PointsToStats::{iterations, constraints}` are deliberately not
//! pinned: they count solver work, which a better worklist reduces.
//!
//! Programs: the 7 corpus and 4 extension programs, plus 24 generated
//! straight-line, lock-heavy programs (private, locked and racy global
//! accesses, lock-taking helpers, escaping and private heap buffers,
//! resolved indirect calls), up to 1000 accesses per worker.

use owl_ir::analysis::{AbsLoc, ElisionMap, ElisionStats, PointsTo};
use owl_ir::{FuncId, GlobalId, Inst, InstId, InstRef, Module, ModuleBuilder, Operand, Type};

/// FNV-1a, 64-bit.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Every abstract location the module can name: globals, `alloca` and
/// `malloc` sites, and functions.
fn all_locations(m: &Module) -> Vec<AbsLoc> {
    let mut locs: Vec<AbsLoc> = (0..m.globals.len())
        .map(|g| AbsLoc::Global(GlobalId::from_index(g)))
        .collect();
    for (fi, f) in m.funcs.iter().enumerate() {
        let fid = FuncId::from_index(fi);
        locs.push(AbsLoc::Func(fid));
        for (i, inst) in f.iter_insts() {
            match inst {
                Inst::Alloca { .. } => locs.push(AbsLoc::Alloca(InstRef::new(fid, i))),
                Inst::Malloc { .. } => locs.push(AbsLoc::Heap(InstRef::new(fid, i))),
                _ => {}
            }
        }
    }
    locs
}

fn points_to_digest(m: &Module, pts: &PointsTo) -> u64 {
    let mut h = Fnv::new();
    for (fi, f) in m.funcs.iter().enumerate() {
        let fid = FuncId::from_index(fi);
        for (i, _) in f.iter_insts() {
            let r = InstRef::new(fid, i);
            h.write(&format!("{r}={:?};", pts.pts_inst(r)));
        }
        for p in 0..f.num_params {
            h.write(&format!(
                "{fid}.p{p}={:?};",
                pts.pts_operand(fid, Operand::Param(p))
            ));
        }
    }
    for l in all_locations(m) {
        h.write(&format!("*{l}={:?};", pts.cell(l)));
    }
    for (site, targets) in pts.indirect_sites() {
        h.write(&format!("{site}->{targets:?};"));
    }
    h.0
}

fn sites_digest(map: &ElisionMap) -> u64 {
    let mut h = Fnv::new();
    for (site, class) in map.sites() {
        h.write(&format!("{site}:{class};"));
    }
    h.0
}

fn row(name: &str, m: &Module, entry: FuncId) -> String {
    let pts = PointsTo::new(m);
    let map = ElisionMap::analyze_with(m, entry, &pts);
    let ElisionStats {
        sites_total,
        sites_elided,
        thread_local,
        read_only,
        lock_dominated,
        locations,
        locations_elidable,
        poisoned,
    } = map.stats();
    format!(
        "{name}: sites={sites_elided}/{sites_total} tl={thread_local} ro={read_only} \
         ld={lock_dominated} locs={locations_elidable}/{locations} poisoned={poisoned} \
         sites={:016x} pts={:016x}",
        sites_digest(&map),
        points_to_digest(m, &pts)
    )
}

/// Recorded before any change to the points-to solver or the lockset
/// dataflow.
const PINNED_CORPUS: &[&str] = &[
    "Apache: sites=11/203 tl=1 ro=2 ld=8 locs=4/57 poisoned=false sites=4377de4538e0299a pts=b1c0e97d09f2333e",
    "Chrome: sites=8/242 tl=0 ro=0 ld=8 locs=2/62 poisoned=false sites=a564c9e390fd36d5 pts=3679f9af62693cf3",
    "Libsafe: sites=6/22 tl=2 ro=0 ld=4 locs=3/6 poisoned=false sites=7d785bfbf05666bd pts=1065287b4f9608af",
    "Linux: sites=8/868 tl=0 ro=0 ld=8 locs=2/225 poisoned=false sites=1c4bfe0f8cfac0c1 pts=060d99d7752979fe",
    "Memcached: sites=12/176 tl=0 ro=0 ld=12 locs=3/44 poisoned=false sites=9d009f2ec893a22d pts=effc811cfa8d35cd",
    "MySQL: sites=8/237 tl=0 ro=0 ld=8 locs=2/66 poisoned=false sites=4ec15794a9ea702d pts=69d6d9af72376920",
    "SSDB: sites=4/33 tl=0 ro=0 ld=4 locs=1/9 poisoned=false sites=ff99de1297e6bdc7 pts=848f06fc10f8069f",
    "Bank: sites=4/23 tl=0 ro=0 ld=4 locs=1/5 poisoned=false sites=bf5dba855599349f pts=b59e630385abc6bc",
    "DoubleFetch: sites=4/22 tl=0 ro=0 ld=4 locs=3/8 poisoned=false sites=bf5dba855599349f pts=967846f401345bde",
    "HeapRelay: sites=6/24 tl=2 ro=0 ld=4 locs=4/9 poisoned=false sites=390af8eb0499e36e pts=70f2a4a94a760b77",
    "CacheRelay: sites=4/23 tl=0 ro=0 ld=4 locs=1/6 poisoned=false sites=bf5dba855599349f pts=812a01dda311d844",
];

#[test]
fn corpus_elision_is_pinned() {
    let mut programs = owl_corpus::all_programs();
    programs.extend([
        owl_corpus::extensions::bank_atomicity(),
        owl_corpus::extensions::kernel_double_fetch(),
        owl_corpus::extensions::heap_relay(),
        owl_corpus::extensions::cache_relay(),
    ]);
    let rows: Vec<String> = programs
        .iter()
        .map(|p| row(p.name, &p.module, p.entry))
        .collect();
    assert_eq!(rows, PINNED_CORPUS);
}

/// SplitMix64: a one-word generator, enough to vary access streams.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const LOCKS: usize = 4;

/// Generated program `index`: `main` (an optional single-threaded
/// startup, then create and join every worker) and 2–7 straight-line
/// workers of 40–1000 accesses each. About 70% of accesses touch the
/// worker's private global, 27% one of four shared globals under its
/// mutex, and 3% a shared global with no lock. Feature switches keyed
/// on `index` add lock-taking helpers, nested locks, a diamond inside a
/// critical section, private and escaping heap buffers, a heap buffer
/// handed to workers as their argument, an indirect call, and reads of
/// a never-written table in place of some locked accesses.
fn generated(index: u64) -> (Module, FuncId) {
    let mut rng = Rng(0x5eed ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let threads = 2 + index % 6;
    let ops = [40, 200, 500, 1000][(index / 6 % 4) as usize];
    let helpers = index % 3 == 1;
    let nested = index % 4 == 1;
    let diamond = index % 8 == 5;
    let heap = index % 4 == 2;
    let heap_arg = index % 5 == 3;
    let indirect = index % 6 == 5;
    let constants = index % 4 == 3;
    let startup = if index % 2 == 1 { 100 + 40 * index } else { 0 };

    let mut mb = ModuleBuilder::new(format!("pinned-{index}"));
    let table = mb.global("table", 64, Type::I64);
    let mailbox = mb.global("mailbox", 1, Type::Ptr);
    let private: Vec<GlobalId> = (0..threads)
        .map(|t| mb.global(format!("private{t}"), 32, Type::I64))
        .collect();
    let shared: Vec<GlobalId> = (0..LOCKS)
        .map(|k| mb.global(format!("shared{k}"), 8, Type::I64))
        .collect();
    let mutexes: Vec<GlobalId> = (0..LOCKS)
        .map(|k| mb.global(format!("mutex{k}"), 1, Type::I64))
        .collect();
    let racy = mb.global("racy", 4, Type::I64);
    let consts = mb.global_init("consts", 4, vec![2, 3, 5, 7], Type::I64);

    // One helper per lock: `helper_k(p)` reads and writes `*p`; every
    // call site holds mutex k.
    let helper: Vec<FuncId> = (0..LOCKS)
        .map(|k| mb.declare_func(format!("helper{k}"), 1))
        .collect();
    for &h in &helper {
        let mut b = mb.build_func(h);
        let v = b.load(Operand::Param(0), Type::I64);
        b.store(Operand::Param(0), Operand::Value(v));
        b.ret(Some(Operand::Param(0)));
    }

    let workers: Vec<FuncId> = (0..threads)
        .map(|t| mb.declare_func(format!("worker{t}"), 1))
        .collect();
    for (t, &f) in workers.iter().enumerate() {
        let mut b = mb.build_func(f);
        let own = b.global_addr(private[t]);
        let shared_at: Vec<InstId> = shared.iter().map(|&g| b.global_addr(g)).collect();
        let mutex_at: Vec<InstId> = mutexes.iter().map(|&g| b.global_addr(g)).collect();
        let racy_at = b.global_addr(racy);
        let consts_at = b.global_addr(consts);
        let buf = heap.then(|| b.malloc(16));
        if let (Some(buf), 0) = (buf, t) {
            // Worker 0 publishes its buffer through a global cell and
            // reads it back: the buffer escapes.
            let mb_at = b.global_addr(mailbox);
            b.store(mb_at, Operand::Value(buf));
            let back = b.load(mb_at, Type::Ptr);
            b.store(back, 1);
        }
        if heap_arg {
            b.store(Operand::Param(0), t as i64);
        }
        if indirect && t == 1 {
            let fp = b.func_addr(helper[0]);
            b.lock(mutex_at[0]);
            let slot = b.gep(shared_at[0], 0);
            b.call_indirect(fp, vec![Operand::Value(slot)]);
            b.unlock(mutex_at[0]);
        }
        for _ in 0..ops {
            let roll = rng.below(100);
            if roll < 70 {
                let base = match buf {
                    Some(buf) if rng.below(4) == 0 => buf,
                    _ => own,
                };
                let slot = b.gep(base, rng.below(16) as i64);
                if rng.below(2) == 0 {
                    b.load(slot, Type::I64);
                } else {
                    b.store(slot, rng.below(1000) as i64);
                }
                continue;
            }
            if roll >= 97 {
                let slot = b.gep(racy_at, rng.below(4) as i64);
                b.store(slot, 7);
                continue;
            }
            if constants && roll >= 90 {
                let slot = b.gep(consts_at, rng.below(4) as i64);
                b.load(slot, Type::I64);
                continue;
            }
            let k = rng.below(LOCKS as u64) as usize;
            b.lock(mutex_at[k]);
            let inner = (nested && k + 1 < LOCKS && rng.below(4) == 0).then_some(k + 1);
            if let Some(j) = inner {
                b.lock(mutex_at[j]);
                let slot = b.gep(shared_at[j], rng.below(8) as i64);
                b.store(slot, 3);
            }
            let slot = b.gep(shared_at[k], rng.below(8) as i64);
            if helpers && rng.below(3) == 0 {
                b.call(helper[k], vec![Operand::Value(slot)]);
            } else if diamond && rng.below(8) == 0 {
                let then_bb = b.block();
                let else_bb = b.block();
                let join = b.block();
                let c = b.input(0);
                b.br(c, then_bb, else_bb);
                b.switch_to(then_bb);
                b.store(slot, 1);
                b.jmp(join);
                b.switch_to(else_bb);
                b.load(slot, Type::I64);
                b.jmp(join);
                b.switch_to(join);
                b.store(slot, 2);
            } else if rng.below(2) == 0 {
                b.load(slot, Type::I64);
            } else {
                b.store(slot, rng.below(1000) as i64);
            }
            if let Some(j) = inner {
                b.unlock(mutex_at[j]);
            }
            b.unlock(mutex_at[k]);
        }
        if let Some(buf) = buf {
            b.free(buf);
        }
        b.ret(None);
    }

    let main = mb.declare_func("main", 0);
    {
        let mut b = mb.build_func(main);
        let table_at = b.global_addr(table);
        for k in 0..startup {
            let slot = b.gep(table_at, (k % 64) as i64);
            if k % 4 == 3 {
                b.load(slot, Type::I64);
            } else {
                b.store(slot, rng.below(1000) as i64);
            }
        }
        let arg: Operand = if heap_arg {
            Operand::Value(b.malloc(8))
        } else {
            Operand::Const(0)
        };
        let tids: Vec<InstId> = workers.iter().map(|&f| b.thread_create(f, arg)).collect();
        for tid in tids {
            b.thread_join(tid);
        }
        b.ret(None);
    }
    (mb.finish(), main)
}

/// Recorded before any change to the points-to solver or the lockset
/// dataflow.
const PINNED_GENERATED: &[&str] = &[
    "gen-0: sites=78/80 tl=56 ro=0 ld=22 locs=6/7 poisoned=false sites=aa8b0f6fc8fb6013 pts=6d4ef3e36e53c691",
    "gen-1: sites=268/271 tl=223 ro=0 ld=45 locs=8/9 poisoned=false sites=152f6955897db8ec pts=d7c9ebbb22ecee73",
    "gen-2: sites=156/163 tl=109 ro=0 ld=47 locs=13/14 poisoned=false sites=3e23c58b49105f04 pts=c19d2a5f15ed2044",
    "gen-3: sites=417/425 tl=354 ro=20 ld=43 locs=11/13 poisoned=false sites=a55f249ebab9d669 pts=ea4d877abbeb7af4",
    "gen-4: sites=220/228 tl=170 ro=0 ld=50 locs=10/11 poisoned=false sites=9ce9f522f3a9a4f9 pts=9db95a7dd3013c6d",
    "gen-5: sites=628/636 tl=479 ro=0 ld=149 locs=12/13 poisoned=false sites=28cadcd171559346 pts=06a82beff26386e1",
    "gen-6: sites=390/403 tl=290 ro=0 ld=100 locs=9/10 poisoned=false sites=d284381d8ffe55bb pts=3d413012be484915",
    "gen-7: sites=936/955 tl=810 ro=41 ld=85 locs=9/10 poisoned=false sites=a307c7096a54e73d pts=2809b4b0ff6b5586",
    "gen-8: sites=766/804 tl=553 ro=0 ld=213 locs=8/10 poisoned=false sites=2fe61d5963ef06dc pts=75ad0643041624d2",
    "gen-9: sites=1489/1514 tl=1173 ro=0 ld=316 locs=10/11 poisoned=false sites=9fe604fdfdde4584 pts=98268a130f50e15a",
    "gen-10: sites=1077/1112 tl=845 ro=0 ld=232 locs=17/18 poisoned=false sites=d8dff79a5982d29c pts=39c7542c3864751f",
    "gen-11: sites=1901/1942 tl=1501 ro=94 ld=306 locs=13/14 poisoned=false sites=82fd6ef18d90545f pts=82f1494bb17bf6f8",
    "gen-12: sites=973/1000 tl=705 ro=0 ld=268 locs=6/7 poisoned=false sites=287b6f117f0d9a6d pts=3ba401aac16e5f42",
    "gen-13: sites=2093/2137 tl=1686 ro=0 ld=407 locs=8/10 poisoned=false sites=31e4471bc928c41e pts=5aceb9dbd8b37b60",
    "gen-14: sites=1945/2003 tl=1406 ro=0 ld=539 locs=13/14 poisoned=false sites=7fae047267a859a7 pts=0ccbd8039ff19334",
    "gen-15: sites=3133/3200 tl=2487 ro=152 ld=494 locs=11/12 poisoned=false sites=972d6fc01cc9b01e pts=7e1d9868c8518014",
    "gen-16: sites=2651/2736 tl=2113 ro=0 ld=538 locs=10/11 poisoned=false sites=2b7d7d8329b5e8e0 pts=f75d7d6e32f3fd71",
    "gen-17: sites=4330/4457 tl=3196 ro=0 ld=1134 locs=12/13 poisoned=false sites=632b9227202c8ce2 pts=f44a4c3c0437b1ce",
    "gen-18: sites=1931/2005 tl=1431 ro=0 ld=500 locs=9/11 poisoned=false sites=17f1ca06a71193a6 pts=e5b91c5d38df39ac",
    "gen-19: sites=3574/3655 tl=2961 ro=203 ld=410 locs=9/10 poisoned=false sites=5d4cf0dec78fc5bb pts=275bb388eac4ab27",
    "gen-20: sites=3855/4000 tl=2782 ro=0 ld=1073 locs=8/9 poisoned=false sites=0eb8c16b6fcab236 pts=d79a5e8431cd00f8",
    "gen-21: sites=6326/6464 tl=4536 ro=0 ld=1790 locs=10/11 poisoned=false sites=0012d4819715971a pts=33a8850d7b638758",
    "gen-22: sites=5300/5482 tl=4207 ro=0 ld=1093 locs=17/18 poisoned=false sites=09fc328549096283 pts=54e337d5abeabf36",
    "gen-23: sites=7795/8029 tl=5868 ro=491 ld=1436 locs=13/15 poisoned=false sites=595ea6a8e7aebd19 pts=280f2a8c121aeb2b",
];

#[test]
fn generated_elision_is_pinned() {
    let rows: Vec<String> = (0..24)
        .map(|index| {
            let (m, entry) = generated(index);
            owl_ir::assert_verified(&m);
            row(&format!("gen-{index}"), &m, entry)
        })
        .collect();
    assert_eq!(rows, PINNED_GENERATED);
}
