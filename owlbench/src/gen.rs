//! Seeded generator of the dense detection programs.
//!
//! Each program is a `main` that optionally runs a single-threaded
//! startup (filling a table), then creates `threads` worker threads and
//! joins them. Every worker is straight-line code over three kinds of
//! access:
//!
//! * **private** (~70%): a global only that worker touches;
//! * **locked** (~27%): one of four shared globals, always under its
//!   own mutex;
//! * **racy** (~3%): unlocked accesses to shared globals named
//!   [`RACY_PREFIX`]`*`.
//!
//! Private and locked globals can never race, so a sound detector
//! reports races on racy globals only — the ground truth the benchmark
//! checks every report against. The generator uses its own SplitMix64
//! so it needs no dependency, and its output depends only on
//! `(seed, index, shape)`.

use owl::owl_ir::{FuncId, InstId, Module, ModuleBuilder, Type};

/// Name prefix of the globals touched by unlocked shared accesses: the
/// only globals a race report may name.
pub const RACY_PREFIX: &str = "racy";

const LOCKS: usize = 4;
const RACY_GLOBALS: usize = 2;
const PRIVATE_CELLS: u64 = 64;
const SHARED_CELLS: u64 = 16;
const RACY_CELLS: u64 = 4;
const TABLE_CELLS: u64 = 256;

/// SplitMix64 (Steele, Lea and Flood): one 64-bit state word, full
/// period, well mixed enough for input generation.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Mixes a stream identifier into a seed, so independent streams drawn
/// from one `--seed` do not overlap.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// The size distribution of a family of generated programs. Sizes are
/// stratified, not drawn: program `index` cycles through fixed levels
/// of each range, so every run of a workload sees the same mix of
/// sizes and the seed decides only the access streams.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Worker threads, inclusive range: program `index` gets
    /// `lo + (index / 2) % (hi - lo + 1)`.
    pub threads: (u64, u64),
    /// Accesses per worker, inclusive range, in five levels.
    pub ops: (u64, u64),
    /// Startup accesses, inclusive range, in five levels.
    pub startup: (u64, u64),
    /// Give odd-indexed programs a startup and even-indexed ones none,
    /// instead of giving every program one.
    pub startup_on_odd_only: bool,
}

/// Level `k mod 5` of five evenly spaced values from `lo` to `hi`.
fn level((lo, hi): (u64, u64), k: u64) -> u64 {
    lo + (k % 5) * (hi - lo) / 4
}

/// One generated program.
#[derive(Clone, Debug)]
pub struct Generated {
    /// The program.
    pub module: Module,
    /// Its `main`.
    pub entry: FuncId,
}

/// Generates program `index` of the family `shape` under `seed`: its
/// size from `index`, its access streams from `seed` and `index`.
pub fn dense_program(seed: u64, index: u64, shape: &Shape) -> Generated {
    let mut rng = SplitMix64::new(derive_seed(seed, index));
    let (tlo, thi) = shape.threads;
    let threads = tlo + (index / 2) % (thi - tlo + 1);
    let startup = if shape.startup_on_odd_only && index.is_multiple_of(2) {
        0
    } else {
        level(shape.startup, index / 2)
    };

    let mut mb = ModuleBuilder::new(format!("dense-{seed}-{index}"));
    let table = mb.global("table", TABLE_CELLS as u32, Type::I64);
    let private: Vec<_> = (0..threads)
        .map(|t| mb.global(format!("private{t}"), PRIVATE_CELLS as u32, Type::I64))
        .collect();
    let shared: Vec<_> = (0..LOCKS)
        .map(|k| mb.global(format!("shared{k}"), SHARED_CELLS as u32, Type::I64))
        .collect();
    let mutexes: Vec<_> = (0..LOCKS)
        .map(|k| mb.global(format!("mutex{k}"), 1, Type::I64))
        .collect();
    let racy: Vec<_> = (0..RACY_GLOBALS)
        .map(|k| mb.global(format!("{RACY_PREFIX}{k}"), RACY_CELLS as u32, Type::I64))
        .collect();

    let workers: Vec<FuncId> = (0..threads)
        .map(|t| mb.declare_func(format!("worker{t}"), 1))
        .collect();
    for (t, &f) in workers.iter().enumerate() {
        let ops = level(shape.ops, index / 2 + t as u64);
        let mut b = mb.build_func(f);
        let own = b.global_addr(private[t]);
        let shared_at: Vec<InstId> = shared.iter().map(|&g| b.global_addr(g)).collect();
        let mutex_at: Vec<InstId> = mutexes.iter().map(|&g| b.global_addr(g)).collect();
        let racy_at: Vec<InstId> = racy.iter().map(|&g| b.global_addr(g)).collect();
        for _ in 0..ops {
            let roll = rng.next_u64() % 100;
            let (base, cells, lock) = if roll < 70 {
                (own, PRIVATE_CELLS, None)
            } else if roll < 97 {
                let k = (rng.next_u64() % LOCKS as u64) as usize;
                (shared_at[k], SHARED_CELLS, Some(mutex_at[k]))
            } else {
                let k = (rng.next_u64() % RACY_GLOBALS as u64) as usize;
                (racy_at[k], RACY_CELLS, None)
            };
            if let Some(m) = lock {
                b.lock(m);
            }
            let slot = b.gep(base, (rng.next_u64() % cells) as i64);
            if rng.next_u64().is_multiple_of(2) {
                b.load(slot, Type::I64);
            } else {
                b.store(slot, (rng.next_u64() % 1000) as i64);
            }
            if let Some(m) = lock {
                b.unlock(m);
            }
        }
        b.ret(None);
    }

    let main = mb.declare_func("main", 0);
    {
        let mut b = mb.build_func(main);
        let table_at = b.global_addr(table);
        for k in 0..startup {
            let slot = b.gep(table_at, (k % TABLE_CELLS) as i64);
            if k % 4 == 3 {
                b.load(slot, Type::I64);
            } else {
                b.store(slot, (rng.next_u64() % 1000) as i64);
            }
        }
        let tids: Vec<InstId> = workers
            .iter()
            .enumerate()
            .map(|(t, &f)| b.thread_create(f, t as i64))
            .collect();
        for tid in tids {
            b.thread_join(tid);
        }
        b.ret(None);
    }
    Generated {
        module: mb.finish(),
        entry: main,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl::owl_ir::{module_to_string, verify_module};
    use owl::owl_race::{explore, ExplorerConfig};
    use owl::owl_vm::ProgramInput;

    const SMALL: Shape = Shape {
        threads: (2, 4),
        ops: (40, 120),
        startup: (10, 50),
        startup_on_odd_only: true,
    };

    #[test]
    fn same_seed_gives_identical_programs() {
        for index in 0..4 {
            let a = dense_program(7, index, &SMALL);
            let b = dense_program(7, index, &SMALL);
            assert_eq!(module_to_string(&a.module), module_to_string(&b.module));
        }
    }

    #[test]
    fn different_seeds_and_indexes_differ() {
        let base = module_to_string(&dense_program(7, 0, &SMALL).module);
        assert_ne!(base, module_to_string(&dense_program(8, 0, &SMALL).module));
        assert_ne!(base, module_to_string(&dense_program(7, 2, &SMALL).module));
    }

    #[test]
    fn every_program_verifies() {
        let wide = Shape {
            threads: (1, 8),
            ops: (1, 300),
            startup: (0, 400),
            startup_on_odd_only: false,
        };
        for seed in 0..3 {
            for index in 0..12 {
                for shape in [&SMALL, &wide] {
                    let g = dense_program(seed, index, shape);
                    verify_module(&g.module)
                        .unwrap_or_else(|e| panic!("seed {seed} index {index}: {e:?}"));
                }
            }
        }
    }

    #[test]
    fn thread_counts_and_startups_are_stratified() {
        let threads = |index| {
            let g = dense_program(3, index, &SMALL);
            g.module
                .funcs
                .iter()
                .filter(|f| f.name.starts_with("worker"))
                .count()
        };
        assert_eq!((0..6).map(threads).collect::<Vec<_>>(), [2, 2, 3, 3, 4, 4]);
        // main = table address + startup (gep + access each) + create
        // and join per worker + ret.
        let main_len = |index| {
            let g = dense_program(3, index, &SMALL);
            g.module.func(g.entry).insts.len()
        };
        assert_eq!(main_len(0), 1 + 2 * 2 + 1, "even programs have no startup");
        assert!(main_len(1) > 1 + 2 * 10 + 2 * 2, "odd programs start up");
    }

    #[test]
    fn only_racy_globals_are_reported() {
        let mut raced = 0;
        for index in 0..4 {
            let g = dense_program(11, index, &SMALL);
            let r = explore(
                &g.module,
                g.entry,
                &[ProgramInput::empty()],
                &ExplorerConfig::default(),
            );
            for rep in &r.reports {
                let name = rep.global_name.as_deref().unwrap_or("");
                assert!(name.starts_with(RACY_PREFIX), "race on `{name}`");
            }
            raced += r.reports.len();
        }
        assert!(raced > 0, "the racy accesses must surface somewhere");
    }
}
