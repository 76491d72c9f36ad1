//! The VM's word-addressed memory.
//!
//! Memory is a set of regions (globals, heap allocations, per-thread
//! stacks) over a sparse 64-bit address space. Globals are laid out
//! contiguously — deliberately, because attacks like Apache-25520
//! (paper Figure 7) depend on a buffer overflow corrupting the
//! *adjacent* variable (the log file descriptor next to `buf->outbuf`).
//! Heap allocations are never reused, so use-after-free and double-free
//! are always detectable. Each thread's stack allocations stay inside
//! that thread's [`STACK_SIZE`]-word window.
//!
//! The interpreter touches memory on most steps, so each access costs
//! one lookup: a global's address is an index into a table built with
//! the layout, and [`Memory::load`] / [`Memory::store`] answer from the
//! one region they resolve whether the word is shared, what it held and
//! whether its allocation was freed.

use owl_ir::{GlobalId, Module};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Base address of the global region (everything below is the NULL
/// page).
pub const GLOBAL_BASE: u64 = 0x1000;
/// Base address of heap allocations.
pub const HEAP_BASE: u64 = 0x1000_0000;
/// Base address of per-thread stacks.
pub const STACK_BASE: u64 = 0x2000_0000;
/// Size of one thread stack, in words.
pub const STACK_SIZE: u64 = 0x1_0000;
/// Function-pointer encoding base: `FuncAddr(f)` evaluates to
/// `FUNCPTR_BASE + f`.
pub const FUNCPTR_BASE: u64 = 0x4000_0000;

/// What kind of storage a region is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionKind {
    /// A global variable.
    Global(GlobalId),
    /// A live heap allocation.
    Heap,
    /// A freed heap allocation (kept for use-after-free detection).
    FreedHeap,
    /// A thread-stack allocation (`Alloca`).
    Stack {
        /// Owning thread (raw id).
        tid: u32,
    },
}

/// One contiguous allocation.
///
/// The payload is behind an [`Arc`]: cloning a region (or the whole
/// [`Memory`], as [`crate::Vm::snapshot`] does) shares the words, and
/// the first write through either copy un-shares just that region
/// (copy-on-write via [`Arc::make_mut`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Region {
    /// First word address.
    pub base: u64,
    /// Length in words.
    pub size: u64,
    /// Storage kind.
    pub kind: RegionKind,
    data: Arc<Vec<i64>>,
}

impl Region {
    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.size
    }
}

/// Why a memory access failed or misbehaved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemError {
    /// Access inside the NULL page.
    Null {
        /// Faulting address.
        addr: u64,
    },
    /// Access outside any region.
    Wild {
        /// Faulting address.
        addr: u64,
    },
    /// `Free` of an already-freed allocation.
    DoubleFree {
        /// The freed base address.
        addr: u64,
    },
    /// `Free` of an address that is not a live heap base.
    InvalidFree {
        /// The bogus address.
        addr: u64,
    },
    /// An `Alloca` that does not fit in what is left of its thread's
    /// stack window (or a thread whose window would reach
    /// [`FUNCPTR_BASE`]).
    StackOverflow {
        /// Allocating thread (raw id).
        tid: u32,
        /// Words requested.
        size: u64,
    },
}

/// One word access, resolved with a single region lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The word read, or for a store the word it replaced. A freed
    /// region's words are stale but still there.
    pub value: i64,
    /// Whether the word is shared memory: a global or a heap
    /// allocation, live or freed — the address classes the race
    /// detector shadows. Thread stacks are not shared, mirroring
    /// TSan's escape filtering.
    pub shared: bool,
    /// Base of the allocation when it was freed: the access still read
    /// or landed, but it is a use-after-free.
    pub freed: Option<u64>,
}

impl Access {
    fn of(r: &Region, value: i64) -> Self {
        Access {
            value,
            shared: !matches!(r.kind, RegionKind::Stack { .. }),
            freed: (r.kind == RegionKind::FreedHeap).then_some(r.base),
        }
    }
}

/// VM memory: regions plus allocation cursors.
#[derive(Clone, Debug)]
pub struct Memory {
    /// base -> region, ordered for containment lookup.
    regions: BTreeMap<u64, Region>,
    /// Base address of each global, indexed by [`GlobalId`]; the
    /// layout never changes, so clones share it.
    global_bases: Arc<[u64]>,
    heap_cursor: u64,
    /// Per-thread stack cursors.
    stack_cursors: BTreeMap<u32, u64>,
}

impl Memory {
    /// Creates memory with all of `module`'s globals laid out
    /// contiguously from [`GLOBAL_BASE`].
    pub fn new(module: &Module) -> Self {
        let mut cursor = GLOBAL_BASE;
        let global_bases: Arc<[u64]> = module
            .globals
            .iter()
            .map(|g| {
                let base = cursor;
                cursor += g.size as u64;
                base
            })
            .collect();
        let mut regions = BTreeMap::new();
        for (gi, g) in module.globals.iter().enumerate() {
            let mut data = vec![0i64; g.size as usize];
            for (i, v) in g.init.iter().enumerate() {
                data[i] = *v;
            }
            let base = global_bases[gi];
            regions.insert(
                base,
                Region {
                    base,
                    size: g.size as u64,
                    kind: RegionKind::Global(GlobalId::from_index(gi)),
                    data: Arc::new(data),
                },
            );
        }
        Memory {
            regions,
            global_bases,
            heap_cursor: HEAP_BASE,
            stack_cursors: BTreeMap::new(),
        }
    }

    /// Address of global `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` was not part of the module this memory was built
    /// from.
    pub fn global_addr(&self, g: GlobalId) -> u64 {
        self.global_bases[g.index()]
    }

    fn region_containing(&self, addr: u64) -> Option<&Region> {
        self.regions
            .range(..=addr)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.contains(addr))
    }

    fn region_containing_mut(&mut self, addr: u64) -> Option<&mut Region> {
        self.regions
            .range_mut(..=addr)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.contains(addr))
    }

    /// The region containing `addr`, if any (public for verifier hints).
    pub fn region_of(&self, addr: u64) -> Option<&Region> {
        self.region_containing(addr)
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::Null`] below [`GLOBAL_BASE`], [`MemError::Wild`]
    /// outside all regions. A freed region still yields its stale word
    /// (for attack modeling); [`Access::freed`] says so.
    pub fn load(&self, addr: u64) -> Result<Access, MemError> {
        if addr < GLOBAL_BASE {
            return Err(MemError::Null { addr });
        }
        let r = self
            .region_containing(addr)
            .ok_or(MemError::Wild { addr })?;
        Ok(Access::of(r, r.data[(addr - r.base) as usize]))
    }

    /// Writes `val` to the word at `addr`, returning the word it
    /// replaced.
    ///
    /// # Errors
    ///
    /// Same classification as [`Memory::load`]. Writes into freed
    /// regions *do* land (stale memory corruption); [`Access::freed`]
    /// says so.
    pub fn store(&mut self, addr: u64, val: i64) -> Result<Access, MemError> {
        if addr < GLOBAL_BASE {
            return Err(MemError::Null { addr });
        }
        let r = self
            .region_containing_mut(addr)
            .ok_or(MemError::Wild { addr })?;
        let offset = (addr - r.base) as usize;
        // Un-share the region on first write after a snapshot.
        let old = std::mem::replace(&mut Arc::make_mut(&mut r.data)[offset], val);
        Ok(Access::of(r, old))
    }

    /// Allocates `size` words on the heap (never reuses addresses).
    pub fn malloc(&mut self, size: u64) -> u64 {
        let size = size.max(1);
        let base = self.heap_cursor;
        self.heap_cursor += size + 1; // one-word red zone
        self.regions.insert(
            base,
            Region {
                base,
                size,
                kind: RegionKind::Heap,
                data: Arc::new(vec![0; size as usize]),
            },
        );
        base
    }

    /// Frees the heap allocation at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::DoubleFree`] if already freed, [`MemError::InvalidFree`]
    /// if `addr` is not a heap allocation base.
    pub fn free(&mut self, addr: u64) -> Result<(), MemError> {
        match self.regions.get_mut(&addr) {
            Some(r) if r.kind == RegionKind::Heap => {
                r.kind = RegionKind::FreedHeap;
                Ok(())
            }
            Some(r) if r.kind == RegionKind::FreedHeap => Err(MemError::DoubleFree { addr }),
            _ => Err(MemError::InvalidFree { addr }),
        }
    }

    /// Allocates `size` words on thread `tid`'s stack, inside its
    /// window of [`STACK_SIZE`] words from
    /// `STACK_BASE + tid × STACK_SIZE`. Stack words are never freed.
    ///
    /// # Errors
    ///
    /// [`MemError::StackOverflow`], with nothing allocated, when the
    /// words do not fit in what is left of the window, or when the
    /// window would reach [`FUNCPTR_BASE`].
    pub fn alloca(&mut self, tid: u32, size: u64) -> Result<u64, MemError> {
        let size = size.max(1);
        let window = STACK_BASE + u64::from(tid) * STACK_SIZE;
        let end = window + STACK_SIZE;
        let base = self.stack_cursors.get(&tid).copied().unwrap_or(window);
        if end > FUNCPTR_BASE || size > end - base {
            return Err(MemError::StackOverflow { tid, size });
        }
        self.stack_cursors.insert(tid, base + size);
        self.regions.insert(
            base,
            Region {
                base,
                size,
                kind: RegionKind::Stack { tid },
                data: Arc::new(vec![0; size as usize]),
            },
        );
        Ok(base)
    }

    /// Approximate heap bytes a fresh clone of this memory uniquely
    /// owns: the region index (map entry, bounds, one shared payload
    /// handle per region) plus stack cursors. Payload words are
    /// excluded — immediately after a clone they are CoW-shared with
    /// the original and cost nothing until one side writes.
    pub fn approx_index_bytes(&self) -> u64 {
        (self.regions.len() as u64) * 64 + (self.stack_cursors.len() as u64) * 16
    }

    /// Name of the global containing `addr`, for reports.
    pub fn global_name<'m>(&self, module: &'m Module, addr: u64) -> Option<&'m str> {
        match self.region_containing(addr)?.kind {
            RegionKind::Global(g) => Some(module.global(g).name.as_str()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{ModuleBuilder, Type};

    fn module_with_globals() -> Module {
        let mut mb = ModuleBuilder::new("t");
        mb.global_init("a", 2, vec![7, 8], Type::I64);
        mb.global("b", 1, Type::I64);
        mb.finish()
    }

    #[test]
    fn globals_are_contiguous_and_initialized() {
        let m = module_with_globals();
        let mem = Memory::new(&m);
        let a = mem.global_addr(GlobalId(0));
        let b = mem.global_addr(GlobalId(1));
        assert_eq!(a, GLOBAL_BASE);
        assert_eq!(b, GLOBAL_BASE + 2);
        assert_eq!(mem.load(a).unwrap().value, 7);
        assert_eq!(mem.load(a + 1).unwrap().value, 8);
        assert_eq!(mem.load(b).unwrap().value, 0);
    }

    #[test]
    fn overflow_from_one_global_lands_in_next() {
        // The Apache-25520 mechanism: writing past `a` corrupts `b`.
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let a = mem.global_addr(GlobalId(0));
        mem.store(a + 2, 99).unwrap();
        let b = mem.global_addr(GlobalId(1));
        assert_eq!(mem.load(b).unwrap().value, 99);
    }

    #[test]
    fn null_and_wild_accesses_fail() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        assert_eq!(mem.load(0), Err(MemError::Null { addr: 0 }));
        assert_eq!(mem.store(0, 1), Err(MemError::Null { addr: 0 }));
        assert_eq!(
            mem.load(0xdead_beef00),
            Err(MemError::Wild {
                addr: 0xdead_beef00
            })
        );
        assert_eq!(
            mem.store(0xdead_beef00, 1),
            Err(MemError::Wild {
                addr: 0xdead_beef00
            })
        );
    }

    #[test]
    fn heap_lifecycle_and_uaf() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let p = mem.malloc(4);
        let live = mem.store(p + 1, 42).unwrap();
        assert_eq!((live.value, live.freed), (0, None));
        assert_eq!(mem.load(p + 1).unwrap().value, 42);
        mem.free(p).unwrap();
        // Stale data still observable for attack modeling.
        assert_eq!(
            mem.load(p + 1),
            Ok(Access {
                value: 42,
                shared: true,
                freed: Some(p)
            })
        );
        // A store into freed memory lands and reports the word it replaced.
        assert_eq!(mem.store(p + 1, 9).unwrap().freed, Some(p));
        assert_eq!(mem.load(p + 1).unwrap().value, 9);
        assert_eq!(mem.free(p), Err(MemError::DoubleFree { addr: p }));
        assert_eq!(mem.free(p + 1), Err(MemError::InvalidFree { addr: p + 1 }));
    }

    #[test]
    fn malloc_never_reuses_addresses() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let p1 = mem.malloc(2);
        mem.free(p1).unwrap();
        let p2 = mem.malloc(2);
        assert_ne!(p1, p2);
    }

    #[test]
    fn stack_regions_are_not_shared() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let s = mem.alloca(3, 8).unwrap();
        assert!(!mem.load(s).unwrap().shared);
        assert!(!mem.store(s, 1).unwrap().shared);
        assert!(mem.load(GLOBAL_BASE).unwrap().shared);
        let h = mem.malloc(1);
        assert!(mem.load(h).unwrap().shared);
        mem.free(h).unwrap();
        assert!(mem.load(h).unwrap().shared, "freed heap stays shadowed");
    }

    #[test]
    fn distinct_threads_get_distinct_stacks() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let s0 = mem.alloca(0, 4).unwrap();
        let s1 = mem.alloca(1, 4).unwrap();
        assert_ne!(s0, s1);
        assert_eq!(s1, STACK_BASE + STACK_SIZE);
    }

    #[test]
    fn alloca_stays_inside_its_threads_window() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        // Thread 0 fills its window to the last word; one more word
        // would land in thread 1's window.
        assert_eq!(mem.alloca(0, STACK_SIZE - 1), Ok(STACK_BASE));
        let last = mem.alloca(0, 1).unwrap();
        assert_eq!(last, STACK_BASE + STACK_SIZE - 1);
        assert_eq!(
            mem.alloca(0, 1),
            Err(MemError::StackOverflow { tid: 0, size: 1 })
        );
        assert_eq!(mem.alloca(1, 1), Ok(STACK_BASE + STACK_SIZE));
        mem.store(last, 7).unwrap();
        mem.store(STACK_BASE + STACK_SIZE, 99).unwrap();
        assert_eq!(mem.load(last).unwrap().value, 7);
        // An oversized request is refused before any words exist.
        assert_eq!(
            mem.alloca(2, u64::from(u32::MAX)),
            Err(MemError::StackOverflow {
                tid: 2,
                size: u64::from(u32::MAX)
            })
        );
        assert_eq!(mem.alloca(2, STACK_SIZE), Ok(STACK_BASE + 2 * STACK_SIZE));
    }

    #[test]
    fn thread_windows_stop_short_of_function_pointers() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let last_tid = ((FUNCPTR_BASE - STACK_BASE) / STACK_SIZE - 1) as u32;
        let base = mem.alloca(last_tid, STACK_SIZE).unwrap();
        assert_eq!(base + STACK_SIZE, FUNCPTR_BASE);
        for tid in [last_tid + 1, u32::MAX] {
            assert_eq!(
                mem.alloca(tid, 1),
                Err(MemError::StackOverflow { tid, size: 1 })
            );
        }
    }

    #[test]
    fn clone_shares_payloads_until_first_write() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let h = mem.malloc(4);
        let snap = mem.clone();
        let a = mem.global_addr(GlobalId(0));
        assert!(Arc::ptr_eq(
            &mem.regions[&a].data,
            &snap.regions[&a].data
        ));
        // Reads keep sharing; a write un-shares only the touched region.
        let _ = mem.load(h).unwrap();
        assert!(Arc::ptr_eq(
            &mem.regions[&h].data,
            &snap.regions[&h].data
        ));
        mem.store(h + 1, 5).unwrap();
        assert!(!Arc::ptr_eq(
            &mem.regions[&h].data,
            &snap.regions[&h].data
        ));
        assert!(Arc::ptr_eq(
            &mem.regions[&a].data,
            &snap.regions[&a].data
        ));
        // The snapshot still sees the pre-write value.
        assert_eq!(snap.load(h + 1).unwrap().value, 0);
        assert_eq!(mem.load(h + 1).unwrap().value, 5);
    }

    #[test]
    fn global_names_resolve() {
        let m = module_with_globals();
        let mem = Memory::new(&m);
        assert_eq!(mem.global_name(&m, GLOBAL_BASE), Some("a"));
        assert_eq!(mem.global_name(&m, GLOBAL_BASE + 2), Some("b"));
        assert_eq!(mem.global_name(&m, HEAP_BASE), None);
    }
}
