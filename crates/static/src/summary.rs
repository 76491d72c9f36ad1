//! Memoized per-function corruption summaries.
//!
//! Algorithm 1 re-walks callee bodies once per (function, corrupted
//! parameter mask) pair *per report*. Across the many reports of a
//! pipeline run those walks repeat almost verbatim — the study's
//! observation that bugs and attacks share call-stack prefixes (§3.2)
//! cuts both ways: the analyzer keeps descending into the same handful
//! of callees. A [`FuncSummary`] captures everything a callee
//! contributes to its caller's walk — whether its return value is
//! corrupted, which vulnerable sites its subtree reports, and which
//! abstract memory locations its stores taint — keyed by
//! [`SummaryKey`], so the walk is done once and replayed from the
//! [`SummaryCache`] ever after, including across reports and across
//! the worker threads of a parallel analysis stage.
//!
//! Summaries are **context-independent**: a summary records only
//! callee-local corrupted branches and chains (both expressed as
//! function-qualified [`InstRef`]s), and the caller prepends its own
//! context at materialization time. They are also **depth-independent**
//! — a summary is computed with a fresh depth budget, so a cached
//! subtree can be deeper than `max_call_depth` would allow inline;
//! this only ever adds reports, never loses them.

use crate::vuln::{DepKind, VulnStats};
use owl_ir::analysis::AbsLoc;
use owl_ir::{FuncId, FxHashMap, InstRef, VulnClass};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: the callee and the corruption context it is entered
/// with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SummaryKey {
    /// The function summarized.
    pub func: FuncId,
    /// Bitmask of corrupted parameters (bit `k % 32` for parameter
    /// `k`, matching Algorithm 1's argument masking).
    pub crpt_params: u32,
    /// Whether the call site executes under corrupted control.
    pub ctrl: bool,
}

/// One vulnerable-site report found inside a summarized subtree,
/// stripped of caller context.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryReport {
    /// The vulnerable site.
    pub site: InstRef,
    /// Site class.
    pub class: VulnClass,
    /// Dependence kind.
    pub dep: DepKind,
    /// Corrupted branches local to the subtree that gate the site.
    pub branches: Vec<InstRef>,
    /// Propagation chain within the subtree.
    pub chain: Vec<InstRef>,
}

/// Everything one function walk contributes to its caller, memoized.
#[derive(Clone, Debug, Default)]
pub struct FuncSummary {
    /// Whether the function's return value is corrupted (data- or
    /// control-).
    pub ret_corrupted: bool,
    /// Reports produced inside the subtree.
    pub reports: Vec<SummaryReport>,
    /// Abstract locations tainted by stores of corrupted values in the
    /// subtree, with the tainting store for provenance (deterministic
    /// order).
    pub tainted: Vec<(AbsLoc, InstRef)>,
    /// Traversal cost of computing the summary (what a cache hit
    /// saves).
    pub stats: VulnStats,
}

/// Thread-safe cross-report summary cache.
///
/// Panic-tolerant by construction: entries are inserted only after a
/// summary is fully computed, so a poisoned lock (a worker panicked
/// mid-insert) still holds consistent data and is recovered rather
/// than propagated.
///
/// Analyzers sharing the cache compute summaries one at a time, so
/// every key is computed once and the hit and miss counts, and each
/// analysis's traversal cost, are what a serial run reports, whatever
/// the thread timing.
#[derive(Debug, Default)]
pub struct SummaryCache {
    map: Mutex<FxHashMap<SummaryKey, Arc<FuncSummary>>>,
    compute: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SummaryCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn map(&self) -> std::sync::MutexGuard<'_, FxHashMap<SummaryKey, Arc<FuncSummary>>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether `key` is cached, without counting a lookup.
    pub(crate) fn contains(&self, key: SummaryKey) -> bool {
        self.map().contains_key(&key)
    }

    /// Serializes summary computation across the analyzers sharing this
    /// cache. Hold the guard from the counted lookup that may miss until
    /// the summary it computes is inserted: two workers then never both
    /// miss on one key and both compute it. Nothing is left half-done
    /// under it, so a poisoned lock is recovered.
    pub(crate) fn compute_guard(&self) -> std::sync::MutexGuard<'_, ()> {
        self.compute.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a summary, counting the hit or miss.
    pub fn get(&self, key: SummaryKey) -> Option<Arc<FuncSummary>> {
        let found = self.map().get(&key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a computed summary and returns the shared handle. If a
    /// racing worker inserted the same key first, that copy wins (the
    /// computation is deterministic, so both are identical).
    pub fn insert(&self, key: SummaryKey, summary: FuncSummary) -> Arc<FuncSummary> {
        self.map()
            .entry(key)
            .or_insert_with(|| Arc::new(summary))
            .clone()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of memoized summaries.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache holds no summaries.
    pub fn is_empty(&self) -> bool {
        self.map().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(f: u32, mask: u32) -> SummaryKey {
        SummaryKey {
            func: FuncId(f),
            crpt_params: mask,
            ctrl: false,
        }
    }

    #[test]
    fn hit_and_miss_counters() {
        let cache = SummaryCache::new();
        assert!(cache.get(key(0, 1)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(key(0, 1), FuncSummary::default());
        assert!(cache.get(key(0, 1)).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Different mask or ctrl flag is a different entry.
        assert!(cache.get(key(0, 2)).is_none());
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn racing_insert_keeps_first_copy() {
        let cache = SummaryCache::new();
        let a = cache.insert(
            key(1, 0),
            FuncSummary {
                ret_corrupted: true,
                ..FuncSummary::default()
            },
        );
        let b = cache.insert(key(1, 0), FuncSummary::default());
        assert!(Arc::ptr_eq(&a, &b), "first insert wins");
        assert!(b.ret_corrupted);
    }
}
