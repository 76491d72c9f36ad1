//! Cross-commit pins for schedule exploration.
//!
//! How a unit's events reach its detector must never show in what
//! `explore` returns. For every corpus and extension program and under
//! every [`HbBackend`], one FNV-1a digest covers the reports in order,
//! every outcome, and every `ExploreResult` counter except the four
//! fork counters, which are pinned in the clear beside it.
//!
//! The pins were recorded at workers 1 with fork mode on. The same
//! configuration at workers 2 and 4 must reproduce the digest and the
//! fork counters (every sweep dedups against its pilot's schedule
//! alone, whatever the worker count), and fork mode off must reproduce
//! the digest at workers 1, 2 and 4 with all four fork counters zero.

use owl_race::{explore, ExploreResult, ExplorerConfig, HbBackend};
use std::fmt::Write as _;

/// FNV-1a, fed through `fmt::Write` so large `Debug` renderings hash
/// without being materialized.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of everything but the fork counters. The destructure is
/// exhaustive, so a new `ExploreResult` field fails to compile here
/// until it is either hashed or named as a fork counter.
fn digest(r: &ExploreResult) -> u64 {
    let ExploreResult {
        reports,
        runs,
        suppressed,
        reports_dropped,
        outcomes,
        injected_faults,
        events_elided,
        shadow_cells_gced,
        predict_candidates,
        predict_witnessed,
        predict_witness_rejected,
        predict_reversal_races,
        predict_capped,
        units_forked: _,
        prefix_steps_saved: _,
        schedules_deduped: _,
        snapshot_bytes: _,
        deadline_hit,
    } = r;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    // The `0`s stand where the trace-memory budget's four counters
    // (spilled bytes, spill segments, pressure events, units aborted)
    // stood when the pins were recorded: every pinned row is an
    // unbounded sweep, where all four read 0.
    write!(
        h,
        "{reports:?}|{outcomes:?}|{runs} {suppressed} {reports_dropped} {injected_faults} \
         {events_elided} 0 0 0 {shadow_cells_gced} 0 {predict_candidates} \
         {predict_witnessed} {predict_witness_rejected} {predict_reversal_races} \
         {predict_capped} {deadline_hit}"
    )
    .expect("hashing never fails");
    h.0
}

fn fork_counters(r: &ExploreResult) -> [u64; 4] {
    [
        r.units_forked,
        r.prefix_steps_saved,
        r.schedules_deduped,
        r.snapshot_bytes,
    ]
}

fn sweep(
    p: &owl_corpus::CorpusProgram,
    backend: HbBackend,
    workers: usize,
    fork: bool,
) -> ExploreResult {
    let cfg = ExplorerConfig {
        runs_per_input: 4,
        workers,
        hb_backend: backend,
        fork,
        ..ExplorerConfig::default()
    };
    explore(&p.module, p.entry, &p.workloads, &cfg)
}

fn row(name: &str, backend: HbBackend, r: &ExploreResult) -> String {
    let [forked, saved, deduped, snapshot] = fork_counters(r);
    // `unbounded` names the memory budget the pins were recorded under:
    // none.
    format!(
        "{name} {} unbounded: digest={:016x} forked={forked} saved={saved} deduped={deduped} \
         snapshot={snapshot}",
        backend.name(),
        digest(r)
    )
}

/// Recorded at workers 1, fork on, before the VM → detector channel was
/// removed. Memcached's fork counters were re-recorded when every sweep
/// began to dedup against its pilot alone (forked 5 → 6, deduped
/// 3 → 2); no digest moved. The rows under the two memory budgets
/// (`512+spill`, `64`) went with the budget.
const PINNED: &[&str] = &[
    "Apache epoch unbounded: digest=39a13d721160d7e7 forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache reference unbounded: digest=39a13d721160d7e7 forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache syncp unbounded: digest=e6e71b0eae8ddf74 forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache syncrev unbounded: digest=e6e71b0eae8ddf74 forked=8 saved=216 deduped=0 snapshot=12452",
    "Chrome epoch unbounded: digest=c33fb256f9676510 forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome reference unbounded: digest=c33fb256f9676510 forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome syncp unbounded: digest=2685ffacb88b4198 forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome syncrev unbounded: digest=2685ffacb88b4198 forked=8 saved=36 deduped=0 snapshot=13732",
    "Libsafe epoch unbounded: digest=c90e62f418022d80 forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe reference unbounded: digest=c90e62f418022d80 forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe syncp unbounded: digest=1a1fb20683cf2460 forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe syncrev unbounded: digest=1a1fb20683cf2460 forked=4 saved=90 deduped=0 snapshot=1524",
    "Linux epoch unbounded: digest=1986b10e6b2b8125 forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux reference unbounded: digest=1986b10e6b2b8125 forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux syncp unbounded: digest=09b98fc7b1d1d84c forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux syncrev unbounded: digest=09b98fc7b1d1d84c forked=8 saved=24 deduped=0 snapshot=45344",
    "Memcached epoch unbounded: digest=9fffc3da67b106a2 forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached reference unbounded: digest=9fffc3da67b106a2 forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached syncp unbounded: digest=97aa802f2ae8f66e forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached syncrev unbounded: digest=97aa802f2ae8f66e forked=6 saved=6 deduped=2 snapshot=10164",
    "MySQL epoch unbounded: digest=764eac80cbd5f134 forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL reference unbounded: digest=764eac80cbd5f134 forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL syncp unbounded: digest=092d48ce285baa84 forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL syncrev unbounded: digest=092d48ce285baa84 forked=8 saved=54 deduped=0 snapshot=13818",
    "SSDB epoch unbounded: digest=6d41a0d5626085b0 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB reference unbounded: digest=6d41a0d5626085b0 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB syncp unbounded: digest=4d81c7cbc1ee2864 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB syncrev unbounded: digest=4d81c7cbc1ee2864 forked=8 saved=42 deduped=0 snapshot=3302",
    "Bank epoch unbounded: digest=43ac5a7230ee80d4 forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank reference unbounded: digest=43ac5a7230ee80d4 forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank syncp unbounded: digest=3d38170aefda843c forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank syncrev unbounded: digest=3d38170aefda843c forked=4 saved=3 deduped=0 snapshot=1264",
    "DoubleFetch epoch unbounded: digest=0264fa73a9977608 forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch reference unbounded: digest=0264fa73a9977608 forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch syncp unbounded: digest=7627f62572f7da5c forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch syncrev unbounded: digest=7627f62572f7da5c forked=4 saved=21 deduped=0 snapshot=1443",
    "HeapRelay epoch unbounded: digest=ec72c5ab42d470c6 forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay reference unbounded: digest=ec72c5ab42d470c6 forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay syncp unbounded: digest=24f818e86b5812c8 forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay syncrev unbounded: digest=24f818e86b5812c8 forked=4 saved=21 deduped=0 snapshot=1507",
    "CacheRelay epoch unbounded: digest=59b3df4a8b875c38 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay reference unbounded: digest=59b3df4a8b875c38 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay syncp unbounded: digest=3f276d6e71565ae8 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay syncrev unbounded: digest=3f276d6e71565ae8 forked=4 saved=18 deduped=0 snapshot=1384",
];

#[test]
fn exploration_results_are_pinned() {
    let mut programs = owl_corpus::all_programs();
    programs.extend([
        owl_corpus::extensions::bank_atomicity(),
        owl_corpus::extensions::kernel_double_fetch(),
        owl_corpus::extensions::heap_relay(),
        owl_corpus::extensions::cache_relay(),
    ]);
    let mut rows = Vec::new();
    for p in &programs {
        for backend in HbBackend::ALL {
            let pinned = sweep(p, backend, 1, true);
            let ctx = format!("{} {}", p.name, backend.name());
            for (workers, fork) in [(2, true), (4, true), (1, false), (2, false), (4, false)] {
                let r = sweep(p, backend, workers, fork);
                let ctx = format!("{ctx} (workers {workers}, fork {fork})");
                assert_eq!(digest(&r), digest(&pinned), "{ctx}: diverges from the pin");
                let want = if fork { fork_counters(&pinned) } else { [0; 4] };
                assert_eq!(fork_counters(&r), want, "{ctx}: fork counters diverge");
            }
            rows.push(row(p.name, backend, &pinned));
        }
    }
    if rows != PINNED {
        let listing: String = rows.iter().map(|r| format!("    {r:?},\n")).collect();
        panic!("exploration results moved off their pins; this run gives:\n{listing}");
    }
}
