//! Cross-commit pins for schedule exploration.
//!
//! How a unit's events reach its detector — and how the memory budget
//! windows, spills and aborts them — must never show in what `explore`
//! returns. For every corpus and extension program, under every
//! [`HbBackend`], and under three memory budgets (none; 512 B with a
//! spill directory; 64 B without one, so every unit aborts), one
//! FNV-1a digest covers the reports in order, every outcome, and every
//! `ExploreResult` counter except the four fork counters, which are
//! pinned in the clear beside it.
//!
//! The pins were recorded at workers 1 with fork mode on. The same
//! configuration at workers 2 and 4 must reproduce the digest and the
//! fork counters (every sweep dedups against its pilot's schedule
//! alone, whatever the worker count), and fork mode off must reproduce
//! the digest at workers 1, 2 and 4 with all four fork counters zero.

use owl_race::{explore, ExploreResult, ExplorerConfig, HbBackend, StreamConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

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
        trace_spilled_bytes,
        trace_spill_segments,
        mem_pressure_events,
        shadow_cells_gced,
        units_aborted_mem_budget,
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
    write!(
        h,
        "{reports:?}|{outcomes:?}|{runs} {suppressed} {reports_dropped} {injected_faults} \
         {events_elided} {trace_spilled_bytes} {trace_spill_segments} {mem_pressure_events} \
         {shadow_cells_gced} {units_aborted_mem_budget} {predict_candidates} \
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

/// The three memory budgets: `(label, max_trace_mem, spill)`.
const BUDGETS: [(&str, Option<u64>, bool); 3] = [
    ("unbounded", None, false),
    ("512+spill", Some(512), true),
    ("64", Some(64), false),
];

fn sweep(
    p: &owl_corpus::CorpusProgram,
    backend: HbBackend,
    budget: Option<u64>,
    spill_dir: Option<&Path>,
    workers: usize,
    fork: bool,
) -> ExploreResult {
    let cfg = ExplorerConfig {
        runs_per_input: 4,
        workers,
        hb_backend: backend,
        fork,
        stream: StreamConfig {
            max_trace_mem: budget,
            spill_dir: spill_dir.map(Path::to_path_buf),
            ..StreamConfig::default()
        },
        ..ExplorerConfig::default()
    };
    let r = explore(&p.module, p.entry, &p.workloads, &cfg);
    if let Some(dir) = spill_dir {
        // Every segment is replayed and deleted on the spot.
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .map(|rd| rd.filter_map(Result::ok).map(|e| e.path()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "{}: {leftovers:?}", p.name);
    }
    r
}

fn row(name: &str, backend: HbBackend, budget: &str, r: &ExploreResult) -> String {
    let [forked, saved, deduped, snapshot] = fork_counters(r);
    format!(
        "{name} {} {budget}: digest={:016x} forked={forked} saved={saved} deduped={deduped} \
         snapshot={snapshot}",
        backend.name(),
        digest(r)
    )
}

/// Recorded at workers 1, fork on, before the VM → detector channel was
/// removed. Memcached's fork counters were re-recorded when every sweep
/// began to dedup against its pilot alone (forked 5 → 6, deduped
/// 3 → 2); no digest moved.
const PINNED: &[&str] = &[
    "Apache epoch unbounded: digest=39a13d721160d7e7 forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache epoch 512+spill: digest=4b0c3fe117efe060 forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache epoch 64: digest=2f6d44a0bb4ff4ff forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache reference unbounded: digest=39a13d721160d7e7 forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache reference 512+spill: digest=4b0c3fe117efe060 forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache reference 64: digest=2f6d44a0bb4ff4ff forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache syncp unbounded: digest=e6e71b0eae8ddf74 forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache syncp 512+spill: digest=a3cfd06fc9d44c79 forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache syncp 64: digest=2f6d44a0bb4ff4ff forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache syncrev unbounded: digest=e6e71b0eae8ddf74 forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache syncrev 512+spill: digest=a3cfd06fc9d44c79 forked=8 saved=216 deduped=0 snapshot=12452",
    "Apache syncrev 64: digest=2f6d44a0bb4ff4ff forked=8 saved=216 deduped=0 snapshot=12452",
    "Chrome epoch unbounded: digest=c33fb256f9676510 forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome epoch 512+spill: digest=6e4ae0afa5d14be4 forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome epoch 64: digest=5a34937f1ba1f23b forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome reference unbounded: digest=c33fb256f9676510 forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome reference 512+spill: digest=6e4ae0afa5d14be4 forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome reference 64: digest=5a34937f1ba1f23b forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome syncp unbounded: digest=2685ffacb88b4198 forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome syncp 512+spill: digest=24cd8faadc8a097c forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome syncp 64: digest=5a34937f1ba1f23b forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome syncrev unbounded: digest=2685ffacb88b4198 forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome syncrev 512+spill: digest=24cd8faadc8a097c forked=8 saved=36 deduped=0 snapshot=13732",
    "Chrome syncrev 64: digest=5a34937f1ba1f23b forked=8 saved=36 deduped=0 snapshot=13732",
    "Libsafe epoch unbounded: digest=c90e62f418022d80 forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe epoch 512+spill: digest=b566ccf85ec7db1e forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe epoch 64: digest=c00c6702b56addd4 forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe reference unbounded: digest=c90e62f418022d80 forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe reference 512+spill: digest=b566ccf85ec7db1e forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe reference 64: digest=c00c6702b56addd4 forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe syncp unbounded: digest=1a1fb20683cf2460 forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe syncp 512+spill: digest=3517a94c096be85e forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe syncp 64: digest=c00c6702b56addd4 forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe syncrev unbounded: digest=1a1fb20683cf2460 forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe syncrev 512+spill: digest=3517a94c096be85e forked=4 saved=90 deduped=0 snapshot=1524",
    "Libsafe syncrev 64: digest=c00c6702b56addd4 forked=4 saved=90 deduped=0 snapshot=1524",
    "Linux epoch unbounded: digest=1986b10e6b2b8125 forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux epoch 512+spill: digest=5a690813a68a1703 forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux epoch 64: digest=2b791bc6ef4bccdf forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux reference unbounded: digest=1986b10e6b2b8125 forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux reference 512+spill: digest=5a690813a68a1703 forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux reference 64: digest=2b791bc6ef4bccdf forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux syncp unbounded: digest=09b98fc7b1d1d84c forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux syncp 512+spill: digest=250de04bb3c6af1a forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux syncp 64: digest=2b791bc6ef4bccdf forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux syncrev unbounded: digest=09b98fc7b1d1d84c forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux syncrev 512+spill: digest=250de04bb3c6af1a forked=8 saved=24 deduped=0 snapshot=45344",
    "Linux syncrev 64: digest=2b791bc6ef4bccdf forked=8 saved=24 deduped=0 snapshot=45344",
    "Memcached epoch unbounded: digest=9fffc3da67b106a2 forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached epoch 512+spill: digest=43f21da4a07d01de forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached epoch 64: digest=d4c803be6993599f forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached reference unbounded: digest=9fffc3da67b106a2 forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached reference 512+spill: digest=43f21da4a07d01de forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached reference 64: digest=d4c803be6993599f forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached syncp unbounded: digest=97aa802f2ae8f66e forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached syncp 512+spill: digest=97b264809d715224 forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached syncp 64: digest=d4c803be6993599f forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached syncrev unbounded: digest=97aa802f2ae8f66e forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached syncrev 512+spill: digest=97b264809d715224 forked=6 saved=6 deduped=2 snapshot=10164",
    "Memcached syncrev 64: digest=d4c803be6993599f forked=6 saved=6 deduped=2 snapshot=10164",
    "MySQL epoch unbounded: digest=764eac80cbd5f134 forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL epoch 512+spill: digest=d410bae7e636290e forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL epoch 64: digest=c0d7df074d566b76 forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL reference unbounded: digest=764eac80cbd5f134 forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL reference 512+spill: digest=d410bae7e636290e forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL reference 64: digest=c0d7df074d566b76 forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL syncp unbounded: digest=092d48ce285baa84 forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL syncp 512+spill: digest=15c4b380399ca1c8 forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL syncp 64: digest=c0d7df074d566b76 forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL syncrev unbounded: digest=092d48ce285baa84 forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL syncrev 512+spill: digest=15c4b380399ca1c8 forked=8 saved=54 deduped=0 snapshot=13818",
    "MySQL syncrev 64: digest=c0d7df074d566b76 forked=8 saved=54 deduped=0 snapshot=13818",
    "SSDB epoch unbounded: digest=6d41a0d5626085b0 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB epoch 512+spill: digest=0fccbb720a909046 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB epoch 64: digest=74b0a71e44b19525 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB reference unbounded: digest=6d41a0d5626085b0 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB reference 512+spill: digest=0fccbb720a909046 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB reference 64: digest=74b0a71e44b19525 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB syncp unbounded: digest=4d81c7cbc1ee2864 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB syncp 512+spill: digest=70e736395c2e5272 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB syncp 64: digest=74b0a71e44b19525 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB syncrev unbounded: digest=4d81c7cbc1ee2864 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB syncrev 512+spill: digest=70e736395c2e5272 forked=8 saved=42 deduped=0 snapshot=3302",
    "SSDB syncrev 64: digest=74b0a71e44b19525 forked=8 saved=42 deduped=0 snapshot=3302",
    "Bank epoch unbounded: digest=43ac5a7230ee80d4 forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank epoch 512+spill: digest=5ecbbd8b86be0fd8 forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank epoch 64: digest=9f08d62a4473eb9d forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank reference unbounded: digest=43ac5a7230ee80d4 forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank reference 512+spill: digest=5ecbbd8b86be0fd8 forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank reference 64: digest=9f08d62a4473eb9d forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank syncp unbounded: digest=3d38170aefda843c forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank syncp 512+spill: digest=eda01455020a06c0 forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank syncp 64: digest=9f08d62a4473eb9d forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank syncrev unbounded: digest=3d38170aefda843c forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank syncrev 512+spill: digest=eda01455020a06c0 forked=4 saved=3 deduped=0 snapshot=1264",
    "Bank syncrev 64: digest=9f08d62a4473eb9d forked=4 saved=3 deduped=0 snapshot=1264",
    "DoubleFetch epoch unbounded: digest=0264fa73a9977608 forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch epoch 512+spill: digest=558faa1a505dfe30 forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch epoch 64: digest=d2963bda2e51e8a1 forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch reference unbounded: digest=0264fa73a9977608 forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch reference 512+spill: digest=558faa1a505dfe30 forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch reference 64: digest=d2963bda2e51e8a1 forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch syncp unbounded: digest=7627f62572f7da5c forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch syncp 512+spill: digest=fc48765aff15745c forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch syncp 64: digest=d2963bda2e51e8a1 forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch syncrev unbounded: digest=7627f62572f7da5c forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch syncrev 512+spill: digest=fc48765aff15745c forked=4 saved=21 deduped=0 snapshot=1443",
    "DoubleFetch syncrev 64: digest=d2963bda2e51e8a1 forked=4 saved=21 deduped=0 snapshot=1443",
    "HeapRelay epoch unbounded: digest=ec72c5ab42d470c6 forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay epoch 512+spill: digest=9549937fce63706c forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay epoch 64: digest=87968cc40d6b42c2 forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay reference unbounded: digest=ec72c5ab42d470c6 forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay reference 512+spill: digest=9549937fce63706c forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay reference 64: digest=87968cc40d6b42c2 forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay syncp unbounded: digest=24f818e86b5812c8 forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay syncp 512+spill: digest=9e20044c46fd0c2e forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay syncp 64: digest=87968cc40d6b42c2 forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay syncrev unbounded: digest=24f818e86b5812c8 forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay syncrev 512+spill: digest=9e20044c46fd0c2e forked=4 saved=21 deduped=0 snapshot=1507",
    "HeapRelay syncrev 64: digest=87968cc40d6b42c2 forked=4 saved=21 deduped=0 snapshot=1507",
    "CacheRelay epoch unbounded: digest=59b3df4a8b875c38 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay epoch 512+spill: digest=041f1b8a02e0e244 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay epoch 64: digest=524b1307212639b4 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay reference unbounded: digest=59b3df4a8b875c38 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay reference 512+spill: digest=041f1b8a02e0e244 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay reference 64: digest=524b1307212639b4 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay syncp unbounded: digest=3f276d6e71565ae8 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay syncp 512+spill: digest=993f2f06e459d7e4 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay syncp 64: digest=524b1307212639b4 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay syncrev unbounded: digest=3f276d6e71565ae8 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay syncrev 512+spill: digest=993f2f06e459d7e4 forked=4 saved=18 deduped=0 snapshot=1384",
    "CacheRelay syncrev 64: digest=524b1307212639b4 forked=4 saved=18 deduped=0 snapshot=1384",
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
    let root: PathBuf =
        std::env::temp_dir().join(format!("owl-explore-pinned-{}", std::process::id()));
    let mut rows = Vec::new();
    for p in &programs {
        for backend in HbBackend::ALL {
            for (label, budget, spill) in BUDGETS {
                let dir = spill.then(|| root.join(format!("{}-{}", p.name, backend.name())));
                let dir = dir.as_deref();
                let pinned = sweep(p, backend, budget, dir, 1, true);
                let ctx = format!("{} {} {label}", p.name, backend.name());
                for (workers, fork) in [(2, true), (4, true), (1, false), (2, false), (4, false)] {
                    let r = sweep(p, backend, budget, dir, workers, fork);
                    let ctx = format!("{ctx} (workers {workers}, fork {fork})");
                    assert_eq!(digest(&r), digest(&pinned), "{ctx}: diverges from the pin");
                    let want = if fork { fork_counters(&pinned) } else { [0; 4] };
                    assert_eq!(fork_counters(&r), want, "{ctx}: fork counters diverge");
                }
                rows.push(row(p.name, backend, label, &pinned));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    if rows != PINNED {
        let listing: String = rows.iter().map(|r| format!("    {r:?},\n")).collect();
        panic!("exploration results moved off their pins; this run gives:\n{listing}");
    }
}
