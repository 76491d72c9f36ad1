//! Pinned prediction results for the predictive backends.
//!
//! The gates in `owl_race::predict` are pure bookkeeping over one
//! recorded trace, so their output is a fixed function of the trace.
//! Any change to their internals (pruning, data layout, closure or
//! scheduler representation) must leave every report and every
//! `PredictStats` counter exactly as they are pinned here:
//!
//! * for every corpus and extension program, under `syncp` and
//!   `syncrev`, the four predict counters, the report count, and a
//!   digest of the report keys in report order;
//! * for the lock-handoff microbenchmark, the schedule count at which
//!   each predictive backend first reports the race (sync-reversal at
//!   schedule 2; sync-preserving never within 64), plus the counters
//!   and report keys at two schedules;
//! * for the detect bench's finished-pass trace (8 threads × 512
//!   accesses) and two programs of owl-bench's `dense-predict` family,
//!   the same counters and digests, plus every report key the greedy
//!   witness search gave there, each of which must still be reported.

use owl::OwlConfig;
use owl_ir::{FuncId, InstId, Module, ModuleBuilder, Type};
use owl_race::{
    explore, ExploreResult, ExplorerConfig, HbBackend, HbConfig, HbDetector, PredictStats,
    RaceReport,
};
use owl_vm::{ProgramInput, RandomScheduler, RunConfig, TraceSink, VecSink, Vm};

const PREDICTIVE: [HbBackend; 2] = [HbBackend::SyncPreserving, HbBackend::SyncReversal];

fn cfg(backend: HbBackend, runs: u64) -> ExplorerConfig {
    ExplorerConfig {
        runs_per_input: runs,
        hb_backend: backend,
        ..ExplorerConfig::default()
    }
}

/// FNV-1a over the report keys, in report order.
fn keys_digest(reports: &[RaceReport]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for rep in reports {
        for b in format!("{:x}:{:?};", rep.addr, rep.key()).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn row(name: &str, backend: HbBackend, r: &ExploreResult) -> String {
    let stats = PredictStats {
        candidates: r.predict_candidates,
        witnessed: r.predict_witnessed,
        witness_rejected: r.predict_witness_rejected,
        reversal_races: r.predict_reversal_races,
        capped: r.predict_capped,
    };
    stats_row(name, backend, &stats, &r.reports)
}

fn stats_row(name: &str, backend: HbBackend, s: &PredictStats, reports: &[RaceReport]) -> String {
    format!(
        "{name} {}: candidates={} witnessed={} rejected={} reversal={} reports={} keys={:016x}",
        backend.name(),
        s.candidates,
        s.witnessed,
        s.witness_rejected,
        s.reversal_races,
        reports.len(),
        keys_digest(reports)
    )
}

/// Recorded before any change to the witness search; deciding each
/// candidate by its sync-preserving ideal left every row as it was.
const PINNED_CORPUS: &[&str] = &[
    "Apache syncp: candidates=296 witnessed=1 rejected=295 reversal=0 reports=108 keys=3b5da87a9d44cbf2",
    "Apache syncrev: candidates=296 witnessed=1 rejected=295 reversal=0 reports=108 keys=3b5da87a9d44cbf2",
    "Chrome syncp: candidates=318 witnessed=0 rejected=318 reversal=0 reports=152 keys=738b3019fdb9e1f4",
    "Chrome syncrev: candidates=318 witnessed=0 rejected=318 reversal=0 reports=152 keys=738b3019fdb9e1f4",
    "Libsafe syncp: candidates=20 witnessed=0 rejected=20 reversal=0 reports=2 keys=e606b5b6b69f4033",
    "Libsafe syncrev: candidates=20 witnessed=0 rejected=20 reversal=0 reports=2 keys=e606b5b6b69f4033",
    "Linux syncp: candidates=918 witnessed=9 rejected=909 reversal=0 reports=635 keys=170916f49c8ed1f6",
    "Linux syncrev: candidates=918 witnessed=9 rejected=909 reversal=0 reports=635 keys=170916f49c8ed1f6",
    "Memcached syncp: candidates=240 witnessed=1 rejected=239 reversal=0 reports=123 keys=fa0fd9f6c5361033",
    "Memcached syncrev: candidates=240 witnessed=1 rejected=239 reversal=0 reports=123 keys=fa0fd9f6c5361033",
    "MySQL syncp: candidates=314 witnessed=6 rejected=308 reversal=0 reports=160 keys=30ad5c5d8d18b8ef",
    "MySQL syncrev: candidates=314 witnessed=6 rejected=308 reversal=0 reports=160 keys=30ad5c5d8d18b8ef",
    "SSDB syncp: candidates=93 witnessed=0 rejected=93 reversal=0 reports=17 keys=744c61efd1f8769e",
    "SSDB syncrev: candidates=93 witnessed=0 rejected=93 reversal=0 reports=17 keys=744c61efd1f8769e",
    "Bank syncp: candidates=44 witnessed=0 rejected=44 reversal=0 reports=3 keys=77c2a826a27dc269",
    "Bank syncrev: candidates=44 witnessed=0 rejected=44 reversal=0 reports=3 keys=77c2a826a27dc269",
    "DoubleFetch syncp: candidates=35 witnessed=3 rejected=32 reversal=0 reports=5 keys=74a1be68a6971199",
    "DoubleFetch syncrev: candidates=35 witnessed=3 rejected=32 reversal=0 reports=5 keys=74a1be68a6971199",
    "HeapRelay syncp: candidates=32 witnessed=0 rejected=32 reversal=0 reports=4 keys=d0e258d2003839ab",
    "HeapRelay syncrev: candidates=32 witnessed=0 rejected=32 reversal=0 reports=4 keys=d0e258d2003839ab",
    "CacheRelay syncp: candidates=40 witnessed=0 rejected=40 reversal=0 reports=5 keys=32cfdcd1ee127a9e",
    "CacheRelay syncrev: candidates=40 witnessed=0 rejected=40 reversal=0 reports=5 keys=32cfdcd1ee127a9e",
];

#[test]
fn corpus_predictions_are_pinned() {
    let mut programs = owl_corpus::all_programs();
    programs.extend([
        owl_corpus::extensions::bank_atomicity(),
        owl_corpus::extensions::kernel_double_fetch(),
        owl_corpus::extensions::heap_relay(),
        owl_corpus::extensions::cache_relay(),
    ]);
    let mut rows = Vec::new();
    for p in &programs {
        for backend in PREDICTIVE {
            let r = explore(&p.module, p.entry, &p.workloads, &cfg(backend, 4));
            rows.push(row(p.name, backend, &r));
        }
    }
    assert_eq!(rows, PINNED_CORPUS);
}

/// A write inside one thread's critical section races with a read the
/// other thread performs after its own (empty) critical section; an
/// I/O delay makes the writer win the lock in (virtually) every
/// schedule, so the unlock→lock edge orders the pair in every observed
/// trace. The same program as the `detect` bench's A10 microbenchmark.
fn lock_handoff_module() -> (Module, FuncId) {
    let mut mb = ModuleBuilder::new("lock-handoff");
    let g = mb.global("g", 1, Type::I64);
    let m = mb.global("m", 1, Type::I64);
    let writer = mb.declare_func("writer", 1);
    {
        let mut b = mb.build_func(writer);
        let la = b.global_addr(m);
        let ga = b.global_addr(g);
        b.lock(la);
        b.store(ga, 1);
        b.unlock(la);
        b.ret(None);
    }
    let reader = mb.declare_func("reader", 1);
    {
        let mut b = mb.build_func(reader);
        b.io_delay(500);
        let la = b.global_addr(m);
        let ga = b.global_addr(g);
        b.lock(la);
        b.unlock(la);
        b.load(ga, Type::I64);
        b.ret(None);
    }
    let main = mb.declare_func("main", 0);
    {
        let mut b = mb.build_func(main);
        let t1 = b.thread_create(writer, 0);
        let t2 = b.thread_create(reader, 0);
        b.thread_join(t1);
        b.thread_join(t2);
        b.ret(None);
    }
    (mb.finish(), main)
}

/// Recorded before any change to the witness search, and unchanged by
/// the sync-preserving ideal: the race needs a reversal.
const PINNED_HANDOFF: &[&str] = &[
    "lock-handoff syncp: candidates=2 witnessed=0 rejected=2 reversal=0 reports=0 keys=cbf29ce484222325 found_at=0",
    "lock-handoff syncrev: candidates=2 witnessed=1 rejected=1 reversal=1 reports=1 keys=0a2f111bc6759441 found_at=2",
];

#[test]
fn lock_handoff_predictions_are_pinned() {
    let (m, main) = lock_handoff_module();
    let inputs = [ProgramInput::empty()];
    let mut rows = Vec::new();
    for backend in PREDICTIVE {
        let found = (1..=64u64).find(|&runs| {
            explore(&m, main, &inputs, &cfg(backend, runs))
                .reports_on("g")
                .next()
                .is_some()
        });
        let r = explore(&m, main, &inputs, &cfg(backend, 2));
        rows.push(format!(
            "{} found_at={}",
            row("lock-handoff", backend, &r),
            found.unwrap_or(0)
        ));
    }
    assert_eq!(rows, PINNED_HANDOFF);
}

/// The detect bench's replay workload (`crates/bench/benches/detect.rs`,
/// `workload_module`): `threads` straight-line workers of `per_thread`
/// accesses, mostly to a private global, every 128th a locked update
/// of one of four shared globals under one mutex, then an unlocked
/// store and load of one shared global.
fn detect_bench_module(threads: usize, per_thread: usize) -> (Module, FuncId) {
    let mut mb = ModuleBuilder::new("detect-bench");
    let private: Vec<_> = (0..threads)
        .map(|t| mb.global(format!("local{t}"), 1, Type::I64))
        .collect();
    let shared: Vec<_> = (0..4)
        .map(|i| mb.global(format!("shared{i}"), 1, Type::I64))
        .collect();
    let racy = mb.global("racy", 1, Type::I64);
    let mutex = mb.global("m", 1, Type::I64);
    let fns: Vec<FuncId> = (0..threads)
        .map(|i| mb.declare_func(format!("t{i}"), 1))
        .collect();
    for (t, f) in fns.iter().enumerate() {
        let mut b = mb.build_func(*f);
        for k in 0..per_thread {
            if k % 128 == 0 {
                let la = b.global_addr(mutex);
                let sa = b.global_addr(shared[(t + k) % shared.len()]);
                b.lock(la);
                b.load(sa, Type::I64);
                b.store(sa, k as i64);
                b.unlock(la);
            } else {
                let pa = b.global_addr(private[t]);
                if k % 2 == 0 {
                    b.load(pa, Type::I64);
                } else {
                    b.store(pa, k as i64);
                }
            }
        }
        let ra = b.global_addr(racy);
        b.store(ra, t as i64);
        b.load(ra, Type::I64);
        b.ret(None);
    }
    let main = mb.declare_func("main", 0);
    {
        let mut b = mb.build_func(main);
        let tids: Vec<_> = fns.iter().map(|&f| b.thread_create(f, 0)).collect();
        for t in tids {
            b.thread_join(t);
        }
        b.ret(None);
    }
    (mb.finish(), main)
}

/// The detect bench's prediction rows: one run under
/// `RandomScheduler` seed 11, replayed into a fresh detector.
fn replay_bench_trace(
    m: &Module,
    entry: FuncId,
    backend: HbBackend,
) -> (PredictStats, Vec<RaceReport>) {
    let mut sink = VecSink::default();
    let vm = Vm::new(m, entry, ProgramInput::empty(), RunConfig::default());
    let _ = vm.run(&mut RandomScheduler::new(11), &mut sink);
    let mut det = HbDetector::new(HbConfig {
        backend,
        ..HbConfig::default()
    });
    for ev in &sink.events {
        det.on_event(ev);
    }
    det.run_prediction();
    (det.predict_stats(), det.finish(m))
}

/// SplitMix64, the generator owl-bench draws its programs from.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Program `index` of owl-bench's `dense-predict` family under `seed`
/// (`owlbench/src/gen.rs` at that workload's shape): a 100-access
/// startup over a table, then four workers of 120 accesses each —
/// about 70% to the worker's private global, 27% to one of four shared
/// globals under its own mutex, and 3% unlocked to one of two `racy`
/// globals.
fn dense_predict_module(seed: u64, index: u64) -> (Module, FuncId) {
    const THREADS: usize = 4;
    const OPS: usize = 120;
    const STARTUP: u64 = 100;
    let stream = SplitMix64(seed ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64();
    let mut rng = SplitMix64(stream);
    let mut mb = ModuleBuilder::new(format!("dense-{seed}-{index}"));
    let table = mb.global("table", 256, Type::I64);
    let private: Vec<_> = (0..THREADS)
        .map(|t| mb.global(format!("private{t}"), 64, Type::I64))
        .collect();
    let shared: Vec<_> = (0..4)
        .map(|k| mb.global(format!("shared{k}"), 16, Type::I64))
        .collect();
    let mutexes: Vec<_> = (0..4)
        .map(|k| mb.global(format!("mutex{k}"), 1, Type::I64))
        .collect();
    let racy: Vec<_> = (0..2)
        .map(|k| mb.global(format!("racy{k}"), 4, Type::I64))
        .collect();
    let workers: Vec<FuncId> = (0..THREADS)
        .map(|t| mb.declare_func(format!("worker{t}"), 1))
        .collect();
    for (t, &f) in workers.iter().enumerate() {
        let mut b = mb.build_func(f);
        let own = b.global_addr(private[t]);
        let shared_at: Vec<InstId> = shared.iter().map(|&g| b.global_addr(g)).collect();
        let mutex_at: Vec<InstId> = mutexes.iter().map(|&g| b.global_addr(g)).collect();
        let racy_at: Vec<InstId> = racy.iter().map(|&g| b.global_addr(g)).collect();
        for _ in 0..OPS {
            let roll = rng.next_u64() % 100;
            let (base, cells, lock) = if roll < 70 {
                (own, 64, None)
            } else if roll < 97 {
                let k = (rng.next_u64() % 4) as usize;
                (shared_at[k], 16, Some(mutex_at[k]))
            } else {
                let k = (rng.next_u64() % 2) as usize;
                (racy_at[k], 4, None)
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
        for k in 0..STARTUP {
            let slot = b.gep(table_at, (k % 256) as i64);
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
    (mb.finish(), main)
}

/// Each report's address and site pair.
fn report_keys(reports: &[RaceReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            let (a, b) = r.key();
            format!("{:x} {a}-{b}", r.addr)
        })
        .collect()
}

/// Recorded with the sync-preserving ideal. The greedy witness search
/// it replaced read, in the same order, witnessed=8/8/35/35/0/0 and
/// reports=43/43/11/11/3/3, every other counter equal.
const PINNED_GENERATED: &[&str] = &[
    "detect-8x512 syncp: candidates=241 witnessed=49 rejected=192 reversal=0 reports=84 keys=fbde0048dd9f1139",
    "detect-8x512 syncrev: candidates=241 witnessed=49 rejected=192 reversal=0 reports=84 keys=fbde0048dd9f1139",
    "dense-predict-1-0 syncp: candidates=758 witnessed=60 rejected=698 reversal=0 reports=14 keys=bbd2187d77659d21",
    "dense-predict-1-0 syncrev: candidates=758 witnessed=60 rejected=698 reversal=0 reports=14 keys=bbd2187d77659d21",
    "dense-predict-1-1 syncp: candidates=1257 witnessed=12 rejected=1245 reversal=0 reports=3 keys=ac15fa0b91c839b0",
    "dense-predict-1-1 syncrev: candidates=1257 witnessed=12 rejected=1245 reversal=0 reports=3 keys=ac15fa0b91c839b0",
];

/// Per program of `PINNED_GENERATED`, the report keys the greedy
/// witness search gave (the same under both backends): each must still
/// be reported.
const GREEDY_KEYS: &[(&str, &[&str])] = &[
    (
        "detect-8x512",
        &[
            "100c @f0:%1041-@f1:%1041",
            "100c @f0:%1041-@f1:%1042",
            "100c @f0:%1041-@f2:%1041",
            "100c @f1:%1042-@f2:%1041",
            "100c @f0:%1042-@f2:%1041",
            "100c @f2:%1041-@f5:%1041",
            "100c @f1:%1042-@f5:%1041",
            "100c @f0:%1042-@f5:%1041",
            "100c @f2:%1042-@f5:%1041",
            "100c @f5:%1041-@f7:%1041",
            "100c @f1:%1042-@f7:%1041",
            "100c @f0:%1042-@f7:%1041",
            "100c @f2:%1042-@f7:%1041",
            "100c @f5:%1042-@f7:%1041",
            "100c @f6:%1041-@f7:%1041",
            "100c @f1:%1042-@f6:%1041",
            "100c @f0:%1042-@f6:%1041",
            "100c @f2:%1042-@f6:%1041",
            "100c @f5:%1042-@f6:%1041",
            "100c @f6:%1041-@f7:%1042",
            "100c @f3:%1041-@f6:%1041",
            "100c @f1:%1042-@f3:%1041",
            "100c @f0:%1042-@f3:%1041",
            "100c @f2:%1042-@f3:%1041",
            "100c @f3:%1041-@f5:%1042",
            "100c @f3:%1041-@f7:%1042",
            "100c @f3:%1041-@f6:%1042",
            "100c @f3:%1041-@f4:%1041",
            "100c @f1:%1042-@f4:%1041",
            "100c @f0:%1042-@f4:%1041",
            "100c @f2:%1042-@f4:%1041",
            "100c @f4:%1041-@f5:%1042",
            "100c @f4:%1041-@f7:%1042",
            "100c @f3:%1042-@f4:%1041",
            "100c @f4:%1041-@f6:%1042",
            "100c @f1:%1041-@f5:%1041",
            "100c @f1:%1041-@f5:%1042",
            "100c @f2:%1041-@f6:%1041",
            "100c @f3:%1041-@f7:%1041",
            "100c @f3:%1042-@f7:%1041",
            "100c @f2:%1041-@f6:%1042",
            "100c @f0:%1041-@f4:%1041",
            "100c @f0:%1041-@f4:%1042",
        ],
    ),
    (
        "dense-predict-1-0",
        &[
            "1247 @f1:%188-@f2:%252",
            "1244 @f0:%128-@f1:%46",
            "1244 @f0:%128-@f2:%100",
            "124b @f0:%94-@f3:%154",
            "124b @f0:%154-@f3:%154",
            "124b @f0:%270-@f3:%154",
            "1248 @f1:%298-@f3:%64",
            "1248 @f0:%18-@f1:%298",
            "1248 @f0:%18-@f3:%64",
            "1247 @f1:%188-@f2:%232",
            "1244 @f0:%128-@f3:%200",
        ],
    ),
    (
        "dense-predict-1-1",
        &[
            "1246 @f0:%316-@f3:%42",
            "1246 @f0:%316-@f1:%276",
            "1246 @f1:%276-@f3:%42",
        ],
    ),
];

#[test]
fn generated_predictions_are_pinned() {
    let mut rows = Vec::new();
    let mut keys = Vec::new();
    let (m, entry) = detect_bench_module(8, 512);
    for backend in PREDICTIVE {
        let (stats, reports) = replay_bench_trace(&m, entry, backend);
        assert_eq!(stats.capped, 0, "{backend:?} capped the bench trace");
        rows.push(stats_row("detect-8x512", backend, &stats, &reports));
        keys.push(("detect-8x512".to_string(), report_keys(&reports)));
    }
    for index in [0, 1] {
        let (m, entry) = dense_predict_module(1, index);
        let name = format!("dense-predict-1-{index}");
        for backend in PREDICTIVE {
            let cfg = ExplorerConfig {
                hb_backend: backend,
                ..OwlConfig::default().detect
            };
            let r = explore(&m, entry, &[ProgramInput::empty()], &cfg);
            rows.push(row(&name, backend, &r));
            keys.push((name.clone(), report_keys(&r.reports)));
        }
    }
    assert_eq!(rows, PINNED_GENERATED);
    for (row, (name, now)) in rows.iter().zip(&keys) {
        let (_, before) = GREEDY_KEYS
            .iter()
            .find(|(n, _)| n == name)
            .expect("greedy keys recorded for every program");
        let lost: Vec<&&str> = before
            .iter()
            .filter(|k| !now.iter().any(|n| n == *k))
            .collect();
        assert!(lost.is_empty(), "{row}: lost {lost:?}");
    }
}
