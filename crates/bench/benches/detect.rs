//! Stage-1 detector throughput: the epoch fast path against the
//! vector-clock reference backend, and schedule-exploration scaling
//! across worker counts.
//!
//! The replay benches time *detection alone*: a multithreaded trace is
//! captured once through `VecSink`, then streamed into fresh detectors
//! so the VM's interpretation cost is excluded from the timed window.
//! Alongside the per-iteration timings this target emits derived
//! metrics (`events_per_sec_*`, `predict_capped_*`, `epoch_speedup`,
//! `epoch_fast_path_rate`, `elision_points_to_us`, `elision_classify_us`,
//! `explore_wall_us_workers_*`, `fork_speedup_*`, `prefix_share_ratio`,
//! `dedup_ratio`) into `BENCH_detect.json`.

#[cfg(feature = "criterion")]
use criterion::{criterion_group, criterion_main, Criterion};
#[cfg(not(feature = "criterion"))]
use owl_bench::harness::{criterion_group, criterion_main, Criterion};
use owl::json::Json;
use owl_bench::harness::metric;
use owl_ir::analysis::{ElisionMap, PointsTo};
use owl_ir::{FuncId, FxHashSet, InstRef, ModuleBuilder, Module, Type};
use owl_race::{explore, ExplorerConfig, HbBackend, HbConfig, HbDetector, StreamConfig};
use owl_vm::{ProgramInput, RandomScheduler, RunConfig, TraceEvent, TraceSink, VecSink, Vm};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A realistically-synchronized workload: `threads` straight-line
/// threads spending most accesses on thread-private state (totally
/// ordered — FastTrack's fast path), periodically taking a lock for
/// shared counters, and finishing with a few unlocked accesses to one
/// shared global so the trace still carries genuine races. This is
/// the access mix the epoch representation is built for: the
/// reference backend snapshots a full vector clock per remembered
/// access even when everything is ordered.
fn workload_module(threads: usize, per_thread: usize) -> (Module, FuncId) {
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
        // The racy tail: unlocked shared accesses, a handful of sites.
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

fn capture_trace(module: &Module, entry: FuncId) -> Vec<TraceEvent> {
    capture_trace_elided(module, entry, None)
}

/// Same capture, optionally with an elision map installed — the seed
/// is fixed, so the schedule (and therefore the event stream) is
/// identical to the plain capture modulo `no_shadow` stamps.
fn capture_trace_elided(
    module: &Module,
    entry: FuncId,
    elided: Option<Arc<FxHashSet<InstRef>>>,
) -> Vec<TraceEvent> {
    let mut sink = VecSink::default();
    let mut sched = RandomScheduler::new(11);
    let mut vm = Vm::new(module, entry, ProgramInput::empty(), RunConfig::default());
    if let Some(e) = elided {
        vm = vm.with_elided_sites(e);
    }
    let _ = vm.run(&mut sched, &mut sink);
    sink.events
}

fn replay(events: &[TraceEvent], backend: HbBackend) -> HbDetector {
    let mut det = HbDetector::new(HbConfig {
        backend,
        ..HbConfig::default()
    });
    for ev in events {
        use owl_vm::TraceSink as _;
        det.on_event(ev);
    }
    det
}

/// Mean seconds per replay over `reps` repetitions (one untimed
/// warmup) — a finer-grained number than the harness's 3-iteration
/// loop, used for the derived throughput metrics.
fn mean_replay_secs(events: &[TraceEvent], backend: HbBackend) -> f64 {
    black_box(replay(events, backend));
    let reps = 10u32;
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(replay(events, backend));
    }
    t0.elapsed().as_secs_f64() / f64::from(reps)
}

/// Median and interquartile spread of `secs`, in microseconds.
fn median_spread_us(mut secs: Vec<f64>) -> (u64, u64) {
    secs.sort_by(f64::total_cmp);
    let at = |q: usize| (secs[(secs.len() - 1) * q / 4] * 1e6) as u64;
    (at(2), at(3) - at(1))
}

/// Seconds per call of each of `runs`, over `reps` rounds that call
/// them in turn, so that load on a shared host falls on all of them
/// alike.
fn alternating_secs<const N: usize>(reps: usize, runs: [&dyn Fn(); N]) -> [Vec<f64>; N] {
    let mut secs: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        for (run, out) in runs.iter().zip(&mut secs) {
            let t0 = Instant::now();
            run();
            out.push(t0.elapsed().as_secs_f64());
        }
    }
    secs
}

/// The predictive backends, named as their metrics are.
const PREDICTIVE: [(&str, HbBackend); 2] = [
    ("syncp", HbBackend::SyncPreserving),
    ("syncrev", HbBackend::SyncReversal),
];

/// Mean seconds per predictive replay, prediction pass and report
/// build included, over 5 repetitions (one untimed warmup).
fn mean_predictive_secs(m: &Module, events: &[TraceEvent], backend: HbBackend) -> f64 {
    black_box(replay(events, backend).finish(m));
    let reps = 5u32;
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(replay(events, backend).finish(m));
    }
    t0.elapsed().as_secs_f64() / f64::from(reps)
}

/// The prediction counters of one replay of `events` under `backend`.
fn predict_stats(events: &[TraceEvent], backend: HbBackend) -> owl_race::PredictStats {
    let mut det = replay(events, backend);
    det.run_prediction();
    det.predict_stats()
}

fn bench_detector_replay(c: &mut Criterion) {
    let (m, entry) = workload_module(32, 1024);
    let events = capture_trace(&m, entry);
    metric("trace_events", Json::UInt(events.len() as u64));

    // The check-elision pre-pass, applied to the same workload: a
    // second capture under the same seed differs only in `no_shadow`
    // stamps.
    let elision = ElisionMap::analyze(&m, entry);
    let es = elision.stats();
    let marked = capture_trace_elided(&m, entry, Some(Arc::new(elision.elided_set())));
    assert_eq!(marked.len(), events.len(), "stamping changed the schedule");

    // All backends must agree before we time anything — including the
    // elided epoch path against the (never elided) reference oracle.
    let reference = replay(&events, HbBackend::Reference).finish(&m);
    let epoch = replay(&events, HbBackend::Epoch).finish(&m);
    assert_eq!(epoch, reference, "backends diverge on the bench trace");
    let epoch_elided = replay(&marked, HbBackend::Epoch).finish(&m);
    assert_eq!(
        epoch_elided, reference,
        "elision changed the epoch report stream"
    );
    metric("trace_reports", Json::UInt(reference.len() as u64));

    let mut group = c.benchmark_group("detect");
    group.bench_function("replay_reference", |b| {
        b.iter(|| replay(&events, HbBackend::Reference))
    });
    group.bench_function("replay_epoch", |b| b.iter(|| replay(&events, HbBackend::Epoch)));
    group.bench_function("replay_epoch_elide", |b| {
        b.iter(|| replay(&marked, HbBackend::Epoch))
    });
    group.finish();

    let ref_secs = mean_replay_secs(&events, HbBackend::Reference);
    let epoch_secs = mean_replay_secs(&events, HbBackend::Epoch);
    let elide_secs = mean_replay_secs(&marked, HbBackend::Epoch);
    let throughput = |secs: f64| (events.len() as f64 / secs) as u64;
    metric("events_per_sec_reference", Json::UInt(throughput(ref_secs)));
    metric("events_per_sec_epoch", Json::UInt(throughput(epoch_secs)));
    metric(
        "events_per_sec_epoch_elide",
        Json::UInt(throughput(elide_secs)),
    );
    metric("epoch_speedup", Json::Float(ref_secs / epoch_secs));
    metric(
        "elide_speedup_over_epoch",
        Json::Float(epoch_secs / elide_secs),
    );
    let stats = replay(&events, HbBackend::Epoch)
        .epoch_stats()
        .expect("epoch backend exposes stats");
    metric("epoch_fast_path_rate", Json::Float(stats.fast_path_rate()));

    // Predictive backends on the same trace: their report sets must
    // subsume the reference sweep (prediction is strictly additive),
    // and the replay cost — HB sweep plus candidate enumeration plus
    // witness checks — is what the throughput rows quantify.
    let keyset = |reports: &[owl_race::RaceReport]| {
        reports
            .iter()
            .map(|r| (r.addr, r.key()))
            .collect::<HashSet<_>>()
    };
    let ref_keys = keyset(&reference);
    for backend in [HbBackend::SyncPreserving, HbBackend::SyncReversal] {
        let predicted = replay(&events, backend).finish(&m);
        assert!(
            ref_keys.is_subset(&keyset(&predicted)),
            "{backend:?} lost reference races on the bench trace"
        );
    }
    let mut group = c.benchmark_group("detect_predict");
    group.bench_function("replay_syncp", |b| {
        b.iter(|| replay(&events, HbBackend::SyncPreserving).finish(&m))
    });
    group.bench_function("replay_syncrev", |b| {
        b.iter(|| replay(&events, HbBackend::SyncReversal).finish(&m))
    });
    group.finish();
    let syncp_secs = mean_predictive_secs(&m, &events, HbBackend::SyncPreserving);
    let syncrev_secs = mean_predictive_secs(&m, &events, HbBackend::SyncReversal);
    metric("events_per_sec_syncp", Json::UInt(throughput(syncp_secs)));
    metric("events_per_sec_syncrev", Json::UInt(throughput(syncrev_secs)));
    metric("syncp_overhead_over_epoch", Json::Float(syncp_secs / epoch_secs));
    metric(
        "syncrev_overhead_over_epoch",
        Json::Float(syncrev_secs / epoch_secs),
    );
    let pstats = predict_stats(&events, HbBackend::SyncPreserving);
    metric("predict_candidates", Json::UInt(pstats.candidates));
    metric("predict_witnessed", Json::UInt(pstats.witnessed));
    // This trace's pass stops at a cost ceiling, so the two rows above
    // time a truncated pass; the capped flags say so.
    for (name, backend) in PREDICTIVE {
        let capped = predict_stats(&events, backend).capped;
        metric(&format!("predict_capped_{name}"), Json::UInt(capped));
    }

    // A smaller trace of the same shape whose prediction pass finishes
    // under every ceiling and witnesses races: its events/s is the
    // throughput of a whole pass.
    let (small, small_entry) = workload_module(8, 512);
    let small_events = capture_trace(&small, small_entry);
    metric(
        "trace_events_uncapped",
        Json::UInt(small_events.len() as u64),
    );
    for (name, backend) in PREDICTIVE {
        let stats = predict_stats(&small_events, backend);
        assert_eq!(stats.capped, 0, "{backend:?} capped the uncapped trace");
        assert!(stats.witnessed > 0, "{backend:?} witnessed nothing");
        metric(
            &format!("predict_candidates_{name}_uncapped"),
            Json::UInt(stats.candidates),
        );
        metric(
            &format!("predict_witnessed_{name}_uncapped"),
            Json::UInt(stats.witnessed),
        );
        let secs = mean_predictive_secs(&small, &small_events, backend);
        metric(
            &format!("events_per_sec_{name}_uncapped"),
            Json::UInt((small_events.len() as f64 / secs) as u64),
        );
    }

    // What the pre-pass itself costs on this workload, phase by phase:
    // the points-to solve, and classification over one solution.
    let pts = PointsTo::new(&m);
    let [solve, classify] = alternating_secs(
        11,
        [
            &|| {
                black_box(PointsTo::new(&m));
            },
            &|| {
                black_box(ElisionMap::analyze_with(&m, entry, &pts));
            },
        ],
    );
    metric("elision_points_to_us", Json::UInt(median_spread_us(solve).0));
    metric("elision_classify_us", Json::UInt(median_spread_us(classify).0));

    // Per-class elided-site fractions plus how much of the trace the
    // elision actually removed from the shadow-memory path.
    let site_fraction = |n: usize| {
        if es.sites_total == 0 {
            0.0
        } else {
            n as f64 / es.sites_total as f64
        }
    };
    metric(
        "elided_site_fraction_thread_local",
        Json::Float(site_fraction(es.thread_local)),
    );
    metric(
        "elided_site_fraction_lock_dominated",
        Json::Float(site_fraction(es.lock_dominated)),
    );
    metric(
        "elided_site_fraction_read_only",
        Json::Float(site_fraction(es.read_only)),
    );
    let elide_stats = replay(&marked, HbBackend::Epoch)
        .epoch_stats()
        .expect("epoch backend exposes stats");
    metric("events_elided", Json::UInt(elide_stats.events_elided()));
}

/// The pre-`on_event_owned` capture path: every event crosses the sink
/// boundary by reference and is cloned into the buffer (stack `Arc`
/// bump plus a struct copy per event). Kept as a bench-only baseline
/// so `owned_capture_speedup` tracks what taking events by value
/// actually buys.
#[derive(Default)]
struct CloningSink {
    events: Vec<TraceEvent>,
}

impl TraceSink for CloningSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.events.push(ev.clone());
    }
}

/// Trace-capture cost: the VM emitting into a by-value sink
/// (`on_event_owned`, today's path) against the old clone-per-event
/// hand-off.
fn bench_capture_handoff(c: &mut Criterion) {
    let (m, entry) = workload_module(32, 1024);
    let run = |sink: &mut dyn TraceSink| {
        let mut sched = RandomScheduler::new(11);
        let _ = Vm::new(&m, entry, ProgramInput::empty(), RunConfig::default()).run(&mut sched, sink);
    };

    let mut group = c.benchmark_group("capture");
    group.bench_function("capture_owned", |b| {
        b.iter(|| {
            let mut sink = VecSink::default();
            run(&mut sink);
            black_box(sink.events.len())
        })
    });
    group.bench_function("capture_cloned", |b| {
        b.iter(|| {
            let mut sink = CloningSink::default();
            run(&mut sink);
            black_box(sink.events.len())
        })
    });
    group.finish();

    let mean_secs = |cloned: bool| {
        let reps = 10u32;
        let t0 = Instant::now();
        for _ in 0..reps {
            if cloned {
                let mut sink = CloningSink::default();
                run(&mut sink);
                black_box(sink.events.len());
            } else {
                let mut sink = VecSink::default();
                run(&mut sink);
                black_box(sink.events.len());
            }
        }
        t0.elapsed().as_secs_f64() / f64::from(reps)
    };
    let owned = mean_secs(false);
    let cloned = mean_secs(true);
    metric("owned_capture_speedup", Json::Float(cloned / owned));
}

/// Streaming under a hard trace-memory budget: the explorer spilling
/// cold segments to disk and replaying them, against the unbounded
/// in-memory window. Reports are asserted identical; the metrics
/// quantify the spill overhead.
fn bench_bounded_stream(c: &mut Criterion) {
    let p = owl_corpus::program("MySQL").expect("corpus program");
    let base_cfg = ExplorerConfig {
        runs_per_input: 8,
        ..ExplorerConfig::default()
    };
    let spill_dir = std::env::temp_dir().join(format!("owl-bench-spill-{}", std::process::id()));
    let bounded_cfg = ExplorerConfig {
        stream: StreamConfig {
            max_trace_mem: Some(16 * 1024),
            spill_dir: Some(spill_dir.clone()),
            ..StreamConfig::default()
        },
        ..base_cfg.clone()
    };

    let unbounded = explore(&p.module, p.entry, &p.workloads, &base_cfg);
    let bounded = explore(&p.module, p.entry, &p.workloads, &bounded_cfg);
    assert_eq!(
        bounded.reports, unbounded.reports,
        "spilling changed the report stream"
    );
    assert!(bounded.trace_spill_segments > 0, "budget too high to spill");
    metric("spill_segments", Json::UInt(bounded.trace_spill_segments));
    metric("spilled_bytes", Json::UInt(bounded.trace_spilled_bytes));

    let mut group = c.benchmark_group("stream");
    group.bench_function("explore_unbounded", |b| {
        b.iter(|| explore(&p.module, p.entry, &p.workloads, &base_cfg))
    });
    group.bench_function("explore_spill_16k", |b| {
        b.iter(|| explore(&p.module, p.entry, &p.workloads, &bounded_cfg))
    });
    group.finish();

    let mean = |cfg: &ExplorerConfig| {
        let reps = 5u32;
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(explore(&p.module, p.entry, &p.workloads, cfg));
        }
        t0.elapsed().as_secs_f64() / f64::from(reps)
    };
    metric(
        "spill_overhead_ratio",
        Json::Float(mean(&bounded_cfg) / mean(&base_cfg)),
    );
    let _ = std::fs::remove_dir_all(&spill_dir);
}

fn bench_explore_scaling(c: &mut Criterion) {
    let p = owl_corpus::program("MySQL").expect("corpus program");
    let mut group = c.benchmark_group("explore");
    for workers in [1usize, 2, 4] {
        let cfg = ExplorerConfig {
            runs_per_input: 8,
            workers,
            ..ExplorerConfig::default()
        };
        group.bench_function(&format!("mysql_workers_{workers}"), |b| {
            b.iter(|| explore(&p.module, p.entry, &p.workloads, &cfg))
        });
        let t0 = Instant::now();
        black_box(explore(&p.module, p.entry, &p.workloads, &cfg));
        metric(
            &format!("explore_wall_us_workers_{workers}"),
            Json::UInt(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64),
        );
    }
    group.finish();
}

/// Prefix-sharing fork mode against `--no-fork` (the same sweep forking
/// at instruction zero, so every seed runs in full) across the whole
/// corpus. Reports are asserted identical before anything is timed —
/// the speedup only counts if the results are byte-equal — and the
/// per-program counters quantify where the savings come from:
/// `prefix_share_ratio` is the fraction of total scheduler steps the
/// snapshot prefix avoided re-executing, `dedup_ratio` the fraction of
/// seed units that realized their input's pilot schedule and reused
/// its result.
///
/// Each program's two modes run in turn, `FORK_REPS` rounds, and each
/// row is the median with its interquartile spread, so that load on a
/// shared host falls on both modes alike and a row's noise is in view.
fn bench_fork_prefix(c: &mut Criterion) {
    // A seed-sweep-shaped budget: enough seeds per input that the
    // shared prefix is amortized the way `run`/`campaign` amortize it.
    const RUNS_PER_INPUT: u64 = 32;
    let forked_cfg = ExplorerConfig {
        runs_per_input: RUNS_PER_INPUT,
        ..ExplorerConfig::default()
    };
    let scratch_cfg = ExplorerConfig {
        fork: false,
        ..forked_cfg.clone()
    };

    let mut group = c.benchmark_group("fork");
    let mut forked_total = 0u64;
    let mut scratch_total = 0u64;
    let mut steps_total = 0u64;
    let mut saved_total = 0u64;
    let mut deduped_total = 0u64;
    let mut runs_total = 0u64;
    for p in owl_corpus::all_programs() {
        let forked = explore(&p.module, p.entry, &p.workloads, &forked_cfg);
        let scratch = explore(&p.module, p.entry, &p.workloads, &scratch_cfg);
        assert_eq!(
            forked.reports, scratch.reports,
            "{}: fork mode changed the report stream",
            p.name
        );
        assert_eq!(
            forked.outcomes, scratch.outcomes,
            "{}: fork mode changed an execution outcome",
            p.name
        );

        let tag = p.name.to_lowercase();
        group.bench_function(&format!("explore_forked_{tag}"), |b| {
            b.iter(|| explore(&p.module, p.entry, &p.workloads, &forked_cfg))
        });
        group.bench_function(&format!("explore_scratch_{tag}"), |b| {
            b.iter(|| explore(&p.module, p.entry, &p.workloads, &scratch_cfg))
        });

        let sweep = |cfg: &ExplorerConfig| {
            black_box(explore(&p.module, p.entry, &p.workloads, cfg));
        };
        let [forked_us, scratch_us] = alternating_secs(
            FORK_REPS,
            [&|| sweep(&forked_cfg), &|| sweep(&scratch_cfg)],
        )
        .map(median_spread_us);
        forked_total += forked_us.0;
        scratch_total += scratch_us.0;
        fork_metrics(&tag, forked_us, scratch_us);
        metric(&format!("units_forked_{tag}"), Json::UInt(forked.units_forked));
        metric(
            &format!("prefix_steps_saved_{tag}"),
            Json::UInt(forked.prefix_steps_saved),
        );
        metric(
            &format!("schedules_deduped_{tag}"),
            Json::UInt(forked.schedules_deduped),
        );
        metric(&format!("snapshot_bytes_{tag}"), Json::UInt(forked.snapshot_bytes));

        steps_total += forked.outcomes.iter().map(|o| o.steps).sum::<u64>();
        saved_total += forked.prefix_steps_saved;
        deduped_total += forked.schedules_deduped;
        runs_total += forked.runs;
    }
    group.finish();

    metric("explore_forked_us_total", Json::UInt(forked_total));
    metric("explore_scratch_us_total", Json::UInt(scratch_total));
    metric(
        "fork_speedup_total",
        Json::Float(scratch_total as f64 / forked_total as f64),
    );
    metric(
        "prefix_share_ratio",
        Json::Float(if steps_total == 0 { 0.0 } else { saved_total as f64 / steps_total as f64 }),
    );
    metric(
        "dedup_ratio",
        Json::Float(if runs_total == 0 { 0.0 } else { deduped_total as f64 / runs_total as f64 }),
    );

    // The startup-weighted regime. The corpus models compress each
    // application's initialization down to a handful of instructions —
    // real OWL targets (MySQL, Apache) execute a long single-threaded
    // startup before any request thread exists, and that startup is
    // exactly what every scratch seed re-executes. This module keeps
    // the corpus's concurrent shape but restores a realistic
    // setup-to-concurrency ratio, so the row quantifies what prefix
    // sharing buys once startup is not modeled away.
    let (sm, s_entry) = startup_heavy_module();
    let s_input = [ProgramInput::empty()];
    let forked = explore(&sm, s_entry, &s_input, &forked_cfg);
    let scratch = explore(&sm, s_entry, &s_input, &scratch_cfg);
    assert_eq!(forked.reports, scratch.reports, "startup sweep: fork changed reports");
    assert_eq!(forked.outcomes, scratch.outcomes, "startup sweep: fork changed outcomes");
    assert!(!forked.reports.is_empty(), "startup sweep found no race — bench is inert");
    let mut group = c.benchmark_group("fork");
    group.bench_function("explore_forked_startup", |b| {
        b.iter(|| explore(&sm, s_entry, &s_input, &forked_cfg))
    });
    group.bench_function("explore_scratch_startup", |b| {
        b.iter(|| explore(&sm, s_entry, &s_input, &scratch_cfg))
    });
    group.finish();
    let sweep = |cfg: &ExplorerConfig| {
        black_box(explore(&sm, s_entry, &s_input, cfg));
    };
    let [forked_us, scratch_us] = alternating_secs(
        FORK_REPS,
        [&|| sweep(&forked_cfg), &|| sweep(&scratch_cfg)],
    )
    .map(median_spread_us);
    fork_metrics("startup", forked_us, scratch_us);
    metric("prefix_steps_saved_startup", Json::UInt(forked.prefix_steps_saved));
    metric("schedules_deduped_startup", Json::UInt(forked.schedules_deduped));
    metric("snapshot_bytes_startup", Json::UInt(forked.snapshot_bytes));
    let steps: u64 = forked.outcomes.iter().map(|o| o.steps).sum();
    metric(
        "prefix_share_ratio_startup",
        Json::Float(if steps == 0 { 0.0 } else { forked.prefix_steps_saved as f64 / steps as f64 }),
    );
}

/// Rounds of each fork-mode timing in [`bench_fork_prefix`].
const FORK_REPS: usize = 9;

/// The timing rows of one [`bench_fork_prefix`] sweep: median and
/// spread per mode, in microseconds, and the ratio of the medians.
fn fork_metrics(tag: &str, forked_us: (u64, u64), scratch_us: (u64, u64)) {
    metric(&format!("explore_forked_us_{tag}"), Json::UInt(forked_us.0));
    metric(&format!("explore_forked_spread_us_{tag}"), Json::UInt(forked_us.1));
    metric(&format!("explore_scratch_us_{tag}"), Json::UInt(scratch_us.0));
    metric(&format!("explore_scratch_spread_us_{tag}"), Json::UInt(scratch_us.1));
    metric(
        &format!("fork_speedup_{tag}"),
        Json::Float(scratch_us.0 as f64 / forked_us.0 as f64),
    );
}

/// See [`bench_fork_prefix`]: a service model with a realistic
/// single-threaded startup — building a table and a config area entry
/// by entry, the work the corpus models elide — before two request
/// threads race on a shared counter the way the corpus programs do.
fn startup_heavy_module() -> (Module, FuncId) {
    let mut mb = ModuleBuilder::new("startup-heavy");
    let table = mb.global("table", 512, Type::I64);
    let config = mb.global("config", 128, Type::I64);
    let racy = mb.global("hits", 1, Type::I64);
    let worker = mb.declare_func("worker", 1);
    {
        let mut b = mb.build_func(worker);
        let ta = b.global_addr(table);
        let ra = b.global_addr(racy);
        // A request: read a few table entries, bump the hit counter
        // unlocked (the corpus-style race under test).
        for k in 0..8i64 {
            let slot = b.gep(ta, (k * 37) % 512);
            b.load(slot, Type::I64);
        }
        let v = b.load(ra, Type::I64);
        b.store(ra, v);
        b.ret(None);
    }
    let main = mb.declare_func("main", 0);
    {
        let mut b = mb.build_func(main);
        let ta = b.global_addr(table);
        let ca = b.global_addr(config);
        // Startup: populate the table and config single-threaded.
        for k in 0..512i64 {
            let slot = b.gep(ta, k);
            b.store(slot, k);
        }
        for k in 0..128i64 {
            let slot = b.gep(ca, k);
            b.store(slot, k * 3);
        }
        let t1 = b.thread_create(worker, 0);
        let t2 = b.thread_create(worker, 0);
        b.thread_join(t1);
        b.thread_join(t2);
        b.ret(None);
    }
    (mb.finish(), main)
}

/// Seed retirement (ablation A10): how many schedules per workload
/// input each backend needs before it has found every race the epoch
/// backend finds at the full 8-schedule budget. Predictive backends
/// witness reorderings instead of waiting for the racy interleaving
/// to be scheduled, so they reach full coverage on fewer (often
/// single) schedules — the difference is the explorer seed budget the
/// backend retires.
fn bench_seed_retirement(_c: &mut Criterion) {
    const FULL_BUDGET: u64 = 16;
    const BACKENDS: [(&str, HbBackend); 3] = [
        ("epoch", HbBackend::Epoch),
        ("syncp", HbBackend::SyncPreserving),
        ("syncrev", HbBackend::SyncReversal),
    ];
    let sweep = |p: &owl_corpus::CorpusProgram, backend: HbBackend, runs: u64| {
        let cfg = ExplorerConfig {
            runs_per_input: runs,
            hb_backend: backend,
            ..ExplorerConfig::default()
        };
        let r = explore(&p.module, p.entry, &p.workloads, &cfg);
        r.reports
            .iter()
            .map(|rep| (rep.addr, rep.key()))
            .collect::<HashSet<_>>()
    };
    let mut attack_totals = [0u64; 3];
    let mut cost_totals = [0u64; 3];
    for p in owl_corpus::all_programs() {
        if p.attacks.is_empty() {
            continue;
        }
        // The known race set: everything the widest backend reports at
        // the full budget (a superset of every backend's full-budget
        // set, by the subsumption contract).
        let target = sweep(&p, HbBackend::SyncReversal, FULL_BUDGET);
        for (slot, &(name, backend)) in BACKENDS.iter().enumerate() {
            // Per-race seed cost: the schedule count at which this
            // backend first reports each known race (FULL_BUDGET + 1
            // for races it never reports), summed over the race set.
            // Attack coverage: the schedule count at which every known
            // attack's racy global has a report.
            let mut cost = std::collections::HashMap::new();
            let mut attacks_at = None;
            for runs in 1..=FULL_BUDGET {
                let cfg = ExplorerConfig {
                    runs_per_input: runs,
                    hb_backend: backend,
                    ..ExplorerConfig::default()
                };
                let r = explore(&p.module, p.entry, &p.workloads, &cfg);
                let found: HashSet<_> =
                    r.reports.iter().map(|rep| (rep.addr, rep.key())).collect();
                for race in target.intersection(&found) {
                    cost.entry(*race).or_insert(runs);
                }
                if attacks_at.is_none()
                    && p.attacks
                        .iter()
                        .all(|atk| r.reports_on(atk.race_global).next().is_some())
                {
                    attacks_at = Some(runs);
                }
            }
            let attacks_at = attacks_at.unwrap_or_else(|| {
                panic!("{} ({name}): attacks not covered within {FULL_BUDGET} schedules", p.name)
            });
            let seed_cost: u64 = target
                .iter()
                .map(|race| cost.get(race).copied().unwrap_or(FULL_BUDGET + 1))
                .sum();
            attack_totals[slot] += attacks_at;
            cost_totals[slot] += seed_cost;
            metric(
                &format!("schedules_to_coverage_{}_{name}", p.name.to_lowercase()),
                Json::UInt(attacks_at),
            );
            metric(
                &format!("seed_cost_{}_{name}", p.name.to_lowercase()),
                Json::UInt(seed_cost),
            );
        }
    }
    for (slot, &(name, _)) in BACKENDS.iter().enumerate() {
        metric(
            &format!("schedules_to_coverage_total_{name}"),
            Json::UInt(attack_totals[slot]),
        );
        metric(&format!("seed_cost_total_{name}"), Json::UInt(cost_totals[slot]));
        if name != "epoch" {
            metric(
                &format!("seeds_retired_{name}"),
                Json::UInt(cost_totals[0].saturating_sub(cost_totals[slot])),
            );
        }
    }

    // The lock-handoff microbenchmark: a write inside one thread's
    // critical section races with a read the other thread performs
    // after its own (empty) critical section, and an I/O delay makes
    // the writer win the lock in (virtually) every schedule. The
    // unlock→lock edge then orders the pair in every observed trace —
    // the epoch backend can only find the race in a schedule that
    // defies the delay, while sync-reversal witnesses it by reordering
    // the two critical sections from any single schedule. `0` means
    // never found within the 64-schedule budget.
    let (lh_module, lh_main) = lock_handoff_module();
    for (name, backend) in BACKENDS {
        let found = (1..=64u64).find(|&runs| {
            let cfg = ExplorerConfig {
                runs_per_input: runs,
                hb_backend: backend,
                ..ExplorerConfig::default()
            };
            explore(&lh_module, lh_main, &[ProgramInput::empty()], &cfg)
                .reports_on("g")
                .next()
                .is_some()
        });
        metric(
            &format!("lockhandoff_schedules_{name}"),
            Json::UInt(found.unwrap_or(0)),
        );
    }
}

/// See [`bench_seed_retirement`]: the sync-ordered race the epoch
/// backend needs timing luck to observe.
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

criterion_group!(
    benches,
    bench_detector_replay,
    bench_capture_handoff,
    bench_bounded_stream,
    bench_explore_scaling,
    bench_fork_prefix,
    bench_seed_retirement
);
criterion_main!(benches);
