//! Soundness and determinism suite for the predictive detection
//! backends (`syncp`, `syncrev`).
//!
//! The contract under test:
//!
//! * **subsumption** — on every trace, a predictive backend's report
//!   set is a superset of the reference (vector-clock) backend's: the
//!   HB sweep still runs, prediction is strictly additive;
//! * **no unwitnessed reports** — every report beyond the reference
//!   set is backed by a validated witness reordering (`extra ≤
//!   predict_witnessed`), and the witness counters are internally
//!   consistent;
//! * **determinism** — reports and predict counters are byte-identical
//!   at any worker count, spilled or not;
//! * **lock discipline** — a program whose shared accesses are all
//!   protected by one mutex predicts nothing, even though the
//!   candidate enumerator considers its conflicting pairs.
//!
//! The random-program half mirrors `prop_hb.rs`: seeded programs are
//! executed once and the same trace is fed to the reference and the
//! predictive detectors, so any divergence is attributable to the
//! prediction layer alone.

use owl_ir::{FuncId, InstRef, ModuleBuilder, Type};
use owl_race::{
    explore, ExploreResult, ExplorerConfig, HbBackend, HbConfig, HbDetector, StreamConfig,
};
use owl_vm::{ProgramInput, RandomScheduler, RunConfig, TraceSink, VecSink, Vm};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;

const PREDICTIVE: [HbBackend; 2] = [HbBackend::SyncPreserving, HbBackend::SyncReversal];

fn sweep(p: &owl_corpus::CorpusProgram, backend: HbBackend, workers: usize) -> ExploreResult {
    sweep_budgeted(p, backend, workers, None, None)
}

fn sweep_budgeted(
    p: &owl_corpus::CorpusProgram,
    backend: HbBackend,
    workers: usize,
    budget: Option<u64>,
    spill_dir: Option<PathBuf>,
) -> ExploreResult {
    let cfg = ExplorerConfig {
        runs_per_input: 4,
        workers,
        hb_backend: backend,
        stream: StreamConfig {
            max_trace_mem: budget,
            spill_dir,
            ..StreamConfig::default()
        },
        ..ExplorerConfig::default()
    };
    explore(&p.module, p.entry, &p.workloads, &cfg)
}

/// Identity of a report for set comparison: address plus the
/// normalized site pair.
fn keys(r: &ExploreResult) -> BTreeSet<(u64, InstRef, InstRef)> {
    r.reports
        .iter()
        .map(|r| {
            let (a, b) = r.key();
            (r.addr, a, b)
        })
        .collect()
}

fn predict_counters(r: &ExploreResult) -> (u64, u64, u64, u64) {
    (
        r.predict_candidates,
        r.predict_witnessed,
        r.predict_witness_rejected,
        r.predict_reversal_races,
    )
}

#[test]
fn predictive_backends_subsume_reference_across_corpus() {
    for p in owl_corpus::all_programs() {
        let reference = sweep(&p, HbBackend::Reference, 1);
        let ref_keys = keys(&reference);
        for backend in PREDICTIVE {
            let pred = sweep(&p, backend, 1);
            let pred_keys = keys(&pred);
            assert!(
                ref_keys.is_subset(&pred_keys),
                "{} ({backend:?}): prediction lost reference races: {:?}",
                p.name,
                ref_keys.difference(&pred_keys).collect::<Vec<_>>()
            );
            // Anything beyond the reference set must carry a witness.
            let extra = pred_keys.difference(&ref_keys).count() as u64;
            assert!(
                extra <= pred.predict_witnessed,
                "{} ({backend:?}): {extra} extra report(s) but only {} witnessed",
                p.name,
                pred.predict_witnessed
            );
            // Counter consistency: every candidate is either witnessed
            // or rejected, and reversals are a subset of witnesses.
            assert_eq!(
                pred.predict_candidates,
                pred.predict_witnessed + pred.predict_witness_rejected,
                "{} ({backend:?})",
                p.name
            );
            assert!(pred.predict_reversal_races <= pred.predict_witnessed, "{}", p.name);
            if backend == HbBackend::SyncPreserving {
                assert_eq!(
                    pred.predict_reversal_races, 0,
                    "{}: syncp must never reverse lock order",
                    p.name
                );
            }
        }
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("owl-predict-spill-{}-{tag}", std::process::id()))
}

/// Predictions are byte-identical at any worker count and under a
/// spilling memory budget (the trace window's capacity).
#[test]
fn predictive_reports_identical_at_any_worker_count_and_capacity() {
    for p in owl_corpus::all_programs() {
        for backend in PREDICTIVE {
            let baseline = sweep(&p, backend, 1);
            for workers in [2usize, 4] {
                let r = sweep(&p, backend, workers);
                assert_eq!(
                    r.reports, baseline.reports,
                    "{} ({backend:?}, workers={workers}): reports diverge",
                    p.name
                );
                assert_eq!(predict_counters(&r), predict_counters(&baseline), "{}", p.name);
            }
            // Spilled replay must reconstruct the same trace and
            // therefore the same predictions.
            let dir = scratch_dir(&format!("{}-{}", p.name, backend.name()));
            let r = sweep_budgeted(&p, backend, 2, Some(512), Some(dir.clone()));
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(
                r.reports, baseline.reports,
                "{} ({backend:?}): spilling changed predictions",
                p.name
            );
            assert_eq!(r.units_aborted_mem_budget, 0, "{}", p.name);
            assert_eq!(predict_counters(&r), predict_counters(&baseline), "{}", p.name);
        }
    }
}

/// Two threads hammering one global, every access under the same
/// mutex: the candidate enumerator sees conflicting cross-thread
/// pairs, but no correct reordering can make them adjacent.
#[test]
fn fully_locked_program_predicts_nothing() {
    let mut mb = ModuleBuilder::new("locked");
    let g = mb.global("g", 1, Type::I64);
    let m = mb.global("m", 1, Type::I64);
    let worker = mb.declare_func("worker", 1);
    {
        let mut b = mb.build_func(worker);
        let la = b.global_addr(m);
        let ga = b.global_addr(g);
        b.lock(la);
        b.load(ga, Type::I64);
        b.store(ga, 1);
        b.unlock(la);
        b.ret(None);
    }
    let main = mb.declare_func("main", 0);
    {
        let mut b = mb.build_func(main);
        let t1 = b.thread_create(worker, 0);
        let t2 = b.thread_create(worker, 0);
        b.thread_join(t1);
        b.thread_join(t2);
        b.ret(None);
    }
    let module = mb.finish();

    for backend in PREDICTIVE {
        let cfg = ExplorerConfig {
            runs_per_input: 4,
            hb_backend: backend,
            ..ExplorerConfig::default()
        };
        let r = explore(&module, main, &[ProgramInput::empty()], &cfg);
        assert!(r.reports.is_empty(), "{backend:?}: {:?}", r.reports);
        assert_eq!(r.predict_witnessed, 0, "{backend:?}");
        assert!(
            r.predict_candidates > 0,
            "{backend:?}: the locked pairs never reached the witness check — \
             the test is inert"
        );
    }
}

// ---- random programs ---------------------------------------------------

#[derive(Clone, Debug)]
enum Action {
    Plain { g: usize, w: bool },
    Locked { l: usize, body: Vec<(usize, bool)> },
    Yield,
}

fn action_strategy(globals: usize) -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..globals, any::<bool>()).prop_map(|(g, w)| Action::Plain { g, w }),
        (0..2usize, prop::collection::vec((0..globals, any::<bool>()), 1..3))
            .prop_map(|(l, body)| Action::Locked { l, body }),
        Just(Action::Yield),
    ]
}

fn program_strategy() -> impl Strategy<Value = Vec<Vec<Action>>> {
    prop::collection::vec(prop::collection::vec(action_strategy(3), 1..6), 2..4)
}

fn build(threads: &[Vec<Action>]) -> (owl_ir::Module, FuncId) {
    let mut mb = ModuleBuilder::new("prop-predict");
    let globals: Vec<_> = (0..3)
        .map(|i| mb.global(format!("g{i}"), 1, Type::I64))
        .collect();
    let mutexes: Vec<_> = (0..2)
        .map(|i| mb.global(format!("m{i}"), 1, Type::I64))
        .collect();
    let fns: Vec<FuncId> = (0..threads.len())
        .map(|i| mb.declare_func(format!("t{i}"), 1))
        .collect();
    for (f, actions) in fns.iter().zip(threads) {
        let mut b = mb.build_func(*f);
        for a in actions {
            match a {
                Action::Plain { g, w } => {
                    let addr = b.global_addr(globals[*g]);
                    if *w {
                        b.store(addr, 1);
                    } else {
                        b.load(addr, Type::I64);
                    }
                }
                Action::Locked { l, body } => {
                    let la = b.global_addr(mutexes[*l]);
                    b.lock(la);
                    for (g, w) in body {
                        let addr = b.global_addr(globals[*g]);
                        if *w {
                            b.store(addr, 2);
                        } else {
                            b.load(addr, Type::I64);
                        }
                    }
                    b.unlock(la);
                }
                Action::Yield => {
                    b.yield_now();
                }
            }
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On the same trace, each predictive backend reports a superset
    /// of the reference backend, every extra report is witnessed, and
    /// `syncrev` subsumes `syncp` (sync reversal only relaxes the
    /// witness space, never shrinks it).
    #[test]
    fn predictive_subsumes_reference_on_random_programs(
        threads in program_strategy(),
        seed in 0u64..48,
    ) {
        let (m, main) = build(&threads);
        let mut sink = VecSink::default();
        let mut sched = RandomScheduler::new(seed);
        let vm = Vm::new(&m, main, ProgramInput::empty(), RunConfig::default());
        let _ = vm.run(&mut sched, &mut sink);

        let analyze = |backend: HbBackend| {
            let mut det = HbDetector::new(HbConfig { backend, ..HbConfig::default() });
            for ev in &sink.events {
                det.on_event(ev);
            }
            det.run_prediction();
            let stats = det.predict_stats();
            let reports = det.finish(&m);
            let keys: BTreeSet<_> = reports
                .iter()
                .map(|r| { let (a, b) = r.key(); (r.addr, a, b) })
                .collect();
            (keys, stats)
        };

        let (ref_keys, _) = analyze(HbBackend::Reference);
        let (syncp_keys, syncp) = analyze(HbBackend::SyncPreserving);
        let (syncrev_keys, syncrev) = analyze(HbBackend::SyncReversal);

        prop_assert!(ref_keys.is_subset(&syncp_keys),
            "syncp lost reference races: {:?}", ref_keys.difference(&syncp_keys).collect::<Vec<_>>());
        prop_assert!(ref_keys.is_subset(&syncrev_keys),
            "syncrev lost reference races: {:?}", ref_keys.difference(&syncrev_keys).collect::<Vec<_>>());
        prop_assert!(syncp_keys.is_subset(&syncrev_keys),
            "syncrev lost syncp races: {:?}", syncp_keys.difference(&syncrev_keys).collect::<Vec<_>>());

        let extra_p = syncp_keys.difference(&ref_keys).count() as u64;
        let extra_r = syncrev_keys.difference(&ref_keys).count() as u64;
        prop_assert!(extra_p <= syncp.witnessed);
        prop_assert!(extra_r <= syncrev.witnessed);
        prop_assert_eq!(syncp.reversal_races, 0);
        prop_assert_eq!(syncp.candidates, syncp.witnessed + syncp.witness_rejected);
        prop_assert_eq!(syncrev.candidates, syncrev.witnessed + syncrev.witness_rejected);
    }
}
