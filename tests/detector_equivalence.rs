//! Differential testing of the detector backends across the corpus.
//!
//! The epoch fast path is only allowed to be *fast* — never different.
//! For every corpus program it must produce exactly the reference
//! (vector-clock) backend's results: the identical deduplicated report
//! set, suppression counts, and cap-drop counts. Parallel exploration
//! must likewise be indistinguishable from serial exploration at any
//! worker count.

use owl_ir::InstRef;
use owl_race::{explore, ExploreResult, ExplorerConfig, HbAnnotation, HbBackend, StreamConfig};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

fn sweep(
    p: &owl_corpus::CorpusProgram,
    backend: HbBackend,
    workers: usize,
    annotations: Vec<HbAnnotation>,
) -> ExploreResult {
    sweep_elided(p, backend, workers, annotations, None)
}

fn sweep_elided(
    p: &owl_corpus::CorpusProgram,
    backend: HbBackend,
    workers: usize,
    annotations: Vec<HbAnnotation>,
    elided_sites: Option<Arc<HashSet<InstRef>>>,
) -> ExploreResult {
    let cfg = ExplorerConfig {
        runs_per_input: 4,
        workers,
        hb_backend: backend,
        annotations,
        elided_sites,
        ..ExplorerConfig::default()
    };
    explore(&p.module, p.entry, &p.workloads, &cfg)
}

#[test]
fn epoch_backend_matches_reference_across_corpus() {
    for p in owl_corpus::all_programs() {
        let reference = sweep(&p, HbBackend::Reference, 1, Vec::new());
        for workers in [1usize, 2, 4] {
            let epoch = sweep(&p, HbBackend::Epoch, workers, Vec::new());
            assert_eq!(
                epoch.reports, reference.reports,
                "{} (workers={workers}): epoch reports diverge",
                p.name
            );
            assert_eq!(epoch.suppressed, reference.suppressed, "{}", p.name);
            assert_eq!(epoch.reports_dropped, reference.reports_dropped, "{}", p.name);
            assert_eq!(epoch.runs, reference.runs, "{}", p.name);
        }

        // Annotating every discovered pair as adhoc sync must drive
        // both backends down the same suppression path.
        let annotations: Vec<HbAnnotation> = reference
            .reports
            .iter()
            .map(|r| {
                let (write_site, read_site) = r.key();
                HbAnnotation {
                    write_site,
                    read_site,
                }
            })
            .collect();
        if annotations.is_empty() {
            continue;
        }
        let ref_ann = sweep(&p, HbBackend::Reference, 1, annotations.clone());
        let epoch_ann = sweep(&p, HbBackend::Epoch, 4, annotations);
        assert_eq!(epoch_ann.reports, ref_ann.reports, "{} annotated", p.name);
        assert_eq!(epoch_ann.suppressed, ref_ann.suppressed, "{} annotated", p.name);
        assert_eq!(
            epoch_ann.reports_dropped, ref_ann.reports_dropped,
            "{} annotated",
            p.name
        );
    }
}

/// The check-elision pre-pass is only allowed to *skip work* — never
/// to change results. With the elided site set installed, the epoch
/// backend must still match the un-elided reference backend exactly,
/// at every worker count, and elision must actually fire somewhere in
/// the corpus (otherwise this test proves nothing).
#[test]
fn elision_never_changes_report_streams() {
    let mut total_elided_events = 0;
    for p in owl_corpus::all_programs() {
        let pre = owl_static::ElisionPrepass::run(&p.module, p.entry);
        let elided = pre.elided_sites();
        let reference = sweep(&p, HbBackend::Reference, 1, Vec::new());
        let epoch_plain = sweep(&p, HbBackend::Epoch, 1, Vec::new());
        for workers in [1usize, 2, 4] {
            let e = sweep_elided(
                &p,
                HbBackend::Epoch,
                workers,
                Vec::new(),
                Some(Arc::clone(&elided)),
            );
            assert_eq!(
                e.reports, reference.reports,
                "{} (workers={workers}): elided epoch diverges from reference",
                p.name
            );
            assert_eq!(e.suppressed, reference.suppressed, "{}", p.name);
            assert_eq!(e.reports_dropped, reference.reports_dropped, "{}", p.name);
            assert_eq!(e.runs, reference.runs, "{}", p.name);
            assert_eq!(
                e.reports, epoch_plain.reports,
                "{} (workers={workers}): elision changed the epoch backend's reports",
                p.name
            );
            total_elided_events += e.events_elided;
        }
    }
    assert!(
        total_elided_events > 0,
        "elision never fired across the whole corpus — the pre-pass is inert"
    );
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("owl-eq-spill-{}-{tag}", std::process::id()))
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

/// The spill layer is only allowed to bound *memory* — never to
/// change results. Across the corpus, a spilling budget must produce
/// the unbounded run's report stream at every worker count.
#[test]
fn streaming_and_spill_never_change_report_streams() {
    for p in owl_corpus::all_programs() {
        let baseline = sweep_budgeted(&p, HbBackend::Epoch, 1, None, None);
        let dir = scratch_dir(p.name);
        for workers in [1usize, 2, 4] {
            let s = sweep_budgeted(&p, HbBackend::Epoch, workers, Some(512), Some(dir.clone()));
            assert_eq!(
                s.reports, baseline.reports,
                "{} (workers={workers}): spilling changed the report stream",
                p.name
            );
            assert_eq!(s.suppressed, baseline.suppressed, "{}", p.name);
            assert_eq!(s.reports_dropped, baseline.reports_dropped, "{}", p.name);
            assert_eq!(
                s.units_aborted_mem_budget, 0,
                "{} (workers={workers}): spill path aborted despite a spill dir",
                p.name
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A trace at least 10× the memory budget must complete under the
/// bounded pipeline with byte-identical reports, and both backends
/// must degrade identically (same reports *and* the same GC count —
/// the epoch and reference collectors reclaim exactly the same cells).
#[test]
fn trace_ten_times_budget_completes_with_identical_reports() {
    let p = owl_corpus::program("MySQL").expect("corpus program");
    let budget = 256u64;
    let baseline = sweep_budgeted(&p, HbBackend::Epoch, 1, None, None);

    let dir = scratch_dir("tenx-epoch");
    let epoch = sweep_budgeted(&p, HbBackend::Epoch, 1, Some(budget), Some(dir.clone()));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(epoch.reports, baseline.reports, "bounded epoch diverges");
    assert_eq!(epoch.units_aborted_mem_budget, 0);
    assert!(
        epoch.trace_spilled_bytes >= 10 * budget,
        "trace only spilled {} bytes against a {budget}-byte budget — \
         not a 10x-over-budget workload",
        epoch.trace_spilled_bytes
    );
    assert!(epoch.trace_spill_segments > 0);

    let dir = scratch_dir("tenx-ref");
    let reference = sweep_budgeted(&p, HbBackend::Reference, 1, Some(budget), Some(dir.clone()));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        reference.reports, epoch.reports,
        "backends diverge under memory pressure"
    );
    assert_eq!(
        reference.shadow_cells_gced, epoch.shadow_cells_gced,
        "shadow GC reclaimed different cell counts across backends"
    );
    assert_eq!(reference.trace_spilled_bytes, epoch.trace_spilled_bytes);
    assert_eq!(reference.trace_spill_segments, epoch.trace_spill_segments);
}

/// Over the hard limit with nowhere to spill, the unit must abort with
/// the typed memory-budget verdict — a `PipelineResult` error the
/// campaign can quarantine — never an OOM or a silent truncation.
#[test]
fn over_budget_unit_aborts_with_typed_memory_budget_error() {
    let p = owl_corpus::program("MySQL").expect("corpus program");
    let mut cfg = owl::OwlConfig::quick();
    cfg.detect.stream.max_trace_mem = Some(64);
    cfg.detect.stream.spill_dir = None;
    let owl_pipeline = owl::Owl::new(&p.module, p.entry, cfg);
    let result = owl_pipeline.run(p.name, &p.workloads, &p.exploit_inputs);
    match &result.error {
        Some(owl::PipelineError::VerifierAborted {
            stage,
            cause,
            attempts,
        }) => {
            assert_eq!(*stage, owl::Stage::Detect);
            assert_eq!(*cause, owl::owl_verify::AbortCause::MemoryBudget);
            assert!(*attempts > 0, "abort carries no unit count");
        }
        other => panic!("expected a typed memory-budget abort, got {other:?}"),
    }
    assert!(result.findings.is_empty());
    assert!(result.health.counters[owl::Counter::UnitsAbortedMemBudget] > 0);
    assert!(result.health.counters[owl::Counter::MemPressureEvents] > 0);
}

fn sweep_forked(
    p: &owl_corpus::CorpusProgram,
    backend: HbBackend,
    fork: bool,
    workers: usize,
    budget: Option<u64>,
    spill_dir: Option<PathBuf>,
) -> ExploreResult {
    let cfg = ExplorerConfig {
        runs_per_input: 4,
        workers,
        hb_backend: backend,
        fork,
        stream: StreamConfig {
            max_trace_mem: budget,
            spill_dir,
            ..StreamConfig::default()
        },
        ..ExplorerConfig::default()
    };
    explore(&p.module, p.entry, &p.workloads, &cfg)
}

/// Asserts fork-on and fork-off produced byte-identical results:
/// reports, outcomes (schedules, violations, outputs, fault records),
/// and every pre-existing counter. The four fork counters are the one
/// permitted difference — they describe *how* the sweep executed, not
/// what it found.
fn assert_fork_equivalent(forked: &ExploreResult, scratch: &ExploreResult, ctx: &str) {
    assert_eq!(forked.reports, scratch.reports, "{ctx}: reports diverge");
    assert_eq!(forked.outcomes, scratch.outcomes, "{ctx}: outcomes diverge");
    assert_eq!(forked.runs, scratch.runs, "{ctx}");
    assert_eq!(forked.suppressed, scratch.suppressed, "{ctx}");
    assert_eq!(forked.reports_dropped, scratch.reports_dropped, "{ctx}");
    assert_eq!(forked.injected_faults, scratch.injected_faults, "{ctx}");
    assert_eq!(forked.events_elided, scratch.events_elided, "{ctx}");
    assert_eq!(forked.shadow_cells_gced, scratch.shadow_cells_gced, "{ctx}");
    assert_eq!(
        forked.trace_spilled_bytes, scratch.trace_spilled_bytes,
        "{ctx}: spill bytes diverge"
    );
    assert_eq!(
        forked.trace_spill_segments, scratch.trace_spill_segments,
        "{ctx}"
    );
    assert_eq!(
        forked.mem_pressure_events, scratch.mem_pressure_events,
        "{ctx}"
    );
    assert_eq!(
        forked.units_aborted_mem_budget, scratch.units_aborted_mem_budget,
        "{ctx}"
    );
    assert_eq!(
        (
            forked.predict_candidates,
            forked.predict_witnessed,
            forked.predict_witness_rejected,
            forked.predict_reversal_races,
            forked.predict_capped
        ),
        (
            scratch.predict_candidates,
            scratch.predict_witnessed,
            scratch.predict_witness_rejected,
            scratch.predict_reversal_races,
            scratch.predict_capped
        ),
        "{ctx}: predict counters diverge"
    );
    assert_eq!(
        (
            scratch.units_forked,
            scratch.prefix_steps_saved,
            scratch.schedules_deduped,
            scratch.snapshot_bytes
        ),
        (0, 0, 0, 0),
        "{ctx}: scratch mode must report zero fork counters"
    );
}

/// Prefix-sharing fork mode is only allowed to *skip re-execution* —
/// never to change results. Fork-on must match fork-off byte-for-byte
/// across the corpus, under all four backends, at every worker count,
/// and under a spill budget. The fork counters must also show the
/// machinery actually engaged somewhere, or this test proves nothing.
#[test]
fn fork_mode_never_changes_results() {
    let mut total_forked = 0u64;
    let mut total_prefix_saved = 0u64;
    for p in owl_corpus::all_programs() {
        for backend in HbBackend::ALL {
            let scratch = sweep_forked(&p, backend, false, 1, None, None);
            for workers in [1usize, 2, 4] {
                let forked = sweep_forked(&p, backend, true, workers, None, None);
                let ctx = format!("{} ({backend:?}, workers={workers})", p.name);
                assert_fork_equivalent(&forked, &scratch, &ctx);
                total_forked += forked.units_forked;
                total_prefix_saved += forked.prefix_steps_saved;
            }
        }
        // Under a spill budget the per-unit spill/pressure counters
        // must still come out identical: the forked units inherit the
        // shared prefix's window state and spill at the same event
        // boundaries a scratch unit would.
        let dir_scratch = scratch_dir(&format!("fork-off-{}", p.name));
        let dir_forked = scratch_dir(&format!("fork-on-{}", p.name));
        let scratch = sweep_forked(
            &p,
            HbBackend::Epoch,
            false,
            1,
            Some(512),
            Some(dir_scratch.clone()),
        );
        for workers in [1usize, 2, 4] {
            let forked = sweep_forked(
                &p,
                HbBackend::Epoch,
                true,
                workers,
                Some(512),
                Some(dir_forked.clone()),
            );
            assert_fork_equivalent(
                &forked,
                &scratch,
                &format!("{} (budgeted, workers={workers})", p.name),
            );
        }
        let _ = std::fs::remove_dir_all(&dir_scratch);
        let _ = std::fs::remove_dir_all(&dir_forked);
    }
    assert!(
        total_forked > 0,
        "fork mode never launched a unit from a snapshot across the corpus — inert"
    );
    assert!(
        total_prefix_saved > 0,
        "fork mode never saved a prefix step across the corpus — inert"
    );
}

#[test]
fn parallel_exploration_matches_serial_for_both_backends() {
    for p in owl_corpus::all_programs() {
        for backend in [HbBackend::Reference, HbBackend::Epoch] {
            let serial = sweep(&p, backend, 1, Vec::new());
            let pooled = sweep(&p, backend, 4, Vec::new());
            assert_eq!(
                pooled.reports, serial.reports,
                "{} ({backend:?}): workers=4 diverges from serial",
                p.name
            );
            assert_eq!(pooled.suppressed, serial.suppressed, "{}", p.name);
            assert_eq!(pooled.reports_dropped, serial.reports_dropped, "{}", p.name);
            assert_eq!(pooled.runs, serial.runs, "{}", p.name);
        }
    }
}
