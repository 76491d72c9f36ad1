//! Differential testing of the detector backends across the corpus.
//!
//! The epoch fast path is only allowed to be *fast* — never different.
//! For every corpus program it must produce exactly the reference
//! (vector-clock) backend's results: the identical deduplicated report
//! set, suppression counts, and cap-drop counts. Parallel exploration
//! must likewise be indistinguishable from serial exploration at any
//! worker count.

use owl_ir::{FxHashSet, InstRef};
use owl_race::{explore, ExploreResult, ExplorerConfig, HbAnnotation, HbBackend};
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
    elided_sites: Option<Arc<FxHashSet<InstRef>>>,
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
            // The epoch and reference collectors reclaim exactly the
            // same cells.
            assert_eq!(
                epoch.shadow_cells_gced, reference.shadow_cells_gced,
                "{} (workers={workers}): shadow GC counts diverge",
                p.name
            );
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

fn sweep_forked(
    p: &owl_corpus::CorpusProgram,
    backend: HbBackend,
    fork: bool,
    workers: usize,
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
/// across the corpus, under all four backends, at every worker count.
/// The fork counters must also show the machinery actually engaged
/// somewhere, or this test proves nothing.
#[test]
fn fork_mode_never_changes_results() {
    let mut total_forked = 0u64;
    let mut total_prefix_saved = 0u64;
    for p in owl_corpus::all_programs() {
        for backend in HbBackend::ALL {
            let scratch = sweep_forked(&p, backend, false, 1);
            for workers in [1usize, 2, 4] {
                let forked = sweep_forked(&p, backend, true, workers);
                let ctx = format!("{} ({backend:?}, workers={workers})", p.name);
                assert_fork_equivalent(&forked, &scratch, &ctx);
                total_forked += forked.units_forked;
                total_prefix_saved += forked.prefix_steps_saved;
            }
        }
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
