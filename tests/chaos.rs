//! Chaos suite: the pipeline under deterministic fault injection.
//!
//! Every corpus program is run with a seeded [`FaultPlan`] injecting
//! faults at 1% across three fixed seeds. The acceptance bar:
//!
//! * the supervised pipeline never panics — every injected fault is
//!   either retried past or surfaced in `quarantined` / `health`;
//! * fault injection is observable: across the seeds, faults are
//!   actually injected and accounted for;
//! * with a zeroed plan the fault layer is inert — stage counters are
//!   identical to a run without it;
//! * the same fault seed reproduces the same run.

use owl::{Owl, OwlConfig, PipelineResult, PipelineStats};
use owl_vm::FaultPlan;
use std::time::Duration;

const CHAOS_SEEDS: [u64; 3] = [11, 23, 47];
const CHAOS_RATE: f64 = 0.01;

/// The deterministic (non-`Duration`) slice of [`PipelineStats`],
/// comparable across runs.
fn counters(s: &PipelineStats) -> (usize, usize, usize, usize, usize, usize, usize, u64, u64) {
    (
        s.raw_reports,
        s.adhoc_syncs,
        s.post_annotation_reports,
        s.verifier_eliminated,
        s.remaining,
        s.vulnerable,
        s.analysis_count,
        s.analysis_work.insts_visited,
        s.analysis_work.funcs_entered,
    )
}

fn chaos_run(name: &str, seed: u64) -> PipelineResult {
    let p = owl_corpus::program(name).expect("corpus program exists");
    let cfg = OwlConfig::quick()
        .with_fault_plan(FaultPlan::uniform(seed, CHAOS_RATE))
        .with_stage_deadline(Duration::from_secs(30));
    let owl = Owl::new(&p.module, p.entry, cfg);
    owl.run(p.name, &p.workloads, &p.exploit_inputs)
}

#[test]
fn corpus_survives_fault_injection_across_seeds() {
    let mut total_faults = 0u64;
    for p in owl_corpus::all_programs() {
        for seed in CHAOS_SEEDS {
            let result = chaos_run(p.name, seed);
            assert!(
                result.error.is_none(),
                "{} seed {seed}: run-level error {:?}",
                p.name,
                result.error
            );
            total_faults += result.health.total_injected_faults();
            // Supervision accounting: quarantined entries and the
            // health counters agree, and every quarantined report
            // carries a typed cause.
            assert_eq!(
                result.health.total_quarantined(),
                result.quarantined.len() as u64,
                "{} seed {seed}",
                p.name
            );
            for q in &result.quarantined {
                assert!(!q.error.to_string().is_empty());
            }
            // Findings stay structurally sound under faults.
            for f in &result.findings {
                assert_eq!(
                    f.vulns.len(),
                    f.vuln_verifications.len(),
                    "{} seed {seed}: verifications not parallel to vulns",
                    p.name
                );
            }
        }
    }
    assert!(
        total_faults > 0,
        "1% injection across {CHAOS_SEEDS:?} must fire at least once"
    );
}

#[test]
fn atomicity_frontend_survives_fault_injection() {
    let p = owl_corpus::extensions::bank_atomicity();
    for seed in CHAOS_SEEDS {
        let cfg = OwlConfig::quick().with_fault_plan(FaultPlan::uniform(seed, CHAOS_RATE));
        let owl = Owl::new(&p.module, p.entry, cfg);
        let result = owl.run_atomicity("Bank", &p.workloads, &p.exploit_inputs);
        assert!(result.error.is_none());
        assert_eq!(
            result.health.total_quarantined(),
            result.quarantined.len() as u64
        );
    }
}

#[test]
fn zeroed_plan_is_bit_identical_to_no_fault_layer() {
    for p in owl_corpus::all_programs() {
        let base = Owl::new(&p.module, p.entry, OwlConfig::quick()).run(
            p.name,
            &p.workloads,
            &p.exploit_inputs,
        );
        let zeroed_cfg = OwlConfig::quick().with_fault_plan(FaultPlan::none());
        let zeroed =
            Owl::new(&p.module, p.entry, zeroed_cfg).run(p.name, &p.workloads, &p.exploit_inputs);
        assert_eq!(
            counters(&base.stats),
            counters(&zeroed.stats),
            "{}: zeroed fault plan must not perturb the pipeline",
            p.name
        );
        assert_eq!(base.findings.len(), zeroed.findings.len(), "{}", p.name);
        assert_eq!(base.health.total_injected_faults(), 0);
        assert_eq!(zeroed.health.total_injected_faults(), 0);
        assert!(base.quarantined.is_empty() && zeroed.quarantined.is_empty());
    }
}

#[test]
fn quarantined_units_round_trip_through_the_journal() {
    use owl::journal::JournalRecord;
    use owl::{Journal, PipelineError, Stage};
    use owl_verify::AbortCause;

    // Starve the race verifier's step budget: every report aborts and
    // is quarantined with a typed stage + cause + attempt count.
    let p = owl_corpus::program("Libsafe").expect("corpus program exists");
    let mut cfg = OwlConfig::quick();
    cfg.race_verify.run_config.max_steps = 2;

    let mut dir = std::env::temp_dir();
    dir.push(format!("owl-chaos-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");

    let mut journal = Journal::open(&path).unwrap();
    let live = Owl::new(&p.module, p.entry, cfg.clone())
        .run_with_journal(p.name, &p.workloads, &p.exploit_inputs, &mut journal)
        .expect("journal I/O is healthy");
    drop(journal);
    assert!(
        !live.quarantined.is_empty(),
        "a starved step budget must quarantine every report"
    );
    for q in &live.quarantined {
        assert!(
            matches!(
                q.error,
                PipelineError::VerifierAborted {
                    stage: Stage::RaceVerify,
                    cause: AbortCause::StepBudgetExhausted,
                    ..
                }
            ),
            "unexpected quarantine cause: {:?}",
            q.error
        );
    }

    // The journal holds one `Quarantined` record per unit, preserving
    // the typed error (stage, cause, embedded attempt count) and the
    // supervisor's own counters.
    let reopened = Journal::open(&path).unwrap();
    assert!(!reopened.recovery().recovered());
    let recorded: Vec<_> = reopened
        .records()
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Quarantined {
                error,
                attempts,
                key,
                ..
            } => Some((error.clone(), *attempts, key.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(recorded.len(), live.quarantined.len());
    for ((error, attempts, key), q) in recorded.iter().zip(&live.quarantined) {
        assert_eq!(
            error, &q.error,
            "stage, cause, and attempt count survive the round-trip"
        );
        assert!(*attempts >= 1, "the verification attempt count is kept");
        assert!(key.is_some(), "stage-3 quarantines keep their unit key");
    }
    drop(reopened);

    // Resume replays every quarantine from the journal: identical
    // errors and reports, zero re-appended records.
    let mut journal = Journal::open(&path).unwrap();
    let replayed = Owl::new(&p.module, p.entry, cfg)
        .run_with_journal(p.name, &p.workloads, &p.exploit_inputs, &mut journal)
        .expect("resume is clean");
    assert_eq!(
        journal.appends(),
        0,
        "a fully journaled program re-appends nothing on resume"
    );
    assert_eq!(replayed.quarantined.len(), live.quarantined.len());
    for (a, b) in replayed.quarantined.iter().zip(&live.quarantined) {
        assert_eq!(a.error, b.error);
        assert_eq!(a.race.key(), b.race.key());
    }
    assert_eq!(
        replayed.health.total_quarantined(),
        live.health.total_quarantined()
    );

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn same_fault_seed_reproduces_the_run() {
    let a = chaos_run("Libsafe", CHAOS_SEEDS[0]);
    let b = chaos_run("Libsafe", CHAOS_SEEDS[0]);
    assert_eq!(counters(&a.stats), counters(&b.stats));
    assert_eq!(
        a.health.total_injected_faults(),
        b.health.total_injected_faults()
    );
    assert_eq!(a.quarantined.len(), b.quarantined.len());
    assert_eq!(a.findings.len(), b.findings.len());
}
