//! Crash-recovery harness: proves the campaign's durability story.
//!
//! For a mini-corpus (Libsafe + SSDB) under fault injection, and for
//! **every** journal kill point — a hard panic fired immediately after
//! each fsync'd append — a killed-then-resumed campaign must:
//!
//! * never re-run a completed unit (final record count equals the
//!   uninterrupted run's, so no duplicates were appended);
//! * never lose a recorded finding (exactly `k` records survive a kill
//!   at append `k`);
//! * render a final summary **byte-identical** to the uninterrupted
//!   campaign's.
//!
//! Torn-tail and corrupted-checksum journals must additionally recover
//! automatically on open, surfacing the discarded byte/record counts
//! through `PipelineHealth`.
//!
//! Seeds default to the chaos set (11, 23, 47); CI shards them via the
//! `OWL_CRASH_SEEDS` environment variable.

use owl::{
    run_campaign, CampaignConfig, CampaignFault, Counter, Journal, JournalKilled, OwlConfig,
    PipelineError, ProgramOutcome,
};
use owl_corpus::CorpusProgram;
use owl_vm::FaultPlan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Once;
use std::time::Duration;

const CHAOS_RATE: f64 = 0.01;

/// Silence the default panic hook for the panics this harness fires on
/// purpose (journal kills and injected campaign faults); real panics
/// still print.
fn quiet_intentional_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let intentional = info.payload().downcast_ref::<JournalKilled>().is_some()
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.starts_with("injected campaign fault"));
            if !intentional {
                prev(info);
            }
        }));
    });
}

fn seeds() -> Vec<u64> {
    match std::env::var("OWL_CRASH_SEEDS") {
        Ok(raw) => raw
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().expect("OWL_CRASH_SEEDS must hold integers"))
            .collect(),
        Err(_) => vec![11, 23, 47],
    }
}

/// Small enough for an exhaustive kill-point sweep, large enough to
/// exercise every record type (verify, analyze, finish) across two
/// programs.
fn mini_corpus() -> Vec<CorpusProgram> {
    vec![
        owl_corpus::program("Libsafe").expect("Libsafe is in the corpus"),
        owl_corpus::program("SSDB").expect("SSDB is in the corpus"),
    ]
}

fn campaign_config(seed: u64) -> CampaignConfig {
    let owl = OwlConfig::quick().with_fault_plan(FaultPlan::uniform(seed, CHAOS_RATE));
    let mut cfg = CampaignConfig::new(owl);
    cfg.backoff_base = Duration::from_millis(1);
    cfg
}

fn scratch_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("owl-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("scratch dir");
    p
}

fn journal_len(path: &Path) -> u64 {
    let j = Journal::open(path).expect("journal reopens");
    assert!(
        !j.recovery().recovered(),
        "a cleanly killed journal needs no repair: {:?}",
        j.recovery()
    );
    j.records().len() as u64
}

#[test]
fn every_kill_point_resumes_byte_identically_across_seeds() {
    quiet_intentional_panics();
    for seed in seeds() {
        let programs = mini_corpus();
        let cfg = campaign_config(seed);

        let base = scratch_dir(&format!("baseline-{seed}"));
        let baseline = run_campaign(&base.join("journal.jsonl"), &programs, &cfg, false)
            .expect("uninterrupted campaign");
        let expected = baseline.summary.render();
        let total = baseline.summary.records;
        assert!(
            total > 10,
            "mini-corpus must journal a meaningful record stream, got {total}"
        );

        // Sweep every kill point serially AND with the full pool (the
        // mini-corpus has two programs, so 2 workers is maximal
        // parallelism): the killed-flag journal guarantees exactly `k`
        // records survive even when workers race past the kill, and
        // the record-keyed merge keeps the resumed summary
        // byte-identical to the single-worker baseline.
        for workers in [1usize, 2] {
            for kill in 1..=total {
                let dir = scratch_dir(&format!("kill-{seed}-{workers}w-{kill}"));
                let path = dir.join("journal.jsonl");
                let mut killed_cfg = cfg.clone();
                killed_cfg.kill_after_appends = Some(kill);
                killed_cfg.workers = workers;
                let payload =
                    catch_unwind(AssertUnwindSafe(|| {
                        run_campaign(&path, &programs, &killed_cfg, false)
                    }))
                    .expect_err("the armed kill point must fire");
                assert!(
                    payload.downcast_ref::<JournalKilled>().is_some(),
                    "seed {seed} workers {workers} kill {kill}: unexpected panic payload"
                );

                // Durability: exactly the records appended before the
                // kill survive — the fsync'd tail is never torn by the
                // panic, and no concurrent worker writes past it.
                assert_eq!(
                    journal_len(&path),
                    kill,
                    "seed {seed} workers {workers} kill {kill}: record count after crash"
                );

                // Resume with the kill point disarmed, same pool size.
                let mut resume_cfg = cfg.clone();
                resume_cfg.workers = workers;
                let resumed = run_campaign(&path, &programs, &resume_cfg, true)
                    .expect("resumed campaign completes");
                assert_eq!(
                    resumed.summary.records, total,
                    "seed {seed} workers {workers} kill {kill}: zero re-executed units \
                     means zero duplicate records"
                );
                assert_eq!(
                    resumed.summary.render(),
                    expected,
                    "seed {seed} workers {workers} kill {kill}: resumed summary must be \
                     byte-identical"
                );
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        let _ = std::fs::remove_dir_all(base);
    }
}

#[test]
fn torn_final_record_recovers_and_is_relogged_in_health() {
    quiet_intentional_panics();
    let seed = 11;
    let programs = mini_corpus();
    let cfg = campaign_config(seed);

    let base = scratch_dir("torn-baseline");
    let baseline = run_campaign(&base.join("journal.jsonl"), &programs, &cfg, false).unwrap();
    let expected = baseline.summary.render();
    let total = baseline.summary.records;

    let dir = scratch_dir("torn");
    let path = dir.join("journal.jsonl");
    run_campaign(&path, &programs, &cfg, false).unwrap();

    // Tear the final record mid-line, as a crash during a non-atomic
    // write would.
    let bytes = std::fs::read(&path).unwrap();
    let torn = bytes.len() - 7;
    std::fs::write(&path, &bytes[..torn]).unwrap();

    let resumed = run_campaign(&path, &programs, &cfg, true).expect("recovers automatically");
    assert!(resumed.recovery.recovered());
    assert_eq!(resumed.recovery.discarded_records, 1, "one torn record");
    assert!(resumed.recovery.discarded_bytes > 0);
    // The recovery counters surface in the consolidated health.
    assert_eq!(
        resumed.health.counters[Counter::JournalDiscardedRecords],
        1,
        "recovery must be logged in PipelineHealth"
    );
    assert!(resumed.health.counters[Counter::JournalDiscardedBytes] > 0);
    // The torn unit re-executes deterministically: no loss, no drift.
    assert_eq!(resumed.summary.records, total);
    assert_eq!(resumed.summary.render(), expected);

    let _ = std::fs::remove_dir_all(base);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupted_checksum_recovers_and_is_relogged_in_health() {
    quiet_intentional_panics();
    let seed = 23;
    let programs = mini_corpus();
    let cfg = campaign_config(seed);

    let base = scratch_dir("crc-baseline");
    let baseline = run_campaign(&base.join("journal.jsonl"), &programs, &cfg, false).unwrap();
    let expected = baseline.summary.render();
    let total = baseline.summary.records;

    let dir = scratch_dir("crc");
    let path = dir.join("journal.jsonl");
    run_campaign(&path, &programs, &cfg, false).unwrap();

    // Flip one payload byte inside the 10th record: bit rot the frame
    // survives but the checksum must catch.
    let mut bytes = std::fs::read(&path).unwrap();
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let target = line_starts[9] + 30;
    bytes[target] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let resumed = run_campaign(&path, &programs, &cfg, true).expect("recovers automatically");
    assert!(resumed.recovery.recovered());
    assert_eq!(
        resumed.recovery.discarded_records,
        total - 9,
        "everything from the corrupt record on is discarded"
    );
    assert_eq!(
        resumed.health.counters[Counter::JournalDiscardedRecords],
        total - 9
    );
    assert!(resumed.health.counters[Counter::JournalDiscardedBytes] > 0);
    // The discarded tail re-executes deterministically.
    assert_eq!(resumed.summary.records, total);
    assert_eq!(resumed.summary.render(), expected);

    let _ = std::fs::remove_dir_all(base);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn retry_backoff_and_graceful_degradation() {
    quiet_intentional_panics();
    let programs = mini_corpus();
    let mut cfg = campaign_config(47);
    cfg.max_attempts = 2;
    cfg.faults = vec![
        // Libsafe fails once, then the retry succeeds.
        CampaignFault {
            program: "Libsafe".to_string(),
            failures: 1,
        },
        // SSDB exhausts its whole budget and must be quarantined.
        CampaignFault {
            program: "SSDB".to_string(),
            failures: u64::MAX,
        },
    ];

    let dir = scratch_dir("degrade");
    let path = dir.join("journal.jsonl");
    let outcome = run_campaign(&path, &programs, &cfg, false).expect("campaign degrades, not dies");

    assert_eq!(outcome.summary.finished(), 1);
    assert_eq!(outcome.summary.quarantined(), 1);
    let libsafe = &outcome.summary.programs[0];
    assert_eq!(libsafe.program, "Libsafe");
    assert_eq!(libsafe.attempts, 2, "one failure + one successful retry");
    assert!(matches!(libsafe.outcome, ProgramOutcome::Finished(_)));
    let ssdb = &outcome.summary.programs[1];
    assert_eq!(ssdb.program, "SSDB");
    assert_eq!(ssdb.attempts, 2, "full budget spent");
    match &ssdb.outcome {
        ProgramOutcome::Quarantined(PipelineError::Panicked { message, .. }) => {
            assert!(message.contains("injected campaign fault"), "{message}");
        }
        other => panic!("SSDB must be quarantined with the panic preserved: {other:?}"),
    }
    assert!(outcome.summary.render().contains("QUARANTINED"));

    // Resume honors the quarantine: the journal is the source of truth,
    // so nothing re-runs even with the faults cleared.
    let clean = campaign_config(47);
    let resumed = run_campaign(&path, &programs, &clean, true).unwrap();
    assert_eq!(resumed.summary.records, outcome.summary.records);
    assert_eq!(resumed.summary.quarantined(), 1);

    let _ = std::fs::remove_dir_all(dir);
}
