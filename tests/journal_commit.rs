//! The journal's commit policy: one group commit per program-stage.
//!
//! A campaign journals each program's stage-3 records as one batch, its
//! stage-4–5 records as a second, and its terminal record as a third,
//! plus one commit for the campaign header. What is on disk must not
//! change with it: the same records, in the same order, byte for byte.

use owl::journal::fnv1a64;
use owl::{run_campaign, CampaignConfig, Journal, MetricsRecorder, Owl, OwlConfig, ProgramSummary};
use std::path::PathBuf;
use std::sync::Arc;

/// FNV-1a/64 of the journal a `--workers 1` quick campaign over
/// `owl_corpus::all_programs()` writes. First recorded when every
/// record still had its own fsync (`fb6363fd18159083`); re-pinned when
/// campaigns began counting their live stage-4 work in
/// `summary_cache_hits` / `summary_cache_misses`. That changed only the
/// four `ProgramFinished` records with a non-zero count: zeroing the two
/// counters and re-framing each line reproduces the old journal byte
/// for byte (`52a5db97807aa7d5`). Re-pinned again when every sweep
/// began to dedup against its pilot alone: only Memcached's
/// `ProgramFinished` record changed, `units_forked` 14 → 20 and
/// `schedules_deduped` 10 → 4; putting 14 and 10 back and re-framing
/// the line reproduces the previous journal byte for byte. Re-pinned
/// again when the trace-memory budget went: its four counters (DESIGN.md
/// §19 names them) left every `ProgramFinished` record, where each read
/// 0; putting the four zero-valued keys back in their places and
/// re-framing each line reproduces the previous journal byte for byte
/// (`684ed9e88e6047e2`).
const SERIAL_QUICK_JOURNAL_DIGEST: &str = "a913f1b417824322";

fn scratch_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("owl-commit-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("scratch dir");
    p
}

#[test]
fn quick_campaign_commits_once_per_program_stage() {
    let programs = owl_corpus::all_programs();
    for workers in [1usize, 2] {
        let dir = scratch_dir(&format!("policy-{workers}w"));
        let path = dir.join("journal.jsonl");
        let rec = Arc::new(MetricsRecorder::new());
        let cfg = CampaignConfig {
            workers,
            metrics: Some(rec.clone()),
            ..CampaignConfig::new(OwlConfig::quick())
        };
        let outcome = run_campaign(&path, &programs, &cfg, false).expect("campaign completes");
        let fsyncs = rec.counter_value("journal_fsyncs");
        let appends = rec.counter_value("journal_appends");
        assert!(
            fsyncs <= 3 * programs.len() as u64 + 1,
            "workers {workers}: {fsyncs} fsyncs for {} programs",
            programs.len()
        );
        assert_eq!(appends, outcome.summary.records, "workers {workers}");
        assert_eq!(
            appends,
            Journal::open(&path)
                .expect("journal reopens")
                .records()
                .len() as u64,
            "workers {workers}: every append is one record on disk"
        );
        assert!(appends > fsyncs, "workers {workers}: batches hold records");
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn complete_journal_replays_with_zero_fsyncs() {
    let p = owl_corpus::program("Libsafe").expect("corpus program exists");
    let owl = Owl::new(&p.module, p.entry, OwlConfig::quick());
    let dir = scratch_dir("replay");
    let path = dir.join("journal.jsonl");

    let mut journal = Journal::open(&path).expect("journal opens");
    let live = owl
        .run_with_journal(p.name, &p.workloads, &p.exploit_inputs, &mut journal)
        .expect("journal I/O is healthy");
    assert!(journal.appends() > 2, "Libsafe journals several units");
    assert_eq!(journal.fsyncs(), 2, "stage 3, then stages 4–5");
    drop(journal);

    let mut journal = Journal::open(&path).expect("journal reopens");
    let replayed = owl
        .run_with_journal(p.name, &p.workloads, &p.exploit_inputs, &mut journal)
        .expect("replay is clean");
    assert_eq!(
        journal.appends(),
        0,
        "a complete journal re-appends nothing"
    );
    assert_eq!(journal.fsyncs(), 0, "and commits nothing");
    assert_eq!(
        ProgramSummary::from_result(&replayed),
        ProgramSummary::from_result(&live)
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn serial_journal_bytes_are_pinned() {
    let programs = owl_corpus::all_programs();
    let dir = scratch_dir("pin");
    let path = dir.join("journal.jsonl");
    let cfg = CampaignConfig {
        workers: 1,
        ..CampaignConfig::new(OwlConfig::quick())
    };
    run_campaign(&path, &programs, &cfg, false).expect("campaign completes");
    let bytes = std::fs::read(&path).expect("journal reads");
    let digest = format!("{:016x}", fnv1a64(&bytes));
    assert_eq!(
        digest,
        SERIAL_QUICK_JOURNAL_DIGEST,
        "the serial quick journal's bytes changed ({} bytes)",
        bytes.len()
    );
    let _ = std::fs::remove_dir_all(dir);
}
