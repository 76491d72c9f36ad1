//! The daemon's crash-safe result store.
//!
//! Completed analyses are appended to a [`Journal`] as
//! [`JournalRecord::ResultCached`] lines keyed by the `(program,
//! config)` fingerprint ([`ResultStore::fingerprint`], the same
//! normalization as [`crate::campaign::campaign_fingerprint`]).
//! Duplicate submissions hit the in-memory index rebuilt from those
//! records and are answered without executing any pipeline stage; a
//! restarted daemon recovers the index through the journal's standard
//! torn-tail recovery.
//!
//! ## Group commit
//!
//! [`ResultStore::commit`] is durable on return but does **not** pay
//! one fsync per caller: committers enqueue their record under a short
//! lock and then race for the journal; the winner flushes *everything
//! queued so far* with one [`Journal::append_batch`] (a single
//! `write + fsync`), the losers wait until their ticket is covered.
//! Under a burst of completions, one fsync latency persists the whole
//! convoy — the same trick databases use for their write-ahead logs.
//!
//! A [`crate::journal::JournalKilled`] kill point firing inside a
//! flush marks the
//! store dead (waiters error out instead of blocking forever) and
//! re-raises, so the daemon dies exactly like a killed campaign.

use crate::campaign::campaign_fingerprint;
use crate::config::OwlConfig;
use crate::journal::{
    Journal, JournalError, JournalRecord, ProgramSummary, RecoveryReport,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Duration;

/// Group-commit statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Results committed (durable).
    pub commits: u64,
    /// `append_batch` flushes performed — each one fsync.
    pub batches: u64,
    /// Records covered by those flushes. `batched_records > batches`
    /// means group commit actually coalesced concurrent committers.
    pub batched_records: u64,
}

#[derive(Debug, Default)]
struct Pending {
    /// Records queued for the next flush, tickets ascending.
    queue: Vec<(u64, JournalRecord)>,
    /// Next ticket to hand out (first is 1).
    next_ticket: u64,
    /// Highest ticket durably flushed (0 = none yet).
    flushed_ticket: u64,
    /// Fingerprint → (program, summary), durable entries only.
    index: HashMap<String, (String, ProgramSummary)>,
    /// Set when a kill point or I/O error tore down a flush; every
    /// later commit fails fast instead of waiting forever.
    dead: bool,
    stats: StoreStats,
}

/// The journal-backed result store (see the module docs).
#[derive(Debug)]
pub struct ResultStore {
    pending: Mutex<Pending>,
    flushed: Condvar,
    journal: Mutex<Journal>,
    recovery: RecoveryReport,
}

fn dead_store_error() -> JournalError {
    JournalError::Io(std::io::Error::other(
        "result store is dead (a previous flush was killed or failed)",
    ))
}

impl ResultStore {
    /// Opens (creating if absent) and recovers the store journal at
    /// `path`, rebuilding the fingerprint index from its records.
    pub fn open(path: impl AsRef<Path>) -> Result<ResultStore, JournalError> {
        let journal = Journal::open(path)?;
        let recovery = journal.recovery().clone();
        let mut index = HashMap::new();
        for rec in journal.records() {
            if let JournalRecord::ResultCached {
                fingerprint,
                program,
                summary,
            } = rec
            {
                index.insert(fingerprint.clone(), (program.clone(), summary.clone()));
            }
        }
        let next_ticket = 1;
        Ok(ResultStore {
            pending: Mutex::new(Pending {
                index,
                next_ticket,
                ..Pending::default()
            }),
            flushed: Condvar::new(),
            journal: Mutex::new(journal),
            recovery,
        })
    }

    fn lock_pending(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The `(program, config)` fingerprint results are keyed by —
    /// [`campaign_fingerprint`] over the single-program list, so the
    /// same scheduling-only knobs (worker counts) are normalized out.
    pub fn fingerprint(owl: &OwlConfig, program: &str) -> String {
        campaign_fingerprint(owl, &[program.to_string()])
    }

    /// What open-time recovery found.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Arms the journal's kill point (crash testing), same contract as
    /// [`Journal::set_kill_after`].
    pub fn set_kill_after(&self, n: Option<u64>) {
        self.journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .set_kill_after(n);
    }

    /// Durable results in the store.
    pub fn len(&self) -> usize {
        self.lock_pending().index.len()
    }

    /// Whether the store holds no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Group-commit statistics so far.
    pub fn stats(&self) -> StoreStats {
        self.lock_pending().stats
    }

    /// The durable result for `fingerprint`, if any.
    pub fn lookup(&self, fingerprint: &str) -> Option<(String, ProgramSummary)> {
        self.lock_pending().index.get(fingerprint).cloned()
    }

    /// Durably commits one result. Returns once the record — and, via
    /// group commit, every record queued before it — is fsync'd.
    /// Re-committing an already-stored fingerprint is a no-op.
    pub fn commit(
        &self,
        fingerprint: String,
        program: String,
        summary: ProgramSummary,
    ) -> Result<(), JournalError> {
        let ticket = {
            let mut p = self.lock_pending();
            if p.dead {
                return Err(dead_store_error());
            }
            if p.index.contains_key(&fingerprint) {
                return Ok(());
            }
            let ticket = p.next_ticket;
            p.next_ticket += 1;
            p.queue.push((
                ticket,
                JournalRecord::ResultCached {
                    fingerprint,
                    program,
                    summary,
                },
            ));
            ticket
        };
        loop {
            {
                let p = self.lock_pending();
                if p.flushed_ticket >= ticket {
                    return Ok(());
                }
                if p.dead {
                    return Err(dead_store_error());
                }
            }
            match self.journal.try_lock() {
                Ok(mut journal) => self.flush_as_leader(&mut journal)?,
                Err(TryLockError::Poisoned(poisoned)) => {
                    self.flush_as_leader(&mut poisoned.into_inner())?
                }
                Err(TryLockError::WouldBlock) => {
                    // Another committer is flushing; park briefly. The
                    // timeout (not a pure wait) covers the race where
                    // the leader finished between our ticket check and
                    // this wait.
                    let p = self.lock_pending();
                    if p.flushed_ticket >= ticket || p.dead {
                        continue;
                    }
                    let _ = self
                        .flushed
                        .wait_timeout(p, Duration::from_millis(5))
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Steals the whole pending queue and flushes it with one
    /// [`Journal::append_batch`]. Caller holds the journal lock (the
    /// flush-leader token).
    fn flush_as_leader(&self, journal: &mut Journal) -> Result<(), JournalError> {
        let batch: Vec<(u64, JournalRecord)> = {
            let mut p = self.lock_pending();
            std::mem::take(&mut p.queue)
        };
        if batch.is_empty() {
            // A previous leader covered our record; the caller's loop
            // re-checks its ticket.
            return Ok(());
        }
        let max_ticket = batch.last().expect("non-empty batch").0;
        let records: Vec<JournalRecord> = batch.iter().map(|(_, r)| r.clone()).collect();
        let count = records.len() as u64;
        let flushed = catch_unwind(AssertUnwindSafe(|| journal.append_batch(records)));
        match flushed {
            Ok(Ok(())) => {
                let mut p = self.lock_pending();
                p.flushed_ticket = max_ticket;
                p.stats.batches += 1;
                p.stats.batched_records += count;
                p.stats.commits += count;
                for (_, rec) in batch {
                    if let JournalRecord::ResultCached {
                        fingerprint,
                        program,
                        summary,
                    } = rec
                    {
                        p.index.insert(fingerprint, (program, summary));
                    }
                }
                drop(p);
                self.flushed.notify_all();
                Ok(())
            }
            Ok(Err(e)) => {
                self.mark_dead();
                Err(e)
            }
            Err(payload) => {
                // The armed kill point fired mid-flush. Some prefix of
                // the batch is durable (append_batch cut it on a record
                // boundary); mark the store dead so waiters fail fast,
                // then die like the process would.
                self.mark_dead();
                resume_unwind(payload);
            }
        }
    }

    fn mark_dead(&self) {
        let mut p = self.lock_pending();
        p.dead = true;
        drop(p);
        self.flushed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("owl-store-test-{}-{tag}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn summary(raw: usize) -> ProgramSummary {
        ProgramSummary {
            raw_reports: raw,
            ..ProgramSummary::default()
        }
    }

    #[test]
    fn commit_lookup_and_reopen() {
        let path = tmp_path("roundtrip");
        {
            let store = ResultStore::open(&path).unwrap();
            store
                .commit("fp-a".into(), "Libsafe".into(), summary(2))
                .unwrap();
            store
                .commit("fp-b".into(), "SSDB".into(), summary(5))
                .unwrap();
            assert_eq!(store.len(), 2);
            let (program, s) = store.lookup("fp-a").unwrap();
            assert_eq!(program, "Libsafe");
            assert_eq!(s.raw_reports, 2);
            assert!(store.lookup("fp-missing").is_none());
        }
        // A fresh handle rebuilds the index from the journal.
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.lookup("fp-b").unwrap().1.raw_reports, 5);
        assert!(!store.recovery().recovered());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_fingerprint_commit_is_a_noop() {
        let path = tmp_path("dup");
        let store = ResultStore::open(&path).unwrap();
        store
            .commit("fp".into(), "Libsafe".into(), summary(1))
            .unwrap();
        store
            .commit("fp".into(), "Libsafe".into(), summary(9))
            .unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().commits, 1, "second commit wrote nothing");
        assert_eq!(store.lookup("fp").unwrap().1.raw_reports, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_commits_all_become_durable() {
        let path = tmp_path("concurrent");
        let store = Arc::new(ResultStore::open(&path).unwrap());
        let threads: Vec<_> = (0..16)
            .map(|i| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    store
                        .commit(format!("fp-{i}"), format!("P{i}"), summary(i))
                        .unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.commits, 16);
        assert_eq!(stats.batched_records, 16);
        assert!(stats.batches <= 16, "never more flushes than commits");
        drop(store);
        let reopened = ResultStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 16, "every commit survived reopen");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn killed_flush_marks_store_dead_and_recovers_on_reopen() {
        let path = tmp_path("killed");
        let store = ResultStore::open(&path).unwrap();
        store
            .commit("fp-0".into(), "P0".into(), summary(0))
            .unwrap();
        store.set_kill_after(Some(2));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            store.commit("fp-1".into(), "P1".into(), summary(1))
        }))
        .expect_err("kill point fires during the flush");
        assert!(
            err.downcast_ref::<crate::journal::JournalKilled>().is_some(),
            "JournalKilled re-raised"
        );
        // The store is dead: later commits fail fast instead of
        // blocking on a flush that will never come.
        assert!(store
            .commit("fp-2".into(), "P2".into(), summary(2))
            .is_err());
        drop(store);
        // The killed record was fsync'd before the panic — reopening
        // recovers both.
        let reopened = ResultStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!(!reopened.recovery().recovered());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_normalizes_scheduling_knobs() {
        let quick = OwlConfig::quick();
        let fp = ResultStore::fingerprint(&quick, "Libsafe");
        let mut pooled = OwlConfig::quick();
        pooled.detect.workers = 8;
        assert_eq!(fp, ResultStore::fingerprint(&pooled, "Libsafe"));
        let mut tagged = OwlConfig::quick();
        tagged.detect.stream.tag_prefix = "req7".to_string();
        assert_eq!(fp, ResultStore::fingerprint(&tagged, "Libsafe"));
        assert_ne!(fp, ResultStore::fingerprint(&quick, "SSDB"));
        assert_ne!(fp, ResultStore::fingerprint(&OwlConfig::default(), "Libsafe"));
    }
}
