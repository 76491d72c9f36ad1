//! Crash-safe, corpus-wide campaign execution.
//!
//! A campaign sweeps a list of corpus programs through the full
//! pipeline against one durable [`Journal`]:
//!
//! * every completed pipeline unit is journaled, one group commit per
//!   program-stage (see [`crate::journal`]), so killing the process
//!   loses at most the program-stage in flight;
//! * each program runs under `catch_unwind` isolation with a bounded
//!   retry budget and seeded exponential backoff + jitter
//!   ([`backoff_delay`]);
//! * a program that exhausts its budget is **quarantined into the
//!   journal** and the campaign degrades gracefully — the remaining
//!   programs still run;
//! * the final consolidated summary ([`CampaignSummary`]) is
//!   reconstructed purely from journal records, never from in-memory
//!   state, so a resumed campaign renders byte-identically to an
//!   uninterrupted one.
//!
//! The one panic the supervisor deliberately does **not** absorb is
//! the journal's own kill point ([`JournalKilled`]): it simulates the
//! process dying and must propagate like a real `SIGKILL`.

use crate::config::OwlConfig;
use crate::counters::Counter;
use crate::journal::{
    encode_error, encode_summary, Journal, JournalError, JournalKilled, JournalRecord,
    ProgramSummary, RecoveryReport, SharedJournal,
};
use crate::json::Json;
use crate::metrics::MetricsRecorder;
use crate::pipeline::{
    absorb_attempts, apply_quarantine_health, Owl, PipelineError, PipelineHealth, PipelineResult,
    Stage,
};
use crate::queue::{DeadlineQueue, Pop};
use owl_corpus::CorpusProgram;
use owl_race::spill::fnv1a64;
use owl_verify::VerifyOutcome;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A config-level fault: force the named program's first `failures`
/// attempts to panic before any stage runs. Exercises the retry,
/// backoff, and graceful-degradation paths deterministically.
#[derive(Clone, Debug)]
pub struct CampaignFault {
    /// Program to sabotage.
    pub program: String,
    /// Attempts that fail before one is allowed to succeed. Set it at
    /// or above the campaign's retry budget to force quarantine.
    pub failures: u64,
}

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Pipeline configuration applied to every program.
    pub owl: OwlConfig,
    /// Attempts per program before it is quarantined (≥ 1).
    pub max_attempts: u64,
    /// Base delay of the exponential backoff between attempts.
    pub backoff_base: Duration,
    /// Seed for the backoff jitter.
    pub backoff_seed: u64,
    /// Arms the journal's hard kill point: panic with
    /// [`JournalKilled`] after this many appends (crash testing).
    pub kill_after_appends: Option<u64>,
    /// Injected campaign-level faults.
    pub faults: Vec<CampaignFault>,
    /// Worker threads executing programs concurrently (≥ 1; 0 is
    /// treated as 1). Excluded from the campaign fingerprint: the
    /// consolidated summary is byte-identical for any worker count, so
    /// a journal may be resumed under a different one.
    pub workers: usize,
    /// Optional shared metrics recorder; every worker reports stage
    /// spans, queue waits, and counters into it.
    pub metrics: Option<Arc<MetricsRecorder>>,
}

impl CampaignConfig {
    /// A campaign over `owl` with 3 attempts per program and a 100 ms
    /// backoff base.
    pub fn new(owl: OwlConfig) -> Self {
        CampaignConfig {
            owl,
            max_attempts: 3,
            backoff_base: Duration::from_millis(100),
            backoff_seed: 0,
            kill_after_appends: None,
            faults: Vec::new(),
            workers: 1,
            metrics: None,
        }
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig::new(OwlConfig::default())
    }
}

/// The deterministic retry delay before attempt `attempt + 1`
/// (1-based `attempt` = the attempt that just failed): exponential in
/// the attempt number with seeded jitter in `[0, exp/2]`, capped at
/// 30 s. Pure — equal inputs give equal delays, so retry schedules
/// are reproducible.
///
/// The jitter draw mixes in the *program name*, not just the seed and
/// attempt: with only `(seed, attempt)` every program retrying at the
/// same attempt number would get an identical delay and a concurrent
/// campaign would release the whole cohort at the same instant — a
/// synchronized retry stampede. Distinct programs now spread across
/// the jitter window while each one's schedule stays reproducible.
pub fn backoff_delay(base: Duration, program: &str, attempt: u64, seed: u64) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(16) as u32);
    let exp_ns = exp.as_nanos().min(u64::MAX as u128) as u64;
    let mut key = Vec::with_capacity(16 + program.len());
    key.extend_from_slice(&seed.to_le_bytes());
    key.extend_from_slice(&attempt.to_le_bytes());
    key.extend_from_slice(program.as_bytes());
    let draw = fnv1a64(&key);
    let jitter_ns = if exp_ns == 0 { 0 } else { draw % (exp_ns / 2 + 1) };
    (exp + Duration::from_nanos(jitter_ns)).min(Duration::from_secs(30))
}

/// Fingerprint of a campaign's identity: configuration plus program
/// list. A journal written under a different fingerprint is refused on
/// resume rather than silently mixed.
pub fn campaign_fingerprint(owl: &OwlConfig, programs: &[String]) -> String {
    // The explorer worker count only changes scheduling, never results
    // (the merge is deterministic), so a journal may be resumed under a
    // different --explore-workers: normalize it out, the same rule as
    // [`CampaignConfig::workers`].
    let mut owl = owl.clone();
    owl.detect.workers = 1;
    // Spill plumbing is scheduling-only too: the spill directory,
    // segment naming, and fault-injection switches never change
    // results (reports are byte-identical at any setting),
    // so normalize them out as well. `max_trace_mem` stays — a unit
    // that blows the hard budget is *aborted*, which is an observable
    // result difference.
    let max_trace_mem = owl.detect.stream.max_trace_mem;
    owl.detect.stream = owl_race::StreamConfig {
        max_trace_mem,
        ..owl_race::StreamConfig::default()
    };
    // Prefix-sharing fork mode is an execution strategy, not a result
    // knob — reports and outcomes are byte-identical fork on or off —
    // so a journal may be resumed across `--no-fork`.
    owl.detect.fork = true;
    let ident = format!("{owl:?}|{programs:?}");
    format!("{:016x}", fnv1a64(ident.as_bytes()))
}

/// Terminal status of one program within a campaign.
#[derive(Clone, Debug, PartialEq)]
pub enum ProgramOutcome {
    /// Ran to completion; the journaled summary.
    Finished(ProgramSummary),
    /// Exhausted its retry budget (or could not start); the journaled
    /// error.
    Quarantined(PipelineError),
    /// No terminal record yet (the campaign was interrupted before
    /// reaching it).
    Pending,
}

/// One program's row in the consolidated summary.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramStatus {
    /// Program name.
    pub program: String,
    /// Campaign attempts spent (0 while pending).
    pub attempts: u64,
    /// Terminal status.
    pub outcome: ProgramOutcome,
}

/// The consolidated campaign summary, reconstructed purely from
/// journal records.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSummary {
    /// Per-program status in campaign order.
    pub programs: Vec<ProgramStatus>,
    /// Total journal records the summary was built from.
    pub records: u64,
    /// `ReportVerified` units recorded.
    pub reports_verified: u64,
    /// `FindingAnalyzed` units recorded.
    pub findings_analyzed: u64,
    /// `Quarantined` units recorded.
    pub units_quarantined: u64,
}

impl CampaignSummary {
    /// Rebuilds the summary from a journal's record stream. Only
    /// journal data is consulted — no live pipeline state — which is
    /// what makes a resumed campaign's summary byte-identical to an
    /// uninterrupted run's.
    pub fn from_records(records: &[JournalRecord]) -> Self {
        let mut programs: Vec<ProgramStatus> = Vec::new();
        let mut reports_verified = 0u64;
        let mut findings_analyzed = 0u64;
        let mut units_quarantined = 0u64;
        for rec in records {
            match rec {
                JournalRecord::CampaignStarted { programs: ps, .. } => {
                    for p in ps {
                        programs.push(ProgramStatus {
                            program: p.clone(),
                            attempts: 0,
                            outcome: ProgramOutcome::Pending,
                        });
                    }
                }
                JournalRecord::ReportVerified { .. } => reports_verified += 1,
                JournalRecord::FindingAnalyzed { .. } => findings_analyzed += 1,
                JournalRecord::Quarantined { .. } => units_quarantined += 1,
                JournalRecord::ProgramFinished {
                    program,
                    attempts,
                    summary,
                    ..
                } => {
                    set_status(
                        &mut programs,
                        program,
                        *attempts,
                        ProgramOutcome::Finished(summary.clone()),
                    );
                }
                JournalRecord::ProgramQuarantined {
                    program,
                    attempts,
                    error,
                } => {
                    set_status(
                        &mut programs,
                        program,
                        *attempts,
                        ProgramOutcome::Quarantined(error.clone()),
                    );
                }
                // Serve-store records are not campaign state.
                JournalRecord::ResultCached { .. } => {}
            }
        }
        CampaignSummary {
            programs,
            records: records.len() as u64,
            reports_verified,
            findings_analyzed,
            units_quarantined,
        }
    }

    /// Programs with a [`ProgramOutcome::Finished`] record.
    pub fn finished(&self) -> usize {
        self.programs
            .iter()
            .filter(|p| matches!(p.outcome, ProgramOutcome::Finished(_)))
            .count()
    }

    /// Programs quarantined at the campaign level.
    pub fn quarantined(&self) -> usize {
        self.programs
            .iter()
            .filter(|p| matches!(p.outcome, ProgramOutcome::Quarantined(_)))
            .count()
    }

    /// Programs with no terminal record.
    pub fn pending(&self) -> usize {
        self.programs
            .iter()
            .filter(|p| p.outcome == ProgramOutcome::Pending)
            .count()
    }

    /// Vulnerable findings across every finished program.
    pub fn total_vulnerable(&self) -> usize {
        self.programs
            .iter()
            .filter_map(|p| match &p.outcome {
                ProgramOutcome::Finished(s) => Some(s.vulnerable),
                _ => None,
            })
            .sum()
    }

    /// Renders the deterministic plain-text summary — the artifact the
    /// crash-recovery tests compare byte-for-byte between interrupted
    /// and uninterrupted campaigns. Contains no wall-clock data.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== campaign summary ==");
        let _ = writeln!(
            out,
            "programs: {} finished, {} quarantined, {} pending",
            self.finished(),
            self.quarantined(),
            self.pending()
        );
        for p in &self.programs {
            match &p.outcome {
                ProgramOutcome::Finished(s) => {
                    let _ = writeln!(
                        out,
                        "{} [{} attempt(s)]: {} raw -> {} annotated -> {} verified \
                         ({} eliminated), {} vulnerable, {} adhoc sync(s), \
                         {} fault(s) injected, {} unit(s) quarantined",
                        p.program,
                        p.attempts,
                        s.raw_reports,
                        s.post_annotation_reports,
                        s.remaining,
                        s.verifier_eliminated,
                        s.vulnerable,
                        s.adhoc_syncs,
                        s.injected_faults,
                        s.quarantined
                    );
                    for f in &s.findings {
                        let _ = write!(out, "  `{}`:", f.global);
                        for h in &f.hints {
                            let _ = write!(
                                out,
                                " {}/{}{}",
                                h.class,
                                h.dep,
                                if h.reached { " REACHED" } else { "" }
                            );
                        }
                        let _ = writeln!(out);
                    }
                }
                ProgramOutcome::Quarantined(e) => {
                    let _ = writeln!(
                        out,
                        "{} [{} attempt(s)]: QUARANTINED — {e}",
                        p.program, p.attempts
                    );
                }
                ProgramOutcome::Pending => {
                    let _ = writeln!(out, "{} : pending", p.program);
                }
            }
        }
        let _ = writeln!(
            out,
            "units: {} report(s) verified, {} finding(s) analyzed, {} quarantined \
             ({} journal record(s))",
            self.reports_verified, self.findings_analyzed, self.units_quarantined, self.records
        );
        let _ = writeln!(out, "vulnerable findings: {}", self.total_vulnerable());
        out
    }

    /// Machine-readable form (same encoders as the journal records).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "programs",
                Json::Arr(
                    self.programs
                        .iter()
                        .map(|p| {
                            let (status, detail) = match &p.outcome {
                                ProgramOutcome::Finished(s) => {
                                    (Json::str("finished"), encode_summary(s))
                                }
                                ProgramOutcome::Quarantined(e) => {
                                    (Json::str("quarantined"), encode_error(e))
                                }
                                ProgramOutcome::Pending => (Json::str("pending"), Json::Null),
                            };
                            Json::obj([
                                ("program", Json::str(p.program.clone())),
                                ("attempts", Json::UInt(p.attempts)),
                                ("status", status),
                                ("detail", detail),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("records", Json::UInt(self.records)),
            ("reports_verified", Json::UInt(self.reports_verified)),
            ("findings_analyzed", Json::UInt(self.findings_analyzed)),
            ("units_quarantined", Json::UInt(self.units_quarantined)),
            ("vulnerable", Json::UInt(self.total_vulnerable() as u64)),
        ])
    }
}

fn set_status(
    programs: &mut Vec<ProgramStatus>,
    name: &str,
    attempts: u64,
    outcome: ProgramOutcome,
) {
    match programs.iter_mut().find(|p| p.program == name) {
        Some(p) => {
            p.attempts = attempts;
            p.outcome = outcome;
        }
        // Terminal record without a header row (header discarded by
        // recovery): still surface the program.
        None => programs.push(ProgramStatus {
            program: name.to_string(),
            attempts,
            outcome,
        }),
    }
}

/// Reconstructs a consolidated [`PipelineHealth`] from the record
/// stream: stages 3–5 from their unit records, the counters summed
/// over `ProgramFinished` records, plus
/// [`Counter::UnitsAbortedMemBudget`] from quarantine records carrying
/// a memory-budget abort. Every quarantine, a stage-5 verdict aborted
/// inside a `FindingAnalyzed` record included, counts through the
/// pipeline's own rule, so the totals equal the live runs'. The journal
/// recovery counters come only from `recovery`, the journal's
/// open-time repair. The detection stage's [`crate::StageHealth`] is
/// not journaled and reads 0.
pub fn health_from_records(records: &[JournalRecord], recovery: &RecoveryReport) -> PipelineHealth {
    let mut health = PipelineHealth::default();
    for rec in records {
        match rec {
            JournalRecord::ProgramFinished { counters, .. } => health.counters.add(counters),
            JournalRecord::ReportVerified {
                attempts,
                injected_faults,
                ..
            } => absorb_attempts(&mut health.race_verify, *attempts, *injected_faults),
            JournalRecord::FindingAnalyzed { vulns, .. } => {
                health.vuln_analyze.attempts += 1;
                for rv in vulns {
                    absorb_attempts(&mut health.vuln_verify, rv.attempts, rv.injected_faults);
                    if let VerifyOutcome::Aborted { cause, attempts } = rv.verdict {
                        let error = PipelineError::VerifierAborted {
                            stage: Stage::VulnVerify,
                            cause,
                            attempts,
                        };
                        apply_quarantine_health(&mut health.vuln_verify, &error);
                    }
                }
            }
            JournalRecord::Quarantined {
                error,
                attempts,
                injected_faults,
                ..
            } => {
                let sh = match error.stage() {
                    Stage::Detect | Stage::AdhocSync => &mut health.detect,
                    Stage::RaceVerify => &mut health.race_verify,
                    Stage::VulnAnalyze => &mut health.vuln_analyze,
                    Stage::VulnVerify => &mut health.vuln_verify,
                };
                absorb_attempts(sh, *attempts, *injected_faults);
                apply_quarantine_health(sh, error);
                if let PipelineError::VerifierAborted {
                    cause: owl_verify::AbortCause::MemoryBudget,
                    attempts: aborted_units,
                    ..
                } = error
                {
                    health.counters[Counter::UnitsAbortedMemBudget] += aborted_units;
                }
            }
            _ => {}
        }
    }
    health.counters[Counter::JournalDiscardedBytes] = recovery.discarded_bytes;
    health.counters[Counter::JournalDiscardedRecords] = recovery.discarded_records;
    health
}

/// What a campaign run produced.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// The consolidated summary, rebuilt from the journal.
    pub summary: CampaignSummary,
    /// What journal recovery found at open time.
    pub recovery: RecoveryReport,
    /// Journal-reconstructed consolidated health (includes the
    /// recovery counters).
    pub health: PipelineHealth,
}

/// One schedulable unit of campaign work: run program
/// `programs[idx]` at `attempt` (the due instant lives in the
/// [`DeadlineQueue`] entry).
struct Task {
    idx: usize,
    attempt: u64,
}

/// Everything the scoped workers share.
struct WorkerShared<'a> {
    programs: &'a [CorpusProgram],
    cfg: &'a CampaignConfig,
    journal: SharedJournal,
    /// The shared deadline queue ([`crate::queue`]): earliest due entry
    /// first, enqueue order as tiebreak — equal deadlines (the initial
    /// seeding) pop in campaign order.
    queue: DeadlineQueue<Task>,
    /// First fatal journal error, if any.
    fatal: Mutex<Option<JournalError>>,
    /// First captured [`JournalKilled`] panic payload, if any.
    /// `std::thread::scope` would swallow the payload on join, so the
    /// worker stores it here and `run_campaign` re-raises it after the
    /// pool drains.
    killed: Mutex<Option<Box<dyn Any + Send>>>,
}

/// What one supervised attempt decided.
enum AttemptStep {
    /// A terminal record (finished or quarantined) was journaled.
    Terminal,
    /// The attempt failed with retry budget left: re-enqueue at `due`.
    Retry { due: Instant },
    /// Journal I/O failed — abort the campaign.
    Fatal(JournalError),
    /// The journal's kill point fired — abort and re-raise the payload.
    Killed(Box<dyn Any + Send>),
}

/// Worker body: pull the next *due* entry off the deadline queue, run
/// one supervised attempt, push the outcome back. The queue parks a
/// worker facing a not-yet-due head until that deadline — no thread
/// ever sleeps while a runnable program is queued, and a backoff
/// window blocks only the one program serving it.
fn worker_loop(shared: &WorkerShared<'_>, worker_id: usize) {
    loop {
        let (task, due) = match shared.queue.pop() {
            Pop::Item { item, due } => (item, due),
            Pop::Drained | Pop::Aborted => return,
        };

        if let Some(m) = &shared.cfg.metrics {
            let waited = Instant::now().saturating_duration_since(due);
            m.span(
                "queue-wait",
                shared.programs[task.idx].name,
                worker_id,
                task.attempt,
                due,
                waited,
            );
        }
        let step = run_attempt(shared, task.idx, task.attempt, worker_id);

        let stop = match step {
            AttemptStep::Terminal => false,
            AttemptStep::Retry { due } => {
                // Push the retry *before* task_done so the queue never
                // looks drained while the re-enqueue is pending.
                shared.queue.push(
                    due,
                    Task {
                        idx: task.idx,
                        attempt: task.attempt + 1,
                    },
                );
                false
            }
            AttemptStep::Fatal(e) => {
                let mut slot = shared.fatal.lock().unwrap_or_else(PoisonError::into_inner);
                if slot.is_none() {
                    *slot = Some(e);
                }
                shared.queue.abort();
                true
            }
            AttemptStep::Killed(payload) => {
                let mut slot = shared
                    .killed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if slot.is_none() {
                    *slot = Some(payload);
                }
                shared.queue.abort();
                true
            }
        };
        shared.queue.task_done();
        if stop {
            return;
        }
    }
}

/// Runs one supervised attempt of `programs[idx]` end to end,
/// including its terminal journal append, entirely under
/// `catch_unwind` — so a [`JournalKilled`] fired by *any* append
/// (units or terminals) is captured and surfaced as
/// [`AttemptStep::Killed`] instead of tearing down the scope.
fn run_attempt(
    shared: &WorkerShared<'_>,
    idx: usize,
    attempt: u64,
    worker_id: usize,
) -> AttemptStep {
    let p = &shared.programs[idx];
    let cfg = shared.cfg;
    let fault_failures = cfg
        .faults
        .iter()
        .find(|f| f.program == p.name)
        .map_or(0, |f| f.failures);
    let started = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        if attempt <= fault_failures {
            panic!("injected campaign fault (attempt {attempt})");
        }
        let owl = Owl::new(&p.module, p.entry, cfg.owl.clone());
        let mut sink = shared.journal.clone();
        let result = owl.run_with_journal(p.name, &p.workloads, &p.exploit_inputs, &mut sink)?;
        if let Some(m) = &cfg.metrics {
            record_attempt_metrics(m, p.name, worker_id, attempt, started, &result);
        }
        if let Some(error) = result.error {
            // InvalidEntry is deterministic — retrying cannot help,
            // quarantine immediately.
            sink.append(JournalRecord::ProgramQuarantined {
                program: p.name.to_string(),
                attempts: attempt,
                error,
            })?;
        } else {
            sink.append(JournalRecord::ProgramFinished {
                program: p.name.to_string(),
                attempts: attempt,
                summary: ProgramSummary::from_result(&result),
                counters: Box::new(result.health.counters.clone()),
            })?;
        }
        Ok::<(), JournalError>(())
    }));
    match run {
        Ok(Ok(())) => AttemptStep::Terminal,
        Ok(Err(e)) => AttemptStep::Fatal(e), // journal I/O is fatal
        Err(payload) if payload.is::<JournalKilled>() => {
            // The simulated hard kill: never retried; re-raised by
            // `run_campaign` once the pool stops, exactly like a real
            // SIGKILL would end the process.
            AttemptStep::Killed(payload)
        }
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            if attempt >= cfg.max_attempts {
                // Out of budget: quarantine into the journal. The
                // append is itself a kill site, so supervise it too.
                let append = catch_unwind(AssertUnwindSafe(|| {
                    shared.journal.append(JournalRecord::ProgramQuarantined {
                        program: p.name.to_string(),
                        attempts: attempt,
                        error: PipelineError::Panicked {
                            stage: Stage::Detect,
                            message,
                        },
                    })
                }));
                match append {
                    Ok(Ok(())) => {
                        if let Some(m) = &cfg.metrics {
                            m.counter("programs_quarantined", 1);
                        }
                        AttemptStep::Terminal
                    }
                    Ok(Err(e)) => AttemptStep::Fatal(e),
                    Err(kill) => AttemptStep::Killed(kill),
                }
            } else {
                if let Some(m) = &cfg.metrics {
                    m.counter("campaign_requeues", 1);
                }
                let delay =
                    backoff_delay(cfg.backoff_base, p.name, attempt, cfg.backoff_seed);
                AttemptStep::Retry {
                    due: Instant::now() + delay,
                }
            }
        }
    }
}

/// Folds one successful pipeline run's stage timings and health
/// counters into the campaign's metrics recorder. Also used by the
/// `owl serve` workers — cached daemon responses skip this entirely,
/// which is how the tests prove stages 1–5 were not re-executed.
pub(crate) fn record_attempt_metrics(
    m: &MetricsRecorder,
    program: &str,
    worker: usize,
    attempt: u64,
    started: Instant,
    result: &PipelineResult,
) {
    let s = &result.stats;
    m.span("detect", program, worker, attempt, started, s.detect_time);
    m.span(
        "race-detect",
        program,
        worker,
        attempt,
        started,
        s.race_detect_time,
    );
    m.span(
        "static-analysis",
        program,
        worker,
        attempt,
        started,
        s.static_analysis_time,
    );
    m.span(
        "race-verify",
        program,
        worker,
        attempt,
        started,
        s.race_verify_time,
    );
    m.span(
        "vuln-analyze",
        program,
        worker,
        attempt,
        started,
        s.analysis_time,
    );
    m.span(
        "vuln-verify",
        program,
        worker,
        attempt,
        started,
        s.vuln_verify_time,
    );
    m.span(
        "elision-solve",
        program,
        worker,
        attempt,
        started,
        s.elision_solve_time,
    );
    m.span("program", program, worker, attempt, started, started.elapsed());
    let h = &result.health;
    m.counter(
        "verify_retries",
        h.race_verify.retries + h.vuln_verify.retries,
    );
    m.counter("injected_faults", h.total_injected_faults());
    m.counter("units_quarantined", h.total_quarantined());
    for (c, n) in h.counters.iter() {
        m.counter(c.metric_name(), n);
    }
}

/// Runs (or resumes) a campaign over `programs` against the journal at
/// `journal_path`.
///
/// * A journal that already holds records is refused unless `resume`
///   is set; a resumed journal must carry the same
///   [`campaign_fingerprint`].
/// * Programs with a terminal record are skipped entirely; a program
///   interrupted mid-run resumes at its first un-journaled unit.
/// * Pending programs execute on a pool of
///   [`CampaignConfig::workers`] scoped threads pulling from a shared
///   deadline queue; all journal writes go through one serialized
///   [`SharedJournal`] writer. Because the summary is rebuilt purely
///   from journal records keyed on `(program, unit)`, it is
///   byte-identical for every worker count and interleaving.
/// * Each attempt runs under `catch_unwind`; failures re-enqueue the
///   program with a [`backoff_delay`] *deadline* (no thread sleeps
///   while runnable work is queued) up to
///   [`CampaignConfig::max_attempts`], after which the program is
///   quarantined into the journal and the campaign moves on.
/// * [`JournalKilled`] panics are re-raised, never retried — they
///   simulate the process being killed.
pub fn run_campaign(
    journal_path: &Path,
    programs: &[CorpusProgram],
    cfg: &CampaignConfig,
    resume: bool,
) -> Result<CampaignOutcome, JournalError> {
    let names: Vec<String> = programs.iter().map(|p| p.name.to_string()).collect();
    let fingerprint = campaign_fingerprint(&cfg.owl, &names);
    let mut journal = Journal::open(journal_path)?;
    if !resume && !journal.records().is_empty() {
        return Err(JournalError::NotResumable {
            path: journal_path.to_path_buf(),
            records: journal.records().len() as u64,
        });
    }
    // Arm the kill point before the first possible append so every
    // journal write — the campaign header included — is a kill site.
    journal.set_kill_after(cfg.kill_after_appends);
    match journal.records().first() {
        Some(JournalRecord::CampaignStarted {
            fingerprint: recorded,
            ..
        }) => {
            if *recorded != fingerprint {
                return Err(JournalError::ConfigMismatch {
                    recorded: recorded.clone(),
                    current: fingerprint,
                });
            }
        }
        Some(_) => {
            // A journal whose first record is not the campaign header
            // was not written by a campaign — refuse it.
            return Err(JournalError::ConfigMismatch {
                recorded: "<no campaign header>".to_string(),
                current: fingerprint,
            });
        }
        None => {
            journal.append(JournalRecord::CampaignStarted {
                fingerprint,
                programs: names.clone(),
            })?;
        }
    }

    // Seed the deadline queue with every pending program, all due
    // immediately, in campaign order (the seq tiebreak preserves it),
    // then hand the journal to the serialized shared writer.
    let pending: Vec<usize> = programs
        .iter()
        .enumerate()
        .filter(|(_, p)| journal.program_terminal(p.name).is_none())
        .map(|(i, _)| i)
        .collect();
    let journal = SharedJournal::new(journal);

    if !pending.is_empty() {
        let workers = cfg.workers.max(1).min(pending.len());
        let now = Instant::now();
        // Seed every pending program due immediately, in campaign
        // order (the queue's seq tiebreak preserves it), then close:
        // only worker retries may enqueue from here on.
        let queue = DeadlineQueue::new();
        for &idx in &pending {
            queue.push(now, Task { idx, attempt: 1 });
        }
        queue.close();
        let shared = WorkerShared {
            programs,
            cfg,
            journal: journal.clone(),
            queue,
            fatal: Mutex::new(None),
            killed: Mutex::new(None),
        };
        std::thread::scope(|scope| {
            for worker_id in 0..workers {
                let shared = &shared;
                scope.spawn(move || worker_loop(shared, worker_id));
            }
        });
        let killed_payload = shared
            .killed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let fatal = shared
            .fatal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = killed_payload {
            // The simulated hard kill, re-raised with its original
            // payload so supervisors (and the crash tests) can
            // downcast it exactly as before.
            resume_unwind(payload);
        }
        if let Some(e) = fatal {
            return Err(e);
        }
    }

    let records = journal.records();
    let recovery = journal.recovery();
    let summary = CampaignSummary::from_records(&records);
    let health = health_from_records(&records, &recovery);
    if let Some(m) = &cfg.metrics {
        m.counter("journal_appends", journal.appends());
        m.counter("journal_fsyncs", journal.fsyncs());
        for c in [
            Counter::JournalDiscardedBytes,
            Counter::JournalDiscardedRecords,
        ] {
            m.counter(c.metric_name(), health.counters[c]);
        }
    }
    Ok(CampaignOutcome {
        summary,
        recovery,
        health,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::RecordedVuln;
    use crate::StageHealth;
    use owl_ir::{FuncId, InstId, InstRef, VulnClass};
    use owl_static::{DepKind, VulnReport};
    use owl_verify::AbortCause;

    /// A journaled hint whose stage-5 verdict is `verdict`.
    fn hint(verdict: VerifyOutcome, attempts: u64) -> RecordedVuln {
        let site = InstRef::new(FuncId(0), InstId(1));
        RecordedVuln {
            report: VulnReport {
                site,
                class: VulnClass::ExecOp,
                dep: DepKind::CtrlDep,
                source: site,
                branches: Vec::new(),
                path_branches: Vec::new(),
                chain: Vec::new(),
            },
            reached: false,
            verdict,
            attempts,
            injected_faults: 0,
        }
    }

    /// Each quarantine counts the same rebuilt from the journal as it
    /// did live: a stage-5 verdict the supervisor recorded as aborted by
    /// a panic is a panic, one aborted by the verifier's deadline is a
    /// deadline hit, and a stage-4 panic spent one analysis.
    #[test]
    fn health_from_records_counts_every_quarantine_like_the_pipeline() {
        let finding = |verdict, attempts| JournalRecord::FindingAnalyzed {
            program: "P".into(),
            key: "k".into(),
            global: None,
            vulns: vec![hint(verdict, attempts)],
        };
        let aborted = |cause, attempts| VerifyOutcome::Aborted { cause, attempts };
        let records = vec![
            finding(aborted(AbortCause::Panicked, 0), 0),
            finding(aborted(AbortCause::DeadlineExceeded, 2), 2),
            finding(VerifyOutcome::Confirmed, 1),
            JournalRecord::Quarantined {
                program: "P".into(),
                key: Some("k2".into()),
                global: None,
                error: PipelineError::Panicked {
                    stage: Stage::VulnAnalyze,
                    message: "boom".into(),
                },
                attempts: 1,
                injected_faults: 0,
            },
            JournalRecord::Quarantined {
                program: "P".into(),
                key: Some("k3".into()),
                global: None,
                error: PipelineError::VerifierAborted {
                    stage: Stage::RaceVerify,
                    cause: AbortCause::StepBudgetExhausted,
                    attempts: 3,
                },
                attempts: 3,
                injected_faults: 1,
            },
        ];
        let health = health_from_records(&records, &RecoveryReport::default());
        let expect =
            |attempts, retries, injected_faults, deadline_hits, panics, quarantined| StageHealth {
                attempts,
                retries,
                injected_faults,
                deadline_hits,
                panics,
                quarantined,
            };
        assert_eq!(health.vuln_verify, expect(3, 1, 0, 1, 1, 2));
        assert_eq!(health.vuln_analyze, expect(4, 0, 0, 0, 1, 1));
        assert_eq!(health.race_verify, expect(3, 2, 1, 0, 0, 1));
        assert_eq!(health.total_quarantined(), 4);
    }

    #[test]
    fn backoff_is_deterministic_and_monotone_in_expectation() {
        let base = Duration::from_millis(10);
        let a = backoff_delay(base, "Libsafe", 1, 42);
        let b = backoff_delay(base, "Libsafe", 1, 42);
        assert_eq!(a, b, "pure function");
        assert!(a >= base && a <= base * 3 / 2, "{a:?}");
        let later = backoff_delay(base, "Libsafe", 4, 42);
        assert!(later >= base * 8, "exponential growth: {later:?}");
        assert!(
            backoff_delay(Duration::from_secs(20), "Libsafe", 10, 1) <= Duration::from_secs(30),
            "capped"
        );
    }

    #[test]
    fn backoff_jitter_differs_per_program() {
        // Same seed + attempt must not put two programs on the same
        // retry instant (the stampede bug): the program name feeds the
        // jitter draw.
        let base = Duration::from_secs(10);
        let delays: Vec<Duration> = ["Apache", "Libsafe", "Memcached", "SSDB"]
            .iter()
            .map(|p| backoff_delay(base, p, 2, 7))
            .collect();
        for (i, a) in delays.iter().enumerate() {
            for b in &delays[i + 1..] {
                assert_ne!(a, b, "distinct programs share a retry instant");
            }
        }
    }

    #[test]
    fn fingerprint_tracks_config_and_programs() {
        let names = vec!["A".to_string(), "B".to_string()];
        let f1 = campaign_fingerprint(&OwlConfig::quick(), &names);
        let f2 = campaign_fingerprint(&OwlConfig::quick(), &names);
        assert_eq!(f1, f2);
        let f3 = campaign_fingerprint(&OwlConfig::default(), &names);
        assert_ne!(f1, f3, "config changes the fingerprint");
        let f4 = campaign_fingerprint(&OwlConfig::quick(), &names[..1]);
        assert_ne!(f1, f4, "program list changes the fingerprint");

        // Like CampaignConfig::workers, the explorer worker count is a
        // scheduling knob with deterministic output: a journal written
        // at one pool size must resume under another.
        let mut pooled = OwlConfig::quick();
        pooled.detect.workers = 8;
        assert_eq!(
            f1,
            campaign_fingerprint(&pooled, &names),
            "--explore-workers is excluded from the fingerprint"
        );

        // The detector backend is part of the configuration proper.
        let mut reference = OwlConfig::quick();
        reference.detect.hb_backend = owl_race::HbBackend::Reference;
        assert_ne!(
            f1,
            campaign_fingerprint(&reference, &names),
            "--hb-backend changes the fingerprint"
        );

        // Fork mode is an execution strategy with byte-identical
        // results: a journal written with forking on must resume under
        // --no-fork, and vice versa.
        let mut no_fork = OwlConfig::quick();
        no_fork.detect.fork = false;
        assert_eq!(
            f1,
            campaign_fingerprint(&no_fork, &names),
            "--no-fork is excluded from the fingerprint"
        );
    }

    #[test]
    fn summary_from_empty_records_is_empty() {
        let s = CampaignSummary::from_records(&[]);
        assert_eq!(s.finished(), 0);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.records, 0);
        assert!(s.render().contains("0 finished"));
    }
}
