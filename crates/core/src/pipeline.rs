//! The OWL pipeline (paper Figure 3), run under a supervisor.
//!
//! 1. A concurrency bug detector runs over the program's workloads and
//!    produces raw race reports.
//! 2. The static adhoc-synchronization detector extracts benign
//!    **schedule** hints from those reports; the program is annotated
//!    and the detector re-runs, shrinking the report set.
//! 3. The dynamic race verifier checks each surviving report by
//!    catching the race "in the racing moment"; unverifiable reports
//!    are eliminated.
//! 4. The static vulnerability analyzer (Algorithm 1) chases each
//!    verified corrupted read to the five vulnerable-site classes,
//!    producing vulnerable **input** hints.
//! 5. The dynamic vulnerability verifier re-runs the program against
//!    candidate inputs and checks whether each hinted site is actually
//!    reachable (and the attack realizable).
//!
//! ## Supervision
//!
//! Real detection campaigns run for hours over flaky programs; one
//! pathological report must not take the whole run down. The pipeline
//! therefore supervises stages 3–5 per report: panics are caught and
//! the offending report is moved to [`PipelineResult::quarantined`]
//! with a typed [`PipelineError`]; an optional per-stage wall-clock
//! deadline ([`OwlConfig::stage_deadline`]) quarantines whatever a
//! stage did not get to; verifications that abort (see
//! [`owl_verify::VerifyOutcome`]) are quarantined rather than silently
//! counted as eliminations. [`PipelineHealth`] summarizes attempts,
//! retries, injected faults, deadline hits, and panics per stage.

use crate::config::OwlConfig;
use crate::counters::{Counter, Counters};
use crate::journal::{unit_key, JournalError, JournalRecord, JournalSink, RecordedVuln};
use owl_ir::analysis::{CallGraph, PointsTo};
use owl_ir::{FuncId, InstRef, Module};
use owl_race::{explore_with_deadline, ExplorerConfig, HbAnnotation, RaceReport};
use owl_static::{
    AdhocSyncDetector, ElisionPrepass, SummaryCache, VulnAnalyzer, VulnReport, VulnStats,
};
use owl_verify::{
    AbortCause, RaceVerification, RaceVerifier, VerifyOutcome, VulnVerification, VulnVerifier,
};
use owl_vm::ProgramInput;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Table-3-shaped stage counters for one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// R.R. — raw race reports from the detector.
    pub raw_reports: usize,
    /// A.S. — adhoc synchronizations statically identified and
    /// annotated.
    pub adhoc_syncs: usize,
    /// Reports produced by the post-annotation detector re-run.
    pub post_annotation_reports: usize,
    /// R.V.E. — reports the dynamic race verifier could not confirm.
    pub verifier_eliminated: usize,
    /// R. — reports remaining after verification.
    pub remaining: usize,
    /// Races whose corrupted read reaches a vulnerable site (OWL's
    /// final, security-relevant reports).
    pub vulnerable: usize,
    /// Wall-clock spent in the static vulnerability analyzer.
    pub analysis_time: Duration,
    /// Number of reports analyzed (denominator for the average cost).
    pub analysis_count: usize,
    /// Aggregated traversal counters from Algorithm 1.
    pub analysis_work: VulnStats,
    /// Wall-clock spent in detection (both runs).
    pub detect_time: Duration,
    /// Wall-clock spent purely in dynamic race detection (stage 1's
    /// raw sweep plus stage 2's post-annotation re-run) — the explorer
    /// share of [`PipelineStats::detect_time`].
    pub race_detect_time: Duration,
    /// Wall-clock spent in stage 2's static adhoc-synchronization
    /// identification.
    pub static_analysis_time: Duration,
    /// Wall-clock spent in dynamic verification (races + vulns).
    pub verify_time: Duration,
    /// Wall-clock spent in stage 3 (dynamic race verification) alone.
    pub race_verify_time: Duration,
    /// Wall-clock spent in stage 5 (dynamic vulnerability
    /// verification) alone.
    pub vuln_verify_time: Duration,
    /// Wall-clock spent in the check-elision pre-pass (zero when
    /// [`crate::OwlConfig::elide`] is off), including the run's one
    /// points-to solve, which the pre-pass performs and stage 4 reuses.
    pub elision_solve_time: Duration,
}

impl PipelineStats {
    /// Fraction of raw reports pruned before a developer sees them.
    pub fn reduction_ratio(&self) -> f64 {
        if self.raw_reports == 0 {
            return 0.0;
        }
        1.0 - (self.remaining as f64 / self.raw_reports as f64)
    }

    /// Average static-analysis cost per analyzed report.
    pub fn avg_analysis_cost(&self) -> Duration {
        if self.analysis_count == 0 {
            return Duration::ZERO;
        }
        self.analysis_time / self.analysis_count as u32
    }
}

/// A supervised pipeline stage (used to tag errors and health).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Stages 1–2: detection and the post-annotation re-run.
    Detect,
    /// Stage 2's static adhoc-synchronization identification.
    AdhocSync,
    /// Stage 3: dynamic race verification.
    RaceVerify,
    /// Stage 4: static vulnerability analysis (Algorithm 1).
    VulnAnalyze,
    /// Stage 5: dynamic vulnerability verification.
    VulnVerify,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Detect => f.write_str("detect"),
            Stage::AdhocSync => f.write_str("adhoc-sync"),
            Stage::RaceVerify => f.write_str("race-verify"),
            Stage::VulnAnalyze => f.write_str("vuln-analyze"),
            Stage::VulnVerify => f.write_str("vuln-verify"),
        }
    }
}

/// Why a report (or the whole run) was quarantined instead of flowing
/// through the pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// A stage panicked while processing the report; the supervisor
    /// caught the unwind.
    Panicked {
        /// The stage that panicked.
        stage: Stage,
        /// The panic payload, rendered as text.
        message: String,
    },
    /// The per-stage wall-clock deadline expired before the stage got
    /// to this report.
    StageDeadline {
        /// The stage whose deadline expired.
        stage: Stage,
    },
    /// A dynamic verifier gave up without a meaningful answer.
    VerifierAborted {
        /// The verification stage that aborted.
        stage: Stage,
        /// Why it aborted.
        cause: AbortCause,
        /// Attempts it completed before aborting.
        attempts: u64,
    },
    /// The pipeline's entry function cannot be executed at all, so no
    /// stage ran.
    InvalidEntry {
        /// What is wrong with the entry.
        reason: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Panicked { stage, message } => {
                write!(f, "{stage} stage panicked: {message}")
            }
            PipelineError::StageDeadline { stage } => {
                write!(f, "{stage} stage deadline expired")
            }
            PipelineError::VerifierAborted {
                stage,
                cause,
                attempts,
            } => write!(f, "{stage} aborted after {attempts} attempt(s): {cause}"),
            PipelineError::InvalidEntry { reason } => {
                write!(f, "invalid entry function: {reason}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// A race report the supervisor pulled out of the pipeline together
/// with the reason.
#[derive(Clone, Debug)]
pub struct Quarantined {
    /// The report that was being processed.
    pub race: RaceReport,
    /// Why it was quarantined.
    pub error: PipelineError,
}

/// Supervision counters for one stage.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageHealth {
    /// Work units attempted (executions for detection, verification
    /// attempts for the verifiers, reports for the analyzer).
    pub attempts: u64,
    /// Attempts beyond the first per report (the retry-with-reseed
    /// budget actually spent).
    pub retries: u64,
    /// Faults the VM's fault plan injected during this stage.
    pub injected_faults: u64,
    /// Times a wall-clock deadline cut this stage short.
    pub deadline_hits: u64,
    /// Panics the supervisor caught in this stage.
    pub panics: u64,
    /// Reports quarantined out of this stage.
    pub quarantined: u64,
}

/// Per-stage [`StageHealth`] for a whole pipeline run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineHealth {
    /// Stages 1–2 (detection runs, both sweeps).
    pub detect: StageHealth,
    /// Stage 3 (dynamic race verification).
    pub race_verify: StageHealth,
    /// Stage 4 (static vulnerability analysis).
    pub vuln_analyze: StageHealth,
    /// Stage 5 (dynamic vulnerability verification).
    pub vuln_verify: StageHealth,
    /// Wall-clock spent solving the whole-module points-to analysis
    /// (done at most once per pipeline run, shared by the check-elision
    /// pre-pass and every stage-4 report).
    pub points_to_solve: Duration,
    /// Every pipeline counter (see [`Counter`] for what each counts).
    pub counters: Counters,
}

impl PipelineHealth {
    /// All faults injected across every stage.
    pub fn total_injected_faults(&self) -> u64 {
        self.detect.injected_faults
            + self.race_verify.injected_faults
            + self.vuln_analyze.injected_faults
            + self.vuln_verify.injected_faults
    }

    /// All reports quarantined across every stage.
    pub fn total_quarantined(&self) -> u64 {
        self.detect.quarantined
            + self.race_verify.quarantined
            + self.vuln_analyze.quarantined
            + self.vuln_verify.quarantined
    }

    /// All panics caught across every stage.
    pub fn total_panics(&self) -> u64 {
        self.detect.panics
            + self.race_verify.panics
            + self.vuln_analyze.panics
            + self.vuln_verify.panics
    }

    /// Accumulates another run's counters into this one — the daemon's
    /// watchdog folds every completed request's health into one
    /// service-wide view.
    pub fn merge(&mut self, other: &PipelineHealth) {
        for (mine, theirs) in [
            (&mut self.detect, &other.detect),
            (&mut self.race_verify, &other.race_verify),
            (&mut self.vuln_analyze, &other.vuln_analyze),
            (&mut self.vuln_verify, &other.vuln_verify),
        ] {
            mine.attempts += theirs.attempts;
            mine.retries += theirs.retries;
            mine.injected_faults += theirs.injected_faults;
            mine.deadline_hits += theirs.deadline_hits;
            mine.panics += theirs.panics;
            mine.quarantined += theirs.quarantined;
        }
        self.points_to_solve += other.points_to_solve;
        self.counters.add(&other.counters);
    }
}

/// Renders a caught panic payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One verified race together with its bug-to-attack analysis.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The race report (post-annotation).
    pub race: RaceReport,
    /// Dynamic race verification evidence.
    pub verification: RaceVerification,
    /// Vulnerable input hints from Algorithm 1 (may be empty for
    /// verified-but-benign races).
    pub vulns: Vec<VulnReport>,
    /// Dynamic vulnerability verifications, parallel to `vulns`.
    pub vuln_verifications: Vec<VulnVerification>,
}

impl Finding {
    /// Whether any hinted site was dynamically reached.
    pub fn any_site_reached(&self) -> bool {
        self.vuln_verifications.iter().any(|v| v.reached)
    }
}

/// Everything the pipeline produced for one program.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Program name.
    pub program: String,
    /// Stage counters (Table 3 row).
    pub stats: PipelineStats,
    /// Annotations applied after stage 2.
    pub annotations: Vec<HbAnnotation>,
    /// Verified races with their analyses (stage 3–5 output).
    pub findings: Vec<Finding>,
    /// Reports the supervisor pulled out of the pipeline (panics,
    /// deadline expiries, aborted verifications).
    pub quarantined: Vec<Quarantined>,
    /// Supervision counters per stage.
    pub health: PipelineHealth,
    /// A run-level error that prevented the pipeline from running at
    /// all (currently only [`PipelineError::InvalidEntry`]).
    pub error: Option<PipelineError>,
}

impl PipelineResult {
    /// Findings that carry at least one vulnerable input hint — OWL's
    /// final reports (Table 2's last column).
    pub fn vulnerable_findings(&self) -> impl Iterator<Item = &Finding> + '_ {
        self.findings.iter().filter(|f| !f.vulns.is_empty())
    }

    /// The finding covering a given racy global, if any.
    pub fn finding_on(&self, global: &str) -> Option<&Finding> {
        self.findings
            .iter()
            .find(|f| f.race.global_name.as_deref() == Some(global) && !f.vulns.is_empty())
            .or_else(|| {
                self.findings
                    .iter()
                    .find(|f| f.race.global_name.as_deref() == Some(global))
            })
    }

    /// An empty result carrying only a run-level error.
    fn failed(name: &str, error: PipelineError) -> Self {
        PipelineResult {
            program: name.to_string(),
            stats: PipelineStats::default(),
            annotations: Vec::new(),
            findings: Vec::new(),
            quarantined: Vec::new(),
            health: PipelineHealth::default(),
            error: Some(error),
        }
    }
}

/// The OWL pipeline bound to one program.
#[derive(Debug)]
pub struct Owl<'m> {
    module: &'m Module,
    entry: FuncId,
    config: OwlConfig,
}

impl<'m> Owl<'m> {
    /// Creates a pipeline for `module`, starting at `entry`.
    pub fn new(module: &'m Module, entry: FuncId, config: OwlConfig) -> Self {
        Owl {
            module,
            entry,
            config,
        }
    }

    /// Pipeline with default configuration.
    pub fn with_defaults(module: &'m Module, entry: FuncId) -> Self {
        Self::new(module, entry, OwlConfig::default())
    }

    /// The module's points-to solution, solved on first use and kept in
    /// `slot`, so one pipeline run solves it at most once: the elision
    /// pre-pass and stage 4 share it. The solve is timed into
    /// [`PipelineHealth::points_to_solve`].
    fn points_to(
        &self,
        slot: &mut Option<Arc<PointsTo>>,
        health: &mut PipelineHealth,
    ) -> Arc<PointsTo> {
        slot.get_or_insert_with(|| {
            let t = Instant::now();
            let pts = Arc::new(PointsTo::new(self.module));
            health.points_to_solve += t.elapsed();
            pts
        })
        .clone()
    }

    /// Checks that the entry function can actually be executed, so the
    /// VM constructor cannot panic deep inside a stage.
    fn validate_entry(&self) -> Result<(), PipelineError> {
        let f = self.module.func(self.entry);
        if !f.is_internal {
            return Err(PipelineError::InvalidEntry {
                reason: format!("`{}` is external (no body to execute)", f.name),
            });
        }
        if f.num_params != 0 {
            return Err(PipelineError::InvalidEntry {
                reason: format!(
                    "`{}` takes {} parameter(s); the entry must take none",
                    f.name, f.num_params
                ),
            });
        }
        Ok(())
    }

    /// Runs the full pipeline.
    ///
    /// * `workloads` drive detection (all of them).
    /// * `workloads[0]` (the primary workload) drives race
    ///   verification, reproducing the paper's one-input verification
    ///   regime (§5.2).
    /// * `extra_inputs` are additional candidate inputs (e.g. suspected
    ///   exploit inputs) the vulnerability verifier sweeps on top of
    ///   the workloads.
    pub fn run(
        &self,
        name: &str,
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
    ) -> PipelineResult {
        if let Err(e) = self.validate_entry() {
            return PipelineResult::failed(name, e);
        }
        let mut stats = PipelineStats::default();
        let mut health = PipelineHealth::default();
        let mut quarantined = Vec::new();
        let default_workloads = [ProgramInput::empty()];
        let workloads: &[ProgramInput] = if workloads.is_empty() {
            &default_workloads
        } else {
            workloads
        };

        let mut pts_slot = None;
        let (annotations, reports) = match self.detect_and_annotate(
            name,
            workloads,
            &mut stats,
            &mut health,
            &mut pts_slot,
        ) {
            Ok(out) => out,
            Err(error) => {
                return PipelineResult {
                    program: name.to_string(),
                    stats,
                    annotations: Vec::new(),
                    findings: Vec::new(),
                    quarantined,
                    health,
                    error: Some(error),
                };
            }
        };
        let findings = self.verify_and_analyze(
            &reports,
            workloads,
            extra_inputs,
            &mut stats,
            &mut health,
            &mut quarantined,
            &mut pts_slot,
        );

        PipelineResult {
            program: name.to_string(),
            stats,
            annotations,
            findings,
            quarantined,
            health,
            error: None,
        }
    }

    /// Stages 1–2: raw detection, adhoc-synchronization annotation,
    /// and the post-annotation re-run. Shared by [`Owl::run`] and
    /// [`Owl::run_with_journal`]; fully deterministic for a fixed
    /// configuration (seeded explorer, seeded fault plan), which is
    /// what makes it safe to re-execute on resume instead of
    /// journaling its reports.
    ///
    /// Returns a [`PipelineError::VerifierAborted`] with
    /// [`AbortCause::MemoryBudget`] when any exploration unit blew the
    /// `--max-trace-mem` hard limit and had no spill directory to
    /// degrade into — the unit's reports were discarded, so continuing
    /// to the verifiers would verify an incomplete stream.
    fn detect_and_annotate(
        &self,
        name: &str,
        workloads: &[ProgramInput],
        stats: &mut PipelineStats,
        health: &mut PipelineHealth,
        pts_slot: &mut Option<Arc<PointsTo>>,
    ) -> Result<(Vec<HbAnnotation>, Vec<RaceReport>), PipelineError> {
        let deadline = self.config.stage_deadline;

        // Stage 0 (optional): check-elision pre-pass. Installs the
        // proved-race-free site set in *both* sweeps' configs so the
        // VM stamps their events and the epoch detector skips its
        // shadow work there. Purely an optimization: report streams
        // are byte-identical with it on or off. It solves the run's
        // points-to analysis, which stage 4 then reuses.
        let mut detect_cfg = self.config.detect.clone();
        detect_cfg.stream.tag_prefix = spill_tag(&detect_cfg.stream.tag_prefix, name);
        if self.config.elide {
            let t = Instant::now();
            let pts = self.points_to(pts_slot, health);
            let pre = ElisionPrepass::run_with(self.module, self.entry, &pts);
            let es = pre.stats();
            stats.elision_solve_time = t.elapsed();
            let c = &mut health.counters;
            c[Counter::ElisionSitesThreadLocal] += es.thread_local as u64;
            c[Counter::ElisionSitesLockDominated] += es.lock_dominated as u64;
            c[Counter::ElisionSitesReadOnly] += es.read_only as u64;
            detect_cfg.elided_sites = Some(pre.elided_sites());
        }

        // Stage 1: raw detection.
        let t0 = Instant::now();
        let raw = explore_with_deadline(self.module, self.entry, workloads, &detect_cfg, deadline);
        let raw_detect = t0.elapsed();
        stats.raw_reports = raw.reports.len();
        absorb_sweep(health, &raw).inspect_err(|_| stats.detect_time = t0.elapsed())?;

        // Stage 2: adhoc-synchronization hints + annotate + re-detect.
        let t_static = Instant::now();
        let adhoc = AdhocSyncDetector::new(self.module);
        let annotations: Vec<HbAnnotation> = adhoc
            .detect(&raw.reports)
            .into_iter()
            .map(|(_, a)| a)
            .collect();
        stats.static_analysis_time = t_static.elapsed();
        stats.adhoc_syncs = annotations.len();
        let annotated_cfg = ExplorerConfig {
            annotations: annotations.clone(),
            ..detect_cfg
        };
        let t_rerun = Instant::now();
        let reduced =
            explore_with_deadline(self.module, self.entry, workloads, &annotated_cfg, deadline);
        stats.race_detect_time = raw_detect + t_rerun.elapsed();
        stats.post_annotation_reports = reduced.reports.len();
        absorb_sweep(health, &reduced).inspect_err(|_| stats.detect_time = t0.elapsed())?;
        let dropped = raw.reports_dropped + reduced.reports_dropped;
        if dropped > 0 {
            eprintln!(
                "detect: report cap truncated {dropped} race observation(s); \
                 raise HbConfig::max_reports to keep them"
            );
        }
        stats.detect_time = t0.elapsed();
        Ok((annotations, reduced.reports))
    }

    /// Runs the full pipeline with checkpoint/resume against a run
    /// journal.
    ///
    /// Stages 1–2 are seeded-deterministic and cheap relative to the
    /// dynamic verifiers, so they re-execute on every call; stages 3–5
    /// are journaled per unit. A unit whose record is already in the
    /// journal is **replayed** — its recorded verdict and health
    /// contribution are restored without executing anything. The units
    /// computed live are collected in processing order and committed
    /// when their stage ends, one group commit ([`JournalSink::commit`],
    /// one fsync) for stage 3 and one for stages 4–5, inside the stage's
    /// own timing. Killing the process at any point therefore loses at
    /// most the program-stage that was in flight; a rerun with the same
    /// journal replays what was committed, re-executes the rest
    /// deterministically, and produces the same summary an
    /// uninterrupted run would have. A fully journaled program commits
    /// nothing and does no fsync.
    ///
    /// The journal's open-time recovery counters describe the journal,
    /// not this program, so the result's health leaves them at 0; a
    /// campaign reports them once (see
    /// [`crate::campaign::health_from_records`]).
    ///
    /// Stages 1–2 honor [`OwlConfig::stage_deadline`] as usual, but
    /// the journaled stages 3–5 deliberately do not: wall-clock cuts
    /// are inherently non-deterministic and would break byte-identical
    /// resume. Campaign runs bound stage work with the verifiers'
    /// seeded step budgets instead.
    pub fn run_with_journal<J: JournalSink>(
        &self,
        name: &str,
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
        journal: &mut J,
    ) -> Result<PipelineResult, JournalError> {
        if let Err(e) = self.validate_entry() {
            return Ok(PipelineResult::failed(name, e));
        }
        let mut stats = PipelineStats::default();
        let mut health = PipelineHealth::default();
        let mut quarantined = Vec::new();
        let default_workloads = [ProgramInput::empty()];
        let workloads: &[ProgramInput] = if workloads.is_empty() {
            &default_workloads
        } else {
            workloads
        };

        let mut pts_slot = None;
        let (annotations, reports) = match self.detect_and_annotate(
            name,
            workloads,
            &mut stats,
            &mut health,
            &mut pts_slot,
        ) {
            Ok(out) => out,
            Err(error) => {
                return Ok(PipelineResult {
                    program: name.to_string(),
                    stats,
                    annotations: Vec::new(),
                    findings: Vec::new(),
                    quarantined,
                    health,
                    error: Some(error),
                });
            }
        };
        let program_records = journal.program_records(name);
        let mut index = ResumeIndex::for_program(&program_records, name);
        let tv = Instant::now();
        let t3 = Instant::now();

        // Stage 3, journaled: replay recorded verdicts, verify the
        // rest live and commit their records when the stage ends.
        let primary = workloads[0].clone();
        let race_verifier = RaceVerifier::new(self.module, self.config.race_verify.clone());
        let mut verified: Vec<(RaceReport, RaceVerification)> = Vec::new();
        let mut live = Vec::new();
        for report in &reports {
            let key = unit_key(report);
            if let Some(replay) = index.next_verify(&key) {
                match replay {
                    VerifyReplay::Verdict {
                        confirmed,
                        attempts,
                        injected_faults,
                    } => {
                        health.race_verify.attempts += attempts;
                        health.race_verify.retries += attempts.saturating_sub(1);
                        health.race_verify.injected_faults += injected_faults;
                        if confirmed {
                            verified.push((
                                report.clone(),
                                replayed_race_verification(attempts, injected_faults),
                            ));
                        } else {
                            stats.verifier_eliminated += 1;
                        }
                    }
                    VerifyReplay::Quarantined {
                        error,
                        attempts,
                        injected_faults,
                    } => {
                        health.race_verify.attempts += attempts;
                        health.race_verify.retries += attempts.saturating_sub(1);
                        health.race_verify.injected_faults += injected_faults;
                        apply_quarantine_health(&mut health.race_verify, &error);
                        quarantined.push(Quarantined {
                            race: report.clone(),
                            error,
                        });
                    }
                }
                continue;
            }
            match catch_unwind(AssertUnwindSafe(|| {
                race_verifier.verify(self.entry, &primary, report)
            })) {
                Ok(v) => {
                    health.race_verify.attempts += v.attempts;
                    health.race_verify.retries += v.attempts.saturating_sub(1);
                    health.race_verify.injected_faults += v.injected_faults;
                    match v.verdict {
                        VerifyOutcome::Confirmed | VerifyOutcome::Unconfirmed => {
                            let confirmed = v.verdict == VerifyOutcome::Confirmed;
                            live.push(JournalRecord::ReportVerified {
                                program: name.to_string(),
                                key,
                                global: report.global_name.clone(),
                                confirmed,
                                attempts: v.attempts,
                                injected_faults: v.injected_faults,
                            });
                            if confirmed {
                                verified.push((report.clone(), v));
                            } else {
                                stats.verifier_eliminated += 1;
                            }
                        }
                        VerifyOutcome::Aborted { cause, attempts } => {
                            let error = PipelineError::VerifierAborted {
                                stage: Stage::RaceVerify,
                                cause,
                                attempts,
                            };
                            live.push(JournalRecord::Quarantined {
                                program: name.to_string(),
                                key: Some(key),
                                global: report.global_name.clone(),
                                error: error.clone(),
                                attempts: v.attempts,
                                injected_faults: v.injected_faults,
                            });
                            apply_quarantine_health(&mut health.race_verify, &error);
                            quarantined.push(Quarantined {
                                race: report.clone(),
                                error,
                            });
                        }
                    }
                }
                Err(payload) => {
                    let error = PipelineError::Panicked {
                        stage: Stage::RaceVerify,
                        message: panic_message(payload),
                    };
                    live.push(JournalRecord::Quarantined {
                        program: name.to_string(),
                        key: Some(key),
                        global: report.global_name.clone(),
                        error: error.clone(),
                        attempts: 0,
                        injected_faults: 0,
                    });
                    apply_quarantine_health(&mut health.race_verify, &error);
                    quarantined.push(Quarantined {
                        race: report.clone(),
                        error,
                    });
                }
            }
        }
        journal.commit(std::mem::take(&mut live))?;
        stats.remaining = verified.len();
        stats.race_verify_time += t3.elapsed();

        // Stages 4–5, journaled per confirmed report: static analysis
        // plus dynamic vulnerability verification form one unit, so a
        // finding is either fully recorded or re-derived from scratch.
        // Live units are committed together when the stages end.
        let needs_live = verified
            .iter()
            .any(|(race, _)| !index.has_analyze(&unit_key(race)));
        let vuln_cfg = &self.config.vuln;
        let mut analyzer = needs_live.then(|| {
            let points_to = vuln_cfg
                .points_to
                .then(|| self.points_to(&mut pts_slot, &mut health));
            let callgraph = vuln_cfg.summaries.then(|| {
                Arc::new(match &points_to {
                    Some(p) => CallGraph::with_points_to(self.module, p),
                    None => CallGraph::new(self.module),
                })
            });
            let cache = vuln_cfg.summaries.then(|| Arc::new(SummaryCache::new()));
            VulnAnalyzer::with_shared(self.module, vuln_cfg.clone(), points_to, callgraph, cache)
        });
        let vuln_verifier = VulnVerifier::new(self.module, self.config.vuln_verify.clone());
        let mut candidates: Vec<ProgramInput> = workloads.to_vec();
        candidates.extend_from_slice(extra_inputs);
        let mut findings = Vec::new();
        for (race, verification) in verified {
            let key = unit_key(&race);
            if let Some(replay) = index.next_analyze(&key) {
                match replay {
                    AnalyzeReplay::Finding(vulns) => {
                        health.vuln_analyze.attempts += 1;
                        let mut reports = Vec::with_capacity(vulns.len());
                        let mut verifications = Vec::with_capacity(vulns.len());
                        for rv in vulns {
                            health.vuln_verify.attempts += rv.attempts;
                            health.vuln_verify.retries += rv.attempts.saturating_sub(1);
                            health.vuln_verify.injected_faults += rv.injected_faults;
                            if let VerifyOutcome::Aborted { cause, attempts } = rv.verdict {
                                let error = PipelineError::VerifierAborted {
                                    stage: Stage::VulnVerify,
                                    cause,
                                    attempts,
                                };
                                apply_quarantine_health(&mut health.vuln_verify, &error);
                                quarantined.push(Quarantined {
                                    race: race.clone(),
                                    error,
                                });
                            }
                            verifications.push(replayed_vuln_verification(&rv));
                            reports.push(rv.report);
                        }
                        findings.push(Finding {
                            race,
                            verification,
                            vulns: reports,
                            vuln_verifications: verifications,
                        });
                    }
                    AnalyzeReplay::Quarantined { error } => {
                        health.vuln_analyze.attempts += 1;
                        apply_quarantine_health(&mut health.vuln_analyze, &error);
                        quarantined.push(Quarantined { race, error });
                    }
                }
                continue;
            }

            // Live stage 4.
            health.vuln_analyze.attempts += 1;
            let analyzer = analyzer
                .as_mut()
                .expect("analyzer built whenever a live unit exists");
            let read_info = race
                .read_access()
                .map(|read| (read.site, read.stack.to_vec()));
            let vulns = match read_info {
                Some((site, stack)) => {
                    let ta = Instant::now();
                    let analyzed =
                        catch_unwind(AssertUnwindSafe(|| analyzer.analyze(site, &stack)));
                    stats.analysis_time += ta.elapsed();
                    match analyzed {
                        Ok((reports, work)) => {
                            stats.analysis_count += 1;
                            stats.analysis_work.insts_visited += work.insts_visited;
                            stats.analysis_work.funcs_entered += work.funcs_entered;
                            reports
                        }
                        Err(payload) => {
                            let error = PipelineError::Panicked {
                                stage: Stage::VulnAnalyze,
                                message: panic_message(payload),
                            };
                            live.push(JournalRecord::Quarantined {
                                program: name.to_string(),
                                key: Some(key),
                                global: race.global_name.clone(),
                                error: error.clone(),
                                attempts: 0,
                                injected_faults: 0,
                            });
                            apply_quarantine_health(&mut health.vuln_analyze, &error);
                            quarantined.push(Quarantined { race, error });
                            continue;
                        }
                    }
                }
                None => Vec::new(),
            };

            // Live stage 5 over this finding's hints.
            let t5 = Instant::now();
            let mut recorded = Vec::with_capacity(vulns.len());
            let mut verifications = Vec::with_capacity(vulns.len());
            for vr in &vulns {
                let v = match catch_unwind(AssertUnwindSafe(|| {
                    vuln_verifier.verify(self.entry, &candidates, vr)
                })) {
                    Ok(v) => v,
                    Err(payload) => {
                        health.vuln_verify.panics += 1;
                        health.vuln_verify.quarantined += 1;
                        quarantined.push(Quarantined {
                            race: race.clone(),
                            error: PipelineError::Panicked {
                                stage: Stage::VulnVerify,
                                message: panic_message(payload),
                            },
                        });
                        aborted_vuln_verification(AbortCause::Panicked, 0)
                    }
                };
                health.vuln_verify.attempts += v.attempts;
                health.vuln_verify.retries += v.attempts.saturating_sub(1);
                health.vuln_verify.injected_faults += v.injected_faults;
                if let VerifyOutcome::Aborted { cause, attempts } = v.verdict {
                    if cause != AbortCause::Panicked {
                        let error = PipelineError::VerifierAborted {
                            stage: Stage::VulnVerify,
                            cause,
                            attempts,
                        };
                        apply_quarantine_health(&mut health.vuln_verify, &error);
                        quarantined.push(Quarantined {
                            race: race.clone(),
                            error,
                        });
                    }
                }
                recorded.push(RecordedVuln {
                    report: vr.clone(),
                    reached: v.reached,
                    verdict: v.verdict,
                    attempts: v.attempts,
                    injected_faults: v.injected_faults,
                });
                verifications.push(v);
            }
            stats.vuln_verify_time += t5.elapsed();
            live.push(JournalRecord::FindingAnalyzed {
                program: name.to_string(),
                key,
                global: race.global_name.clone(),
                vulns: recorded,
            });
            findings.push(Finding {
                race,
                verification,
                vulns,
                vuln_verifications: verifications,
            });
        }
        journal.commit(live)?;
        stats.vulnerable = findings.iter().filter(|f| !f.vulns.is_empty()).count();
        stats.verify_time += tv.elapsed();

        Ok(PipelineResult {
            program: name.to_string(),
            stats,
            annotations,
            findings,
            quarantined,
            health,
            error: None,
        })
    }

    /// Runs the pipeline with an **atomicity-violation** front-end
    /// instead of the race detector — the CTrigger/AVIO integration the
    /// paper lists as future work (§8.3). Atomicity reports are
    /// converted to race-shaped access pairs, and the verification and
    /// analysis stages run unchanged.
    pub fn run_atomicity(
        &self,
        name: &str,
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
    ) -> PipelineResult {
        if let Err(e) = self.validate_entry() {
            return PipelineResult::failed(name, e);
        }
        let mut stats = PipelineStats::default();
        let mut health = PipelineHealth::default();
        let mut quarantined = Vec::new();
        let default_workloads = [ProgramInput::empty()];
        let workloads: &[ProgramInput] = if workloads.is_empty() {
            &default_workloads
        } else {
            workloads
        };

        // Detection: sweep schedules feeding the atomicity detector.
        let t0 = Instant::now();
        let mut detector = owl_race::AtomicityDetector::new();
        for input in workloads {
            for k in 0..self.config.detect.runs_per_input {
                let seed = self.config.detect.base_seed + k;
                let mut sched = owl_vm::RandomScheduler::new(seed);
                let vm = owl_vm::Vm::new(
                    self.module,
                    self.entry,
                    input.clone(),
                    self.config.detect.run_config.clone(),
                );
                let outcome = vm.run(&mut sched, &mut detector);
                health.detect.attempts += 1;
                health.detect.injected_faults += outcome.injected_faults.len() as u64;
            }
        }
        let atomicity_reports = detector.finish(self.module);
        stats.raw_reports = atomicity_reports.len();
        stats.post_annotation_reports = atomicity_reports.len();
        stats.detect_time = t0.elapsed();
        // The atomicity front-end has no static-annotation stage: all
        // of detection is dynamic.
        stats.race_detect_time = stats.detect_time;

        // Stage 3 (atomicity flavour): the racing-moment check does not
        // apply — both accesses may be individually lock-protected, so
        // they can never be co-suspended. CTrigger-style verification
        // instead re-executes and confirms the unserializable
        // interleaving re-manifests. Attempt k is the breakpoint-free
        // run of the primary workload at seed `base_seed + k` for every
        // report, so each seed runs once, on first use, and `runs[k]`
        // answers every report's attempt k: the keys that run reported
        // and its fault count, or its panic message.
        let tv = Instant::now();
        let t3 = Instant::now();
        let stage_start = Instant::now();
        let mut stage_expired = false;
        let primary = workloads[0].clone();
        type AtomicityKey = (InstRef, InstRef, InstRef);
        let mut runs: Vec<Result<(HashSet<AtomicityKey>, u64), String>> = Vec::new();
        let mut verified: Vec<(RaceReport, RaceVerification)> = Vec::new();
        for report in &atomicity_reports {
            if let Some(d) = self.config.stage_deadline {
                if !stage_expired && !verified.is_empty() && stage_start.elapsed() >= d {
                    stage_expired = true;
                    health.race_verify.deadline_hits += 1;
                }
            }
            if stage_expired {
                health.race_verify.quarantined += 1;
                quarantined.push(Quarantined {
                    race: report.as_race_report(),
                    error: PipelineError::StageDeadline {
                        stage: Stage::RaceVerify,
                    },
                });
                continue;
            }
            let mut confirmed = false;
            let mut attempts = 0u64;
            let mut faults = 0u64;
            let mut reused = 0u64;
            let mut panicked = None;
            for k in 0..self.config.race_verify.max_schedules {
                if runs.len() as u64 > k {
                    reused += 1;
                } else {
                    runs.push(
                        catch_unwind(AssertUnwindSafe(|| {
                            let mut re = owl_race::AtomicityDetector::new();
                            let mut sched =
                                owl_vm::RandomScheduler::new(self.config.race_verify.base_seed + k);
                            let vm = owl_vm::Vm::new(
                                self.module,
                                self.entry,
                                primary.clone(),
                                self.config.race_verify.run_config.clone(),
                            );
                            let outcome = vm.run(&mut sched, &mut re);
                            let keys = re.reports().iter().map(|r| r.key()).collect();
                            (keys, outcome.injected_faults.len() as u64)
                        }))
                        .map_err(panic_message),
                    );
                }
                match &runs[k as usize] {
                    Ok((keys, run_faults)) => {
                        attempts = k + 1;
                        faults += run_faults;
                        if keys.contains(&report.key()) {
                            confirmed = true;
                            break;
                        }
                    }
                    Err(message) => {
                        panicked = Some(message.clone());
                        break;
                    }
                }
            }
            match panicked {
                None => {
                    health.race_verify.attempts += attempts;
                    health.race_verify.retries += attempts.saturating_sub(1);
                    health.race_verify.injected_faults += faults;
                    if confirmed {
                        verified.push((
                            report.as_race_report(),
                            RaceVerification {
                                confirmed: true,
                                verdict: VerifyOutcome::Confirmed,
                                attempts,
                                hints: None,
                                outcome: None,
                                injected_faults: faults,
                                reused_attempts: reused,
                            },
                        ));
                    } else {
                        stats.verifier_eliminated += 1;
                    }
                }
                Some(message) => {
                    health.race_verify.panics += 1;
                    health.race_verify.quarantined += 1;
                    quarantined.push(Quarantined {
                        race: report.as_race_report(),
                        error: PipelineError::Panicked {
                            stage: Stage::RaceVerify,
                            message,
                        },
                    });
                }
            }
        }
        stats.remaining = verified.len();
        stats.race_verify_time += t3.elapsed();
        let mut findings = self.analyze_findings(
            verified,
            &mut stats,
            &mut health,
            &mut quarantined,
            &mut None,
        );
        self.verify_vuln_sites(
            &mut findings,
            workloads,
            extra_inputs,
            &mut stats,
            &mut health,
            &mut quarantined,
        );
        stats.verify_time += tv.elapsed();

        PipelineResult {
            program: name.to_string(),
            stats,
            annotations: Vec::new(),
            findings,
            quarantined,
            health,
            error: None,
        }
    }

    /// Stages 3–5, shared by all detector front-ends: dynamic race
    /// verification on the primary workload, Algorithm 1 on each
    /// verified report, dynamic vulnerability verification over the
    /// candidate inputs. Each report is supervised: panics and aborted
    /// verifications quarantine the report instead of taking the run
    /// down.
    #[allow(clippy::too_many_arguments)]
    fn verify_and_analyze(
        &self,
        reports: &[RaceReport],
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
        stats: &mut PipelineStats,
        health: &mut PipelineHealth,
        quarantined: &mut Vec<Quarantined>,
        pts_slot: &mut Option<Arc<PointsTo>>,
    ) -> Vec<Finding> {
        let primary = workloads[0].clone();
        let tv = Instant::now();

        // Stage 3: dynamic race verification (primary workload).
        let t3 = Instant::now();
        let stage_start = Instant::now();
        let mut stage_expired = false;
        let mut processed = 0u64;
        let race_verifier = RaceVerifier::new(self.module, self.config.race_verify.clone());
        let mut verified: Vec<(RaceReport, RaceVerification)> = Vec::new();
        for report in reports {
            if let Some(d) = self.config.stage_deadline {
                if !stage_expired && processed > 0 && stage_start.elapsed() >= d {
                    stage_expired = true;
                    health.race_verify.deadline_hits += 1;
                }
            }
            if stage_expired {
                health.race_verify.quarantined += 1;
                quarantined.push(Quarantined {
                    race: report.clone(),
                    error: PipelineError::StageDeadline {
                        stage: Stage::RaceVerify,
                    },
                });
                continue;
            }
            processed += 1;
            match catch_unwind(AssertUnwindSafe(|| {
                race_verifier.verify(self.entry, &primary, report)
            })) {
                Ok(v) => {
                    health.race_verify.attempts += v.attempts;
                    health.race_verify.retries += v.attempts.saturating_sub(1);
                    health.race_verify.injected_faults += v.injected_faults;
                    match v.verdict {
                        VerifyOutcome::Confirmed => verified.push((report.clone(), v)),
                        VerifyOutcome::Unconfirmed => stats.verifier_eliminated += 1,
                        VerifyOutcome::Aborted { cause, attempts } => {
                            if cause == AbortCause::DeadlineExceeded {
                                health.race_verify.deadline_hits += 1;
                            }
                            health.race_verify.quarantined += 1;
                            quarantined.push(Quarantined {
                                race: report.clone(),
                                error: PipelineError::VerifierAborted {
                                    stage: Stage::RaceVerify,
                                    cause,
                                    attempts,
                                },
                            });
                        }
                    }
                }
                Err(payload) => {
                    health.race_verify.panics += 1;
                    health.race_verify.quarantined += 1;
                    quarantined.push(Quarantined {
                        race: report.clone(),
                        error: PipelineError::Panicked {
                            stage: Stage::RaceVerify,
                            message: panic_message(payload),
                        },
                    });
                }
            }
        }
        stats.remaining = verified.len();
        stats.race_verify_time += t3.elapsed();
        let mut findings = self.analyze_findings(verified, stats, health, quarantined, pts_slot);
        self.verify_vuln_sites(&mut findings, workloads, extra_inputs, stats, health, quarantined);
        stats.verify_time += tv.elapsed();
        findings
    }

    /// Stage 4: static vulnerability analysis on each verified report,
    /// supervised. An analyzer panic quarantines the report and
    /// rebuilds the analyzer (its memoization may be poisoned).
    ///
    /// Module-level state — the points-to solution (reused from the
    /// elision pre-pass when it ran), the refined call graph, and the
    /// summary cache — is built once here and shared by every
    /// per-report analyzer. When no per-stage deadline is
    /// configured the reports are independent, so they fan out across
    /// worker threads; each worker has its own analyzer but all share
    /// the one summary cache, so a callee summarized by one worker
    /// replays for free on the others. Results land in per-report
    /// slots, keeping finding order and every counter deterministic.
    fn analyze_findings(
        &self,
        verified: Vec<(RaceReport, RaceVerification)>,
        stats: &mut PipelineStats,
        health: &mut PipelineHealth,
        quarantined: &mut Vec<Quarantined>,
        pts_slot: &mut Option<Arc<PointsTo>>,
    ) -> Vec<Finding> {
        let stage_start = Instant::now();
        let vuln_cfg = &self.config.vuln;
        let points_to = vuln_cfg
            .points_to
            .then(|| self.points_to(pts_slot, health));
        let callgraph = vuln_cfg.summaries.then(|| {
            Arc::new(match &points_to {
                Some(p) => CallGraph::with_points_to(self.module, p),
                None => CallGraph::new(self.module),
            })
        });
        let cache = vuln_cfg.summaries.then(|| Arc::new(SummaryCache::new()));
        let make_analyzer = || {
            VulnAnalyzer::with_shared(
                self.module,
                vuln_cfg.clone(),
                points_to.clone(),
                callgraph.clone(),
                cache.clone(),
            )
        };

        let mut findings = Vec::new();
        let parallel = self.config.stage_deadline.is_none() && verified.len() >= 2;
        if parallel {
            let n = verified.len();
            let workers = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(n);
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<ReportAnalysis>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            let verified_ref = &verified;
            let next_ref = &next;
            let slots_ref = &slots;
            let make_ref = &make_analyzer;
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(move || {
                        let mut analyzer = make_ref();
                        loop {
                            let i = next_ref.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let (race, _) = &verified_ref[i];
                            let out = match race.read_access().map(|r| (r.site, r.stack.to_vec()))
                            {
                                Some((site, stack)) => {
                                    let ta = Instant::now();
                                    let analyzed = catch_unwind(AssertUnwindSafe(|| {
                                        analyzer.analyze(site, &stack)
                                    }));
                                    let elapsed = ta.elapsed();
                                    match analyzed {
                                        Ok((reports, work)) => ReportAnalysis::Analyzed {
                                            reports,
                                            work,
                                            elapsed,
                                        },
                                        Err(payload) => {
                                            // Internal caches may be
                                            // poisoned mid-walk.
                                            analyzer = make_ref();
                                            ReportAnalysis::Panicked(panic_message(payload))
                                        }
                                    }
                                }
                                None => ReportAnalysis::NoRead,
                            };
                            *slots_ref[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                        }
                    });
                }
            });
            for ((race, verification), slot) in verified.into_iter().zip(slots) {
                health.vuln_analyze.attempts += 1;
                let out = slot
                    .into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every slot is filled before the scope ends");
                match out {
                    ReportAnalysis::Analyzed {
                        reports,
                        work,
                        elapsed,
                    } => {
                        stats.analysis_time += elapsed;
                        stats.analysis_count += 1;
                        stats.analysis_work.insts_visited += work.insts_visited;
                        stats.analysis_work.funcs_entered += work.funcs_entered;
                        findings.push(Finding {
                            race,
                            verification,
                            vulns: reports,
                            vuln_verifications: Vec::new(),
                        });
                    }
                    ReportAnalysis::NoRead => findings.push(Finding {
                        race,
                        verification,
                        vulns: Vec::new(),
                        vuln_verifications: Vec::new(),
                    }),
                    ReportAnalysis::Panicked(message) => {
                        health.vuln_analyze.panics += 1;
                        health.vuln_analyze.quarantined += 1;
                        quarantined.push(Quarantined {
                            race,
                            error: PipelineError::Panicked {
                                stage: Stage::VulnAnalyze,
                                message,
                            },
                        });
                    }
                }
            }
        } else {
            let mut stage_expired = false;
            let mut analyzer = make_analyzer();
            for (race, verification) in verified {
                if let Some(d) = self.config.stage_deadline {
                    if !stage_expired && !findings.is_empty() && stage_start.elapsed() >= d {
                        stage_expired = true;
                        health.vuln_analyze.deadline_hits += 1;
                    }
                }
                if stage_expired {
                    health.vuln_analyze.quarantined += 1;
                    quarantined.push(Quarantined {
                        race,
                        error: PipelineError::StageDeadline {
                            stage: Stage::VulnAnalyze,
                        },
                    });
                    continue;
                }
                health.vuln_analyze.attempts += 1;
                let read_info = race
                    .read_access()
                    .map(|read| (read.site, read.stack.to_vec()));
                let vulns = match read_info {
                    Some((site, stack)) => {
                        let ta = Instant::now();
                        let analyzed =
                            catch_unwind(AssertUnwindSafe(|| analyzer.analyze(site, &stack)));
                        stats.analysis_time += ta.elapsed();
                        match analyzed {
                            Ok((reports, work)) => {
                                stats.analysis_count += 1;
                                stats.analysis_work.insts_visited += work.insts_visited;
                                stats.analysis_work.funcs_entered += work.funcs_entered;
                                reports
                            }
                            Err(payload) => {
                                health.vuln_analyze.panics += 1;
                                health.vuln_analyze.quarantined += 1;
                                quarantined.push(Quarantined {
                                    race,
                                    error: PipelineError::Panicked {
                                        stage: Stage::VulnAnalyze,
                                        message: panic_message(payload),
                                    },
                                });
                                analyzer = make_analyzer();
                                continue;
                            }
                        }
                    }
                    None => Vec::new(),
                };
                findings.push(Finding {
                    race,
                    verification,
                    vulns,
                    vuln_verifications: Vec::new(),
                });
            }
        }
        if let Some(c) = &cache {
            health.counters[Counter::SummaryCacheHits] += c.hits();
            health.counters[Counter::SummaryCacheMisses] += c.misses();
        }
        stats.vulnerable = findings.iter().filter(|f| !f.vulns.is_empty()).count();
        findings
    }

    /// Stage 5: dynamic vulnerability verification over candidate
    /// inputs (workloads + suspected exploit inputs), supervised. A
    /// panicking or aborting verification is recorded as a synthesized
    /// aborted [`VulnVerification`] so `vuln_verifications` stays
    /// parallel to `vulns`, and the finding's race is quarantined.
    fn verify_vuln_sites(
        &self,
        findings: &mut [Finding],
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
        stats: &mut PipelineStats,
        health: &mut PipelineHealth,
        quarantined: &mut Vec<Quarantined>,
    ) {
        let t5 = Instant::now();
        let stage_start = Instant::now();
        let mut stage_expired = false;
        let mut processed = 0u64;
        let vuln_verifier = VulnVerifier::new(self.module, self.config.vuln_verify.clone());
        let mut candidates: Vec<ProgramInput> = workloads.to_vec();
        candidates.extend_from_slice(extra_inputs);
        for f in findings.iter_mut() {
            for vr in &f.vulns {
                if let Some(d) = self.config.stage_deadline {
                    if !stage_expired && processed > 0 && stage_start.elapsed() >= d {
                        stage_expired = true;
                        health.vuln_verify.deadline_hits += 1;
                    }
                }
                if stage_expired {
                    health.vuln_verify.quarantined += 1;
                    quarantined.push(Quarantined {
                        race: f.race.clone(),
                        error: PipelineError::StageDeadline {
                            stage: Stage::VulnVerify,
                        },
                    });
                    f.vuln_verifications
                        .push(aborted_vuln_verification(AbortCause::DeadlineExceeded, 0));
                    continue;
                }
                processed += 1;
                match catch_unwind(AssertUnwindSafe(|| {
                    vuln_verifier.verify(self.entry, &candidates, vr)
                })) {
                    Ok(v) => {
                        health.vuln_verify.attempts += v.attempts;
                        health.vuln_verify.retries += v.attempts.saturating_sub(1);
                        health.vuln_verify.injected_faults += v.injected_faults;
                        if let VerifyOutcome::Aborted { cause, attempts } = v.verdict {
                            if cause == AbortCause::DeadlineExceeded {
                                health.vuln_verify.deadline_hits += 1;
                            }
                            health.vuln_verify.quarantined += 1;
                            quarantined.push(Quarantined {
                                race: f.race.clone(),
                                error: PipelineError::VerifierAborted {
                                    stage: Stage::VulnVerify,
                                    cause,
                                    attempts,
                                },
                            });
                        }
                        f.vuln_verifications.push(v);
                    }
                    Err(payload) => {
                        health.vuln_verify.panics += 1;
                        health.vuln_verify.quarantined += 1;
                        quarantined.push(Quarantined {
                            race: f.race.clone(),
                            error: PipelineError::Panicked {
                                stage: Stage::VulnVerify,
                                message: panic_message(payload),
                            },
                        });
                        f.vuln_verifications
                            .push(aborted_vuln_verification(AbortCause::Panicked, 0));
                    }
                }
            }
        }
        stats.vuln_verify_time += t5.elapsed();
    }
}

/// A recorded stage-3 verdict, ready to replay instead of re-running
/// the race verifier.
enum VerifyReplay {
    /// The verifier reached a verdict (confirmed or eliminated).
    Verdict {
        confirmed: bool,
        attempts: u64,
        injected_faults: u64,
    },
    /// The unit was quarantined.
    Quarantined {
        error: PipelineError,
        attempts: u64,
        injected_faults: u64,
    },
}

/// A recorded stage-4/5 unit, ready to replay instead of re-running
/// the analyzer and vulnerability verifier.
enum AnalyzeReplay {
    /// Analysis completed; each hint carries its stage-5 verification.
    Finding(Vec<RecordedVuln>),
    /// The unit was quarantined (stage-4 panic).
    Quarantined { error: PipelineError },
}

/// Per-unit lookup of everything the journal already recorded for one
/// program. Records for equal unit keys are consumed in journal order,
/// which matches processing order because reports are handled in
/// deterministic detector order on every run.
struct ResumeIndex {
    verify: HashMap<String, VecDeque<VerifyReplay>>,
    analyze: HashMap<String, VecDeque<AnalyzeReplay>>,
}

impl ResumeIndex {
    fn for_program(records: &[JournalRecord], program: &str) -> Self {
        let mut verify: HashMap<String, VecDeque<VerifyReplay>> = HashMap::new();
        let mut analyze: HashMap<String, VecDeque<AnalyzeReplay>> = HashMap::new();
        for rec in records {
            if rec.program() != Some(program) {
                continue;
            }
            match rec {
                JournalRecord::ReportVerified {
                    key,
                    confirmed,
                    attempts,
                    injected_faults,
                    ..
                } => {
                    verify
                        .entry(key.clone())
                        .or_default()
                        .push_back(VerifyReplay::Verdict {
                            confirmed: *confirmed,
                            attempts: *attempts,
                            injected_faults: *injected_faults,
                        });
                }
                JournalRecord::FindingAnalyzed { key, vulns, .. } => {
                    analyze
                        .entry(key.clone())
                        .or_default()
                        .push_back(AnalyzeReplay::Finding(vulns.clone()));
                }
                JournalRecord::Quarantined {
                    key: Some(key),
                    error,
                    attempts,
                    injected_faults,
                    ..
                } => match error {
                    PipelineError::Panicked {
                        stage: Stage::VulnAnalyze,
                        ..
                    } => {
                        analyze
                            .entry(key.clone())
                            .or_default()
                            .push_back(AnalyzeReplay::Quarantined {
                                error: error.clone(),
                            });
                    }
                    _ => {
                        verify
                            .entry(key.clone())
                            .or_default()
                            .push_back(VerifyReplay::Quarantined {
                                error: error.clone(),
                                attempts: *attempts,
                                injected_faults: *injected_faults,
                            });
                    }
                },
                _ => {}
            }
        }
        ResumeIndex { verify, analyze }
    }

    fn next_verify(&mut self, key: &str) -> Option<VerifyReplay> {
        self.verify.get_mut(key)?.pop_front()
    }

    fn next_analyze(&mut self, key: &str) -> Option<AnalyzeReplay> {
        self.analyze.get_mut(key)?.pop_front()
    }

    fn has_analyze(&self, key: &str) -> bool {
        self.analyze.get(key).is_some_and(|q| !q.is_empty())
    }
}

/// The spill-segment filename prefix of one run: the caller's prefix,
/// then the program name, so neither two programs nor two concurrent
/// runs of one program sharing a spill directory can collide. Sanitized
/// so a name with path separators cannot escape the directory.
fn spill_tag(prefix: &str, name: &str) -> String {
    format!("{prefix}-{name}")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Folds one detection sweep into the health report. A sweep with a
/// unit aborted over its memory budget becomes the typed error: that
/// unit's reports were discarded, so the stream is incomplete.
fn absorb_sweep(
    health: &mut PipelineHealth,
    sweep: &owl_race::ExploreResult,
) -> Result<(), PipelineError> {
    health.detect.attempts += sweep.runs;
    health.detect.injected_faults += sweep.injected_faults;
    health.detect.deadline_hits += sweep.deadline_hit as u64;
    let counters = Counters::from_explore(sweep);
    health.counters.add(&counters);
    match counters[Counter::UnitsAbortedMemBudget] {
        0 => Ok(()),
        attempts => Err(PipelineError::VerifierAborted {
            stage: Stage::Detect,
            cause: AbortCause::MemoryBudget,
            attempts,
        }),
    }
}

/// Folds a quarantine's secondary effects (panic/deadline counters plus
/// the quarantine count itself) into a stage's health — identical for
/// live and replayed units, which is what keeps resumed health totals
/// equal to an uninterrupted run's.
fn apply_quarantine_health(stage: &mut StageHealth, error: &PipelineError) {
    stage.quarantined += 1;
    match error {
        PipelineError::Panicked { .. } => stage.panics += 1,
        PipelineError::VerifierAborted {
            cause: AbortCause::DeadlineExceeded,
            ..
        } => stage.deadline_hits += 1,
        _ => {}
    }
}

/// A stage-3 verification reconstructed from the journal. Dynamic
/// evidence (hints, execution outcome) is not journaled, so only the
/// deterministic slice survives a resume.
fn replayed_race_verification(attempts: u64, injected_faults: u64) -> RaceVerification {
    RaceVerification {
        confirmed: true,
        verdict: VerifyOutcome::Confirmed,
        attempts,
        hints: None,
        outcome: None,
        injected_faults,
        reused_attempts: 0,
    }
}

/// A stage-5 verification reconstructed from the journal.
fn replayed_vuln_verification(rv: &RecordedVuln) -> VulnVerification {
    VulnVerification {
        reached: rv.reached,
        verdict: rv.verdict,
        attempts: rv.attempts,
        triggering_input: None,
        branches_hit: Vec::new(),
        diverged_branches: Vec::new(),
        outcome: None,
        triggered_violation: None,
        injected_faults: rv.injected_faults,
    }
}

/// Outcome of analyzing one verified report in stage 4 (the unit a
/// parallel worker writes into its result slot).
enum ReportAnalysis {
    /// Algorithm 1 completed.
    Analyzed {
        reports: Vec<VulnReport>,
        work: VulnStats,
        elapsed: Duration,
    },
    /// The race report carries no read access to start from.
    NoRead,
    /// The analyzer panicked; the message is the rendered payload.
    Panicked(String),
}

/// A placeholder verification for a vuln the supervisor could not
/// verify (stage deadline or panic); keeps `vuln_verifications`
/// parallel to `vulns`.
fn aborted_vuln_verification(cause: AbortCause, attempts: u64) -> VulnVerification {
    VulnVerification {
        reached: false,
        verdict: VerifyOutcome::Aborted { cause, attempts },
        attempts,
        triggering_input: None,
        branches_hit: Vec::new(),
        diverged_branches: Vec::new(),
        outcome: None,
        triggered_violation: None,
        injected_faults: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{ModuleBuilder, Type};

    /// A minimal vulnerable program: racy flag guards an exec, plus one
    /// adhoc sync and one benign racy counter.
    fn tiny_program() -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("tiny");
        let flag = mb.global("flag", 1, Type::I64);
        let counter = mb.global("counter", 1, Type::I64);
        let aflag = mb.global("aflag", 1, Type::I64);
        let setter = mb.declare_func("setter", 1);
        let handler = mb.declare_func("handler", 1);
        let spinner = mb.declare_func("spinner", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(setter);
            let fa = b.global_addr(flag);
            b.store(fa, 1);
            let ca = b.global_addr(counter);
            let v = b.load(ca, Type::I64);
            let v2 = b.add(v, 1);
            b.store(ca, v2);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(handler);
            let fa = b.global_addr(flag);
            let v = b.load(fa, Type::I64);
            let fire = b.block();
            let out = b.block();
            b.br(v, fire, out);
            b.switch_to(fire);
            b.exec(42);
            b.jmp(out);
            b.switch_to(out);
            let ca = b.global_addr(counter);
            let c = b.load(ca, Type::I64);
            let c2 = b.add(c, 1);
            b.store(ca, c2);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(spinner);
            let aa = b.global_addr(aflag);
            let head = b.block();
            let exit = b.block();
            b.jmp(head);
            b.switch_to(head);
            let v = b.load(aa, Type::I64);
            b.br(v, exit, head);
            b.switch_to(exit);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(setter, 0);
            let t2 = b.thread_create(handler, 0);
            let t3 = b.thread_create(spinner, 0);
            let aa = b.global_addr(aflag);
            b.store(aa, 1);
            b.thread_join(t1);
            b.thread_join(t2);
            b.thread_join(t3);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m
            .func_by_name("main")
            .expect("tiny_program declares a main function");
        (m, main_id)
    }

    #[test]
    fn pipeline_finds_the_vulnerable_race() {
        let (m, main) = tiny_program();
        let owl = Owl::new(&m, main, OwlConfig::quick());
        let result = owl.run("tiny", &[ProgramInput::empty()], &[]);
        assert!(result.stats.raw_reports >= 2, "{:?}", result.stats);
        assert_eq!(result.stats.adhoc_syncs, 1, "the spinner is adhoc");
        assert!(
            result.stats.post_annotation_reports < result.stats.raw_reports
                || result.stats.adhoc_syncs == 0,
            "annotation should reduce reports"
        );
        let flag_finding = result
            .finding_on("flag")
            .expect("flag race must survive the pipeline");
        assert!(!flag_finding.vulns.is_empty(), "exec hint expected");
        assert!(flag_finding.any_site_reached(), "exec site reachable");
        // The benign counter race survives verification but carries no
        // vulnerability.
        if let Some(c) = result.finding_on("counter") {
            assert!(c.vulns.is_empty(), "counter is benign: {:?}", c.vulns);
        }
        // A clean run quarantines nothing and catches no panics.
        assert!(result.quarantined.is_empty(), "{:?}", result.quarantined);
        assert_eq!(result.health.total_panics(), 0);
        assert_eq!(result.health.total_injected_faults(), 0);
        assert!(result.error.is_none());
        assert!(result.health.detect.attempts > 0);
        assert!(result.health.race_verify.attempts > 0);
    }

    #[test]
    fn stats_ratios_behave() {
        let mut s = PipelineStats::default();
        assert_eq!(s.reduction_ratio(), 0.0);
        s.raw_reports = 100;
        s.remaining = 6;
        assert!((s.reduction_ratio() - 0.94).abs() < 1e-9);
        assert_eq!(s.avg_analysis_cost(), Duration::ZERO);
    }

    #[test]
    fn external_entry_is_rejected_up_front() {
        let mut mb = ModuleBuilder::new("bad");
        let ext = mb.declare_external("ext_main", 0);
        let m = mb.finish();
        let owl = Owl::with_defaults(&m, ext);
        let result = owl.run("bad", &[], &[]);
        assert!(
            matches!(result.error, Some(PipelineError::InvalidEntry { .. })),
            "{:?}",
            result.error
        );
        assert!(result.findings.is_empty());
        let atom = owl.run_atomicity("bad", &[], &[]);
        assert!(matches!(
            atom.error,
            Some(PipelineError::InvalidEntry { .. })
        ));
    }

    #[test]
    fn parameterized_entry_is_rejected_up_front() {
        let mut mb = ModuleBuilder::new("bad2");
        let f = mb.declare_func("entry", 2);
        {
            let mut b = mb.build_func(f);
            b.ret(None);
        }
        let m = mb.finish();
        let owl = Owl::with_defaults(&m, f);
        let result = owl.run("bad2", &[], &[]);
        let err = result.error.expect("entry with params must be rejected");
        assert!(err.to_string().contains("parameter"), "{err}");
    }

    #[test]
    fn pipeline_error_displays_name_stage_and_cause() {
        let e = PipelineError::VerifierAborted {
            stage: Stage::RaceVerify,
            cause: AbortCause::DeadlineExceeded,
            attempts: 3,
        };
        let s = e.to_string();
        assert!(s.contains("race-verify"), "{s}");
        assert!(s.contains("deadline"), "{s}");
        let p = PipelineError::Panicked {
            stage: Stage::VulnAnalyze,
            message: "boom".into(),
        };
        assert!(p.to_string().contains("vuln-analyze"));
        assert!(p.to_string().contains("boom"));
    }
}
