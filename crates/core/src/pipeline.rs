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
//! pathological report must not take the whole run down. Every entry
//! ([`Owl::run`], [`Owl::run_atomicity`], [`Owl::run_with_journal`])
//! therefore takes one supervised, journaled stage-3–5 path: panics are
//! caught and the offending report is moved to
//! [`PipelineResult::quarantined`] with a typed [`PipelineError`]; a
//! per-stage wall-clock deadline, an argument of that path,
//! quarantines whatever a stage did not get to (`run` and
//! `run_atomicity` pass [`OwlConfig::stage_deadline`], a journaled run
//! passes none); verifications that abort (see
//! [`owl_verify::VerifyOutcome`]) are quarantined rather than silently
//! counted as eliminations. [`PipelineHealth`] summarizes attempts,
//! retries, injected faults, deadline hits, and panics per stage.

use crate::config::OwlConfig;
use crate::counters::{Counter, Counters};
use crate::journal::{unit_key, JournalError, JournalRecord, JournalSink, RecordedVuln};
use owl_ir::analysis::PointsTo;
use owl_ir::{FuncId, FxHashSet, InstRef, Module};
use owl_race::{
    explore_with_deadline, AtomicityDetector, AtomicityReport, ExplorerConfig, HbAnnotation,
    RaceReport,
};
use owl_static::{AdhocSyncDetector, ElisionPrepass, VulnAnalyzer, VulnReport, VulnStats};
use owl_verify::{
    AbortCause, RaceVerification, RaceVerifier, VerifyOutcome, VulnVerification, VulnVerifier,
};
use owl_vm::{ProgramInput, RandomScheduler, Vm};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
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

impl PipelineError {
    /// The stage the error belongs to; a run-level error belongs to
    /// detection.
    pub(crate) fn stage(&self) -> Stage {
        match self {
            PipelineError::Panicked { stage, .. }
            | PipelineError::StageDeadline { stage }
            | PipelineError::VerifierAborted { stage, .. } => *stage,
            PipelineError::InvalidEntry { .. } => Stage::Detect,
        }
    }
}

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

    /// An empty result, filled in as the stages run.
    fn new(name: &str) -> Self {
        PipelineResult {
            program: name.to_string(),
            stats: PipelineStats::default(),
            annotations: Vec::new(),
            findings: Vec::new(),
            quarantined: Vec::new(),
            health: PipelineHealth::default(),
            error: None,
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

/// The detector that feeds stages 3–5.
#[derive(Clone, Copy)]
enum FrontEnd {
    /// Stages 1–2: race detection, adhoc-sync annotation, re-detection.
    Race,
    /// The atomicity-violation detector ([`Owl::run_atomicity`]).
    Atomicity,
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
    ///
    /// Stages 3–5 take the path [`Owl::run_with_journal`] takes, over an
    /// in-memory journal, under [`OwlConfig::stage_deadline`].
    pub fn run(
        &self,
        name: &str,
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
    ) -> PipelineResult {
        self.pipeline(
            FrontEnd::Race,
            name,
            workloads,
            extra_inputs,
            &mut Vec::new(),
            self.config.stage_deadline,
        )
        .expect("an in-memory journal cannot fail")
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
    /// A journaled run takes no wall-clock deadline, whatever the
    /// configuration holds: not in stages 1–2, not per stage, and not
    /// per verification. A wall-clock cut is not reproducible, so a
    /// resumed run could not re-derive what it cut. Campaign runs bound
    /// stage work with the verifiers' seeded step budgets instead.
    pub fn run_with_journal<J: JournalSink>(
        &self,
        name: &str,
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
        journal: &mut J,
    ) -> Result<PipelineResult, JournalError> {
        let mut config = self.config.clone();
        config.race_verify.deadline = None;
        config.vuln_verify.deadline = None;
        Owl { config, ..*self }.pipeline(
            FrontEnd::Race,
            name,
            workloads,
            extra_inputs,
            journal,
            None,
        )
    }

    /// Runs the pipeline with an **atomicity-violation** front-end
    /// instead of the race detector — the CTrigger/AVIO integration the
    /// paper lists as future work (§8.3). Atomicity reports are
    /// converted to race-shaped access pairs, and the verification and
    /// analysis stages run unchanged, under
    /// [`OwlConfig::stage_deadline`].
    pub fn run_atomicity(
        &self,
        name: &str,
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
    ) -> PipelineResult {
        self.pipeline(
            FrontEnd::Atomicity,
            name,
            workloads,
            extra_inputs,
            &mut Vec::new(),
            self.config.stage_deadline,
        )
        .expect("an in-memory journal cannot fail")
    }

    /// Stages 1–5 behind `front_end`, journaling stages 3–5 to
    /// `journal`. `deadline` is the wall-clock budget of each stage: it
    /// cuts the detection sweeps short and quarantines the units a stage
    /// of 3–5 did not reach in time.
    fn pipeline<J: JournalSink>(
        &self,
        front_end: FrontEnd,
        name: &str,
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
        journal: &mut J,
        deadline: Option<Duration>,
    ) -> Result<PipelineResult, JournalError> {
        let mut result = PipelineResult::new(name);
        if let Err(e) = self.validate_entry() {
            result.error = Some(e);
            return Ok(result);
        }
        let default_workloads = [ProgramInput::empty()];
        let workloads = if workloads.is_empty() {
            &default_workloads[..]
        } else {
            workloads
        };
        let primary = &workloads[0];
        let candidates = [workloads, extra_inputs].concat();
        let mut pts_slot = None;
        match front_end {
            FrontEnd::Race => {
                let reports =
                    match self.detect_and_annotate(&mut result, workloads, deadline, &mut pts_slot)
                    {
                        Ok(reports) => reports,
                        Err(error) => {
                            result.error = Some(error);
                            return Ok(result);
                        }
                    };
                let verifier = RaceVerifier::new(self.module, self.config.race_verify.clone());
                let verify = |i: usize| verifier.verify(self.entry, primary, &reports[i]);
                self.stages_3_to_5(
                    &mut result,
                    &reports,
                    verify,
                    &candidates,
                    journal,
                    deadline,
                    &mut pts_slot,
                )?;
            }
            FrontEnd::Atomicity => {
                let found = self.detect_atomicity(&mut result, workloads);
                let reports: Vec<RaceReport> = found.iter().map(|r| r.as_race_report()).collect();
                let mut runs = Vec::new();
                let verify = |i: usize| self.verify_atomicity(&mut runs, primary, &found[i]);
                self.stages_3_to_5(
                    &mut result,
                    &reports,
                    verify,
                    &candidates,
                    journal,
                    deadline,
                    &mut pts_slot,
                )?;
            }
        }
        Ok(result)
    }

    /// Stages 1–2: raw detection, adhoc-synchronization annotation,
    /// and the post-annotation re-run. Fully deterministic for a fixed
    /// configuration and no deadline (seeded explorer, seeded fault
    /// plan), which is what makes it safe for a journaled run to
    /// re-execute on resume instead of journaling its reports.
    ///
    /// Returns a [`PipelineError::VerifierAborted`] with
    /// [`AbortCause::MemoryBudget`] when any exploration unit blew the
    /// `--max-trace-mem` hard limit and had no spill directory to
    /// degrade into — the unit's reports were discarded, so continuing
    /// to the verifiers would verify an incomplete stream.
    fn detect_and_annotate(
        &self,
        result: &mut PipelineResult,
        workloads: &[ProgramInput],
        deadline: Option<Duration>,
        pts_slot: &mut Option<Arc<PointsTo>>,
    ) -> Result<Vec<RaceReport>, PipelineError> {
        let PipelineResult {
            program: name,
            stats,
            health,
            annotations: annotated,
            ..
        } = result;

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
        *annotated = annotations;
        Ok(reduced.reports)
    }

    /// The atomicity front-end's detection: every workload's seeded
    /// schedules feed one atomicity detector. It has no annotation
    /// stage, so all of detection is dynamic.
    fn detect_atomicity(
        &self,
        result: &mut PipelineResult,
        workloads: &[ProgramInput],
    ) -> Vec<AtomicityReport> {
        let t0 = Instant::now();
        let detect = &self.config.detect;
        let mut detector = AtomicityDetector::new();
        for input in workloads {
            for k in 0..detect.runs_per_input {
                let mut sched = RandomScheduler::new(detect.base_seed + k);
                let vm = Vm::new(
                    self.module,
                    self.entry,
                    input.clone(),
                    detect.run_config.clone(),
                );
                let outcome = vm.run(&mut sched, &mut detector);
                result.health.detect.attempts += 1;
                result.health.detect.injected_faults += outcome.injected_faults.len() as u64;
            }
        }
        let found = detector.finish(self.module);
        let stats = &mut result.stats;
        stats.raw_reports = found.len();
        stats.post_annotation_reports = found.len();
        stats.detect_time = t0.elapsed();
        stats.race_detect_time = stats.detect_time;
        found
    }

    /// Stage 3 for the atomicity front-end. The racing-moment check
    /// does not apply — both accesses may be individually
    /// lock-protected, so they can never be co-suspended. CTrigger-style
    /// verification instead re-executes and confirms the unserializable
    /// interleaving re-manifests. Attempt k is the breakpoint-free run
    /// of the primary workload at seed `base_seed + k` for every report,
    /// so each seed runs once, on first use, and `runs[k]` answers every
    /// report's attempt k: the keys that run reported and its fault
    /// count, or its panic message. A recorded panic is re-raised for
    /// the supervisor with `resume_unwind`, which skips the panic hook,
    /// so it prints once, when its seed ran.
    fn verify_atomicity(
        &self,
        runs: &mut Vec<AtomicityRun>,
        primary: &ProgramInput,
        report: &AtomicityReport,
    ) -> RaceVerification {
        let cfg = &self.config.race_verify;
        let mut v = RaceVerification {
            confirmed: false,
            verdict: VerifyOutcome::Unconfirmed,
            attempts: 0,
            hints: None,
            outcome: None,
            injected_faults: 0,
            reused_attempts: 0,
        };
        for k in 0..cfg.max_schedules {
            if runs.len() as u64 > k {
                v.reused_attempts += 1;
            } else {
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let mut detector = AtomicityDetector::new();
                    let mut sched = RandomScheduler::new(cfg.base_seed + k);
                    let vm = Vm::new(
                        self.module,
                        self.entry,
                        primary.clone(),
                        cfg.run_config.clone(),
                    );
                    let outcome = vm.run(&mut sched, &mut detector);
                    let keys = detector.reports().iter().map(|r| r.key()).collect();
                    (keys, outcome.injected_faults.len() as u64)
                }));
                runs.push(run.map_err(panic_message));
            }
            match &runs[k as usize] {
                Ok((keys, faults)) => {
                    v.attempts = k + 1;
                    v.injected_faults += faults;
                    if keys.contains(&report.key()) {
                        v.confirmed = true;
                        v.verdict = VerifyOutcome::Confirmed;
                        break;
                    }
                }
                Err(message) => resume_unwind(Box::new(message.clone())),
            }
        }
        v
    }

    /// Stages 3–5, the one path every entry takes, journaled to
    /// `journal`:
    ///
    /// 3. `verify(i)` checks `reports[i]` — the race verifier on the
    ///    primary workload, or the atomicity front-end's seed memo;
    /// 4. Algorithm 1 runs serially over the verified reports on one
    ///    analyzer, rebuilt after a panic;
    /// 5. the vulnerability verifier checks every hint over
    ///    `candidates`.
    ///
    /// Every unit is supervised: a panic or an aborted verification
    /// quarantines its report instead of taking the run down, and a
    /// stage that has spent `deadline` quarantines the units it has not
    /// reached. A unit `journal` already holds is replayed from its
    /// record. Live records are committed once per stage, inside the
    /// stage's timing: stage 3's in report order, then stages 4–5's,
    /// one per verified report in report order.
    #[allow(clippy::too_many_arguments)]
    fn stages_3_to_5<J: JournalSink>(
        &self,
        result: &mut PipelineResult,
        reports: &[RaceReport],
        mut verify: impl FnMut(usize) -> RaceVerification,
        candidates: &[ProgramInput],
        journal: &mut J,
        deadline: Option<Duration>,
        pts_slot: &mut Option<Arc<PointsTo>>,
    ) -> Result<(), JournalError> {
        let PipelineResult {
            program: name,
            stats,
            findings,
            quarantined,
            health,
            ..
        } = result;
        let mut index = ResumeIndex::new(&journal.program_records(name));
        let tv = Instant::now();

        // Stage 3: dynamic race verification.
        let t3 = Instant::now();
        let mut clock = StageClock::start(deadline);
        let mut verified = Vec::new();
        let mut live = Vec::new();
        for (i, report) in reports.iter().enumerate() {
            let key = unit_key(report);
            let unit = match index.verify.next(&key) {
                Some(unit) => unit,
                None => {
                    let unit = if clock.cut(&mut health.race_verify) {
                        RaceUnit::cut(PipelineError::StageDeadline {
                            stage: Stage::RaceVerify,
                        })
                    } else {
                        match catch_unwind(AssertUnwindSafe(|| verify(i))) {
                            Ok(v) => RaceUnit::verified(v),
                            Err(payload) => RaceUnit::cut(PipelineError::Panicked {
                                stage: Stage::RaceVerify,
                                message: panic_message(payload),
                            }),
                        }
                    };
                    live.push(unit.record(name, key, report));
                    unit
                }
            };
            absorb_attempts(&mut health.race_verify, unit.attempts, unit.injected_faults);
            match unit.outcome {
                Ok(Some(v)) => verified.push((report.clone(), v)),
                Ok(None) => stats.verifier_eliminated += 1,
                Err(error) => quarantine(&mut health.race_verify, quarantined, report, error),
            }
        }
        journal.commit(std::mem::take(&mut live))?;
        stats.remaining = verified.len();
        stats.race_verify_time += t3.elapsed();

        // Stage 4: static vulnerability analysis, serially, on one
        // analyzer built at the first live unit.
        let mut clock = StageClock::start(deadline);
        let mut analyzer = None;
        let mut sources = Vec::with_capacity(verified.len());
        for (race, verification) in verified {
            let key = unit_key(&race);
            let (vulns, source) = match index.analyze.next(&key) {
                Some(Ok(recorded)) => {
                    health.vuln_analyze.attempts += 1;
                    let vulns = recorded.iter().map(|rv| rv.report.clone()).collect();
                    (vulns, Source::Replayed(recorded))
                }
                Some(Err((error, attempts))) => {
                    health.vuln_analyze.attempts += attempts;
                    quarantine(&mut health.vuln_analyze, quarantined, &race, error);
                    continue;
                }
                None if clock.cut(&mut health.vuln_analyze) => {
                    let error = PipelineError::StageDeadline {
                        stage: Stage::VulnAnalyze,
                    };
                    live.push(quarantine_record(name, key, &race, &error, 0, 0));
                    quarantine(&mut health.vuln_analyze, quarantined, &race, error);
                    continue;
                }
                None => {
                    health.vuln_analyze.attempts += 1;
                    match self.analyze(&race, &mut analyzer, stats, health, pts_slot) {
                        Ok(vulns) => {
                            live.push(JournalRecord::FindingAnalyzed {
                                program: name.clone(),
                                key,
                                global: race.global_name.clone(),
                                vulns: Vec::new(),
                            });
                            (vulns, Source::Live(live.len() - 1))
                        }
                        Err(message) => {
                            let error = PipelineError::Panicked {
                                stage: Stage::VulnAnalyze,
                                message,
                            };
                            live.push(quarantine_record(name, key, &race, &error, 1, 0));
                            quarantine(&mut health.vuln_analyze, quarantined, &race, error);
                            continue;
                        }
                    }
                }
            };
            findings.push(Finding {
                race,
                verification,
                vulns,
                vuln_verifications: Vec::new(),
            });
            sources.push(source);
        }
        stats.vulnerable = findings.iter().filter(|f| !f.vulns.is_empty()).count();
        if let Some(cache) = analyzer.as_ref().and_then(VulnAnalyzer::summary_cache) {
            health.counters[Counter::SummaryCacheHits] += cache.hits();
            health.counters[Counter::SummaryCacheMisses] += cache.misses();
        }

        // Stage 5: dynamic vulnerability verification of every hint. A
        // panicking, cut or aborted verification keeps a placeholder
        // verdict, so `vuln_verifications` stays parallel to `vulns`,
        // and quarantines the finding's race.
        let t5 = Instant::now();
        let mut clock = StageClock::start(deadline);
        let verifier = VulnVerifier::new(self.module, self.config.vuln_verify.clone());
        for (f, source) in findings.iter_mut().zip(&sources) {
            for (j, vr) in f.vulns.iter().enumerate() {
                let (v, error) = match source {
                    Source::Replayed(recorded) => (replayed_vuln_verification(&recorded[j]), None),
                    Source::Live(_) if clock.cut(&mut health.vuln_verify) => (
                        aborted_vuln_verification(AbortCause::DeadlineExceeded),
                        Some(PipelineError::StageDeadline {
                            stage: Stage::VulnVerify,
                        }),
                    ),
                    Source::Live(_) => match catch_unwind(AssertUnwindSafe(|| {
                        verifier.verify(self.entry, candidates, vr)
                    })) {
                        Ok(v) => (v, None),
                        Err(payload) => (
                            aborted_vuln_verification(AbortCause::Panicked),
                            Some(PipelineError::Panicked {
                                stage: Stage::VulnVerify,
                                message: panic_message(payload),
                            }),
                        ),
                    },
                };
                absorb_attempts(&mut health.vuln_verify, v.attempts, v.injected_faults);
                let error = error.or(match v.verdict {
                    VerifyOutcome::Aborted { cause, attempts } => {
                        Some(PipelineError::VerifierAborted {
                            stage: Stage::VulnVerify,
                            cause,
                            attempts,
                        })
                    }
                    _ => None,
                });
                if let Some(error) = error {
                    quarantine(&mut health.vuln_verify, quarantined, &f.race, error);
                }
                f.vuln_verifications.push(v);
            }
            if let Source::Live(at) = *source {
                if let JournalRecord::FindingAnalyzed { vulns, .. } = &mut live[at] {
                    *vulns = f
                        .vulns
                        .iter()
                        .zip(&f.vuln_verifications)
                        .map(|(report, v)| RecordedVuln {
                            report: report.clone(),
                            reached: v.reached,
                            verdict: v.verdict,
                            attempts: v.attempts,
                            injected_faults: v.injected_faults,
                        })
                        .collect();
                }
            }
        }
        journal.commit(live)?;
        stats.vuln_verify_time += t5.elapsed();
        stats.verify_time += tv.elapsed();
        Ok(())
    }

    /// Algorithm 1 from `race`'s corrupted read on the run's one
    /// analyzer, which the first call builds. A panic comes back as its
    /// message and rebuilds the analyzer, whose memo may be poisoned
    /// mid-walk, over the same points-to solution and summary cache.
    fn analyze(
        &self,
        race: &RaceReport,
        analyzer: &mut Option<VulnAnalyzer<'m>>,
        stats: &mut PipelineStats,
        health: &mut PipelineHealth,
        pts_slot: &mut Option<Arc<PointsTo>>,
    ) -> Result<Vec<VulnReport>, String> {
        let Some(read) = race.read_access() else {
            return Ok(Vec::new());
        };
        let cfg = &self.config.vuln;
        let analyzer = analyzer.get_or_insert_with(|| {
            let points_to = cfg.points_to.then(|| self.points_to(pts_slot, health));
            VulnAnalyzer::with_shared(self.module, cfg.clone(), points_to, None, None)
        });
        let (site, stack) = (read.site, read.stack.to_vec());
        let ta = Instant::now();
        let analyzed = catch_unwind(AssertUnwindSafe(|| analyzer.analyze(site, &stack)));
        stats.analysis_time += ta.elapsed();
        match analyzed {
            Ok((vulns, work)) => {
                stats.analysis_count += 1;
                stats.analysis_work.insts_visited += work.insts_visited;
                stats.analysis_work.funcs_entered += work.funcs_entered;
                Ok(vulns)
            }
            Err(payload) => {
                let points_to = analyzer.points_to().cloned();
                let cache = analyzer.summary_cache().cloned();
                *analyzer =
                    VulnAnalyzer::with_shared(self.module, cfg.clone(), points_to, None, cache);
                Err(panic_message(payload))
            }
        }
    }
}

/// What one breakpoint-free atomicity run at a seed observed: the
/// interleavings it reported and its injected faults, or its panic
/// message.
type AtomicityRun = Result<(FxHashSet<(InstRef, InstRef, InstRef)>, u64), String>;

/// One stage's wall-clock budget. It expires at the first check after
/// the budget has run out, once the stage has processed a unit, so
/// every stage makes progress; from then on every check cuts its unit,
/// and the stage records one deadline hit.
struct StageClock {
    start: Instant,
    budget: Option<Duration>,
    processed: u64,
    expired: bool,
}

impl StageClock {
    fn start(budget: Option<Duration>) -> Self {
        StageClock {
            start: Instant::now(),
            budget,
            processed: 0,
            expired: false,
        }
    }

    /// Whether the unit about to run is cut; a unit that is not counts
    /// as processed.
    fn cut(&mut self, stage: &mut StageHealth) -> bool {
        if let Some(budget) = self.budget {
            if !self.expired && self.processed > 0 && self.start.elapsed() >= budget {
                self.expired = true;
                stage.deadline_hits += 1;
            }
        }
        self.processed += u64::from(!self.expired);
        self.expired
    }
}

/// Stage 3's answer for one report, live or replayed from its record.
struct RaceUnit {
    /// The evidence when confirmed, `None` when eliminated, or why the
    /// report was quarantined.
    outcome: Result<Option<RaceVerification>, PipelineError>,
    /// Verification attempts spent.
    attempts: u64,
    /// Faults injected across them.
    injected_faults: u64,
}

impl RaceUnit {
    fn verified(v: RaceVerification) -> Self {
        let (attempts, injected_faults) = (v.attempts, v.injected_faults);
        let outcome = match v.verdict {
            VerifyOutcome::Confirmed => Ok(Some(v)),
            VerifyOutcome::Unconfirmed => Ok(None),
            VerifyOutcome::Aborted { cause, attempts } => Err(PipelineError::VerifierAborted {
                stage: Stage::RaceVerify,
                cause,
                attempts,
            }),
        };
        RaceUnit {
            outcome,
            attempts,
            injected_faults,
        }
    }

    /// A unit quarantined before the verifier answered.
    fn cut(error: PipelineError) -> Self {
        RaceUnit {
            outcome: Err(error),
            attempts: 0,
            injected_faults: 0,
        }
    }

    fn record(&self, program: &str, key: String, report: &RaceReport) -> JournalRecord {
        match &self.outcome {
            Ok(v) => JournalRecord::ReportVerified {
                program: program.to_string(),
                key,
                global: report.global_name.clone(),
                confirmed: v.is_some(),
                attempts: self.attempts,
                injected_faults: self.injected_faults,
            },
            Err(error) => quarantine_record(
                program,
                key,
                report,
                error,
                self.attempts,
                self.injected_faults,
            ),
        }
    }
}

/// A recorded stage-4–5 unit: the finding's hints with their stage-5
/// verdicts, or the stage-4 quarantine and the analyses it spent.
type AnalyzeUnit = Result<Vec<RecordedVuln>, (PipelineError, u64)>;

/// Where a finding's stage-5 verdicts come from.
enum Source {
    /// Verified live; its record sits at this index of the stages-4–5
    /// batch.
    Live(usize),
    /// Replayed from the journal.
    Replayed(Vec<RecordedVuln>),
}

/// Recorded units by unit key, each key's in journal order, which is
/// processing order: reports are handled in deterministic detector
/// order on every run. Keyed by unit keys read back from the journal
/// file, so the map keeps std's seeded hasher.
struct Replays<T>(HashMap<String, VecDeque<T>>);

impl<T> Replays<T> {
    fn push(&mut self, key: &str, unit: T) {
        self.0.entry(key.to_string()).or_default().push_back(unit);
    }

    fn next(&mut self, key: &str) -> Option<T> {
        self.0.get_mut(key)?.pop_front()
    }
}

/// Everything the journal already recorded for one program's stages
/// 3–5.
struct ResumeIndex {
    verify: Replays<RaceUnit>,
    analyze: Replays<AnalyzeUnit>,
}

impl ResumeIndex {
    fn new(records: &[JournalRecord]) -> Self {
        let mut index = ResumeIndex {
            verify: Replays(HashMap::new()),
            analyze: Replays(HashMap::new()),
        };
        for rec in records {
            match rec {
                JournalRecord::ReportVerified {
                    key,
                    confirmed,
                    attempts,
                    injected_faults,
                    ..
                } => {
                    let v =
                        confirmed.then(|| replayed_race_verification(*attempts, *injected_faults));
                    let unit = RaceUnit {
                        outcome: Ok(v),
                        attempts: *attempts,
                        injected_faults: *injected_faults,
                    };
                    index.verify.push(key, unit);
                }
                JournalRecord::FindingAnalyzed { key, vulns, .. } => {
                    index.analyze.push(key, Ok(vulns.clone()));
                }
                JournalRecord::Quarantined {
                    key: Some(key),
                    error,
                    attempts,
                    ..
                } if error.stage() == Stage::VulnAnalyze => {
                    index.analyze.push(key, Err((error.clone(), *attempts)));
                }
                JournalRecord::Quarantined {
                    key: Some(key),
                    error,
                    attempts,
                    injected_faults,
                    ..
                } => {
                    let unit = RaceUnit {
                        outcome: Err(error.clone()),
                        attempts: *attempts,
                        injected_faults: *injected_faults,
                    };
                    index.verify.push(key, unit);
                }
                _ => {}
            }
        }
        index
    }
}

/// The journal record of a unit quarantined out of stages 3–5.
fn quarantine_record(
    program: &str,
    key: String,
    race: &RaceReport,
    error: &PipelineError,
    attempts: u64,
    injected_faults: u64,
) -> JournalRecord {
    JournalRecord::Quarantined {
        program: program.to_string(),
        key: Some(key),
        global: race.global_name.clone(),
        error: error.clone(),
        attempts,
        injected_faults,
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

/// Folds a unit's verification attempts and injected faults into its
/// stage's health; every attempt past the first is a retry.
pub(crate) fn absorb_attempts(stage: &mut StageHealth, attempts: u64, injected_faults: u64) {
    stage.attempts += attempts;
    stage.retries += attempts.saturating_sub(1);
    stage.injected_faults += injected_faults;
}

/// Folds a quarantine's secondary effects (panic/deadline counters plus
/// the quarantine count itself) into a stage's health. A verification
/// the supervisor recorded as aborted by a panic counts as the panic it
/// was. Live units, replayed units and the campaign's rebuild from the
/// journal all count through here, which keeps their totals equal.
pub(crate) fn apply_quarantine_health(stage: &mut StageHealth, error: &PipelineError) {
    stage.quarantined += 1;
    match error {
        PipelineError::Panicked { .. }
        | PipelineError::VerifierAborted {
            cause: AbortCause::Panicked,
            ..
        } => stage.panics += 1,
        PipelineError::VerifierAborted {
            cause: AbortCause::DeadlineExceeded,
            ..
        } => stage.deadline_hits += 1,
        _ => {}
    }
}

/// Quarantines `race` out of `stage`.
fn quarantine(
    stage: &mut StageHealth,
    quarantined: &mut Vec<Quarantined>,
    race: &RaceReport,
    error: PipelineError,
) {
    apply_quarantine_health(stage, &error);
    quarantined.push(Quarantined {
        race: race.clone(),
        error,
    });
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

/// A placeholder verification for a hint the supervisor could not
/// verify (stage deadline or panic); keeps `vuln_verifications`
/// parallel to `vulns`.
fn aborted_vuln_verification(cause: AbortCause) -> VulnVerification {
    VulnVerification {
        reached: false,
        verdict: VerifyOutcome::Aborted { cause, attempts: 0 },
        attempts: 0,
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
