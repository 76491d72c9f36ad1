//! Durable run journal: append-only, checksummed JSONL.
//!
//! Detection campaigns are long and crash-prone — a panic, a deadline
//! abort, or a plain `kill -9` must not cost hours of completed
//! verification work. The journal records one line per *completed
//! pipeline unit* (a report verified, a finding analyzed, a report
//! quarantined, a program finished or given up on), so a killed run can
//! resume from the last durable unit instead of starting over.
//!
//! ## Commit policy
//!
//! Every append is a group commit ([`Journal::append_batch`]): one
//! `write + flush + sync_data` for the whole batch. A campaign commits
//! each program's stage-3 records as one batch and its stage-4–5
//! records as a second ([`JournalSink::commit`]); the campaign header
//! and each program's terminal record are batches of one
//! ([`Journal::append`]). A kill therefore loses at most the
//! program-stage in flight, which re-executes deterministically on
//! resume.
//!
//! ## Line format
//!
//! ```text
//! {"crc":"<16 lowercase hex>","rec":<record JSON>}\n
//! ```
//!
//! The checksum is FNV-1a/64 over the exact bytes of the record JSON
//! (the canonical form emitted by [`crate::json`]). It is verified
//! byte-for-byte on open and must be spelled exactly as written, so any
//! in-place corruption — not just torn writes — is detected. The
//! daemon's result store is a journal too, so it shares the frame and
//! the torn-tail scan.
//!
//! ## Recovery policy
//!
//! [`Journal::open`] scans the file line by line. The first line that
//! fails — torn (no trailing newline), syntactically broken, checksum
//! mismatch, or an undecodable record — marks the corruption point:
//! everything from there to EOF is discarded and the file is truncated
//! back to the last valid record. Recovery is automatic and quantified:
//! the [`RecoveryReport`] carries the discarded byte and record counts,
//! which a campaign surfaces as the
//! [`crate::Counter::JournalDiscardedBytes`] and
//! [`crate::Counter::JournalDiscardedRecords`] health counters.
//!
//! ## Kill points
//!
//! For crash testing, [`Journal::set_kill_after`] arms a hard kill
//! point: after the `n`-th record appended the journal panics with a
//! [`JournalKilled`] payload (tagged [`owl_vm::FaultKind::JournalKill`]),
//! having fsync'd exactly the first `n` records, even when the `n`-th
//! sits inside a batch. The campaign supervisor deliberately re-raises
//! this payload instead of catching it, so it behaves like a real
//! `SIGKILL` landing right after an fsync.

use crate::counters::Counters;
use crate::json::{self, Json};
use crate::pipeline::{PipelineError, PipelineResult, Stage};
use owl_ir::{FuncId, InstId, InstRef, VulnClass};
use owl_race::RaceReport;
use owl_static::{DepKind, VulnReport};
use owl_verify::{AbortCause, VerifyOutcome};
use owl_vm::FaultKind;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Panic payload of an armed journal kill point (see
/// [`Journal::set_kill_after`]). Supervisors must re-raise it: it
/// simulates the process dying, not a recoverable stage failure.
/// It lives in [`owl_vm`], beside [`FaultKind::JournalKill`], and is
/// re-exported here.
pub use owl_vm::JournalKilled;

/// What `Journal::open` found and repaired.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records that survived validation.
    pub valid_records: u64,
    /// Corrupt or torn records discarded from the tail.
    pub discarded_records: u64,
    /// Bytes truncated off the file.
    pub discarded_bytes: u64,
}

impl RecoveryReport {
    /// Whether anything had to be repaired.
    pub fn recovered(&self) -> bool {
        self.discarded_bytes > 0
    }
}

/// Errors from opening or appending to a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A fresh (non-resume) campaign was pointed at a journal that
    /// already holds records.
    NotResumable {
        /// The journal path.
        path: PathBuf,
        /// Records already present.
        records: u64,
    },
    /// The journal was written by a campaign with a different
    /// configuration or program list.
    ConfigMismatch {
        /// Fingerprint recorded in the journal.
        recorded: String,
        /// Fingerprint of the current configuration.
        current: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::NotResumable { path, records } => write!(
                f,
                "journal {} already holds {records} record(s); pass --resume to continue it",
                path.display()
            ),
            JournalError::ConfigMismatch { recorded, current } => write!(
                f,
                "journal was written with a different campaign configuration \
                 (recorded fingerprint {recorded}, current {current})"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The stable identity of one race report within a program — the unit
/// key completed work is journaled under. Built from the normalized
/// site pair plus the racing address and global, so distinct races
/// that share a site pair still get distinct keys.
pub fn unit_key(report: &RaceReport) -> String {
    let (a, b) = report.key();
    format!(
        "{a}|{b}|{:#x}|{}",
        report.addr,
        report.global_name.as_deref().unwrap_or("-")
    )
}

/// One dynamically-verified vulnerability hint, as journaled: the full
/// static [`VulnReport`] (so resume can rebuild the finding) plus the
/// deterministic slice of its stage-5 verification.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordedVuln {
    /// The stage-4 hint.
    pub report: VulnReport,
    /// Whether the site was dynamically reached.
    pub reached: bool,
    /// Stage-5 verdict.
    pub verdict: VerifyOutcome,
    /// Verification executions performed.
    pub attempts: u64,
    /// Faults injected across those executions.
    pub injected_faults: u64,
}

/// One hint row of a [`ProgramSummary`].
#[derive(Clone, Debug, PartialEq)]
pub struct HintSummary {
    /// Vulnerable-site class.
    pub class: VulnClass,
    /// Dependence kind.
    pub dep: DepKind,
    /// Whether the site was dynamically reached.
    pub reached: bool,
}

/// One vulnerable finding row of a [`ProgramSummary`].
#[derive(Clone, Debug, PartialEq)]
pub struct FindingSummary {
    /// Racy global (or the address, hex-formatted, when unnamed).
    pub global: String,
    /// The finding's hints.
    pub hints: Vec<HintSummary>,
}

/// The deterministic, journal-resident summary of one finished
/// program: exactly the data the consolidated campaign summary is
/// rebuilt from. Deliberately excludes wall-clock times and cache
/// counters, which legitimately differ between a fresh and a resumed
/// run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramSummary {
    /// Raw detector reports.
    pub raw_reports: usize,
    /// Adhoc synchronizations annotated.
    pub adhoc_syncs: usize,
    /// Reports after the post-annotation re-run.
    pub post_annotation_reports: usize,
    /// Reports the race verifier eliminated.
    pub verifier_eliminated: usize,
    /// Reports surviving verification.
    pub remaining: usize,
    /// Findings with at least one vulnerability hint.
    pub vulnerable: usize,
    /// Faults injected across all stages.
    pub injected_faults: u64,
    /// Units quarantined across all stages.
    pub quarantined: u64,
    /// The vulnerable findings.
    pub findings: Vec<FindingSummary>,
}

impl ProgramSummary {
    /// Extracts the deterministic summary from a pipeline result.
    pub fn from_result(result: &PipelineResult) -> Self {
        let findings = result
            .vulnerable_findings()
            .map(|f| FindingSummary {
                global: f
                    .race
                    .global_name
                    .clone()
                    .unwrap_or_else(|| format!("{:#x}", f.race.addr)),
                hints: f
                    .vulns
                    .iter()
                    .zip(&f.vuln_verifications)
                    .map(|(vr, vv)| HintSummary {
                        class: vr.class,
                        dep: vr.dep,
                        reached: vv.reached,
                    })
                    .collect(),
            })
            .collect();
        ProgramSummary {
            raw_reports: result.stats.raw_reports,
            adhoc_syncs: result.stats.adhoc_syncs,
            post_annotation_reports: result.stats.post_annotation_reports,
            verifier_eliminated: result.stats.verifier_eliminated,
            remaining: result.stats.remaining,
            vulnerable: result.stats.vulnerable,
            injected_faults: result.health.total_injected_faults(),
            quarantined: result.health.total_quarantined(),
            findings,
        }
    }
}

/// One durably-recorded pipeline unit.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// Campaign header: written once when the journal is created.
    CampaignStarted {
        /// Fingerprint of the campaign configuration (resume refuses a
        /// journal written under a different one).
        fingerprint: String,
        /// Program names, in execution order.
        programs: Vec<String>,
    },
    /// Stage 3 completed for one report (confirmed or eliminated).
    ReportVerified {
        /// Program name.
        program: String,
        /// Unit key ([`unit_key`]).
        key: String,
        /// Racy global, when named.
        global: Option<String>,
        /// Whether the race was confirmed (else eliminated).
        confirmed: bool,
        /// Verification attempts spent.
        attempts: u64,
        /// Faults injected during verification.
        injected_faults: u64,
    },
    /// Stages 4–5 completed for one confirmed report.
    FindingAnalyzed {
        /// Program name.
        program: String,
        /// Unit key ([`unit_key`]).
        key: String,
        /// Racy global, when named.
        global: Option<String>,
        /// The hints with their dynamic verifications.
        vulns: Vec<RecordedVuln>,
    },
    /// A unit was pulled out of the pipeline; preserves the full typed
    /// error (stage, cause, attempt count).
    Quarantined {
        /// Program name.
        program: String,
        /// Unit key, when the quarantine is report-scoped.
        key: Option<String>,
        /// Racy global, when named.
        global: Option<String>,
        /// Why it was quarantined.
        error: PipelineError,
        /// Verification attempts the unit spent before quarantine.
        attempts: u64,
        /// Faults injected into the unit before quarantine.
        injected_faults: u64,
    },
    /// A program ran to completion; carries the data the campaign
    /// summary is rebuilt from.
    ProgramFinished {
        /// Program name.
        program: String,
        /// Campaign attempts used (1 = first try).
        attempts: u64,
        /// Deterministic result summary.
        summary: ProgramSummary,
        /// The finished run's health counters, which no other record
        /// carries. Decoded by name: a record written before a counter
        /// existed reads it as 0. Boxed: a journal holds every record
        /// in memory, and inline the counters' 192 bytes would enlarge
        /// every record, not just this one.
        counters: Box<Counters>,
    },
    /// A program exhausted its retry budget and was abandoned; the
    /// campaign degrades gracefully and moves on.
    ProgramQuarantined {
        /// Program name.
        program: String,
        /// Campaign attempts spent before giving up.
        attempts: u64,
        /// The last attempt's failure.
        error: PipelineError,
    },
    /// A completed analysis result in the `owl serve` result store,
    /// keyed by the `(program, config)` fingerprint. Duplicate
    /// submissions are answered from this record without re-running
    /// any pipeline stage.
    ResultCached {
        /// [`crate::campaign::campaign_fingerprint`] of the single
        /// program plus its configuration.
        fingerprint: String,
        /// Program name.
        program: String,
        /// Deterministic result summary.
        summary: ProgramSummary,
    },
}

impl JournalRecord {
    /// The program this record belongs to (`None` for the header).
    pub fn program(&self) -> Option<&str> {
        match self {
            JournalRecord::CampaignStarted { .. } => None,
            JournalRecord::ReportVerified { program, .. }
            | JournalRecord::FindingAnalyzed { program, .. }
            | JournalRecord::Quarantined { program, .. }
            | JournalRecord::ProgramFinished { program, .. }
            | JournalRecord::ProgramQuarantined { program, .. }
            | JournalRecord::ResultCached { program, .. } => Some(program),
        }
    }
}

// ---------------------------------------------------------------------
// Enum <-> string codecs (stable names; changing one invalidates old
// journals, so bump the fingerprint story in DESIGN.md if you must).
// ---------------------------------------------------------------------

fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Detect => "detect",
        Stage::AdhocSync => "adhoc-sync",
        Stage::RaceVerify => "race-verify",
        Stage::VulnAnalyze => "vuln-analyze",
        Stage::VulnVerify => "vuln-verify",
    }
}

fn parse_stage(s: &str) -> Option<Stage> {
    Some(match s {
        "detect" => Stage::Detect,
        "adhoc-sync" => Stage::AdhocSync,
        "race-verify" => Stage::RaceVerify,
        "vuln-analyze" => Stage::VulnAnalyze,
        "vuln-verify" => Stage::VulnVerify,
        _ => return None,
    })
}

fn cause_name(cause: AbortCause) -> &'static str {
    match cause {
        AbortCause::DeadlineExceeded => "deadline-exceeded",
        AbortCause::StepBudgetExhausted => "step-budget-exhausted",
        AbortCause::Panicked => "panicked",
        AbortCause::MemoryBudget => "memory-budget",
    }
}

fn parse_cause(s: &str) -> Option<AbortCause> {
    Some(match s {
        "deadline-exceeded" => AbortCause::DeadlineExceeded,
        "step-budget-exhausted" => AbortCause::StepBudgetExhausted,
        "panicked" => AbortCause::Panicked,
        "memory-budget" => AbortCause::MemoryBudget,
        _ => return None,
    })
}

fn class_name(class: VulnClass) -> &'static str {
    match class {
        VulnClass::MemoryOp => "memory-op",
        VulnClass::NullDeref => "null-deref",
        VulnClass::PrivilegeOp => "privilege-op",
        VulnClass::FileOp => "file-op",
        VulnClass::ExecOp => "exec-op",
    }
}

fn parse_class(s: &str) -> Option<VulnClass> {
    Some(match s {
        "memory-op" => VulnClass::MemoryOp,
        "null-deref" => VulnClass::NullDeref,
        "privilege-op" => VulnClass::PrivilegeOp,
        "file-op" => VulnClass::FileOp,
        "exec-op" => VulnClass::ExecOp,
        _ => return None,
    })
}

fn dep_name(dep: DepKind) -> &'static str {
    match dep {
        DepKind::DataDep => "data-dep",
        DepKind::CtrlDep => "ctrl-dep",
    }
}

fn parse_dep(s: &str) -> Option<DepKind> {
    Some(match s {
        "data-dep" => DepKind::DataDep,
        "ctrl-dep" => DepKind::CtrlDep,
        _ => return None,
    })
}

fn encode_iref(r: InstRef) -> Json {
    Json::Arr(vec![
        Json::UInt(r.func.0 as u64),
        Json::UInt(r.inst.0 as u64),
    ])
}

fn decode_iref(v: &Json) -> Option<InstRef> {
    let a = v.as_arr()?;
    if a.len() != 2 {
        return None;
    }
    Some(InstRef {
        func: FuncId(u32::try_from(a[0].as_u64()?).ok()?),
        inst: InstId(u32::try_from(a[1].as_u64()?).ok()?),
    })
}

fn encode_irefs(rs: &[InstRef]) -> Json {
    Json::Arr(rs.iter().map(|r| encode_iref(*r)).collect())
}

fn decode_irefs(v: &Json) -> Option<Vec<InstRef>> {
    v.as_arr()?.iter().map(decode_iref).collect()
}

fn opt_str(v: &Option<String>) -> Json {
    match v {
        Some(s) => Json::str(s.clone()),
        None => Json::Null,
    }
}

fn decode_opt_str(v: Option<&Json>) -> Option<Option<String>> {
    match v? {
        Json::Null => Some(None),
        Json::Str(s) => Some(Some(s.clone())),
        _ => None,
    }
}

/// Encodes a [`PipelineError`] (shared with the CLI's `--json` output).
pub fn encode_error(error: &PipelineError) -> Json {
    match error {
        PipelineError::Panicked { stage, message } => Json::obj([
            ("kind", Json::str("panicked")),
            ("stage", Json::str(stage_name(*stage))),
            ("message", Json::str(message.clone())),
        ]),
        PipelineError::StageDeadline { stage } => Json::obj([
            ("kind", Json::str("stage-deadline")),
            ("stage", Json::str(stage_name(*stage))),
        ]),
        PipelineError::VerifierAborted {
            stage,
            cause,
            attempts,
        } => Json::obj([
            ("kind", Json::str("verifier-aborted")),
            ("stage", Json::str(stage_name(*stage))),
            ("cause", Json::str(cause_name(*cause))),
            ("attempts", Json::UInt(*attempts)),
        ]),
        PipelineError::InvalidEntry { reason } => Json::obj([
            ("kind", Json::str("invalid-entry")),
            ("reason", Json::str(reason.clone())),
        ]),
    }
}

fn decode_error(v: &Json) -> Option<PipelineError> {
    let stage = || parse_stage(v.get("stage")?.as_str()?);
    Some(match v.get("kind")?.as_str()? {
        "panicked" => PipelineError::Panicked {
            stage: stage()?,
            message: v.get("message")?.as_str()?.to_string(),
        },
        "stage-deadline" => PipelineError::StageDeadline { stage: stage()? },
        "verifier-aborted" => PipelineError::VerifierAborted {
            stage: stage()?,
            cause: parse_cause(v.get("cause")?.as_str()?)?,
            attempts: v.get("attempts")?.as_u64()?,
        },
        "invalid-entry" => PipelineError::InvalidEntry {
            reason: v.get("reason")?.as_str()?.to_string(),
        },
        _ => return None,
    })
}

fn encode_verdict(v: VerifyOutcome) -> Json {
    match v {
        VerifyOutcome::Confirmed => Json::obj([("kind", Json::str("confirmed"))]),
        VerifyOutcome::Unconfirmed => Json::obj([("kind", Json::str("unconfirmed"))]),
        VerifyOutcome::Aborted { cause, attempts } => Json::obj([
            ("kind", Json::str("aborted")),
            ("cause", Json::str(cause_name(cause))),
            ("attempts", Json::UInt(attempts)),
        ]),
    }
}

fn decode_verdict(v: &Json) -> Option<VerifyOutcome> {
    Some(match v.get("kind")?.as_str()? {
        "confirmed" => VerifyOutcome::Confirmed,
        "unconfirmed" => VerifyOutcome::Unconfirmed,
        "aborted" => VerifyOutcome::Aborted {
            cause: parse_cause(v.get("cause")?.as_str()?)?,
            attempts: v.get("attempts")?.as_u64()?,
        },
        _ => return None,
    })
}

/// Encodes a [`RecordedVuln`] (shared with the CLI's `--json` output).
pub fn encode_vuln(v: &RecordedVuln) -> Json {
    Json::obj([
        (
            "report",
            Json::obj([
                ("site", encode_iref(v.report.site)),
                ("class", Json::str(class_name(v.report.class))),
                ("dep", Json::str(dep_name(v.report.dep))),
                ("source", encode_iref(v.report.source)),
                ("branches", encode_irefs(&v.report.branches)),
                ("path_branches", encode_irefs(&v.report.path_branches)),
                ("chain", encode_irefs(&v.report.chain)),
            ]),
        ),
        ("reached", Json::Bool(v.reached)),
        ("verdict", encode_verdict(v.verdict)),
        ("attempts", Json::UInt(v.attempts)),
        ("faults", Json::UInt(v.injected_faults)),
    ])
}

fn decode_vuln(v: &Json) -> Option<RecordedVuln> {
    let r = v.get("report")?;
    Some(RecordedVuln {
        report: VulnReport {
            site: decode_iref(r.get("site")?)?,
            class: parse_class(r.get("class")?.as_str()?)?,
            dep: parse_dep(r.get("dep")?.as_str()?)?,
            source: decode_iref(r.get("source")?)?,
            branches: decode_irefs(r.get("branches")?)?,
            path_branches: decode_irefs(r.get("path_branches")?)?,
            chain: decode_irefs(r.get("chain")?)?,
        },
        reached: v.get("reached")?.as_bool()?,
        verdict: decode_verdict(v.get("verdict")?)?,
        attempts: v.get("attempts")?.as_u64()?,
        injected_faults: v.get("faults")?.as_u64()?,
    })
}

/// Encodes a [`ProgramSummary`] (shared with the CLI's `--json`
/// output).
pub fn encode_summary(s: &ProgramSummary) -> Json {
    Json::obj([
        ("raw", Json::UInt(s.raw_reports as u64)),
        ("adhoc", Json::UInt(s.adhoc_syncs as u64)),
        ("annotated", Json::UInt(s.post_annotation_reports as u64)),
        ("eliminated", Json::UInt(s.verifier_eliminated as u64)),
        ("remaining", Json::UInt(s.remaining as u64)),
        ("vulnerable", Json::UInt(s.vulnerable as u64)),
        ("faults", Json::UInt(s.injected_faults)),
        ("quarantined", Json::UInt(s.quarantined)),
        (
            "findings",
            Json::Arr(
                s.findings
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("global", Json::str(f.global.clone())),
                            (
                                "hints",
                                Json::Arr(
                                    f.hints
                                        .iter()
                                        .map(|h| {
                                            Json::obj([
                                                ("class", Json::str(class_name(h.class))),
                                                ("dep", Json::str(dep_name(h.dep))),
                                                ("reached", Json::Bool(h.reached)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a [`ProgramSummary`] produced by [`encode_summary`] (shared
/// with the `owl serve` wire protocol).
pub fn decode_summary(v: &Json) -> Option<ProgramSummary> {
    let findings = v
        .get("findings")?
        .as_arr()?
        .iter()
        .map(|f| {
            Some(FindingSummary {
                global: f.get("global")?.as_str()?.to_string(),
                hints: f
                    .get("hints")?
                    .as_arr()?
                    .iter()
                    .map(|h| {
                        Some(HintSummary {
                            class: parse_class(h.get("class")?.as_str()?)?,
                            dep: parse_dep(h.get("dep")?.as_str()?)?,
                            reached: h.get("reached")?.as_bool()?,
                        })
                    })
                    .collect::<Option<Vec<_>>>()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ProgramSummary {
        raw_reports: v.get("raw")?.as_usize()?,
        adhoc_syncs: v.get("adhoc")?.as_usize()?,
        post_annotation_reports: v.get("annotated")?.as_usize()?,
        verifier_eliminated: v.get("eliminated")?.as_usize()?,
        remaining: v.get("remaining")?.as_usize()?,
        vulnerable: v.get("vulnerable")?.as_usize()?,
        injected_faults: v.get("faults")?.as_u64()?,
        quarantined: v.get("quarantined")?.as_u64()?,
        findings,
    })
}

/// Encodes a [`crate::PipelineHealth`] (shared with the CLI's `--json`
/// output): the four stages, then every counter in
/// [`crate::Counter::ALL`] order. Wall-clock fields are deliberately
/// omitted — health JSON stays deterministic for equal seeds.
pub fn encode_health(h: &crate::PipelineHealth) -> Json {
    let stage = |s: &crate::StageHealth| {
        Json::obj([
            ("attempts", Json::UInt(s.attempts)),
            ("retries", Json::UInt(s.retries)),
            ("faults", Json::UInt(s.injected_faults)),
            ("deadline_hits", Json::UInt(s.deadline_hits)),
            ("panics", Json::UInt(s.panics)),
            ("quarantined", Json::UInt(s.quarantined)),
        ])
    };
    Json::obj(
        [
            ("detect", stage(&h.detect)),
            ("race_verify", stage(&h.race_verify)),
            ("vuln_analyze", stage(&h.vuln_analyze)),
            ("vuln_verify", stage(&h.vuln_verify)),
        ]
        .into_iter()
        .chain(h.counters.json_pairs()),
    )
}

fn encode_record(rec: &JournalRecord) -> Json {
    match rec {
        JournalRecord::CampaignStarted {
            fingerprint,
            programs,
        } => Json::obj([
            ("t", Json::str("campaign-started")),
            ("fingerprint", Json::str(fingerprint.clone())),
            (
                "programs",
                Json::Arr(programs.iter().map(|p| Json::str(p.clone())).collect()),
            ),
        ]),
        JournalRecord::ReportVerified {
            program,
            key,
            global,
            confirmed,
            attempts,
            injected_faults,
        } => Json::obj([
            ("t", Json::str("report-verified")),
            ("program", Json::str(program.clone())),
            ("key", Json::str(key.clone())),
            ("global", opt_str(global)),
            ("confirmed", Json::Bool(*confirmed)),
            ("attempts", Json::UInt(*attempts)),
            ("faults", Json::UInt(*injected_faults)),
        ]),
        JournalRecord::FindingAnalyzed {
            program,
            key,
            global,
            vulns,
        } => Json::obj([
            ("t", Json::str("finding-analyzed")),
            ("program", Json::str(program.clone())),
            ("key", Json::str(key.clone())),
            ("global", opt_str(global)),
            ("vulns", Json::Arr(vulns.iter().map(encode_vuln).collect())),
        ]),
        JournalRecord::Quarantined {
            program,
            key,
            global,
            error,
            attempts,
            injected_faults,
        } => Json::obj([
            ("t", Json::str("quarantined")),
            ("program", Json::str(program.clone())),
            ("key", opt_str(key)),
            ("global", opt_str(global)),
            ("error", encode_error(error)),
            ("attempts", Json::UInt(*attempts)),
            ("faults", Json::UInt(*injected_faults)),
        ]),
        JournalRecord::ProgramFinished {
            program,
            attempts,
            summary,
            counters,
        } => Json::obj([
            ("t", Json::str("program-finished")),
            ("program", Json::str(program.clone())),
            ("attempts", Json::UInt(*attempts)),
            ("summary", encode_summary(summary)),
            ("counters", counters.to_json()),
        ]),
        JournalRecord::ProgramQuarantined {
            program,
            attempts,
            error,
        } => Json::obj([
            ("t", Json::str("program-quarantined")),
            ("program", Json::str(program.clone())),
            ("attempts", Json::UInt(*attempts)),
            ("error", encode_error(error)),
        ]),
        JournalRecord::ResultCached {
            fingerprint,
            program,
            summary,
        } => Json::obj([
            ("t", Json::str("result-cached")),
            ("fingerprint", Json::str(fingerprint.clone())),
            ("program", Json::str(program.clone())),
            ("summary", encode_summary(summary)),
        ]),
    }
}

fn decode_record(v: &Json) -> Option<JournalRecord> {
    let program = || Some(v.get("program")?.as_str()?.to_string());
    Some(match v.get("t")?.as_str()? {
        "campaign-started" => JournalRecord::CampaignStarted {
            fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
            programs: v
                .get("programs")?
                .as_arr()?
                .iter()
                .map(|p| Some(p.as_str()?.to_string()))
                .collect::<Option<Vec<_>>>()?,
        },
        "report-verified" => JournalRecord::ReportVerified {
            program: program()?,
            key: v.get("key")?.as_str()?.to_string(),
            global: decode_opt_str(v.get("global"))?,
            confirmed: v.get("confirmed")?.as_bool()?,
            attempts: v.get("attempts")?.as_u64()?,
            injected_faults: v.get("faults")?.as_u64()?,
        },
        "finding-analyzed" => JournalRecord::FindingAnalyzed {
            program: program()?,
            key: v.get("key")?.as_str()?.to_string(),
            global: decode_opt_str(v.get("global"))?,
            vulns: v
                .get("vulns")?
                .as_arr()?
                .iter()
                .map(decode_vuln)
                .collect::<Option<Vec<_>>>()?,
        },
        "quarantined" => JournalRecord::Quarantined {
            program: program()?,
            key: decode_opt_str(v.get("key"))?,
            global: decode_opt_str(v.get("global"))?,
            error: decode_error(v.get("error")?)?,
            attempts: v.get("attempts")?.as_u64()?,
            injected_faults: v.get("faults")?.as_u64()?,
        },
        "program-finished" => JournalRecord::ProgramFinished {
            program: program()?,
            attempts: v.get("attempts")?.as_u64()?,
            summary: decode_summary(v.get("summary")?)?,
            counters: Box::new(
                v.get("counters")
                    .map(Counters::from_json)
                    .unwrap_or_default(),
            ),
        },
        "program-quarantined" => JournalRecord::ProgramQuarantined {
            program: program()?,
            attempts: v.get("attempts")?.as_u64()?,
            error: decode_error(v.get("error")?)?,
        },
        "result-cached" => JournalRecord::ResultCached {
            fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
            program: program()?,
            summary: decode_summary(v.get("summary")?)?,
        },
        _ => return None,
    })
}

/// FNV-1a 64-bit — small, dependency-free, and plenty for torn-write
/// and bit-rot detection on a line-sized payload. The checksum of
/// every journal line.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How every journal line starts; the CRC's sixteen hex digits follow.
const CRC_PREFIX: &str = "{\"crc\":\"";
/// What sits between the CRC and the payload.
const REC_KEY: &str = "\",\"rec\":";

/// The framed line for `payload`, trailing newline included:
/// `{"crc":"<16 lowercase hex>","rec":<payload>}`, the CRC being
/// [`fnv1a64`] over the payload bytes.
fn frame(payload: &str) -> String {
    let crc = fnv1a64(payload.as_bytes());
    format!("{CRC_PREFIX}{crc:016x}{REC_KEY}{payload}}}\n")
}

/// The checksummed payload of one newline-stripped line, or `None` on
/// any damage. The CRC must be spelled exactly as [`frame`] writes it —
/// sixteen lowercase hex digits — so that every single-bit flip of a
/// line is damage, including one that upper-cases a CRC digit.
fn unframe(line: &[u8]) -> Option<&[u8]> {
    let (crc, rest) = line
        .strip_prefix(CRC_PREFIX.as_bytes())?
        .split_at_checked(16)?;
    let payload = rest.strip_prefix(REC_KEY.as_bytes())?.strip_suffix(b"}")?;
    (crc == format!("{:016x}", fnv1a64(payload)).as_bytes()).then_some(payload)
}

/// Formats one journal line, trailing newline included.
fn format_line(rec: &JournalRecord) -> String {
    frame(&encode_record(rec).to_json_string())
}

/// Validates one newline-stripped journal line: frame and checksum
/// over the exact payload bytes, then record decode.
fn parse_line(line: &[u8]) -> Option<JournalRecord> {
    let payload = std::str::from_utf8(unframe(line)?).ok()?;
    decode_record(&json::parse(payload).ok()?)
}

/// The torn-tail scan: parses the newline-terminated lines at the
/// start of `data` and stops at the first one that is torn (no newline
/// before EOF) or that [`parse_line`] rejects. Returns the records and
/// the length of that valid prefix, which is where recovery truncates
/// the file.
fn valid_prefix(data: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut end = 0;
    for line in data.split_inclusive(|&b| b == b'\n') {
        let Some(rec) = line.strip_suffix(b"\n").and_then(parse_line) else {
            break;
        };
        records.push(rec);
        end += line.len();
    }
    (records, end)
}

/// An open, recovered, append-only run journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    records: Vec<JournalRecord>,
    recovery: RecoveryReport,
    appends: u64,
    fsyncs: u64,
    kill_after: Option<u64>,
    killed: bool,
}

impl Journal {
    /// Opens (creating if absent) and recovers a journal: every line is
    /// re-validated — frame, checksum, record decode — and the file is
    /// truncated back to the last valid record if a torn or corrupt
    /// tail is found.
    pub fn open(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_end) = valid_prefix(&bytes);
        let discarded = &bytes[valid_end..];
        let discarded_records = if discarded.is_empty() {
            0
        } else {
            let terminated = discarded.iter().filter(|&&b| b == b'\n').count() as u64;
            let torn_tail = u64::from(*discarded.last().expect("non-empty") != b'\n');
            terminated + torn_tail
        };
        let recovery = RecoveryReport {
            valid_records: records.len() as u64,
            discarded_records,
            discarded_bytes: discarded.len() as u64,
        };
        if recovery.recovered() {
            file.set_len(valid_end as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;

        Ok(Journal {
            file,
            path,
            records,
            recovery,
            appends: 0,
            fsyncs: 0,
            kill_after: None,
            killed: false,
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Every valid record, recovered plus appended, in file order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// What open-time recovery found.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Appends completed by this handle (not counting recovered
    /// records).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Arms a hard kill point: panic with [`JournalKilled`] right after
    /// the `n`-th successful append (1-based). `None` disarms.
    pub fn set_kill_after(&mut self, n: Option<u64>) {
        self.kill_after = n;
    }

    /// Fsyncs done by appends through this handle.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Durably appends one record: a batch of one, so one fsync.
    pub fn append(&mut self, rec: JournalRecord) -> Result<(), JournalError> {
        self.append_batch(vec![rec])
    }

    /// Durably appends a batch of records with **one** fsync — the
    /// group commit every append goes through. Every record occupies its
    /// own checksummed line, but the batch shares a single
    /// `write + flush + sync_data`: the records are on disk before this
    /// returns. An empty batch writes nothing.
    ///
    /// The armed kill point counts records, not batches: if the `n`-th
    /// append lands *inside* this batch, only the records up to and
    /// including the `n`-th are written (each one whole), that prefix is
    /// fsync'd, and the journal panics with [`JournalKilled`]. Once the
    /// kill point has fired the journal is dead: any later batch panics
    /// *before* touching the file, so concurrent workers racing past a
    /// kill cannot write a single byte beyond the `n`-th record. So
    /// "kill after n appends" means *exactly n records on disk*, on a
    /// clean record boundary, even under a multi-worker campaign.
    pub fn append_batch(&mut self, recs: Vec<JournalRecord>) -> Result<(), JournalError> {
        if recs.is_empty() {
            return Ok(());
        }
        if self.killed {
            std::panic::panic_any(JournalKilled {
                appends: self.appends,
                kind: FaultKind::JournalKill,
            });
        }
        // Does the armed kill point land inside this batch?
        let kill_at = self
            .kill_after
            .and_then(|n| n.checked_sub(self.appends))
            .filter(|&k| k >= 1 && k <= recs.len() as u64);
        let write_n = kill_at.map_or(recs.len(), |k| k as usize);
        let buf: String = recs[..write_n].iter().map(format_line).collect();
        self.file.write_all(buf.as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.records.extend(recs.into_iter().take(write_n));
        self.appends += write_n as u64;
        if kill_at.is_some() {
            self.killed = true;
            std::panic::panic_any(JournalKilled {
                appends: self.appends,
                kind: FaultKind::JournalKill,
            });
        }
        Ok(())
    }

    /// The terminal record for `program` (finished or quarantined), if
    /// the campaign already completed it.
    pub fn program_terminal(&self, program: &str) -> Option<&JournalRecord> {
        self.records.iter().find(|r| match r {
            JournalRecord::ProgramFinished { program: p, .. }
            | JournalRecord::ProgramQuarantined { program: p, .. } => p == program,
            _ => false,
        })
    }
}

/// Where the pipeline checkpoints completed units. `Journal` is the
/// single-owner implementation; [`SharedJournal`] serializes the same
/// operations across campaign workers; a `Vec<JournalRecord>` keeps
/// them in memory for [`crate::Owl::run`] and
/// [`crate::Owl::run_atomicity`], which take the same stage-3–5 path.
///
/// `program_records` returns an owned snapshot rather than borrowing
/// the record stream because a shared sink's records live behind a
/// lock that cannot be held across a whole pipeline run.
pub trait JournalSink {
    /// Durably appends one program-stage's records as one group commit,
    /// same contract as [`Journal::append_batch`]: one fsync, the armed
    /// kill point cutting on a record boundary, nothing written for an
    /// empty batch.
    fn commit(&mut self, recs: Vec<JournalRecord>) -> Result<(), JournalError>;

    /// Snapshot of the records already journaled for `program`, in
    /// file order.
    fn program_records(&self, program: &str) -> Vec<JournalRecord>;
}

impl JournalSink for Vec<JournalRecord> {
    fn commit(&mut self, recs: Vec<JournalRecord>) -> Result<(), JournalError> {
        self.extend(recs);
        Ok(())
    }

    fn program_records(&self, program: &str) -> Vec<JournalRecord> {
        self.iter()
            .filter(|r| r.program() == Some(program))
            .cloned()
            .collect()
    }
}

impl JournalSink for Journal {
    fn commit(&mut self, recs: Vec<JournalRecord>) -> Result<(), JournalError> {
        self.append_batch(recs)
    }

    fn program_records(&self, program: &str) -> Vec<JournalRecord> {
        self.records.program_records(program)
    }
}

/// A [`Journal`] behind `Arc<Mutex<_>>`: the serialized writer the
/// parallel campaign hands to every worker. Appends take the lock for
/// the full write+fsync, so records never interleave mid-line and the
/// on-disk order is exactly the lock-acquisition order.
///
/// Locking is poison-tolerant: an armed kill point panics *while
/// holding the lock* (that is the point — it simulates dying mid-run),
/// and the surviving workers must still be able to observe the killed
/// flag rather than deadlock or spuriously panic on `PoisonError`.
#[derive(Clone, Debug)]
pub struct SharedJournal {
    inner: std::sync::Arc<std::sync::Mutex<Journal>>,
}

impl SharedJournal {
    /// Wraps an opened, validated journal for shared use.
    pub fn new(journal: Journal) -> Self {
        SharedJournal {
            inner: std::sync::Arc::new(std::sync::Mutex::new(journal)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Journal> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Serialized [`Journal::append`].
    pub fn append(&self, rec: JournalRecord) -> Result<(), JournalError> {
        self.lock().append(rec)
    }

    /// Snapshot of every record, in file order.
    pub fn records(&self) -> Vec<JournalRecord> {
        self.lock().records().to_vec()
    }

    /// What open-time recovery found.
    pub fn recovery(&self) -> RecoveryReport {
        self.lock().recovery().clone()
    }

    /// Appends completed through this shared handle.
    pub fn appends(&self) -> u64 {
        self.lock().appends()
    }

    /// Fsyncs done by appends through this shared handle.
    pub fn fsyncs(&self) -> u64 {
        self.lock().fsyncs()
    }
}

impl JournalSink for SharedJournal {
    fn commit(&mut self, recs: Vec<JournalRecord>) -> Result<(), JournalError> {
        self.lock().append_batch(recs)
    }

    fn program_records(&self, program: &str) -> Vec<JournalRecord> {
        self.lock().program_records(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counter;
    use proptest::prelude::*;

    fn tmp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "owl-journal-test-{}-{tag}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::CampaignStarted {
                fingerprint: "abc123".into(),
                programs: vec!["Libsafe".into(), "SSDB".into()],
            },
            JournalRecord::ReportVerified {
                program: "Libsafe".into(),
                key: "@f1:%2|@f3:%4|0x1000|dying".into(),
                global: Some("dying".into()),
                confirmed: true,
                attempts: 3,
                injected_faults: 1,
            },
            JournalRecord::Quarantined {
                program: "Libsafe".into(),
                key: Some("@f1:%2|@f3:%4|0x1008|-".into()),
                global: None,
                error: PipelineError::VerifierAborted {
                    stage: Stage::RaceVerify,
                    cause: AbortCause::StepBudgetExhausted,
                    attempts: 7,
                },
                attempts: 7,
                injected_faults: 2,
            },
            JournalRecord::ProgramFinished {
                program: "Libsafe".into(),
                attempts: 1,
                summary: ProgramSummary {
                    raw_reports: 2,
                    adhoc_syncs: 0,
                    post_annotation_reports: 2,
                    verifier_eliminated: 0,
                    remaining: 2,
                    vulnerable: 1,
                    injected_faults: 1,
                    quarantined: 1,
                    findings: vec![FindingSummary {
                        global: "dying".into(),
                        hints: vec![HintSummary {
                            class: VulnClass::MemoryOp,
                            dep: DepKind::CtrlDep,
                            reached: true,
                        }],
                    }],
                },
                counters: {
                    let mut c = Counters::default();
                    c[Counter::PredictCandidates] = 9;
                    c[Counter::UnitsForked] = 4;
                    Box::new(c)
                },
            },
        ]
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let path = tmp_path("roundtrip");
        let recs = sample_records();
        {
            let mut j = Journal::open(&path).unwrap();
            for r in &recs {
                j.append(r.clone()).unwrap();
            }
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.records(), recs.as_slice());
        assert!(!j.recovery().recovered());
        assert_eq!(j.recovery().valid_records, recs.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp_path("torn");
        {
            let mut j = Journal::open(&path).unwrap();
            for r in sample_records() {
                j.append(r).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        // Truncate the last record mid-line (no trailing newline).
        let cut = full.len() - 10;
        std::fs::write(&path, &full[..cut]).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.records().len(), sample_records().len() - 1);
        assert_eq!(j.recovery().discarded_records, 1);
        assert!(j.recovery().discarded_bytes > 0);
        // The file itself was repaired.
        let repaired = std::fs::read(&path).unwrap();
        assert!(full.starts_with(&repaired));
        assert_eq!(*repaired.last().unwrap(), b'\n');
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_checksum_discards_from_there() {
        let path = tmp_path("crc");
        {
            let mut j = Journal::open(&path).unwrap();
            for r in sample_records() {
                j.append(r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte inside the second record's line.
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let idx = first_nl + 40;
        bytes[idx] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::open(&path).unwrap();
        // Only the header survives: the corrupt record and everything
        // after it are discarded.
        assert_eq!(j.records().len(), 1);
        assert_eq!(j.recovery().discarded_records, 3);
        assert_eq!(
            j.recovery().discarded_bytes,
            (bytes.len() - first_nl - 1) as u64
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_point_fires_after_nth_append() {
        let path = tmp_path("kill");
        let mut j = Journal::open(&path).unwrap();
        j.set_kill_after(Some(2));
        j.append(sample_records().remove(0)).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            j.append(sample_records().remove(1))
        }))
        .expect_err("kill point must fire");
        let killed = err
            .downcast_ref::<JournalKilled>()
            .expect("payload is JournalKilled");
        assert_eq!(killed.appends, 2);
        assert_eq!(killed.kind, FaultKind::JournalKill);
        // Both appends are durably on disk — the "crash" lost nothing.
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.records().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_batch_round_trips_and_matches_per_record_format() {
        let batch_path = tmp_path("batch");
        let single_path = tmp_path("single");
        let recs = sample_records();
        {
            let mut j = Journal::open(&batch_path).unwrap();
            j.append_batch(recs.clone()).unwrap();
            assert_eq!(j.appends(), recs.len() as u64);
        }
        {
            let mut j = Journal::open(&single_path).unwrap();
            for r in &recs {
                j.append(r.clone()).unwrap();
            }
        }
        // Byte-identical to per-record appends: one line per record,
        // same checksummed frame.
        assert_eq!(
            std::fs::read(&batch_path).unwrap(),
            std::fs::read(&single_path).unwrap()
        );
        let j = Journal::open(&batch_path).unwrap();
        assert_eq!(j.records(), recs.as_slice());
        assert!(!j.recovery().recovered());
        let _ = std::fs::remove_file(&batch_path);
        let _ = std::fs::remove_file(&single_path);
    }

    #[test]
    fn kill_point_mid_batch_leaves_exactly_n_records() {
        let path = tmp_path("batch-kill");
        let mut j = Journal::open(&path).unwrap();
        j.set_kill_after(Some(3));
        j.append(sample_records().remove(0)).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            j.append_batch(sample_records()[1..].to_vec())
        }))
        .expect_err("kill point lands inside the batch");
        let killed = err
            .downcast_ref::<JournalKilled>()
            .expect("payload is JournalKilled");
        assert_eq!(killed.appends, 3);
        // Exactly three whole records on disk — the batch was cut at
        // the kill point on a clean record boundary.
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.records(), &sample_records()[..3]);
        assert!(!j2.recovery().recovered(), "no torn line to repair");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_batch_tail_truncates_to_a_record_boundary() {
        let path = tmp_path("batch-torn");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append_batch(sample_records()).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Simulate a crash that tore the final record of the batch.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.records(), &sample_records()[..sample_records().len() - 1]);
        assert_eq!(j.recovery().discarded_records, 1);
        let repaired = std::fs::read(&path).unwrap();
        assert!(full.starts_with(&repaired));
        assert_eq!(*repaired.last().unwrap(), b'\n');
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn result_cached_record_round_trips() {
        let path = tmp_path("result-cached");
        let rec = JournalRecord::ResultCached {
            fingerprint: "deadbeefdeadbeef".into(),
            program: "Libsafe".into(),
            summary: ProgramSummary {
                raw_reports: 3,
                remaining: 1,
                vulnerable: 1,
                ..ProgramSummary::default()
            },
        };
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(rec.clone()).unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.records(), &[rec]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn program_finished_without_counters_decodes_as_zero() {
        // A line exactly as journals written before `ProgramFinished`
        // carried counters hold it.
        let line = br#"{"crc":"c62c818529c1e6fa","rec":{"t":"program-finished","program":"Memcached","attempts":1,"summary":{"raw":123,"adhoc":0,"annotated":123,"eliminated":120,"remaining":3,"vulnerable":0,"faults":0,"quarantined":0,"findings":[]}}}"#;
        match parse_line(line).expect("old line still parses") {
            JournalRecord::ProgramFinished {
                program,
                summary,
                counters,
                ..
            } => {
                assert_eq!(program, "Memcached");
                assert_eq!(summary.raw_reports, 123);
                assert_eq!(*counters, Counters::default());
            }
            other => panic!("expected program-finished, got {other:?}"),
        }
    }

    /// A journal exactly as builds with the trace-memory budget wrote
    /// it: a unit quarantine and a program quarantine for a
    /// memory-budget abort, and a `ProgramFinished` record whose
    /// counters carry the budget's four retired keys. It must open
    /// whole, every record decoding.
    const BUDGET_ERA_JOURNAL: &str = concat!(
        r#"{"crc":"b360d2d883913ca8","rec":{"t":"campaign-started","fingerprint":"0123456789abcdef","programs":["MySQL","SSDB"]}}"#,
        "\n",
        r#"{"crc":"b347843847b5a533","rec":{"t":"quarantined","program":"MySQL","key":null,"global":null,"error":{"kind":"verifier-aborted","stage":"detect","cause":"memory-budget","attempts":12},"attempts":12,"faults":0}}"#,
        "\n",
        r#"{"crc":"d1e4644c65a3fb79","rec":{"t":"program-quarantined","program":"MySQL","attempts":1,"error":{"kind":"verifier-aborted","stage":"detect","cause":"memory-budget","attempts":12}}}"#,
        "\n",
        r#"{"crc":"019ae593dc11f8d2","rec":{"t":"program-finished","program":"SSDB","attempts":1,"summary":{"raw":3,"adhoc":0,"annotated":3,"eliminated":0,"remaining":1,"vulnerable":1,"faults":0,"quarantined":0,"findings":[]},"counters":{"summary_cache_hits":0,"summary_cache_misses":0,"journal_discarded_bytes":0,"journal_discarded_records":0,"detector_suppressed":0,"detector_reports_dropped":0,"elision_sites_thread_local":0,"elision_sites_lock_dominated":0,"elision_sites_read_only":0,"elision_events_elided":0,"trace_spilled_bytes":4096,"trace_spill_segments":3,"mem_pressure_events":5,"shadow_cells_gced":7,"units_aborted_mem_budget":2,"predict_candidates":0,"predict_witnessed":0,"predict_witness_rejected":0,"predict_reversal_races":0,"predict_capped":0,"units_forked":8,"prefix_steps_saved":0,"schedules_deduped":0,"snapshot_bytes":0}}}"#,
        "\n",
    );

    #[test]
    fn memory_budget_era_journal_opens_whole() {
        let path = tmp_path("budget-era");
        std::fs::write(&path, BUDGET_ERA_JOURNAL).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(
            j.recovery(),
            &RecoveryReport {
                valid_records: 4,
                ..RecoveryReport::default()
            }
        );
        let error = PipelineError::VerifierAborted {
            stage: Stage::Detect,
            cause: AbortCause::MemoryBudget,
            attempts: 12,
        };
        let mut counters = Counters::default();
        counters[Counter::ShadowCellsGced] = 7;
        counters[Counter::UnitsForked] = 8;
        let expected = vec![
            JournalRecord::CampaignStarted {
                fingerprint: "0123456789abcdef".into(),
                programs: vec!["MySQL".into(), "SSDB".into()],
            },
            JournalRecord::Quarantined {
                program: "MySQL".into(),
                key: None,
                global: None,
                error: error.clone(),
                attempts: 12,
                injected_faults: 0,
            },
            JournalRecord::ProgramQuarantined {
                program: "MySQL".into(),
                attempts: 1,
                error,
            },
            JournalRecord::ProgramFinished {
                program: "SSDB".into(),
                attempts: 1,
                summary: ProgramSummary {
                    raw_reports: 3,
                    post_annotation_reports: 3,
                    remaining: 1,
                    vulnerable: 1,
                    ..ProgramSummary::default()
                },
                counters: Box::new(counters),
            },
        ];
        assert_eq!(j.records(), expected.as_slice());

        // The unit quarantine counts in the detection stage's health;
        // the program quarantine counts in the campaign summary, where
        // program-level outcomes have always been counted.
        let health = crate::campaign::health_from_records(j.records(), j.recovery());
        assert_eq!(health.detect.quarantined, 1);
        assert_eq!(health.detect.attempts, 12);
        assert_eq!(health.counters[Counter::ShadowCellsGced], 7);
        let summary = crate::campaign::CampaignSummary::from_records(j.records());
        assert_eq!((summary.units_quarantined, summary.quarantined()), (1, 1));
        assert_eq!(summary.finished(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    /// A word stream that records are read off; zeros once it runs dry.
    struct Words<'a>(std::slice::Iter<'a, u64>);

    impl Words<'_> {
        fn next(&mut self) -> u64 {
            self.0.next().copied().unwrap_or(0)
        }

        fn pick<T: Copy>(&mut self, options: &[T]) -> T {
            options[self.next() as usize % options.len()]
        }
    }

    /// Names, keys and messages with what the JSON writer escapes
    /// (quotes, backslashes, control characters), printable ASCII and
    /// arbitrary non-ASCII.
    fn text(w: &mut Words) -> String {
        (0..w.next() % 8)
            .map(|_| {
                let x = w.next();
                let pick = (x >> 2) as u32;
                match x % 4 {
                    0 => ['"', '\\', '\n', '\r', '\u{0}', '\u{1f}', '}', '|'][pick as usize % 8],
                    1 => char::from(b' ' + (pick % 95) as u8),
                    _ => char::from_u32(pick % 0x11_0000).unwrap_or('\u{fffd}'),
                }
            })
            .collect()
    }

    fn opt_text(w: &mut Words) -> Option<String> {
        (w.next() & 1 == 1).then(|| text(w))
    }

    fn iref(w: &mut Words) -> InstRef {
        InstRef {
            func: FuncId(w.next() as u32),
            inst: InstId(w.next() as u32),
        }
    }

    fn irefs(w: &mut Words) -> Vec<InstRef> {
        (0..w.next() % 4).map(|_| iref(w)).collect()
    }

    fn stage(w: &mut Words) -> Stage {
        w.pick(&[
            Stage::Detect,
            Stage::AdhocSync,
            Stage::RaceVerify,
            Stage::VulnAnalyze,
            Stage::VulnVerify,
        ])
    }

    fn cause(w: &mut Words) -> AbortCause {
        w.pick(&[
            AbortCause::DeadlineExceeded,
            AbortCause::StepBudgetExhausted,
            AbortCause::Panicked,
            AbortCause::MemoryBudget,
        ])
    }

    fn class(w: &mut Words) -> VulnClass {
        w.pick(&[
            VulnClass::MemoryOp,
            VulnClass::NullDeref,
            VulnClass::PrivilegeOp,
            VulnClass::FileOp,
            VulnClass::ExecOp,
        ])
    }

    fn dep(w: &mut Words) -> DepKind {
        w.pick(&[DepKind::DataDep, DepKind::CtrlDep])
    }

    /// Every `PipelineError` kind.
    fn error(w: &mut Words) -> PipelineError {
        match w.next() % 4 {
            0 => PipelineError::Panicked {
                stage: stage(w),
                message: text(w),
            },
            1 => PipelineError::StageDeadline { stage: stage(w) },
            2 => PipelineError::VerifierAborted {
                stage: stage(w),
                cause: cause(w),
                attempts: w.next(),
            },
            _ => PipelineError::InvalidEntry { reason: text(w) },
        }
    }

    fn vuln(w: &mut Words) -> RecordedVuln {
        RecordedVuln {
            report: VulnReport {
                site: iref(w),
                class: class(w),
                dep: dep(w),
                source: iref(w),
                branches: irefs(w),
                path_branches: irefs(w),
                chain: irefs(w),
            },
            reached: w.next() & 1 == 1,
            verdict: match w.next() % 3 {
                0 => VerifyOutcome::Confirmed,
                1 => VerifyOutcome::Unconfirmed,
                _ => VerifyOutcome::Aborted {
                    cause: cause(w),
                    attempts: w.next(),
                },
            },
            attempts: w.next(),
            injected_faults: w.next(),
        }
    }

    fn summary(w: &mut Words) -> ProgramSummary {
        ProgramSummary {
            raw_reports: w.next() as usize,
            adhoc_syncs: w.next() as usize,
            post_annotation_reports: w.next() as usize,
            verifier_eliminated: w.next() as usize,
            remaining: w.next() as usize,
            vulnerable: w.next() as usize,
            injected_faults: w.next(),
            quarantined: w.next(),
            findings: (0..w.next() % 3)
                .map(|_| FindingSummary {
                    global: text(w),
                    hints: (0..w.next() % 3)
                        .map(|_| HintSummary {
                            class: class(w),
                            dep: dep(w),
                            reached: w.next() & 1 == 1,
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// A record of any variant, every field read off `w`.
    fn record(w: &mut Words) -> JournalRecord {
        match w.next() % 7 {
            0 => JournalRecord::CampaignStarted {
                fingerprint: text(w),
                programs: (0..w.next() % 4).map(|_| text(w)).collect(),
            },
            1 => JournalRecord::ReportVerified {
                program: text(w),
                key: text(w),
                global: opt_text(w),
                confirmed: w.next() & 1 == 1,
                attempts: w.next(),
                injected_faults: w.next(),
            },
            2 => JournalRecord::FindingAnalyzed {
                program: text(w),
                key: text(w),
                global: opt_text(w),
                vulns: (0..w.next() % 3).map(|_| vuln(w)).collect(),
            },
            3 => JournalRecord::Quarantined {
                program: text(w),
                key: opt_text(w),
                global: opt_text(w),
                error: error(w),
                attempts: w.next(),
                injected_faults: w.next(),
            },
            4 => JournalRecord::ProgramFinished {
                program: text(w),
                attempts: w.next(),
                summary: summary(w),
                counters: Box::new({
                    let mut c = Counters::default();
                    for counter in Counter::ALL {
                        c[counter] = w.next();
                    }
                    c
                }),
            },
            5 => JournalRecord::ProgramQuarantined {
                program: text(w),
                attempts: w.next(),
                error: error(w),
            },
            _ => JournalRecord::ResultCached {
                fingerprint: text(w),
                program: text(w),
                summary: summary(w),
            },
        }
    }

    fn records(words: &[u64], n: u64) -> Vec<JournalRecord> {
        let mut w = Words(words.iter());
        (0..n).map(|_| record(&mut w)).collect()
    }

    /// Writes `recs` as one batch to a fresh journal at `path` and
    /// returns the file's bytes.
    fn write_journal(path: &Path, recs: &[JournalRecord]) -> Vec<u8> {
        let _ = std::fs::remove_file(path);
        Journal::open(path)
            .and_then(|mut j| j.append_batch(recs.to_vec()))
            .expect("journal writes");
        std::fs::read(path).expect("journal reads")
    }

    /// JSON's and the frame's punctuation, so that random payloads get
    /// past the first token.
    const TOKENS: &[u8] = b"{}[]\":,\\-0123456789tfn crecprogramkeyt";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every record of every variant formats to one line that parses
        /// back to itself.
        #[test]
        fn any_record_round_trips(words in prop::collection::vec(any::<u64>(), 0..128)) {
            let rec = records(&words, 1).remove(0);
            let line = format_line(&rec);
            prop_assert_eq!(line.matches('\n').count(), 1);
            let body = line.strip_suffix('\n').expect("one record per line");
            prop_assert_eq!(parse_line(body.as_bytes()), Some(rec));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes, bare or framed under a correct checksum so
        /// they reach the record decoder, never panic `parse_line`; after
        /// intact records, `Journal::open` keeps exactly those records
        /// and truncates the bytes away.
        #[test]
        fn arbitrary_bytes_never_panic(
            words in prop::collection::vec(any::<u64>(), 0..64),
            n in 0u64..3,
            garbage in prop::collection::vec(any::<u8>(), 1..256),
        ) {
            let tokens: Vec<u8> = garbage
                .iter()
                .map(|&b| if b < 128 { TOKENS[b as usize % TOKENS.len()] } else { b })
                .collect();
            let framed = frame(&String::from_utf8_lossy(&tokens));
            let _ = parse_line(framed.trim_end_matches('\n').as_bytes());
            prop_assert!(parse_line(&garbage).is_none());

            let path = tmp_path("garbage");
            let recs = records(&words, n);
            let mut data = write_journal(&path, &recs);
            let clean = data.len();
            data.extend_from_slice(&garbage);
            std::fs::write(&path, &data).expect("journal rewrites");
            let j = Journal::open(&path).expect("recovery opens any bytes");
            prop_assert_eq!(j.records(), recs.as_slice());
            prop_assert_eq!(j.recovery().discarded_bytes, garbage.len() as u64);
            prop_assert_eq!(std::fs::read(&path).expect("journal reads").len(), clean);
            let _ = std::fs::remove_file(&path);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Every single-bit flip of a valid multi-record journal opens to
        /// exactly the records before the flipped line, and the file is
        /// truncated at the start of that line. A flip that upper-cases a
        /// CRC digit is damage too.
        #[test]
        fn every_bit_flip_keeps_the_records_before_it(
            words in prop::collection::vec(any::<u64>(), 0..48),
        ) {
            let path = tmp_path("flip");
            let recs = records(&words, 3);
            let clean = write_journal(&path, &recs);
            let mut line_start = 0;
            for byte in 0..clean.len() {
                let line = clean[..byte].iter().filter(|&&b| b == b'\n').count();
                if byte > 0 && clean[byte - 1] == b'\n' {
                    line_start = byte;
                }
                for bit in 0..8 {
                    let mut data = clean.clone();
                    data[byte] ^= 1 << bit;
                    std::fs::write(&path, &data).expect("journal rewrites");
                    let j = Journal::open(&path).expect("recovery opens any bytes");
                    prop_assert_eq!(j.records(), &recs[..line], "byte {} bit {}", byte, bit);
                    let kept = std::fs::metadata(&path).expect("journal stats").len();
                    prop_assert_eq!(kept, line_start as u64, "byte {} bit {}", byte, bit);
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}
