//! The three entries into stages 3–5, pinned against each other.
//!
//! `Owl::run` (over an in-memory journal), `run_with_journal` on an
//! empty journal, and `run_with_journal` replaying what that run
//! journaled all take one stage-3–5 path. For every `corpus-campaign`
//! program plus Bank, under five configurations (two of them starving
//! a verifier's step budget so units quarantine), they must agree on:
//!
//! * the [`ProgramSummary`];
//! * the quarantines, error and unit key, in order;
//! * the stage-3–5 [`StageHealth`];
//! * every counter. A replay runs no stage-4 work, so its
//!   `summary_cache_*` read 0; every other counter equals the live
//!   runs'.
//!
//! Two digest tables, recorded before the paths were merged (and
//! re-pinned when four zero-valued counters retired), pin what
//! the path does under a deadline and for the atomicity front-end: `run`
//! at `stage_deadline = Some(Duration::ZERO)`, which expires at its
//! first check and so cuts every stage at the same unit on every run,
//! and `run_atomicity` for Bank.

use owl::journal::{encode_error, encode_health, encode_summary, fnv1a64, unit_key};
use owl::{
    Counter, JournalRecord, Owl, OwlConfig, PipelineError, PipelineResult, ProgramSummary,
    StageHealth,
};
use owl_corpus::CorpusProgram;
use owl_vm::FaultPlan;
use std::time::Duration;

/// The 10 `corpus-campaign` programs, then Bank.
fn programs() -> Vec<CorpusProgram> {
    let mut ps = owl_corpus::all_programs();
    ps.push(owl_corpus::extensions::heap_relay());
    ps.push(owl_corpus::extensions::cache_relay());
    ps.push(owl_corpus::extensions::kernel_double_fetch());
    ps.push(owl_corpus::extensions::bank_atomicity());
    ps
}

fn configs() -> Vec<(&'static str, OwlConfig)> {
    let quick = OwlConfig::quick();
    let mut race_starved = quick.clone();
    race_starved.race_verify.run_config.max_steps = 2;
    let mut vuln_starved = quick.clone();
    vuln_starved.vuln_verify.run_config.max_steps = 40;
    vec![
        ("default", OwlConfig::default()),
        ("quick", quick.clone()),
        (
            "quick+faults",
            quick.with_fault_plan(FaultPlan::uniform(11, 0.01)),
        ),
        ("quick+race-steps-2", race_starved),
        ("quick+vuln-steps-40", vuln_starved),
    ]
}

/// Everything stages 3–5 decide, wall-clock times aside.
#[derive(Debug, PartialEq)]
struct StageView {
    summary: ProgramSummary,
    quarantined: Vec<(String, PipelineError)>,
    health: [StageHealth; 3],
}

fn view(r: &PipelineResult) -> StageView {
    StageView {
        summary: ProgramSummary::from_result(r),
        quarantined: r
            .quarantined
            .iter()
            .map(|q| (unit_key(&q.race), q.error.clone()))
            .collect(),
        health: [
            r.health.race_verify.clone(),
            r.health.vuln_analyze.clone(),
            r.health.vuln_verify.clone(),
        ],
    }
}

/// The summary-cache counters count live stage-4 work, which a replay
/// does not do.
const CACHE_COUNTERS: [Counter; 2] = [Counter::SummaryCacheHits, Counter::SummaryCacheMisses];

#[test]
fn run_journaled_and_replayed_take_one_path() {
    let mut quarantined = 0;
    for (p, (label, cfg)) in programs()
        .iter()
        .flat_map(|p| configs().into_iter().map(move |c| (p, c)))
    {
        let owl = Owl::new(&p.module, p.entry, cfg);
        let run = owl.run(p.name, &p.workloads, &p.exploit_inputs);
        quarantined += run.quarantined.len();
        let mut journal: Vec<JournalRecord> = Vec::new();
        let live = owl
            .run_with_journal(p.name, &p.workloads, &p.exploit_inputs, &mut journal)
            .expect("in-memory journal");
        let records = journal.len();
        let replay = owl
            .run_with_journal(p.name, &p.workloads, &p.exploit_inputs, &mut journal)
            .expect("in-memory journal");
        assert_eq!(
            journal.len(),
            records,
            "{} {label}: a replay journals nothing",
            p.name
        );

        assert_eq!(
            view(&live),
            view(&run),
            "{} {label}: journaled vs run",
            p.name
        );
        assert_eq!(
            view(&replay),
            view(&run),
            "{} {label}: replay vs run",
            p.name
        );
        assert_eq!(
            live.health.counters, run.health.counters,
            "{} {label}: journaled vs run counters",
            p.name
        );
        let mut expected = run.health.counters.clone();
        for c in CACHE_COUNTERS {
            expected[c] = 0;
        }
        assert_eq!(
            replay.health.counters, expected,
            "{} {label}: replay counters",
            p.name
        );
    }
    assert!(quarantined > 0, "the starved budgets quarantine units");
}

/// FNV-1a over the summary, the health block and the quarantines, as
/// `run --json` encodes them.
fn digest(r: &PipelineResult) -> String {
    let mut text = format!(
        "{}|{}",
        encode_summary(&ProgramSummary::from_result(r)).to_json_string(),
        encode_health(&r.health).to_json_string()
    );
    for q in &r.quarantined {
        text.push('|');
        text.push_str(&unit_key(&q.race));
        text.push_str(&encode_error(&q.error).to_json_string());
    }
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// `run` under an expired deadline, per program at `quick`. Re-pinned
/// when the trace-memory budget went: its four counters (DESIGN.md §19
/// names them) left the health block, where every one read 0. Putting
/// the four zero-valued keys back in their places reproduces the
/// previous digests.
const ZERO_DEADLINE_PINS: [(&str, &str); 11] = [
    ("Apache", "9276579358f93662"),
    ("Chrome", "5c64cdb7aabaa7cb"),
    ("Libsafe", "652ee76ce627754e"),
    ("Linux", "28058644ab12236d"),
    ("Memcached", "85d3e184bbcddb37"),
    ("MySQL", "75f0b611964fe15e"),
    ("SSDB", "f5fe689f729405e9"),
    ("HeapRelay", "d0553ef3ff39dbc4"),
    ("CacheRelay", "a37493ef2ddb9aaf"),
    ("DoubleFetch", "f5686779b80f8e57"),
    ("Bank", "60acc987ed069a3f"),
];

/// `run_atomicity` for Bank, per configuration. Re-pinned, like
/// [`ZERO_DEADLINE_PINS`], when the trace-memory budget's four
/// zero-valued counters left the health block; putting them back
/// reproduces the previous digests.
const ATOMICITY_PINS: [(&str, &str); 5] = [
    ("default", "9476f4d167ae6076"),
    ("quick", "df2c26574b4950e1"),
    ("quick+faults", "76991b91ea1cafdb"),
    ("quick+race-steps-2", "f3440c35cbee8d50"),
    ("quick+vuln-steps-40", "271d0610a2347421"),
];

/// Compares `got` with `pins`; on a mismatch prints the table it got,
/// ready to paste.
fn check_pins(table: &str, pins: &[(&str, &str)], got: &[(String, String)]) {
    let expected: Vec<(String, String)> = pins
        .iter()
        .map(|(k, d)| (k.to_string(), d.to_string()))
        .collect();
    if got != expected {
        let rows: String = got
            .iter()
            .map(|(k, d)| format!("    (\"{k}\", \"{d}\"),\n"))
            .collect();
        panic!("{table} digests changed; got:\n{rows}");
    }
}

#[test]
fn zero_deadline_runs_are_pinned() {
    let got: Vec<(String, String)> = programs()
        .iter()
        .map(|p| {
            let cfg = OwlConfig {
                stage_deadline: Some(Duration::ZERO),
                ..OwlConfig::quick()
            };
            let r = Owl::new(&p.module, p.entry, cfg).run(p.name, &p.workloads, &p.exploit_inputs);
            (p.name.to_string(), digest(&r))
        })
        .collect();
    check_pins("zero-deadline run", &ZERO_DEADLINE_PINS, &got);
}

#[test]
fn atomicity_runs_are_pinned() {
    let bank = owl_corpus::extensions::bank_atomicity();
    let got: Vec<(String, String)> = configs()
        .into_iter()
        .map(|(label, cfg)| {
            let r = Owl::new(&bank.module, bank.entry, cfg).run_atomicity(
                bank.name,
                &bank.workloads,
                &bank.exploit_inputs,
            );
            (label.to_string(), digest(&r))
        })
        .collect();
    check_pins("Bank atomicity", &ATOMICITY_PINS, &got);
}

/// A journaled run takes no wall-clock deadline: under an expired one
/// it journals exactly what it journals without one.
#[test]
fn journaled_runs_ignore_the_stage_deadline() {
    for name in ["Libsafe", "SSDB"] {
        let p = owl_corpus::program(name).expect("corpus program");
        let journal = |cfg: OwlConfig| {
            let mut journal: Vec<JournalRecord> = Vec::new();
            Owl::new(&p.module, p.entry, cfg)
                .run_with_journal(p.name, &p.workloads, &p.exploit_inputs, &mut journal)
                .expect("in-memory journal");
            journal
        };
        assert_eq!(
            journal(OwlConfig::quick().with_stage_deadline(Duration::ZERO)),
            journal(OwlConfig::quick()),
            "{name}"
        );
    }
}
