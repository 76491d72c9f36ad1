//! Race-verifier attempt reuse is exact.
//!
//! A `RaceVerifier` answers attempt *k* of a report from a run it
//! already executed at seed *k* whenever neither of the report's racing
//! sites was fetched in that run. This suite verifies every report
//! stage 3 sees twice — once with one verifier shared across all of a
//! program's reports (the memo fills and answers), once with a fresh
//! verifier per report (nothing to reuse: the reference) — and
//! requires every `RaceVerification` field but `reused_attempts` to
//! match. A digest of each program's verdicts and counters is pinned
//! as it was before the memo existed.

use owl::owl_corpus::{self, CorpusProgram};
use owl::owl_race::{explore, ExplorerConfig, RaceReport};
use owl::owl_static::AdhocSyncDetector;
use owl::owl_verify::{RaceVerification, RaceVerifier};
use owl::owl_vm::FaultPlan;
use owl::{Owl, OwlConfig};

/// The 7 corpus programs and 4 extensions.
fn programs() -> Vec<CorpusProgram> {
    let mut programs = owl_corpus::all_programs();
    programs.extend([
        owl_corpus::extensions::bank_atomicity(),
        owl_corpus::extensions::heap_relay(),
        owl_corpus::extensions::cache_relay(),
        owl_corpus::extensions::kernel_double_fetch(),
    ]);
    programs
}

/// The reports stage 3 sees: raw detection, adhoc-synchronization
/// annotation, then the annotated re-run (the check-elision pre-pass
/// never changes a report, so it is left out).
fn stage3_reports(p: &CorpusProgram, cfg: &OwlConfig) -> Vec<RaceReport> {
    let raw = explore(&p.module, p.entry, &p.workloads, &cfg.detect);
    let annotations = AdhocSyncDetector::new(&p.module)
        .detect(&raw.reports)
        .into_iter()
        .map(|(_, a)| a)
        .collect();
    let annotated = ExplorerConfig {
        annotations,
        ..cfg.detect.clone()
    };
    explore(&p.module, p.entry, &p.workloads, &annotated).reports
}

/// FNV-1a over each report's sites and global and its verification's
/// verdict and counters, in report order.
fn digest(reports: &[RaceReport], vs: &[RaceVerification]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (r, v) in reports.iter().zip(vs) {
        let line = format!(
            "{:?}|{:?}|{:?}|{}|{}|{};",
            r.first.site, r.second.site, r.global_name, v.confirmed, v.attempts, v.injected_faults
        );
        for b in line.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn row(name: &str, config: &str, reports: &[RaceReport], vs: &[RaceVerification]) -> String {
    format!(
        "{name} {config}: reports={} confirmed={} attempts={} faults={} digest={:016x}",
        reports.len(),
        vs.iter().filter(|v| v.confirmed).count(),
        vs.iter().map(|v| v.attempts).sum::<u64>(),
        vs.iter().map(|v| v.injected_faults).sum::<u64>(),
        digest(reports, vs)
    )
}

/// Recorded before the memo existed, with a fresh verifier per report.
const PINNED: &[&str] = &[
    "Apache default: reports=107 confirmed=14 attempts=758 faults=0 digest=79ddd50e67b24f70",
    "Chrome default: reports=169 confirmed=13 attempts=1261 faults=0 digest=eee6de37164e849c",
    "Libsafe default: reports=2 confirmed=2 attempts=2 faults=0 digest=d78047bf238c396c",
    "Linux default: reports=619 confirmed=19 attempts=4819 faults=0 digest=4a2cbe3b211c6fef",
    "Memcached default: reports=123 confirmed=3 attempts=963 faults=0 digest=d54275c8b4fc1229",
    "MySQL default: reports=148 confirmed=13 attempts=1093 faults=0 digest=bffc2aa62eae075f",
    "SSDB default: reports=17 confirmed=5 attempts=101 faults=0 digest=efb42ac2d058a4db",
    "Bank default: reports=3 confirmed=3 attempts=3 faults=0 digest=a7976aca8aac010d",
    "HeapRelay default: reports=4 confirmed=4 attempts=4 faults=0 digest=47a8b415fbc27b1e",
    "CacheRelay default: reports=5 confirmed=5 attempts=5 faults=0 digest=0f4899dc18fdd9cb",
    "DoubleFetch default: reports=5 confirmed=5 attempts=5 faults=0 digest=878509ce074092dc",
    "Apache quick: reports=107 confirmed=14 attempts=386 faults=0 digest=9e197ab314ae737c",
    "Chrome quick: reports=169 confirmed=13 attempts=637 faults=0 digest=07f143ec25d14984",
    "Libsafe quick: reports=2 confirmed=2 attempts=2 faults=0 digest=d78047bf238c396c",
    "Linux quick: reports=619 confirmed=19 attempts=2419 faults=0 digest=a94e36bf049be7d7",
    "Memcached quick: reports=123 confirmed=3 attempts=483 faults=0 digest=167c972435f53b29",
    "MySQL quick: reports=148 confirmed=13 attempts=553 faults=0 digest=43efc02e8037483b",
    "SSDB quick: reports=17 confirmed=5 attempts=53 faults=0 digest=04eee832fb40fd13",
    "Bank quick: reports=3 confirmed=3 attempts=3 faults=0 digest=a7976aca8aac010d",
    "HeapRelay quick: reports=4 confirmed=4 attempts=4 faults=0 digest=47a8b415fbc27b1e",
    "CacheRelay quick: reports=5 confirmed=5 attempts=5 faults=0 digest=0f4899dc18fdd9cb",
    "DoubleFetch quick: reports=5 confirmed=5 attempts=5 faults=0 digest=878509ce074092dc",
    "Apache faults: reports=40 confirmed=16 attempts=211 faults=3228 digest=249025b8ae1f4a6b",
    "Chrome faults: reports=42 confirmed=13 attempts=252 faults=1440 digest=af841c95ec1ec220",
    "Libsafe faults: reports=0 confirmed=0 attempts=0 faults=0 digest=cbf29ce484222325",
    "Linux faults: reports=51 confirmed=19 attempts=292 faults=2847 digest=b7d03856ae0c0511",
    "Memcached faults: reports=25 confirmed=3 attempts=179 faults=179 digest=211c41ac9bc17431",
    "MySQL faults: reports=22 confirmed=14 attempts=83 faults=1080 digest=f91b07c59e004005",
    "SSDB faults: reports=17 confirmed=5 attempts=101 faults=349 digest=b0f55b4261fa956c",
    "Bank faults: reports=3 confirmed=3 attempts=3 faults=9 digest=e9cfacb0f98efbae",
    "HeapRelay faults: reports=4 confirmed=4 attempts=4 faults=7 digest=99ac7285f42ea6c9",
    "CacheRelay faults: reports=5 confirmed=5 attempts=5 faults=15 digest=a6f162f52b3cb9d2",
    "DoubleFetch faults: reports=5 confirmed=5 attempts=5 faults=8 digest=4a4847a420a1c5d6",
];

/// Verifies every stage-3 report of every program under `cfg`, with a
/// shared verifier and with a fresh one per report; asserts the two
/// agree on everything but reuse and that the rows match the pins.
/// Returns (reused, total) attempts per program.
fn check(config: &str, cfg: &OwlConfig) -> Vec<(&'static str, u64, u64)> {
    let mut rows = Vec::new();
    let mut reuse = Vec::new();
    for p in programs() {
        let reports = stage3_reports(&p, cfg);
        let input = p.primary_workload();
        let shared = RaceVerifier::new(&p.module, cfg.race_verify.clone());
        let mut vs = Vec::with_capacity(reports.len());
        for r in &reports {
            let a = shared.verify(p.entry, input, r);
            let b = RaceVerifier::new(&p.module, cfg.race_verify.clone()).verify(p.entry, input, r);
            let at = format!(
                "{} {config}: {:?} vs {:?}",
                p.name, r.first.site, r.second.site
            );
            assert_eq!(b.reused_attempts, 0, "{at}");
            assert_eq!(a.confirmed, b.confirmed, "{at}");
            assert_eq!(a.verdict, b.verdict, "{at}");
            assert_eq!(a.attempts, b.attempts, "{at}");
            assert_eq!(a.injected_faults, b.injected_faults, "{at}");
            assert_eq!(a.hints, b.hints, "{at}");
            assert_eq!(a.outcome, b.outcome, "{at}");
            assert!(a.reused_attempts <= a.attempts, "{at}");
            vs.push(a);
        }
        let reused = vs.iter().map(|v| v.reused_attempts).sum();
        let total = vs.iter().map(|v| v.attempts).sum();
        // Shown with --nocapture: the executions the memo saved.
        println!("{} {config}: {reused} of {total} attempts reused", p.name);
        reuse.push((p.name, reused, total));
        rows.push(row(p.name, config, &reports, &vs));
    }
    let pinned: Vec<&str> = PINNED
        .iter()
        .copied()
        .filter(|r| r.split(' ').nth(1) == Some(&format!("{config}:")))
        .collect();
    assert_eq!(rows, pinned);
    reuse
}

#[test]
fn reuse_is_exact_under_the_default_config() {
    let reuse = check("default", &OwlConfig::default());
    // Linux's 600 input-gated noise reports are nearly all answered from
    // the memo; a change that quietly disabled it would fall far short.
    let (_, reused, total) = reuse.iter().find(|(name, ..)| *name == "Linux").unwrap();
    assert!(
        *reused * 10 >= *total * 9,
        "Linux reused {reused} of {total} attempts"
    );
}

#[test]
fn reuse_is_exact_under_the_quick_config() {
    check("quick", &OwlConfig::quick());
}

#[test]
fn reuse_is_exact_under_injected_faults() {
    // The uniform plan includes dropped-breakpoint faults: a run whose
    // hit a fault swallowed matched a breakpoint and must not be reused.
    check(
        "faults",
        &OwlConfig::default().with_fault_plan(FaultPlan::uniform(11, 0.05)),
    );
}

#[test]
fn the_atomicity_front_end_runs_each_seed_once() {
    // Its stage-3 attempt k is the same breakpoint-free run for every
    // report, so across all confirmed findings at most one attempt per
    // seed may have executed; every other attempt was answered.
    let p = owl_corpus::program("Linux").unwrap();
    let cfg = OwlConfig::quick();
    let seeds = cfg.race_verify.max_schedules;
    let r =
        Owl::new(&p.module, p.entry, cfg).run_atomicity(p.name, &p.workloads, &p.exploit_inputs);
    assert!(r.findings.len() >= 2);
    assert!(r.health.race_verify.attempts > 10 * seeds);
    let live: u64 = r
        .findings
        .iter()
        .map(|f| f.verification.attempts - f.verification.reused_attempts)
        .sum();
    assert!(live <= seeds, "{live} attempts executed for {seeds} seeds");
}
