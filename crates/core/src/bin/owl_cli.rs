//! `owl-cli` — drive the OWL pipeline from the command line.
//!
//! ```text
//! owl-cli list                         # corpus programs
//! owl-cli run <program> [--quick]      # full pipeline + findings
//! owl-cli run <program> --json         # machine-readable findings + health
//! owl-cli run <program> --atomicity    # atomicity-violation front-end
//! owl-cli campaign <dir> [--resume]    # crash-safe sweep of the whole corpus
//! owl-cli audit <program> [--quick]    # §7.2 path auditing demo
//! owl-cli hints <program> [--quick]    # Figure-4/5 hints for every finding
//! owl-cli serve <dir>                  # resident analysis daemon (DESIGN.md §13)
//! owl-cli submit <socket> <program>    # submit to a running daemon
//! owl-cli status <socket>              # daemon counters as JSON
//! owl-cli shutdown <socket>            # graceful drain, wait for `bye`
//! ```
//!
//! Exit codes: `0` success, `1` failure, `2` usage error (an option
//! the command does not take included), and — for
//! `submit` — the typed daemon outcomes `3` admission-rejected,
//! `4` deadline-exceeded, `5` quarantined.

use owl::journal::{encode_error, encode_health, encode_summary};
use owl::json::Json;
use owl::serve::{
    encode_request, parse_response, serve, status_pairs, FailureKind, Request, Response,
    ServeConfig,
};
use owl::{run_campaign, CampaignConfig, Counter, Owl, OwlConfig, PathAuditor, ProgramSummary};
use owl_static::hints;
use owl_vm::{FaultPlan, RandomScheduler};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::time::Duration;

/// Typed `submit` exit code for an admission-rejected request.
const EXIT_REJECTED: u8 = 3;
/// Typed `submit` exit code for a deadline-exceeded request.
const EXIT_DEADLINE: u8 = 4;
/// Typed `submit` exit code for a quarantined request.
const EXIT_QUARANTINED: u8 = 5;

/// `--hb-backend` help lines, derived from [`owl_race::HbBackend::ALL`]
/// so the CLI can never drift from the real backend list.
fn backend_help() -> String {
    owl_race::HbBackend::ALL
        .iter()
        .map(|b| {
            format!(
                "                            `{}` — {}\n",
                b.name(),
                b.summary()
            )
        })
        .collect()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: owl-cli <command> [args]\n\
         commands:\n  \
         list                      list corpus programs\n  \
         run <program> [--quick] [--atomicity] [--json]\n                            run the pipeline and print findings\n  \
         campaign <dir> [--quick] [--resume] [--json]\n                            run the whole corpus with a durable journal in <dir>\n  \
         hints <program> [--quick] print Figure-4/5 hints for every finding\n  \
         audit <program> [--quick] demo §7.2 path auditing\n  \
         serve <dir> [--socket <path>] [--workers <n>] [--queue <n>]\n       [--max-inflight-bytes <n>] [--default-deadline-ms <n>]\n       [--kill-after <n>]\n                            resident daemon: store + metrics in <dir>,\n                            line-JSON protocol on <dir>/owl.sock\n  \
         submit <socket> <program> [--quick] [--deadline-ms <n>] [--json]\n                            submit one program; exits 0 result, 3 rejected,\n                            4 deadline-exceeded, 5 quarantined\n  \
         status <socket>           print daemon counters as JSON\n  \
         shutdown <socket>         graceful drain; exits 0 on `bye`\n\
         robustness options (run/hints/audit/campaign):\n  \
         --fault-seed <n>          seed for deterministic fault injection\n  \
         --fault-rate <p>          per-check injection probability\n                            (default 0.01 when --fault-seed is given)\n  \
         --max-verify-attempts <n> attempt budget for both dynamic verifiers\n\
         deadline option (run/hints/audit; a journaled campaign takes none):\n  \
         --stage-deadline-ms <n>   wall-clock budget per pipeline stage\n\
         detector options (run/hints/audit/campaign):\n  \
         --explore-workers <n>     threads exploring schedules in the detection\n                            stage (default 1; reports are identical for any\n                            count and excluded from the campaign fingerprint)\n  \
         --hb-backend <b>          race-detection backend, one of:\n{backends}  \
         --no-elide                disable the static check-elision pre-pass\n                            (reports are identical either way; elision only\n                            skips shadow-memory work at proved-safe sites)\n  \
         --no-fork                 fork each detection input at instruction zero:\n                            every seed runs in full, no startup prefix is\n                            shared and no schedule is deduped (reports are\n                            identical either way and a journal resumes\n                            across the switch)\n  \
         --elide-report            print the pre-pass per-site classification\n                            for <program> and exit (run/hints/audit)\n\
         campaign options:\n  \
         --resume                  continue a journal instead of refusing it\n  \
         --max-attempts <n>        per-program retry budget (default 3)\n  \
         --backoff-ms <n>          base retry backoff in milliseconds (default 100)\n  \
         --backoff-seed <n>        seed for the backoff jitter\n  \
         --kill-after <n>          crash-test hook: die after the Nth journal append\n  \
         --workers <n>             worker threads running programs in parallel\n                            (default 1; the summary is identical for any count)\n  \
         --metrics <dir>           write per-stage metrics: <dir>/spans.jsonl and\n                            <dir>/BENCH_campaign.json\n\
         static-analysis options (run/hints/audit/campaign):\n  \
         --no-points-to            disable memory-aware corruption propagation\n  \
         --no-summaries            disable memoized function summaries and the\n                            whole-program caller walk",
        backends = backend_help()
    );
    ExitCode::from(2)
}

/// The value following `--name` in `args`. A token that is itself
/// another `--flag` is not a value: `--fault-seed --quick` reports a
/// missing value instead of trying to parse `--quick` as a seed. A
/// flag given twice is an error, not a silent first-wins: `--workers 2
/// --workers 8` must not quietly run with 2.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let mut hits = args.iter().enumerate().filter(|(_, a)| *a == name);
    let Some((i, _)) = hits.next() else {
        return Ok(None);
    };
    if hits.next().is_some() {
        return Err(format!("{name} given more than once"));
    }
    match args.get(i + 1).map(String::as_str) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{name} requires a value")),
    }
}

/// Presence of a valueless `--flag`. A non-flag token right after it
/// is a usage error, not a silently ignored operand: positionals come
/// before flags in every command, so `--no-fork 5` can only be a
/// mistaken attempt to pass a value.
fn presence_flag(args: &[String], name: &str) -> Result<bool, String> {
    let mut hits = args.iter().enumerate().filter(|(_, a)| *a == name);
    let Some((i, _)) = hits.next() else {
        return Ok(false);
    };
    if hits.next().is_some() {
        return Err(format!("{name} given more than once"));
    }
    match args.get(i + 1).map(String::as_str) {
        Some(v) if !v.starts_with("--") => Err(format!("{name} takes no value, got `{v}`")),
        _ => Ok(true),
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match flag_value(args, name)? {
        None => Ok(None),
        Some(raw) => raw
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("invalid value `{raw}` for {name}")),
    }
}

/// The options [`config`] parses, which every command that runs the
/// pipeline accepts.
const PIPELINE_OPTIONS: [&str; 10] = [
    "--quick",
    "--fault-seed",
    "--fault-rate",
    "--max-verify-attempts",
    "--explore-workers",
    "--hb-backend",
    "--no-elide",
    "--no-fork",
    "--no-points-to",
    "--no-summaries",
];

/// Every option `cmd` accepts, or `None` for an unknown command.
fn options(cmd: &str) -> Option<Vec<&'static str>> {
    let own: &[&str] = match cmd {
        "run" => &[
            "--atomicity",
            "--json",
            "--elide-report",
            "--stage-deadline-ms",
        ],
        "hints" | "audit" => &["--atomicity", "--elide-report", "--stage-deadline-ms"],
        "campaign" => &[
            // Taken only to be refused, with its reason, in the
            // campaign arm.
            "--stage-deadline-ms",
            "--resume",
            "--json",
            "--max-attempts",
            "--backoff-ms",
            "--backoff-seed",
            "--kill-after",
            "--workers",
            "--metrics",
        ],
        "serve" => &[
            "--stage-deadline-ms",
            "--socket",
            "--workers",
            "--queue",
            "--max-inflight-bytes",
            "--default-deadline-ms",
            "--kill-after",
        ],
        "submit" => {
            return Some(vec![
                "--quick",
                "--deadline-ms",
                "--sleep-ms",
                "--inject-panic",
                "--json",
            ])
        }
        "list" | "status" | "shutdown" => return Some(Vec::new()),
        _ => return None,
    };
    Some(PIPELINE_OPTIONS.iter().chain(own).copied().collect())
}

/// Checks every `--name` token of `args` against `accepted`: an option
/// the command does not take is a usage error, never silently ignored
/// (a typo would otherwise run the defaults and exit 0).
fn check_options(cmd: &str, accepted: &[&str], args: &[String]) -> Result<(), String> {
    let Some(opt) = args
        .iter()
        .find(|a| a.starts_with("--") && !accepted.contains(&a.as_str()))
    else {
        return Ok(());
    };
    Err(format!("unknown option {opt} for {cmd}"))
}

fn config(args: &[String]) -> Result<OwlConfig, String> {
    let mut cfg = if args.iter().any(|a| a == "--quick") {
        OwlConfig::quick()
    } else {
        OwlConfig::default()
    };
    let seed: Option<u64> = parse_flag(args, "--fault-seed")?;
    let rate: Option<f64> = parse_flag(args, "--fault-rate")?;
    match (seed, rate) {
        (Some(s), rate) => {
            let rate = rate.unwrap_or(0.01);
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("--fault-rate must be in [0, 1], got {rate}"));
            }
            cfg = cfg.with_fault_plan(FaultPlan::uniform(s, rate));
        }
        (None, Some(_)) => {
            return Err("--fault-rate requires --fault-seed".to_string());
        }
        (None, None) => {}
    }
    if let Some(ms) = parse_flag::<u64>(args, "--stage-deadline-ms")? {
        cfg = cfg.with_stage_deadline(Duration::from_millis(ms));
    }
    if let Some(n) = parse_flag::<u64>(args, "--max-verify-attempts")? {
        if n == 0 {
            return Err("--max-verify-attempts must be at least 1".to_string());
        }
        cfg = cfg.with_max_verify_attempts(n);
    }
    if let Some(n) = parse_flag::<usize>(args, "--explore-workers")? {
        if n == 0 {
            return Err("--explore-workers must be at least 1".to_string());
        }
        cfg.detect.workers = n;
    }
    if let Some(raw) = flag_value(args, "--hb-backend")? {
        cfg.detect.hb_backend = owl_race::HbBackend::parse(raw).ok_or_else(|| {
            format!(
                "--hb-backend must be one of {}, got `{raw}`",
                owl_race::HbBackend::names()
            )
        })?;
    }
    if args.iter().any(|a| a == "--no-elide") {
        cfg.elide = false;
    }
    if presence_flag(args, "--no-fork")? {
        cfg.detect.fork = false;
    }
    if args.iter().any(|a| a == "--no-points-to") {
        cfg.vuln.points_to = false;
    }
    if args.iter().any(|a| a == "--no-summaries") {
        cfg.vuln.summaries = false;
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let Some(accepted) = options(cmd) else {
        return usage();
    };
    if let Err(msg) = check_options(cmd, &accepted, &args[1..]) {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    match cmd.as_str() {
        "list" => {
            println!("corpus programs:");
            for e in &owl_corpus::PROGRAMS {
                let line = match e.extension {
                    Some(desc) => format!("extension: {desc}"),
                    None => {
                        let p = e.build();
                        format!("{:5} IR insts, {} attack(s)", p.loc(), p.attacks.len())
                    }
                };
                println!("  {:10} {line}", e.name);
            }
            ExitCode::SUCCESS
        }
        "run" | "hints" | "audit" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(p) = owl_corpus::program(name) else {
                eprintln!("unknown program `{name}` (try `owl-cli list`)");
                return ExitCode::FAILURE;
            };
            let cfg = match config(&args) {
                Ok(cfg) => cfg,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::from(2);
                }
            };
            if args.iter().any(|a| a == "--elide-report") {
                let pre = owl_static::ElisionPrepass::run(&p.module, p.entry);
                print!("{}", pre.report(&p.module));
                return ExitCode::SUCCESS;
            }
            let owl = Owl::new(&p.module, p.entry, cfg.clone());
            let atomicity = args.iter().any(|a| a == "--atomicity");
            let result = if atomicity {
                owl.run_atomicity(p.name, &p.workloads, &p.exploit_inputs)
            } else {
                owl.run(p.name, &p.workloads, &p.exploit_inputs)
            };
            if let Some(err) = &result.error {
                eprintln!("pipeline failed: {err}");
                return ExitCode::FAILURE;
            }
            match cmd.as_str() {
                "run" if args.iter().any(|a| a == "--json") => {
                    let summary = ProgramSummary::from_result(&result);
                    let out = Json::obj([
                        ("program", Json::str(result.program.clone())),
                        (
                            "front_end",
                            Json::str(if atomicity { "atomicity" } else { "race" }),
                        ),
                        ("summary", encode_summary(&summary)),
                        ("health", encode_health(&result.health)),
                        (
                            "quarantined",
                            Json::Arr(
                                result
                                    .quarantined
                                    .iter()
                                    .map(|q| {
                                        Json::obj([
                                            (
                                                "global",
                                                match &q.race.global_name {
                                                    Some(g) => Json::str(g.clone()),
                                                    None => Json::Null,
                                                },
                                            ),
                                            ("error", encode_error(&q.error)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]);
                    println!("{}", out.to_json_string());
                    ExitCode::SUCCESS
                }
                "run" => {
                    let s = &result.stats;
                    println!(
                        "== {} ({} front-end) ==",
                        p.name,
                        if atomicity { "atomicity" } else { "race" }
                    );
                    println!(
                        "reports: {} raw -> {} annotated -> {} verified ({} eliminated); {:.1}% reduced",
                        s.raw_reports,
                        s.post_annotation_reports,
                        s.remaining,
                        s.verifier_eliminated,
                        100.0 * s.reduction_ratio()
                    );
                    println!("adhoc synchronizations annotated: {}", s.adhoc_syncs);
                    for f in result.vulnerable_findings() {
                        let name = f
                            .race
                            .global_name
                            .clone()
                            .unwrap_or_else(|| format!("{:#x}", f.race.addr));
                        let reached = f.any_site_reached();
                        println!(
                            "finding on `{name}`: {} hint(s), site {}",
                            f.vulns.len(),
                            if reached { "REACHED" } else { "not reached" }
                        );
                    }
                    let h = &result.health;
                    let c = |counter: Counter| h.counters[counter];
                    println!(
                        "stage 4: points-to solved in {:?}; summary cache {} hit(s) / {} miss(es)",
                        h.points_to_solve,
                        c(Counter::SummaryCacheHits),
                        c(Counter::SummaryCacheMisses)
                    );
                    if cfg.elide {
                        let sites = [
                            c(Counter::ElisionSitesThreadLocal),
                            c(Counter::ElisionSitesLockDominated),
                            c(Counter::ElisionSitesReadOnly),
                        ];
                        println!(
                            "elision: {} site(s) proved race-free ({} thread-local, \
                             {} lock-dominated, {} read-only); {} event(s) skipped shadow work",
                            sites.iter().sum::<u64>(),
                            sites[0],
                            sites[1],
                            sites[2],
                            c(Counter::ElisionEventsElided)
                        );
                    }
                    if cfg.detect.hb_backend.is_predictive() {
                        println!(
                            "prediction: {} candidate(s), {} witnessed ({} by sync reversal), \
                             {} rejected by the witness check",
                            c(Counter::PredictCandidates),
                            c(Counter::PredictWitnessed),
                            c(Counter::PredictReversalRaces),
                            c(Counter::PredictWitnessRejected)
                        );
                    }
                    if h.total_injected_faults() > 0
                        || h.total_quarantined() > 0
                        || h.total_panics() > 0
                    {
                        println!(
                            "health: {} fault(s) injected, {} panic(s) caught, {} report(s) quarantined",
                            h.total_injected_faults(),
                            h.total_panics(),
                            h.total_quarantined()
                        );
                        for (stage, sh) in [
                            ("detect", &h.detect),
                            ("race-verify", &h.race_verify),
                            ("vuln-analyze", &h.vuln_analyze),
                            ("vuln-verify", &h.vuln_verify),
                        ] {
                            println!(
                                "  {stage:12} attempts {} retries {} faults {} deadline-hits {} panics {}",
                                sh.attempts, sh.retries, sh.injected_faults, sh.deadline_hits, sh.panics
                            );
                        }
                    }
                    for q in &result.quarantined {
                        let name = q
                            .race
                            .global_name
                            .clone()
                            .unwrap_or_else(|| format!("{:#x}", q.race.addr));
                        println!("quarantined `{name}`: {}", q.error);
                    }
                    ExitCode::SUCCESS
                }
                "hints" => {
                    for f in result.vulnerable_findings() {
                        println!("{}", f.race.format(&p.module));
                        for vr in &f.vulns {
                            print!("{}", hints::format_vuln_report(&p.module, vr));
                        }
                        println!();
                    }
                    ExitCode::SUCCESS
                }
                "audit" => {
                    let auditor = PathAuditor::from_result(&p.module, p.entry, &result)
                        .with_run_config(cfg.detect.run_config.clone());
                    println!(
                        "auditing {} instruction(s) of {} ({:.1}% of the program)",
                        auditor.watched_count(),
                        p.module.total_insts(),
                        100.0 * auditor.audit_scope()
                    );
                    for (label, input) in [("benign", Some(p.primary_workload().clone()))]
                        .into_iter()
                        .chain(
                            p.exploit_inputs
                                .first()
                                .map(|e| ("exploit", Some(e.clone()))),
                        )
                    {
                        let Some(input) = input else { continue };
                        let mut detected = false;
                        for seed in 0..20 {
                            let mut sched = RandomScheduler::new(seed);
                            let a = auditor.audit(&input, &mut sched);
                            if a.attack_detected() {
                                detected = true;
                                break;
                            }
                        }
                        println!(
                            "{label:8} traffic: {}",
                            if detected {
                                "ATTACK ALERT"
                            } else {
                                "no attack alerts"
                            }
                        );
                    }
                    ExitCode::SUCCESS
                }
                _ => unreachable!(),
            }
        }
        "campaign" => {
            let Some(dir) = args.get(1) else {
                return usage();
            };
            if dir.starts_with("--") {
                return usage();
            }
            if args.iter().any(|a| a == "--stage-deadline-ms") {
                eprintln!(
                    "--stage-deadline-ms does not apply to campaign: a journaled run takes \
                     no wall-clock deadline, so a resumed campaign replays exactly"
                );
                return ExitCode::from(2);
            }
            let cfg = match config(&args) {
                Ok(cfg) => cfg,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::from(2);
                }
            };
            let mut ccfg = CampaignConfig::new(cfg);
            let campaign_flags = (|| -> Result<(), String> {
                if let Some(n) = parse_flag::<u64>(&args, "--max-attempts")? {
                    if n == 0 {
                        return Err("--max-attempts must be at least 1".to_string());
                    }
                    ccfg.max_attempts = n;
                }
                if let Some(ms) = parse_flag::<u64>(&args, "--backoff-ms")? {
                    ccfg.backoff_base = Duration::from_millis(ms);
                }
                if let Some(s) = parse_flag::<u64>(&args, "--backoff-seed")? {
                    ccfg.backoff_seed = s;
                }
                if let Some(n) = parse_flag::<u64>(&args, "--kill-after")? {
                    ccfg.kill_after_appends = Some(n);
                }
                if let Some(n) = parse_flag::<usize>(&args, "--workers")? {
                    if n == 0 {
                        return Err("--workers must be at least 1".to_string());
                    }
                    ccfg.workers = n;
                }
                Ok(())
            })();
            if let Err(msg) = campaign_flags {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
            let metrics_dir = match flag_value(&args, "--metrics") {
                Ok(v) => v.map(std::path::PathBuf::from),
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::from(2);
                }
            };
            let recorder = metrics_dir
                .as_ref()
                .map(|_| std::sync::Arc::new(owl::MetricsRecorder::new()));
            ccfg.metrics = recorder.clone();
            let resume = args.iter().any(|a| a == "--resume");
            let dir = std::path::Path::new(dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create campaign directory {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let journal_path = dir.join("journal.jsonl");
            let programs = owl_corpus::all_programs();
            match run_campaign(&journal_path, &programs, &ccfg, resume) {
                Ok(outcome) => {
                    if outcome.recovery.recovered() {
                        eprintln!(
                            "journal recovered: discarded {} byte(s) in {} record(s) from a corrupt tail",
                            outcome.recovery.discarded_bytes, outcome.recovery.discarded_records
                        );
                    }
                    if let (Some(m), Some(out)) = (&recorder, &metrics_dir) {
                        match m.write_files(out, ccfg.workers, programs.len()) {
                            Ok((spans, summary)) => eprintln!(
                                "metrics: wrote {} and {}",
                                spans.display(),
                                summary.display()
                            ),
                            Err(e) => {
                                eprintln!("cannot write metrics to {}: {e}", out.display());
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                    if args.iter().any(|a| a == "--json") {
                        // Surface what recovery discarded and the
                        // robustness counters next to the summary, so
                        // operators see torn-tail repairs and
                        // quarantines without scraping stderr.
                        let mut doc = outcome.summary.to_json();
                        if let Json::Obj(pairs) = &mut doc {
                            let discarded = [
                                Counter::JournalDiscardedBytes,
                                Counter::JournalDiscardedRecords,
                            ]
                            .map(|c| (c.name(), Json::UInt(outcome.health.counters[c])));
                            pairs.push((
                                "recovery".to_string(),
                                Json::obj(discarded.into_iter().chain([(
                                    "valid_records",
                                    Json::UInt(outcome.summary.records),
                                )])),
                            ));
                            pairs.push(("health".to_string(), encode_health(&outcome.health)));
                        }
                        println!("{}", doc.to_json_string());
                    } else {
                        print!("{}", outcome.summary.render());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("campaign failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "serve" => {
            let Some(dir) = args.get(1) else {
                return usage();
            };
            if dir.starts_with("--") {
                return usage();
            }
            let owl = match config(&args) {
                Ok(cfg) => cfg,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::from(2);
                }
            };
            let mut scfg = ServeConfig::new(dir);
            scfg.owl = owl;
            // The daemon always records metrics: BENCH_serve.json and
            // spans.jsonl land in <dir> at shutdown.
            scfg.metrics = Some(std::sync::Arc::new(owl::MetricsRecorder::new()));
            let serve_flags = (|| -> Result<(), String> {
                if let Some(p) = flag_value(&args, "--socket")? {
                    scfg.socket = std::path::PathBuf::from(p);
                }
                if let Some(n) = parse_flag::<usize>(&args, "--workers")? {
                    if n == 0 {
                        return Err("--workers must be at least 1".to_string());
                    }
                    scfg.workers = n;
                }
                if let Some(n) = parse_flag::<usize>(&args, "--queue")? {
                    if n == 0 {
                        return Err("--queue must be at least 1".to_string());
                    }
                    scfg.queue_capacity = n;
                }
                if let Some(n) = parse_flag::<u64>(&args, "--max-inflight-bytes")? {
                    scfg.max_inflight_bytes = n;
                }
                if let Some(ms) = parse_flag::<u64>(&args, "--default-deadline-ms")? {
                    scfg.default_deadline = Duration::from_millis(ms);
                }
                if let Some(n) = parse_flag::<u64>(&args, "--kill-after")? {
                    scfg.kill_after_appends = Some(n);
                }
                Ok(())
            })();
            if let Err(msg) = serve_flags {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
            eprintln!("owl serve: listening on {}", scfg.socket.display());
            match serve(scfg) {
                Ok(report) => {
                    eprintln!(
                        "owl serve: drained — {} executed, {} cache hit(s), {} shed, {} stored",
                        report.executed,
                        report.cache_hits,
                        report.admission.total_shed(),
                        report.stored
                    );
                    if report.recovery.recovered() {
                        eprintln!(
                            "owl serve: store recovered — discarded {} byte(s) in {} record(s)",
                            report.recovery.discarded_bytes, report.recovery.discarded_records
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("owl serve failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "submit" => {
            let (Some(socket), Some(program)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let req = Request::Submit {
                program: program.clone(),
                quick: args.iter().any(|a| a == "--quick"),
                deadline_ms: match parse_flag::<u64>(&args, "--deadline-ms") {
                    Ok(v) => v,
                    Err(msg) => {
                        eprintln!("{msg}");
                        return ExitCode::from(2);
                    }
                },
                sleep_ms: match parse_flag::<u64>(&args, "--sleep-ms") {
                    Ok(v) => v.unwrap_or(0),
                    Err(msg) => {
                        eprintln!("{msg}");
                        return ExitCode::from(2);
                    }
                },
                inject_panic: args.iter().any(|a| a == "--inject-panic"),
            };
            let json = args.iter().any(|a| a == "--json");
            client_roundtrip(socket, &req, |resp| match resp {
                Response::Accepted { id } => {
                    eprintln!("accepted as request {id}");
                    None
                }
                Response::Result {
                    program,
                    cached,
                    summary,
                    ..
                } => {
                    if json {
                        let out = Json::obj([
                            ("program", Json::str(program.clone())),
                            ("cached", Json::Bool(*cached)),
                            ("summary", encode_summary(summary)),
                        ]);
                        println!("{}", out.to_json_string());
                    } else {
                        println!(
                            "{program}{}: {} raw -> {} verified, {} vulnerable",
                            if *cached { " (cached)" } else { "" },
                            summary.raw_reports,
                            summary.remaining,
                            summary.vulnerable
                        );
                    }
                    Some(ExitCode::SUCCESS)
                }
                Response::Rejected { reason } => {
                    eprintln!("rejected: {reason}");
                    Some(ExitCode::from(EXIT_REJECTED))
                }
                Response::Failed { kind, message, .. } => {
                    eprintln!("failed ({}): {message}", kind.as_str());
                    Some(ExitCode::from(match kind {
                        FailureKind::DeadlineExceeded => EXIT_DEADLINE,
                        FailureKind::Quarantined => EXIT_QUARANTINED,
                    }))
                }
                Response::Error { message } => {
                    eprintln!("daemon error: {message}");
                    Some(ExitCode::FAILURE)
                }
                Response::Status(_) | Response::Bye => {
                    eprintln!("unexpected response");
                    Some(ExitCode::FAILURE)
                }
            })
        }
        "status" => {
            let Some(socket) = args.get(1) else {
                return usage();
            };
            client_roundtrip(socket, &Request::Status, |resp| match resp {
                Response::Status(s) => {
                    let out = Json::obj(status_pairs(s));
                    println!("{}", out.to_json_string());
                    Some(ExitCode::SUCCESS)
                }
                _ => {
                    eprintln!("unexpected response");
                    Some(ExitCode::FAILURE)
                }
            })
        }
        "shutdown" => {
            let Some(socket) = args.get(1) else {
                return usage();
            };
            client_roundtrip(socket, &Request::Shutdown, |resp| match resp {
                Response::Bye => {
                    eprintln!("daemon drained");
                    Some(ExitCode::SUCCESS)
                }
                _ => {
                    eprintln!("unexpected response");
                    Some(ExitCode::FAILURE)
                }
            })
        }
        _ => usage(),
    }
}

/// Sends one request to a daemon socket and feeds response lines to
/// `on_resp` until it produces an exit code (EOF before that is a
/// failure — the daemon died with the request in flight).
fn client_roundtrip(
    socket: &str,
    req: &Request,
    mut on_resp: impl FnMut(&Response) -> Option<ExitCode>,
) -> ExitCode {
    let mut stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot connect to {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut line = encode_request(req);
    line.push('\n');
    if let Err(e) = stream.write_all(line.as_bytes()) {
        eprintln!("cannot write to {socket}: {e}");
        return ExitCode::FAILURE;
    }
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    loop {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) => {
                eprintln!("daemon closed the connection (request lost)");
                return ExitCode::FAILURE;
            }
            Ok(_) => match parse_response(&buf) {
                Ok(resp) => {
                    if let Some(code) = on_resp(&resp) {
                        return code;
                    }
                }
                Err(msg) => {
                    eprintln!("unparseable response: {msg}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("read error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
}
