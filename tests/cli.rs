//! End-to-end tests for the `owl_cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_owl_cli"))
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn owl_cli");
    assert!(
        out.status.success(),
        "owl_cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn list_shows_all_programs() {
    let out = run_ok(&["list"]);
    assert_eq!(
        out,
        "corpus programs:\n\
         \x20 Apache       544 IR insts, 3 attack(s)\n\
         \x20 Chrome       535 IR insts, 1 attack(s)\n\
         \x20 Libsafe      103 IR insts, 1 attack(s)\n\
         \x20 Linux       1837 IR insts, 2 attack(s)\n\
         \x20 Memcached    374 IR insts, 0 attack(s)\n\
         \x20 MySQL        572 IR insts, 2 attack(s)\n\
         \x20 SSDB         117 IR insts, 1 attack(s)\n\
         \x20 Bank       extension: atomicity-violation demo\n\
         \x20 HeapRelay  extension: corruption relayed through a heap buffer\n\
         \x20 CacheRelay extension: corrupted pointer through a global cache\n"
    );
}

#[test]
fn run_reports_reduction_and_findings() {
    let out = run_ok(&["run", "SSDB", "--quick"]);
    assert!(out.contains("reports:"), "{out}");
    assert!(out.contains("% reduced"), "{out}");
    assert!(out.contains("finding on `db`"), "{out}");
}

#[test]
fn hints_render_figure5_format() {
    let out = run_ok(&["hints", "Libsafe", "--quick"]);
    assert!(out.contains("data race on `dying`"), "{out}");
    assert!(out.contains("Vulnerable Site Location"), "{out}");
}

#[test]
fn audit_separates_benign_from_exploit() {
    let out = run_ok(&["audit", "Libsafe", "--quick"]);
    assert!(out.contains("auditing"), "{out}");
    assert!(out.contains("benign"), "{out}");
    assert!(out.contains("ATTACK ALERT"), "{out}");
}

#[test]
fn atomicity_front_end_flag() {
    let out = run_ok(&["run", "Bank", "--quick", "--atomicity"]);
    assert!(out.contains("atomicity front-end"), "{out}");
    assert!(out.contains("finding on `balance`"), "{out}");
}

#[test]
fn unknown_program_fails_cleanly() {
    let out = cli().args(["run", "nope"]).output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown program"), "{err}");
}

#[test]
fn no_args_prints_usage() {
    let out = cli().output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
    // The campaign command and the (once mangled) --fault-rate help
    // line are documented.
    assert!(err.contains("campaign"), "{err}");
    assert!(err.contains("per-check injection probability"), "{err}");
    assert!(err.contains("--resume"), "{err}");
}

#[test]
fn run_json_emits_machine_readable_summary() {
    let out = run_ok(&["run", "SSDB", "--quick", "--json"]);
    let doc = owl::json::parse(&out).expect("valid JSON");
    assert_eq!(doc.get("program").and_then(|j| j.as_str()), Some("SSDB"));
    let summary = doc.get("summary").expect("summary object");
    assert!(
        summary.get("raw").and_then(|j| j.as_u64()).unwrap_or(0) > 0,
        "{out}"
    );
    assert!(
        summary.get("findings").and_then(|j| j.as_arr()).is_some(),
        "{out}"
    );
    assert!(doc.get("health").is_some(), "{out}");
    assert!(
        doc.get("quarantined").and_then(|j| j.as_arr()).is_some(),
        "{out}"
    );
}

#[test]
fn flag_missing_or_flaglike_value_is_rejected() {
    for args in [
        // the "value" is another flag
        &["run", "SSDB", "--quick", "--fault-seed", "--json"][..],
        // the value is missing entirely
        &["run", "SSDB", "--fault-seed"][..],
    ] {
        let out = cli().args(args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("requires a value"), "{args:?}: {err}");
    }
}

#[test]
fn unknown_options_exit_2() {
    // A typo'd option, and the retired trace-memory budget, are usage
    // errors: neither may run the defaults and exit 0.
    let dir = std::env::temp_dir().join(format!("owl-cli-unknown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("utf8 temp path");
    for (args, named) in [
        (
            &["run", "Libsafe", "--quick", "--wokers", "4", "--no-elid"][..],
            "--wokers for run",
        ),
        (
            &["run", "Libsafe", "--quick", "--max-trace-mem", "4K"][..],
            "--max-trace-mem for run",
        ),
        (
            &["campaign", d, "--quick", "--max-trace-mem", "4K"][..],
            "--max-trace-mem for campaign",
        ),
        (&["hints", "Libsafe", "--json"][..], "--json for hints"),
        (&["list", "--quick"][..], "--quick for list"),
    ] {
        let out = cli().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}: usage errors exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown option {named}")),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    assert!(!dir.exists(), "a refused campaign writes nothing");
}

#[test]
fn every_option_the_usage_prints_is_accepted() {
    let usage = String::from_utf8(cli().output().expect("spawn").stderr).expect("utf8 usage");
    let mut opts: Vec<&str> = usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.len() > 2 && w.starts_with("--"))
        .collect();
    opts.sort_unstable();
    opts.dedup();
    assert!(
        opts.len() >= 20,
        "the usage text lists its options: {opts:?}"
    );

    // Each probe fails right after the option check: a program that
    // does not exist, a directory that cannot be created (its parent
    // is a file), a socket that is not there. A value option given no
    // value fails its own check, which comes after this one.
    let blocker = std::env::temp_dir().join(format!("owl-cli-probe-{}", std::process::id()));
    std::fs::write(&blocker, b"").expect("scratch file");
    let bad = blocker.join("dir");
    let bad = bad.to_str().expect("utf8 temp path");
    let probes: [&[&str]; 4] = [
        &["run", "NoSuchProgram"],
        &["campaign", bad],
        &["serve", bad],
        &["submit", bad, "Libsafe"],
    ];
    for opt in opts {
        let accepted = probes.iter().any(|probe| {
            let out = cli().args(*probe).arg(opt).output().expect("spawn");
            !String::from_utf8_lossy(&out.stderr).contains("unknown option")
        });
        assert!(
            accepted,
            "the usage text prints `{opt}`, which no command accepts"
        );
    }
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn campaign_runs_resumes_and_refuses_unresumed_reuse() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("owl-cli-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("utf8 temp path");

    let first = run_ok(&["campaign", d, "--quick"]);
    assert!(first.contains("campaign summary"), "{first}");
    assert!(first.contains("vulnerable findings:"), "{first}");
    assert!(first.contains("Libsafe"), "{first}");

    // A finished journal is not silently clobbered.
    let reuse = cli()
        .args(["campaign", d, "--quick"])
        .output()
        .expect("spawn");
    assert!(!reuse.status.success());
    let err = String::from_utf8_lossy(&reuse.stderr);
    assert!(err.contains("--resume"), "{err}");

    // Resuming a finished campaign replays the journal byte-identically.
    let resumed = run_ok(&["campaign", d, "--quick", "--resume"]);
    assert_eq!(resumed, first, "pure replay renders identical output");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn campaign_refuses_a_stage_deadline() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("owl-cli-deadline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = cli()
        .args([
            "campaign",
            dir.to_str().unwrap(),
            "--quick",
            "--stage-deadline-ms",
            "1",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "one-line reason: {err}");
    assert!(err.contains("--stage-deadline-ms"), "{err}");
    assert!(!dir.exists(), "a refused campaign writes nothing");
}

#[test]
fn campaign_workers_and_metrics_flags() {
    let mut base = std::env::temp_dir();
    base.push(format!("owl-cli-workers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");
    let serial_dir = base.join("serial");
    let pool_dir = base.join("pool");
    let metrics_dir = base.join("metrics");

    let serial = run_ok(&[
        "campaign",
        serial_dir.to_str().unwrap(),
        "--quick",
        "--workers",
        "1",
    ]);
    let pooled = run_ok(&[
        "campaign",
        pool_dir.to_str().unwrap(),
        "--quick",
        "--workers",
        "4",
        "--metrics",
        metrics_dir.to_str().unwrap(),
    ]);
    assert_eq!(
        pooled, serial,
        "--workers 4 must print the byte-identical summary of --workers 1"
    );

    // The metrics artifacts exist and are valid, machine-readable JSON.
    let summary_raw = std::fs::read_to_string(metrics_dir.join("BENCH_campaign.json"))
        .expect("BENCH_campaign.json written");
    let summary = owl::json::parse(summary_raw.trim()).expect("valid perf summary");
    assert_eq!(
        summary.get("bench").and_then(|j| j.as_str()),
        Some("campaign")
    );
    assert_eq!(summary.get("workers").and_then(|j| j.as_u64()), Some(4));
    assert!(summary.get("stages").is_some(), "{summary_raw}");
    let spans = std::fs::read_to_string(metrics_dir.join("spans.jsonl")).expect("spans.jsonl");
    assert!(!spans.trim().is_empty(), "span stream must not be empty");
    for line in spans.lines() {
        owl::json::parse(line).expect("every span line is valid JSON");
    }
    for span in ["race-detect", "static-analysis"] {
        assert!(spans.contains(span), "missing {span} span in:\n{spans}");
    }

    // Zero workers is meaningless and rejected up front.
    let zero = cli()
        .args([
            "campaign",
            base.join("zero").to_str().unwrap(),
            "--quick",
            "--workers",
            "0",
        ])
        .output()
        .expect("spawn");
    assert!(!zero.status.success(), "--workers 0 must be rejected");

    let _ = std::fs::remove_dir_all(base);
}

#[test]
fn campaign_json_surfaces_recovery_and_health() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("owl-cli-campaign-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("utf8 temp path");

    let out = run_ok(&["campaign", d, "--quick", "--json"]);
    let doc = owl::json::parse(out.trim()).expect("valid JSON");
    let recovery = doc.get("recovery").expect("recovery object");
    assert_eq!(
        recovery
            .get("journal_discarded_bytes")
            .and_then(|j| j.as_u64()),
        Some(0),
        "clean run discarded nothing: {out}"
    );
    assert_eq!(
        recovery
            .get("journal_discarded_records")
            .and_then(|j| j.as_u64()),
        Some(0)
    );
    assert!(
        recovery
            .get("valid_records")
            .and_then(|j| j.as_u64())
            .unwrap_or(0)
            > 0,
        "{out}"
    );
    let health = doc.get("health").expect("health object");
    assert!(health.get("race_verify").is_some(), "{out}");
    assert!(
        health
            .get("journal_discarded_bytes")
            .and_then(|j| j.as_u64())
            .is_some(),
        "{out}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(unix)]
#[test]
fn serve_round_trip_with_typed_exit_codes() {
    use std::io::Read;

    let mut dir = std::env::temp_dir();
    dir.push(format!("owl-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let d = dir.to_str().expect("utf8 temp path");
    let socket = dir.join("owl.sock");
    let sock = socket.to_str().expect("utf8 socket path");

    let mut daemon = cli()
        .args(["serve", d, "--workers", "2", "--queue", "4"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !socket.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never bound its socket"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    // First submission executes; the summary is the machine-readable
    // ProgramSummary encoding.
    let first = run_ok(&["submit", sock, "Libsafe", "--quick", "--json"]);
    let doc = owl::json::parse(first.trim()).expect("valid JSON");
    assert_eq!(doc.get("cached").and_then(|j| j.as_bool()), Some(false));
    assert_eq!(doc.get("program").and_then(|j| j.as_str()), Some("Libsafe"));

    // The duplicate is a cache hit served from the durable store.
    let second = run_ok(&["submit", sock, "Libsafe", "--quick", "--json"]);
    let doc = owl::json::parse(second.trim()).expect("valid JSON");
    assert_eq!(doc.get("cached").and_then(|j| j.as_bool()), Some(true));
    assert_eq!(
        doc.get("summary"),
        owl::json::parse(first.trim()).unwrap().get("summary"),
        "cached summary is byte-equal to the executed one"
    );

    // Typed failure exit codes: 3 rejected, 4 deadline, 5 quarantined.
    let exit = |args: &[&str]| {
        cli()
            .args(args)
            .output()
            .expect("spawn")
            .status
            .code()
            .expect("exit code")
    };
    assert_eq!(exit(&["submit", sock, "NoSuchProgram"]), 3);
    assert_eq!(
        exit(&["submit", sock, "SSDB", "--quick", "--deadline-ms", "0"]),
        4
    );
    assert_eq!(
        exit(&["submit", sock, "SSDB", "--quick", "--inject-panic"]),
        5
    );

    let status = run_ok(&["status", sock]);
    let doc = owl::json::parse(status.trim()).expect("valid JSON");
    assert_eq!(doc.get("executed").and_then(|j| j.as_u64()), Some(1));
    assert_eq!(doc.get("cache_hits").and_then(|j| j.as_u64()), Some(1));
    assert_eq!(doc.get("stored").and_then(|j| j.as_u64()), Some(1));

    // Graceful drain: bye, exit 0, metrics artifacts on disk.
    let shutdown = cli().args(["shutdown", sock]).output().expect("spawn");
    assert!(shutdown.status.success(), "shutdown waits for bye");
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");
    let mut stderr = String::new();
    daemon
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read daemon stderr");
    assert!(stderr.contains("drained"), "{stderr}");

    let bench = std::fs::read_to_string(dir.join("BENCH_serve.json"))
        .expect("BENCH_serve.json written at drain");
    let doc = owl::json::parse(bench.trim()).expect("valid bench JSON");
    assert_eq!(doc.get("bench").and_then(|j| j.as_str()), Some("serve"));
    assert!(
        std::fs::read_to_string(dir.join("store.jsonl"))
            .expect("store journal")
            .lines()
            .count()
            >= 1,
        "the result store is durable"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn explore_workers_and_hb_backend_flags() {
    // The epoch backend at any worker count finds exactly what the
    // reference backend finds serially. The run command prints
    // wall-clock durations, so compare the findings lines, not the
    // whole output.
    let reference = run_ok(&[
        "run",
        "SSDB",
        "--quick",
        "--hb-backend",
        "reference",
        "--explore-workers",
        "1",
    ]);
    let epoch = run_ok(&[
        "run",
        "SSDB",
        "--quick",
        "--hb-backend",
        "epoch",
        "--explore-workers",
        "4",
    ]);
    let key_line = |out: &str| {
        out.lines()
            .find(|l| l.starts_with("reports:"))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no reports line in:\n{out}"))
    };
    assert_eq!(key_line(&epoch), key_line(&reference));
    assert!(epoch.contains("finding on `db`"), "{epoch}");
    assert!(reference.contains("finding on `db`"), "{reference}");

    // `run --json` carries no timings, so the whole document — fork
    // counters included — is byte-identical at any worker count.
    // Memcached is the program whose sweep dedups units.
    let serial = run_ok(&[
        "run",
        "Memcached",
        "--quick",
        "--json",
        "--explore-workers",
        "1",
    ]);
    let pooled = run_ok(&[
        "run",
        "Memcached",
        "--quick",
        "--json",
        "--explore-workers",
        "4",
    ]);
    assert_eq!(serial, pooled);

    // Bad values are rejected up front with a useful message.
    let zero = cli()
        .args(["run", "SSDB", "--quick", "--explore-workers", "0"])
        .output()
        .expect("spawn");
    assert!(
        !zero.status.success(),
        "--explore-workers 0 must be rejected"
    );
    let err = String::from_utf8_lossy(&zero.stderr);
    assert!(err.contains("at least 1"), "{err}");

    let bogus = cli()
        .args(["run", "SSDB", "--quick", "--hb-backend", "bogus"])
        .output()
        .expect("spawn");
    assert!(
        !bogus.status.success(),
        "--hb-backend bogus must be rejected"
    );
    let err = String::from_utf8_lossy(&bogus.stderr);
    // The rejection must list every valid backend, derived from the
    // same table the parser uses.
    for b in owl_race::HbBackend::ALL {
        assert!(err.contains(b.name()), "missing `{}` in: {err}", b.name());
    }

    let missing = cli()
        .args(["run", "SSDB", "--quick", "--hb-backend"])
        .output()
        .expect("spawn");
    assert!(!missing.status.success());
    let err = String::from_utf8_lossy(&missing.stderr);
    assert!(err.contains("requires a value"), "{err}");
}

#[test]
fn no_fork_flag_is_valueless_and_composes() {
    // --no-fork disables prefix-sharing fork mode without changing any
    // result: the findings lines match a default (forked) run exactly.
    let forked = run_ok(&["run", "SSDB", "--quick"]);
    let scratch = run_ok(&[
        "run",
        "SSDB",
        "--quick",
        "--no-fork",
        "--explore-workers",
        "2",
    ]);
    let key_line = |out: &str| {
        out.lines()
            .find(|l| l.starts_with("reports:"))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no reports line in:\n{out}"))
    };
    assert_eq!(key_line(&scratch), key_line(&forked));
    assert!(scratch.contains("finding on `db`"), "{scratch}");

    // The fork counters are zero under --no-fork and non-zero by
    // default — the flag really switches the execution strategy.
    let doc = owl::json::parse(&run_ok(&["run", "SSDB", "--quick", "--json"])).expect("valid JSON");
    let counter = |doc: &owl::json::Json, key: &str| {
        doc.get("health")
            .and_then(|h| h.get(key))
            .and_then(|j| j.as_u64())
            .unwrap_or(0)
    };
    assert!(counter(&doc, "units_forked") > 0, "default run forks");
    let doc = owl::json::parse(&run_ok(&["run", "SSDB", "--quick", "--json", "--no-fork"]))
        .expect("valid JSON");
    for key in [
        "units_forked",
        "prefix_steps_saved",
        "schedules_deduped",
        "snapshot_bytes",
    ] {
        assert_eq!(
            counter(&doc, key),
            0,
            "`{key}` must be zero under --no-fork"
        );
    }

    // It takes no value: a trailing operand is a usage error, not a
    // silently swallowed argument.
    let valued = cli()
        .args(["run", "SSDB", "--quick", "--no-fork", "5"])
        .output()
        .expect("spawn");
    assert!(!valued.status.success(), "--no-fork 5 must be rejected");
    assert_eq!(valued.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&valued.stderr);
    assert!(err.contains("takes no value"), "{err}");

    // Repeating it is an error too — it almost always means a mangled
    // command line.
    let twice = cli()
        .args(["run", "SSDB", "--quick", "--no-fork", "--no-fork"])
        .output()
        .expect("spawn");
    assert!(
        !twice.status.success(),
        "duplicate --no-fork must be rejected"
    );
    let err = String::from_utf8_lossy(&twice.stderr);
    assert!(err.contains("more than once"), "{err}");
}

#[test]
fn campaign_resumes_across_fork_mode() {
    // The campaign fingerprint normalizes the fork knob: a journal
    // written with fork mode on resumes byte-identically under
    // --no-fork, because forking is an execution strategy, not a
    // result-affecting configuration.
    let mut dir = std::env::temp_dir();
    dir.push(format!("owl-cli-fork-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("utf8 temp path");

    let first = run_ok(&["campaign", d, "--quick"]);
    assert!(first.contains("campaign summary"), "{first}");
    let resumed = run_ok(&["campaign", d, "--quick", "--resume", "--no-fork"]);
    assert_eq!(resumed, first, "--no-fork must not invalidate the journal");

    let _ = std::fs::remove_dir_all(dir);
}
