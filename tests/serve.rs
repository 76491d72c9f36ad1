//! `owl serve` daemon harness: overload, crash-resume, and the
//! journal-backed result cache.
//!
//! The daemon runs **in-process** (a thread calling `owl::serve::serve`)
//! with clients on real `UnixStream` connections, so the tests exercise
//! the full wire protocol while still being able to arm the store's
//! kill point and inspect the metrics recorder directly:
//!
//! * a 32-submit burst against `workers = 2, queue = 4` gets exactly
//!   one typed response per submit (`result` or `rejected/queue-full`),
//!   never more than 2 requests executing at once, zero panics, and a
//!   graceful drain whose store journal is valid on reopen;
//! * a kill point mid-commit ends the daemon like a crash — the
//!   in-flight client sees EOF, not a torn response — and a restarted
//!   daemon recovers the fsync'd prefix and answers the duplicate
//!   submission from cache **without re-running stages 1–5** (no stage
//!   span for the cached program appears in the restart's recorder);
//! * a torn store tail (partial final line) is truncated to a record
//!   boundary at restart and surfaced through `status`.

#![cfg(unix)]

use owl::metrics::MetricsRecorder;
use owl::serve::{
    encode_request, parse_response, serve, FailureKind, RejectReason, Request, Response,
    ResultStore, ServeConfig, ServeReport,
};
use owl::{Counter, JournalError, JournalKilled, OwlConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Silence the default panic hook for the panics this harness fires on
/// purpose (journal kills and injected serve faults); real panics
/// still print.
fn quiet_intentional_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let intentional = info.payload().downcast_ref::<JournalKilled>().is_some()
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.starts_with("injected serve fault"));
            if !intentional {
                prev(info);
            }
        }));
    });
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("owl-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Spawns the daemon on a thread and waits for its socket to appear.
fn start_daemon(cfg: ServeConfig) -> JoinHandle<Result<ServeReport, JournalError>> {
    let socket = cfg.socket.clone();
    let handle = std::thread::spawn(move || serve(cfg));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle
}

/// One request/one-line-response helper (plus a reader for follow-ups).
fn connect(socket: &Path) -> (BufReader<UnixStream>, UnixStream) {
    let stream = UnixStream::connect(socket).expect("connect to daemon");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (reader, stream)
}

fn send(stream: &mut UnixStream, req: &Request) {
    let mut line = encode_request(req);
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("write request");
}

/// Reads one response line; `None` on EOF (the daemon died).
fn read_response(reader: &mut BufReader<UnixStream>) -> Option<Response> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(parse_response(&line).expect("parseable response")),
        Err(_) => None,
    }
}

fn submit(program: &str) -> Request {
    Request::Submit {
        program: program.to_string(),
        quick: true,
        deadline_ms: None,
        sleep_ms: 0,
        inject_panic: false,
    }
}

/// Submits on a fresh connection and returns the terminal response
/// (skipping the `accepted` ack), or `None` if the daemon died first.
fn submit_and_wait(socket: &Path, req: &Request) -> Option<Response> {
    let (mut reader, mut stream) = connect(socket);
    send(&mut stream, req);
    loop {
        match read_response(&mut reader)? {
            Response::Accepted { .. } => continue,
            terminal => return Some(terminal),
        }
    }
}

fn shutdown(socket: &Path) {
    let (mut reader, mut stream) = connect(socket);
    send(&mut stream, &Request::Shutdown);
    assert!(
        matches!(read_response(&mut reader), Some(Response::Bye)),
        "graceful shutdown answers bye"
    );
}

#[test]
fn overload_burst_sheds_typed_and_drains_gracefully() {
    quiet_intentional_panics();
    let dir = scratch_dir("overload");
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 2;
    cfg.queue_capacity = 4;
    cfg.owl = OwlConfig::quick();
    cfg.metrics = Some(Arc::new(MetricsRecorder::new()));
    let socket = cfg.socket.clone();
    let daemon = start_daemon(cfg);

    // 32 concurrent submissions against a 4-deep window. `sleep_ms`
    // holds each executing job long enough that the window stays full
    // while the burst lands.
    let programs = ["Libsafe", "SSDB", "Apache", "MySQL"];
    let clients: Vec<_> = (0..32)
        .map(|i| {
            let socket = socket.clone();
            let program = programs[i % programs.len()].to_string();
            std::thread::spawn(move || {
                submit_and_wait(
                    &socket,
                    &Request::Submit {
                        program,
                        quick: true,
                        deadline_ms: None,
                        sleep_ms: 150,
                        inject_panic: false,
                    },
                )
            })
        })
        .collect();

    let mut results = 0u64;
    let mut rejected = 0u64;
    for c in clients {
        match c.join().expect("client thread") {
            Some(Response::Result { .. }) => results += 1,
            Some(Response::Rejected { reason }) => {
                assert_eq!(
                    reason,
                    RejectReason::QueueFull,
                    "capacity sheds are typed queue-full"
                );
                rejected += 1;
            }
            other => panic!("unexpected terminal response: {other:?}"),
        }
    }
    assert_eq!(results + rejected, 32, "every submit got exactly one answer");
    assert!(rejected > 0, "a 32-burst against a 4-window must shed");
    assert!(results > 0, "admitted work still completes under overload");

    shutdown(&socket);
    let report = daemon.join().expect("daemon thread").expect("drained");
    assert!(
        report.peak_running <= 2,
        "concurrency stays bounded by the worker pool: peak {}",
        report.peak_running
    );
    assert_eq!(report.admission.shed_queue_full, rejected);
    assert_eq!(
        report.admission.in_flight, 0,
        "drain released every admitted request"
    );
    assert_eq!(report.health.total_panics(), 0, "zero panics under burst");

    // The drain fsync'd the store: a fresh handle reopens it cleanly
    // with every executed result durable.
    let store = ResultStore::open(dir.join("store.jsonl")).expect("store reopens");
    assert!(!store.recovery().recovered(), "no torn tail after a drain");
    // Two jobs for the same (program, config) can both be enqueued
    // before the first commits, so executions may exceed distinct
    // stored results — but every client-visible result is accounted
    // for, and nothing durable was lost.
    assert_eq!(report.executed + report.cache_hits, results);
    assert!(!store.is_empty() && store.len() as u64 <= report.executed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_mid_commit_then_restart_serves_duplicates_from_cache() {
    quiet_intentional_panics();
    let dir = scratch_dir("kill-resume");

    // First daemon lifetime: the store's first append is a kill site,
    // so the first executed result dies mid-commit — after the record
    // is fsync'd (the journal's "kill after n" contract), exactly like
    // a power cut between fsync and response.
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    cfg.owl = OwlConfig::quick();
    cfg.kill_after_appends = Some(1);
    let socket = cfg.socket.clone();
    let daemon = start_daemon(cfg);

    let answer = submit_and_wait(&socket, &submit("Libsafe"));
    assert!(
        answer.is_none(),
        "the in-flight client sees EOF, not a torn response: {answer:?}"
    );
    let payload = daemon
        .join()
        .expect_err("the kill point ends the daemon like a crash");
    assert!(
        payload.downcast_ref::<JournalKilled>().is_some(),
        "JournalKilled is re-raised with its original payload"
    );
    let store_bytes = std::fs::read(dir.join("store.jsonl")).expect("store file");
    assert!(!store_bytes.is_empty(), "the killed commit was fsync'd first");

    // Second lifetime: recovery finds the fsync'd record byte-intact
    // and the duplicate submission is answered from cache without
    // executing any pipeline stage — the metrics recorder sees no
    // stage span for the cached program.
    let recorder = Arc::new(MetricsRecorder::new());
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    cfg.owl = OwlConfig::quick();
    cfg.metrics = Some(Arc::clone(&recorder));
    let socket = cfg.socket.clone();
    let daemon = start_daemon(cfg);

    assert_eq!(
        std::fs::read(dir.join("store.jsonl")).expect("store file"),
        store_bytes,
        "recovery preserved the store byte-identically (clean record boundary)"
    );

    match submit_and_wait(&socket, &submit("Libsafe")) {
        Some(Response::Result {
            cached, program, ..
        }) => {
            assert!(cached, "duplicate after restart is a cache hit");
            assert_eq!(program, "Libsafe");
        }
        other => panic!("expected a cached result, got {other:?}"),
    }
    // A fresh program still executes end to end.
    match submit_and_wait(&socket, &submit("SSDB")) {
        Some(Response::Result {
            cached, program, ..
        }) => {
            assert!(!cached, "first SSDB run executes the pipeline");
            assert_eq!(program, "SSDB");
        }
        other => panic!("expected an executed result, got {other:?}"),
    }

    shutdown(&socket);
    let report = daemon.join().expect("daemon thread").expect("drained");
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.executed, 1);
    assert_eq!(report.stored, 2, "Libsafe recovered + SSDB executed");

    let spans = recorder.spans();
    assert!(
        spans.iter().any(|s| s.program == "SSDB" && s.name == "detect"),
        "the executed program ran its stages"
    );
    assert!(
        !spans.iter().any(|s| s.program == "Libsafe"),
        "the cached program re-ran no stage at all: {:?}",
        spans
            .iter()
            .filter(|s| s.program == "Libsafe")
            .collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_store_tail_truncates_at_restart_and_is_reported() {
    quiet_intentional_panics();
    let dir = scratch_dir("torn-tail");

    // Seed the store with two durable results, then tear the tail mid
    // final line, as a crash mid-`write` would.
    {
        let mut cfg = ServeConfig::new(&dir);
        cfg.workers = 1;
        cfg.owl = OwlConfig::quick();
        let socket = cfg.socket.clone();
        let daemon = start_daemon(cfg);
        assert!(matches!(
            submit_and_wait(&socket, &submit("Libsafe")),
            Some(Response::Result { cached: false, .. })
        ));
        assert!(matches!(
            submit_and_wait(&socket, &submit("SSDB")),
            Some(Response::Result { cached: false, .. })
        ));
        shutdown(&socket);
        daemon.join().expect("daemon thread").expect("drained");
    }
    let store_path = dir.join("store.jsonl");
    let full = std::fs::read(&store_path).expect("store file");
    std::fs::write(&store_path, &full[..full.len() - 7]).expect("tear the tail");

    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    cfg.owl = OwlConfig::quick();
    let socket = cfg.socket.clone();
    let daemon = start_daemon(cfg);

    // Status surfaces the repair; the torn record (SSDB) is gone, the
    // intact prefix (Libsafe) still answers from cache.
    let (mut reader, mut stream) = connect(&socket);
    send(&mut stream, &Request::Status);
    let Some(Response::Status(status)) = read_response(&mut reader) else {
        panic!("status response expected");
    };
    assert!(status.recovery_discarded_bytes > 0, "repair is reported");
    assert_eq!(status.stored, 1, "only the intact prefix survives");
    drop((reader, stream));

    assert!(matches!(
        submit_and_wait(&socket, &submit("Libsafe")),
        Some(Response::Result { cached: true, .. })
    ));
    // The torn-away result simply re-executes and re-commits.
    assert!(matches!(
        submit_and_wait(&socket, &submit("SSDB")),
        Some(Response::Result { cached: false, .. })
    ));

    shutdown(&socket);
    let report = daemon.join().expect("daemon thread").expect("drained");
    assert!(report.recovery.recovered());
    assert_eq!(report.stored, 2, "the store is whole again");
    assert_eq!(
        report.health.counters[Counter::JournalDiscardedBytes],
        report.recovery.discarded_bytes,
        "recovery counters flow into the consolidated health"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_quarantine_and_unknown_program_are_typed() {
    quiet_intentional_panics();
    let dir = scratch_dir("typed");
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    cfg.owl = OwlConfig::quick();
    let socket = cfg.socket.clone();
    let daemon = start_daemon(cfg);

    // deadline_ms = 0: already expired when a worker picks it up —
    // cancelled deterministically, never executed.
    match submit_and_wait(
        &socket,
        &Request::Submit {
            program: "Libsafe".into(),
            quick: true,
            deadline_ms: Some(0),
            sleep_ms: 0,
            inject_panic: false,
        },
    ) {
        Some(Response::Failed { kind, .. }) => {
            assert_eq!(kind, FailureKind::DeadlineExceeded);
        }
        other => panic!("expected deadline failure, got {other:?}"),
    }

    // An injected panic quarantines that one request; the daemon keeps
    // serving.
    match submit_and_wait(
        &socket,
        &Request::Submit {
            program: "Libsafe".into(),
            quick: true,
            deadline_ms: None,
            sleep_ms: 0,
            inject_panic: true,
        },
    ) {
        Some(Response::Failed { kind, .. }) => assert_eq!(kind, FailureKind::Quarantined),
        other => panic!("expected quarantine, got {other:?}"),
    }

    match submit_and_wait(&socket, &submit("NoSuchProgram")) {
        Some(Response::Rejected { reason }) => {
            assert_eq!(reason, RejectReason::UnknownProgram);
        }
        other => panic!("expected unknown-program rejection, got {other:?}"),
    }

    // Still alive after all three failure modes.
    match submit_and_wait(&socket, &submit("Libsafe")) {
        Some(Response::Result { cached, .. }) => assert!(!cached),
        other => panic!("daemon should still serve, got {other:?}"),
    }

    shutdown(&socket);
    let report = daemon.join().expect("daemon thread").expect("drained");
    assert_eq!(report.executed, 1);
    assert_eq!(report.stored, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One request line of 100 000 nested `[`: the parser refuses it at its
/// depth bound with a typed error response instead of recursing off the
/// connection thread's stack (a stack overflow aborts the whole daemon),
/// and the daemon, that connection included, keeps serving.
#[test]
fn deeply_nested_request_line_gets_a_typed_error() {
    let dir = scratch_dir("nested");
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    cfg.owl = OwlConfig::quick();
    let socket = cfg.socket.clone();
    let daemon = start_daemon(cfg);

    let (mut reader, mut stream) = connect(&socket);
    let mut line = "[".repeat(100_000);
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("write nested line");
    match read_response(&mut reader) {
        Some(Response::Error { message }) => {
            assert!(message.contains("nesting deeper than"), "{message}");
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    send(&mut stream, &Request::Status);
    assert!(
        matches!(read_response(&mut reader), Some(Response::Status(_))),
        "the connection keeps serving"
    );
    match submit_and_wait(&socket, &submit("Libsafe")) {
        Some(Response::Result { cached, .. }) => assert!(!cached),
        other => panic!("daemon should still serve, got {other:?}"),
    }

    shutdown(&socket);
    let report = daemon.join().expect("daemon thread").expect("drained");
    assert_eq!(report.executed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer that sends an endless line — far longer than the daemon's
/// in-flight byte budget, with no newline — is answered `too-large` as
/// soon as the line outgrows the budget (no such line could ever be
/// admitted), instead of being buffered without bound, and the daemon
/// keeps serving other connections.
#[test]
fn endless_request_line_is_rejected_too_large() {
    let dir = scratch_dir("endless");
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    cfg.max_inflight_bytes = 4096;
    cfg.owl = OwlConfig::quick();
    let socket = cfg.socket.clone();
    let daemon = start_daemon(cfg);

    let (mut reader, mut stream) = connect(&socket);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let chunk = vec![b'x'; 64 * 1024];
    for _ in 0..16 {
        stream.write_all(&chunk).expect("write endless line");
    }
    match read_response(&mut reader) {
        Some(Response::Rejected { reason }) => assert_eq!(reason, RejectReason::TooLarge),
        other => panic!("expected rejected too-large, got {other:?}"),
    }

    let (mut fresh, mut fresh_stream) = connect(&socket);
    send(&mut fresh_stream, &Request::Status);
    match read_response(&mut fresh) {
        Some(Response::Status(s)) => assert_eq!(s.shed_too_large, 1),
        other => panic!("daemon should still answer status, got {other:?}"),
    }

    drop(stream);
    shutdown(&socket);
    daemon.join().expect("daemon thread").expect("drained");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent daemon runs of one program share `<dir>/trace-spill`, so
/// a run's spill segments carry its caller-set prefix (the daemon uses
/// the request id) ahead of the program name. An armed kill switch
/// freezes the run inside its first segment write, which leaves that
/// segment's name on disk without depending on timing.
#[test]
fn spill_segments_carry_the_caller_prefix() {
    quiet_intentional_panics();
    let p = owl_corpus::program("MySQL").expect("corpus program");
    let dir = scratch_dir("spill-prefix");
    let mut cfg = OwlConfig::quick();
    cfg.detect.stream.max_trace_mem = Some(1024);
    cfg.detect.stream.spill_dir = Some(dir.clone());
    cfg.detect.stream.tag_prefix = "req7".to_string();
    let switch = owl::owl_race::SpillKillSwitch::new();
    switch.arm(1);
    cfg.detect.stream.spill_kill = Some(switch);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        owl::Owl::new(&p.module, p.entry, cfg).run(p.name, &p.workloads, &p.exploit_inputs)
    }))
    .expect_err("the armed spill kill must fire");
    assert!(payload.downcast_ref::<JournalKilled>().is_some());
    let segments: Vec<String> = std::fs::read_dir(&dir)
        .expect("spill dir exists after the kill")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert_eq!(segments.len(), 1, "{segments:?}");
    assert!(
        segments[0].starts_with("req7-MySQL-u0-"),
        "torn segment lost the caller prefix: {segments:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
