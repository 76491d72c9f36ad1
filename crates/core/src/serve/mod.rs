//! `owl serve`: a resident analysis daemon.
//!
//! One process owns a Unix-domain socket and a journal-backed
//! [`ResultStore`]; clients submit corpus programs over line-delimited
//! JSON ([`protocol`]) and get back the same deterministic
//! [`crate::ProgramSummary`] the campaign runner would produce.
//! DESIGN.md §13 documents the architecture; the short version:
//!
//! * **Admission control** ([`admission`]): every submit passes a
//!   bounded submission window and an in-flight byte budget, or is shed
//!   with a typed [`RejectReason`] — the daemon degrades predictably
//!   under overload instead of queueing without bound.
//! * **Execution**: admitted jobs flow through the campaign's
//!   [`DeadlineQueue`] into a bounded worker pool. Each request runs
//!   under `catch_unwind`; a panicking pipeline quarantines that one
//!   request (`failed`/`quarantined` on the wire) and the daemon keeps
//!   serving. A request still queued past its deadline is cancelled,
//!   never executed.
//! * **Crash-safe result store** ([`store`]): results are group-
//!   committed to an append-only journal keyed by the `(program,
//!   config)` fingerprint. Duplicate submissions — across restarts too
//!   — are answered from the store by name, without building a model
//!   or executing any pipeline stage.
//! * **Observability**: a watchdog samples queue depth, active
//!   workers, and in-flight bytes into [`MetricsRecorder`] gauges;
//!   `serve()` writes `spans.jsonl` + `BENCH_serve.json` on exit.
//! * **Graceful drain**: a `shutdown` request stops admission, lets
//!   in-flight work finish (or deadline-cancel), fsyncs the store,
//!   then answers `bye`. The journal's kill point ends the daemon the
//!   way a real crash would: abruptly, with in-flight clients seeing
//!   EOF — and the store recovering on the next start.
//!
//! The crate forbids `unsafe`, so there is deliberately no signal
//! handler: the only orderly exit is the protocol's `shutdown`
//! request, which is also the only one a remote client can trigger.

pub mod admission;
pub mod protocol;
pub mod store;

pub use admission::{AdmissionController, AdmissionSnapshot, RejectReason};
pub use protocol::{
    encode_request, encode_response, parse_request, parse_response, status_pairs, FailureKind,
    Request, Response, StatusReport,
};
pub use store::{ResultStore, StoreStats};

use crate::campaign::record_attempt_metrics;
use crate::config::OwlConfig;
use crate::counters::Counter;
use crate::journal::{JournalError, JournalKilled, ProgramSummary, RecoveryReport};
use crate::metrics::MetricsRecorder;
use crate::pipeline::{Owl, PipelineHealth};
use crate::queue::{DeadlineQueue, Pop};
use owl_corpus::ProgramEntry;
use std::any::Any;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix-domain socket path (a stale file there is replaced).
    pub socket: PathBuf,
    /// Directory for the result store (`store.jsonl`) and the metrics
    /// artifacts (`spans.jsonl`, `BENCH_serve.json`).
    pub dir: PathBuf,
    /// Pipeline configuration for submits without `"quick":true`.
    pub owl: OwlConfig,
    /// Worker threads executing admitted requests (≥ 1).
    pub workers: usize,
    /// Bound on concurrently admitted requests (queued + executing).
    pub queue_capacity: usize,
    /// Bound on admitted payload bytes in flight.
    pub max_inflight_bytes: u64,
    /// Deadline for submits without `deadline_ms`.
    pub default_deadline: Duration,
    /// Arms the store journal's kill point (crash testing), as
    /// [`crate::campaign::CampaignConfig::kill_after_appends`].
    pub kill_after_appends: Option<u64>,
    /// Optional shared metrics recorder.
    pub metrics: Option<Arc<MetricsRecorder>>,
}

impl ServeConfig {
    /// A daemon serving `dir` with 2 workers, an 8-deep submission
    /// window, a 1 MiB byte budget, and a 30 s default deadline; the
    /// socket defaults to `dir/owl.sock`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        ServeConfig {
            socket: dir.join("owl.sock"),
            dir,
            owl: OwlConfig::default(),
            workers: 2,
            queue_capacity: 8,
            max_inflight_bytes: 1 << 20,
            default_deadline: Duration::from_secs(30),
            kill_after_appends: None,
            metrics: None,
        }
    }
}

/// What a daemon lifetime produced (returned by [`serve`] after a
/// graceful drain).
#[derive(Debug)]
pub struct ServeReport {
    /// Requests executed through the full pipeline.
    pub executed: u64,
    /// Requests answered from the result store.
    pub cache_hits: u64,
    /// Final admission levels and shed counters.
    pub admission: AdmissionSnapshot,
    /// Distinct results durable in the store.
    pub stored: u64,
    /// Store group-commit statistics.
    pub store_stats: StoreStats,
    /// What the store's open-time recovery found.
    pub recovery: RecoveryReport,
    /// Health counters merged across every executed request (plus the
    /// store's recovery counters).
    pub health: PipelineHealth,
    /// Most workers observed executing simultaneously.
    pub peak_running: u64,
}

/// Resolves a submitted program name, as `owl-cli run` does, to its
/// [`owl_corpus::PROGRAMS`] entry without building a model: a cache hit
/// needs only the display name, and a worker builds a miss's model.
pub use owl_corpus::lookup as resolve_program;

/// Daemon lifecycle phase, advanced monotonically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// Admitting and executing.
    Running,
    /// Shutdown requested (or fatal): no new admissions, in-flight
    /// work finishing.
    Draining,
    /// Workers joined, store synced, metrics written — `bye` may be
    /// sent.
    Drained,
}

/// One admitted request travelling from a connection thread to a
/// worker.
struct Job {
    id: u64,
    program: &'static ProgramEntry,
    owl: OwlConfig,
    fingerprint: String,
    bytes: u64,
    deadline: Instant,
    sleep_ms: u64,
    inject_panic: bool,
    /// Write half of the submitting connection; the reading side stays
    /// with the connection thread.
    conn: Arc<Mutex<UnixStream>>,
}

/// Everything the daemon's threads share.
struct ServeShared {
    cfg: ServeConfig,
    admission: AdmissionController,
    queue: DeadlineQueue<Job>,
    store: ResultStore,
    health: Mutex<PipelineHealth>,
    executed: AtomicU64,
    cache_hits: AtomicU64,
    /// Microseconds spent in the check-elision pre-pass, summed over
    /// executed requests (wall-clock lives in stats, not health, so it
    /// is accumulated separately).
    elision_solve_us: AtomicU64,
    running: AtomicU64,
    peak_running: AtomicU64,
    next_id: AtomicU64,
    /// Set at drain start; connection and accept threads exit on it.
    shutdown: AtomicBool,
    phase: Mutex<Phase>,
    phase_changed: Condvar,
    /// First fatal store error, if any.
    fatal: Mutex<Option<JournalError>>,
    /// First captured [`JournalKilled`] payload, if any — re-raised by
    /// [`serve`] after the pool stops, campaign discipline.
    killed: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ServeShared {
    fn set_phase(&self, at_least: Phase) {
        let mut p = self.phase.lock().unwrap_or_else(PoisonError::into_inner);
        if *p < at_least {
            *p = at_least;
        }
        drop(p);
        self.phase_changed.notify_all();
    }

    fn wait_phase(&self, at_least: Phase) {
        let mut p = self.phase.lock().unwrap_or_else(PoisonError::into_inner);
        while *p < at_least {
            p = self
                .phase_changed
                .wait(p)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Starts the drain: stop admitting, close the queue, tell the
    /// accept and connection threads to wind down.
    fn begin_drain(&self) {
        self.admission.drain();
        self.queue.close();
        self.shutdown.store(true, Ordering::SeqCst);
        self.set_phase(Phase::Draining);
    }

    /// The health merged over every executed request, with the store's
    /// open-time recovery as the journal recovery counters.
    fn health(&self) -> PipelineHealth {
        let recovery = self.store.recovery();
        let mut h = self
            .health
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        h.counters[Counter::JournalDiscardedBytes] += recovery.discarded_bytes;
        h.counters[Counter::JournalDiscardedRecords] += recovery.discarded_records;
        h
    }

    fn status_report(&self) -> StatusReport {
        let a = self.admission.snapshot();
        let recovery = self.store.recovery();
        StatusReport {
            queue_depth: self.queue.depth() as u64,
            active: self.running.load(Ordering::SeqCst),
            inflight_bytes: a.inflight_bytes,
            draining: a.draining,
            executed: self.executed.load(Ordering::SeqCst),
            cache_hits: self.cache_hits.load(Ordering::SeqCst),
            shed_queue_full: a.shed_queue_full,
            shed_too_large: a.shed_too_large,
            shed_draining: a.shed_draining,
            stored: self.store.len() as u64,
            recovery_discarded_bytes: recovery.discarded_bytes,
            recovery_discarded_records: recovery.discarded_records,
            elision_solve_us: self.elision_solve_us.load(Ordering::SeqCst),
            counters: self.health().counters,
        }
    }
}

/// Writes one response line; errors (client gone) are ignored — the
/// daemon never dies because a client hung up.
fn respond(conn: &Arc<Mutex<UnixStream>>, resp: &Response) {
    let mut line = encode_response(resp);
    line.push('\n');
    let mut stream = conn.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.flush();
}

/// Worker body: pull due jobs, execute (or cancel, or quarantine),
/// answer on the submitting connection, release admission.
fn worker_loop(shared: &Arc<ServeShared>, worker_id: usize) {
    loop {
        let job = match shared.queue.pop() {
            Pop::Item { item, .. } => item,
            Pop::Drained | Pop::Aborted => return,
        };
        let running = shared.running.fetch_add(1, Ordering::SeqCst) + 1;
        shared.peak_running.fetch_max(running, Ordering::SeqCst);

        let stop = execute_job(shared, job, worker_id);

        shared.running.fetch_sub(1, Ordering::SeqCst);
        shared.queue.task_done();
        if stop {
            return;
        }
    }
}

/// Runs one admitted job end to end. Returns `true` if the worker must
/// stop (kill point or fatal store error).
fn execute_job(shared: &Arc<ServeShared>, job: Job, worker_id: usize) -> bool {
    // A request queued past its deadline is cancelled, never executed.
    if Instant::now() >= job.deadline {
        respond(
            &job.conn,
            &Response::Failed {
                id: job.id,
                kind: FailureKind::DeadlineExceeded,
                message: "deadline passed while queued".to_string(),
            },
        );
        if let Some(m) = &shared.cfg.metrics {
            m.counter("serve_deadline_cancelled", 1);
        }
        shared.admission.complete(job.bytes);
        return false;
    }
    if job.sleep_ms > 0 {
        // Test instrumentation: hold the worker busy (clamped at parse
        // time) so overload tests can fill the window deterministically.
        std::thread::sleep(Duration::from_millis(
            job.sleep_ms.min(protocol::MAX_SLEEP_MS),
        ));
    }

    // Built before the clock starts: the `program` span times the
    // pipeline alone.
    let p = job.program.build();
    let started = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        if job.inject_panic {
            panic!("injected serve fault (request {})", job.id);
        }
        let owl = Owl::new(&p.module, p.entry, job.owl.clone());
        owl.run(p.name, &p.workloads, &p.exploit_inputs)
    }));

    let result = match run {
        Ok(result) => result,
        Err(payload) => {
            // The pipeline (or the injected fault) panicked: quarantine
            // this one request, keep the daemon alive.
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            respond(
                &job.conn,
                &Response::Failed {
                    id: job.id,
                    kind: FailureKind::Quarantined,
                    message,
                },
            );
            if let Some(m) = &shared.cfg.metrics {
                m.counter("serve_quarantined", 1);
            }
            shared.admission.complete(job.bytes);
            return false;
        }
    };

    if let Some(error) = result.error {
        // Keep the failed run's health visible in `status` even though
        // no summary is stored.
        shared
            .health
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(&result.health);
        respond(
            &job.conn,
            &Response::Failed {
                id: job.id,
                kind: FailureKind::Quarantined,
                message: error.to_string(),
            },
        );
        if let Some(m) = &shared.cfg.metrics {
            m.counter("serve_quarantined", 1);
        }
        shared.admission.complete(job.bytes);
        return false;
    }

    // Durability before the response: the result is group-committed
    // (and fsync'd) to the store before the client hears about it, so
    // an acknowledged result is always served from cache after a
    // restart. The commit is a kill site — supervise it like the
    // campaign supervises journal appends.
    let summary = ProgramSummary::from_result(&result);
    let committed = catch_unwind(AssertUnwindSafe(|| {
        shared
            .store
            .commit(job.fingerprint.clone(), p.name.to_string(), summary.clone())
    }));
    match committed {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            let mut slot = shared.fatal.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(e);
            }
            drop(slot);
            shared.queue.abort();
            shared.begin_drain();
            return true;
        }
        Err(payload) if payload.is::<JournalKilled>() => {
            // The simulated hard kill: no response (the client sees
            // EOF — its in-flight request is cleanly reported lost),
            // the payload is re-raised by `serve` once the pool stops.
            let mut slot = shared
                .killed
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(payload);
            }
            drop(slot);
            shared.queue.abort();
            shared.begin_drain();
            return true;
        }
        Err(payload) => resume_unwind(payload),
    }

    if let Some(m) = &shared.cfg.metrics {
        record_attempt_metrics(m, p.name, worker_id, 1, started, &result);
        m.counter("serve_executed", 1);
    }
    shared
        .health
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .merge(&result.health);
    shared.elision_solve_us.fetch_add(
        result.stats.elision_solve_time.as_micros() as u64,
        Ordering::SeqCst,
    );
    shared.executed.fetch_add(1, Ordering::SeqCst);

    respond(
        &job.conn,
        &Response::Result {
            id: job.id,
            program: p.name.to_string(),
            cached: false,
            summary,
        },
    );
    shared.admission.complete(job.bytes);
    false
}

/// Handles one request line on a connection thread. A submit is
/// resolved by name (no model is built here), admitted (or shed),
/// answered from cache, or enqueued for a worker. Returns whether the
/// line was a `shutdown`, which ends the connection once answered.
fn handle_request(shared: &Arc<ServeShared>, conn: &Arc<Mutex<UnixStream>>, line: &str) -> bool {
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(message) => {
            respond(conn, &Response::Error { message });
            return false;
        }
    };
    match req {
        Request::Submit {
            program,
            quick,
            deadline_ms,
            sleep_ms,
            inject_panic,
        } => {
            let Some(resolved) = resolve_program(&program) else {
                respond(
                    conn,
                    &Response::Rejected {
                        reason: RejectReason::UnknownProgram,
                    },
                );
                return false;
            };
            let bytes = line.len() as u64;
            if let Err(reason) = shared.admission.try_admit(bytes) {
                respond(conn, &Response::Rejected { reason });
                if let Some(m) = &shared.cfg.metrics {
                    m.counter("serve_shed", 1);
                }
                return false;
            }
            // Admitted: from here every path must release via
            // `admission.complete` (workers do it for enqueued jobs).
            let owl = if quick {
                OwlConfig::quick()
            } else {
                shared.cfg.owl.clone()
            };
            let fingerprint = ResultStore::fingerprint(&owl, resolved.name);
            if let Some((program, summary)) = shared.store.lookup(&fingerprint) {
                // Fingerprint hit: answer from the durable store, no
                // pipeline stage runs (and no stage span is recorded —
                // which is how the tests prove it).
                shared.cache_hits.fetch_add(1, Ordering::SeqCst);
                if let Some(m) = &shared.cfg.metrics {
                    m.counter("serve_cache_hits", 1);
                }
                respond(
                    conn,
                    &Response::Result {
                        id: 0,
                        program,
                        cached: true,
                        summary,
                    },
                );
                shared.admission.complete(bytes);
                return false;
            }
            let id = shared.next_id.fetch_add(1, Ordering::SeqCst) + 1;
            let deadline = Instant::now()
                + deadline_ms
                    .map(Duration::from_millis)
                    .unwrap_or(shared.cfg.default_deadline);
            // `accepted` goes out before the job is visible to workers
            // so the client always reads it before the `result`.
            respond(conn, &Response::Accepted { id });
            let enqueued = shared.queue.push(
                Instant::now(),
                Job {
                    id,
                    program: resolved,
                    owl,
                    fingerprint,
                    bytes,
                    deadline,
                    sleep_ms,
                    inject_panic,
                    conn: Arc::clone(conn),
                },
            );
            if !enqueued {
                // Aborted between admit and push (daemon dying): the
                // client sees EOF for this id, like any in-flight
                // request at a crash.
                shared.admission.complete(bytes);
            }
            false
        }
        Request::Status => {
            respond(conn, &Response::Status(Box::new(shared.status_report())));
            false
        }
        Request::Shutdown => {
            shared.begin_drain();
            // `bye` only after the drain completes: workers joined,
            // store synced, metrics written.
            shared.wait_phase(Phase::Drained);
            respond(conn, &Response::Bye);
            true
        }
    }
}

/// What one [`LineReader::read`] call produced.
enum LineRead {
    /// A complete line, newline included (or the unterminated tail
    /// before end of stream).
    Line(Vec<u8>),
    /// The line outgrew the cap; the rest of it is skipped.
    TooLarge,
    /// The peer hung up.
    Eof,
}

/// Reads request lines while holding at most `cap` bytes of any one:
/// a peer that never sends a newline cannot grow the daemon's memory.
/// A line that needs more than `cap` bytes, newline included, is
/// reported as [`LineRead::TooLarge`] as soon as that is certain, and
/// its remaining bytes are discarded up to its newline.
struct LineReader<R> {
    inner: R,
    line: Vec<u8>,
    cap: usize,
    /// Inside a line already reported too large.
    skipping: bool,
}

impl<R: BufRead> LineReader<R> {
    fn new(inner: R, cap: usize) -> Self {
        LineReader {
            inner,
            line: Vec::new(),
            cap,
            skipping: false,
        }
    }

    /// Reads up to the end of the current line. A read error (such as
    /// the socket's poll timeout) leaves the partial line in place, so
    /// the next call resumes it.
    fn read(&mut self) -> std::io::Result<LineRead> {
        loop {
            let available = self.inner.fill_buf()?;
            if available.is_empty() {
                return Ok(if self.line.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line(std::mem::take(&mut self.line))
                });
            }
            let newline = available.iter().position(|&b| b == b'\n');
            let ends = newline.is_some();
            let n = newline.map_or(available.len(), |i| i + 1);
            if self.skipping {
                self.inner.consume(n);
                self.skipping = !ends;
                continue;
            }
            // An unterminated line still owes at least its newline.
            if self.line.len() + n + usize::from(!ends) > self.cap {
                self.inner.consume(n);
                self.line.clear();
                self.skipping = !ends;
                return Ok(LineRead::TooLarge);
            }
            self.line.extend_from_slice(&available[..n]);
            self.inner.consume(n);
            if ends {
                return Ok(LineRead::Line(std::mem::take(&mut self.line)));
            }
        }
    }
}

/// Connection thread: read request lines until the client hangs up or
/// the daemon shuts down. The read side polls with a short timeout so
/// a parked connection cannot outlive the daemon; responses to
/// still-running jobs survive this thread via the shared write half.
///
/// A line is capped at [`ServeConfig::max_inflight_bytes`], since
/// admission could never accept a longer one: it is answered
/// `rejected too-large` and the connection keeps serving.
fn connection_loop(shared: Arc<ServeShared>, stream: UnixStream) {
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let _ = reader_stream.set_read_timeout(Some(Duration::from_millis(50)));
    let conn = Arc::new(Mutex::new(stream));
    let cap = usize::try_from(shared.cfg.max_inflight_bytes).unwrap_or(usize::MAX);
    let mut reader = LineReader::new(BufReader::new(reader_stream), cap);
    loop {
        match reader.read() {
            Ok(LineRead::Eof) => return,
            Ok(LineRead::TooLarge) => {
                let reason = shared.admission.shed_too_large();
                respond(&conn, &Response::Rejected { reason });
            }
            Ok(LineRead::Line(bytes)) => match String::from_utf8(bytes) {
                Ok(line) => {
                    if !line.trim().is_empty() && handle_request(&shared, &conn, &line) {
                        return;
                    }
                }
                Err(_) => respond(
                    &conn,
                    &Response::Error {
                        message: "request line is not UTF-8".to_string(),
                    },
                ),
            },
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // No data yet; `reader` keeps any partial line. Exit once
                // the daemon is shutting down — in-flight responses are
                // delivered through the write half the jobs hold.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Runs the daemon until a `shutdown` request (or the kill point)
/// ends it. Blocking; returns the lifetime report after a graceful
/// drain, re-raises [`JournalKilled`] after a simulated crash.
pub fn serve(cfg: ServeConfig) -> Result<ServeReport, JournalError> {
    std::fs::create_dir_all(&cfg.dir)?;
    let store = ResultStore::open(cfg.dir.join("store.jsonl"))?;
    store.set_kill_after(cfg.kill_after_appends);

    // Replace a stale socket file (a previous daemon that died without
    // unlinking), then listen.
    if cfg.socket.exists() {
        std::fs::remove_file(&cfg.socket)?;
    }
    let listener = UnixListener::bind(&cfg.socket)?;
    listener.set_nonblocking(true)?;

    let workers = cfg.workers.max(1);
    let admission = AdmissionController::new(cfg.queue_capacity, cfg.max_inflight_bytes);
    let shared = Arc::new(ServeShared {
        cfg,
        admission,
        queue: DeadlineQueue::new(),
        store,
        health: Mutex::new(PipelineHealth::default()),
        executed: AtomicU64::new(0),
        cache_hits: AtomicU64::new(0),
        elision_solve_us: AtomicU64::new(0),
        running: AtomicU64::new(0),
        peak_running: AtomicU64::new(0),
        next_id: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        phase: Mutex::new(Phase::Running),
        phase_changed: Condvar::new(),
        fatal: Mutex::new(None),
        killed: Mutex::new(None),
    });

    let mut worker_handles = Vec::with_capacity(workers);
    for worker_id in 0..workers {
        let shared = Arc::clone(&shared);
        worker_handles.push(std::thread::spawn(move || worker_loop(&shared, worker_id)));
    }

    // Watchdog: sample load gauges until the drain starts.
    let watchdog = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            while !shared.shutdown.load(Ordering::SeqCst) {
                if let Some(m) = &shared.cfg.metrics {
                    m.gauge("serve_queue_depth", shared.queue.depth() as u64);
                    m.gauge("serve_active", shared.running.load(Ordering::SeqCst));
                    m.gauge(
                        "serve_inflight_bytes",
                        shared.admission.snapshot().inflight_bytes,
                    );
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };

    // Accept loop: poll (the listener is non-blocking so shutdown is
    // observed within one tick), one thread per connection.
    let accepter = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !shared.shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let shared = Arc::clone(&shared);
                        conns.push(std::thread::spawn(move || {
                            connection_loop(shared, stream)
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
            conns
        })
    };

    // Block until something starts the drain (a shutdown request, the
    // kill point, or a fatal store error), then finish in-flight work.
    shared.wait_phase(Phase::Draining);
    for h in worker_handles {
        let _ = h.join();
    }
    let _ = watchdog.join();

    // Everything durable is already fsync'd per group commit; write
    // the observability artifacts, then release the shutdown
    // connection's `bye`.
    if let Some(m) = &shared.cfg.metrics {
        let a = shared.admission.snapshot();
        m.counter("serve_shed_queue_full", a.shed_queue_full);
        m.counter("serve_shed_too_large", a.shed_too_large);
        m.counter("serve_shed_draining", a.shed_draining);
        let _ = m.write_files_named(
            &shared.cfg.dir,
            "serve",
            workers,
            shared.executed.load(Ordering::SeqCst) as usize,
        );
    }
    shared.set_phase(Phase::Drained);

    let conns = accepter.join().unwrap_or_default();
    for c in conns {
        let _ = c.join();
    }
    let _ = std::fs::remove_file(&shared.cfg.socket);

    if let Some(payload) = shared
        .killed
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        // The simulated hard kill, re-raised with its original payload
        // (campaign discipline) so the crash tests can downcast it.
        resume_unwind(payload);
    }
    if let Some(e) = shared
        .fatal
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        return Err(e);
    }

    let recovery = shared.store.recovery().clone();
    let health = shared.health();
    Ok(ServeReport {
        executed: shared.executed.load(Ordering::SeqCst),
        cache_hits: shared.cache_hits.load(Ordering::SeqCst),
        admission: shared.admission.snapshot(),
        stored: shared.store.len() as u64,
        store_stats: shared.store.stats(),
        recovery,
        health,
        peak_running: shared.peak_running.load(Ordering::SeqCst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_program_accepts_cli_names() {
        assert_eq!(resolve_program("libsafe").unwrap().name, "Libsafe");
        assert_eq!(resolve_program("SSDB").unwrap().name, "SSDB");
        assert_eq!(resolve_program("heap-relay").unwrap().name, resolve_program("heaprelay").unwrap().name);
        assert!(resolve_program("bank").is_some());
        assert!(resolve_program("no-such-program").is_none());
    }

    #[test]
    fn serve_config_defaults_are_bounded() {
        let cfg = ServeConfig::new("/tmp/owl-serve-x");
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.queue_capacity, 8);
        assert!(cfg.socket.ends_with("owl.sock"));
    }

    /// Every line read from `input` through a 2-byte buffer and an
    /// 8-byte cap, as text, with `!` for a too-large line.
    fn lines(input: &[u8]) -> Vec<String> {
        let mut r = LineReader::new(BufReader::with_capacity(2, input), 8);
        let mut out = Vec::new();
        loop {
            match r.read().expect("in-memory read") {
                LineRead::Eof => return out,
                LineRead::TooLarge => out.push("!".to_string()),
                LineRead::Line(line) => out.push(String::from_utf8(line).unwrap()),
            }
        }
    }

    #[test]
    fn line_reader_caps_lines_and_resynchronizes() {
        assert_eq!(lines(b"a\nbc\n"), ["a\n", "bc\n"]);
        // Exactly at the cap (newline included) is allowed.
        assert_eq!(lines(b"1234567\nx\n"), ["1234567\n", "x\n"]);
        // One byte more is not; the next line is read normally.
        assert_eq!(lines(b"12345678\nx\n"), ["!", "x\n"]);
        // An endless line is rejected once, without waiting for a
        // newline, and skipped up to the next one.
        let mut endless = vec![b'z'; 1000];
        endless.extend_from_slice(b"\nok\n");
        assert_eq!(lines(&endless), ["!", "ok\n"]);
        assert_eq!(lines(&endless[..1000]), ["!"]);
        // An unterminated tail before end of stream is still a line.
        assert_eq!(lines(b"a\ntail"), ["a\n", "tail"]);
    }
}
