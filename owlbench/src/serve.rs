//! `serve-mixed`: open-loop traffic against in-process `serve()`
//! lifetimes, each starting from an empty result store.
//!
//! The load generator is this process's main thread, which sends every
//! submit at its due time on one connection whether or not earlier
//! ones were answered, plus one thread reading the responses. A
//! request's latency runs from its due time to its final response, so
//! a stall in the generator or the daemon charges every request behind
//! it.

use crate::campaign::count_summary;
use crate::gen::{derive_seed, SplitMix64};
use crate::stats::{median, tail_percentile};
use crate::{Ctx, Metric, Outcome};
use owl::serve::{
    encode_request, encode_response, parse_request, parse_response, resolve_program, serve,
    Request, Response, ResultStore, ServeConfig, ServeReport,
};
use owl::{JournalError, MetricsRecorder, OwlConfig, ProgramSummary};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Mean submits per second (Poisson arrivals).
const RATE_PER_S: f64 = 20.0;
/// Submits per daemon lifetime.
const REQUESTS: usize = 60;
/// The daemon's admission window, wide enough for a whole lifetime's
/// traffic, so that overload shows as queueing delay rather than as
/// refused requests (at 16, bursts of duplicate misses filled the
/// window on some seeds); every other setting is the default.
const QUEUE_CAPACITY: usize = REQUESTS;
/// Every program name the daemon resolves.
const PROGRAMS: [&str; 10] = [
    "Apache",
    "Chrome",
    "Libsafe",
    "Linux",
    "Memcached",
    "MySQL",
    "SSDB",
    "bank",
    "heaprelay",
    "cacherelay",
];
/// Fixes the fingerprints' popularity order.
const POPULARITY_SEED: u64 = 0x9090;
/// Daemon starts before the measured window, so the set-up median rests
/// on more than the few lifetimes a run holds.
const SETUP_PROBES: usize = 10;
/// A lifetime that has not answered everything by then has hung.
const LIFETIME_LIMIT: Duration = Duration::from_secs(60);

/// One planned submit: a program under the quick or default config,
/// due `due` after the lifetime's traffic starts.
#[derive(Clone, Copy, Debug)]
struct Planned {
    due: Duration,
    program: &'static str,
    quick: bool,
}

impl Planned {
    fn request(&self) -> Request {
        Request::Submit {
            program: self.program.to_string(),
            quick: self.quick,
            deadline_ms: None,
            sleep_ms: 0,
            inject_panic: false,
        }
    }

    fn key(&self) -> (&'static str, bool) {
        (self.program, self.quick)
    }

    fn owl(&self) -> OwlConfig {
        if self.quick {
            OwlConfig::quick()
        } else {
            OwlConfig::default()
        }
    }
}

/// Shuffles `v` in place (Fisher–Yates).
fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range(0, i as u64) as usize);
    }
}

/// Submits per popularity rank in one lifetime: the Zipf(1) expected
/// counts of `total` submits over `keys` ranks, rounded by largest
/// remainder so that they sum to `total`.
fn zipf_counts(keys: usize, total: usize) -> Vec<usize> {
    let h: f64 = (1..=keys).map(|r| 1.0 / r as f64).sum();
    let exact: Vec<f64> = (1..=keys).map(|r| total as f64 / (h * r as f64)).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..keys).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        counts[k] += 1;
    }
    counts
}

/// The traffic of one lifetime: [`REQUESTS`] Poisson arrivals at
/// [`RATE_PER_S`] over the 20 (program, config) fingerprints with
/// Zipf(1) popularity. Every lifetime asks for each fingerprint its
/// expected number of times (17 for the most popular, then 8, 6, 4, 3,
/// 3, 2, 2, 2, 2, 2 and 1 for the last nine), so every fingerprint runs
/// at least once and at most 40 of the 60 submits are cache hits; the
/// seed draws the order of the submits and their arrival times. The
/// popularity order is part of the workload, not of its input: a fixed
/// shuffle, the same in every run, so that runs differ only in what the
/// seed draws. A repeat that arrives while its fingerprint's first run
/// is still executing runs the pipeline again: the daemon does not
/// coalesce in-flight duplicates.
fn plan(seed: u64, lifetime: u64) -> Vec<Planned> {
    let mut keys: Vec<(&'static str, bool)> = PROGRAMS
        .iter()
        .flat_map(|&p| [(p, true), (p, false)])
        .collect();
    shuffle(&mut SplitMix64::new(POPULARITY_SEED), &mut keys);
    let mut picks: Vec<usize> = zipf_counts(keys.len(), REQUESTS)
        .into_iter()
        .enumerate()
        .flat_map(|(k, n)| std::iter::repeat_n(k, n))
        .collect();
    let mut rng = SplitMix64::new(derive_seed(seed, 0x5e7e_0000 + lifetime));
    shuffle(&mut rng, &mut picks);
    let mut t = 0.0;
    picks
        .into_iter()
        .map(|k| {
            t += -(1.0 - rng.unit()).ln() / RATE_PER_S;
            Planned {
                due: Duration::from_secs_f64(t),
                program: keys[k].0,
                quick: keys[k].1,
            }
        })
        .collect()
}

/// How one request ended.
#[derive(Clone, Debug)]
struct Answer {
    at: Instant,
    /// `Some` for a result; `None` for a rejection, failure or error.
    summary: Option<ProgramSummary>,
    cached: bool,
}

/// What one daemon lifetime produced.
struct Lifetime {
    startup: f64,
    answers: Vec<Option<Answer>>,
    due: Vec<Instant>,
    lag_max: f64,
    report: ServeReport,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

type Daemon = std::thread::JoinHandle<Result<ServeReport, JournalError>>;

/// The set-up every lifetime pays: start a daemon over an empty store in
/// `dir` and connect to it. Returns the daemon thread, the connection,
/// and the seconds until the daemon accepted it.
fn start(
    dir: &Path,
    metrics: Option<Arc<MetricsRecorder>>,
) -> Result<(Daemon, UnixStream, f64), String> {
    let mut cfg = ServeConfig::new(dir);
    cfg.queue_capacity = QUEUE_CAPACITY;
    cfg.metrics = metrics;
    let socket = cfg.socket.clone();
    let t0 = Instant::now();
    let server = std::thread::spawn(move || serve(cfg));
    loop {
        match UnixStream::connect(&socket) {
            Ok(s) => return Ok((server, s, t0.elapsed().as_secs_f64())),
            Err(_) if t0.elapsed() < Duration::from_secs(10) && !server.is_finished() => {
                std::thread::yield_now();
            }
            Err(e) => return Err(format!("connect {}: {e}", socket.display())),
        }
    }
}

fn send(stream: &mut UnixStream, req: &Request) -> Result<(), String> {
    let mut line = encode_request(req);
    line.push('\n');
    stream.write_all(line.as_bytes()).map_err(io_err("send"))
}

/// Waits for the daemon to exit after its drain and returns its report.
fn join(server: Daemon) -> Result<ServeReport, String> {
    server
        .join()
        .map_err(|_| "serve() panicked".to_string())?
        .map_err(|e| format!("serve(): {e}"))
}

/// Starts a daemon and shuts it down at once: one more set-up sample.
fn probe_setup(dir: &Path) -> Result<f64, String> {
    let (server, mut stream, secs) = start(dir, None)?;
    send(&mut stream, &Request::Shutdown)?;
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(io_err("read bye"))?;
    match parse_response(line.trim_end()) {
        Ok(Response::Bye) => {}
        other => return Err(format!("expected bye, got {other:?}")),
    }
    drop(stream);
    join(server)?;
    Ok(secs)
}

/// Runs one daemon lifetime under `traffic` and collects every answer.
fn run_lifetime(ctx: &Ctx, dir: &Path, traffic: &[Planned]) -> Result<Lifetime, String> {
    let (server, stream, startup) = start(dir, ctx.rec.clone())?;

    let (tx, rx) = mpsc::channel();
    let mut reader = BufReader::new(stream.try_clone().map_err(io_err("clone socket"))?);
    let reader_thread = std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {
                    if tx
                        .send((Instant::now(), parse_response(line.trim_end())))
                        .is_err()
                    {
                        return;
                    }
                }
            }
        }
    });

    let mut writer = stream;
    let start = Instant::now();
    let due: Vec<Instant> = traffic.iter().map(|p| start + p.due).collect();
    let mut lag_max = 0.0f64;
    for (p, &at) in traffic.iter().zip(&due) {
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        lag_max = lag_max.max(Instant::now().saturating_duration_since(at).as_secs_f64());
        send(&mut writer, &p.request())?;
    }

    // Submit lines are answered in order (a result from the store, an
    // acceptance, or a refusal); an accepted one is finished later by
    // the result or failure carrying its id.
    let limit = start + LIFETIME_LIMIT;
    let mut answers: Vec<Option<Answer>> = vec![None; traffic.len()];
    let mut next = 0;
    let mut accepted: HashMap<u64, usize> = HashMap::new();
    let mut pending = traffic.len();
    let recv = |rx: &mpsc::Receiver<_>| {
        rx.recv_timeout(limit.saturating_duration_since(Instant::now()))
            .map_err(|_| "the daemon stopped answering".to_string())
    };
    while pending > 0 {
        let (at, resp) = recv(&rx)?;
        let failed = Answer {
            at,
            summary: None,
            cached: false,
        };
        let slot = match resp {
            Ok(Response::Accepted { id }) => {
                accepted.insert(id, next);
                next += 1;
                continue;
            }
            Ok(Response::Result {
                cached: true,
                summary,
                ..
            }) => {
                next += 1;
                (
                    next - 1,
                    Answer {
                        at,
                        summary: Some(summary),
                        cached: true,
                    },
                )
            }
            Ok(Response::Result { id, summary, .. }) => {
                let i = accepted
                    .remove(&id)
                    .ok_or(format!("result for unknown id {id}"))?;
                (
                    i,
                    Answer {
                        at,
                        summary: Some(summary),
                        cached: false,
                    },
                )
            }
            Ok(Response::Failed { id, kind, message }) => {
                eprintln!("request {id} failed ({}): {message}", kind.as_str());
                (
                    accepted
                        .remove(&id)
                        .ok_or(format!("failure for unknown id {id}"))?,
                    failed,
                )
            }
            Ok(other @ (Response::Rejected { .. } | Response::Error { .. })) => {
                eprintln!("request {next} refused: {other:?}");
                next += 1;
                (next - 1, failed)
            }
            Ok(other) => return Err(format!("unexpected response {other:?}")),
            Err(e) => return Err(format!("unparseable response: {e}")),
        };
        if slot.0 >= answers.len() {
            return Err("more answers than submits".to_string());
        }
        answers[slot.0] = Some(slot.1);
        pending -= 1;
    }

    send(&mut writer, &Request::Shutdown)?;
    match recv(&rx)? {
        (_, Ok(Response::Bye)) => {}
        (_, other) => return Err(format!("expected bye, got {other:?}")),
    }
    drop(writer);
    let _ = reader_thread.join();
    let report = join(server)?;
    Ok(Lifetime {
        startup,
        answers,
        due,
        lag_max,
        report,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.times.pace(Duration::ZERO);
    let t_probes = Instant::now();
    for k in 0..SETUP_PROBES {
        let t = Instant::now();
        out.times
            .setup(probe_setup(&ctx.dir.join(format!("probe-{k}")))?, t);
    }
    out.times.pace(t_probes.elapsed());
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    let mut lag_max = 0.0f64;

    let end = Instant::now() + ctx.seconds;
    let mut life = 0u64;
    while Instant::now() < end {
        let dir = ctx.dir.join(format!("serve-{life}"));
        let t_life = Instant::now();
        let traffic = plan(ctx.seed, life);
        let setup_plan = t_life.elapsed().as_secs_f64();
        let lt = run_lifetime(ctx, &dir, &traffic)?;
        out.times.setup(setup_plan + lt.startup, t_life);
        lag_max = lag_max.max(lt.lag_max);

        // Every answer for one fingerprint must carry the same summary
        // as the first executed one.
        let mut reference: HashMap<(&str, bool), ProgramSummary> = HashMap::new();
        let mut executed = Vec::new();
        for (p, a) in traffic.iter().zip(&lt.answers) {
            if let Some(Answer {
                summary: Some(s),
                cached: false,
                ..
            }) = a
            {
                reference.entry(p.key()).or_insert_with(|| s.clone());
                executed.push(s);
            }
        }
        for ((p, a), due) in traffic.iter().zip(&lt.answers).zip(&lt.due) {
            out.attempted += 1;
            let Some(a) = a else {
                out.failed += 1;
                continue;
            };
            let ms = a.at.saturating_duration_since(*due).as_secs_f64() * 1e3;
            out.times.op(ms, t_life);
            match &a.summary {
                Some(s) if reference.get(&p.key()) == Some(s) => {
                    if a.cached {
                        hit_ms.push(ms);
                    } else {
                        miss_ms.push(ms);
                    }
                }
                Some(_) => {
                    eprintln!(
                        "lifetime {life}: {}{} answered with a different summary",
                        p.program,
                        if p.quick { " --quick" } else { "" }
                    );
                    out.failed += 1;
                }
                None => out.failed += 1,
            }
        }

        if let Some(rec) = &ctx.rec {
            let r = &lt.report;
            ctx.count("lifetimes", 1);
            ctx.count("serve_requests", traffic.len() as u64);
            ctx.count("duplicate_runs", r.executed.saturating_sub(r.stored));
            ctx.count("store_batches", r.store_stats.batches);
            ctx.count("store_batched_records", r.store_stats.batched_records);
            ctx.count("race_verify_attempts", r.health.race_verify.attempts);
            ctx.count("vuln_verify_attempts", r.health.vuln_verify.attempts);
            for s in executed {
                count_summary(ctx, s);
            }
            rec.gauge("gen_lag_us", (lt.lag_max * 1e6) as u64);
            probe_hit_path(ctx, &dir, &traffic)?;
        }
        out.times.pace(t_life.elapsed());
        std::fs::remove_dir_all(&dir).map_err(io_err("remove lifetime dir"))?;
        life += 1;
    }

    let hits = hit_ms.len();
    out.detail.push(Metric::new(
        "serve_hit_ms_p50",
        median(&hit_ms).unwrap_or(0.0),
        "ms",
        hits,
    ));
    if let Some(v) = tail_percentile(&hit_ms, 95.0) {
        out.detail
            .push(Metric::new("serve_hit_ms_p95", v, "ms", hits));
    }
    if let Some(v) = tail_percentile(&miss_ms, 90.0) {
        out.detail
            .push(Metric::new("serve_miss_ms_p90", v, "ms", miss_ms.len()));
    }
    out.detail.push(Metric::new(
        "serve_gen_lag_ms_max",
        lag_max * 1e3,
        "ms",
        out.attempted as usize,
    ));
    Ok(out)
}

/// Times the layers of the daemon's cache-hit path, which its own spans
/// do not split out, once per submit of the lifetime and against the
/// store the lifetime left behind: request parse plus response encode,
/// program resolution, fingerprint, and store lookup.
fn probe_hit_path(ctx: &Ctx, dir: &Path, traffic: &[Planned]) -> Result<(), String> {
    let store = ResultStore::open(dir.join("store.jsonl")).map_err(|e| e.to_string())?;
    for p in traffic {
        let line = encode_request(&p.request());
        ctx.span("serve-protocol", p.program, || parse_request(&line))?;
        let program = ctx
            .span("serve-resolve", p.program, || resolve_program(p.program))
            .ok_or(format!("unknown program {}", p.program))?;
        let owl = p.owl();
        let fingerprint = ctx.span("serve-fingerprint", p.program, || {
            ResultStore::fingerprint(&owl, program.name)
        });
        // A fingerprint whose every request failed was never stored.
        let Some((name, summary)) =
            ctx.span("serve-lookup", p.program, || store.lookup(&fingerprint))
        else {
            continue;
        };
        let resp = Response::Result {
            id: 0,
            program: name,
            cached: true,
            summary,
        };
        ctx.span("serve-protocol", p.program, || encode_response(&resp));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_round_to_the_total() {
        let c = zipf_counts(20, REQUESTS);
        assert_eq!(
            c,
            [17, 8, 6, 4, 3, 3, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]
        );
        assert_eq!(c.iter().sum::<usize>(), REQUESTS);
    }

    #[test]
    fn the_seed_draws_order_and_arrivals_not_the_mix() {
        let a = plan(1, 0);
        let b = plan(2, 0);
        let count = |p: &[Planned]| {
            let mut n: HashMap<(&str, bool), usize> = HashMap::new();
            for q in p {
                *n.entry(q.key()).or_default() += 1;
            }
            let mut v: Vec<_> = n.into_iter().collect();
            v.sort();
            v
        };
        assert_eq!(count(&a), count(&b));
        assert_eq!(count(&a).len(), 20);
        assert!(a.iter().zip(&b).any(|(x, y)| x.key() != y.key()));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert_eq!(
            plan(1, 0).iter().map(|p| p.due).collect::<Vec<_>>(),
            a.iter().map(|p| p.due).collect::<Vec<_>>()
        );
    }
}
