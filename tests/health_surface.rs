//! The health counters on every surface, checked against the registry.
//!
//! Every surface — the run journal's `encode_health`, `owl-cli run
//! --json`, `owl-cli campaign --json` and its `BENCH_campaign.json`
//! metrics, and the daemon's `status` — prints its counters by looping
//! over `Counter::ALL`, so no surface can miss a counter by
//! construction and this suite names none. It checks that each surface
//! really goes through the registry, with real values:
//!
//! * `encode_health` carries every counter with its value, in table
//!   order after the four stages;
//! * the real CLI's `run --json` and `campaign --json` carry every
//!   counter, and a `syncrev` campaign's journaled health equals the
//!   same run's `--metrics` counters;
//! * `StatusReport` survives the protocol's encode/parse round trip
//!   with every field set, and a live daemon's `status` — over the
//!   protocol and through `owl-cli status` — carries every counter with
//!   the value a library run of the same request produces;
//! * `Counters` round-trips through JSON text, and decodes objects with
//!   missing, unknown, or mistyped values without panicking.

#![cfg(unix)]

use owl::journal::encode_health;
use owl::json::{self, Json};
use owl::serve::{
    encode_request, encode_response, parse_response, serve, Request, Response, ServeConfig,
    StatusReport,
};
use owl::{Counter, Counters, OwlConfig, PipelineHealth};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Every counter set to a distinct value.
fn distinct_counters() -> Counters {
    let mut c = Counters::default();
    for (i, counter) in Counter::ALL.into_iter().enumerate() {
        c[counter] = 500 + i as u64;
    }
    c
}

/// A JSON object's value at `key` as an integer, failing the test when
/// it is missing or not one.
fn uint(obj: &Json, key: &str, surface: &str) -> u64 {
    obj.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{surface} dropped `{key}`:\n{}", obj.to_json_string()))
}

#[test]
fn encode_health_carries_every_counter() {
    let h = PipelineHealth {
        counters: distinct_counters(),
        ..PipelineHealth::default()
    };
    let Json::Obj(pairs) = encode_health(&h) else {
        panic!("health encodes as an object");
    };
    // The four stages, then the counters in table order.
    let keys: Vec<&str> = pairs[4..].iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, Counter::ALL.map(Counter::name));
    for ((_, v), c) in pairs[4..].iter().zip(Counter::ALL) {
        assert_eq!(v.as_u64(), Some(h.counters[c]), "{}", c.name());
    }
    assert_eq!(Counters::from_json(&encode_health(&h)), h.counters);
}

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

fn parse_json(text: &str) -> Json {
    json::parse(text.trim()).unwrap_or_else(|e| panic!("not JSON ({e}):\n{text}"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("owl-health-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn run_json_carries_every_health_counter() {
    let out = parse_json(&run_ok(&[
        "run",
        "SSDB",
        "--quick",
        "--json",
        "--hb-backend",
        "syncp",
    ]));
    let health = out.get("health").expect("run --json has health");
    for c in Counter::ALL {
        uint(health, c.name(), "run --json");
    }
}

/// `campaign --json` rebuilds its health from the journal; the metrics
/// recorder sums the live runs. On a fresh campaign they must agree on
/// every counter — including the detection counters, which only the
/// `ProgramFinished` records carry.
#[test]
fn campaign_json_and_metrics_carry_every_health_counter() {
    let dir = scratch_dir("campaign");
    let metrics = scratch_dir("campaign-metrics");
    let out = parse_json(&run_ok(&[
        "campaign",
        dir.to_str().unwrap(),
        "--quick",
        "--json",
        "--hb-backend",
        "syncrev",
        "--metrics",
        metrics.to_str().unwrap(),
    ]));
    let health = out.get("health").expect("campaign --json has health");
    let bench = std::fs::read_to_string(metrics.join("BENCH_campaign.json"))
        .expect("campaign metrics artifact");
    let bench = parse_json(&bench);
    let recorded = bench.get("counters").expect("BENCH_campaign.json counters");
    for c in Counter::ALL {
        assert_eq!(
            uint(health, c.name(), "campaign --json"),
            uint(recorded, c.metric_name(), "BENCH_campaign.json"),
            "`{}`: journaled health and metrics disagree",
            c.name()
        );
    }
    assert!(
        Counter::ALL
            .iter()
            .any(|c| uint(health, c.name(), "campaign --json") > 0),
        "every counter reads 0 — the comparison is inert"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&metrics);
}

/// Every `StatusReport` field — constructed exhaustively, so a new
/// field breaks this test until the wire format handles it — must
/// survive the daemon protocol's encode/parse round-trip.
#[test]
fn status_report_round_trips_every_field() {
    let report = StatusReport {
        queue_depth: 1,
        active: 2,
        inflight_bytes: 3,
        draining: true,
        executed: 4,
        cache_hits: 5,
        shed_queue_full: 6,
        shed_too_large: 7,
        shed_draining: 8,
        stored: 9,
        recovery_discarded_bytes: 10,
        recovery_discarded_records: 11,
        elision_solve_us: 12,
        counters: distinct_counters(),
    };
    let line = encode_response(&Response::Status(Box::new(report.clone())));
    match parse_response(&line).expect("parseable status") {
        Response::Status(parsed) => assert_eq!(*parsed, report),
        other => panic!("expected status, got {other:?}"),
    }
}

/// A live daemon configured with a predictive backend must surface
/// every counter through `status` — over the protocol and through
/// `owl-cli status` — matching a direct library run of the same program
/// under the same configuration.
#[test]
fn serve_status_carries_predict_counters_end_to_end() {
    let mut quick = OwlConfig::quick();
    quick.detect.hb_backend = owl::owl_race::HbBackend::SyncPreserving;

    // Ground truth: the same program through the library pipeline. The
    // predictive backend must show in the counters, or a daemon that
    // ignored its configuration would pass unnoticed.
    let p = owl::owl_corpus::program("SSDB").expect("corpus program");
    let health = |cfg: OwlConfig| {
        owl::Owl::new(&p.module, p.entry, cfg)
            .run(p.name, &p.workloads, &p.exploit_inputs)
            .health
    };
    let expected = health(quick.clone());
    assert_ne!(
        expected.counters,
        health(OwlConfig::quick()).counters,
        "syncp and epoch count alike on SSDB — the end-to-end check is inert"
    );

    let dir = scratch_dir("serve");
    let mut cfg = ServeConfig::new(&dir);
    cfg.owl = quick;
    let socket = cfg.socket.clone();
    let handle = std::thread::spawn(move || serve(cfg));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    let request = |req: &Request| -> Response {
        let stream = UnixStream::connect(&socket).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        let mut line = encode_request(req);
        line.push('\n');
        stream.write_all(line.as_bytes()).expect("write");
        loop {
            let mut resp = String::new();
            assert!(
                reader.read_line(&mut resp).expect("read") > 0,
                "daemon died"
            );
            match parse_response(&resp).expect("parseable") {
                Response::Accepted { .. } => continue,
                terminal => return terminal,
            }
        }
    };

    // quick=false routes the submit through `cfg.owl` — the predictive
    // quick config installed above.
    match request(&Request::Submit {
        program: "SSDB".to_string(),
        quick: false,
        deadline_ms: None,
        sleep_ms: 0,
        inject_panic: false,
    }) {
        Response::Result { .. } => {}
        other => panic!("expected a result, got {other:?}"),
    }
    let status = match request(&Request::Status) {
        Response::Status(s) => s,
        other => panic!("expected status, got {other:?}"),
    };
    assert_eq!(status.counters, expected.counters);

    let printed = parse_json(&run_ok(&["status", socket.to_str().unwrap()]));
    for c in Counter::ALL {
        assert_eq!(
            uint(&printed, c.name(), "owl-cli status"),
            status.counters[c],
            "owl-cli status disagrees on `{}`",
            c.name()
        );
    }

    match request(&Request::Shutdown) {
        Response::Bye => {}
        other => panic!("expected bye, got {other:?}"),
    }
    handle.join().expect("daemon thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One hostile value shape for a counter key.
fn hostile_value(kind: u8, n: u64) -> Json {
    match kind {
        0 => Json::UInt(n),
        1 => Json::Int(-((n >> 2) as i64) - 1),
        2 => Json::Float(n as f64 / 3.0),
        3 => Json::str(n.to_string()),
        4 => Json::Arr(vec![Json::UInt(n), Json::obj([("n", Json::UInt(n))])]),
        _ => Json::Bool(n & 1 == 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → canonical text → parse → decode is the identity.
    #[test]
    fn counters_round_trip_through_json_text(
        values in prop::collection::vec(any::<u64>(), Counter::ALL.len())
    ) {
        let mut c = Counters::default();
        for (counter, v) in Counter::ALL.into_iter().zip(values) {
            c[counter] = v;
        }
        let text = c.to_json().to_json_string();
        let parsed = json::parse(&text).expect("canonical JSON parses");
        prop_assert_eq!(Counters::from_json(&parsed), c);
    }

    /// Objects with missing, unknown, duplicated, negative, float,
    /// string, nested, or boolean values decode without panicking:
    /// each counter reads its first value when that is a non-negative
    /// integer, and 0 otherwise.
    #[test]
    fn hostile_counter_objects_decode_as_first_integer_or_zero(
        entries in prop::collection::vec(
            (0..Counter::ALL.len() + 3, 0u8..6, any::<u64>()),
            0..48,
        )
    ) {
        let pairs: Vec<(String, Json)> = entries
            .iter()
            .map(|&(key, kind, n)| {
                let name = match Counter::ALL.get(key) {
                    Some(c) => c.name().to_string(),
                    None => format!("unknown_{key}"),
                };
                (name, hostile_value(kind, n))
            })
            .collect();
        let text = Json::Obj(pairs.clone()).to_json_string();
        let decoded = Counters::from_json(&json::parse(&text).expect("parses"));
        for c in Counter::ALL {
            let want = match pairs.iter().find(|(k, _)| k == c.name()) {
                Some((_, Json::UInt(n))) => *n,
                _ => 0,
            };
            prop_assert_eq!(decoded[c], want, "{}", c.name());
        }
    }
}
