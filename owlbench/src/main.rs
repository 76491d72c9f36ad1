//! `owl-bench`: the OWL benchmark.
//!
//! ```text
//! owl-bench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Runs one workload for `--seconds` after its set-up, checks every
//! operation's output, and prints two JSON lines: a detail document
//! (every metric with unit and sample count) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}` carrying the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) that `BENCHMARK.json` lists. End-to-end times are
//! scaled to a reference host (see [`pace`]) so that drift in a shared
//! host's speed cancels.
//!
//! A traced run hands the program's own [`MetricsRecorder`] to
//! `run_campaign` and `serve()`, whose workers record a span per
//! pipeline stage and health counters, and records the dense
//! workloads' layer calls and a few single-layer probes into the same
//! recorder. Its spans are written to
//! `.owlbench/trace/<workload>-seed<n>/spans.jsonl`. Scratch files live
//! in `.owlbench/work-<pid>/`, removed on exit; both paths are relative
//! to the working directory. Exits non-zero when a correctness check
//! fails or the metrics differ from those `BENCHMARK.json` lists.

mod campaign;
mod dense;
mod gen;
mod pace;
mod serve;
mod stats;

use owl::json::Json;
use owl::MetricsRecorder;
use pace::Paced;
use stats::{median, quartiles, ratio};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: owl-bench --workload <corpus-campaign|dense-detect|dense-predict|serve-mixed> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// What every workload is given.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window, after set-up.
    pub seconds: Duration,
    /// Scratch directory, removed on exit.
    pub dir: PathBuf,
    /// The recorder of a traced run; `None` when untraced.
    pub rec: Option<std::sync::Arc<MetricsRecorder>>,
}

impl Ctx {
    /// Runs `f` and, when traced, records it as span `name` of
    /// `program`. Spans keep whole microseconds, so the duration is
    /// also added to counter `<name>_ns` for calls shorter than that.
    pub fn span<T>(&self, name: &str, program: &str, f: impl FnOnce() -> T) -> T {
        let Some(rec) = &self.rec else { return f() };
        let t = Instant::now();
        let out = f();
        let took = t.elapsed();
        rec.span(name, program, 0, 1, t, took);
        rec.counter(&format!("{name}_ns"), took.as_nanos() as u64);
        out
    }

    /// Adds `n` to counter `name` when traced.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(rec) = &self.rec {
            rec.counter(name, n);
        }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations run in the measured window.
    pub attempted: u64,
    /// Operations whose output failed a check (or that got no answer).
    pub failed: u64,
    /// False when a whole-run check failed.
    pub incorrect: bool,
    /// Set-up and operation wall times, and the reference timings
    /// taken between them (see [`pace`]).
    pub times: Paced,
    /// Workload-specific numbers for the detail line.
    pub detail: Vec<Metric>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    CorpusCampaign,
    DenseDetect,
    DensePredict,
    ServeMixed,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("corpus-campaign", Workload::CorpusCampaign),
        ("dense-detect", Workload::DenseDetect),
        ("dense-predict", Workload::DensePredict),
        ("serve-mixed", Workload::ServeMixed),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("listed")
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.iter().find(|(n, _)| *n == value);
                workload = Some(w.ok_or(format!("unknown workload `{value}`"))?.1);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The scratch directory; removed when dropped, which also happens
/// while unwinding from a panic.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let dir = Path::new(".owlbench").join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics: set-up time, memory, and the latency of the
/// workload's operation, times scaled to the reference host.
fn end_to_end(out: &Outcome, rss_mb: f64) -> Vec<Metric> {
    let setups = out.times.setups_scaled();
    let ops = out.times.ops_scaled();
    vec![
        Metric::new("setup_s", median(&setups).unwrap_or(0.0), "s", setups.len()),
        Metric::new("peak_rss_mb", rss_mb, "MB", 1),
        Metric::new("op_ms_p50", median(&ops).unwrap_or(0.0), "ms", ops.len()),
    ]
}

/// The wall times behind the end-to-end times, and the reference
/// timings they were scaled by.
fn wall_detail(t: &Paced) -> Vec<Metric> {
    let setups = t.setups_wall();
    let ops = t.ops_wall();
    let (q1, _, q3) = quartiles(&setups).unwrap_or_default();
    vec![
        Metric::new(
            "wall_setup_s",
            median(&setups).unwrap_or(0.0),
            "s",
            setups.len(),
        ),
        Metric::new("wall_setup_s_q1", q1, "s", setups.len()),
        Metric::new("wall_setup_s_q3", q3, "s", setups.len()),
        Metric::new(
            "wall_op_ms_p50",
            median(&ops).unwrap_or(0.0),
            "ms",
            ops.len(),
        ),
        Metric::new(
            "reference_ms_mean",
            t.samples().iter().sum::<f64>() / t.samples().len().max(1) as f64,
            "ms",
            t.samples().len(),
        ),
    ]
}

/// The per-layer metrics of a traced run, from the spans and counters
/// in `rec`. Stage spans are the ones `run_campaign` and `serve()`
/// record per pipeline run (`program`, `elision-solve`, `race-detect`,
/// `static-analysis`, `race-verify`, `vuln-analyze`, `vuln-verify`);
/// the dense workloads record the same names around their own layer
/// calls. A stage's time is given as its share (%) of the `program`
/// spans, counts per `program` span, so that numbers compare across
/// runs of different length. A layer a workload never reaches reads 0.
fn per_layer(rec: &MetricsRecorder) -> Vec<Metric> {
    let spans = rec.spans();
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us as f64 * 1e-6)
            .collect()
    };
    let total = |name: &str| durations(name).iter().sum::<f64>();
    let p50 = |name: &str| median(&durations(name)).unwrap_or(0.0);
    let c = |name: &str| rec.counter_value(name) as f64;
    let mean_us = |name: &str| 1e-3 * ratio(c(&format!("{name}_ns")), durations(name).len() as f64);
    let programs = durations("program");
    let program_s: f64 = programs.iter().sum();
    let pct = |secs: f64| 100.0 * ratio(secs, program_s);
    let per_program = |name: &str| ratio(c(name), programs.len() as f64);
    let stages: f64 = [
        "elision-solve",
        "race-detect",
        "static-analysis",
        "race-verify",
        "vuln-analyze",
        "vuln-verify",
    ]
    .iter()
    .map(|s| total(s))
    .sum();
    let epoch = total("epoch-detect");
    let predict_s = if epoch > 0.0 {
        (total("race-detect") - epoch).max(0.0)
    } else {
        0.0
    };
    let rows: Vec<(&'static str, f64, &'static str)> = vec![
        ("pipeline.program_ms_p50", p50("program") * 1e3, "ms"),
        ("pipeline.layer_coverage", ratio(stages, program_s), "ratio"),
        ("static.elide_pct", pct(total("elision-solve")), "%"),
        ("race.explore_pct", pct(total("race-detect")), "%"),
        ("static.adhoc_pct", pct(total("static-analysis")), "%"),
        ("verify.race_pct", pct(total("race-verify")), "%"),
        ("static.vuln_pct", pct(total("vuln-analyze")), "%"),
        ("verify.vuln_pct", pct(total("vuln-verify")), "%"),
        ("race.predict_pct", pct(predict_s), "%"),
        (
            "vm.null_steps_per_s",
            ratio(c("null_steps"), total("vm-null-run")),
            "1/s",
        ),
        (
            "race.detect_overhead",
            ratio(total("race-detect"), total("vm-null-run")),
            "ratio",
        ),
        (
            "race.events_elided_per_program",
            per_program("events_elided"),
            "count",
        ),
        (
            "race.prefix_steps_saved_per_program",
            per_program("prefix_steps_saved"),
            "count",
        ),
        (
            "race.schedules_deduped_per_program",
            per_program("schedules_deduped"),
            "count",
        ),
        (
            "race.shadow_cells_gced_per_program",
            per_program("shadow_cells_gced"),
            "count",
        ),
        (
            "race.reports_per_program",
            per_program("raw_reports"),
            "count",
        ),
        (
            "race.predict_candidates_per_unit",
            ratio(c("predict_candidates"), c("detect_units")),
            "count",
        ),
        (
            "race.predict_witness_ratio",
            ratio(c("predict_witnessed"), c("predict_candidates")),
            "ratio",
        ),
        (
            "verify.race_attempts_per_call",
            ratio(c("race_verify_attempts"), c("race_verify_calls")),
            "ratio",
        ),
        (
            "verify.race_confirm_ratio",
            ratio(c("race_verify_confirmed"), c("race_verify_calls")),
            "ratio",
        ),
        (
            "verify.vuln_attempts_per_hint",
            ratio(c("vuln_verify_attempts"), c("vuln_hints")),
            "ratio",
        ),
        (
            "verify.vuln_reach_ratio",
            ratio(c("vuln_hints_reached"), c("vuln_hints")),
            "ratio",
        ),
        ("journal.append_us_p50", p50("journal-append") * 1e6, "us"),
        (
            "journal.appends_per_round",
            ratio(c("journal_appends"), c("rounds")),
            "count",
        ),
        (
            "journal.bytes_per_round",
            ratio(c("journal_bytes"), c("rounds")),
            "bytes",
        ),
        (
            "campaign.critical_path_ratio",
            ratio(c("critical_path_us"), c("round_us")),
            "ratio",
        ),
        ("serve.resolve_us_mean", mean_us("serve-resolve"), "us"),
        (
            "serve.fingerprint_us_mean",
            mean_us("serve-fingerprint"),
            "us",
        ),
        ("serve.lookup_us_mean", mean_us("serve-lookup"), "us"),
        ("serve.protocol_us_mean", mean_us("serve-protocol"), "us"),
        (
            "serve.records_per_fsync",
            ratio(c("store_batched_records"), c("store_batches")),
            "ratio",
        ),
        (
            "serve.duplicate_runs_per_lifetime",
            ratio(c("duplicate_runs"), c("lifetimes")),
            "count",
        ),
        (
            "serve.cache_hit_ratio",
            ratio(c("serve_cache_hits"), c("serve_requests")),
            "ratio",
        ),
        (
            "serve.queue_depth_peak",
            rec.gauge_value("serve_queue_depth").peak as f64,
            "count",
        ),
        (
            "serve.gen_lag_ms_max",
            rec.gauge_value("gen_lag_us").peak as f64 * 1e-3,
            "ms",
        ),
    ];
    rows.into_iter()
        .map(|(name, value, unit)| Metric::new(name, value, unit, programs.len()))
        .collect()
}

fn metrics_json(metrics: &[Metric], samples: bool) -> Json {
    Json::obj_owned(metrics.iter().map(|m| {
        let mut fields = vec![
            ("value".to_string(), Json::Float(m.value)),
            ("unit".to_string(), Json::str(m.unit)),
        ];
        if samples {
            fields.push(("samples".to_string(), Json::UInt(m.samples as u64)));
        }
        (m.name.to_string(), Json::obj_owned(fields))
    }))
}

/// `(name, unit)` of every metric in list `list` (`end_to_end` or
/// `per_layer`) of the `BENCHMARK.json` document `doc`.
fn declared(doc: &Json, list: &str) -> Result<Vec<(String, String)>, String> {
    let entries = doc
        .get(list)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no `{list}` list"))?;
    entries
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("a `{list}` entry lacks `{k}`"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Refuses a result whose metrics are not exactly those `BENCHMARK.json`
/// (in the working directory) lists, in order and with their units.
fn check_declared(metrics: &[Metric], list: &str) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json in the working directory: {e}"))?;
    let doc = owl::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let ours: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    let listed = declared(&doc, list)?;
    if ours != listed {
        return Err(format!(
            "the `{list}` metrics differ from BENCHMARK.json:\n  emitted  {ours:?}\n  declared {listed:?}"
        ));
    }
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let work = WorkDir::create()?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        dir: work.0.clone(),
        rec: args
            .trace
            .then(|| std::sync::Arc::new(MetricsRecorder::new())),
    };
    let out = match args.workload {
        Workload::CorpusCampaign => campaign::run(&ctx)?,
        Workload::DenseDetect => dense::run(dense::Mode::Detect, &ctx)?,
        Workload::DensePredict => dense::run(dense::Mode::Predict, &ctx)?,
        Workload::ServeMixed => serve::run(&ctx)?,
    };
    if out.attempted == 0 {
        return Err("no operation completed".to_string());
    }
    let e2e = end_to_end(&out, peak_rss_mb()?);
    let correct = !out.incorrect && out.failed == 0;

    let mut detail = e2e.clone();
    detail.extend(wall_detail(&out.times));
    detail.extend(out.detail.iter().cloned());
    let (result, list) = match &ctx.rec {
        Some(rec) => {
            let path = Path::new(".owlbench").join("trace").join(format!(
                "{}-seed{}",
                args.workload.name(),
                args.seed
            ));
            std::fs::create_dir_all(&path)
                .and_then(|()| std::fs::write(path.join("spans.jsonl"), rec.spans_jsonl()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("spans written to {}", path.join("spans.jsonl").display());
            let layers = per_layer(rec);
            detail.extend(layers.iter().cloned());
            (layers, "per_layer")
        }
        None => (e2e, "end_to_end"),
    };
    check_declared(&result, list)?;
    let doc = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("ops_attempted", Json::UInt(out.attempted)),
        ("ops_failed", Json::UInt(out.failed)),
        (
            "available_parallelism",
            Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("metrics", metrics_json(&detail, true)),
    ]);
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(out.attempted)),
        ("failed", Json::UInt(out.failed)),
        ("metrics", metrics_json(&result, false)),
    ]);
    let mut stdout = std::io::stdout().lock();
    writeln!(
        stdout,
        "{}\n{}",
        doc.to_json_string(),
        line.to_json_string()
    )
    .and_then(|()| stdout.flush())
    .map_err(|e| format!("stdout: {e}"))?;
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("owl-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("owl-bench: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("owl-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        owl::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let doc = benchmark_json();
        let e2e = end_to_end(&Outcome::default(), 1.0);
        assert_eq!(emitted(&e2e), declared(&doc, "end_to_end").expect("listed"));
        let layers = per_layer(&MetricsRecorder::new());
        assert_eq!(
            emitted(&layers),
            declared(&doc, "per_layer").expect("listed")
        );
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn per_layer_shares_come_from_stage_spans() {
        let rec = MetricsRecorder::new();
        let t = Instant::now();
        let ms = Duration::from_millis;
        for _ in 0..2 {
            rec.span("program", "p", 0, 1, t, ms(10));
            rec.span("race-detect", "p", 0, 1, t, ms(6));
            rec.span("race-verify", "p", 0, 1, t, ms(3));
        }
        rec.counter("events_elided", 8);
        let layers = per_layer(&rec);
        let get = |n: &str| layers.iter().find(|m| m.name == n).expect(n).value;
        assert!((get("race.explore_pct") - 60.0).abs() < 1e-9);
        assert!((get("verify.race_pct") - 30.0).abs() < 1e-9);
        assert!((get("pipeline.layer_coverage") - 0.9).abs() < 1e-9);
        assert!((get("pipeline.program_ms_p50") - 10.0).abs() < 1e-9);
        assert_eq!(get("race.events_elided_per_program"), 4.0);
        assert_eq!(
            get("race.predict_pct"),
            0.0,
            "no epoch sweep, no prediction share"
        );
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload dense-detect --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::DenseDetect, 7, 2.5, true)
        );
        assert!(parse("--seed 1").is_err(), "workload is required");
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload dense-detect --trace 2").is_err());
        assert!(parse("--workload dense-detect --seconds 0").is_err());
        assert!(parse("--workload dense-detect --seed").is_err());
        assert!(parse("--workload dense-detect --bogus 1").is_err());
    }
}
