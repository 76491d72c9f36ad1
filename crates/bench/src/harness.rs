//! Dependency-free fallback bench harness.
//!
//! `owl-bench`'s targets are written against the `criterion` API, but
//! criterion comes from crates.io — unreachable in a hermetic build.
//! The crate therefore gates criterion behind the default-off
//! `criterion` feature, and when it is off the bench targets compile
//! against this module instead: the same surface (`Criterion`,
//! `Bencher`, `BatchSize`, benchmark groups, the `criterion_group!` /
//! `criterion_main!` macros) backed by a plain `Instant` timing loop.
//!
//! Unlike a compile-only stub, this harness *measures*: every
//! benchmark's per-iteration wall times are recorded, and the
//! `criterion_main!`-generated entry point writes a machine-readable
//! `BENCH_<target>.json` summary (into `$OWL_BENCH_OUT`, or the
//! current directory) — the artifact shape CI uploads. Statistical
//! rigor is deliberately out of scope; this is a perf smoke with
//! numbers, not a statistics engine.

use owl::json::Json;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Iterations measured per benchmark (after one untimed warmup).
/// Small on purpose: the suite includes full pipeline runs.
const ITERATIONS: u64 = 3;

/// One benchmark's measurements.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name (group-qualified, e.g. `pipeline/full_pipeline_ssdb`).
    pub name: String,
    /// Timed iterations.
    pub iters: u64,
    /// Total wall time across the timed iterations.
    pub total: Duration,
    /// Fastest iteration.
    pub min: Duration,
    /// Slowest iteration.
    pub max: Duration,
}

static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());
static METRICS: Mutex<Vec<(String, Json)>> = Mutex::new(Vec::new());

/// Records a free-form named metric (throughput, hit rate, speedup…)
/// to embed in the `BENCH_<target>.json` summary under `"metrics"`.
/// Bench targets can call this under either harness — this module is
/// compiled regardless of the `criterion` feature.
pub fn metric(name: &str, value: Json) {
    eprintln!("bench metric {name}: {}", value.to_json_string());
    METRICS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push((name.to_string(), value));
}

/// Prevents the optimizer from discarding `v`.
pub fn black_box<T>(v: T) -> T {
    std::hint::black_box(v)
}

/// Batch sizing hint (accepted for API compatibility; batches are
/// always set up per iteration here).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration setup.
    SmallInput,
    /// Large per-iteration setup.
    LargeInput,
    /// One setup per batch.
    PerIteration,
}

/// Timer handle passed to bench closures. Collects one sample per
/// timed iteration; setup in `iter_batched` is excluded from timing.
#[derive(Default)]
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `f` over a fixed iteration count after one warmup.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f()); // warmup, untimed
        for _ in 0..ITERATIONS {
            let t0 = Instant::now();
            black_box(f());
            self.samples.push(t0.elapsed());
        }
    }

    /// Times `routine` over values produced by `setup`; setup runs
    /// outside the timed window.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup())); // warmup, untimed
        for _ in 0..ITERATIONS {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.samples.push(t0.elapsed());
        }
    }
}

fn record(name: &str, samples: Vec<Duration>) {
    if samples.is_empty() {
        return;
    }
    let total: Duration = samples.iter().sum();
    let min = *samples.iter().min().expect("non-empty");
    let max = *samples.iter().max().expect("non-empty");
    let result = BenchResult {
        name: name.to_string(),
        iters: samples.len() as u64,
        total,
        min,
        max,
    };
    eprintln!(
        "bench {name}: {:?}/iter (min {:?}, max {:?}, {} iters, fallback harness)",
        total / result.iters as u32,
        min,
        max,
        result.iters
    );
    RESULTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(result);
}

/// Benchmark driver.
#[derive(Default)]
pub struct Criterion;

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b);
        record(name, b.samples);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            _c: self,
        }
    }
}

/// Named benchmark group: results are recorded as `group/name`.
pub struct BenchmarkGroup<'c> {
    name: String,
    _c: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sample-count hint (accepted for API compatibility; the
    /// iteration count is fixed).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one named benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b);
        record(&format!("{}/{name}", self.name), b.samples);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

fn dur_us(d: Duration) -> Json {
    Json::UInt(d.as_micros().min(u64::MAX as u128) as u64)
}

/// The accumulated results as the `BENCH_*.json` document.
pub fn results_json(target: &str) -> Json {
    let results = RESULTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let metrics = METRICS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Json::obj([
        ("bench", Json::str(target)),
        ("harness", Json::str("fallback")),
        ("metrics", Json::obj_owned(metrics.iter().cloned())),
        (
            "benches",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(r.name.clone())),
                            ("iters", Json::UInt(r.iters)),
                            ("mean_us", dur_us(r.total / r.iters.max(1) as u32)),
                            ("min_us", dur_us(r.min)),
                            ("max_us", dur_us(r.max)),
                            ("total_us", dur_us(r.total)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Writes `BENCH_<target>.json` into `$OWL_BENCH_OUT` (or the current
/// directory) and prints where it went. Called by the fallback
/// `criterion_main!` after every group has run.
pub fn finish(target: &str) {
    let dir = std::env::var_os("OWL_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create bench output dir {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("BENCH_{target}.json"));
    let mut doc = results_json(target).to_json_string();
    doc.push('\n');
    match std::fs::write(&path, doc) {
        Ok(()) => eprintln!("bench summary: wrote {}", path.display()),
        Err(e) => eprintln!("cannot write bench summary {}: {e}", path.display()),
    }
}

/// Declares a benchmark group (fallback form of criterion's macro;
/// the `config = ...` form accepts and ignores the configured driver).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($t:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::harness::Criterion::default();
            let _ = $cfg;
            $( $t(&mut c); )+
        }
    };
    ($name:ident, $($t:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $t(&mut c); )+
        }
    };
}

/// Declares the bench entry point: runs every group, then writes the
/// `BENCH_<target>.json` summary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::harness::finish(env!("CARGO_CRATE_NAME"));
        }
    };
}

// Make the macros importable alongside the types:
// `use owl_bench::harness::{criterion_group, criterion_main, ...}`.
pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_samples_and_results_serialize() {
        let mut c = Criterion;
        c.bench_function("harness/self_test_iter", |b| b.iter(|| 2 + 2));
        c.bench_function("harness/self_test_batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        let mut group = c.benchmark_group("grp");
        group
            .sample_size(10)
            .bench_function("inner", |b| b.iter(|| 1));
        group.finish();
        metric("self_test_events_per_sec", Json::UInt(42));

        let doc = results_json("selftest");
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("self_test_events_per_sec"))
                .and_then(|j| j.as_u64()),
            Some(42)
        );
        assert_eq!(
            doc.get("harness").and_then(|j| j.as_str()),
            Some("fallback")
        );
        let benches = doc.get("benches").and_then(|j| j.as_arr()).expect("array");
        let names: Vec<&str> = benches
            .iter()
            .filter_map(|b| b.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"harness/self_test_iter"), "{names:?}");
        assert!(names.contains(&"grp/inner"), "group-qualified name");
        for b in benches {
            assert_eq!(b.get("iters").and_then(|j| j.as_u64()), Some(ITERATIONS));
        }
        // Round-trips through the strict parser.
        owl::json::parse(&doc.to_json_string()).expect("valid JSON");
    }
}
