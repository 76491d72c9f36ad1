//! Campaign observability: per-stage wall-time histograms, counters,
//! and span records.
//!
//! The deterministic campaign summary deliberately contains no
//! wall-clock data (it must be byte-identical across resumes and
//! worker counts), so performance visibility lives here instead: a
//! [`MetricsRecorder`] is shared by every campaign worker and collects
//!
//! * **spans** — one [`SpanRecord`] per completed unit of work
//!   (per-program pipeline stages, whole program attempts, queue
//!   waits), emitted as JSONL via [`MetricsRecorder::spans_jsonl`];
//! * **histograms** — log₂-bucketed wall-time distributions per stage
//!   ([`Histogram`]), cheap enough to record from every worker;
//! * **counters** — monotonic totals (retries, re-enqueues, cache hits,
//!   journal appends).
//!
//! [`MetricsRecorder::summary`] renders everything as one
//! machine-readable JSON document — the shape CI uploads as a
//! `BENCH_*.json` artifact — and [`MetricsRecorder::write_files`]
//! persists both the span stream and the summary next to a campaign's
//! journal.
//!
//! All methods take `&self` and serialize internally, so one recorder
//! can be handed to any number of worker threads.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Number of log₂ buckets a [`Histogram`] keeps. Bucket 0 holds
/// sub-microsecond observations; bucket *i* holds durations in
/// `[2^(i-1), 2^i)` microseconds, so the top bucket covers ~2^39 µs
/// (≈ 6 days) and up.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-size log₂ wall-time histogram (microsecond resolution).
///
/// Recording is O(1) and allocation-free, so workers can observe every
/// unit without contending on anything beyond the recorder's one lock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    total_us: u128,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total_us: 0,
            max_us: 0,
        }
    }
}

fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound (µs) of a bucket, for quantile estimates.
fn bucket_upper_us(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 63 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[bucket_index(us)] += 1;
        self.count += 1;
        self.total_us += us as u128;
        self.max_us = self.max_us.max(us);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.total_us / self.count as u128) as u64
        }
    }

    /// Largest observation in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Estimated quantile (`q` in `[0, 1]`) in microseconds: the upper
    /// bound of the first bucket whose cumulative count covers `q`,
    /// clamped by the true maximum.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return bucket_upper_us(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// JSON form: counts, mean, p50/p90/p99, max, and the bucket
    /// counts (trailing zero buckets trimmed).
    pub fn to_json(&self) -> Json {
        let last = self
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        Json::obj([
            ("count", Json::UInt(self.count)),
            (
                "total_us",
                Json::UInt(self.total_us.min(u64::MAX as u128) as u64),
            ),
            ("mean_us", Json::UInt(self.mean_us())),
            ("p50_us", Json::UInt(self.quantile_us(0.50))),
            ("p90_us", Json::UInt(self.quantile_us(0.90))),
            ("p99_us", Json::UInt(self.quantile_us(0.99))),
            ("max_us", Json::UInt(self.max_us)),
            (
                "buckets",
                Json::Arr(
                    self.buckets[..last]
                        .iter()
                        .map(|&n| Json::UInt(n))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One completed unit of timed work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// What was timed (`program`, `detect`, `race-verify`,
    /// `vuln-analyze`, `vuln-verify`, `queue-wait`).
    pub name: String,
    /// The corpus program the work belonged to.
    pub program: String,
    /// Worker thread that performed it.
    pub worker: usize,
    /// Campaign attempt the work belonged to (1 = first try).
    pub attempt: u64,
    /// Start offset from the recorder's origin, microseconds.
    pub start_us: u64,
    /// Wall-time spent, microseconds.
    pub duration_us: u64,
}

impl SpanRecord {
    /// One JSONL object for this span.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("span", Json::str(self.name.clone())),
            ("program", Json::str(self.program.clone())),
            ("worker", Json::UInt(self.worker as u64)),
            ("attempt", Json::UInt(self.attempt)),
            ("start_us", Json::UInt(self.start_us)),
            ("dur_us", Json::UInt(self.duration_us)),
        ])
    }
}

/// Last-written value and high-water mark of a gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeValue {
    /// Most recently recorded value.
    pub last: u64,
    /// Largest value ever recorded.
    pub peak: u64,
}

#[derive(Debug, Default)]
struct MetricsInner {
    spans: Vec<SpanRecord>,
    stages: BTreeMap<String, Histogram>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, GaugeValue>,
}

/// Thread-safe collector of spans, per-stage histograms, and counters
/// for one campaign run.
#[derive(Debug)]
pub struct MetricsRecorder {
    origin: Instant,
    inner: Mutex<MetricsInner>,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRecorder {
    /// A fresh recorder; its creation instant is the origin every span
    /// offset is measured from.
    pub fn new() -> Self {
        MetricsRecorder {
            origin: Instant::now(),
            inner: Mutex::new(MetricsInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wall-time since the recorder was created.
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Records one span: appended to the span stream *and* folded into
    /// the named stage histogram.
    pub fn span(
        &self,
        name: &str,
        program: &str,
        worker: usize,
        attempt: u64,
        start: Instant,
        duration: Duration,
    ) {
        let start_us = start
            .saturating_duration_since(self.origin)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let mut inner = self.lock();
        inner
            .stages
            .entry(name.to_string())
            .or_default()
            .record(duration);
        inner.spans.push(SpanRecord {
            name: name.to_string(),
            program: program.to_string(),
            worker,
            attempt,
            start_us,
            duration_us: duration.as_micros().min(u64::MAX as u128) as u64,
        });
    }

    /// Adds `n` to a named monotonic counter.
    pub fn counter(&self, name: &str, n: u64) {
        let mut inner = self.lock();
        *inner.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Snapshot of every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Snapshot of a named counter (0 when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a named gauge to `value`, tracking its high-water mark.
    /// Gauges model instantaneous levels (queue depth, in-flight
    /// bytes) that counters cannot: the daemon's watchdog samples them
    /// periodically and the summary reports last + peak.
    pub fn gauge(&self, name: &str, value: u64) {
        let mut inner = self.lock();
        let g = inner.gauges.entry(name.to_string()).or_default();
        g.last = value;
        g.peak = g.peak.max(value);
    }

    /// Snapshot of a named gauge (zeros when never touched).
    pub fn gauge_value(&self, name: &str) -> GaugeValue {
        self.lock().gauges.get(name).copied().unwrap_or_default()
    }

    /// The span stream as JSONL — one canonical JSON object per line.
    pub fn spans_jsonl(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for span in &inner.spans {
            out.push_str(&span.to_json().to_json_string());
            out.push('\n');
        }
        out
    }

    /// The machine-readable perf summary (the `BENCH_*.json` shape):
    /// worker count, wall time, per-stage histogram digests, every
    /// counter, and every gauge (last + peak).
    pub fn summary_named(&self, bench: &str, workers: usize, programs: usize) -> Json {
        let inner = self.lock();
        let stages = Json::obj_owned(
            inner
                .stages
                .iter()
                .map(|(name, h)| (name.clone(), h.to_json())),
        );
        let counters = Json::obj_owned(
            inner
                .counters
                .iter()
                .map(|(name, &n)| (name.clone(), Json::UInt(n))),
        );
        let gauges = Json::obj_owned(inner.gauges.iter().map(|(name, g)| {
            (
                name.clone(),
                Json::obj([("last", Json::UInt(g.last)), ("peak", Json::UInt(g.peak))]),
            )
        }));
        Json::obj([
            ("bench", Json::str(bench.to_string())),
            ("workers", Json::UInt(workers as u64)),
            ("programs", Json::UInt(programs as u64)),
            (
                "wall_us",
                Json::UInt(self.origin.elapsed().as_micros().min(u64::MAX as u128) as u64),
            ),
            ("spans", Json::UInt(inner.spans.len() as u64)),
            ("stages", stages),
            ("counters", counters),
            ("gauges", gauges),
        ])
    }

    /// [`MetricsRecorder::summary_named`] for the campaign runner.
    pub fn summary(&self, workers: usize, programs: usize) -> Json {
        self.summary_named("campaign", workers, programs)
    }

    /// Writes `spans.jsonl` and `BENCH_<bench>.json` into `dir`
    /// (created if absent); returns both paths.
    pub fn write_files_named(
        &self,
        dir: &Path,
        bench: &str,
        workers: usize,
        programs: usize,
    ) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let spans_path = dir.join("spans.jsonl");
        std::fs::write(&spans_path, self.spans_jsonl())?;
        let summary_path = dir.join(format!("BENCH_{bench}.json"));
        let mut doc = self
            .summary_named(bench, workers, programs)
            .to_json_string();
        doc.push('\n');
        std::fs::write(&summary_path, doc)?;
        Ok((spans_path, summary_path))
    }

    /// Writes `spans.jsonl` and `BENCH_campaign.json` into `dir`
    /// (created if absent); returns both paths.
    pub fn write_files(
        &self,
        dir: &Path,
        workers: usize,
        programs: usize,
    ) -> std::io::Result<(PathBuf, PathBuf)> {
        self.write_files_named(dir, "campaign", workers, programs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_mean_and_quantiles() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram");
        for us in [1u64, 2, 4, 100, 1000, 100_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max_us(), 100_000);
        assert!(h.mean_us() >= (1 + 2 + 4 + 100 + 1000 + 100_000) / 6 - 1);
        assert!(h.quantile_us(0.5) <= h.quantile_us(0.9));
        assert!(h.quantile_us(1.0) <= h.max_us());
        let js = h.to_json();
        assert_eq!(js.get("count").and_then(|j| j.as_u64()), Some(6));
        assert!(js.get("buckets").and_then(|j| j.as_arr()).is_some());
    }

    #[test]
    fn recorder_collects_spans_counters_and_summary() {
        let rec = MetricsRecorder::new();
        let t = Instant::now();
        rec.span("detect", "Libsafe", 0, 1, t, Duration::from_millis(3));
        rec.span("detect", "SSDB", 1, 1, t, Duration::from_millis(5));
        rec.counter("campaign_requeues", 2);
        rec.counter("campaign_requeues", 1);

        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].program, "Libsafe");
        assert_eq!(rec.counter_value("campaign_requeues"), 3);
        assert_eq!(rec.counter_value("never_touched"), 0);

        // Every JSONL line parses back through the strict parser.
        let jsonl = rec.spans_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let v = crate::json::parse(line).expect("valid span JSON");
            assert!(v.get("span").is_some(), "{line}");
            assert!(v.get("dur_us").and_then(|j| j.as_u64()).is_some());
        }

        let summary = rec.summary(4, 2);
        assert_eq!(summary.get("workers").and_then(|j| j.as_u64()), Some(4));
        let stages = summary.get("stages").expect("stages object");
        let detect = stages.get("detect").expect("detect histogram");
        assert_eq!(detect.get("count").and_then(|j| j.as_u64()), Some(2));
        let counters = summary.get("counters").expect("counters object");
        assert_eq!(
            counters.get("campaign_requeues").and_then(|j| j.as_u64()),
            Some(3)
        );
    }

    #[test]
    fn gauges_track_last_and_peak() {
        let rec = MetricsRecorder::new();
        assert_eq!(rec.gauge_value("queue_depth"), GaugeValue::default());
        rec.gauge("queue_depth", 3);
        rec.gauge("queue_depth", 7);
        rec.gauge("queue_depth", 2);
        let g = rec.gauge_value("queue_depth");
        assert_eq!(g.last, 2);
        assert_eq!(g.peak, 7);
        let summary = rec.summary_named("serve", 2, 1);
        assert_eq!(summary.get("bench").and_then(|j| j.as_str()), Some("serve"));
        let gauges = summary.get("gauges").expect("gauges object");
        let qd = gauges.get("queue_depth").expect("queue_depth gauge");
        assert_eq!(qd.get("peak").and_then(|j| j.as_u64()), Some(7));
    }

    #[test]
    fn write_files_emits_jsonl_and_bench_summary() {
        let rec = MetricsRecorder::new();
        rec.span(
            "program",
            "Libsafe",
            0,
            1,
            Instant::now(),
            Duration::from_millis(1),
        );
        let mut dir = std::env::temp_dir();
        dir.push(format!("owl-metrics-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (spans, summary) = rec.write_files(&dir, 2, 1).expect("write metrics");
        assert!(spans.ends_with("spans.jsonl"));
        assert!(summary.ends_with("BENCH_campaign.json"));
        let doc = crate::json::parse(
            std::fs::read_to_string(&summary)
                .expect("summary readable")
                .trim(),
        )
        .expect("summary parses");
        assert_eq!(doc.get("bench").and_then(|j| j.as_str()), Some("campaign"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
