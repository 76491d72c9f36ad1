//! The pipeline's counter registry.
//!
//! Every health counter the pipeline keeps is one [`Counter`] row, and
//! every surface that carries counters — [`crate::PipelineHealth`], the
//! `owl serve` status report, the run journal's `ProgramFinished`
//! record, `run --json`, `campaign --json`, and the metrics recorder —
//! holds or prints one [`Counters`] array by looping over
//! [`Counter::ALL`]. Adding a counter is one enum row plus one `ALL`
//! entry and one `name` arm; no surface needs touching.
//!
//! * [`Counter::ALL`] order is wire order: JSON objects list counters
//!   in it, so a new row goes in at the position it belongs and the
//!   rows never reorder.
//! * Every counter merges by sum ([`Counters::add`]).
//! * Decoding reads by name, ignores unknown keys, and treats a
//!   missing or non-integer value as 0 ([`Counters::from_json`]), so
//!   files written before a counter existed still open, and a row may
//!   be retired: files that still carry its key open too. Retiring a
//!   row removes it from the wire order; the rows left keep their
//!   relative order.

use crate::json::Json;
use owl_race::ExploreResult;
use std::ops::{Index, IndexMut};

/// One pipeline health counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Stage-4 summary-cache hits: memoized callee walks replayed
    /// instead of recomputed (across a run's reports). Counts live
    /// stage-4 work only: a unit replayed from a journal reads 0.
    SummaryCacheHits,
    /// Stage-4 summary-cache misses: callee walks actually computed.
    SummaryCacheMisses,
    /// Bytes the run journal's open-time recovery truncated off a torn
    /// or corrupt tail (zero when no journal was used or the journal
    /// was clean).
    JournalDiscardedBytes,
    /// Records discarded by the run journal's open-time recovery.
    JournalDiscardedRecords,
    /// Race observations the detector suppressed because they matched
    /// an adhoc-synchronization annotation, summed over both detection
    /// sweeps.
    DetectorSuppressed,
    /// Observations of new site pairs the detector dropped because the
    /// report cap was full. Non-zero means the raw report set is
    /// truncated.
    DetectorReportsDropped,
    /// Access sites the check-elision pre-pass proved thread-local.
    ElisionSitesThreadLocal,
    /// Access sites the pre-pass proved lock-dominated.
    ElisionSitesLockDominated,
    /// Access sites the pre-pass proved read-only-shared.
    ElisionSitesReadOnly,
    /// Data-access events whose epoch shadow-memory work was skipped at
    /// elided sites, summed over both detection sweeps.
    ElisionEventsElided,
    /// Shadow cells the detectors' thread-exit/free GC reclaimed.
    ShadowCellsGced,
    /// Conflicting access pairs the predictive detection backends
    /// submitted to the witness machinery, summed over both detection
    /// sweeps. Zero for non-predictive backends.
    PredictCandidates,
    /// Predicted-race candidates with a validated witness reordering.
    PredictWitnessed,
    /// Predicted-race candidates rejected by the common-lock prune,
    /// closure, scheduler, or witness validator.
    PredictWitnessRejected,
    /// Witnessed predicted races that required reversing a
    /// lock-acquire order (`syncrev` backend only).
    PredictReversalRaces,
    /// Detection units whose prediction pass a cost ceiling cut short:
    /// the trace was too long to predict over, an access list was
    /// truncated, or the pass ran out of attempts. Such a unit may
    /// miss predicted races a longer search would have witnessed.
    PredictCapped,
    /// Detection units the explorer launched from a mid-run snapshot
    /// instead of instruction zero (prefix-sharing fork mode), summed
    /// over both sweeps: each input's pilot plus every unit whose
    /// schedule diverged from the pilot's. The same at any
    /// `--explore-workers` count. Zero under `--no-fork`, where every
    /// input forks at instruction zero.
    UnitsForked,
    /// VM steps detection units did not re-execute thanks to prefix
    /// sharing. Zero under `--no-fork`.
    PrefixStepsSaved,
    /// Detection units whose realized schedule collapsed to their
    /// input's pilot schedule (or whose input finished before two
    /// threads could interleave), so their outcome was reused without
    /// executing the VM. The same at any `--explore-workers` count.
    /// Zero under `--no-fork`.
    SchedulesDeduped,
    /// Estimated bytes of machine state captured by per-input
    /// snapshots (heap payloads are CoW-shared). Zero under
    /// `--no-fork`.
    SnapshotBytes,
}

impl Counter {
    /// Every counter, in wire order.
    pub const ALL: [Counter; 20] = [
        Counter::SummaryCacheHits,
        Counter::SummaryCacheMisses,
        Counter::JournalDiscardedBytes,
        Counter::JournalDiscardedRecords,
        Counter::DetectorSuppressed,
        Counter::DetectorReportsDropped,
        Counter::ElisionSitesThreadLocal,
        Counter::ElisionSitesLockDominated,
        Counter::ElisionSitesReadOnly,
        Counter::ElisionEventsElided,
        Counter::ShadowCellsGced,
        Counter::PredictCandidates,
        Counter::PredictWitnessed,
        Counter::PredictWitnessRejected,
        Counter::PredictReversalRaces,
        Counter::PredictCapped,
        Counter::UnitsForked,
        Counter::PrefixStepsSaved,
        Counter::SchedulesDeduped,
        Counter::SnapshotBytes,
    ];

    /// The counter's key in every JSON surface.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SummaryCacheHits => "summary_cache_hits",
            Counter::SummaryCacheMisses => "summary_cache_misses",
            Counter::JournalDiscardedBytes => "journal_discarded_bytes",
            Counter::JournalDiscardedRecords => "journal_discarded_records",
            Counter::DetectorSuppressed => "detector_suppressed",
            Counter::DetectorReportsDropped => "detector_reports_dropped",
            Counter::ElisionSitesThreadLocal => "elision_sites_thread_local",
            Counter::ElisionSitesLockDominated => "elision_sites_lock_dominated",
            Counter::ElisionSitesReadOnly => "elision_sites_read_only",
            Counter::ElisionEventsElided => "elision_events_elided",
            Counter::ShadowCellsGced => "shadow_cells_gced",
            Counter::PredictCandidates => "predict_candidates",
            Counter::PredictWitnessed => "predict_witnessed",
            Counter::PredictWitnessRejected => "predict_witness_rejected",
            Counter::PredictReversalRaces => "predict_reversal_races",
            Counter::PredictCapped => "predict_capped",
            Counter::UnitsForked => "units_forked",
            Counter::PrefixStepsSaved => "prefix_steps_saved",
            Counter::SchedulesDeduped => "schedules_deduped",
            Counter::SnapshotBytes => "snapshot_bytes",
        }
    }

    /// The counter's name in the [`crate::MetricsRecorder`]
    /// (`BENCH_*.json`): its [`Counter::name`], except that elided
    /// events keep the metric name `events_elided`, which the
    /// benchmark's `race.events_elided_per_program` reads.
    pub fn metric_name(self) -> &'static str {
        match self {
            Counter::ElisionEventsElided => "events_elided",
            c => c.name(),
        }
    }
}

/// Slots in a [`Counters`] array: one per [`Counter`] row, and unused
/// ones where the four retired trace-memory rows stood, so the array
/// keeps its former 192 bytes. At 160 bytes, building the corpus models
/// right after a journaled campaign round ran about 100 µs (24–36%)
/// slower: the effect follows the malloc size class of the journal's
/// worker-allocated counter boxes, which the main thread frees (see
/// EXPERIMENTS.md, "Trace-memory budget removed").
const SLOTS: usize = 24;
const _: () = assert!(Counter::ALL.len() <= SLOTS);

/// One value per [`Counter`], indexed by it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters([u64; SLOTS]);

impl Counters {
    /// Adds every counter of `other` into this one.
    pub fn add(&mut self, other: &Counters) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }

    /// Every counter with its value, in wire order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.into_iter().zip(self.0)
    }

    /// The `(name, value)` pairs of a JSON object, in wire order.
    pub fn json_pairs(&self) -> impl Iterator<Item = (&'static str, Json)> + '_ {
        self.iter().map(|(c, n)| (c.name(), Json::UInt(n)))
    }

    /// The counters as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(self.json_pairs())
    }

    /// Reads counters by name from a JSON object. A missing key, or a
    /// value that is not a non-negative integer, reads as 0; unknown
    /// keys are ignored.
    pub fn from_json(v: &Json) -> Counters {
        let mut out = Counters::default();
        for c in Counter::ALL {
            out[c] = v.get(c.name()).and_then(Json::as_u64).unwrap_or(0);
        }
        out
    }

    /// The counters one exploration sweep contributes.
    pub fn from_explore(r: &ExploreResult) -> Counters {
        let mut out = Counters::default();
        for (c, n) in [
            (Counter::DetectorSuppressed, r.suppressed as u64),
            (Counter::DetectorReportsDropped, r.reports_dropped as u64),
            (Counter::ElisionEventsElided, r.events_elided),
            (Counter::ShadowCellsGced, r.shadow_cells_gced),
            (Counter::PredictCandidates, r.predict_candidates),
            (Counter::PredictWitnessed, r.predict_witnessed),
            (Counter::PredictWitnessRejected, r.predict_witness_rejected),
            (Counter::PredictReversalRaces, r.predict_reversal_races),
            (Counter::PredictCapped, r.predict_capped),
            (Counter::UnitsForked, r.units_forked),
            (Counter::PrefixStepsSaved, r.prefix_steps_saved),
            (Counter::SchedulesDeduped, r.schedules_deduped),
            (Counter::SnapshotBytes, r.snapshot_bytes),
        ] {
            out[c] = n;
        }
        out
    }
}

impl Index<Counter> for Counters {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

impl IndexMut<Counter> for Counters {
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_is_in_declaration_order_with_unique_names() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} is out of place in ALL");
        }
        let names: HashSet<_> = Counter::ALL.map(Counter::name).into();
        assert_eq!(names.len(), Counter::ALL.len());
        let metrics: HashSet<_> = Counter::ALL.map(Counter::metric_name).into();
        assert_eq!(metrics.len(), Counter::ALL.len());
    }

    #[test]
    fn add_sums_every_counter() {
        let mut a = Counters::default();
        let mut b = Counters::default();
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            a[c] = i as u64;
            b[c] = 100;
        }
        a.add(&b);
        for (i, (_, n)) in a.iter().enumerate() {
            assert_eq!(n, 100 + i as u64);
        }
    }
}
