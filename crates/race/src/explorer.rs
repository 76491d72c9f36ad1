//! SKI-style schedule exploration.
//!
//! SKI exposed kernel races by systematically exploring thread
//! interleavings of syscall handlers. The explorer reproduces that
//! regime: it re-runs a program under PCT and random schedulers across
//! a seed sweep (and across the workload's inputs), aggregates
//! deduplicated race reports, and keeps per-run statistics. The same
//! machinery doubles as the "repeated native executions" driver used in
//! the paper's triggerability study (Table 4's ≤ 20 re-executions).
//!
//! Every `(input, seed)` unit runs in its own VM with its own
//! detector, so the sweep fans out over [`ExplorerConfig::workers`]
//! scoped threads. Determinism is preserved by construction:
//!
//! * units are claimed in sweep order under a lock, and every claimed
//!   unit runs to completion, so the completed units always form a
//!   contiguous prefix of the sweep (even when a deadline cuts it
//!   short);
//! * per-unit outputs are merged *in unit order* — reports dedup by
//!   normalized site pair keeping the first unit's report (adopting
//!   the first available read hint among later duplicates), counters
//!   are summed, and the merged set gets a final stable sort by site
//!   pair.
//!
//! Any worker count therefore yields byte-identical results; workers
//! only change wall-clock time.
//!
//! ## Prefix-sharing fork mode
//!
//! With [`ExplorerConfig::fork`] on (the default), each input's units
//! share the program's single-threaded startup prefix instead of each
//! re-executing it. Every scheduler is *forced* to make identical
//! choices while only one thread is runnable, so the explorer runs
//! each input once up to the first point where ≥ 2 threads could
//! interleave ([`Vm::run_until_concurrent`]), snapshots the machine
//! there ([`Vm::snapshot`], CoW-cheap), forks the detector shadow
//! state ([`HbDetector::fork`]), and launches every per-seed unit from
//! the snapshot with its own scheduler fast-forwarded over the
//! recorded prefix pick calls (which reproduces the exact RNG state a
//! scratch run would have had at that point). A schedule-signature
//! pass then dedups whole units: executed units record their realized
//! choice sequence plus an incrementally-computed FNV signature; any
//! later seed whose scheduler realizes an already-run sequence must
//! produce the identical execution, so that unit's outcome is reused
//! without running the VM at all. A serial sweep (`workers <= 1`, the
//! default) merges recorded traces into a path-compressed decision
//! trie, so probing every schedule realized so far costs a single
//! walk; after [`DEDUP_PATIENCE`] consecutive misses the sweep stops
//! recording and probing for that input, so sweeps that keep
//! realizing distinct schedules shed the dedup overhead. A parallel
//! sweep probes only against the first unit's (the pilot's) schedule,
//! the one key that is complete before workers race. Either way the
//! probe history — and so every fork counter — depends only on the
//! deterministic claim order, never on thread timing.
//!
//! None of this changes results — reports, outcomes, and every
//! pre-existing counter are byte-identical fork on or off, at any
//! worker count × spill budget (pinned by `tests/explore_pinned.rs`).
//! Only the four fork counters ([`ExploreResult::units_forked`],
//! `prefix_steps_saved`, `schedules_deduped`, `snapshot_bytes`) and
//! wall-clock time differ.
//!
//! ## Detection inline
//!
//! Every unit runner — scratch (`run_unit`), shared prefix
//! (`run_prefix`) and forked (`run_forked_unit`) — feeds its detector
//! from the VM's emit hook, on the thread running the unit, through
//! one `BudgetSink`. No unit spawns a thread; parallelism is per unit,
//! via [`ExplorerConfig::workers`].

use crate::hb::{HbAnnotation, HbBackend, HbConfig, HbDetector};
use crate::report::RaceReport;
use crate::spill::{self, SpillKillSwitch};
use owl_ir::{FuncId, FxHashMap, FxHashSet, InstRef, Module};
use owl_vm::{
    ExecOutcome, PctScheduler, ProgramInput, RandomScheduler, RunConfig, Scheduler, Snapshot,
    ThreadId, TraceEvent, TraceSink, Vm,
};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How the explorer produces schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExploreStrategy {
    /// Seeded uniform-random scheduling (native-execution stand-in,
    /// what TSan observes).
    Random,
    /// PCT with the given depth (systematic exploration, what SKI
    /// does).
    Pct {
        /// Number of priority change points.
        depth: usize,
    },
}

/// Memory governance of the VM → detector hand-off.
///
/// Every `(input, seed)` unit feeds its detector from the VM's emit
/// hook, on the thread running the unit, through one budgeted sink.
/// `max_trace_mem` bounds the event window that sink holds, and only
/// that window: past the soft limit (half the budget) the window
/// spills to a checksummed segment file under `spill_dir` and is
/// immediately replayed into the detector; past the hard limit with
/// nowhere to spill, the unit aborts with a typed memory-budget verdict
/// instead of growing without bound. Without a budget no window is
/// kept and every event goes straight to the detector.
///
/// None of this changes results: reports, outcomes and counters are
/// byte-identical at any spill threshold (pinned by
/// `tests/explore_pinned.rs`), because spill points depend only on
/// event sizes.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Hard cap, in bytes, on a unit's in-flight event window
    /// (`--max-trace-mem`). `None` = unbounded.
    pub max_trace_mem: Option<u64>,
    /// Where spill segments go. `None` with a budget set means the
    /// unit aborts as soon as the window crosses the hard limit.
    pub spill_dir: Option<PathBuf>,
    /// Leading part of every segment file name,
    /// `<tag_prefix>-u<input>-s<seed>-<seq>.seg` (`-prefix` in place of
    /// `-s<seed>` for a fork-mode shared prefix). The pipeline appends
    /// the program name to it, so a caller running several pipelines
    /// over one spill directory at once (the daemon) sets a distinct
    /// prefix per run.
    pub tag_prefix: String,
    /// Crash-injection switch for the spill writer (tests only).
    pub spill_kill: Option<SpillKillSwitch>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            max_trace_mem: None,
            spill_dir: None,
            tag_prefix: "unit".to_string(),
            spill_kill: None,
        }
    }
}

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct ExplorerConfig {
    /// Number of schedule seeds per input.
    pub runs_per_input: u64,
    /// First seed (seeds are contiguous).
    pub base_seed: u64,
    /// Scheduling strategy.
    pub strategy: ExploreStrategy,
    /// Expected execution length (PCT change-point placement).
    pub expected_steps: u64,
    /// VM limits.
    pub run_config: RunConfig,
    /// Adhoc-sync annotations to honour during detection.
    pub annotations: Vec<HbAnnotation>,
    /// Worker threads for the seed sweep (0 is treated as 1). Results
    /// are byte-identical for any count; see the module docs.
    pub workers: usize,
    /// Shadow-memory backend for the per-unit detectors.
    pub hb_backend: HbBackend,
    /// Sites the static check-elision pre-pass proved race-free, to be
    /// installed in every per-unit VM (`None` disables stamping). Does
    /// not change any result — only how much shadow work the epoch
    /// backend performs.
    pub elided_sites: Option<Arc<FxHashSet<InstRef>>>,
    /// Memory budget and spill settings of each unit's detector sink
    /// (see [`StreamConfig`]).
    pub stream: StreamConfig,
    /// Prefix-sharing fork mode (`--no-fork` clears it): run each
    /// input's single-threaded startup prefix once, snapshot the VM at
    /// the first point two threads could interleave, launch every
    /// seed's unit from the snapshot, and dedup units whose realized
    /// schedule collapses to an already-run signature. Results are
    /// byte-identical either way (see the module docs); only the fork
    /// counters and wall-clock time change.
    pub fork: bool,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            runs_per_input: 10,
            base_seed: 1,
            strategy: ExploreStrategy::Pct { depth: 3 },
            expected_steps: 2_000,
            run_config: RunConfig::default(),
            annotations: Vec::new(),
            workers: 1,
            hb_backend: HbBackend::default(),
            elided_sites: None,
            stream: StreamConfig::default(),
            fork: true,
        }
    }
}

/// Aggregated exploration results.
#[derive(Clone, Debug)]
pub struct ExploreResult {
    /// Deduplicated race reports across all runs.
    pub reports: Vec<RaceReport>,
    /// Total executions performed.
    pub runs: u64,
    /// Race observations suppressed by annotations, summed over runs.
    pub suppressed: usize,
    /// Observations of new site pairs dropped by the per-run
    /// [`HbConfig::max_reports`] cap, summed over runs. Non-zero means
    /// the aggregated report set is truncated.
    pub reports_dropped: usize,
    /// Outcome of every execution (violations, outputs, schedules).
    pub outcomes: Vec<ExecOutcome>,
    /// Total faults the VM's fault plan injected across all runs.
    pub injected_faults: u64,
    /// Accesses whose shadow work the epoch backend skipped thanks to
    /// the static elision pre-pass, summed over runs (0 under the
    /// reference backend, which always does the full work).
    pub events_elided: u64,
    /// Bytes of trace spilled to segment files, summed over units.
    pub trace_spilled_bytes: u64,
    /// Spill segments written (each immediately replayed and deleted).
    pub trace_spill_segments: u64,
    /// Times a unit's in-flight window crossed the soft memory limit
    /// (each either spilled or, with nowhere to spill, aborted).
    pub mem_pressure_events: u64,
    /// Shadow cells reclaimed by the detectors' thread-exit/free GC,
    /// summed over units.
    pub shadow_cells_gced: u64,
    /// Units aborted because their trace outgrew
    /// [`StreamConfig::max_trace_mem`] with nowhere to spill. Aborted
    /// units contribute no reports; the pipeline turns a non-zero
    /// count into a typed memory-budget verdict.
    pub units_aborted_mem_budget: u64,
    /// Conflicting pairs the predictive backends submitted to the
    /// witness machinery, summed over units (0 for non-predictive
    /// backends; see [`crate::PredictStats`]).
    pub predict_candidates: u64,
    /// Predicted-race candidates that got a validated witness
    /// reordering, summed over units.
    pub predict_witnessed: u64,
    /// Candidates rejected by closure, scheduling, or witness
    /// validation, summed over units.
    pub predict_witness_rejected: u64,
    /// Witnessed races that required a lock-acquire reversal (only
    /// non-zero under [`HbBackend::SyncReversal`]), summed over units.
    pub predict_reversal_races: u64,
    /// Units whose prediction pass a cost ceiling cut short (see
    /// [`crate::PredictStats::capped`]).
    pub predict_capped: u64,
    /// Units that executed from a mid-run snapshot instead of from
    /// instruction zero: each input's pilot plus every unit whose
    /// schedule diverged from the pilot's. Zero with
    /// [`ExplorerConfig::fork`] off.
    pub units_forked: u64,
    /// VM steps not re-executed thanks to prefix sharing: the shared
    /// prefix length times the number of units that reused it, summed
    /// over inputs. Zero with fork off.
    pub prefix_steps_saved: u64,
    /// Units whose entire realized choice sequence collapsed to an
    /// already-run schedule signature, so their outcome was reused
    /// without executing the VM at all. Zero with fork off.
    pub schedules_deduped: u64,
    /// Bytes of machine state captured by per-input snapshots (an
    /// upper-bound estimate; heap payloads are CoW-shared with the
    /// resumed units), summed over inputs. Zero with fork off.
    pub snapshot_bytes: u64,
    /// Whether a wall-clock budget cut the sweep short (see
    /// [`explore_with_deadline`]).
    pub deadline_hit: bool,
}

impl ExploreResult {
    /// Reports whose racing address falls in the named global.
    pub fn reports_on<'a>(&'a self, global: &str) -> impl Iterator<Item = &'a RaceReport> + 'a {
        let g = global.to_string();
        self.reports
            .iter()
            .filter(move |r| r.global_name.as_deref() == Some(g.as_str()))
    }

    /// Whether any run triggered a violation matching `pred`.
    pub fn any_outcome_violation(&self, mut pred: impl FnMut(&owl_vm::Violation) -> bool) -> bool {
        self.outcomes.iter().any(|o| o.any_violation(&mut pred))
    }
}

/// Runs the exploration: for every input, `runs_per_input` executions,
/// each under a fresh scheduler and a fresh detector, merged
/// deterministically (see the module docs).
pub fn explore(
    module: &Module,
    entry: FuncId,
    inputs: &[ProgramInput],
    cfg: &ExplorerConfig,
) -> ExploreResult {
    explore_with_deadline(module, entry, inputs, cfg, None)
}

/// One `(input, seed)` execution's raw output, pre-merge. `Clone`
/// because fork mode reuses a pilot's output verbatim for every unit
/// whose schedule collapses to the pilot's signature.
#[derive(Clone)]
struct UnitOutput {
    reports: Vec<RaceReport>,
    suppressed: usize,
    reports_dropped: usize,
    events_elided: u64,
    outcome: ExecOutcome,
    spilled_bytes: u64,
    spill_segments: u64,
    pressure_events: u64,
    cells_gced: u64,
    mem_budget_aborted: bool,
    predict: crate::PredictStats,
    /// Unit executed from a snapshot (fork mode pilot or a
    /// schedule-divergent unit).
    forked: bool,
    /// Unit's outcome was cloned from an identical already-run
    /// schedule; no VM executed.
    deduped: bool,
    /// Prefix steps this unit did not re-execute.
    prefix_steps_saved: u64,
    /// Snapshot footprint charged to this unit (the pilot carries its
    /// input's snapshot).
    snapshot_bytes: u64,
}

/// What the memory budget did to one unit's event stream.
#[derive(Clone, Debug, Default)]
struct StreamStats {
    spilled_bytes: u64,
    spill_segments: u64,
    pressure_events: u64,
    aborted: bool,
}

/// The event window and spill bookkeeping of one unit under the memory
/// budget. `Clone` so fork mode can hand every unit the shared prefix's
/// window, which makes each unit's counters come out exactly as if it
/// had run its whole trace from scratch.
#[derive(Clone, Default)]
struct BudgetWindow {
    window: VecDeque<TraceEvent>,
    window_bytes: u64,
    seq: u64,
    stats: StreamStats,
}

impl BudgetWindow {
    /// Feeds one event toward `detector`, enforcing the budget. With
    /// no budget the event goes straight through; with one it buffers
    /// into the window, which spills (and immediately replays) whole
    /// segments past the soft limit (half the budget). Sets
    /// `stats.aborted` when the budget cannot be honored: the window
    /// crossed the hard limit with nowhere to spill, or the spill
    /// itself failed with a typed [`spill::SpillError`].
    fn push(
        &mut self,
        ev: TraceEvent,
        detector: &mut HbDetector,
        stream: &StreamConfig,
        tag: &str,
    ) {
        let Some(hard) = stream.max_trace_mem else {
            detector.on_event_owned(ev);
            return;
        };
        let soft = (hard / 2).max(1);
        self.window_bytes += spill::approx_event_bytes(&ev) as u64;
        self.window.push_back(ev);
        if self.window_bytes <= soft {
            return;
        }
        match &stream.spill_dir {
            Some(dir) => {
                self.stats.pressure_events += 1;
                let spilled = (|| -> Result<u64, spill::SpillError> {
                    std::fs::create_dir_all(dir)?;
                    let path = dir.join(format!("{tag}-{}.seg", self.seq));
                    if path.exists() {
                        // Leftover from a killed run: restore the
                        // every-line-valid invariant before reuse.
                        let _ = spill::recover_segment(&path);
                    }
                    let bytes = spill::write_segment(
                        &path,
                        self.window.iter(),
                        stream.spill_kill.as_ref(),
                    )?;
                    spill::replay_segment(&path, detector)?;
                    std::fs::remove_file(&path)?;
                    Ok(bytes)
                })();
                match spilled {
                    Ok(bytes) => {
                        self.stats.spilled_bytes += bytes;
                        self.stats.spill_segments += 1;
                        self.seq += 1;
                        self.window.clear();
                        self.window_bytes = 0;
                    }
                    Err(_) => self.stats.aborted = true,
                }
            }
            None if self.window_bytes > hard => {
                self.stats.pressure_events += 1;
                self.stats.aborted = true;
            }
            None => {}
        }
    }
}

/// The trace sink of every unit runner: the VM's emit hook feeds the
/// unit's detector through it, on the calling thread, with the memory
/// budget's window in between. Once the budget proves unsatisfiable
/// the sink drops every further event but the VM runs on, so an
/// aborted unit's outcome is the one a complete run has. A spill
/// kill-switch panic unwinds straight out of the VM run.
struct BudgetSink<'a> {
    detector: HbDetector,
    window: BudgetWindow,
    stream: &'a StreamConfig,
    tag: String,
}

impl<'a> BudgetSink<'a> {
    /// A sink continuing `detector` and `window` for unit `unit` of
    /// input `input_idx`, which names its spill segments.
    fn new(
        cfg: &'a ExplorerConfig,
        input_idx: usize,
        unit: &str,
        detector: HbDetector,
        window: BudgetWindow,
    ) -> Self {
        BudgetSink {
            detector,
            window,
            stream: &cfg.stream,
            tag: format!("{}-u{input_idx}-{unit}", cfg.stream.tag_prefix),
        }
    }

    /// A sink with a fresh detector behind an empty window.
    fn fresh(cfg: &'a ExplorerConfig, input_idx: usize, unit: &str) -> Self {
        let detector = HbDetector::new(HbConfig {
            annotations: cfg.annotations.clone(),
            backend: cfg.hb_backend,
            ..HbConfig::default()
        });
        Self::new(cfg, input_idx, unit, detector, BudgetWindow::default())
    }

    /// Ends the unit's run. Unless the budget aborted it, the trailing
    /// window drains into the detector and the predictive pass runs
    /// (before any counter is read, so its reports and stats land in
    /// this output). An aborted unit saw only a prefix of its trace: it
    /// skips prediction and its partial reports are discarded, so the
    /// (quarantined) result never mixes complete and truncated
    /// detection.
    fn finish(self, module: &Module, outcome: ExecOutcome) -> UnitOutput {
        let BudgetSink {
            mut detector,
            window,
            ..
        } = self;
        let BudgetWindow {
            window: trailing,
            stats,
            ..
        } = window;
        if !stats.aborted {
            for ev in trailing {
                detector.on_event_owned(ev);
            }
            detector.run_prediction();
        }
        UnitOutput {
            suppressed: detector.suppressed(),
            reports_dropped: detector.reports_dropped(),
            events_elided: detector.epoch_stats().map_or(0, |s| s.events_elided()),
            cells_gced: detector.shadow_cells_gced(),
            predict: detector.predict_stats(),
            reports: if stats.aborted {
                Vec::new()
            } else {
                detector.finish(module)
            },
            outcome,
            spilled_bytes: stats.spilled_bytes,
            spill_segments: stats.spill_segments,
            pressure_events: stats.pressure_events,
            mem_budget_aborted: stats.aborted,
            forked: false,
            deduped: false,
            prefix_steps_saved: 0,
            snapshot_bytes: 0,
        }
    }
}

impl TraceSink for BudgetSink<'_> {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.on_event_owned(ev.clone());
    }

    fn on_event_owned(&mut self, ev: TraceEvent) {
        if !self.window.stats.aborted {
            self.window
                .push(ev, &mut self.detector, self.stream, &self.tag);
        }
    }
}

/// A seed-fresh scheduler for `cfg`'s strategy.
fn build_sched(cfg: &ExplorerConfig, seed: u64) -> Box<dyn Scheduler> {
    match cfg.strategy {
        ExploreStrategy::Random => Box::new(RandomScheduler::new(seed)),
        ExploreStrategy::Pct { depth } => {
            Box::new(PctScheduler::new(seed, depth, cfg.expected_steps))
        }
    }
}

/// A VM at instruction zero of `input`, with `cfg`'s elided sites.
fn build_vm<'m>(
    module: &'m Module,
    entry: FuncId,
    input: &ProgramInput,
    cfg: &ExplorerConfig,
) -> Vm<'m> {
    let vm = Vm::new(module, entry, input.clone(), cfg.run_config.clone());
    match &cfg.elided_sites {
        Some(elided) => vm.with_elided_sites(Arc::clone(elided)),
        None => vm,
    }
}

/// Runs one `(input, seed)` unit from instruction zero.
fn run_unit(
    module: &Module,
    entry: FuncId,
    input: &ProgramInput,
    input_idx: usize,
    seed: u64,
    cfg: &ExplorerConfig,
) -> UnitOutput {
    let mut sink = BudgetSink::fresh(cfg, input_idx, &format!("s{seed}"));
    let outcome =
        build_vm(module, entry, input, cfg).run(build_sched(cfg, seed).as_mut(), &mut sink);
    sink.finish(module, outcome)
}

/// Inline capacity for recorded runnable sets. Corpus programs rarely
/// have more than a handful of runnable threads at any pick.
const RUNNABLE_INLINE: usize = 8;

/// Runnable-set storage for recorded pick calls. Recording captures
/// one of these per VM step, so the common case must stay inline: a
/// heap-allocating `Vec` clone per pick was measurably the *entire*
/// wall-clock overhead of fork-mode recording on long-suffix corpus
/// programs (~35% on Linux/MySQL), swamping the dedup savings.
#[derive(Clone, Debug)]
enum RunnableSet {
    Inline(u8, [ThreadId; RUNNABLE_INLINE]),
    Heap(Vec<ThreadId>),
}

impl RunnableSet {
    fn from_slice(s: &[ThreadId]) -> Self {
        if s.len() <= RUNNABLE_INLINE {
            let mut buf = [ThreadId::default(); RUNNABLE_INLINE];
            buf[..s.len()].copy_from_slice(s);
            RunnableSet::Inline(s.len() as u8, buf)
        } else {
            RunnableSet::Heap(s.to_vec())
        }
    }

    fn as_slice(&self) -> &[ThreadId] {
        match self {
            RunnableSet::Inline(n, buf) => &buf[..usize::from(*n)],
            RunnableSet::Heap(v) => v,
        }
    }
}

impl PartialEq for RunnableSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// One scheduler invocation as the VM made it: the runnable set it
/// saw, the step counter, and the choice that came back. The prefix
/// records these so fresh schedulers can be fast-forwarded; the pilot
/// records them as the dedup decision trace.
#[derive(Clone, Debug)]
struct PickCall {
    runnable: RunnableSet,
    step: u64,
    chosen: ThreadId,
}

/// Cap on the recorded pilot decision trace. A pilot that makes more
/// picks is marked truncated and its input skips schedule dedup — the
/// cap depends only on the pick count, so the decision is
/// deterministic.
const DEDUP_TRACE_CAP: usize = 1 << 16;

/// After this many consecutive probe misses, a serial sweep stops
/// recording and probing for the rest of the input: the sweep is
/// evidently realizing distinct schedules (seed sweeps over inputs
/// with long concurrent phases usually do), so the dedup machinery
/// would only add recording and probe overhead to every remaining
/// unit. The cutoff depends solely on the claim-order probe history,
/// which is deterministic in a serial sweep, so the fork counters
/// remain deterministic for a fixed configuration.
const DEDUP_PATIENCE: usize = 16;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one realized pick into an FNV-1a schedule signature.
fn fnv1a_pick(hash: u64, chosen: ThreadId, step: u64) -> u64 {
    let mut h = hash;
    for b in chosen
        .0
        .to_le_bytes()
        .into_iter()
        .chain(step.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Wraps a scheduler, recording every pick call at the scheduler
/// interface (which also captures picks whose chosen thread gets
/// parked by fault injection and so never appears in the outcome's
/// schedule) and folding the realized choices into an incremental
/// FNV-1a signature.
struct RecordingScheduler {
    inner: Box<dyn Scheduler>,
    calls: Vec<PickCall>,
    cap: usize,
    truncated: bool,
    signature: u64,
}

impl RecordingScheduler {
    fn new(inner: Box<dyn Scheduler>, cap: usize, hint: usize) -> Self {
        RecordingScheduler {
            inner,
            // Reserving up to the sibling-trace length avoids the
            // growth reallocs, whose memcpys dominate recording cost
            // on long suffixes.
            calls: Vec::with_capacity(hint.min(cap)),
            cap,
            truncated: false,
            signature: FNV_OFFSET,
        }
    }
}

impl Scheduler for RecordingScheduler {
    fn pick(&mut self, runnable: &[ThreadId], step: u64) -> ThreadId {
        let chosen = self.inner.pick(runnable, step);
        if self.calls.len() < self.cap {
            self.signature = fnv1a_pick(self.signature, chosen, step);
            self.calls.push(PickCall {
                runnable: RunnableSet::from_slice(runnable),
                step,
                chosen,
            });
        } else {
            self.truncated = true;
        }
        chosen
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Replays the prefix's pick calls into a freshly-seeded scheduler.
/// Every prefix pick had a singleton runnable set (the fork point is
/// the first moment two threads could interleave), so any scheduler
/// returns the same forced choice while consuming exactly the RNG it
/// would have consumed executing the prefix itself — afterwards its
/// internal state matches what a scratch run's scheduler would hold at
/// the fork point.
fn fast_forward(sched: &mut dyn Scheduler, prefix: &[PickCall]) {
    for call in prefix {
        let picked = sched.pick(call.runnable.as_slice(), call.step);
        debug_assert_eq!(picked, call.chosen, "prefix pick was not forced");
    }
}

/// One executed unit's realized suffix schedule: a dedup key for
/// later seeds of the same input.
struct RealizedTrace {
    calls: Vec<PickCall>,
    signature: u64,
    truncated: bool,
}

/// Whether `sched` (fast-forwarded to the fork point) would realize
/// exactly `trace`'s choice sequence. Feeds the trace's recorded
/// runnable sets through `sched`, folding the choices into a candidate
/// signature; dedup happens when the signature collapses to the
/// trace's (the per-pick comparison makes a hash collision harmless).
/// A full match means the unit's execution *is* the recorded one: the
/// same choices from the same snapshot state drive the same
/// instruction, fault, and trace sequence. On a mismatch the answer is
/// `false` and `sched` is RNG-polluted — it consumed draws against the
/// recorded runnable sets — so the caller must rebuild it before
/// running the unit for real or probing another trace.
fn matches_trace(sched: &mut dyn Scheduler, trace: &RealizedTrace) -> bool {
    let mut signature = FNV_OFFSET;
    for call in &trace.calls {
        let picked = sched.pick(call.runnable.as_slice(), call.step);
        if picked != call.chosen {
            return false;
        }
        signature = fnv1a_pick(signature, picked, call.step);
    }
    signature == trace.signature
}

/// A decision trie over the realized suffix schedules of one input's
/// executed units. Serial sweeps probe each new seed with a *single*
/// walk — at every decision point the candidate scheduler picks
/// against the recorded runnable set, and the walk follows the
/// matching edge — instead of replaying against every stored trace
/// one at a time. Contexts are path-determined (the VM is
/// deterministic, so the same choice sequence always reproduces the
/// same runnable set), which is what lets traces share prefix nodes
/// at all. Walking also consumes exactly the scheduler RNG a real run
/// would consume up to the divergence point, so a failed probe leaves
/// the scheduler polluted (the caller rebuilds it), while a completed
/// walk proves the unit's execution is the recorded one.
///
/// Paths are compressed: a stored trace's undisputed tail is kept as
/// a `Tail` edge into the owned trace, and interior nodes are only
/// materialized up to the point where a later trace actually
/// diverges. Inserting is therefore O(shared depth) with O(1)
/// allocations — materializing a node per recorded pick was
/// measurably as expensive as executing the units it was meant to
/// save.
#[derive(Default)]
struct TraceTrie {
    nodes: Vec<TrieNode>,
    traces: Vec<StoredTrace>,
}

/// An inserted trace, owned whole by the trie: `Tail` edges borrow
/// slices of it instead of materializing per-pick nodes.
struct StoredTrace {
    calls: Vec<PickCall>,
    signature: u64,
    slot: usize,
}

/// One materialized decision point: the scheduler context to present,
/// and an edge per distinct choice some recorded trace made here. The
/// edge count is bounded by the runnable set, so a plain `Vec` only
/// allocates at genuine branch points.
struct TrieNode {
    runnable: RunnableSet,
    step: u64,
    edges: Vec<(ThreadId, TrieChild)>,
}

#[derive(Clone, Copy)]
enum TrieChild {
    /// A materialized interior decision point.
    Node(usize),
    /// Path-compressed remainder: stored trace `trace`'s calls from
    /// index `from` to its end (with `from` at the trace length this
    /// is a pure leaf). No complete trace is a strict prefix of
    /// another (identical picks force identical termination), so a
    /// tail always ends the walk.
    Tail { trace: usize, from: usize },
}

impl TraceTrie {
    fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    fn node_from(call: &PickCall) -> TrieNode {
        TrieNode {
            runnable: call.runnable.clone(),
            step: call.step,
            edges: Vec::new(),
        }
    }

    /// Inserts an executed unit's recorded trace, taking ownership.
    /// Truncated traces (and the impossible empty trace) are skipped
    /// by the caller; a duplicate of a stored trace cannot reach
    /// insertion because its probe would have deduped the unit.
    fn insert(&mut self, trace: RealizedTrace, slot: usize) {
        debug_assert!(!trace.calls.is_empty(), "a suffix trace always picks");
        let calls = trace.calls;
        let t_new = self.traces.len();
        if self.nodes.is_empty() {
            let mut root = Self::node_from(&calls[0]);
            root.edges.push((calls[0].chosen, TrieChild::Tail { trace: t_new, from: 1 }));
            self.nodes.push(root);
            self.traces.push(StoredTrace { calls, signature: trace.signature, slot });
            return;
        }
        let mut node = 0;
        let mut d = 0usize;
        loop {
            debug_assert!(d < calls.len(), "complete trace is a strict prefix of another");
            debug_assert_eq!(self.nodes[node].runnable, calls[d].runnable, "trie context diverged");
            debug_assert_eq!(self.nodes[node].step, calls[d].step, "trie context diverged");
            let chosen = calls[d].chosen;
            let Some(e) = self.nodes[node].edges.iter().position(|(c, _)| *c == chosen) else {
                // First trace to make this choice here: hang the whole
                // remainder off one compressed edge.
                self.nodes[node].edges.push((chosen, TrieChild::Tail { trace: t_new, from: d + 1 }));
                break;
            };
            match self.nodes[node].edges[e].1 {
                TrieChild::Node(next) => {
                    node = next;
                    d += 1;
                }
                TrieChild::Tail { trace: t_old, from } => {
                    // Scan the compressed tail for the divergence
                    // point, then materialize only the shared stretch.
                    let mut j = 0usize;
                    let div = loop {
                        let (ni, oi) = (d + 1 + j, from + j);
                        debug_assert!(
                            ni < calls.len() && oi < self.traces[t_old].calls.len(),
                            "duplicate or prefix trace inserted"
                        );
                        if ni >= calls.len() || oi >= self.traces[t_old].calls.len() {
                            return;
                        }
                        if calls[ni].chosen != self.traces[t_old].calls[oi].chosen {
                            break j;
                        }
                        j += 1;
                    };
                    let mut prev: Option<usize> = None;
                    let mut first_new = 0usize;
                    for m in 0..=div {
                        let n = self.nodes.len();
                        self.nodes.push(Self::node_from(&self.traces[t_old].calls[from + m]));
                        match prev {
                            Some(p) => {
                                let c = self.traces[t_old].calls[from + m - 1].chosen;
                                self.nodes[p].edges.push((c, TrieChild::Node(n)));
                            }
                            None => first_new = n,
                        }
                        prev = Some(n);
                    }
                    let branch = prev.expect("at least the branch node is materialized");
                    let old_chosen = self.traces[t_old].calls[from + div].chosen;
                    let new_chosen = calls[d + 1 + div].chosen;
                    self.nodes[branch]
                        .edges
                        .push((old_chosen, TrieChild::Tail { trace: t_old, from: from + div + 1 }));
                    self.nodes[branch]
                        .edges
                        .push((new_chosen, TrieChild::Tail { trace: t_new, from: d + 1 + div + 1 }));
                    self.nodes[node].edges[e].1 = TrieChild::Node(first_new);
                    break;
                }
            }
        }
        self.traces.push(StoredTrace { calls, signature: trace.signature, slot });
    }

    /// Walks `sched` through the trie. `Some(slot)` means the
    /// scheduler realized a recorded trace exactly (per-pick equality
    /// plus the FNV signature folded along the walk) — the caller
    /// clones `slot`'s output. `None` means it diverged from every
    /// recorded trace and is now RNG-polluted; rebuild before running.
    fn probe(&self, sched: &mut dyn Scheduler) -> Option<usize> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut node = 0;
        let mut signature = FNV_OFFSET;
        let (t, mut i) = loop {
            let n = &self.nodes[node];
            let picked = sched.pick(n.runnable.as_slice(), n.step);
            signature = fnv1a_pick(signature, picked, n.step);
            match n.edges.iter().find(|(c, _)| *c == picked) {
                Some((_, TrieChild::Node(next))) => node = *next,
                Some((_, TrieChild::Tail { trace, from })) => break (*trace, *from),
                None => return None,
            }
        };
        let stored = &self.traces[t];
        while i < stored.calls.len() {
            let call = &stored.calls[i];
            let picked = sched.pick(call.runnable.as_slice(), call.step);
            if picked != call.chosen {
                return None;
            }
            signature = fnv1a_pick(signature, picked, call.step);
            i += 1;
        }
        (signature == stored.signature).then_some(stored.slot)
    }
}

/// Everything one input's forked units share: the machine snapshot at
/// the fork point, the recorded prefix pick calls, the in-flight
/// budget window, and the detector state over the prefix events.
struct ForkPrefix {
    snap: Snapshot,
    calls: Vec<PickCall>,
    window: BudgetWindow,
    detector: HbDetector,
    steps: u64,
    bytes: u64,
}

/// What running one input's shared prefix produced.
enum PrefixResult {
    /// The program terminated before two threads could ever
    /// interleave: the execution was fully forced, so this single
    /// output serves every seed.
    Finished(Box<UnitOutput>),
    /// Paused at the first concurrency point; the boxed scheduler is
    /// seed 0's continuation (already advanced past the prefix), which
    /// the pilot resumes with.
    Forked(Box<ForkPrefix>, Box<dyn Scheduler>),
}

/// Runs one input's shared prefix: a fresh VM under seed 0's scheduler
/// (wrapped to record pick calls) up to the first point where ≥ 2
/// threads could interleave, feeding the prefix events through the
/// budget window into the prefix detector exactly as a scratch unit
/// would.
fn run_prefix(
    module: &Module,
    entry: FuncId,
    input: &ProgramInput,
    input_idx: usize,
    cfg: &ExplorerConfig,
) -> PrefixResult {
    let mut rec = RecordingScheduler::new(build_sched(cfg, cfg.base_seed), usize::MAX, 0);
    let mut vm = build_vm(module, entry, input, cfg);
    let mut sink = BudgetSink::fresh(cfg, input_idx, "prefix");
    match vm.run_until_concurrent(&mut rec, &mut sink) {
        Some(outcome) => PrefixResult::Finished(Box::new(sink.finish(module, outcome))),
        None => {
            let snap = vm.snapshot();
            PrefixResult::Forked(
                Box::new(ForkPrefix {
                    steps: snap.step(),
                    bytes: snap.approx_bytes(),
                    snap,
                    calls: rec.calls,
                    window: sink.window,
                    detector: sink.detector,
                }),
                rec.inner,
            )
        }
    }
}

/// Runs one unit from the fork point: forks the prefix detector,
/// clones the budget window, and resumes the snapshot under `sched`,
/// continuing the event stream exactly where the prefix left off (a
/// budget the prefix already broke keeps dropping events). With
/// `record_hint` set (the pilot) the suffix decision trace comes back
/// for dedup. The unit's counters equal a scratch run's because its
/// stats are the shared prefix's stats plus its own suffix activity.
fn run_forked_unit(
    module: &Module,
    prefix: &ForkPrefix,
    mut sched: Box<dyn Scheduler>,
    record_hint: Option<usize>,
    input_idx: usize,
    seed: u64,
    cfg: &ExplorerConfig,
) -> (UnitOutput, Option<RealizedTrace>) {
    let mut sink = BudgetSink::new(
        cfg,
        input_idx,
        &format!("s{seed}"),
        prefix.detector.fork(),
        prefix.window.clone(),
    );
    let vm = Vm::resume(module, prefix.snap.clone());
    let (outcome, trace) = match record_hint {
        Some(hint) => {
            let mut rec = RecordingScheduler::new(sched, DEDUP_TRACE_CAP, hint);
            let outcome = vm.run(&mut rec, &mut sink);
            let trace = RealizedTrace {
                calls: rec.calls,
                signature: rec.signature,
                truncated: rec.truncated,
            };
            (outcome, Some(trace))
        }
        None => (vm.run(sched.as_mut(), &mut sink), None),
    };
    let mut out = sink.finish(module, outcome);
    out.forked = true;
    (out, trace)
}

/// Claim state for the sweep: units are handed out strictly in order,
/// so completed units always form a contiguous prefix of the sweep.
struct Claim {
    next: usize,
    deadline_hit: bool,
}

/// [`explore`] under a wall-clock budget: the seed sweep stops early
/// (with `deadline_hit` set) once `deadline` has elapsed. The first
/// unit always runs; reports found before the cut-off are still
/// aggregated and deduplicated.
pub fn explore_with_deadline(
    module: &Module,
    entry: FuncId,
    inputs: &[ProgramInput],
    cfg: &ExplorerConfig,
    deadline: Option<Duration>,
) -> ExploreResult {
    let start = Instant::now();
    let default_input = [ProgramInput::empty()];
    let inputs: &[ProgramInput] = if inputs.is_empty() {
        &default_input
    } else {
        inputs
    };
    // The sweep, flattened in deterministic unit order.
    let units: Vec<(usize, u64)> = (0..inputs.len())
        .flat_map(|i| (0..cfg.runs_per_input).map(move |k| (i, k)))
        .collect();
    let claim = Mutex::new(Claim {
        next: 0,
        deadline_hit: false,
    });
    let slots: Vec<Mutex<Option<UnitOutput>>> = units.iter().map(|_| Mutex::new(None)).collect();
    if cfg.fork {
        explore_forked(module, entry, inputs, cfg, deadline, start, &units, &claim, &slots);
    } else {
        let worker = || {
            loop {
                let i = {
                    let mut c = claim.lock().unwrap_or_else(PoisonError::into_inner);
                    if c.next >= units.len() {
                        break;
                    }
                    if let Some(d) = deadline {
                        if c.next > 0 && start.elapsed() >= d {
                            c.deadline_hit = true;
                            break;
                        }
                    }
                    let i = c.next;
                    c.next += 1;
                    i
                };
                let (input_idx, k) = units[i];
                let out = run_unit(
                    module,
                    entry,
                    &inputs[input_idx],
                    input_idx,
                    cfg.base_seed + k,
                    cfg,
                );
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            }
        };
        let workers = cfg.workers.max(1).min(units.len().max(1));
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(worker);
                }
            });
        }
    }

    // Deterministic merge, in unit order. Claims are a prefix, so the
    // first empty slot ends the completed range.
    let mut reports: Vec<RaceReport> = Vec::new();
    let mut by_key: FxHashMap<(InstRef, InstRef), usize> = FxHashMap::default();
    let mut outcomes = Vec::new();
    let mut runs = 0u64;
    let mut suppressed = 0usize;
    let mut reports_dropped = 0usize;
    let mut injected_faults = 0u64;
    let mut events_elided = 0u64;
    let mut trace_spilled_bytes = 0u64;
    let mut trace_spill_segments = 0u64;
    let mut mem_pressure_events = 0u64;
    let mut shadow_cells_gced = 0u64;
    let mut units_aborted_mem_budget = 0u64;
    let mut predict_candidates = 0u64;
    let mut predict_witnessed = 0u64;
    let mut predict_witness_rejected = 0u64;
    let mut predict_reversal_races = 0u64;
    let mut predict_capped = 0u64;
    let mut units_forked = 0u64;
    let mut prefix_steps_saved = 0u64;
    let mut schedules_deduped = 0u64;
    let mut snapshot_bytes = 0u64;
    for slot in slots {
        let Some(unit) = slot.into_inner().unwrap_or_else(PoisonError::into_inner) else {
            break;
        };
        runs += 1;
        suppressed += unit.suppressed;
        reports_dropped += unit.reports_dropped;
        injected_faults += unit.outcome.injected_faults.len() as u64;
        events_elided += unit.events_elided;
        trace_spilled_bytes += unit.spilled_bytes;
        trace_spill_segments += unit.spill_segments;
        mem_pressure_events += unit.pressure_events;
        shadow_cells_gced += unit.cells_gced;
        units_aborted_mem_budget += u64::from(unit.mem_budget_aborted);
        predict_candidates += unit.predict.candidates;
        predict_witnessed += unit.predict.witnessed;
        predict_witness_rejected += unit.predict.witness_rejected;
        predict_reversal_races += unit.predict.reversal_races;
        predict_capped += unit.predict.capped;
        units_forked += u64::from(unit.forked);
        prefix_steps_saved += unit.prefix_steps_saved;
        schedules_deduped += u64::from(unit.deduped);
        snapshot_bytes += unit.snapshot_bytes;
        outcomes.push(unit.outcome);
        for r in unit.reports {
            match by_key.entry(r.key()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(reports.len());
                    reports.push(r);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    // Keep the first unit's report, but adopt a read
                    // hint from a later duplicate if it has one and
                    // the kept report does not.
                    let kept = &mut reports[*e.get()];
                    if kept.read_hint.is_none() {
                        kept.read_hint = r.read_hint;
                    }
                }
            }
        }
    }
    // Reports stay in discovery order (unit order, then within-unit
    // detection order) — the order is already deterministic for any
    // worker count because units merge by index, and downstream
    // consumers treat the first report on a global as the
    // representative one.
    let deadline_hit = claim
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .deadline_hit;
    ExploreResult {
        reports,
        runs,
        suppressed,
        reports_dropped,
        outcomes,
        injected_faults,
        events_elided,
        trace_spilled_bytes,
        trace_spill_segments,
        mem_pressure_events,
        shadow_cells_gced,
        units_aborted_mem_budget,
        predict_candidates,
        predict_witnessed,
        predict_witness_rejected,
        predict_reversal_races,
        predict_capped,
        units_forked,
        prefix_steps_saved,
        schedules_deduped,
        snapshot_bytes,
        deadline_hit,
    }
}

/// The fork-mode sweep driver. Inputs are processed sequentially: the
/// claiming thread runs the input's shared prefix and its pilot unit,
/// then a per-input worker pool fans the remaining seeds out from the
/// snapshot. Units are still claimed strictly in sweep order from the
/// same global claim state as the scratch path, so completed units
/// form a contiguous prefix and the deadline semantics are unchanged.
#[allow(clippy::too_many_arguments)]
fn explore_forked(
    module: &Module,
    entry: FuncId,
    inputs: &[ProgramInput],
    cfg: &ExplorerConfig,
    deadline: Option<Duration>,
    start: Instant,
    units: &[(usize, u64)],
    claim: &Mutex<Claim>,
    slots: &[Mutex<Option<UnitOutput>>],
) {
    let per_input = cfg.runs_per_input as usize;
    // Claims the next unit, refusing to cross `limit` (the end of the
    // current input — later inputs' prefixes have not run yet).
    let try_claim = |limit: usize| -> Option<usize> {
        let mut c = claim.lock().unwrap_or_else(PoisonError::into_inner);
        if c.next >= limit || c.next >= units.len() {
            return None;
        }
        if let Some(d) = deadline {
            if c.next > 0 && start.elapsed() >= d {
                c.deadline_hit = true;
                return None;
            }
        }
        let i = c.next;
        c.next += 1;
        Some(i)
    };
    let fill = |i: usize, out: UnitOutput| {
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    };
    for (input_idx, input) in inputs.iter().enumerate() {
        let Some(first) = try_claim(units.len()) else {
            break;
        };
        debug_assert_eq!(units[first], (input_idx, 0));
        let limit = first + per_input;
        match run_prefix(module, entry, input, input_idx, cfg) {
            PrefixResult::Finished(template) => {
                // The whole execution was forced: every later seed is
                // marched through the same singleton picks, so one
                // execution serves all of them.
                let steps = template.outcome.steps;
                fill(first, (*template).clone());
                while let Some(i) = try_claim(limit) {
                    let mut out = (*template).clone();
                    out.deduped = true;
                    out.prefix_steps_saved = steps;
                    fill(i, out);
                }
            }
            PrefixResult::Forked(prefix, pilot_sched) => {
                let (mut pilot_out, trace) = run_forked_unit(
                    module,
                    &prefix,
                    pilot_sched,
                    Some(cfg.expected_steps.min(DEDUP_TRACE_CAP as u64) as usize),
                    input_idx,
                    cfg.base_seed,
                    cfg,
                );
                pilot_out.snapshot_bytes = prefix.bytes;
                let pilot = trace.expect("pilot records its trace");
                fill(first, pilot_out);
                // Clones the already-filled slot a deduped unit
                // collapses to, relabeling the counters: a deduped
                // unit did no forked work of its own.
                let dedup_clone = |slot: usize| {
                    let mut out = slots[slot]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .as_ref()
                        .expect("matched slot is filled")
                        .clone();
                    out.forked = false;
                    out.deduped = true;
                    out.prefix_steps_saved = prefix.steps;
                    out.snapshot_bytes = 0;
                    out
                };
                let workers = cfg.workers.max(1).min(per_input.saturating_sub(1).max(1));
                if workers <= 1 {
                    // Serial sweep: every executed unit records its
                    // realized suffix schedule into a decision trie,
                    // and each new seed is probed against *every*
                    // already-run schedule with one trie walk before
                    // it is allowed to execute. Claim order is unit
                    // order here, so the trie contents at each probe
                    // — and with them every fork counter — are
                    // deterministic.
                    let mut trie = TraceTrie::default();
                    let mut hint = pilot.calls.len();
                    if !pilot.truncated {
                        trie.insert(pilot, first);
                    }
                    let mut misses = 0usize;
                    let mut dedup_on = true;
                    while let Some(i) = try_claim(limit) {
                        let (_, k) = units[i];
                        let seed = cfg.base_seed + k;
                        let mut sk = build_sched(cfg, seed);
                        fast_forward(sk.as_mut(), &prefix.calls);
                        // One trie walk probes every recorded
                        // schedule at once: shared prefixes cost a
                        // single pick, and the walk is bounded by the
                        // longest recorded suffix, not by the number
                        // of stored traces.
                        let probed = if dedup_on { trie.probe(sk.as_mut()) } else { None };
                        let out = match probed {
                            Some(slot) => {
                                misses = 0;
                                dedup_clone(slot)
                            }
                            None => {
                                // A failed walk consumed RNG draws
                                // against the recorded runnable sets,
                                // so the real run starts from a
                                // rebuilt, re-fast-forwarded
                                // scheduler (unless nothing probed and
                                // nothing was consumed).
                                let sched = if dedup_on && !trie.is_empty() {
                                    let mut fresh = build_sched(cfg, seed);
                                    fast_forward(fresh.as_mut(), &prefix.calls);
                                    fresh
                                } else {
                                    sk
                                };
                                let record = dedup_on.then_some(hint);
                                let (mut out, t) = run_forked_unit(
                                    module, &prefix, sched, record, input_idx, seed, cfg,
                                );
                                out.prefix_steps_saved = prefix.steps;
                                if let Some(t) = t {
                                    if !t.truncated {
                                        hint = t.calls.len();
                                        trie.insert(t, i);
                                    }
                                }
                                if dedup_on {
                                    misses += 1;
                                    if misses >= DEDUP_PATIENCE {
                                        dedup_on = false;
                                    }
                                }
                                out
                            }
                        };
                        fill(i, out);
                    }
                } else {
                    // Parallel sweep: workers race for units, so the
                    // set of completed traces at any probe is timing-
                    // dependent. Only the pilot's schedule — complete
                    // before any worker starts — is a deterministic
                    // dedup key, so parallel sweeps dedup against the
                    // pilot alone (the serial sweep is the thorough
                    // one; parallelism trades dedup reach for cores).
                    let worker = || {
                        while let Some(i) = try_claim(limit) {
                            let (_, k) = units[i];
                            let seed = cfg.base_seed + k;
                            let mut sk = build_sched(cfg, seed);
                            fast_forward(sk.as_mut(), &prefix.calls);
                            let deduped = !pilot.truncated && matches_trace(sk.as_mut(), &pilot);
                            let out = if deduped {
                                dedup_clone(first)
                            } else {
                                // After a mismatch `sk` has consumed
                                // RNG against the pilot's runnable
                                // sets; rebuild it clean. A truncated
                                // pilot skips the check, so `sk` is
                                // untouched past the prefix and can
                                // run directly.
                                let sched = if pilot.truncated {
                                    sk
                                } else {
                                    let mut fresh = build_sched(cfg, seed);
                                    fast_forward(fresh.as_mut(), &prefix.calls);
                                    fresh
                                };
                                let (mut out, _) = run_forked_unit(
                                    module, &prefix, sched, None, input_idx, seed, cfg,
                                );
                                out.prefix_steps_saved = prefix.steps;
                                out
                            };
                            fill(i, out);
                        }
                    };
                    std::thread::scope(|s| {
                        for _ in 0..workers {
                            s.spawn(worker);
                        }
                    });
                }
            }
        }
        if claim
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .deadline_hit
        {
            break;
        }
    }
}

/// Repeatedly executes `module` under fresh random schedules until
/// `success` holds on an outcome or `max_tries` is exhausted; returns
/// the number of executions used (the paper's "repetitive executions"
/// metric from §3.1/Table 4).
pub fn executions_until(
    module: &Module,
    entry: FuncId,
    input: &ProgramInput,
    run_config: &RunConfig,
    base_seed: u64,
    max_tries: u64,
    mut success: impl FnMut(&ExecOutcome) -> bool,
) -> Option<u64> {
    for k in 0..max_tries {
        let mut sched = RandomScheduler::new(base_seed + k);
        let vm = Vm::new(module, entry, input.clone(), run_config.clone());
        let outcome = vm.run(&mut sched, &mut owl_vm::NullSink);
        if success(&outcome) {
            return Some(k + 1);
        }
    }
    None
}

/// Returns the set of distinct racy site pairs, useful for comparing
/// strategies.
pub fn site_pairs(reports: &[RaceReport]) -> FxHashSet<(InstRef, InstRef)> {
    reports.iter().map(RaceReport::key).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{ModuleBuilder, Type};

    /// A narrow race: the write happens in a tiny window after a flag
    /// check, so fixed round-robin rarely sees it but exploration does.
    fn narrow_race() -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("narrow");
        let g = mb.global("x", 1, Type::I64);
        let w = mb.declare_func("w", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let a = b.global_addr(g);
            b.store(a, 1);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(w, 0);
            let a = b.global_addr(g);
            b.load(a, Type::I64);
            b.thread_join(t);
            b.ret(None);
        }
        (mb.finish(), main)
    }

    #[test]
    fn exploration_finds_races_and_dedups() {
        let (m, main) = narrow_race();
        let result = explore(
            &m,
            main,
            &[],
            &ExplorerConfig {
                runs_per_input: 20,
                ..ExplorerConfig::default()
            },
        );
        assert_eq!(result.runs, 20);
        assert_eq!(result.reports.len(), 1, "{:?}", result.reports);
        assert_eq!(result.reports_on("x").count(), 1);
    }

    #[test]
    fn strategies_cover_both_ways() {
        let (m, main) = narrow_race();
        for strategy in [ExploreStrategy::Random, ExploreStrategy::Pct { depth: 2 }] {
            let result = explore(
                &m,
                main,
                &[],
                &ExplorerConfig {
                    runs_per_input: 30,
                    strategy,
                    ..ExplorerConfig::default()
                },
            );
            assert!(
                !result.reports.is_empty(),
                "strategy {strategy:?} found nothing"
            );
        }
    }

    #[test]
    fn executions_until_counts_tries() {
        let (m, main) = narrow_race();
        let tries = executions_until(
            &m,
            main,
            &ProgramInput::empty(),
            &RunConfig::default(),
            7,
            50,
            |o| o.status == owl_vm::ExitStatus::Finished,
        );
        assert_eq!(tries, Some(1), "every run finishes");
        let never = executions_until(
            &m,
            main,
            &ProgramInput::empty(),
            &RunConfig::default(),
            7,
            5,
            |_| false,
        );
        assert_eq!(never, None);
    }

    #[test]
    fn expired_deadline_stops_after_first_run() {
        let (m, main) = narrow_race();
        let result = explore_with_deadline(
            &m,
            main,
            &[],
            &ExplorerConfig {
                runs_per_input: 50,
                ..ExplorerConfig::default()
            },
            Some(Duration::from_secs(0)),
        );
        assert_eq!(result.runs, 1, "one run happens before the check");
        assert!(result.deadline_hit);
    }

    #[test]
    fn site_pair_sets() {
        let (m, main) = narrow_race();
        let r = explore(&m, main, &[], &ExplorerConfig::default());
        assert_eq!(site_pairs(&r.reports).len(), r.reports.len());
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "owl-explorer-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg_with_stream(stream: StreamConfig) -> ExplorerConfig {
        ExplorerConfig {
            runs_per_input: 10,
            stream,
            ..ExplorerConfig::default()
        }
    }

    #[test]
    fn budget_with_spill_dir_completes_and_matches_inline() {
        let (m, main) = narrow_race();
        let base = explore(&m, main, &[], &cfg_with_stream(StreamConfig::default()));
        let dir = scratch_dir("spill");
        let r = explore(
            &m,
            main,
            &[],
            &cfg_with_stream(StreamConfig {
                max_trace_mem: Some(256),
                spill_dir: Some(dir.clone()),
                ..StreamConfig::default()
            }),
        );
        assert!(r.trace_spill_segments > 0, "tiny budget must force spills");
        assert!(r.trace_spilled_bytes > 0);
        assert!(r.mem_pressure_events >= r.trace_spill_segments);
        assert_eq!(r.units_aborted_mem_budget, 0);
        assert_eq!(r.reports, base.reports, "spilling must not change reports");
        // Every segment is replayed and deleted on the spot.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| rd.filter_map(|e| e.ok()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_without_spill_dir_aborts_units_typed() {
        let (m, main) = narrow_race();
        let base = explore(&m, main, &[], &cfg_with_stream(StreamConfig::default()));
        let r = explore(
            &m,
            main,
            &[],
            &cfg_with_stream(StreamConfig {
                max_trace_mem: Some(64),
                spill_dir: None,
                ..StreamConfig::default()
            }),
        );
        assert_eq!(r.units_aborted_mem_budget, r.runs, "every unit overflows");
        assert!(r.mem_pressure_events > 0);
        assert!(
            r.reports.is_empty(),
            "aborted units must not leak partial reports: {:?}",
            r.reports
        );
        // The sink drops events after the abort, but the VM runs on:
        // an aborted unit's outcome is the complete run's.
        assert_eq!(r.outcomes, base.outcomes);
    }

    #[test]
    fn fork_matches_scratch_and_counts_its_work() {
        let (m, main) = narrow_race();
        let run = |fork: bool| {
            explore(
                &m,
                main,
                &[],
                &ExplorerConfig {
                    runs_per_input: 20,
                    fork,
                    ..ExplorerConfig::default()
                },
            )
        };
        let forked = run(true);
        let scratch = run(false);
        assert_eq!(forked.reports, scratch.reports);
        assert_eq!(forked.outcomes, scratch.outcomes);
        assert_eq!(
            (forked.runs, forked.suppressed, forked.injected_faults),
            (scratch.runs, scratch.suppressed, scratch.injected_faults),
        );
        // Fork mode did real work: a pilot ran per input, the shared
        // prefix was reused, and the snapshot has a footprint.
        assert!(forked.units_forked > 0, "{forked:?}");
        assert!(forked.prefix_steps_saved > 0, "{forked:?}");
        assert!(forked.snapshot_bytes > 0, "{forked:?}");
        // Scratch mode reports all fork counters as zero.
        assert_eq!(
            (
                scratch.units_forked,
                scratch.prefix_steps_saved,
                scratch.schedules_deduped,
                scratch.snapshot_bytes
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn single_threaded_input_dedups_every_seed() {
        // No thread is ever created: the whole execution is forced, so
        // fork mode runs it once and reuses the output for all seeds.
        let mut mb = ModuleBuilder::new("single");
        let g = mb.global("x", 1, Type::I64);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            let a = b.global_addr(g);
            b.store(a, 41);
            let v = b.load(a, Type::I64);
            b.output(0, v);
            b.ret(None);
        }
        let m = mb.finish();
        let main = m.func_by_name("main").unwrap();
        let r = explore(
            &m,
            main,
            &[],
            &ExplorerConfig {
                runs_per_input: 8,
                ..ExplorerConfig::default()
            },
        );
        assert_eq!(r.runs, 8);
        assert_eq!(r.schedules_deduped, 7, "{r:?}");
        assert_eq!(r.units_forked, 0, "no snapshot is ever taken");
        assert_eq!(r.snapshot_bytes, 0);
        assert!(r.prefix_steps_saved > 0);
        assert_eq!(r.outcomes.len(), 8);
        assert!(r.outcomes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn streaming_parallel_workers_stay_byte_identical() {
        let (m, main) = narrow_race();
        let dir = scratch_dir("parallel");
        let run = |workers: usize| {
            explore(
                &m,
                main,
                &[],
                &ExplorerConfig {
                    runs_per_input: 12,
                    workers,
                    stream: StreamConfig {
                        max_trace_mem: Some(512),
                        spill_dir: Some(dir.clone()),
                        ..StreamConfig::default()
                    },
                    ..ExplorerConfig::default()
                },
            )
        };
        let one = run(1);
        for workers in [2, 4] {
            let r = run(workers);
            assert_eq!(r.reports, one.reports, "workers {workers}");
            assert_eq!(
                (
                    r.runs,
                    r.trace_spilled_bytes,
                    r.trace_spill_segments,
                    r.mem_pressure_events,
                    r.shadow_cells_gced
                ),
                (
                    one.runs,
                    one.trace_spilled_bytes,
                    one.trace_spill_segments,
                    one.mem_pressure_events,
                    one.shadow_cells_gced
                ),
                "workers {workers}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
