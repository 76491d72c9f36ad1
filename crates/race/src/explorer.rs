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
//!   the first available read hint among later duplicates), reports
//!   stay in discovery order, and counters are summed.
//!
//! Any worker count therefore yields byte-identical results, the fork
//! counters included; workers only change wall-clock time.
//!
//! ## One sweep: every input forks
//!
//! Each input's units start from one snapshot. With
//! [`ExplorerConfig::fork`] on (the default), the snapshot sits at the
//! end of the program's single-threaded startup prefix: every
//! scheduler is *forced* to make identical choices while only one
//! thread is runnable, so the explorer runs each input once up to the
//! first point where ≥ 2 threads could interleave
//! ([`Vm::run_until_concurrent`]), snapshots the machine there
//! ([`Vm::snapshot`], CoW-cheap), forks the detector shadow state
//! ([`HbDetector::fork`]), and launches every per-seed unit from the
//! snapshot with its own scheduler fast-forwarded over the recorded
//! prefix pick calls (which reproduces the exact RNG state a run from
//! instruction zero would have had at that point).
//!
//! The first unit of each input, the pilot, records its realized
//! suffix schedule plus an FNV signature. Every later seed probes that
//! one schedule before it runs: a seed whose scheduler realizes it
//! exactly must produce the identical execution, so the pilot's output
//! is reused without running the VM at all. The pilot finishes before
//! any other unit of its input is claimed, so each probe — and with it
//! every fork counter — is the same at any worker count.
//!
//! With fork mode off (`--no-fork`) the same sweep forks at
//! instruction zero: the snapshot is of the fresh VM (no steps, no
//! recorded picks, a fresh detector), the pilot records no schedule,
//! and every seed executes in full.
//!
//! None of this changes results — reports, outcomes, and every
//! counter but the fork counters are byte-identical fork on or off, at
//! any worker count (pinned by `tests/explore_pinned.rs`). Only the
//! four fork counters ([`ExploreResult::units_forked`],
//! `prefix_steps_saved`, `schedules_deduped`, `snapshot_bytes`), all 0
//! with fork mode off, and wall-clock time differ.
//!
//! ## Detection inline
//!
//! Both unit runners — the shared prefix (`run_prefix`) and a unit
//! from its snapshot (`run_forked_unit`) — hand the VM the unit's
//! [`HbDetector`] as its trace sink, so every event meets the shadow
//! state as it happens, on the thread running the unit. No unit spawns
//! a thread; parallelism is per unit, via [`ExplorerConfig::workers`].

use crate::hb::{HbAnnotation, HbBackend, HbConfig, HbDetector};
use crate::report::RaceReport;
use owl_ir::{FuncId, FxHashMap, FxHashSet, InstRef, Module};
use owl_vm::{
    ExecOutcome, PctScheduler, ProgramInput, RandomScheduler, RunConfig, Scheduler, Snapshot,
    ThreadId, Vm,
};
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
    /// Prefix-sharing fork mode (`--no-fork` clears it): run each
    /// input's single-threaded startup prefix once, snapshot the VM at
    /// the first point two threads could interleave, launch every
    /// seed's unit from the snapshot, and dedup units whose realized
    /// schedule collapses to the pilot's. Off, every input forks at
    /// instruction zero and every seed executes in full. Results are
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
            fork: true,
        }
    }
}

/// Aggregated exploration results.
#[derive(Clone, Debug, Default)]
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
    /// Shadow cells reclaimed by the detectors' thread-exit/free GC,
    /// summed over units.
    pub shadow_cells_gced: u64,
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
    /// Units whose entire realized choice sequence collapsed to their
    /// input's pilot schedule (or whose input finished before two
    /// threads could interleave), so their outcome was reused without
    /// executing the VM at all. Zero with fork off.
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
    cells_gced: u64,
    predict: crate::PredictStats,
    /// Unit executed from a mid-run snapshot (fork mode pilot or a
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

impl UnitOutput {
    /// This output, reused for a later seed whose execution would
    /// repeat it: that unit did no forked work of its own and skipped
    /// `steps_saved` steps.
    fn reused(&self, steps_saved: u64) -> UnitOutput {
        UnitOutput {
            forked: false,
            deduped: true,
            prefix_steps_saved: steps_saved,
            snapshot_bytes: 0,
            ..self.clone()
        }
    }

    /// Ends a unit's run: the predictive pass runs over the detector's
    /// recorded trace (before any counter is read, so its reports and
    /// stats land in this output), then the detector's reports and
    /// counters are collected.
    fn finish(module: &Module, mut detector: HbDetector, outcome: ExecOutcome) -> UnitOutput {
        detector.run_prediction();
        UnitOutput {
            suppressed: detector.suppressed(),
            reports_dropped: detector.reports_dropped(),
            events_elided: detector.epoch_stats().map_or(0, |s| s.events_elided()),
            cells_gced: detector.shadow_cells_gced(),
            predict: detector.predict_stats(),
            reports: detector.finish(module),
            outcome,
            forked: false,
            deduped: false,
            prefix_steps_saved: 0,
            snapshot_bytes: 0,
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

/// A fresh detector for one unit under `cfg`'s backend and
/// annotations.
fn build_detector(cfg: &ExplorerConfig) -> HbDetector {
    HbDetector::new(HbConfig {
        annotations: cfg.annotations.clone(),
        backend: cfg.hb_backend,
        ..HbConfig::default()
    })
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
            // Reserving up to the expected trace length avoids the
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

/// The pilot's realized suffix schedule: the dedup key for the later
/// seeds of its input.
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
/// recorded runnable sets — so the unit must run under a fresh one.
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

/// Everything one input's units share: the machine snapshot at the
/// fork point, the recorded prefix pick calls, and the detector state
/// over the prefix events. A fork at instruction zero has no steps, no
/// calls, a fresh detector and 0 bytes.
struct ForkPrefix {
    snap: Snapshot,
    calls: Vec<PickCall>,
    detector: HbDetector,
    steps: u64,
    bytes: u64,
}

impl ForkPrefix {
    /// Seed `seed`'s scheduler at the fork point. Every prefix pick had
    /// a singleton runnable set (the fork point is the first moment two
    /// threads could interleave), so replaying them returns the same
    /// forced choices while consuming exactly the RNG the scheduler
    /// would have consumed executing the prefix itself — afterwards its
    /// state matches a run from instruction zero at the fork point.
    fn sched(&self, cfg: &ExplorerConfig, seed: u64) -> Box<dyn Scheduler> {
        let mut sched = build_sched(cfg, seed);
        for call in &self.calls {
            let picked = sched.pick(call.runnable.as_slice(), call.step);
            debug_assert_eq!(picked, call.chosen, "prefix pick was not forced");
        }
        sched
    }
}

/// What running one input's shared prefix produced.
enum PrefixResult {
    /// The program terminated before two threads could ever
    /// interleave: the execution was fully forced, so this single
    /// output serves every seed.
    Finished(Box<UnitOutput>),
    /// Paused at the fork point; the boxed scheduler is the first
    /// seed's continuation (already advanced past the prefix), which
    /// the pilot resumes with.
    Forked(Box<ForkPrefix>, Box<dyn Scheduler>),
}

/// Runs one input's shared prefix: a fresh VM under the first seed's
/// scheduler (wrapped to record pick calls) up to the first point
/// where ≥ 2 threads could interleave, feeding the prefix events into
/// the prefix detector exactly as a unit run from instruction zero
/// would. With fork mode off nothing runs: the fork point is
/// instruction zero.
fn run_prefix(
    module: &Module,
    entry: FuncId,
    input: &ProgramInput,
    cfg: &ExplorerConfig,
) -> PrefixResult {
    let mut rec = RecordingScheduler::new(build_sched(cfg, cfg.base_seed), usize::MAX, 0);
    let mut vm = build_vm(module, entry, input, cfg);
    let mut detector = build_detector(cfg);
    if cfg.fork {
        if let Some(outcome) = vm.run_until_concurrent(&mut rec, &mut detector) {
            return PrefixResult::Finished(Box::new(UnitOutput::finish(module, detector, outcome)));
        }
    }
    let snap = vm.snapshot();
    PrefixResult::Forked(
        Box::new(ForkPrefix {
            steps: snap.step(),
            // A fresh VM's state is not shared work: charge it nothing.
            bytes: if cfg.fork { snap.approx_bytes() } else { 0 },
            snap,
            calls: rec.calls,
            detector,
        }),
        rec.inner,
    )
}

/// Runs one unit from the fork point: forks the prefix detector and
/// resumes the snapshot under `sched`, continuing the event stream
/// exactly where the prefix left off. With `record_hint` set (the
/// pilot in fork mode) the suffix decision trace comes back for dedup.
/// The unit's counters equal a run from instruction zero because its
/// detector carries the shared prefix's state plus its own suffix
/// activity.
fn run_forked_unit(
    module: &Module,
    prefix: &ForkPrefix,
    mut sched: Box<dyn Scheduler>,
    record_hint: Option<usize>,
    cfg: &ExplorerConfig,
) -> (UnitOutput, Option<RealizedTrace>) {
    let mut detector = prefix.detector.fork();
    let vm = Vm::resume(module, prefix.snap.clone());
    let (outcome, trace) = match record_hint {
        Some(hint) => {
            let mut rec = RecordingScheduler::new(sched, DEDUP_TRACE_CAP, hint);
            let outcome = vm.run(&mut rec, &mut detector);
            let trace = RealizedTrace {
                calls: rec.calls,
                signature: rec.signature,
                truncated: rec.truncated,
            };
            (outcome, Some(trace))
        }
        None => (vm.run(sched.as_mut(), &mut detector), None),
    };
    let mut out = UnitOutput::finish(module, detector, outcome);
    out.forked = cfg.fork;
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
///
/// Inputs are swept in order. The calling thread runs each input's
/// shared prefix and its pilot; the input's remaining seeds then run
/// through one claim loop, on the calling thread (`workers <= 1`) or
/// on a scoped pool.
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
    // Units in sweep order: input `i`'s seed `k` is unit
    // `i * per_input + k`.
    let per_input = cfg.runs_per_input as usize;
    let claim = Mutex::new(Claim {
        next: 0,
        deadline_hit: false,
    });
    let slots: Vec<Mutex<Option<UnitOutput>>> = (0..inputs.len() * per_input)
        .map(|_| Mutex::new(None))
        .collect();
    // Claims the next unit, refusing to cross `limit` (the end of the
    // current input — later inputs' prefixes have not run yet).
    let try_claim = |limit: usize| -> Option<usize> {
        let mut c = claim.lock().unwrap_or_else(PoisonError::into_inner);
        if c.next >= limit {
            return None;
        }
        if let Some(d) = deadline {
            if c.next > 0 && start.elapsed() >= d {
                c.deadline_hit = true;
                return None;
            }
        }
        c.next += 1;
        Some(c.next - 1)
    };
    let fill = |i: usize, out: UnitOutput| {
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    };
    for (input_idx, input) in inputs.iter().enumerate() {
        let Some(first) = try_claim(slots.len()) else {
            break;
        };
        debug_assert_eq!(first, input_idx * per_input);
        let limit = first + per_input;
        match run_prefix(module, entry, input, cfg) {
            PrefixResult::Finished(template) => {
                // The whole execution was forced: every later seed is
                // marched through the same singleton picks, so one
                // execution serves all of them.
                let steps = template.outcome.steps;
                while let Some(i) = try_claim(limit) {
                    fill(i, template.reused(steps));
                }
                fill(first, *template);
            }
            PrefixResult::Forked(prefix, pilot_sched) => {
                let record =
                    cfg.fork.then(|| cfg.expected_steps.min(DEDUP_TRACE_CAP as u64) as usize);
                let (mut pilot, trace) = run_forked_unit(module, &prefix, pilot_sched, record, cfg);
                pilot.snapshot_bytes = prefix.bytes;
                // The dedup key: the pilot's complete suffix schedule.
                // A truncated one, or none (fork mode off), dedups
                // nothing.
                let key = trace.filter(|t| !t.truncated);
                let sweep = || {
                    while let Some(i) = try_claim(limit) {
                        let seed = cfg.base_seed + (i - first) as u64;
                        let deduped = key
                            .as_ref()
                            .is_some_and(|t| matches_trace(prefix.sched(cfg, seed).as_mut(), t));
                        let out = if deduped {
                            pilot.reused(prefix.steps)
                        } else {
                            let (mut out, _) =
                                run_forked_unit(module, &prefix, prefix.sched(cfg, seed), None, cfg);
                            out.prefix_steps_saved = prefix.steps;
                            out
                        };
                        fill(i, out);
                    }
                };
                let workers = cfg.workers.max(1).min(per_input.saturating_sub(1).max(1));
                if workers <= 1 {
                    sweep();
                } else {
                    std::thread::scope(|s| {
                        for _ in 0..workers {
                            s.spawn(sweep);
                        }
                    });
                }
                fill(first, pilot);
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

    // Deterministic merge, in unit order. Claims are a prefix, so the
    // first empty slot ends the completed range.
    let mut merged = ExploreResult::default();
    let mut by_key: FxHashMap<(InstRef, InstRef), usize> = FxHashMap::default();
    for slot in slots {
        let Some(unit) = slot.into_inner().unwrap_or_else(PoisonError::into_inner) else {
            break;
        };
        merged.runs += 1;
        merged.suppressed += unit.suppressed;
        merged.reports_dropped += unit.reports_dropped;
        merged.injected_faults += unit.outcome.injected_faults.len() as u64;
        merged.events_elided += unit.events_elided;
        merged.shadow_cells_gced += unit.cells_gced;
        merged.predict_candidates += unit.predict.candidates;
        merged.predict_witnessed += unit.predict.witnessed;
        merged.predict_witness_rejected += unit.predict.witness_rejected;
        merged.predict_reversal_races += unit.predict.reversal_races;
        merged.predict_capped += unit.predict.capped;
        merged.units_forked += u64::from(unit.forked);
        merged.prefix_steps_saved += unit.prefix_steps_saved;
        merged.schedules_deduped += u64::from(unit.deduped);
        merged.snapshot_bytes += unit.snapshot_bytes;
        merged.outcomes.push(unit.outcome);
        // Reports stay in discovery order (unit order, then
        // within-unit detection order); downstream consumers treat the
        // first report on a global as the representative one.
        for r in unit.reports {
            match by_key.entry(r.key()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(merged.reports.len());
                    merged.reports.push(r);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    // Keep the first unit's report, but adopt a read
                    // hint from a later duplicate if it has one and
                    // the kept report does not.
                    let kept = &mut merged.reports[*e.get()];
                    if kept.read_hint.is_none() {
                        kept.read_hint = r.read_hint;
                    }
                }
            }
        }
    }
    merged.deadline_hit = claim
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .deadline_hit;
    merged
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
        // A fork at instruction zero reports all fork counters as zero.
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
        let run = |workers: usize| {
            explore(
                &m,
                main,
                &[],
                &ExplorerConfig {
                    runs_per_input: 12,
                    workers,
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
                    r.shadow_cells_gced,
                    r.units_forked,
                    r.prefix_steps_saved,
                    r.schedules_deduped,
                    r.snapshot_bytes
                ),
                (
                    one.runs,
                    one.shadow_cells_gced,
                    one.units_forked,
                    one.prefix_steps_saved,
                    one.schedules_deduped,
                    one.snapshot_bytes
                ),
                "workers {workers}"
            );
        }
    }
}
