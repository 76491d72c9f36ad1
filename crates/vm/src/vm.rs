//! The concurrent interpreter.
//!
//! Executes an [`owl_ir::Module`] with instruction-granularity
//! preemption under a pluggable [`Scheduler`], emitting [`TraceEvent`]s
//! for detectors and honouring [`Breakpoint`]s for verifiers. This is
//! the substrate that substitutes for native pthread execution, TSan
//! instrumentation hooks, LLDB control, and SKI's QEMU-level schedule
//! control in the original system.

use crate::breakpoint::{
    BreakDecision, BreakWorld, Breakpoint, Controller, NoController, PendingAccess, Suspension,
};
use crate::event::{CallStack, EventKind, NullSink, ThreadId, TraceEvent, TraceSink};
use crate::fault::{FaultKind, FaultPlan, FaultRecord, FaultState};
use crate::input::ProgramInput;
use crate::mem::{MemError, Memory, FUNCPTR_BASE};
use crate::sched::Scheduler;
use crate::sites::SiteSet;
use crate::violation::{SecurityEvent, SecurityRecord, Violation, ViolationRecord};
use owl_ir::{
    BinOp, BlockId, Callee, FuncId, FxHashSet, Inst, InstId, InstRef, Module, Operand, Pred, Type,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Execution limits and switches.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunConfig {
    /// Hard cap on executed instructions (livelock guard).
    pub max_steps: u64,
    /// Cap on any single `IoDelay` amount.
    pub io_delay_cap: u64,
    /// Record the scheduler's choice sequence for replay.
    pub record_schedule: bool,
    /// Seeded fault-injection plan ([`FaultPlan::none`] by default:
    /// nothing fires, no RNG is consumed, execution is bit-identical
    /// to a build without the fault layer).
    pub fault: FaultPlan,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_steps: 500_000,
            io_delay_cap: 2_000,
            record_schedule: true,
            fault: FaultPlan::none(),
        }
    }
}

/// How an execution ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExitStatus {
    /// Every thread ran to completion (possibly with recorded
    /// violations).
    Finished,
    /// Threads remain but none can ever run again.
    Deadlock,
    /// The step limit was exhausted.
    StepLimit,
}

/// Why a thread can never run again (deadlock diagnosis).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WaitReason {
    /// Blocked acquiring the mutex at `addr`, currently held by
    /// `owner`.
    Mutex {
        /// Mutex cell address.
        addr: u64,
        /// Current owner, if any.
        owner: Option<ThreadId>,
    },
    /// Waiting to join `child`.
    Join {
        /// The thread being joined.
        child: ThreadId,
    },
    /// Asleep on the condition variable at `cv` with no signal coming.
    CondVar {
        /// Condition-variable cell address.
        cv: u64,
    },
}

/// One stuck thread in a deadlock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitInfo {
    /// The stuck thread.
    pub tid: ThreadId,
    /// What it waits for.
    pub reason: WaitReason,
    /// The instruction it is stuck at, when resolvable.
    pub site: Option<InstRef>,
}

/// Diagnosis attached to [`ExitStatus::Deadlock`] outcomes.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadlockInfo {
    /// Every thread that can never run again, with its wait reason.
    pub waiting: Vec<WaitInfo>,
}

/// Everything observable about one execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecOutcome {
    /// Termination class.
    pub status: ExitStatus,
    /// Instructions executed.
    pub steps: u64,
    /// `Output` records as `(channel, value)` in execution order.
    pub outputs: Vec<(i64, i64)>,
    /// Mechanical violations detected.
    pub violations: Vec<ViolationRecord>,
    /// Security-relevant actions (privilege, file, exec).
    pub security: Vec<SecurityRecord>,
    /// Per-descriptor file contents written via `FileAccess`.
    pub files: BTreeMap<i64, Vec<i64>>,
    /// Final privilege level (initially [`ExecOutcome::DEFAULT_PRIVILEGE`]).
    pub privilege: i64,
    /// Scheduler choices (for [`crate::ReplayScheduler`]).
    pub schedule: Vec<ThreadId>,
    /// Total threads ever created (including main).
    pub threads_spawned: u32,
    /// Return value of the entry function, if it finished.
    pub return_value: Option<i64>,
    /// Populated when `status == ExitStatus::Deadlock`.
    pub deadlock: Option<DeadlockInfo>,
    /// Every fault the configured [`FaultPlan`] injected, in order.
    pub injected_faults: Vec<FaultRecord>,
}

impl ExecOutcome {
    /// Privilege level before any `SetPrivilege` (1000 = unprivileged).
    pub const DEFAULT_PRIVILEGE: i64 = 1000;

    /// Whether any recorded violation satisfies `pred`.
    pub fn any_violation(&self, mut pred: impl FnMut(&Violation) -> bool) -> bool {
        self.violations.iter().any(|r| pred(&r.violation))
    }

    /// First violation record satisfying `pred`.
    pub fn find_violation(
        &self,
        mut pred: impl FnMut(&Violation) -> bool,
    ) -> Option<&ViolationRecord> {
        self.violations.iter().find(|r| pred(&r.violation))
    }

    /// Values written to file descriptor `fd`.
    pub fn file(&self, fd: i64) -> &[i64] {
        self.files.get(&fd).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether an `Exec` of `cmd` happened.
    pub fn executed(&self, cmd: i64) -> bool {
        self.security
            .iter()
            .any(|s| s.event == SecurityEvent::Exec { cmd })
    }
}

#[derive(Clone, Debug)]
struct Frame {
    func: FuncId,
    block: BlockId,
    /// Index into the block's instruction list.
    idx: usize,
    regs: Vec<Option<i64>>,
    args: Vec<i64>,
    /// Call instruction in the *caller* frame to receive our return
    /// value.
    call_inst: Option<InstId>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    Blocked {
        mutex: u64,
    },
    Joining {
        child: ThreadId,
    },
    Delayed {
        until: u64,
    },
    /// Asleep on a condition variable.
    WaitingCond {
        cv: u64,
    },
    Suspended,
    Finished,
}

#[derive(Clone, Debug)]
struct Thread {
    state: ThreadState,
    frames: Vec<Frame>,
    /// Skip breakpoint matching for the next fetch (set on resume).
    skip_bp: bool,
    /// `CondWait` phase flag: the next execution of the wait
    /// instruction re-acquires the mutex instead of releasing it.
    cond_reacquire: bool,
    stack_cache: Option<CallStack>,
}

#[derive(Clone, Debug)]
struct MutexState {
    owner: Option<ThreadId>,
}

/// A resumable copy of a paused [`Vm`]'s complete deterministic
/// machine state: thread frames and block cursors, the word-addressed
/// memory (CoW-shared with the live VM until either side writes), the
/// mutex table, pending suspensions and breakpoints, the remaining
/// program input, the fault plan with its RNG mid-state and records
/// so far, the elision map, the step counter, and the partial outcome
/// (outputs, violations, schedule prefix, …).
///
/// Cheap to take and to clone: region payloads and call-stack caches
/// are `Arc`-shared, so the cost is O(live regions + frames), not
/// O(heap words). Pair with [`Vm::resume`]; the module passed there
/// must be the module the snapshotted VM was executing (checked by
/// name).
#[derive(Clone, Debug)]
pub struct Snapshot {
    module_name: String,
    mem: Memory,
    threads: Vec<Thread>,
    mutexes: BTreeMap<u64, MutexState>,
    suspended: BTreeMap<ThreadId, Suspension>,
    breakpoints: Vec<Breakpoint>,
    input: ProgramInput,
    config: RunConfig,
    faults: FaultState,
    elided: Option<Arc<FxHashSet<InstRef>>>,
    step: u64,
    outcome: ExecOutcome,
}

impl Snapshot {
    /// Step counter at the pause point.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Approximate heap bytes this snapshot uniquely owns. CoW-shared
    /// payloads (region words, stack caches) are excluded: until one
    /// side writes, they cost one `Arc` handle, which is counted in
    /// the per-region/per-frame overhead.
    pub fn approx_bytes(&self) -> u64 {
        let threads: u64 = self
            .threads
            .iter()
            .map(|t| {
                64 + t
                    .frames
                    .iter()
                    .map(|f| 48 + (f.regs.len() as u64) * 9 + (f.args.len() as u64) * 8)
                    .sum::<u64>()
            })
            .sum();
        let outcome = (self.outcome.outputs.len() as u64) * 16
            + (self.outcome.violations.len() as u64) * 64
            + (self.outcome.security.len() as u64) * 32
            + (self.outcome.schedule.len() as u64) * 4
            + (self.outcome.injected_faults.len() as u64) * 48
            + self
                .outcome
                .files
                .values()
                .map(|v| 24 + (v.len() as u64) * 8)
                .sum::<u64>();
        256 + self.mem.approx_index_bytes()
            + threads
            + (self.mutexes.len() as u64) * 24
            + (self.suspended.len() as u64) * 96
            + (self.breakpoints.len() as u64) * 48
            + outcome
    }
}

/// Where [`Vm::run_loop_inner`] may leave the interpreter loop early.
enum Pause {
    /// Run to termination.
    Never,
    /// Pause at the first scheduling point where ≥ 2 threads could
    /// interleave.
    Concurrent,
    /// Pause once the step counter reaches the given value.
    AtStep(u64),
}

/// Opt-in fetched-site recording for [`Vm::run_recording`].
struct FetchRecorder {
    /// Every site any thread fetched.
    sites: SiteSet,
    /// Fetches that matched an armed breakpoint, hit or dropped.
    bp_matches: u64,
}

/// The virtual machine for one execution.
pub struct Vm<'m> {
    module: &'m Module,
    mem: Memory,
    threads: Vec<Thread>,
    mutexes: BTreeMap<u64, MutexState>,
    suspended: BTreeMap<ThreadId, Suspension>,
    breakpoints: Vec<Breakpoint>,
    input: ProgramInput,
    config: RunConfig,
    faults: FaultState,
    /// Sites the static check-elision pre-pass proved race-free:
    /// events emitted from them carry [`TraceEvent::no_shadow`].
    elided: Option<Arc<FxHashSet<InstRef>>>,
    step: u64,
    outcome: ExecOutcome,
    /// Set only for the duration of [`Vm::run_recording`], so never
    /// part of a [`Snapshot`].
    recorder: Option<FetchRecorder>,
    /// Some thread changed state (or was spawned) since the interpreter
    /// loop last built its runnable list. Set by [`Vm::set_state`].
    runnable_stale: bool,
    /// No delayed thread is due before this step: a lower bound on
    /// every `Delayed { until }`, lowered by [`Vm::set_state`] and made
    /// exact by [`Vm::wake_delayed`].
    next_wake: u64,
}

impl std::fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("module", &self.module.name)
            .field("step", &self.step)
            .field("threads", &self.threads.len())
            .finish_non_exhaustive()
    }
}

impl<'m> Vm<'m> {
    /// Prepares an execution of `module` starting at `entry` (a
    /// zero-parameter function) with the given `input`.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is external or takes parameters.
    pub fn new(module: &'m Module, entry: FuncId, input: ProgramInput, config: RunConfig) -> Self {
        let f = module.func(entry);
        assert!(f.is_internal, "entry must be internal");
        assert_eq!(f.num_params, 0, "entry must take no parameters");
        let main = Thread {
            state: ThreadState::Runnable,
            frames: vec![Frame {
                func: entry,
                block: BlockId(0),
                idx: 0,
                regs: vec![None; f.insts.len()],
                args: vec![],
                call_inst: None,
            }],
            skip_bp: false,
            cond_reacquire: false,
            stack_cache: None,
        };
        let faults = FaultState::new(config.fault.clone(), config.max_steps);
        Vm {
            module,
            mem: Memory::new(module),
            threads: vec![main],
            mutexes: BTreeMap::new(),
            suspended: BTreeMap::new(),
            breakpoints: Vec::new(),
            input,
            config,
            faults,
            elided: None,
            step: 0,
            outcome: ExecOutcome {
                status: ExitStatus::Finished,
                steps: 0,
                outputs: vec![],
                violations: vec![],
                security: vec![],
                files: BTreeMap::new(),
                privilege: ExecOutcome::DEFAULT_PRIVILEGE,
                schedule: vec![],
                threads_spawned: 1,
                return_value: None,
                deadlock: None,
                injected_faults: vec![],
            },
            recorder: None,
            runnable_stale: true,
            next_wake: 0,
        }
    }

    /// Installs a breakpoint before running.
    pub fn add_breakpoint(&mut self, bp: Breakpoint) {
        self.breakpoints.push(bp);
    }

    /// Installs the statically-proven race-free sites. Events emitted
    /// at these sites are stamped [`TraceEvent::no_shadow`], letting
    /// shadow-memory detector backends skip their per-access work.
    /// Execution itself is unchanged: the same schedule yields the
    /// same trace modulo the stamp.
    pub fn with_elided_sites(mut self, sites: Arc<FxHashSet<InstRef>>) -> Self {
        self.elided = Some(sites);
        self
    }

    /// Runs to completion with no breakpoints/controller.
    pub fn run(mut self, sched: &mut dyn Scheduler, sink: &mut dyn TraceSink) -> ExecOutcome {
        self.run_loop_inner(sched, sink, &mut NoController, Pause::Never);
        self.take_outcome()
    }

    /// Runs to completion under `controller` (verifier mode).
    pub fn run_controlled(
        mut self,
        sched: &mut dyn Scheduler,
        sink: &mut dyn TraceSink,
        controller: &mut dyn Controller,
    ) -> ExecOutcome {
        self.run_loop_inner(sched, sink, controller, Pause::Never);
        self.take_outcome()
    }

    /// [`Vm::run_controlled`], recording every instruction site any
    /// thread fetched into `sites`, which is emptied and laid out for
    /// this VM's module first, so one buffer serves many runs.
    ///
    /// The set is returned only when no fetch matched an armed
    /// breakpoint, whether the hit reached the controller or a
    /// dropped-breakpoint fault swallowed it. Such a run executed step
    /// for step like the same run with no breakpoints at all: same
    /// scheduler picks, same fault draws, same outcome. So would the
    /// same run under any other breakpoints whose sites are all outside
    /// the returned set.
    pub fn run_recording<'s>(
        mut self,
        sched: &mut dyn Scheduler,
        sink: &mut dyn TraceSink,
        controller: &mut dyn Controller,
        sites: &'s mut SiteSet,
    ) -> (ExecOutcome, Option<&'s SiteSet>) {
        sites.reset(self.module);
        self.recorder = Some(FetchRecorder {
            sites: std::mem::take(sites),
            bp_matches: 0,
        });
        self.run_loop_inner(sched, sink, controller, Pause::Never);
        let rec = self.recorder.take().expect("recorder installed above");
        *sites = rec.sites;
        let outcome = self.take_outcome();
        (outcome, (rec.bp_matches == 0).then_some(&*sites))
    }

    /// Runs until the first scheduling point where at least two
    /// threads could interleave (see `Vm::concurrency_potential` for
    /// the exact — deliberately conservative — predicate). Up to that
    /// point every scheduler pick is a forced singleton, so the
    /// executed prefix is identical for *any* scheduler seed.
    ///
    /// Returns `Some(outcome)` if the program terminated without ever
    /// reaching such a point (single-threaded programs). Returns
    /// `None` if the VM paused: take a [`Vm::snapshot`], then continue
    /// this VM (or any [`Vm::resume`]d copy) with [`Vm::run`].
    pub fn run_until_concurrent(
        &mut self,
        sched: &mut dyn Scheduler,
        sink: &mut dyn TraceSink,
    ) -> Option<ExecOutcome> {
        if self.run_loop_inner(sched, sink, &mut NoController, Pause::Concurrent) {
            None
        } else {
            Some(self.take_outcome())
        }
    }

    /// Runs until the step counter reaches `step` (pausing at the next
    /// iteration boundary), or to termination, whichever comes first.
    /// Same pause semantics as [`Vm::run_until_concurrent`]; exists so
    /// snapshot/resume can be exercised at arbitrary points.
    pub fn run_until_step(
        &mut self,
        sched: &mut dyn Scheduler,
        sink: &mut dyn TraceSink,
        step: u64,
    ) -> Option<ExecOutcome> {
        if self.run_loop_inner(sched, sink, &mut NoController, Pause::AtStep(step)) {
            None
        } else {
            Some(self.take_outcome())
        }
    }

    /// Captures the complete machine state at the current pause point.
    /// Meaningful after [`Vm::run_until_concurrent`] /
    /// [`Vm::run_until_step`] returned `None` (or before the first
    /// step); region payloads are CoW-shared, so the copy is cheap.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            module_name: self.module.name.clone(),
            mem: self.mem.clone(),
            threads: self.threads.clone(),
            mutexes: self.mutexes.clone(),
            suspended: self.suspended.clone(),
            breakpoints: self.breakpoints.clone(),
            input: self.input.clone(),
            config: self.config.clone(),
            faults: self.faults.clone(),
            elided: self.elided.clone(),
            step: self.step,
            outcome: self.outcome.clone(),
        }
    }

    /// Reconstructs a VM from `snap`, ready to continue exactly where
    /// the snapshotted VM paused — same step counter, same pending
    /// fault RNG state, same partial outcome.
    ///
    /// # Panics
    ///
    /// Panics if `module` is not the module the snapshot was taken
    /// from (compared by name).
    pub fn resume(module: &'m Module, snap: Snapshot) -> Vm<'m> {
        assert_eq!(
            module.name, snap.module_name,
            "snapshot resumed against a different module"
        );
        Vm {
            module,
            mem: snap.mem,
            threads: snap.threads,
            mutexes: snap.mutexes,
            suspended: snap.suspended,
            breakpoints: snap.breakpoints,
            input: snap.input,
            config: snap.config,
            faults: snap.faults,
            elided: snap.elided,
            step: snap.step,
            outcome: snap.outcome,
            recorder: None,
            runnable_stale: true,
            next_wake: 0,
        }
    }

    /// Upper bound on the number of threads that could interleave at
    /// the next scheduling point: runnable threads, delayed threads
    /// already due, suspended threads (a controller may resume them),
    /// and — only when spurious wakeups are enabled — condition
    /// waiters. Over-counting is safe (a prefix-sharing explorer just
    /// forks earlier than strictly necessary); under-counting never
    /// happens, which is what makes every pre-pause pick a forced
    /// singleton.
    fn concurrency_potential(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| match t.state {
                ThreadState::Runnable | ThreadState::Suspended => true,
                ThreadState::Delayed { until } => until <= self.step,
                ThreadState::WaitingCond { .. } => self.faults.plan.spurious_wakeup_rate > 0.0,
                ThreadState::Blocked { .. } | ThreadState::Joining { .. } => false,
                ThreadState::Finished => false,
            })
            .count()
    }

    /// Finalizes and takes the outcome after the loop terminated.
    fn take_outcome(&mut self) -> ExecOutcome {
        self.outcome.steps = self.step;
        self.outcome.injected_faults = std::mem::take(&mut self.faults.records);
        std::mem::replace(
            &mut self.outcome,
            ExecOutcome {
                status: ExitStatus::Finished,
                steps: 0,
                outputs: vec![],
                violations: vec![],
                security: vec![],
                files: BTreeMap::new(),
                privilege: ExecOutcome::DEFAULT_PRIVILEGE,
                schedule: vec![],
                threads_spawned: 0,
                return_value: None,
                deadlock: None,
                injected_faults: vec![],
            },
        )
    }

    /// Convenience: run with the default config and a [`NullSink`].
    pub fn run_quiet(
        module: &'m Module,
        entry: FuncId,
        input: ProgramInput,
        sched: &mut dyn Scheduler,
    ) -> ExecOutcome {
        Vm::new(module, entry, input, RunConfig::default()).run(sched, &mut NullSink)
    }

    /// The interpreter loop. Returns `true` if execution paused at a
    /// resumable boundary (per `pause`) rather than terminating.
    ///
    /// Pausing happens at the very top of an iteration — before the
    /// budget check, any delayed-thread wake, and any fault-RNG draw —
    /// so a paused VM (or a [`Snapshot`] of it) re-executes the whole
    /// iteration prologue exactly once on resume, byte-identical to an
    /// uninterrupted run. Only termination finalizes the outcome (via
    /// [`Vm::take_outcome`]); a paused VM keeps accumulating into the
    /// same partial outcome.
    ///
    /// Most steps change no thread's state, so the runnable list is
    /// rebuilt only when [`Vm::set_state`] marked it stale, and delayed
    /// threads are scanned only once the earliest deadline is due.
    fn run_loop_inner(
        &mut self,
        sched: &mut dyn Scheduler,
        sink: &mut dyn TraceSink,
        controller: &mut dyn Controller,
        pause: Pause,
    ) -> bool {
        let mut runnable: Vec<ThreadId> = Vec::new();
        self.runnable_stale = true;
        loop {
            match pause {
                Pause::Never => {}
                Pause::Concurrent => {
                    if self.concurrency_potential() >= 2 {
                        return true;
                    }
                }
                Pause::AtStep(at) => {
                    if self.step >= at {
                        return true;
                    }
                }
            }
            // A drawn step-exhaustion fault shrinks the budget.
            let budget = match self.faults.cutoff {
                Some(c) => c.min(self.config.max_steps),
                None => self.config.max_steps,
            };
            if self.step >= budget {
                if budget < self.config.max_steps {
                    self.faults
                        .record(FaultKind::StepExhaustion, self.step, None, None);
                }
                self.outcome.status = ExitStatus::StepLimit;
                break;
            }
            if self.step >= self.next_wake {
                self.wake_delayed();
            }
            // Spurious wakeup: rouse one condition-waiting thread with
            // no signal. `cond_reacquire` is already set, so the thread
            // re-checks its predicate exactly like a real POSIX
            // spurious wakeup.
            if self.faults.plan.spurious_wakeup_rate > 0.0 {
                if let Some(i) = self
                    .threads
                    .iter()
                    .position(|t| matches!(t.state, ThreadState::WaitingCond { .. }))
                {
                    if self.faults.fire_wakeup(self.step) {
                        let wtid = ThreadId(i as u32);
                        self.set_state(wtid, ThreadState::Runnable);
                        let wsite = self.cur_site(wtid).map(|(s, _)| s);
                        self.faults
                            .record(FaultKind::SpuriousWakeup, self.step, Some(wtid), wsite);
                        if let Some(s) = wsite {
                            self.emit(
                                sink,
                                wtid,
                                s,
                                EventKind::Fault {
                                    kind: FaultKind::SpuriousWakeup,
                                },
                            );
                        }
                    }
                }
            }
            if std::mem::take(&mut self.runnable_stale) {
                runnable.clear();
                runnable.extend(
                    self.threads
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.state == ThreadState::Runnable)
                        .map(|(i, _)| ThreadId(i as u32)),
                );
            }
            if runnable.is_empty() {
                if self
                    .threads
                    .iter()
                    .all(|t| t.state == ThreadState::Finished)
                {
                    self.outcome.status = ExitStatus::Finished;
                    break;
                }
                // Fast-forward to the next delayed wakeup, if any.
                if let Some(until) = self
                    .threads
                    .iter()
                    .filter_map(|t| match t.state {
                        ThreadState::Delayed { until } => Some(until),
                        _ => None,
                    })
                    .min()
                {
                    self.step = until;
                    continue;
                }
                // Livelock: suspended threads are holding everyone up.
                if !self.suspended.is_empty() {
                    let choice = {
                        let mut resume = Vec::new();
                        let mut world = BreakWorld {
                            suspended: &self.suspended,
                            breakpoints: &mut self.breakpoints,
                            resume: &mut resume,
                        };
                        let picked = controller.on_stall(&mut world);
                        resume.extend(picked);
                        resume
                    };
                    let to_release = if choice.is_empty() {
                        // Automatic livelock resolution: release the
                        // oldest suspension (§5.2).
                        self.suspended
                            .values()
                            .min_by_key(|s| s.step)
                            .map(|s| s.tid)
                            .into_iter()
                            .collect()
                    } else {
                        choice
                    };
                    for tid in to_release {
                        self.resume_thread(tid);
                    }
                    continue;
                }
                self.outcome.status = ExitStatus::Deadlock;
                self.outcome.deadlock = Some(self.diagnose_deadlock());
                break;
            }

            let tid = sched.pick(&runnable, self.step);
            debug_assert!(
                runnable.contains(&tid),
                "scheduler picked unrunnable thread"
            );
            // Scheduler perturbation: park the pick instead of running
            // it. The step still advances (livelock guard) and the
            // choice is not recorded (a replay would diverge anyway).
            if self.faults.fire_sched_delay(self.step) {
                let dsite = self.cur_site(tid).map(|(s, _)| s);
                self.faults
                    .record(FaultKind::SchedDelay, self.step, Some(tid), dsite);
                if let Some(s) = dsite {
                    self.emit(
                        sink,
                        tid,
                        s,
                        EventKind::Fault {
                            kind: FaultKind::SchedDelay,
                        },
                    );
                }
                self.step += 1;
                let until = self.step + self.faults.plan.sched_delay_steps;
                self.set_state(tid, ThreadState::Delayed { until });
                continue;
            }
            if self.config.record_schedule {
                self.outcome.schedule.push(tid);
            }
            self.step += 1;
            self.exec_one(tid, sink, controller);
        }
        false
    }

    /// Builds the per-thread wait diagnosis for a deadlock.
    fn diagnose_deadlock(&self) -> DeadlockInfo {
        let mut waiting = Vec::new();
        for (i, t) in self.threads.iter().enumerate() {
            let tid = ThreadId(i as u32);
            let reason = match t.state {
                ThreadState::Blocked { mutex } => WaitReason::Mutex {
                    addr: mutex,
                    owner: self.mutexes.get(&mutex).and_then(|m| m.owner),
                },
                ThreadState::Joining { child } => WaitReason::Join { child },
                ThreadState::WaitingCond { cv } => WaitReason::CondVar { cv },
                _ => continue,
            };
            waiting.push(WaitInfo {
                tid,
                reason,
                site: self.cur_site(tid).map(|(r, _)| r),
            });
        }
        DeadlockInfo { waiting }
    }

    /// Moves `tid` to `state`. Every thread-state change goes through
    /// here, so the interpreter loop knows when its runnable list is
    /// stale and when a delayed thread may be due.
    fn set_state(&mut self, tid: ThreadId, state: ThreadState) {
        self.threads[tid.index()].state = state;
        self.runnable_stale = true;
        if let ThreadState::Delayed { until } = state {
            self.next_wake = self.next_wake.min(until);
        }
    }

    /// Makes every thread in state `waiting` runnable.
    fn wake_all(&mut self, waiting: ThreadState) {
        for i in 0..self.threads.len() {
            if self.threads[i].state == waiting {
                self.set_state(ThreadId(i as u32), ThreadState::Runnable);
            }
        }
    }

    /// Wakes every delayed thread whose deadline has passed, and sets
    /// `next_wake` to the earliest deadline still pending.
    fn wake_delayed(&mut self) {
        let mut next = u64::MAX;
        for i in 0..self.threads.len() {
            if let ThreadState::Delayed { until } = self.threads[i].state {
                if until <= self.step {
                    self.set_state(ThreadId(i as u32), ThreadState::Runnable);
                } else {
                    next = next.min(until);
                }
            }
        }
        self.next_wake = next;
    }

    fn resume_thread(&mut self, tid: ThreadId) {
        if self.suspended.remove(&tid).is_some()
            && self.threads[tid.index()].state == ThreadState::Suspended
        {
            self.set_state(tid, ThreadState::Runnable);
            self.threads[tid.index()].skip_bp = true;
        }
    }

    fn call_stack(&mut self, tid: ThreadId) -> CallStack {
        let t = &mut self.threads[tid.index()];
        if let Some(s) = &t.stack_cache {
            return Arc::clone(s);
        }
        // Each frame's call_inst refers to an instruction in the
        // caller's function, which is the previous frame's func.
        let mut frames: Vec<InstRef> = Vec::with_capacity(t.frames.len());
        for i in 1..t.frames.len() {
            let caller_func = t.frames[i - 1].func;
            if let Some(ci) = t.frames[i].call_inst {
                frames.push(InstRef::new(caller_func, ci));
            }
        }
        let stack: CallStack = Arc::from(frames.into_boxed_slice());
        t.stack_cache = Some(Arc::clone(&stack));
        stack
    }

    fn invalidate_stack(&mut self, tid: ThreadId) {
        self.threads[tid.index()].stack_cache = None;
    }

    fn cur_site(&self, tid: ThreadId) -> Option<(InstRef, InstId)> {
        let t = &self.threads[tid.index()];
        let frame = t.frames.last()?;
        let f = self.module.func(frame.func);
        let block = &f.blocks[frame.block.index()];
        let inst_id = *block.insts.get(frame.idx)?;
        Some((InstRef::new(frame.func, inst_id), inst_id))
    }

    fn eval(&self, tid: ThreadId, op: Operand) -> Result<i64, Violation> {
        let frame = self.threads[tid.index()].frames.last().expect("no frame");
        match op {
            Operand::Const(c) => Ok(c),
            Operand::Value(v) => frame.regs[v.index()].ok_or(Violation::UndefinedValue),
            Operand::Param(p) => frame
                .args
                .get(p as usize)
                .copied()
                .ok_or(Violation::UndefinedValue),
        }
    }

    fn set_reg(&mut self, tid: ThreadId, inst: InstId, val: i64) {
        let frame = self.threads[tid.index()]
            .frames
            .last_mut()
            .expect("no frame");
        frame.regs[inst.index()] = Some(val);
    }

    fn record_violation(&mut self, tid: ThreadId, v: Violation, site: InstRef) -> bool {
        let stack = self.call_stack(tid);
        self.outcome.violations.push(ViolationRecord {
            violation: v,
            tid,
            site,
            stack,
            step: self.step,
        });
        if v.is_fatal() {
            self.finish_thread(tid, None);
            true
        } else {
            false
        }
    }

    fn finish_thread(&mut self, tid: ThreadId, ret: Option<i64>) {
        self.set_state(tid, ThreadState::Finished);
        self.threads[tid.index()].frames.clear();
        if tid == ThreadId::MAIN {
            self.outcome.return_value = ret;
        }
        self.wake_all(ThreadState::Joining { child: tid });
    }

    fn emit(&mut self, sink: &mut dyn TraceSink, tid: ThreadId, site: InstRef, kind: EventKind) {
        let stack = self.call_stack(tid);
        // The elision map only ever contains plain load/store sites,
        // so the stamp lands exclusively on their Read/Write events.
        let no_shadow = matches!(kind, EventKind::Read { .. } | EventKind::Write { .. })
            && self.elided.as_ref().is_some_and(|s| s.contains(&site));
        sink.on_event_owned(TraceEvent {
            step: self.step,
            tid,
            site,
            stack,
            kind,
            no_shadow,
        });
    }

    /// Computes the pending access for breakpoint hints (side-effect
    /// free).
    fn pending_access(&self, tid: ThreadId, inst: &Inst) -> Option<PendingAccess> {
        let eval = |op: Operand| self.eval(tid, op).ok();
        let word = |a: u64| self.mem.load(a).ok().map(|w| w.value);
        match inst {
            Inst::Load { addr, ty } => {
                let a = eval(*addr)? as u64;
                Some(PendingAccess {
                    addr: a,
                    is_write: false,
                    value_to_write: None,
                    current_value: word(a),
                    ty: *ty,
                })
            }
            Inst::AtomicLoad { addr } => {
                let a = eval(*addr)? as u64;
                Some(PendingAccess {
                    addr: a,
                    is_write: false,
                    value_to_write: None,
                    current_value: word(a),
                    ty: Type::I64,
                })
            }
            Inst::Store { addr, val } | Inst::AtomicStore { addr, val } => {
                let a = eval(*addr)? as u64;
                Some(PendingAccess {
                    addr: a,
                    is_write: true,
                    value_to_write: eval(*val),
                    current_value: word(a),
                    ty: Type::I64,
                })
            }
            Inst::MemCopy { dst, .. } => {
                let a = eval(*dst)? as u64;
                Some(PendingAccess {
                    addr: a,
                    is_write: true,
                    value_to_write: None,
                    current_value: word(a),
                    ty: Type::Ptr,
                })
            }
            Inst::Free { ptr } => {
                let a = eval(*ptr)? as u64;
                Some(PendingAccess {
                    addr: a,
                    is_write: true,
                    value_to_write: None,
                    current_value: word(a),
                    ty: Type::Ptr,
                })
            }
            _ => None,
        }
    }

    /// Enters `target` block in the current frame: evaluates leading
    /// phis (simultaneously) and positions `idx` after them.
    fn enter_block(&mut self, tid: ThreadId, target: BlockId) {
        let from = {
            let frame = self.threads[tid.index()].frames.last().expect("no frame");
            frame.block
        };
        let func_id = self.threads[tid.index()].frames.last().unwrap().func;
        let f = self.module.func(func_id);
        let block = &f.blocks[target.index()];
        // Gather leading phi assignments first (simultaneous semantics).
        let mut assigns: Vec<(InstId, i64)> = Vec::new();
        let mut lead = 0usize;
        for &iid in &block.insts {
            if let Inst::Phi { incoming } = f.inst(iid) {
                lead += 1;
                let val = incoming
                    .iter()
                    .find(|(b, _)| *b == from)
                    .map(|(_, v)| *v)
                    .unwrap_or(Operand::Const(0));
                let v = self.eval(tid, val).unwrap_or(0);
                assigns.push((iid, v));
            } else {
                break;
            }
        }
        let frame = self.threads[tid.index()]
            .frames
            .last_mut()
            .expect("no frame");
        for (iid, v) in assigns {
            frame.regs[iid.index()] = Some(v);
        }
        frame.block = target;
        frame.idx = lead;
    }

    /// Executes one instruction of `tid` (or suspends at a breakpoint).
    fn exec_one(
        &mut self,
        tid: ThreadId,
        sink: &mut dyn TraceSink,
        controller: &mut dyn Controller,
    ) {
        let Some((site, inst_id)) = self.cur_site(tid) else {
            // Block exhausted without a terminator: structurally invalid,
            // but fail soft.
            self.finish_thread(tid, None);
            return;
        };
        if let Some(rec) = &mut self.recorder {
            rec.sites.insert(site);
        }
        // Borrowed from the module (`'m`), not from `self`: no
        // instruction clone per step.
        let module: &'m Module = self.module;
        let inst = module.inst(site);

        // Breakpoint check (before execution).
        let skip = std::mem::replace(&mut self.threads[tid.index()].skip_bp, false);
        if !skip && self.breakpoints.iter().any(|b| b.matches(site, tid)) {
            if let Some(rec) = &mut self.recorder {
                rec.bp_matches += 1;
            }
            // Dropped-hit fault: the controller never hears about this
            // match; execution falls through as if nothing was armed.
            if self.faults.fire_drop_bp(self.step) {
                self.faults.record(
                    FaultKind::DroppedBreakpoint,
                    self.step,
                    Some(tid),
                    Some(site),
                );
                self.emit(
                    sink,
                    tid,
                    site,
                    EventKind::Fault {
                        kind: FaultKind::DroppedBreakpoint,
                    },
                );
            } else {
                let hit = Suspension {
                    tid,
                    site,
                    access: self.pending_access(tid, inst),
                    stack: self.call_stack(tid),
                    step: self.step,
                };
                let mut resume = Vec::new();
                let decision = {
                    let mut world = BreakWorld {
                        suspended: &self.suspended,
                        breakpoints: &mut self.breakpoints,
                        resume: &mut resume,
                    };
                    controller.on_break(&mut world, &hit)
                };
                match decision {
                    BreakDecision::Suspend => {
                        self.set_state(tid, ThreadState::Suspended);
                        self.suspended.insert(tid, hit);
                        for r in resume {
                            self.resume_thread(r);
                        }
                        return;
                    }
                    BreakDecision::Continue => {
                        for r in resume {
                            self.resume_thread(r);
                        }
                        // Fall through and execute now.
                    }
                }
            }
        }

        // Helper macro-ish closures are awkward with borrowck; do it
        // longhand.
        macro_rules! eval {
            ($op:expr) => {
                match self.eval(tid, $op) {
                    Ok(v) => v,
                    Err(v) => {
                        self.record_violation(tid, v, site);
                        return;
                    }
                }
            };
        }
        macro_rules! advance {
            () => {{
                let frame = self.threads[tid.index()].frames.last_mut().unwrap();
                frame.idx += 1;
            }};
        }

        match *inst {
            Inst::Bin { op, a, b } => {
                let x = eval!(a);
                let y = eval!(b);
                let r = match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::SubU => {
                        let (r, wrapped) = (x as u64).overflowing_sub(y as u64);
                        if wrapped {
                            self.record_violation(
                                tid,
                                Violation::IntegerUnderflow { a: x, b: y },
                                site,
                            );
                        }
                        r as i64
                    }
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            self.record_violation(tid, Violation::DivByZero, site);
                            return;
                        }
                        x.wrapping_div(y)
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            self.record_violation(tid, Violation::DivByZero, site);
                            return;
                        }
                        x.wrapping_rem(y)
                    }
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                };
                self.set_reg(tid, inst_id, r);
                advance!();
            }
            Inst::Cmp { pred, a, b } => {
                let x = eval!(a);
                let y = eval!(b);
                let r = match pred {
                    Pred::Eq => x == y,
                    Pred::Ne => x != y,
                    Pred::Lt => x < y,
                    Pred::Le => x <= y,
                    Pred::Gt => x > y,
                    Pred::Ge => x >= y,
                    Pred::LtU => (x as u64) < (y as u64),
                };
                self.set_reg(tid, inst_id, i64::from(r));
                advance!();
            }
            Inst::GlobalAddr(g) => {
                let a = self.mem.global_addr(g) as i64;
                self.set_reg(tid, inst_id, a);
                advance!();
            }
            Inst::FuncAddr(f) => {
                self.set_reg(tid, inst_id, (FUNCPTR_BASE + f.0 as u64) as i64);
                advance!();
            }
            Inst::Alloca { size } => match self.mem.alloca(tid.0, u64::from(size)) {
                Ok(a) => {
                    self.set_reg(tid, inst_id, a as i64);
                    advance!();
                }
                Err(_) => {
                    let size = u64::from(size);
                    self.record_violation(tid, Violation::StackOverflow { size }, site);
                }
            },
            Inst::Malloc { size } => {
                let s = eval!(size).clamp(1, 1 << 20) as u64;
                let a = self.mem.malloc(s);
                self.emit(sink, tid, site, EventKind::Malloc { addr: a, size: s });
                self.set_reg(tid, inst_id, a as i64);
                advance!();
            }
            Inst::Free { ptr } => {
                let a = eval!(ptr) as u64;
                match self.mem.free(a) {
                    Ok(()) => {
                        self.emit(sink, tid, site, EventKind::Free { addr: a });
                    }
                    Err(MemError::DoubleFree { addr }) => {
                        self.record_violation(tid, Violation::DoubleFree { addr }, site);
                    }
                    Err(_) => {
                        self.record_violation(tid, Violation::InvalidFree { addr: a }, site);
                    }
                }
                advance!();
            }
            Inst::Load { addr, ty } => {
                let a = eval!(addr) as u64;
                // Injected memory fault: the load fails as a wild
                // access before touching memory.
                if self.faults.fire_mem(self.step) {
                    self.faults
                        .record(FaultKind::MemFault, self.step, Some(tid), Some(site));
                    self.emit(
                        sink,
                        tid,
                        site,
                        EventKind::Fault {
                            kind: FaultKind::MemFault,
                        },
                    );
                    self.record_violation(tid, Violation::WildAccess { addr: a }, site);
                    return;
                }
                match self.mem.load(a) {
                    Ok(w) => {
                        if let Some(region_base) = w.freed {
                            self.record_violation(
                                tid,
                                Violation::UseAfterFree {
                                    addr: a,
                                    region_base,
                                },
                                site,
                            );
                        }
                        if w.shared {
                            self.emit(
                                sink,
                                tid,
                                site,
                                EventKind::Read {
                                    addr: a,
                                    value: w.value,
                                    ty,
                                    atomic: false,
                                },
                            );
                        }
                        self.set_reg(tid, inst_id, w.value);
                        advance!();
                    }
                    Err(MemError::Null { addr }) => {
                        self.record_violation(tid, Violation::NullDeref { addr }, site);
                    }
                    Err(_) => {
                        self.record_violation(tid, Violation::WildAccess { addr: a }, site);
                    }
                }
            }
            Inst::Store { addr, val } => {
                let a = eval!(addr) as u64;
                let v = eval!(val);
                // Injected memory fault: the store fails as a wild
                // access before touching memory.
                if self.faults.fire_mem(self.step) {
                    self.faults
                        .record(FaultKind::MemFault, self.step, Some(tid), Some(site));
                    self.emit(
                        sink,
                        tid,
                        site,
                        EventKind::Fault {
                            kind: FaultKind::MemFault,
                        },
                    );
                    self.record_violation(tid, Violation::WildAccess { addr: a }, site);
                    return;
                }
                match self.mem.store(a, v) {
                    Ok(w) => {
                        if let Some(region_base) = w.freed {
                            self.record_violation(
                                tid,
                                Violation::UseAfterFree {
                                    addr: a,
                                    region_base,
                                },
                                site,
                            );
                        }
                        if w.shared {
                            self.emit(
                                sink,
                                tid,
                                site,
                                EventKind::Write {
                                    addr: a,
                                    value: v,
                                    old: w.value,
                                    atomic: false,
                                },
                            );
                        }
                        advance!();
                    }
                    Err(MemError::Null { addr }) => {
                        self.record_violation(tid, Violation::NullDeref { addr }, site);
                    }
                    Err(_) => {
                        self.record_violation(tid, Violation::WildAccess { addr: a }, site);
                    }
                }
            }
            Inst::CondWait { cond, mutex } => {
                let cv = eval!(cond) as u64;
                let m = eval!(mutex) as u64;
                if self.threads[tid.index()].cond_reacquire {
                    // Phase 2 (after a signal): re-acquire the mutex.
                    let ms = self.mutexes.entry(m).or_insert(MutexState { owner: None });
                    match ms.owner {
                        None => {
                            ms.owner = Some(tid);
                            self.emit(sink, tid, site, EventKind::Lock { addr: m });
                            let t = &mut self.threads[tid.index()];
                            t.cond_reacquire = false;
                            t.frames.last_mut().unwrap().idx += 1;
                        }
                        Some(_) => {
                            self.set_state(tid, ThreadState::Blocked { mutex: m });
                        }
                    }
                } else {
                    // Phase 1: release the mutex (when held) and sleep.
                    if let Some(ms) = self.mutexes.get_mut(&m) {
                        if ms.owner == Some(tid) {
                            ms.owner = None;
                            self.emit(sink, tid, site, EventKind::Unlock { addr: m });
                            self.wake_all(ThreadState::Blocked { mutex: m });
                        }
                    }
                    self.set_state(tid, ThreadState::WaitingCond { cv });
                    self.threads[tid.index()].cond_reacquire = true;
                    // idx stays: the wake re-executes this instruction in
                    // phase 2.
                }
            }
            Inst::CondSignal { cond } => {
                let cv = eval!(cond) as u64;
                if let Some(i) = self
                    .threads
                    .iter()
                    .position(|t| t.state == (ThreadState::WaitingCond { cv }))
                {
                    self.set_state(ThreadId(i as u32), ThreadState::Runnable);
                }
                advance!();
            }
            Inst::CondBroadcast { cond } => {
                let cv = eval!(cond) as u64;
                self.wake_all(ThreadState::WaitingCond { cv });
                advance!();
            }
            Inst::AtomicLoad { addr } => {
                let a = eval!(addr) as u64;
                match self.mem.load(a) {
                    Ok(w) if w.freed.is_none() => {
                        self.emit(
                            sink,
                            tid,
                            site,
                            EventKind::Read {
                                addr: a,
                                value: w.value,
                                ty: Type::I64,
                                atomic: true,
                            },
                        );
                        self.set_reg(tid, inst_id, w.value);
                        advance!();
                    }
                    Err(MemError::Null { addr }) => {
                        self.record_violation(tid, Violation::NullDeref { addr }, site);
                    }
                    // Wild, or freed memory: the atomic fails as a wild
                    // access.
                    _ => {
                        self.record_violation(tid, Violation::WildAccess { addr: a }, site);
                    }
                }
            }
            Inst::AtomicStore { addr, val } => {
                let a = eval!(addr) as u64;
                let v = eval!(val);
                match self.mem.store(a, v) {
                    Ok(w) if w.freed.is_none() => {
                        self.emit(
                            sink,
                            tid,
                            site,
                            EventKind::Write {
                                addr: a,
                                value: v,
                                old: w.value,
                                atomic: true,
                            },
                        );
                        advance!();
                    }
                    Err(MemError::Null { addr }) => {
                        self.record_violation(tid, Violation::NullDeref { addr }, site);
                    }
                    // Wild, or freed memory (where the word still
                    // landed): the atomic fails as a wild access.
                    _ => {
                        self.record_violation(tid, Violation::WildAccess { addr: a }, site);
                    }
                }
            }
            Inst::Gep { base, offset } => {
                let b = eval!(base);
                let o = eval!(offset);
                self.set_reg(tid, inst_id, b.wrapping_add(o));
                advance!();
            }
            Inst::Br {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = eval!(cond);
                let target = if c != 0 { then_bb } else { else_bb };
                self.enter_block(tid, target);
            }
            Inst::Jmp(target) => {
                self.enter_block(tid, target);
            }
            Inst::Ret(v) => {
                let val = match v {
                    Some(op) => Some(eval!(op)),
                    None => None,
                };
                let t = &mut self.threads[tid.index()];
                let done = t.frames.pop().expect("ret without frame");
                self.invalidate_stack(tid);
                let t = &mut self.threads[tid.index()];
                if let Some(parent) = t.frames.last_mut() {
                    if let Some(ci) = done.call_inst {
                        parent.regs[ci.index()] = Some(val.unwrap_or(0));
                    }
                } else {
                    self.finish_thread(tid, val);
                }
            }
            Inst::Call { callee, ref args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(eval!(*a));
                }
                let target = match callee {
                    Callee::Direct(f) => f,
                    Callee::Indirect(p) => {
                        let v = eval!(p);
                        if v == 0 {
                            self.record_violation(tid, Violation::NullFuncPtr, site);
                            return;
                        }
                        let raw = (v as u64).wrapping_sub(FUNCPTR_BASE);
                        if raw as usize >= self.module.funcs.len() || (v as u64) < FUNCPTR_BASE {
                            self.record_violation(
                                tid,
                                Violation::CorruptFuncPtr { value: v },
                                site,
                            );
                            return;
                        }
                        FuncId(raw as u32)
                    }
                };
                let f = self.module.func(target);
                if !f.is_internal {
                    // External call: no-op returning 0.
                    self.set_reg(tid, inst_id, 0);
                    advance!();
                    return;
                }
                argv.resize(f.num_params as usize, 0);
                // Advance past the call *before* pushing so `ret`
                // resumes after it.
                {
                    let frame = self.threads[tid.index()].frames.last_mut().unwrap();
                    frame.idx += 1;
                }
                let regs = vec![None; f.insts.len()];
                self.threads[tid.index()].frames.push(Frame {
                    func: target,
                    block: BlockId(0),
                    idx: 0,
                    regs,
                    args: argv,
                    call_inst: Some(inst_id),
                });
                self.invalidate_stack(tid);
            }
            Inst::Phi { .. } => {
                // Phis are evaluated at block entry; a stray execution is
                // a no-op.
                advance!();
            }
            Inst::ThreadCreate { func, arg } => {
                let a = eval!(arg);
                let f = self.module.func(func);
                let child = ThreadId(self.threads.len() as u32);
                self.threads.push(Thread {
                    state: ThreadState::Runnable,
                    frames: vec![Frame {
                        func,
                        block: BlockId(0),
                        idx: 0,
                        regs: vec![None; f.insts.len()],
                        args: vec![a],
                        call_inst: None,
                    }],
                    skip_bp: false,
                    cond_reacquire: false,
                    stack_cache: None,
                });
                // A new runnable thread: the runnable list is stale.
                self.runnable_stale = true;
                self.outcome.threads_spawned += 1;
                self.emit(sink, tid, site, EventKind::Fork { child });
                self.set_reg(tid, inst_id, i64::from(child.0));
                advance!();
            }
            Inst::ThreadJoin { tid: t_op } => {
                let raw = eval!(t_op);
                let child = ThreadId(raw.clamp(0, i64::from(u32::MAX)) as u32);
                if child.index() >= self.threads.len() || child == tid {
                    // Joining a bogus thread: no-op.
                    advance!();
                    return;
                }
                if self.threads[child.index()].state == ThreadState::Finished {
                    self.emit(sink, tid, site, EventKind::Join { child });
                    advance!();
                } else {
                    self.set_state(tid, ThreadState::Joining { child });
                    // idx stays: re-execute join when woken.
                }
            }
            Inst::MutexLock { addr } => {
                let a = eval!(addr) as u64;
                let m = self.mutexes.entry(a).or_insert(MutexState { owner: None });
                match m.owner {
                    None => {
                        m.owner = Some(tid);
                        self.emit(sink, tid, site, EventKind::Lock { addr: a });
                        advance!();
                    }
                    // A recursive lock self-deadlocks.
                    Some(_) => {
                        self.set_state(tid, ThreadState::Blocked { mutex: a });
                    }
                }
            }
            Inst::MutexUnlock { addr } => {
                let a = eval!(addr) as u64;
                if let Some(m) = self.mutexes.get_mut(&a) {
                    if m.owner == Some(tid) {
                        m.owner = None;
                        self.emit(sink, tid, site, EventKind::Unlock { addr: a });
                        // Wake blocked threads to retry the lock.
                        self.wake_all(ThreadState::Blocked { mutex: a });
                    }
                }
                advance!();
            }
            Inst::Yield => {
                advance!();
            }
            Inst::IoDelay { amount } => {
                let amt = eval!(amount).clamp(0, self.config.io_delay_cap as i64) as u64;
                advance!();
                if amt > 0 {
                    let until = self.step + amt;
                    self.set_state(tid, ThreadState::Delayed { until });
                }
            }
            Inst::Input { idx } => {
                let i = eval!(idx);
                let v = self.input.get(i);
                self.set_reg(tid, inst_id, v);
                advance!();
            }
            Inst::Output { chan, val } => {
                let c = eval!(chan);
                let v = eval!(val);
                self.outcome.outputs.push((c, v));
                advance!();
            }
            Inst::MemCopy { dst, src, len } => {
                let d = eval!(dst) as u64;
                let s = eval!(src) as u64;
                let l = eval!(len).clamp(0, 4096) as u64;
                let Some(dst_region) = self.mem.region_of(d) else {
                    self.record_violation(
                        tid,
                        if d < crate::mem::GLOBAL_BASE {
                            Violation::NullDeref { addr: d }
                        } else {
                            Violation::WildAccess { addr: d }
                        },
                        site,
                    );
                    return;
                };
                let dst_end = dst_region.base + dst_region.size;
                let mut flagged_overflow = false;
                for i in 0..l {
                    let sa = s + i;
                    let da = d + i;
                    // Stop at an unreadable source.
                    let Ok(src) = self.mem.load(sa) else { break };
                    if let Some(region_base) = src.freed {
                        self.record_violation(
                            tid,
                            Violation::UseAfterFree {
                                addr: sa,
                                region_base,
                            },
                            site,
                        );
                    }
                    let v = src.value;
                    if src.shared {
                        self.emit(
                            sink,
                            tid,
                            site,
                            EventKind::Read {
                                addr: sa,
                                value: v,
                                ty: Type::I64,
                                atomic: false,
                            },
                        );
                    }
                    if da >= dst_end && !flagged_overflow {
                        flagged_overflow = true;
                        self.record_violation(
                            tid,
                            Violation::BufferOverflow {
                                dst: d,
                                first_oob: da,
                            },
                            site,
                        );
                    }
                    match self.mem.store(da, v) {
                        Ok(w) => match w.freed {
                            Some(region_base) => {
                                self.record_violation(
                                    tid,
                                    Violation::UseAfterFree {
                                        addr: da,
                                        region_base,
                                    },
                                    site,
                                );
                            }
                            None if w.shared => {
                                self.emit(
                                    sink,
                                    tid,
                                    site,
                                    EventKind::Write {
                                        addr: da,
                                        value: v,
                                        old: w.value,
                                        atomic: false,
                                    },
                                );
                            }
                            None => {}
                        },
                        Err(_) => {
                            // Out-of-bounds word landed in unmapped
                            // space: drop it (already flagged).
                        }
                    }
                }
                advance!();
            }
            Inst::SetPrivilege { level } => {
                let l = eval!(level);
                self.outcome.privilege = l;
                let step = self.step;
                self.outcome.security.push(SecurityRecord {
                    event: SecurityEvent::Privilege { level: l },
                    tid,
                    site,
                    step,
                });
                advance!();
            }
            Inst::FileAccess { fd, data } => {
                let f = eval!(fd);
                let d = eval!(data);
                self.outcome.files.entry(f).or_default().push(d);
                let step = self.step;
                self.outcome.security.push(SecurityRecord {
                    event: SecurityEvent::FileWrite { fd: f, data: d },
                    tid,
                    site,
                    step,
                });
                advance!();
            }
            Inst::Exec { cmd } => {
                let c = eval!(cmd);
                let step = self.step;
                self.outcome.security.push(SecurityRecord {
                    event: SecurityEvent::Exec { cmd: c },
                    tid,
                    site,
                    step,
                });
                advance!();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::STACK_SIZE;
    use crate::sched::{RandomScheduler, RoundRobin};
    use owl_ir::{ModuleBuilder, Operand};

    fn run(m: &Module, entry: FuncId) -> ExecOutcome {
        let mut sched = RoundRobin::default();
        Vm::run_quiet(m, entry, ProgramInput::empty(), &mut sched)
    }

    #[test]
    fn arithmetic_and_output() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            let x = b.add(2, 3);
            let y = b.bin(BinOp::Mul, x, 4);
            b.output(0, y);
            b.ret(Some(y.into()));
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert_eq!(o.status, ExitStatus::Finished);
        assert_eq!(o.outputs, vec![(0, 20)]);
        assert_eq!(o.return_value, Some(20));
    }

    #[test]
    fn branches_and_inputs() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            let v = b.input(0);
            let c = b.cmp(Pred::Gt, v, 10);
            let t = b.block();
            let e = b.block();
            b.br(c, t, e);
            b.switch_to(t);
            b.output(1, 100);
            b.ret(None);
            b.switch_to(e);
            b.output(1, 200);
            b.ret(None);
        }
        let m = mb.finish();
        let mut sched = RoundRobin::default();
        let big = Vm::run_quiet(&m, main, ProgramInput::new(vec![50]), &mut sched);
        assert_eq!(big.outputs, vec![(1, 100)]);
        let small = Vm::run_quiet(&m, main, ProgramInput::new(vec![3]), &mut sched);
        assert_eq!(small.outputs, vec![(1, 200)]);
    }

    #[test]
    fn loop_with_phi() {
        // sum = 0; for i in 0..5 { sum += i } ; output sum
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            let head = b.block();
            let body = b.block();
            let exit = b.block();
            b.jmp(head);
            b.switch_to(head);
            let i = b.phi(vec![]);
            let sum = b.phi(vec![]);
            let c = b.cmp(Pred::Lt, i, 5);
            b.br(c, body, exit);
            b.switch_to(body);
            let i2 = b.add(i, 1);
            let sum2 = b.add(sum, i);
            b.jmp(head);
            b.switch_to(exit);
            b.output(0, sum);
            b.ret(None);
            b.set_phi(
                i,
                vec![(BlockId(0), Operand::Const(0)), (body, Operand::Value(i2))],
            );
            b.set_phi(
                sum,
                vec![
                    (BlockId(0), Operand::Const(0)),
                    (body, Operand::Value(sum2)),
                ],
            );
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert_eq!(o.status, ExitStatus::Finished);
        assert_eq!(o.outputs, vec![(0, 10)]);
    }

    #[test]
    fn calls_and_returns() {
        let mut mb = ModuleBuilder::new("t");
        let sq = mb.declare_func("square", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(sq);
            let r = b.bin(BinOp::Mul, Operand::Param(0), Operand::Param(0));
            b.ret(Some(r.into()));
        }
        {
            let mut b = mb.build_func(main);
            let r = b.call(sq, vec![Operand::Const(7)]);
            b.output(0, r);
            b.ret(None);
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert_eq!(o.outputs, vec![(0, 49)]);
    }

    #[test]
    fn threads_and_join() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("counter", 1, Type::I64);
        let worker = mb.declare_func("worker", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(worker);
            let a = b.global_addr(g);
            let v = b.atomic_load(a);
            let v2 = b.add(v, Operand::Param(0));
            b.atomic_store(a, v2);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(worker, 10);
            b.thread_join(t1);
            let t2 = b.thread_create(worker, 5);
            b.thread_join(t2);
            let a = b.global_addr(g);
            let v = b.atomic_load(a);
            b.output(0, v);
            b.ret(None);
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert_eq!(o.status, ExitStatus::Finished);
        assert_eq!(o.outputs, vec![(0, 15)]);
        assert_eq!(o.threads_spawned, 3);
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        // Two threads increment a counter 50 times each under a lock;
        // with instruction-level preemption the result is exactly 100
        // only if the lock works.
        let mut mb = ModuleBuilder::new("t");
        let counter = mb.global("counter", 1, Type::I64);
        let lock = mb.global("lock", 1, Type::I64);
        let worker = mb.declare_func("worker", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(worker);
            let head = b.block();
            let body = b.block();
            let exit = b.block();
            b.jmp(head);
            b.switch_to(head);
            let i = b.phi(vec![]);
            let c = b.cmp(Pred::Lt, i, 50);
            b.br(c, body, exit);
            b.switch_to(body);
            let la = b.global_addr(lock);
            b.lock(la);
            let ca = b.global_addr(counter);
            let v = b.load(ca, Type::I64);
            let v2 = b.add(v, 1);
            b.store(ca, v2);
            b.unlock(la);
            let i2 = b.add(i, 1);
            b.jmp(head);
            b.switch_to(exit);
            b.ret(None);
            b.set_phi(
                i,
                vec![(BlockId(0), Operand::Const(0)), (body, Operand::Value(i2))],
            );
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(worker, 0);
            let t2 = b.thread_create(worker, 0);
            b.thread_join(t1);
            b.thread_join(t2);
            let ca = b.global_addr(counter);
            let v = b.load(ca, Type::I64);
            b.output(0, v);
            b.ret(None);
        }
        let m = mb.finish();
        for seed in 0..5 {
            let mut sched = RandomScheduler::new(seed);
            let o = Vm::run_quiet(&m, main, ProgramInput::empty(), &mut sched);
            assert_eq!(o.status, ExitStatus::Finished, "seed {seed}");
            assert_eq!(o.outputs, vec![(0, 100)], "seed {seed}");
        }
    }

    #[test]
    fn null_deref_kills_thread() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            b.load(Operand::Const(0), Type::I64);
            b.output(0, 1); // unreachable
            b.ret(None);
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert_eq!(o.status, ExitStatus::Finished);
        assert!(o.any_violation(|v| matches!(v, Violation::NullDeref { .. })));
        assert!(o.outputs.is_empty());
    }

    #[test]
    fn oversized_alloca_is_a_fatal_stack_overflow() {
        for size in [STACK_SIZE as u32 + 1, u32::MAX] {
            let mut mb = ModuleBuilder::new("t");
            let main = mb.declare_func("main", 0);
            {
                let mut b = mb.build_func(main);
                b.alloca(size);
                b.output(0, 1); // unreachable
                b.ret(None);
            }
            let m = mb.finish();
            let o = run(&m, main);
            assert_eq!(o.status, ExitStatus::Finished);
            let size = u64::from(size);
            assert_eq!(o.violations.len(), 1, "{size}");
            assert_eq!(o.violations[0].violation, Violation::StackOverflow { size });
            assert!(o.outputs.is_empty(), "{size}");
        }
    }

    #[test]
    fn alloca_never_reaches_the_next_threads_stack() {
        // Main fills its stack window to the last word and stores 7
        // there; the child's first stack word is the next one. Main's
        // next alloca would land in the child's window.
        let mut mb = ModuleBuilder::new("t");
        let child = mb.declare_func("child", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(child);
            let c = b.alloca(1);
            b.store(c, 99);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            b.alloca(STACK_SIZE as u32 - 1);
            let last = b.alloca(1);
            b.store(last, 7);
            let t = b.thread_create(child, 0);
            b.thread_join(t);
            let v = b.load(last, Type::I64);
            b.output(0, v);
            b.alloca(1);
            b.output(1, 1); // unreachable
            b.ret(None);
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert_eq!(o.status, ExitStatus::Finished);
        assert_eq!(o.outputs, vec![(0, 7)]);
        assert_eq!(o.violations.len(), 1);
        assert_eq!(
            o.violations[0].violation,
            Violation::StackOverflow { size: 1 }
        );
        assert_eq!(o.violations[0].tid, ThreadId::MAIN);
        assert_eq!(o.return_value, None);
    }

    #[test]
    fn heap_uaf_and_double_free_detected() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            let p = b.malloc(4);
            b.store(p, 42);
            b.free(p);
            let v = b.load(p, Type::I64); // UAF read of stale 42
            b.output(0, v);
            b.free(p); // double free
            b.ret(None);
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert!(o.any_violation(|v| matches!(v, Violation::UseAfterFree { .. })));
        assert!(o.any_violation(|v| matches!(v, Violation::DoubleFree { .. })));
        assert_eq!(o.outputs, vec![(0, 42)]);
    }

    #[test]
    fn buffer_overflow_corrupts_adjacent_global() {
        // Mirror of the Apache-25520 mechanism.
        let mut mb = ModuleBuilder::new("t");
        let buf = mb.global("buf", 2, Type::I64);
        let fd = mb.global_init("fd", 1, vec![7], Type::I64);
        let src = mb.global_init("src", 3, vec![11, 22, 33], Type::I64);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            let d = b.global_addr(buf);
            let s = b.global_addr(src);
            b.memcopy(d, s, 3); // one word past `buf`, into `fd`
            let fa = b.global_addr(fd);
            let v = b.load(fa, Type::I64);
            b.output(0, v);
            b.ret(None);
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert!(o.any_violation(|v| matches!(v, Violation::BufferOverflow { .. })));
        assert_eq!(o.outputs, vec![(0, 33)], "fd corrupted by the overflow");
    }

    #[test]
    fn unsigned_underflow_flagged_and_wraps() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            let r = b.sub_unsigned(0, 1);
            b.output(0, r);
            b.ret(None);
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert!(o.any_violation(|v| matches!(v, Violation::IntegerUnderflow { .. })));
        assert_eq!(o.outputs, vec![(0, -1)]); // 2^64 - 1 as i64
    }

    #[test]
    fn null_and_corrupt_func_ptr() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            b.call_indirect(Operand::Const(0), vec![]);
            b.ret(None);
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert!(o.any_violation(|v| matches!(v, Violation::NullFuncPtr)));

        let mut mb = ModuleBuilder::new("t2");
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            b.call_indirect(Operand::Const(0x1234), vec![]);
            b.ret(None);
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert!(o.any_violation(|v| matches!(v, Violation::CorruptFuncPtr { .. })));
    }

    #[test]
    fn deadlock_detected() {
        let mut mb = ModuleBuilder::new("t");
        let l = mb.global("l", 1, Type::I64);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            let la = b.global_addr(l);
            b.lock(la);
            b.lock(la); // self-deadlock
            b.ret(None);
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert_eq!(o.status, ExitStatus::Deadlock);
    }

    #[test]
    fn io_delay_defers_thread() {
        let mut mb = ModuleBuilder::new("t");
        let worker = mb.declare_func("worker", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(worker);
            b.output(0, 1);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(worker, 0);
            b.io_delay(100);
            b.output(0, 2);
            b.thread_join(t);
            b.ret(None);
        }
        let m = mb.finish();
        // Round-robin with large quantum would run main first; the delay
        // forces the worker's output to come first.
        let mut sched = RoundRobin::new(1000);
        let o = Vm::run_quiet(&m, main, ProgramInput::empty(), &mut sched);
        assert_eq!(o.outputs, vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn security_records_captured() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            b.set_privilege(0);
            b.file_access(5, 77);
            b.exec(99);
            b.ret(None);
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert_eq!(o.privilege, 0);
        assert_eq!(o.file(5), &[77]);
        assert!(o.executed(99));
        assert_eq!(o.security.len(), 3);
    }

    #[test]
    fn schedule_replay_reproduces_outputs() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1, Type::I64);
        let worker = mb.declare_func("worker", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(worker);
            let a = b.global_addr(g);
            b.store(a, Operand::Param(0));
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(worker, 1);
            let t2 = b.thread_create(worker, 2);
            b.thread_join(t1);
            b.thread_join(t2);
            let a = b.global_addr(g);
            let v = b.load(a, Type::I64);
            b.output(0, v);
            b.ret(None);
        }
        let m = mb.finish();
        let mut sched = RandomScheduler::new(99);
        let o1 = Vm::run_quiet(&m, main, ProgramInput::empty(), &mut sched);
        let mut replay = crate::sched::ReplayScheduler::new(o1.schedule.clone());
        let o2 = Vm::run_quiet(&m, main, ProgramInput::empty(), &mut replay);
        assert_eq!(o1.outputs, o2.outputs);
        assert_eq!(replay.divergences, 0);
    }

    #[test]
    fn external_calls_are_noops() {
        let mut mb = ModuleBuilder::new("t");
        let ext = mb.declare_external("write", 2);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            let r = b.call(ext, vec![Operand::Const(1), Operand::Const(2)]);
            b.output(0, r);
            b.ret(None);
        }
        let m = mb.finish();
        let o = run(&m, main);
        assert_eq!(o.outputs, vec![(0, 0)]);
    }

    #[test]
    fn step_limit_halts_infinite_loop() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            let l = b.block();
            b.jmp(l);
            b.switch_to(l);
            b.jmp(l);
        }
        let m = mb.finish();
        let mut sched = RoundRobin::default();
        let cfg = RunConfig {
            max_steps: 1000,
            ..RunConfig::default()
        };
        let o = Vm::new(&m, main, ProgramInput::empty(), cfg).run(&mut sched, &mut NullSink);
        assert_eq!(o.status, ExitStatus::StepLimit);
        assert_eq!(o.steps, 1000);
    }

    /// Two `worker` threads each bump `g`; `unused` stores to `g` but
    /// is never called. Returns the module, `main`, the worker's store
    /// site and the never-fetched store site.
    fn recording_module() -> (Module, FuncId, InstRef, InstRef) {
        let mut mb = ModuleBuilder::new("rec");
        let g = mb.global("g", 1, Type::I64);
        let worker = mb.declare_func("worker", 1);
        let unused = mb.declare_func("unused", 0);
        let main = mb.declare_func("main", 0);
        let store = {
            let mut b = mb.build_func(worker);
            let a = b.global_addr(g);
            let v = b.load(a, Type::I64);
            let v2 = b.add(v, 1);
            let s = b.store(a, v2);
            b.ret(None);
            s
        };
        let never = {
            let mut b = mb.build_func(unused);
            let a = b.global_addr(g);
            let s = b.store(a, 7);
            b.ret(None);
            s
        };
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(worker, 0);
            let t2 = b.thread_create(worker, 0);
            b.thread_join(t1);
            b.thread_join(t2);
            b.ret(None);
        }
        let m = mb.finish();
        let store = InstRef::new(worker, store);
        let never = InstRef::new(unused, never);
        (m, main, store, never)
    }

    /// Continues every hit, counting them.
    struct CountHits(u64);

    impl Controller for CountHits {
        fn on_break(&mut self, _: &mut BreakWorld<'_>, _: &Suspension) -> BreakDecision {
            self.0 += 1;
            BreakDecision::Continue
        }
    }

    #[test]
    fn unmatched_breakpoints_leave_the_run_unchanged_and_return_fetched_sites() {
        let (m, main, store, never) = recording_module();
        let mut sites = SiteSet::default();
        for seed in 0..6 {
            let cfg = RunConfig {
                fault: FaultPlan::uniform(seed, 0.05),
                ..RunConfig::default()
            };
            assert!(cfg.record_schedule);
            let plain = Vm::new(&m, main, ProgramInput::empty(), cfg.clone())
                .run(&mut RandomScheduler::new(seed), &mut NullSink);
            let mut vm = Vm::new(&m, main, ProgramInput::empty(), cfg);
            vm.add_breakpoint(Breakpoint::at(never));
            let mut hits = CountHits(0);
            let (outcome, fetched) = vm.run_recording(
                &mut RandomScheduler::new(seed),
                &mut NullSink,
                &mut hits,
                &mut sites,
            );
            assert_eq!(outcome, plain, "seed {seed}");
            assert_eq!(hits.0, 0);
            let fetched = fetched.expect("no breakpoint matched");
            assert!(fetched.contains(store), "seed {seed}");
            assert!(fetched.contains(InstRef::new(main, InstId(0))));
            assert!(!fetched.contains(never));
        }
    }

    #[test]
    fn a_matched_breakpoint_withholds_the_fetched_set() {
        let (m, main, store, _) = recording_module();
        let mut sites = SiteSet::new(&m);
        // Hit: the controller hears about it.
        let mut vm = Vm::new(&m, main, ProgramInput::empty(), RunConfig::default());
        vm.add_breakpoint(Breakpoint::at(store));
        let mut hits = CountHits(0);
        let (outcome, fetched) = vm.run_recording(
            &mut RandomScheduler::new(1),
            &mut NullSink,
            &mut hits,
            &mut sites,
        );
        assert_eq!(outcome.status, ExitStatus::Finished);
        assert_eq!(hits.0, 2);
        assert!(fetched.is_none());
        // Dropped: a fault swallows every hit, so the controller never
        // hears about one, yet the fault draws make the run differ.
        let cfg = RunConfig {
            fault: FaultPlan {
                drop_breakpoint_rate: 1.0,
                ..FaultPlan::none()
            },
            ..RunConfig::default()
        };
        let mut vm = Vm::new(&m, main, ProgramInput::empty(), cfg);
        vm.add_breakpoint(Breakpoint::at(store));
        let mut hits = CountHits(0);
        let (outcome, fetched) = vm.run_recording(
            &mut RandomScheduler::new(1),
            &mut NullSink,
            &mut hits,
            &mut sites,
        );
        assert_eq!(hits.0, 0);
        assert_eq!(outcome.injected_faults.len(), 2);
        assert!(outcome
            .injected_faults
            .iter()
            .all(|f| f.kind == FaultKind::DroppedBreakpoint));
        assert!(fetched.is_none());
    }
}
