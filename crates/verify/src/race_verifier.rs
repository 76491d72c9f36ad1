//! The dynamic race verifier (paper §5.2).
//!
//! Race detectors over-report; OWL verifies each surviving report by
//! catching the race "in the racing moment": thread-specific
//! breakpoints halt a thread arriving at one racing instruction until a
//! *different* thread arrives at the other racing instruction (or at
//! the same one, when both sides of the report are one instruction)
//! with the *same* address. Only then is the race real. The verifier
//! then prints security hints — the racing instructions, the values
//! they are about to read/write, and the variable's type — and can
//! release the threads in a chosen order to let the corruption
//! actually happen (the "bug order"), which the vulnerability verifier
//! builds on.
//!
//! Livelocks caused by suspensions are resolved by the VM's automatic
//! oldest-suspension release, mirroring the paper's "temporarily
//! releasing one of the currently triggered breakpoints".
//!
//! A verifier remembers, per (entry, input) and seed, the first attempt
//! whose run matched no breakpoint, with the sites it fetched. Such a
//! run is the breakpoint-free run at that seed, so a later report whose
//! racing sites it never fetched would run exactly like it too: that
//! attempt is answered from the memo instead of re-executed.

use crate::verdict::{AbortCause, VerifyOutcome};
use owl_ir::{FuncId, InstRef, Module, Type};
use owl_race::RaceReport;
use owl_vm::{
    BreakDecision, BreakWorld, Breakpoint, Controller, ExecOutcome, ExitStatus, ProgramInput,
    RandomScheduler, RunConfig, SiteSet, Suspension, ThreadId, Vm,
};
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Which racing instruction should execute first once the race is
/// caught.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RaceOrder {
    /// The write executes first (the "bug order" — the read observes
    /// the corrupted value).
    #[default]
    WriteFirst,
    /// The read executes first (the benign order).
    ReadFirst,
}

/// One side of the confirmed race, as observed at the breakpoint.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AccessHint {
    /// The racing instruction.
    pub site: InstRef,
    /// The thread that arrived.
    pub tid: ThreadId,
    /// Whether this side writes.
    pub is_write: bool,
    /// Value about to be written (writes only).
    pub value_to_write: Option<i64>,
    /// Value currently in memory (what a read would observe).
    pub current_value: Option<i64>,
    /// Static type at the site.
    pub ty: Type,
}

/// The verifier's security hints (§5.2): "the racing instructions from
/// source code, the value they're about to read and write and the type
/// of the variable".
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SecurityHints {
    /// The racing address.
    pub addr: u64,
    /// Global variable name, when resolvable.
    pub global_name: Option<String>,
    /// The side that was already suspended when the partner arrived.
    pub waiting: AccessHint,
    /// The side whose arrival confirmed the race.
    pub arriving: AccessHint,
    /// Whether the race can produce a NULL pointer dereference: a
    /// pointer-typed location about to hold (or already holding) NULL.
    pub null_pointer_risk: bool,
}

/// Result of verifying one race report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RaceVerification {
    /// Whether both racing instructions were caught simultaneously on
    /// the same address. (Kept for compatibility; equals
    /// `verdict.is_confirmed()`.)
    pub confirmed: bool,
    /// Three-way verdict: confirmed, unconfirmed, or aborted without
    /// a meaningful answer.
    pub verdict: VerifyOutcome,
    /// Schedules tried.
    pub attempts: u64,
    /// Hints captured at the racing moment (when confirmed).
    pub hints: Option<SecurityHints>,
    /// Outcome of the confirming execution (violations included).
    pub outcome: Option<ExecOutcome>,
    /// Total faults the VM's [`owl_vm::FaultPlan`] injected across all
    /// attempts.
    pub injected_faults: u64,
    /// Attempts (included in `attempts`) answered from an earlier
    /// breakpoint-free run at the same seed instead of re-executed.
    pub reused_attempts: u64,
}

/// Verifier configuration.
#[derive(Clone, Debug)]
pub struct RaceVerifyConfig {
    /// Maximum schedules to try before declaring the report
    /// unverifiable. Each attempt reseeds the scheduler
    /// (`base_seed + attempt`).
    pub max_schedules: u64,
    /// First scheduler seed.
    pub base_seed: u64,
    /// Release order after confirmation.
    pub order: RaceOrder,
    /// VM limits (the per-attempt *step* deadline is
    /// `run_config.max_steps`).
    pub run_config: RunConfig,
    /// Wall-clock budget for the whole attempt loop, checked between
    /// attempts; expiry yields [`VerifyOutcome::Aborted`] with
    /// [`AbortCause::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

impl Default for RaceVerifyConfig {
    fn default() -> Self {
        RaceVerifyConfig {
            max_schedules: 20,
            base_seed: 100,
            order: RaceOrder::WriteFirst,
            run_config: RunConfig::default(),
            deadline: None,
        }
    }
}

/// Dynamic race verifier.
#[derive(Debug)]
pub struct RaceVerifier<'m> {
    module: &'m Module,
    config: RaceVerifyConfig,
    memo: Mutex<AttemptMemo>,
}

/// The verifier's record of breakpoint-free runs.
#[derive(Debug, Default)]
struct AttemptMemo {
    /// Recording buffer, allocated on first use and lent to one run at
    /// a time.
    scratch: Option<SiteSet>,
    slots: Vec<MemoSlot>,
}

/// Breakpoint-free runs of one (entry, input), by seed index.
#[derive(Debug)]
struct MemoSlot {
    entry: FuncId,
    input: ProgramInput,
    runs: Vec<Option<CleanRun>>,
}

/// What an attempt that matches no breakpoint yields at one seed.
#[derive(Debug)]
struct CleanRun {
    fetched: SiteSet,
    status: ExitStatus,
    injected_faults: u64,
}

impl AttemptMemo {
    /// The slot of `(entry, input)`, created on first use.
    fn slot(&mut self, entry: FuncId, input: &ProgramInput) -> usize {
        if let Some(i) = self
            .slots
            .iter()
            .position(|s| s.entry == entry && s.input == *input)
        {
            return i;
        }
        self.slots.push(MemoSlot {
            entry,
            input: input.clone(),
            runs: Vec::new(),
        });
        self.slots.len() - 1
    }

    /// Records seed `k`'s clean run in `slot` unless it has one.
    fn store(&mut self, slot: usize, k: usize, run: CleanRun) {
        let runs = &mut self.slots[slot].runs;
        if runs.len() <= k {
            runs.resize_with(k + 1, || None);
        }
        runs[k].get_or_insert(run);
    }
}

struct RvController {
    site_a: InstRef,
    site_b: InstRef,
    /// Site preferred to execute first once confirmed.
    first_site: Option<InstRef>,
    confirmed: Option<SecurityHints>,
}

impl RvController {
    fn hint_of(s: &Suspension) -> Option<AccessHint> {
        let a = s.access?;
        Some(AccessHint {
            site: s.site,
            tid: s.tid,
            is_write: a.is_write,
            value_to_write: a.value_to_write,
            current_value: a.current_value,
            ty: a.ty,
        })
    }
}

impl Controller for RvController {
    fn on_break(&mut self, world: &mut BreakWorld<'_>, hit: &Suspension) -> BreakDecision {
        if self.confirmed.is_some() {
            return BreakDecision::Continue;
        }
        let Some(acc) = hit.access else {
            return BreakDecision::Continue;
        };
        // A partner is a *different thread* suspended at the racing
        // site that completes the pair with this one — the other site,
        // or this same site when both sides of the report are one
        // instruction — touching the *same address*.
        let completes_pair = |waiting: InstRef| {
            (waiting == self.site_a && hit.site == self.site_b)
                || (waiting == self.site_b && hit.site == self.site_a)
        };
        let partner = world.suspended.iter().find(|(tid, s)| {
            **tid != hit.tid && completes_pair(s.site) && s.access.map(|a| a.addr) == Some(acc.addr)
        });
        if let Some((&ptid, psusp)) = partner {
            // Caught in the racing moment.
            let waiting = Self::hint_of(psusp);
            let arriving = Self::hint_of(hit);
            if let (Some(waiting), Some(arriving)) = (waiting, arriving) {
                let null_risk = (waiting.ty.is_pointer() || arriving.ty.is_pointer())
                    && (waiting.value_to_write == Some(0)
                        || arriving.value_to_write == Some(0)
                        || waiting.current_value == Some(0)
                        || arriving.current_value == Some(0));
                self.confirmed = Some(SecurityHints {
                    addr: acc.addr,
                    global_name: None,
                    waiting,
                    arriving,
                    null_pointer_risk: null_risk,
                });
            }
            // Disarm: the verification is done; let the program run the
            // chosen order out.
            for bp in world.breakpoints.iter_mut() {
                bp.enabled = false;
            }
            let hit_first = match self.first_site {
                Some(f) => hit.site == f,
                None => true,
            };
            if hit_first {
                // The arriving side executes now; the partner follows.
                world.resume.push(ptid);
                BreakDecision::Continue
            } else {
                // Partner first; the arriving thread stays suspended and
                // is released by the VM's stall resolution (or keeps its
                // turn once the partner has gone through).
                world.resume.push(ptid);
                BreakDecision::Suspend
            }
        } else {
            // Wait here for a partner.
            BreakDecision::Suspend
        }
    }

    fn on_stall(&mut self, _world: &mut BreakWorld<'_>) -> Option<ThreadId> {
        None // default: VM releases the oldest suspension (§5.2)
    }
}

impl<'m> RaceVerifier<'m> {
    /// Creates a verifier over `module`.
    pub fn new(module: &'m Module, config: RaceVerifyConfig) -> Self {
        RaceVerifier {
            module,
            config,
            memo: Mutex::default(),
        }
    }

    /// Verifier with default configuration.
    pub fn with_defaults(module: &'m Module) -> Self {
        Self::new(module, RaceVerifyConfig::default())
    }

    /// The memo. Nothing panics while the lock is held and an entry is
    /// stored only once its run has returned, so even a poisoned lock
    /// would guard a sound memo: recover it instead of propagating.
    fn memo(&self) -> MutexGuard<'_, AttemptMemo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempts to catch `report`'s race in the racing moment, trying
    /// up to `max_schedules` seeds.
    ///
    /// Attempt *k* is answered without executing when the verifier
    /// already ran seed *k* on this entry and input with no breakpoint
    /// matched, and that run fetched neither racing site: the attempt
    /// would run exactly like it and cannot confirm. It still counts in
    /// `attempts`, with the recorded run's faults.
    pub fn verify(
        &self,
        entry: FuncId,
        input: &ProgramInput,
        report: &RaceReport,
    ) -> RaceVerification {
        let write_site = if report.first.is_write {
            report.first.site
        } else {
            report.second.site
        };
        let read_site = if !report.first.is_write {
            Some(report.first.site)
        } else if !report.second.is_write {
            Some(report.second.site)
        } else {
            None
        };
        let first_site = match self.config.order {
            RaceOrder::WriteFirst => Some(write_site),
            RaceOrder::ReadFirst => read_site,
        };
        let start = Instant::now();
        let mut injected_faults = 0u64;
        let mut reused_attempts = 0u64;
        let mut all_step_limit = true;
        let slot = self.memo().slot(entry, input);
        for k in 0..self.config.max_schedules {
            if let Some(d) = self.config.deadline {
                if k > 0 && start.elapsed() >= d {
                    return RaceVerification {
                        confirmed: false,
                        verdict: VerifyOutcome::Aborted {
                            cause: AbortCause::DeadlineExceeded,
                            attempts: k,
                        },
                        attempts: k,
                        hints: None,
                        outcome: None,
                        injected_faults,
                        reused_attempts,
                    };
                }
            }
            // Answer from seed k's clean run when it fetched neither
            // racing site; otherwise run, recording fetched sites.
            let mut sites = {
                let mut memo = self.memo();
                if let Some(Some(run)) = memo.slots[slot].runs.get(k as usize) {
                    if !run.fetched.contains(report.first.site)
                        && !run.fetched.contains(report.second.site)
                    {
                        reused_attempts += 1;
                        injected_faults += run.injected_faults;
                        if run.status != ExitStatus::StepLimit {
                            all_step_limit = false;
                        }
                        continue;
                    }
                }
                memo.scratch.take().unwrap_or_default()
            };
            let mut controller = RvController {
                site_a: report.first.site,
                site_b: report.second.site,
                first_site,
                confirmed: None,
            };
            let mut vm = Vm::new(
                self.module,
                entry,
                input.clone(),
                self.config.run_config.clone(),
            );
            vm.add_breakpoint(Breakpoint::at(report.first.site));
            vm.add_breakpoint(Breakpoint::at(report.second.site));
            let mut sched = RandomScheduler::new(self.config.base_seed + k);
            let (outcome, fetched) = vm.run_recording(
                &mut sched,
                &mut owl_vm::NullSink,
                &mut controller,
                &mut sites,
            );
            // At a seed that already has a clean run, a live attempt
            // fetches one of its racing sites like that run does, so it
            // matches and `fetched` is `None`: only a seed's first clean
            // run is copied into the memo.
            let clean = fetched.map(|fetched| CleanRun {
                fetched: fetched.clone(),
                status: outcome.status,
                injected_faults: outcome.injected_faults.len() as u64,
            });
            {
                let mut memo = self.memo();
                if let Some(clean) = clean {
                    memo.store(slot, k as usize, clean);
                }
                memo.scratch = Some(sites);
            }
            injected_faults += outcome.injected_faults.len() as u64;
            if outcome.status != ExitStatus::StepLimit {
                all_step_limit = false;
            }
            if let Some(mut hints) = controller.confirmed {
                hints.global_name =
                    owl_race::global_name_for_addr(self.module, hints.addr).map(str::to_string);
                return RaceVerification {
                    confirmed: true,
                    verdict: VerifyOutcome::Confirmed,
                    attempts: k + 1,
                    hints: Some(hints),
                    outcome: Some(outcome),
                    injected_faults,
                    reused_attempts,
                };
            }
        }
        // The budget ran dry. If no attempt ever ran to completion the
        // verifier established nothing — abort rather than report a
        // (misleading) elimination.
        let verdict = if all_step_limit && self.config.max_schedules > 0 {
            VerifyOutcome::Aborted {
                cause: AbortCause::StepBudgetExhausted,
                attempts: self.config.max_schedules,
            }
        } else {
            VerifyOutcome::Unconfirmed
        };
        RaceVerification {
            confirmed: false,
            verdict,
            attempts: self.config.max_schedules,
            hints: None,
            outcome: None,
            injected_faults,
            reused_attempts,
        }
    }

    /// Renders the §5.2 hint block for a verification.
    pub fn format_hints(&self, v: &RaceVerification) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let Some(h) = &v.hints else {
            return match v.verdict {
                VerifyOutcome::Aborted { cause, attempts } => {
                    format!("race verification ABORTED after {attempts} schedule(s): {cause}\n")
                }
                _ => format!("race not verified after {} schedules\n", v.attempts),
            };
        };
        let name = h
            .global_name
            .clone()
            .unwrap_or_else(|| format!("{:#x}", h.addr));
        let _ = writeln!(out, "race VERIFIED on `{name}` (attempt {}):", v.attempts);
        for (label, a) in [("waiting", &h.waiting), ("arriving", &h.arriving)] {
            let _ = writeln!(
                out,
                "  {label}: {} {} at {} — about to {} (current value {:?}, type {})",
                a.tid,
                if a.is_write { "write" } else { "read" },
                self.module.format_loc(a.site),
                match a.value_to_write {
                    Some(v) => format!("write {v}"),
                    None => "read".to_string(),
                },
                a.current_value,
                a.ty,
            );
        }
        if h.null_pointer_risk {
            let _ = writeln!(out, "  hint: NULL pointer dereference possible");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{ModuleBuilder, Type};
    use owl_race::{HbConfig, HbDetector};
    use owl_vm::RoundRobin;

    /// Writer stores NULL to a pointer-typed global; main reads it.
    fn ptr_race_module() -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("pr");
        let fp = mb.global_init("f_op", 1, vec![1], Type::Ptr);
        let w = mb.declare_func("writer", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let a = b.global_addr(fp);
            b.store(a, 0); // NULL
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(w, 0);
            let a = b.global_addr(fp);
            b.load(a, Type::Ptr);
            b.thread_join(t);
            b.ret(None);
        }
        (mb.finish(), main)
    }

    fn first_report(m: &Module, main: FuncId) -> RaceReport {
        let mut det = HbDetector::new(HbConfig::default());
        let mut sched = RoundRobin::new(2);
        let vm = Vm::new(m, main, ProgramInput::empty(), Default::default());
        let _ = vm.run(&mut sched, &mut det);
        det.finish(m).remove(0)
    }

    #[test]
    fn verifies_real_race_with_hints() {
        let (m, main) = ptr_race_module();
        let report = first_report(&m, main);
        let verifier = RaceVerifier::with_defaults(&m);
        let v = verifier.verify(main, &ProgramInput::empty(), &report);
        assert!(v.confirmed, "race should be verifiable");
        let hints = v.hints.as_ref().expect("hints");
        assert_eq!(hints.global_name.as_deref(), Some("f_op"));
        assert!(
            hints.null_pointer_risk,
            "storing NULL into a pointer must be flagged: {hints:?}"
        );
        let text = verifier.format_hints(&v);
        assert!(text.contains("VERIFIED"));
        assert!(text.contains("NULL pointer"));
    }

    #[test]
    fn ordered_accesses_do_not_verify() {
        // Build a module where the same two sites exist but are ordered
        // by a join — the "race" can never be caught in the moment.
        let mut mb = ModuleBuilder::new("ord");
        let g = mb.global("g", 1, Type::I64);
        let w = mb.declare_func("writer", 1);
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
            b.thread_join(t); // join *before* the read: ordered
            let a = b.global_addr(g);
            b.load(a, Type::I64);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        // Hand-craft a (bogus) report over the ordered pair.
        let store_site = InstRef::new(m.func_by_name("writer").unwrap(), owl_ir::InstId(1));
        let load_site = InstRef::new(main_id, owl_ir::InstId(3));
        let fake = |site, is_write| owl_race::Access {
            tid: ThreadId(0),
            site,
            stack: std::sync::Arc::from(vec![].into_boxed_slice()),
            is_write,
            value: 0,
            ty: Type::I64,
        };
        let report = RaceReport {
            addr: owl_vm::mem::GLOBAL_BASE,
            global_name: Some("g".into()),
            first: fake(store_site, true),
            second: fake(load_site, false),
            read_hint: None,
        };
        let verifier = RaceVerifier::new(
            &m,
            RaceVerifyConfig {
                max_schedules: 5,
                ..RaceVerifyConfig::default()
            },
        );
        let v = verifier.verify(main_id, &ProgramInput::empty(), &report);
        assert!(!v.confirmed);
        assert_eq!(v.verdict, VerifyOutcome::Unconfirmed);
        assert_eq!(v.attempts, 5);
        assert_eq!(v.injected_faults, 0);
        assert!(verifier.format_hints(&v).contains("not verified"));
    }

    #[test]
    fn zero_deadline_aborts_after_first_attempt() {
        let (m, main) = ptr_race_module();
        let report = first_report(&m, main);
        // An already-expired deadline is noticed between attempts, so
        // exactly one attempt runs: it either confirms (the check never
        // fires) or the verifier aborts with attempts == 1.
        let verifier = RaceVerifier::new(
            &m,
            RaceVerifyConfig {
                deadline: Some(Duration::from_secs(0)),
                ..RaceVerifyConfig::default()
            },
        );
        let v = verifier.verify(main, &ProgramInput::empty(), &report);
        if !v.confirmed {
            assert_eq!(
                v.verdict,
                VerifyOutcome::Aborted {
                    cause: AbortCause::DeadlineExceeded,
                    attempts: 1,
                }
            );
            assert!(verifier.format_hints(&v).contains("ABORTED"));
        }
    }

    #[test]
    fn starved_step_budget_aborts() {
        // With a step budget too small to even spawn the second thread,
        // every attempt ends in StepLimit: the verifier must abort, not
        // claim the race was eliminated.
        let (m, main) = ptr_race_module();
        let report = first_report(&m, main);
        let verifier = RaceVerifier::new(
            &m,
            RaceVerifyConfig {
                max_schedules: 4,
                run_config: owl_vm::RunConfig {
                    max_steps: 2,
                    ..owl_vm::RunConfig::default()
                },
                ..RaceVerifyConfig::default()
            },
        );
        let v = verifier.verify(main, &ProgramInput::empty(), &report);
        assert!(!v.confirmed);
        assert_eq!(
            v.verdict,
            VerifyOutcome::Aborted {
                cause: AbortCause::StepBudgetExhausted,
                attempts: 4,
            }
        );
    }

    /// Two `worker` threads each run `counter += 1`.
    fn counter_module() -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("counter");
        let g = mb.global("counter", 1, Type::I64);
        let w = mb.declare_func("worker", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let a = b.global_addr(g);
            let v = b.load(a, Type::I64);
            let v2 = b.add(v, 1);
            b.store(a, v2);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(w, 0);
            let t2 = b.thread_create(w, 0);
            b.thread_join(t1);
            b.thread_join(t2);
            b.ret(None);
        }
        (mb.finish(), main)
    }

    #[test]
    fn confirms_two_threads_racing_at_one_instruction() {
        let (m, main) = counter_module();
        let raw = owl_race::explore(
            &m,
            main,
            &[ProgramInput::empty()],
            &owl_race::ExplorerConfig::default(),
        );
        // A load/store pair, and the store/store pair at one instruction.
        assert_eq!(raw.reports.len(), 2, "{:?}", raw.reports);
        assert!(
            raw.reports.iter().any(|r| r.first.site == r.second.site),
            "{:?}",
            raw.reports
        );
        let verifier = RaceVerifier::with_defaults(&m);
        for report in &raw.reports {
            let v = verifier.verify(main, &ProgramInput::empty(), report);
            assert!(v.confirmed, "{report:?} must verify: {v:?}");
            assert_eq!(v.attempts, 1);
            let hints = v.hints.expect("hints");
            assert_eq!(hints.global_name.as_deref(), Some("counter"));
            assert_ne!(hints.waiting.tid, hints.arriving.tid);
            let sites = [hints.waiting.site, hints.arriving.site];
            assert!(
                sites == [report.first.site, report.second.site]
                    || sites == [report.second.site, report.first.site]
            );
        }
    }

    #[test]
    fn attempts_answered_from_the_memo_match_a_fresh_verifier() {
        // `unused` stores to `g` but never runs: its reports would be
        // re-executed from scratch every attempt, only to be eliminated.
        let mut mb = ModuleBuilder::new("memo");
        let g = mb.global("g", 1, Type::I64);
        let w = mb.declare_func("writer", 1);
        let unused = mb.declare_func("unused", 0);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let a = b.global_addr(g);
            b.store(a, 1);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(unused);
            let a = b.global_addr(g);
            b.store(a, 2);
            b.load(a, Type::I64);
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
        let m = mb.finish();
        let main = m.func_by_name("main").unwrap();
        let unused = m.func_by_name("unused").unwrap();
        let access = |site, is_write| owl_race::Access {
            tid: ThreadId(0),
            site,
            stack: std::sync::Arc::from(vec![].into_boxed_slice()),
            is_write,
            value: 0,
            ty: Type::I64,
        };
        let gated = |a, b| RaceReport {
            addr: owl_vm::mem::GLOBAL_BASE,
            global_name: Some("g".into()),
            first: access(InstRef::new(unused, owl_ir::InstId(a)), true),
            second: access(InstRef::new(unused, owl_ir::InstId(b)), false),
            read_hint: None,
        };
        let mut reports = vec![first_report(&m, main)];
        reports.extend([gated(1, 2), gated(1, 1), gated(2, 2)]);
        let config = RaceVerifyConfig {
            max_schedules: 6,
            run_config: RunConfig {
                fault: owl_vm::FaultPlan::uniform(5, 0.05),
                ..RunConfig::default()
            },
            ..RaceVerifyConfig::default()
        };
        let shared = RaceVerifier::new(&m, config.clone());
        let input = ProgramInput::empty();
        // A verify that panics (here: an entry taking a parameter) must
        // leave the memo usable for every later report.
        let w = m.func_by_name("writer").unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.verify(w, &input, &reports[1])
        }));
        assert!(panicked.is_err());
        let mut reused = 0;
        for report in &reports {
            let a = shared.verify(main, &input, report);
            let b = RaceVerifier::new(&m, config.clone()).verify(main, &input, report);
            assert_eq!(b.reused_attempts, 0);
            assert_eq!(
                (a.confirmed, a.verdict, a.attempts, a.injected_faults),
                (b.confirmed, b.verdict, b.attempts, b.injected_faults)
            );
            assert_eq!((&a.hints, &a.outcome), (&b.hints, &b.outcome));
            reused += a.reused_attempts;
        }
        // The first gated report fills the memo at every seed the real
        // race's confirming attempt did not cover; the later two reuse
        // every attempt.
        assert!(reused >= 2 * config.max_schedules, "reused {reused}");
        // Another input is another memo slot: nothing to reuse yet.
        let other = ProgramInput::new(vec![1]);
        let v = shared.verify(main, &other, &reports[1]);
        assert_eq!(v.reused_attempts, 0);
    }

    #[test]
    fn write_first_order_realizes_corruption() {
        // After confirmation with WriteFirst, the read must observe the
        // written value; the confirming run's outcome proves execution
        // completed.
        let (m, main) = ptr_race_module();
        let report = first_report(&m, main);
        let verifier = RaceVerifier::new(
            &m,
            RaceVerifyConfig {
                order: RaceOrder::WriteFirst,
                ..RaceVerifyConfig::default()
            },
        );
        let v = verifier.verify(main, &ProgramInput::empty(), &report);
        assert!(v.confirmed);
        let outcome = v.outcome.expect("outcome");
        assert_eq!(outcome.status, owl_vm::ExitStatus::Finished);
    }
}
