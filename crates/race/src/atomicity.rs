//! Atomicity-violation detection (the CTrigger/AVIO integration the
//! paper lists as future work, §8.3).
//!
//! Data races are not the only concurrency-bug class that feeds
//! attacks: two *individually synchronized* accesses that a developer
//! assumed atomic can be interleaved by a remote access. AVIO's
//! classification: for a thread's consecutive local accesses `p`
//! (preceding) and `c` (current) to one address with an interleaved
//! remote access `r`, the unserializable patterns are
//!
//! | p | r | c | meaning |
//! |---|---|---|---------|
//! | R | W | R | two local reads observe different values |
//! | W | W | R | local read sees a foreign overwrite |
//! | R | W | W | local update based on a stale read |
//! | W | R | W | remote read observes a half-done update |
//!
//! Reports convert into [`RaceReport`]-shaped pairs (`remote`,
//! `current`) so the rest of the OWL pipeline — race verification,
//! Algorithm 1, vulnerability verification — consumes them unchanged.

use crate::report::{Access, RaceReport};
use owl_ir::{FxHashMap, FxHashSet, InstRef, Module, Type};
use owl_vm::{EventKind, ThreadId, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};

/// The four unserializable interleaving patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AtomicityPattern {
    /// read — remote write — read.
    RwR,
    /// write — remote write — read.
    WwR,
    /// read — remote write — write.
    RwW,
    /// write — remote read — write.
    WrW,
}

impl std::fmt::Display for AtomicityPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AtomicityPattern::RwR => "R-W-R",
            AtomicityPattern::WwR => "W-W-R",
            AtomicityPattern::RwW => "R-W-W",
            AtomicityPattern::WrW => "W-R-W",
        };
        f.write_str(s)
    }
}

/// One unserializable interleaving.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AtomicityReport {
    /// The address involved.
    pub addr: u64,
    /// Name of the global containing `addr`, when known.
    pub global_name: Option<String>,
    /// The thread's preceding local access.
    pub preceding: Access,
    /// The interleaved remote access.
    pub remote: Access,
    /// The thread's current local access.
    pub current: Access,
    /// Which unserializable pattern this is.
    pub pattern: AtomicityPattern,
}

impl AtomicityReport {
    /// Deduplication key: the three static sites.
    pub fn key(&self) -> (InstRef, InstRef, InstRef) {
        (self.preceding.site, self.remote.site, self.current.site)
    }

    /// The read whose observed value the program's subsequent decisions
    /// wrongly trust — the load Algorithm 1 should start from:
    ///
    /// * `R-W-R` / `R-W-W`: the *preceding* stale check read;
    /// * `W-W-R`: the current read (it observes the foreign overwrite);
    /// * `W-R-W`: the remote read (it observes a half-done update).
    pub fn corrupted_read(&self) -> &Access {
        match self.pattern {
            AtomicityPattern::RwR | AtomicityPattern::RwW => &self.preceding,
            AtomicityPattern::WwR => &self.current,
            AtomicityPattern::WrW => &self.remote,
        }
    }

    /// Converts into the race-report shape the rest of the pipeline
    /// consumes: the conflicting write vs. the corrupted read.
    pub fn as_race_report(&self) -> RaceReport {
        let read = self.corrupted_read().clone();
        let write = match self.pattern {
            // For W-R-W the conflicting write is the thread's own
            // half-done update the remote read observed.
            AtomicityPattern::WrW => self.preceding.clone(),
            _ => self.remote.clone(),
        };
        RaceReport {
            addr: self.addr,
            global_name: self.global_name.clone(),
            first: write,
            second: read,
            read_hint: None,
        }
    }
}

#[derive(Clone, Debug)]
struct LocalState {
    last: Access,
    /// First remote *read* since `last`, if any.
    remote_read: Option<Access>,
    /// First remote *write* since `last`, if any.
    remote_write: Option<Access>,
}

/// Online atomicity-violation detector; feed it a VM run as a
/// [`TraceSink`].
#[derive(Clone, Debug, Default)]
pub struct AtomicityDetector {
    /// (thread, addr) -> local window state.
    windows: FxHashMap<(ThreadId, u64), LocalState>,
    reported: FxHashSet<(InstRef, InstRef, InstRef)>,
    reports: Vec<AtomicityReport>,
}

impl AtomicityDetector {
    /// Creates a detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reports accumulated so far.
    pub fn reports(&self) -> &[AtomicityReport] {
        &self.reports
    }

    /// Consumes the detector, resolving global names from `module`.
    pub fn finish(mut self, module: &Module) -> Vec<AtomicityReport> {
        for r in &mut self.reports {
            r.global_name = crate::hb::global_name_for_addr(module, r.addr).map(str::to_string);
        }
        self.reports
    }

    /// The unserializable pattern for a local pair, given the remote
    /// accesses interleaved between them. A remote *write* makes
    /// R-?-R, W-?-R, and R-?-W unserializable; a remote *read*
    /// makes W-?-W unserializable.
    fn classify(st: &LocalState, c: &Access) -> Option<(AtomicityPattern, Access)> {
        match (st.last.is_write, c.is_write) {
            (false, false) => st.remote_write.clone().map(|r| (AtomicityPattern::RwR, r)),
            (true, false) => st.remote_write.clone().map(|r| (AtomicityPattern::WwR, r)),
            (false, true) => st.remote_write.clone().map(|r| (AtomicityPattern::RwW, r)),
            (true, true) => st.remote_read.clone().map(|r| (AtomicityPattern::WrW, r)),
        }
    }

    fn on_access(&mut self, ev: &TraceEvent, addr: u64, is_write: bool, value: i64, ty: Type) {
        let access = Access {
            tid: ev.tid,
            site: ev.site,
            stack: ev.stack.clone(),
            is_write,
            value,
            ty,
        };
        // Update every *other* thread's window on this address: we are
        // their interleaved remote access.
        for ((t, a), st) in self.windows.iter_mut() {
            if *a == addr && *t != ev.tid {
                let slot = if is_write {
                    &mut st.remote_write
                } else {
                    &mut st.remote_read
                };
                if slot.is_none() {
                    *slot = Some(access.clone());
                }
            }
        }
        // Close our own window if a relevant remote access interleaved.
        let key = (ev.tid, addr);
        if let Some(st) = self.windows.get(&key) {
            if let Some((pattern, remote)) = Self::classify(st, &access) {
                let report = AtomicityReport {
                    addr,
                    global_name: None,
                    preceding: st.last.clone(),
                    remote,
                    current: access.clone(),
                    pattern,
                };
                if self.reported.insert(report.key()) {
                    self.reports.push(report);
                }
            }
        }
        self.windows.insert(
            key,
            LocalState {
                last: access,
                remote_read: None,
                remote_write: None,
            },
        );
    }
}

impl TraceSink for AtomicityDetector {
    fn on_event(&mut self, ev: &TraceEvent) {
        match ev.kind {
            EventKind::Read {
                addr,
                value,
                ty,
                atomic: false,
            } => self.on_access(ev, addr, false, value, ty),
            EventKind::Write {
                addr,
                value,
                atomic: false,
                ..
            } => self.on_access(ev, addr, true, value, Type::I64),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{FuncId, ModuleBuilder, Operand, Pred};
    use owl_vm::{ProgramInput, ReplayScheduler, RoundRobin, Vm};

    /// Check-then-act on a balance where every *individual* access is
    /// locked, so there is no data race — only an atomicity violation.
    fn bank() -> (owl_ir::Module, FuncId) {
        let mut mb = ModuleBuilder::new("bank");
        let balance = mb.global_init("balance", 1, vec![100], Type::I64);
        let lock = mb.global("lock", 1, Type::I64);
        let withdraw = mb.declare_func("withdraw", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(withdraw);
            let la = b.global_addr(lock);
            let ba = b.global_addr(balance);
            b.lock(la);
            let v = b.load(ba, Type::I64);
            b.unlock(la);
            let ok = b.cmp(Pred::Ge, v, Operand::Param(0));
            let go = b.block();
            let out = b.block();
            b.br(ok, go, out);
            b.switch_to(go);
            b.lock(la);
            let v2 = b.load(ba, Type::I64);
            let v3 = b.sub(v2, Operand::Param(0));
            b.store(ba, v3);
            b.unlock(la);
            b.jmp(out);
            b.switch_to(out);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(withdraw, 80);
            let t2 = b.thread_create(withdraw, 80);
            b.thread_join(t1);
            b.thread_join(t2);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        (m, main_id)
    }

    #[test]
    fn bank_has_no_data_race_but_an_atomicity_violation() {
        let (m, main) = bank();
        // HB detector: silent (every access is locked).
        let mut hb = crate::hb::HbDetector::unannotated();
        let mut at = AtomicityDetector::new();
        // Explore a few schedules feeding both detectors.
        for seed in 0..20u64 {
            let mut sched = owl_vm::RandomScheduler::new(seed);
            let vm = Vm::new(&m, main, ProgramInput::empty(), Default::default());
            struct Both<'a>(&'a mut crate::hb::HbDetector, &'a mut AtomicityDetector);
            impl TraceSink for Both<'_> {
                fn on_event(&mut self, ev: &TraceEvent) {
                    self.0.on_event(ev);
                    self.1.on_event(ev);
                }
            }
            let _ = vm.run(&mut sched, &mut Both(&mut hb, &mut at));
        }
        assert!(hb.reports().is_empty(), "{:?}", hb.reports());
        let reports = at.finish(&m);
        // The bank's two local reads (the check and the update read)
        // straddle the other thread's store: the R-W-R pattern.
        assert!(
            reports
                .iter()
                .any(|r| r.global_name.as_deref() == Some("balance")
                    && r.pattern == AtomicityPattern::RwR),
            "stale-check pattern expected: {reports:?}"
        );
    }

    #[test]
    fn serializable_interleavings_are_quiet() {
        // Sequential execution (round robin, one thread finishes before
        // the other starts since each is short): no violations.
        let (m, main) = bank();
        let mut at = AtomicityDetector::new();
        let mut sched = RoundRobin::new(1_000);
        let vm = Vm::new(&m, main, ProgramInput::empty(), Default::default());
        let _ = vm.run(&mut sched, &mut at);
        assert!(at.reports().is_empty(), "{:?}", at.reports());
    }

    #[test]
    fn race_report_conversion_keeps_read_side() {
        let (m, main) = bank();
        let mut at = AtomicityDetector::new();
        // A schedule that interleaves: alternate threads every step.
        let mut sched = RoundRobin::new(1);
        for _ in 0..3 {
            let vm = Vm::new(&m, main, ProgramInput::empty(), Default::default());
            let _ = vm.run(&mut sched, &mut at);
        }
        let reports = at.finish(&m);
        if let Some(r) = reports.first() {
            let rr = r.as_race_report();
            assert_eq!(rr.addr, r.addr);
            assert!(rr.read_access().is_some(), "{rr:?}");
        }
    }

    #[test]
    fn replay_determinism_applies_to_atomicity_reports() {
        let (m, main) = bank();
        let run = |sched_choices: Option<Vec<ThreadId>>| {
            let mut at = AtomicityDetector::new();
            let outcome = match sched_choices {
                None => {
                    let mut sched = owl_vm::RandomScheduler::new(99);
                    Vm::new(&m, main, ProgramInput::empty(), Default::default())
                        .run(&mut sched, &mut at)
                }
                Some(c) => {
                    let mut sched = ReplayScheduler::new(c);
                    Vm::new(&m, main, ProgramInput::empty(), Default::default())
                        .run(&mut sched, &mut at)
                }
            };
            (outcome.schedule.clone(), at.finish(&m))
        };
        let (schedule, r1) = run(None);
        let (_, r2) = run(Some(schedule));
        assert_eq!(r1, r2);
    }
}
