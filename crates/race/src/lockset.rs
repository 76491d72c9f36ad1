//! Eraser-style lockset race detection (baseline).
//!
//! Lockset analysis flags any shared variable not consistently
//! protected by at least one common lock (one report per variable). It
//! needs no happens-before reasoning, which makes it cheap — and
//! notoriously over-approximate: fork/join ordering, atomics, and
//! initialization patterns all become false positives. The ablation
//! bench uses it to show the trade-off: fewer raw reports than
//! happens-before (per-variable dedup) but systematic false positives
//! on perfectly ordered programs.

use crate::report::{Access, RaceReport};
use owl_ir::{FxHashMap, FxHashSet, InstRef, Type};
use owl_vm::{EventKind, ThreadId, TraceEvent, TraceSink};
use std::collections::BTreeSet;

#[derive(Clone, Debug, PartialEq)]
enum VarState {
    /// Only ever touched by one thread so far.
    Exclusive { tid: ThreadId, first: Access },
    /// Shared read-only.
    Shared {
        candidate: BTreeSet<u64>,
        first: Access,
    },
    /// Shared and written.
    SharedModified {
        candidate: BTreeSet<u64>,
        first: Access,
    },
    /// Already reported.
    Reported,
}

/// Eraser-like detector over VM traces.
#[derive(Clone, Debug, Default)]
pub struct LocksetDetector {
    held: FxHashMap<ThreadId, BTreeSet<u64>>,
    vars: FxHashMap<u64, VarState>,
    reported: FxHashSet<(InstRef, InstRef)>,
    reports: Vec<RaceReport>,
}

impl LocksetDetector {
    /// Creates a detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reports accumulated so far.
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Consumes the detector, returning its reports.
    pub fn into_reports(self) -> Vec<RaceReport> {
        self.reports
    }

    fn held(&self, t: ThreadId) -> BTreeSet<u64> {
        self.held.get(&t).cloned().unwrap_or_default()
    }

    fn access(&mut self, ev: &TraceEvent, addr: u64, is_write: bool, value: i64, ty: Type) {
        let access = Access {
            tid: ev.tid,
            site: ev.site,
            stack: ev.stack.clone(),
            is_write,
            value,
            ty,
        };
        let held = self.held(ev.tid);
        let old = self.vars.remove(&addr).unwrap_or(VarState::Exclusive {
            tid: ev.tid,
            first: access.clone(),
        });
        let mut report_against: Option<Access> = None;
        let new = match old {
            VarState::Exclusive { tid, first } if tid == ev.tid => {
                VarState::Exclusive { tid, first }
            }
            VarState::Exclusive { first, .. } => {
                // Second thread arrives: candidate set = its held locks.
                if !is_write && !first.is_write {
                    VarState::Shared {
                        candidate: held,
                        first,
                    }
                } else if held.is_empty() {
                    report_against = Some(first.clone());
                    VarState::Reported
                } else {
                    VarState::SharedModified {
                        candidate: held,
                        first,
                    }
                }
            }
            VarState::Shared { candidate, first } => {
                let candidate: BTreeSet<u64> = candidate.intersection(&held).copied().collect();
                if is_write && candidate.is_empty() {
                    report_against = Some(first.clone());
                    VarState::Reported
                } else if is_write {
                    VarState::SharedModified { candidate, first }
                } else {
                    VarState::Shared { candidate, first }
                }
            }
            VarState::SharedModified { candidate, first } => {
                let candidate: BTreeSet<u64> = candidate.intersection(&held).copied().collect();
                if candidate.is_empty() {
                    report_against = Some(first.clone());
                    VarState::Reported
                } else {
                    VarState::SharedModified { candidate, first }
                }
            }
            VarState::Reported => VarState::Reported,
        };
        self.vars.insert(addr, new);
        if let Some(first) = report_against {
            let key = {
                let (a, b) = (first.site, access.site);
                if a <= b {
                    (a, b)
                } else {
                    (b, a)
                }
            };
            if self.reported.insert(key) {
                self.reports.push(RaceReport {
                    addr,
                    global_name: None,
                    first,
                    second: access,
                    read_hint: None,
                });
            }
        }
    }
}

impl TraceSink for LocksetDetector {
    fn on_event(&mut self, ev: &TraceEvent) {
        match ev.kind {
            EventKind::Read {
                addr,
                value,
                ty,
                atomic: false,
            } => self.access(ev, addr, false, value, ty),
            EventKind::Write {
                addr,
                value,
                atomic: false,
                ..
            } => self.access(ev, addr, true, value, Type::I64),
            EventKind::Lock { addr } => {
                self.held.entry(ev.tid).or_default().insert(addr);
            }
            EventKind::Unlock { addr } => {
                self.held.entry(ev.tid).or_default().remove(&addr);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{Module, ModuleBuilder};
    use owl_vm::{ProgramInput, RoundRobin, Vm};

    fn run(m: &Module, entry: owl_ir::FuncId) -> Vec<RaceReport> {
        let mut det = LocksetDetector::new();
        let mut sched = RoundRobin::new(2);
        let vm = Vm::new(m, entry, ProgramInput::empty(), Default::default());
        let _ = vm.run(&mut sched, &mut det);
        det.into_reports()
    }

    #[test]
    fn flags_unlocked_shared_write() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1, Type::I64);
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
            b.store(a, 2);
            b.thread_join(t);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        assert_eq!(run(&m, main_id).len(), 1);
    }

    #[test]
    fn consistent_locking_is_clean() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1, Type::I64);
        let l = mb.global("l", 1, Type::I64);
        let w = mb.declare_func("w", 1);
        let main = mb.declare_func("main", 0);
        for f in [w, main] {
            let is_main = f == main;
            let mut b = mb.build_func(f);
            let t = if is_main {
                Some(b.thread_create(w, 0))
            } else {
                None
            };
            let la = b.global_addr(l);
            b.lock(la);
            let a = b.global_addr(g);
            let v = b.load(a, Type::I64);
            let v2 = b.add(v, 1);
            b.store(a, v2);
            b.unlock(la);
            if let Some(t) = t {
                b.thread_join(t);
            }
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        assert!(run(&m, main_id).is_empty());
    }

    #[test]
    fn fork_join_is_a_false_positive_for_lockset() {
        // Properly fork/join-ordered accesses still get flagged: the
        // baseline's characteristic over-report.
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1, Type::I64);
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
            b.thread_join(t);
            let a = b.global_addr(g);
            b.store(a, 2); // ordered by join, but lockset cannot see it
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        assert_eq!(run(&m, main_id).len(), 1);
    }
}
