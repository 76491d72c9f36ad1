//! Static adhoc-synchronization detection (paper §5.1).
//!
//! Developers write semaphore-like adhoc synchronizations — one thread
//! busy-waits on a shared flag until another thread sets it. TSan and
//! SKI cannot see the ordering these encode, so they flood reports with
//! benign races. OWL recognizes the pattern *from the race report
//! itself* and emits an annotation that the detector then honours.
//!
//! The paper's procedure, which this module implements:
//!
//! 1. take the race report's read instruction and check it sits in a
//!    loop;
//! 2. run an intra-procedural forward data & control dependency
//!    analysis from the read; if a branch in the propagation chain can
//!    break out of the loop, the read is a candidate busy-wait;
//! 3. check the report's write instruction stores a constant.
//!
//! One refinement (inherited from SyncFinder's definition of busy-wait
//! loops, and necessary to keep the SSDB-style *vulnerable* flag race
//! of Figure 6 out of this bucket): the spin loop must be
//! side-effect-free — no stores to shared memory, no calls, no
//! vulnerable-site intrinsics inside the loop body. A loop that does
//! real work guarded by a racy flag is not a synchronization idiom;
//! it is exactly the shape concurrency attacks hide in.

use owl_ir::analysis::FuncAnalysis;
use owl_ir::{FxHashSet, Inst, InstId, InstRef, Module, Operand};
use owl_race::{HbAnnotation, RaceReport};

/// Result of classifying one race report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdhocVerdict {
    /// The report is an adhoc synchronization; annotate this pair.
    AdhocSync(HbAnnotation),
    /// Not an adhoc synchronization (reason recorded for diagnostics).
    NotAdhoc(&'static str),
}

/// Detects adhoc synchronizations in race reports.
#[derive(Debug)]
pub struct AdhocSyncDetector<'m> {
    module: &'m Module,
}

impl<'m> AdhocSyncDetector<'m> {
    /// Creates a detector over `module`.
    pub fn new(module: &'m Module) -> Self {
        AdhocSyncDetector { module }
    }

    /// Classifies one race report.
    pub fn classify(&self, report: &RaceReport) -> AdhocVerdict {
        let Some(read) = report.read_access() else {
            return AdhocVerdict::NotAdhoc("no read side");
        };
        let write = if report.first.is_write {
            &report.first
        } else if report.second.is_write {
            &report.second
        } else {
            return AdhocVerdict::NotAdhoc("no write side");
        };
        // The write must store a constant (flag semantics).
        match self.module.inst(write.site) {
            Inst::Store {
                val: Operand::Const(_),
                ..
            } => {}
            _ => return AdhocVerdict::NotAdhoc("write is not a constant store"),
        }
        let func = self.module.func(read.site.func);
        if !func.is_internal {
            return AdhocVerdict::NotAdhoc("read in external function");
        }
        let fa = FuncAnalysis::new(self.module, read.site.func);
        // (1) The read must sit in a loop.
        let Some(lp) = fa.loops.loop_of_inst(read.site.inst) else {
            return AdhocVerdict::NotAdhoc("read not in a loop");
        };
        let lp = lp.clone();
        // (2) Forward intra-procedural data-dependency closure from the
        // read; some branch in the chain must be able to exit the loop.
        let mut corrupted: FxHashSet<InstId> = FxHashSet::default();
        corrupted.insert(read.site.inst);
        let mut work = vec![read.site.inst];
        let mut exiting_branch = false;
        while let Some(d) = work.pop() {
            for &user in fa.defuse.uses(d) {
                if !corrupted.insert(user) {
                    continue;
                }
                if matches!(func.inst(user), Inst::Br { .. })
                    && fa.loops.branch_exits_loop(func, user, &lp)
                {
                    exiting_branch = true;
                }
                work.push(user);
            }
        }
        if !exiting_branch {
            return AdhocVerdict::NotAdhoc("no dependent branch exits the loop");
        }
        // (3, refinement) The loop body must be a pure spin: no stores,
        // calls, frees, or vulnerable intrinsics.
        for b in lp.body.iter() {
            for &i in &func.blocks[b.index()].insts {
                match func.inst(i) {
                    Inst::Store { .. }
                    | Inst::AtomicStore { .. }
                    | Inst::Call { .. }
                    | Inst::Free { .. }
                    | Inst::Malloc { .. }
                    | Inst::MemCopy { .. }
                    | Inst::SetPrivilege { .. }
                    | Inst::FileAccess { .. }
                    | Inst::Exec { .. }
                    | Inst::ThreadCreate { .. }
                    | Inst::Output { .. } => {
                        return AdhocVerdict::NotAdhoc("loop body has side effects")
                    }
                    _ => {}
                }
            }
        }
        AdhocVerdict::AdhocSync(HbAnnotation {
            write_site: write.site,
            read_site: read.site,
        })
    }

    /// Classifies a batch of reports; returns the annotations found and
    /// the indices of reports they came from.
    pub fn detect(&self, reports: &[RaceReport]) -> Vec<(usize, HbAnnotation)> {
        let mut seen: FxHashSet<(InstRef, InstRef)> = FxHashSet::default();
        let mut out = Vec::new();
        for (i, r) in reports.iter().enumerate() {
            if let AdhocVerdict::AdhocSync(a) = self.classify(r) {
                if seen.insert((a.write_site, a.read_site)) {
                    out.push((i, a));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{FuncId, ModuleBuilder, Pred, Type};
    use owl_race::{HbConfig, HbDetector};
    use owl_vm::{ProgramInput, RoundRobin, TraceSink, Vm};

    /// Builds a producer/consumer module. When `spin_pure` is false the
    /// wait loop also does real work (a store), which must disqualify
    /// it.
    fn adhoc_module(spin_pure: bool) -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("adhoc");
        let data = mb.global("data", 1, Type::I64);
        let ready = mb.global("ready", 1, Type::I64);
        let side = mb.global("side", 1, Type::I64);
        let consumer = mb.declare_func("consumer", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(consumer);
            b.loc("consumer.c", 10);
            let head = b.block();
            let done = b.block();
            b.jmp(head);
            b.switch_to(head);
            let ra = b.global_addr(ready);
            let v = b.load(ra, Type::I64);
            if !spin_pure {
                let sa = b.global_addr(side);
                b.store(sa, 1);
            }
            let c = b.cmp(Pred::Ne, v, 0);
            b.br(c, done, head);
            b.switch_to(done);
            let da = b.global_addr(data);
            b.load(da, Type::I64);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            b.loc("main.c", 20);
            let t = b.thread_create(consumer, 0);
            let da = b.global_addr(data);
            b.store(da, 42);
            let ra = b.global_addr(ready);
            b.store(ra, 1);
            b.thread_join(t);
            b.ret(None);
        }
        (mb.finish(), main)
    }

    fn detect_reports(m: &Module, main: FuncId) -> Vec<RaceReport> {
        let mut det = HbDetector::new(HbConfig::default());
        let mut sched = RoundRobin::new(3);
        let vm = Vm::new(m, main, ProgramInput::empty(), Default::default());
        let _ = vm.run(&mut sched, &mut det);
        // Drain remaining events? (run consumed everything already.)
        let _ = &mut det as &mut dyn TraceSink;
        det.finish(m)
    }

    #[test]
    fn pure_spin_flag_is_adhoc() {
        let (m, main) = adhoc_module(true);
        let reports = detect_reports(&m, main);
        let flag_report = reports
            .iter()
            .find(|r| r.global_name.as_deref() == Some("ready"))
            .expect("flag race");
        let det = AdhocSyncDetector::new(&m);
        match det.classify(flag_report) {
            AdhocVerdict::AdhocSync(a) => {
                assert_eq!(m.func(a.read_site.func).name, "consumer");
                assert_eq!(m.func(a.write_site.func).name, "main");
            }
            other => panic!("expected adhoc sync, got {other:?}"),
        }
    }

    #[test]
    fn impure_spin_loop_is_not_adhoc() {
        let (m, main) = adhoc_module(false);
        let reports = detect_reports(&m, main);
        let flag_report = reports
            .iter()
            .find(|r| r.global_name.as_deref() == Some("ready"))
            .expect("flag race");
        let det = AdhocSyncDetector::new(&m);
        assert_eq!(
            det.classify(flag_report),
            AdhocVerdict::NotAdhoc("loop body has side effects")
        );
    }

    #[test]
    fn straight_line_race_is_not_adhoc() {
        let mut mb = ModuleBuilder::new("plain");
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
            b.load(a, Type::I64);
            b.thread_join(t);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        let reports = detect_reports(&m, main_id);
        assert_eq!(reports.len(), 1);
        let det = AdhocSyncDetector::new(&m);
        assert_eq!(
            det.classify(&reports[0]),
            AdhocVerdict::NotAdhoc("read not in a loop")
        );
    }

    #[test]
    fn non_constant_write_is_not_adhoc() {
        // Same spin shape, but the writer stores a computed value.
        let mut mb = ModuleBuilder::new("nc");
        let ready = mb.global("ready", 1, Type::I64);
        let consumer = mb.declare_func("consumer", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(consumer);
            let head = b.block();
            let done = b.block();
            b.jmp(head);
            b.switch_to(head);
            let ra = b.global_addr(ready);
            let v = b.load(ra, Type::I64);
            let c = b.cmp(Pred::Ne, v, 0);
            b.br(c, done, head);
            b.switch_to(done);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(consumer, 0);
            let x = b.input(0);
            let y = b.add(x, 1);
            let ra = b.global_addr(ready);
            b.store(ra, y);
            b.thread_join(t);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        let mut det = HbDetector::unannotated();
        let mut sched = RoundRobin::new(3);
        let vm = Vm::new(&m, main_id, ProgramInput::new(vec![1]), Default::default());
        let _ = vm.run(&mut sched, &mut det);
        let reports = det.finish(&m);
        let flag = reports
            .iter()
            .find(|r| r.global_name.as_deref() == Some("ready"))
            .expect("flag race");
        let adet = AdhocSyncDetector::new(&m);
        assert_eq!(
            adet.classify(flag),
            AdhocVerdict::NotAdhoc("write is not a constant store")
        );
    }

    #[test]
    fn batch_detection_dedups() {
        let (m, main) = adhoc_module(true);
        let mut reports = detect_reports(&m, main);
        let extra = reports
            .iter()
            .find(|r| r.global_name.as_deref() == Some("ready"))
            .unwrap()
            .clone();
        reports.push(extra);
        let det = AdhocSyncDetector::new(&m);
        let anns = det.detect(&reports);
        assert_eq!(anns.len(), 1);
    }
}
