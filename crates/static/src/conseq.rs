//! ConSeq-style consequence analysis (related-work baseline).
//!
//! ConSeq detects harmful concurrency bugs by analyzing failure
//! consequences, but its key assumption is that bugs and their failure
//! sites sit within a *short* control/data-flow distance — typically
//! the same function — and it does not track control dependences
//! inter-procedurally. The paper argues (§9, finding II) that
//! concurrency *attacks* violate this assumption: 7 of the 10
//! reproduced attacks have bug and vulnerability site in different
//! functions, often connected through control flow.
//!
//! This module implements that regime faithfully — intra-procedural,
//! data-flow-only — so the benches can show exactly which attacks it
//! misses.

use crate::vuln::{DepKind, VulnReport};
use owl_ir::analysis::DefUse;
use owl_ir::{FxHashSet, Inst, InstId, InstRef, Module, Operand, VulnClass};

/// Intra-procedural, data-flow-only consequence analyzer.
#[derive(Debug)]
pub struct ConseqAnalyzer<'m> {
    module: &'m Module,
}

impl<'m> ConseqAnalyzer<'m> {
    /// Creates an analyzer over `module`.
    pub fn new(module: &'m Module) -> Self {
        ConseqAnalyzer { module }
    }

    /// Analyzes forward from the corrupted load `start`, staying inside
    /// its function and following data flow only.
    pub fn analyze(&self, start: InstRef) -> Vec<VulnReport> {
        let func = self.module.func(start.func);
        if !func.is_internal {
            return Vec::new();
        }
        let du = DefUse::new(func);
        let mut corrupted: FxHashSet<InstId> = FxHashSet::default();
        corrupted.insert(start.inst);
        let mut work = vec![start.inst];
        let mut reports = Vec::new();
        let mut reported: FxHashSet<InstId> = FxHashSet::default();
        while let Some(d) = work.pop() {
            for &user in du.uses(d) {
                let inst = func.inst(user);
                // Report vulnerable sites whose relevant operand is
                // corrupted.
                let hit = match inst {
                    Inst::Load { addr, .. } | Inst::Store { addr, .. } => {
                        matches!(addr, Operand::Value(v) if corrupted.contains(v))
                            .then_some(VulnClass::NullDeref)
                    }
                    _ if inst.is_explicit_vuln_site() => inst.vuln_class(),
                    Inst::Call {
                        callee: owl_ir::Callee::Indirect(p),
                        ..
                    } => matches!(p, Operand::Value(v) if corrupted.contains(v))
                        .then_some(VulnClass::NullDeref),
                    _ => None,
                };
                if let Some(class) = hit {
                    if reported.insert(user) {
                        reports.push(VulnReport {
                            site: InstRef::new(start.func, user),
                            class,
                            dep: DepKind::DataDep,
                            source: start,
                            branches: Vec::new(),
                            path_branches: Vec::new(),
                            chain: vec![start, InstRef::new(start.func, user)],
                        });
                    }
                }
                if inst.has_result() && corrupted.insert(user) {
                    work.push(user);
                }
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{ModuleBuilder, Type};

    #[test]
    fn same_function_data_flow_found() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1, Type::I64);
        let f = mb.declare_func("f", 0);
        let (load, site);
        {
            let mut b = mb.build_func(f);
            let a = b.global_addr(g);
            load = b.load(a, Type::I64);
            site = b.exec(load);
            b.ret(None);
        }
        let m = mb.finish();
        let an = ConseqAnalyzer::new(&m);
        let reports = an.analyze(InstRef::new(f, load));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].site.inst, site);
        assert_eq!(reports[0].class, VulnClass::ExecOp);
    }

    #[test]
    fn cross_function_attack_missed() {
        // Corrupted value escapes through a call: ConSeq regime stops
        // at the function boundary.
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1, Type::I64);
        let sink = mb.declare_func("sink", 1);
        let f = mb.declare_func("f", 0);
        {
            let mut b = mb.build_func(sink);
            b.exec(Operand::Param(0));
            b.ret(None);
        }
        let load;
        {
            let mut b = mb.build_func(f);
            let a = b.global_addr(g);
            load = b.load(a, Type::I64);
            b.call(sink, vec![load.into()]);
            b.ret(None);
        }
        let m = mb.finish();
        let an = ConseqAnalyzer::new(&m);
        let reports = an.analyze(InstRef::new(f, load));
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn control_dependent_attack_missed() {
        // Libsafe-style control dependence is invisible to pure data
        // flow.
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("dying", 1, Type::I64);
        let f = mb.declare_func("f", 0);
        let load;
        {
            let mut b = mb.build_func(f);
            let a = b.global_addr(g);
            load = b.load(a, Type::I64);
            let yes = b.block();
            let no = b.block();
            b.br(load, yes, no);
            b.switch_to(yes);
            b.memcopy(a, a, 64); // guarded by corrupted branch
            b.jmp(no);
            b.switch_to(no);
            b.ret(None);
        }
        let m = mb.finish();
        let an = ConseqAnalyzer::new(&m);
        let reports = an.analyze(InstRef::new(f, load));
        assert!(reports.is_empty(), "{reports:?}");
    }
}
