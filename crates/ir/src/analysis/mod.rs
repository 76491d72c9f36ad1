//! Static analyses over the IR: CFG, dominators, control dependence,
//! natural loops, call graph, and def-use chains.

pub mod callgraph;
pub mod cfg;
pub mod ctrldep;
pub mod defuse;
pub mod dom;
pub mod elision;
pub mod loops;
pub mod pointsto;

pub use callgraph::CallGraph;
pub use cfg::Cfg;
pub use ctrldep::ControlDeps;
pub use defuse::DefUse;
pub use dom::{DomTree, PostDomTree};
pub use elision::{ElisionClass, ElisionMap, ElisionStats};
pub use loops::{Loop, LoopInfo};
pub use pointsto::{AbsLoc, PointsTo, PointsToStats};

use crate::ids::FuncId;
use crate::module::Module;

/// All per-function analyses, computed together. The OWL analyzers need
/// most of them at once, and computing them as a bundle keeps callers
/// from mixing analyses of different functions.
#[derive(Clone, Debug)]
pub struct FuncAnalysis {
    /// Control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree.
    pub dom: DomTree,
    /// Post-dominator tree.
    pub pdom: PostDomTree,
    /// Control dependences.
    pub ctrl: ControlDeps,
    /// Natural loops.
    pub loops: LoopInfo,
    /// Def-use chains.
    pub defuse: DefUse,
}

impl FuncAnalysis {
    /// Computes all analyses for `m.func(f)`.
    pub fn new(m: &Module, f: FuncId) -> Self {
        let func = m.func(f);
        let cfg = Cfg::new(func);
        let dom = DomTree::new(func, &cfg);
        let pdom = PostDomTree::new(func, &cfg);
        let ctrl = ControlDeps::new(func, &cfg, &pdom);
        let loops = LoopInfo::new(func, &cfg, &dom);
        let defuse = DefUse::new(func);
        FuncAnalysis {
            cfg,
            dom,
            pdom,
            ctrl,
            loops,
            defuse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    #[test]
    fn bundle_computes_for_trivial_function() {
        let mut mb = ModuleBuilder::new("t");
        let f = mb.declare_func("f", 0);
        {
            let mut b = mb.build_func(f);
            b.ret(None);
        }
        let m = mb.finish();
        let fa = FuncAnalysis::new(&m, f);
        assert_eq!(fa.cfg.len(), 1);
        assert!(fa.loops.loops().is_empty());
    }
}
