//! The static bug-to-attack vulnerability analyzer — Algorithm 1 of the
//! paper (§6.1).
//!
//! Starting from the corrupted load of a (verified) race report and its
//! dynamic call stack, the analyzer performs an inter-procedural
//! forward **data and control** flow analysis to discover whether the
//! corruption can reach one of the five vulnerable-site classes
//! (§3.2). The output — the propagation chain and the corrupted branch
//! instructions that gate the site — is the *vulnerable input hint*
//! developers (and the dynamic vulnerability verifier) use to construct
//! attack inputs.
//!
//! Design decisions carried over from the paper:
//!
//! * **Call-stack-guided traversal**: after the function containing the
//!   corrupted load is analyzed, the analyzer pops the dynamic call
//!   stack and continues in each caller from the recorded call site,
//!   treating the call's result as corrupted when the callee's return
//!   value was (data- or control-) corrupted. This is what makes the
//!   analysis scale while still crossing function boundaries — the
//!   study found bugs and attacks share call-stack prefixes (§3.2).
//! * **Memory-aware propagation** (extension over the paper): the
//!   paper's OWL tracks corruption through SSA virtual registers only
//!   and leans on runtime-observed addresses to compensate (§6.1).
//!   This analyzer additionally consults a flow-insensitive Andersen
//!   points-to solution ([`owl_ir::analysis::PointsTo`]): a store of a
//!   corrupted value taints the abstract locations its address may
//!   point to, and loads that may read a tainted location become
//!   corruption sources themselves (*relay loads*), so corruption
//!   survives a round trip through the heap or globals. Disable with
//!   [`VulnConfig::points_to`] to recover the register-only regime.
//! * **Memoized function summaries**: callee subtrees are walked once
//!   per (callee, corrupted-params, control) key and replayed from a
//!   [`SummaryCache`] thereafter — across reports and across worker
//!   threads — and the points-to-refined call graph lets the walk
//!   ascend into *callers* when no dynamic call stack is available
//!   (whole-program mode). Disable with [`VulnConfig::summaries`].
//! * **Control-dependence tracking**: a vulnerable site that executes
//!   under a corrupted branch is reported `CTRL_DEP` even when its
//!   operands are clean — the Libsafe attack (Figure 1/5) is exactly
//!   this shape.

use crate::summary::{FuncSummary, SummaryCache, SummaryKey, SummaryReport};
use owl_ir::analysis::{AbsLoc, CallGraph, FuncAnalysis, PointsTo};
use owl_ir::{
    Callee, FuncId, FxHashMap, FxHashSet, Inst, InstId, InstRef, Module, Operand, VulnClass,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How the corruption reaches the vulnerable site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepKind {
    /// The site's operand is data-dependent on the corrupted load.
    DataDep,
    /// The site is control-dependent on a corrupted branch.
    CtrlDep,
}

impl std::fmt::Display for DepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepKind::DataDep => f.write_str("DATA_DEP"),
            DepKind::CtrlDep => f.write_str("CTRL_DEP"),
        }
    }
}

/// One potential bug-to-attack propagation: the vulnerable input hint.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VulnReport {
    /// The vulnerable site reached.
    pub site: InstRef,
    /// Which of the five classes the site belongs to.
    pub class: VulnClass,
    /// Dependence kind.
    pub dep: DepKind,
    /// The corrupted load the analysis started from.
    pub source: InstRef,
    /// Corrupted branch instructions gating the site — the concrete
    /// branches an input must satisfy to trigger the attack.
    pub branches: Vec<InstRef>,
    /// *All* branches the site is (transitively) control-dependent on
    /// within its function — corrupted or not. These are the branches
    /// the dynamic verifier watches and the input synthesizer solves;
    /// input-dependent gates (e.g. "is this a PHP request?") show up
    /// here even though no corruption flows through them.
    pub path_branches: Vec<InstRef>,
    /// Data-propagation chain from source toward the site (IR refs).
    pub chain: Vec<InstRef>,
}

/// Analyzer configuration (the ablation knobs map to the paper's design
/// decisions).
#[derive(Clone, Debug)]
pub struct VulnConfig {
    /// Which site classes to report.
    pub classes: Vec<VulnClass>,
    /// Maximum call depth descended from the start function.
    pub max_call_depth: usize,
    /// Walk the dynamic call stack upward (§4.1). Disabling confines
    /// the analysis to the function containing the corrupted load and
    /// its callees.
    pub follow_call_stack: bool,
    /// Track control dependences. Disabling reduces the analyzer to
    /// pure data-flow (the ConSeq-style regime).
    pub track_control: bool,
    /// Propagate corruption through memory using the Andersen
    /// points-to solution, and resolve indirect-call descents from it.
    /// Disabling recovers the paper's register-only regime.
    pub points_to: bool,
    /// Memoize per-function corruption summaries and ascend into
    /// callers via the call graph when no dynamic call stack is
    /// available (whole-program mode).
    pub summaries: bool,
}

impl Default for VulnConfig {
    fn default() -> Self {
        VulnConfig {
            classes: vec![
                VulnClass::MemoryOp,
                VulnClass::NullDeref,
                VulnClass::PrivilegeOp,
                VulnClass::FileOp,
                VulnClass::ExecOp,
            ],
            max_call_depth: 8,
            follow_call_stack: true,
            track_control: true,
            points_to: true,
            summaries: true,
        }
    }
}

/// Performance counters for one analysis (Table 3's analysis-cost
/// column is measured over these runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VulnStats {
    /// Instructions visited.
    pub insts_visited: u64,
    /// Function bodies entered (including re-entries).
    pub funcs_entered: u64,
}

/// The analyzer. Holds per-function analysis caches so repeated queries
/// over the same module stay cheap.
#[derive(Debug)]
pub struct VulnAnalyzer<'m> {
    module: &'m Module,
    config: VulnConfig,
    fa_cache: FxHashMap<FuncId, FuncAnalysis>,
    points_to: Option<Arc<PointsTo>>,
    callgraph: Option<Arc<CallGraph>>,
    summaries: Option<Arc<SummaryCache>>,
    /// Summary keys currently being computed (recursion-cycle guard).
    in_progress: FxHashSet<SummaryKey>,
}

/// Where to start traversal inside a function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Start {
    /// From the entry block.
    Entry,
    /// From the instruction *after* the given one.
    After(InstId),
}

#[derive(Debug)]
struct Walk {
    crpt: FxHashSet<InstRef>,
    parent: FxHashMap<InstRef, InstRef>,
    reports: Vec<VulnReport>,
    reported: FxHashSet<(InstRef, DepKind)>,
    visited: FxHashSet<(FuncId, Option<InstId>, u32, bool)>,
    stats: VulnStats,
    source: InstRef,
    /// Abstract locations tainted by stores of corrupted values, with
    /// the tainting store as provenance for relay-load chains.
    tainted: BTreeMap<AbsLoc, InstRef>,
    /// Relay loads already promoted to corruption sources.
    relays: FxHashSet<InstRef>,
}

impl Walk {
    fn new(source: InstRef) -> Self {
        Walk {
            crpt: FxHashSet::default(),
            parent: FxHashMap::default(),
            reports: Vec::new(),
            reported: FxHashSet::default(),
            visited: FxHashSet::default(),
            stats: VulnStats::default(),
            source,
            tainted: BTreeMap::new(),
            relays: FxHashSet::default(),
        }
    }
}

/// Whether `op` is corrupted in the current context.
fn corrupted_op(
    walk: &Walk,
    func_id: FuncId,
    crpt_params: u32,
    here: InstRef,
    op: &Operand,
) -> Option<InstRef> {
    match op {
        Operand::Value(v) => {
            let r = InstRef::new(func_id, *v);
            walk.crpt.contains(&r).then_some(r)
        }
        Operand::Param(p) => {
            if crpt_params & (1u32 << (p % 32)) != 0 {
                Some(here) // provenance collapses to the using inst
            } else {
                None
            }
        }
        Operand::Const(_) => None,
    }
}

impl<'m> VulnAnalyzer<'m> {
    /// Creates an analyzer with the given configuration, building the
    /// points-to solution, call graph, and summary cache it demands.
    pub fn new(module: &'m Module, config: VulnConfig) -> Self {
        Self::with_shared(module, config, None, None, None)
    }

    /// Analyzer with default configuration.
    pub fn with_defaults(module: &'m Module) -> Self {
        Self::new(module, VulnConfig::default())
    }

    /// Creates an analyzer that reuses pre-computed module-level state:
    /// the pipeline solves points-to once, refines one call graph and
    /// allocates one summary cache, then hands the `Arc`s to every
    /// per-report (and per-worker) analyzer. Pieces the configuration
    /// asks for but the caller did not supply are built here; pieces
    /// the configuration disables are dropped. One summary cache must
    /// not be shared between analyzers with different configurations —
    /// summaries record configuration-dependent reports.
    pub fn with_shared(
        module: &'m Module,
        config: VulnConfig,
        points_to: Option<Arc<PointsTo>>,
        callgraph: Option<Arc<CallGraph>>,
        summaries: Option<Arc<SummaryCache>>,
    ) -> Self {
        let points_to = config
            .points_to
            .then(|| points_to.unwrap_or_else(|| Arc::new(PointsTo::new(module))));
        let callgraph = config.summaries.then(|| {
            callgraph.unwrap_or_else(|| {
                Arc::new(match &points_to {
                    Some(p) => CallGraph::with_points_to(module, p),
                    None => CallGraph::new(module),
                })
            })
        });
        let summaries = config
            .summaries
            .then(|| summaries.unwrap_or_else(|| Arc::new(SummaryCache::new())));
        VulnAnalyzer {
            module,
            config,
            fa_cache: FxHashMap::default(),
            points_to,
            callgraph,
            summaries,
            in_progress: FxHashSet::default(),
        }
    }

    /// The shared summary cache, when summaries are enabled.
    pub fn summary_cache(&self) -> Option<&Arc<SummaryCache>> {
        self.summaries.as_ref()
    }

    /// The points-to solution, when memory-aware propagation is on.
    pub fn points_to(&self) -> Option<&Arc<PointsTo>> {
        self.points_to.as_ref()
    }

    fn fa(&mut self, f: FuncId) -> &FuncAnalysis {
        let module = self.module;
        self.fa_cache
            .entry(f)
            .or_insert_with(|| FuncAnalysis::new(module, f))
    }

    /// Runs Algorithm 1 from the corrupted load `start` with its dynamic
    /// call stack (`call_stack`: call sites, outermost first). Returns
    /// the vulnerable input hints plus traversal statistics.
    pub fn analyze(
        &mut self,
        start: InstRef,
        call_stack: &[InstRef],
    ) -> (Vec<VulnReport>, VulnStats) {
        let mut walk = Walk::new(start);
        walk.crpt.insert(start);
        let mut ret_corrupted = self.do_detect(
            &mut walk,
            start.func,
            Start::After(start.inst),
            0,
            false,
            &[],
            0,
        );
        if self.config.follow_call_stack {
            if call_stack.is_empty() {
                // Whole-program mode: no dynamic stack was recorded, so
                // ascend through every call site the (points-to-refined)
                // call graph says may have invoked the start function.
                if ret_corrupted {
                    self.caller_walk(&mut walk, start.func, 0);
                }
            } else {
                // Pop the dynamic call stack from innermost caller
                // outward.
                for call_site in call_stack.iter().rev() {
                    if ret_corrupted {
                        // The callee's return value is corrupted: taint
                        // the call instruction in the caller.
                        walk.crpt.insert(*call_site);
                        walk.parent.entry(*call_site).or_insert(start);
                    }
                    ret_corrupted = self.do_detect(
                        &mut walk,
                        call_site.func,
                        Start::After(call_site.inst),
                        0,
                        false,
                        &[],
                        0,
                    );
                }
            }
        }
        self.relay_fixpoint(&mut walk);
        let mut reports = walk.reports;
        let stats = walk.stats;
        for r in &mut reports {
            r.path_branches = self.path_branches(r.site);
        }
        (reports, stats)
    }

    /// All branches `site` is transitively control-dependent on within
    /// its own function.
    fn path_branches(&mut self, site: InstRef) -> Vec<InstRef> {
        let func = self.module.func(site.func);
        if !func.is_internal {
            return Vec::new();
        }
        let fa = self.fa(site.func).clone();
        let func = self.module.func(site.func);
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut work = vec![fa.ctrl.block_of(site.inst)];
        while let Some(b) = work.pop() {
            for dep in fa.ctrl.block_deps(b) {
                let term = func.blocks[dep.index()].terminator();
                let r = InstRef::new(site.func, term);
                if seen.insert(r) {
                    out.push(r);
                    work.push(*dep);
                }
            }
        }
        out
    }

    /// Traverses `func` from `start`, propagating corruption. Returns
    /// whether the function's return value is corrupted (data or
    /// control).
    #[allow(clippy::too_many_arguments)]
    fn do_detect(
        &mut self,
        walk: &mut Walk,
        func_id: FuncId,
        start: Start,
        crpt_params: u32,
        ctrl_dep: bool,
        ctx_branches: &[InstRef],
        depth: usize,
    ) -> bool {
        let func = self.module.func(func_id);
        if !func.is_internal || depth > self.config.max_call_depth {
            return false;
        }
        let start_inst = match start {
            Start::Entry => None,
            Start::After(i) => Some(i),
        };
        if !walk
            .visited
            .insert((func_id, start_inst, crpt_params, ctrl_dep))
        {
            return false;
        }
        walk.stats.funcs_entered += 1;

        // Per-invocation corrupted branch set (the paper's
        // localCrptBrs), seeded empty.
        let mut local_brs: Vec<InstRef> = Vec::new();
        let mut ret_corrupted = false;

        // Traversal order: the remainder of the start instruction's
        // block, then all blocks reachable from it. The function
        // analyses are cached across queries (cloned out so recursion
        // can re-borrow `self`).
        let fa = self.fa(func_id).clone();
        let func = self.module.func(func_id);
        let owner = func.inst_blocks();
        let (start_block, start_idx) = match start {
            Start::Entry => (func.entry(), 0usize),
            Start::After(i) => {
                let b = owner[i.index()];
                let pos = func.blocks[b.index()]
                    .insts
                    .iter()
                    .position(|&x| x == i)
                    .map(|p| p + 1)
                    .unwrap_or(0);
                (b, pos)
            }
        };
        let mut block_queue = vec![start_block];
        let mut seen_blocks: FxHashSet<owl_ir::BlockId> = FxHashSet::default();
        seen_blocks.insert(start_block);
        let mut qi = 0;
        while qi < block_queue.len() {
            let b = block_queue[qi];
            qi += 1;
            let from = if b == start_block { start_idx } else { 0 };
            for &iid in &func.blocks[b.index()].insts[from..] {
                let iref = InstRef::new(func_id, iid);
                let inst = func.inst(iid);
                walk.stats.insts_visited += 1;

                // Control-dependence on a locally corrupted branch.
                let ctrl_flag = self.config.track_control
                    && local_brs.iter().any(|br| {
                        br.func == func_id && fa.ctrl.inst_depends_on(func, iid, br.inst)
                    });
                let in_ctrl = ctrl_dep || ctrl_flag;
                let active_branches = |local_brs: &[InstRef]| -> Vec<InstRef> {
                    let mut v: Vec<InstRef> = ctx_branches.to_vec();
                    for br in local_brs {
                        if br.func == func_id && fa.ctrl.inst_depends_on(func, iid, br.inst) {
                            v.push(*br);
                        }
                    }
                    v
                };

                // Operand corruption.
                let mut ops = Vec::new();
                inst.operands(&mut ops);
                let any_corrupt: Option<InstRef> = ops
                    .iter()
                    .find_map(|op| corrupted_op(walk, func_id, crpt_params, iref, op));

                // CTRL_DEP reporting: explicit vulnerable sites (and
                // indirect calls) executing under corrupted control.
                if in_ctrl {
                    if let Some(class) = inst.vuln_class() {
                        let explicit = inst.is_explicit_vuln_site()
                            || matches!(
                                inst,
                                Inst::Call {
                                    callee: Callee::Indirect(_),
                                    ..
                                }
                            );
                        if explicit && self.config.classes.contains(&class) {
                            Self::report(
                                walk,
                                iref,
                                class,
                                DepKind::CtrlDep,
                                active_branches(&local_brs),
                            );
                        }
                    }
                }

                // DATA_DEP reporting + propagation.
                match inst {
                    Inst::Call { callee, args } => {
                        // Corrupted arguments?
                        let mut callee_mask = 0u32;
                        let mut any_arg = None;
                        for (k, a) in args.iter().enumerate() {
                            if let Some(src) = corrupted_op(walk, func_id, crpt_params, iref, a) {
                                callee_mask |= 1u32 << (k % 32);
                                any_arg = Some(src);
                            }
                        }
                        if let Callee::Indirect(p) = callee {
                            if let Some(src) = corrupted_op(walk, func_id, crpt_params, iref, p) {
                                // Calling a corrupted function pointer.
                                if self.config.classes.contains(&VulnClass::NullDeref) {
                                    walk.parent.entry(iref).or_insert(src);
                                    Self::report(
                                        walk,
                                        iref,
                                        VulnClass::NullDeref,
                                        DepKind::DataDep,
                                        active_branches(&local_brs),
                                    );
                                }
                            }
                        }
                        if let Some(src) = any_arg {
                            walk.crpt.insert(iref);
                            walk.parent.entry(iref).or_insert(src);
                        }
                        // Descend into internal callees. Indirect sites
                        // are resolved from the points-to solution when
                        // available; an unresolved site descends nowhere
                        // and the dynamic call stack compensates, as in
                        // the paper.
                        let targets: Vec<FuncId> = match callee {
                            Callee::Direct(f) => vec![*f],
                            Callee::Indirect(_) => self
                                .points_to
                                .as_ref()
                                .and_then(|p| p.resolve_targets(iref))
                                .map(|ts| ts.to_vec())
                                .unwrap_or_default(),
                        };
                        for t in targets {
                            let brs = active_branches(&local_brs);
                            let callee_ret = if self.summaries.is_some() {
                                self.descend_summarized(
                                    walk,
                                    t,
                                    callee_mask,
                                    in_ctrl,
                                    &brs,
                                    iref,
                                    depth,
                                )
                            } else {
                                self.do_detect(
                                    walk,
                                    t,
                                    Start::Entry,
                                    callee_mask,
                                    in_ctrl,
                                    &brs,
                                    depth + 1,
                                )
                            };
                            if callee_ret {
                                walk.crpt.insert(iref);
                            }
                        }
                    }
                    Inst::Ret(v) => {
                        let data_crpt = v.as_ref().is_some_and(|op| {
                            corrupted_op(walk, func_id, crpt_params, iref, op).is_some()
                        });
                        if data_crpt || in_ctrl {
                            ret_corrupted = true;
                        }
                    }
                    Inst::Load { addr, .. } | Inst::AtomicLoad { addr } => {
                        // Dereference of a corrupted pointer.
                        if let Some(src) = corrupted_op(walk, func_id, crpt_params, iref, addr) {
                            if self.config.classes.contains(&VulnClass::NullDeref) {
                                walk.parent.entry(iref).or_insert(src);
                                Self::report(
                                    walk,
                                    iref,
                                    VulnClass::NullDeref,
                                    DepKind::DataDep,
                                    active_branches(&local_brs),
                                );
                            }
                        }
                        if let Some(src) = any_corrupt {
                            if inst.has_result() {
                                walk.crpt.insert(iref);
                                walk.parent.entry(iref).or_insert(src);
                            }
                        }
                    }
                    Inst::Store { addr, val } | Inst::AtomicStore { addr, val } => {
                        // Dereference of a corrupted pointer.
                        if let Some(src) = corrupted_op(walk, func_id, crpt_params, iref, addr) {
                            if self.config.classes.contains(&VulnClass::NullDeref) {
                                walk.parent.entry(iref).or_insert(src);
                                Self::report(
                                    walk,
                                    iref,
                                    VulnClass::NullDeref,
                                    DepKind::DataDep,
                                    active_branches(&local_brs),
                                );
                            }
                        }
                        // A store of a corrupted value taints every
                        // abstract location its address may point to;
                        // relay loads pick the corruption back up in
                        // the post-walk fixpoint.
                        if let Some(src) = corrupted_op(walk, func_id, crpt_params, iref, val) {
                            if let Some(pts) = &self.points_to {
                                walk.parent.entry(iref).or_insert(src);
                                for l in pts.pts_operand(func_id, *addr) {
                                    walk.tainted.entry(*l).or_insert(iref);
                                }
                            }
                        }
                    }
                    _ => {
                        if let Some(class) = inst.vuln_class() {
                            if inst.is_explicit_vuln_site() {
                                if let Some(src) = any_corrupt {
                                    if self.config.classes.contains(&class) {
                                        walk.parent.entry(iref).or_insert(src);
                                        Self::report(
                                            walk,
                                            iref,
                                            class,
                                            DepKind::DataDep,
                                            active_branches(&local_brs),
                                        );
                                    }
                                }
                            }
                        }
                        if let Some(src) = any_corrupt {
                            if inst.has_result() {
                                walk.crpt.insert(iref);
                                walk.parent.entry(iref).or_insert(src);
                            }
                            if matches!(inst, Inst::Br { .. }) && self.config.track_control {
                                local_brs.push(iref);
                                walk.parent.entry(iref).or_insert(src);
                            }
                        }
                        // Branches in corrupted control context gate
                        // their region too (nested guards).
                        if matches!(inst, Inst::Br { .. }) && ctrl_flag {
                            local_brs.push(iref);
                        }
                    }
                }
            }
            // Enqueue successors.
            if let Some(&term) = func.blocks[b.index()].insts.last() {
                for s in func.inst(term).successors() {
                    if seen_blocks.insert(s) {
                        block_queue.push(s);
                    }
                }
            }
        }
        ret_corrupted
    }

    /// Descends into `target` through the summary cache: computes the
    /// callee's summary on first use, then materializes its reports,
    /// memory taints, and return-corruption into the caller's walk.
    #[allow(clippy::too_many_arguments)]
    fn descend_summarized(
        &mut self,
        walk: &mut Walk,
        target: FuncId,
        crpt_params: u32,
        ctrl: bool,
        ctx_branches: &[InstRef],
        call_site: InstRef,
        depth: usize,
    ) -> bool {
        if depth + 1 > self.config.max_call_depth {
            return false;
        }
        let key = SummaryKey {
            func: target,
            crpt_params,
            ctrl,
        };
        let Some((summary, computed)) = self.summary_for(key) else {
            return false;
        };
        if computed {
            // First computation pays the traversal cost; cache hits
            // replay for free — that is the point.
            walk.stats.insts_visited += summary.stats.insts_visited;
            walk.stats.funcs_entered += summary.stats.funcs_entered;
        }
        for (loc, store) in &summary.tainted {
            walk.tainted.entry(*loc).or_insert(*store);
        }
        let prefix = Self::chain_from(walk, call_site);
        for r in &summary.reports {
            if !walk.reported.insert((r.site, r.dep)) {
                continue;
            }
            let mut branches = ctx_branches.to_vec();
            branches.extend(r.branches.iter().copied());
            let mut chain = prefix.clone();
            chain.extend(r.chain.iter().copied());
            // Chains must start at the source or a corrupted gating
            // branch. When no data provenance crosses the call boundary
            // (pure control dependence), re-anchor at the innermost
            // corrupted branch, exactly as `report` does.
            let anchored = chain
                .first()
                .is_some_and(|f| *f == walk.source || branches.contains(f));
            if !anchored {
                let anchor = branches.last().copied().unwrap_or(call_site);
                chain = Self::chain_from(walk, anchor);
                chain.push(r.site);
            }
            walk.reports.push(VulnReport {
                site: r.site,
                class: r.class,
                dep: r.dep,
                source: walk.source,
                branches,
                path_branches: Vec::new(),
                chain,
            });
        }
        summary.ret_corrupted
    }

    /// Returns the summary for `key`, computing and caching it on a
    /// miss, plus whether this call computed it. `None` means the
    /// descent must be skipped conservatively: the key is already being
    /// computed (a recursion cycle) or the mutual-recursion guard
    /// tripped. Cycles are not cached, so a later acyclic context still
    /// computes the full summary.
    fn summary_for(&mut self, key: SummaryKey) -> Option<(Arc<FuncSummary>, bool)> {
        let cache = self.summaries.clone()?;
        // A lookup that may miss waits for any other analyzer's
        // computation to finish. Inside a computation this analyzer
        // already holds the guard (`in_progress` is non-empty).
        let _guard =
            (self.in_progress.is_empty() && !cache.contains(key)).then(|| cache.compute_guard());
        if let Some(s) = cache.get(key) {
            return Some((s, false));
        }
        if self.in_progress.contains(&key)
            || self.in_progress.len() > 2 * self.config.max_call_depth
        {
            return None;
        }
        self.in_progress.insert(key);
        // Summaries are context-independent: fresh walk, no caller
        // branches, fresh depth budget. The sentinel source can never
        // equal a real instruction, so sub-chains terminate at the
        // callee's own earliest ancestor.
        let sentinel = InstRef::new(key.func, InstId(u32::MAX));
        let mut sub = Walk::new(sentinel);
        let ret_corrupted = self.do_detect(
            &mut sub,
            key.func,
            Start::Entry,
            key.crpt_params,
            key.ctrl,
            &[],
            0,
        );
        self.in_progress.remove(&key);
        let summary = FuncSummary {
            ret_corrupted,
            reports: sub
                .reports
                .into_iter()
                .map(|r| SummaryReport {
                    site: r.site,
                    class: r.class,
                    dep: r.dep,
                    branches: r.branches,
                    chain: r.chain,
                })
                .collect(),
            tainted: sub.tainted.into_iter().collect(),
            stats: sub.stats,
        };
        Some((cache.insert(key, summary), true))
    }

    /// Ascends from `f` through every call site that may invoke it,
    /// treating each call's result as corrupted — the whole-program
    /// replacement for the dynamic stack walk when no stack was
    /// recorded.
    fn caller_walk(&mut self, walk: &mut Walk, f: FuncId, ascent: usize) {
        if ascent > self.config.max_call_depth {
            return;
        }
        let Some(cg) = self.callgraph.clone() else {
            return;
        };
        for site in cg.sites_calling(f) {
            if !self.module.func(site.func).is_internal {
                continue;
            }
            walk.crpt.insert(site);
            walk.parent.entry(site).or_insert(walk.source);
            let ret = self.do_detect(walk, site.func, Start::After(site.inst), 0, false, &[], 0);
            if ret {
                self.caller_walk(walk, site.func, ascent + 1);
            }
        }
    }

    /// Fixpoint over relay loads: any load whose address may read a
    /// tainted abstract location becomes a corruption source, and the
    /// walk restarts after it (ascending into callers when the relay
    /// corrupts a return value). Monotone in the relay set, so the loop
    /// terminates after at most `#loads` rounds. An *empty* points-to
    /// set deliberately does not relay — it means "no tracked
    /// provenance", and relaying through it would taint every load in
    /// the program.
    fn relay_fixpoint(&mut self, walk: &mut Walk) {
        let Some(pts) = self.points_to.clone() else {
            return;
        };
        let module = self.module;
        loop {
            let mut changed = false;
            for (fi, func) in module.funcs.iter().enumerate() {
                if !func.is_internal {
                    continue;
                }
                let fid = FuncId::from_index(fi);
                for (i, inst) in func.insts.iter().enumerate() {
                    let addr = match inst {
                        Inst::Load { addr, .. } | Inst::AtomicLoad { addr } => *addr,
                        _ => continue,
                    };
                    let iid = InstId::from_index(i);
                    let iref = InstRef::new(fid, iid);
                    if walk.relays.contains(&iref) || walk.crpt.contains(&iref) {
                        continue;
                    }
                    let Some(store) = pts
                        .pts_operand(fid, addr)
                        .iter()
                        .find_map(|l| walk.tainted.get(l).copied())
                    else {
                        continue;
                    };
                    walk.relays.insert(iref);
                    walk.crpt.insert(iref);
                    walk.parent.entry(iref).or_insert(store);
                    changed = true;
                    let ret = self.do_detect(walk, fid, Start::After(iid), 0, false, &[], 0);
                    if ret && self.config.follow_call_stack {
                        self.caller_walk(walk, fid, 0);
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn report(
        walk: &mut Walk,
        site: InstRef,
        class: VulnClass,
        dep: DepKind,
        branches: Vec<InstRef>,
    ) {
        if !walk.reported.insert((site, dep)) {
            return;
        }
        // Reconstruct the propagation chain via provenance. For pure
        // control dependence the site itself has no data provenance, so
        // anchor the walk at the innermost corrupted branch instead.
        let anchor = if walk.parent.contains_key(&site) || site == walk.source {
            site
        } else {
            branches.last().copied().unwrap_or(site)
        };
        let mut chain = Self::chain_from(walk, anchor);
        if anchor != site {
            chain.push(site);
        }
        walk.reports.push(VulnReport {
            site,
            class,
            dep,
            source: walk.source,
            branches,
            path_branches: Vec::new(),
            chain,
        });
    }

    /// Provenance chain from the walk source (or the earliest known
    /// ancestor) down to `anchor`, inclusive.
    fn chain_from(walk: &Walk, anchor: InstRef) -> Vec<InstRef> {
        let mut chain = Vec::new();
        let mut cur = Some(anchor);
        let mut guard = 0;
        while let Some(c) = cur {
            chain.push(c);
            if c == walk.source || guard > 64 {
                break;
            }
            guard += 1;
            let next = walk.parent.get(&c).copied();
            if next == Some(c) {
                break; // parameter provenance collapses to a self-loop
            }
            cur = next;
        }
        chain.reverse();
        chain
    }

    /// The module being analyzed.
    pub fn module(&self) -> &Module {
        self.module
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{ModuleBuilder, Pred, Type};

    /// The Libsafe shape (Figure 1): `stack_check` reads the racy
    /// `dying` flag and returns 0 early; the caller `libsafe_strcpy`
    /// performs the copy when the check returns 0.
    fn libsafe_shape() -> (Module, InstRef, Vec<InstRef>, InstId) {
        let mut mb = ModuleBuilder::new("libsafe");
        let dying = mb.global("dying", 1, Type::I64);
        let stack_check = mb.declare_func("stack_check", 1);
        let strcpy_wrap = mb.declare_func("libsafe_strcpy", 2);
        let racy_load;
        {
            let mut b = mb.build_func(stack_check);
            b.loc("util.c", 145);
            let a = b.global_addr(dying);
            racy_load = b.load(a, Type::I64);
            let bypass = b.block();
            let check = b.block();
            b.br(racy_load, bypass, check);
            b.switch_to(bypass);
            b.ret(Some(Operand::Const(0)));
            b.switch_to(check);
            b.loc("util.c", 150);
            b.ret(Some(Operand::Const(1)));
        }
        let memcpy_site;
        let call_site;
        {
            let mut b = mb.build_func(strcpy_wrap);
            b.loc("intercept.c", 164);
            call_site = b.call(stack_check, vec![Operand::Param(0)]);
            let ok = b.cmp(Pred::Eq, call_site, 0);
            let copy = b.block();
            let done = b.block();
            b.br(ok, copy, done);
            b.switch_to(copy);
            b.loc("intercept.c", 165);
            memcpy_site = b.memcopy(Operand::Param(0), Operand::Param(1), 64);
            b.jmp(done);
            b.switch_to(done);
            b.ret(None);
        }
        let m = mb.finish();
        let start = InstRef::new(stack_check, racy_load);
        let stack = vec![InstRef::new(strcpy_wrap, call_site)];
        (m, start, stack, memcpy_site)
    }

    #[test]
    fn libsafe_ctrl_dep_detected_across_functions() {
        let (m, start, stack, memcpy_site) = libsafe_shape();
        let mut an = VulnAnalyzer::with_defaults(&m);
        let (reports, stats) = an.analyze(start, &stack);
        let hit = reports
            .iter()
            .find(|r| r.site.inst == memcpy_site && r.class == VulnClass::MemoryOp)
            .unwrap_or_else(|| panic!("memcopy not reported: {reports:?}"));
        assert_eq!(hit.dep, DepKind::CtrlDep);
        assert!(!hit.branches.is_empty(), "input hint must carry branches");
        assert!(stats.insts_visited > 0);
    }

    #[test]
    fn without_call_stack_walk_the_attack_is_missed() {
        let (m, start, stack, memcpy_site) = libsafe_shape();
        let mut an = VulnAnalyzer::new(
            &m,
            VulnConfig {
                follow_call_stack: false,
                ..VulnConfig::default()
            },
        );
        let (reports, _) = an.analyze(start, &stack);
        assert!(
            !reports.iter().any(|r| r.site.inst == memcpy_site),
            "caller-side site should be invisible without the stack walk"
        );
    }

    #[test]
    fn without_control_tracking_the_attack_is_missed() {
        let (m, start, stack, memcpy_site) = libsafe_shape();
        let mut an = VulnAnalyzer::new(
            &m,
            VulnConfig {
                track_control: false,
                ..VulnConfig::default()
            },
        );
        let (reports, _) = an.analyze(start, &stack);
        assert!(
            !reports.iter().any(|r| r.site.inst == memcpy_site),
            "control-dependent site requires control tracking"
        );
    }

    #[test]
    fn data_dep_null_deref_detected() {
        // f_op shape (Figure 2): corrupted pointer flows into an
        // indirect call.
        let mut mb = ModuleBuilder::new("uselib");
        let fop = mb.global("f_op", 1, Type::FuncPtr);
        let msync = mb.declare_func("msync_interval", 0);
        let racy_load;
        let call_site;
        {
            let mut b = mb.build_func(msync);
            b.loc("msync.c", 10);
            let a = b.global_addr(fop);
            racy_load = b.load(a, Type::FuncPtr);
            let yes = b.block();
            let no = b.block();
            b.br(racy_load, yes, no);
            b.switch_to(yes);
            b.loc("msync.c", 14);
            call_site = b.call_indirect(racy_load, vec![]);
            b.jmp(no);
            b.switch_to(no);
            b.ret(None);
        }
        let m = mb.finish();
        let mut an = VulnAnalyzer::with_defaults(&m);
        let (reports, _) = an.analyze(InstRef::new(msync, racy_load), &[]);
        // The site is both data-dependent (corrupted pointer called) and
        // control-dependent (guarded by the corrupted branch); the
        // algorithm reports each dependence kind once.
        let data = reports
            .iter()
            .find(|r| r.site.inst == call_site && r.dep == DepKind::DataDep)
            .unwrap_or_else(|| panic!("indirect call not reported DATA_DEP: {reports:?}"));
        assert_eq!(data.class, VulnClass::NullDeref);
        assert_eq!(data.chain.first(), Some(&InstRef::new(msync, racy_load)));
        assert!(
            reports
                .iter()
                .any(|r| r.site.inst == call_site && r.dep == DepKind::CtrlDep),
            "guarded site also reported CTRL_DEP: {reports:?}"
        );
    }

    #[test]
    fn data_dep_through_callee_args() {
        // Corrupted value passed as an argument reaches a privilege op
        // inside the callee.
        let mut mb = ModuleBuilder::new("priv");
        let level = mb.global("level", 1, Type::I64);
        let do_set = mb.declare_func("do_set", 1);
        let outer = mb.declare_func("outer", 0);
        let priv_site;
        {
            let mut b = mb.build_func(do_set);
            priv_site = b.set_privilege(Operand::Param(0));
            b.ret(None);
        }
        let racy_load;
        {
            let mut b = mb.build_func(outer);
            let a = b.global_addr(level);
            racy_load = b.load(a, Type::I64);
            b.call(do_set, vec![racy_load.into()]);
            b.ret(None);
        }
        let m = mb.finish();
        let mut an = VulnAnalyzer::with_defaults(&m);
        let (reports, _) = an.analyze(InstRef::new(outer, racy_load), &[]);
        let hit = reports
            .iter()
            .find(|r| r.site == InstRef::new(do_set, priv_site))
            .unwrap_or_else(|| panic!("privilege op not reported: {reports:?}"));
        assert_eq!(hit.class, VulnClass::PrivilegeOp);
        assert_eq!(hit.dep, DepKind::DataDep);
    }

    #[test]
    fn clean_program_produces_no_reports() {
        let mut mb = ModuleBuilder::new("clean");
        let g = mb.global("g", 1, Type::I64);
        let f = mb.declare_func("f", 0);
        let load;
        {
            let mut b = mb.build_func(f);
            let a = b.global_addr(g);
            load = b.load(a, Type::I64);
            b.output(0, load);
            // A vulnerable site NOT dependent on the load:
            b.memcopy(a, a, 1);
            b.ret(None);
        }
        let m = mb.finish();
        let mut an = VulnAnalyzer::with_defaults(&m);
        let (reports, _) = an.analyze(InstRef::new(f, load), &[]);
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn class_filter_respected() {
        let (m, start, stack, _) = libsafe_shape();
        let mut an = VulnAnalyzer::new(
            &m,
            VulnConfig {
                classes: vec![VulnClass::PrivilegeOp],
                ..VulnConfig::default()
            },
        );
        let (reports, _) = an.analyze(start, &stack);
        assert!(reports.is_empty());
    }

    #[test]
    fn recursion_terminates() {
        // Self-recursive function with corrupted arg must not loop.
        let mut mb = ModuleBuilder::new("rec");
        let g = mb.global("g", 1, Type::I64);
        let f = mb.declare_func("f", 1);
        let outer = mb.declare_func("outer", 0);
        {
            let mut b = mb.build_func(f);
            b.call(f, vec![Operand::Param(0)]);
            b.ret(None);
        }
        let load;
        {
            let mut b = mb.build_func(outer);
            let a = b.global_addr(g);
            load = b.load(a, Type::I64);
            b.call(f, vec![load.into()]);
            b.ret(None);
        }
        let m = mb.finish();
        let mut an = VulnAnalyzer::with_defaults(&m);
        let (_, stats) = an.analyze(InstRef::new(outer, load), &[]);
        assert!(stats.funcs_entered < 20);
    }
}
