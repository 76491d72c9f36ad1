//! Check-elision pre-pass (pipeline wrapper).
//!
//! [`ElisionPrepass`] runs the interprocedural check-elision analysis
//! ([`owl_ir::analysis::ElisionMap`]) once per program and packages
//! what the pipeline needs from it: the set of provably race-free
//! access sites (handed to the VM so detection-stage replays stamp
//! their events `no_shadow`), the per-class site counters for
//! `PipelineStats`/`PipelineHealth`, the solve wall-clock for metrics
//! spans, and a human-readable per-site report for `--elide-report`.
//!
//! The pre-pass is purely an optimization: the epoch detector skips
//! its shadow-memory lookup/update at elided sites, and the reference
//! vector-clock backend ignores the stamp entirely so it remains the
//! differential soundness oracle. Report streams must stay
//! byte-identical with the pre-pass on or off.

use owl_ir::analysis::{ElisionClass, ElisionMap, ElisionStats, PointsTo};
use owl_ir::{inst_with_loc, FuncId, FxHashSet, InstRef, Module};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One solved check-elision pre-pass for a program.
#[derive(Clone, Debug)]
pub struct ElisionPrepass {
    map: ElisionMap,
    solve_time: Duration,
}

impl ElisionPrepass {
    /// Runs the pre-pass from `entry`, solving a fresh points-to
    /// analysis internally.
    pub fn run(module: &Module, entry: FuncId) -> Self {
        let t0 = Instant::now();
        let map = ElisionMap::analyze(module, entry);
        ElisionPrepass {
            map,
            solve_time: t0.elapsed(),
        }
    }

    /// Runs the pre-pass reusing an already-solved points-to analysis
    /// (the pipeline shares one solve between stage 4 and this pass).
    pub fn run_with(module: &Module, entry: FuncId, pts: &PointsTo) -> Self {
        let t0 = Instant::now();
        let map = ElisionMap::analyze_with(module, entry, pts);
        ElisionPrepass {
            map,
            solve_time: t0.elapsed(),
        }
    }

    /// The underlying per-site classification map.
    pub fn map(&self) -> &ElisionMap {
        &self.map
    }

    /// Per-class site and location counters.
    pub fn stats(&self) -> ElisionStats {
        self.map.stats()
    }

    /// Wall-clock the classification (including any internal points-to
    /// solve) took.
    pub fn solve_time(&self) -> Duration {
        self.solve_time
    }

    /// The elided site set in the shape the VM consumes
    /// (`Vm::with_elided_sites` via `ExplorerConfig::elided_sites`).
    pub fn elided_sites(&self) -> Arc<FxHashSet<InstRef>> {
        Arc::new(self.map.elided_set())
    }

    /// Renders the per-site classification as text (the `--elide-report`
    /// CLI output): a summary header followed by one line per elided
    /// site, grouped by class.
    pub fn report(&self, module: &Module) -> String {
        let s = self.stats();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "check-elision: {}/{} access sites elided \
             ({} thread-local, {} lock-dominated, {} read-only-shared)",
            s.sites_elided, s.sites_total, s.thread_local, s.lock_dominated, s.read_only
        );
        let _ = writeln!(
            out,
            "locations: {}/{} fully elidable; poisoned: {}; solve: {:?}",
            s.locations_elidable, s.locations, s.poisoned, self.solve_time
        );
        for class in [
            ElisionClass::ThreadLocal,
            ElisionClass::LockDominated,
            ElisionClass::ReadOnlyShared,
        ] {
            let mut sites: Vec<InstRef> = self
                .map
                .sites()
                .filter(|(_, c)| *c == class)
                .map(|(site, _)| site)
                .collect();
            if sites.is_empty() {
                continue;
            }
            sites.sort();
            let _ = writeln!(out, "\n[{class}] ({} sites)", sites.len());
            for site in sites {
                let _ = writeln!(
                    out,
                    "  @{}: {}",
                    module.func(site.func).name,
                    inst_with_loc(module, site)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{ModuleBuilder, Type};

    /// A main thread spawning one worker; each side has a private
    /// global (elidable) and both touch a shared one (not elidable).
    fn sample() -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("elide-prepass");
        let mine = mb.global("mine", 1, Type::I64);
        let yours = mb.global("yours", 1, Type::I64);
        let shared = mb.global("shared", 1, Type::I64);
        let worker = mb.declare_func("worker", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(worker);
            let a = b.global_addr(yours);
            b.store(a, 1);
            let sh = b.global_addr(shared);
            b.store(sh, 2);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(worker, 0);
            let a = b.global_addr(mine);
            b.store(a, 3);
            let sh = b.global_addr(shared);
            b.store(sh, 4);
            b.thread_join(t);
            b.ret(None);
        }
        (mb.finish(), main)
    }

    #[test]
    fn prepass_runs_and_reports() {
        let (m, main) = sample();
        let pre = ElisionPrepass::run(&m, main);
        let s = pre.stats();
        assert_eq!(s.thread_local, 2, "one private store per thread");
        assert_eq!(s.sites_elided, 2);
        assert_eq!(s.sites_total, 4);
        assert_eq!(pre.elided_sites().len(), 2);

        let report = pre.report(&m);
        assert!(report.contains("2/4 access sites elided"));
        assert!(report.contains("[thread-local] (2 sites)"));
        assert!(!report.contains("[lock-dominated]"));
    }

    #[test]
    fn shared_points_to_solve_matches_fresh_solve() {
        let (m, main) = sample();
        let pts = PointsTo::new(&m);
        let fresh = ElisionPrepass::run(&m, main);
        let shared = ElisionPrepass::run_with(&m, main, &pts);
        assert_eq!(fresh.stats(), shared.stats());
        assert_eq!(*fresh.elided_sites(), *shared.elided_sites());
    }
}
