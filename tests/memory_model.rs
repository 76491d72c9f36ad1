//! Memory-model properties of the static analyses.
//!
//! Two contracts back the memory-aware extension of Algorithm 1:
//!
//! * **Points-to soundness** — whenever two accesses touch the *same
//!   concrete address* in some execution, the flow-insensitive Andersen
//!   solution must answer `may_alias = true` for their address
//!   operands. The VM never reuses addresses (bump allocation with red
//!   zones), so equal concrete addresses are the ground truth for
//!   aliasing, and the property is checked against full traces of
//!   every corpus program.
//! * **Summary determinism** — replaying a walk from the summary cache
//!   must produce exactly the reports a cold walk produces, at a lower
//!   traversal cost.

use owl_ir::analysis::PointsTo;
use owl_ir::{Inst, InstRef, Module, Operand};
use owl_static::{SummaryCache, VulnAnalyzer, VulnConfig};
use owl_vm::{EventKind, RandomScheduler, RunConfig, TraceEvent, VecSink, Vm};
use std::sync::Arc;

/// The address operand of a memory-access instruction.
fn addr_operand(module: &Module, site: InstRef) -> Option<Operand> {
    match module.func(site.func).inst(site.inst) {
        Inst::Load { addr, .. }
        | Inst::AtomicLoad { addr }
        | Inst::Store { addr, .. }
        | Inst::AtomicStore { addr, .. } => Some(*addr),
        _ => None,
    }
}

/// Collects a full trace of `program` under one scheduler seed.
fn trace_of(
    p: &owl_corpus::CorpusProgram,
    input: &owl_vm::ProgramInput,
    seed: u64,
) -> Vec<TraceEvent> {
    let mut sink = VecSink::default();
    let mut sched = RandomScheduler::new(seed);
    let vm = Vm::new(&p.module, p.entry, input.clone(), RunConfig::default());
    vm.run(&mut sched, &mut sink);
    sink.events
}

#[test]
fn may_alias_over_approximates_concrete_coincidence() {
    let mut programs = owl_corpus::all_programs();
    programs.extend([
        owl_corpus::extensions::heap_relay(),
        owl_corpus::extensions::cache_relay(),
    ]);
    for p in &programs {
        let pts = PointsTo::new(&p.module);
        // Distinct (site, site) pairs already checked, to bound cost.
        let mut checked = std::collections::HashSet::new();
        let inputs: Vec<_> = p
            .workloads
            .iter()
            .chain(p.exploit_inputs.iter())
            .cloned()
            .collect();
        for (i, input) in inputs.iter().enumerate() {
            let events = trace_of(p, input, i as u64);
            // Group data accesses by the concrete address they touched.
            let mut by_addr: std::collections::HashMap<u64, Vec<InstRef>> =
                std::collections::HashMap::new();
            for e in &events {
                if let EventKind::Read { addr, .. } | EventKind::Write { addr, .. } = e.kind {
                    if addr_operand(&p.module, e.site).is_some() {
                        let sites = by_addr.entry(addr).or_default();
                        if !sites.contains(&e.site) {
                            sites.push(e.site);
                        }
                    }
                }
            }
            for sites in by_addr.values() {
                for (k, &a) in sites.iter().enumerate() {
                    for &b in &sites[k..] {
                        if !checked.insert((a, b)) {
                            continue;
                        }
                        let (oa, ob) = (
                            addr_operand(&p.module, a).unwrap(),
                            addr_operand(&p.module, b).unwrap(),
                        );
                        assert!(
                            pts.may_alias(a.func, oa, b.func, ob),
                            "{}: sites {a:?} and {b:?} touched the same \
                             concrete address but may_alias says no",
                            p.name
                        );
                    }
                }
            }
        }
    }
}

/// The verified race report the heap-relay analysis starts from.
fn heap_relay_read() -> (owl_corpus::CorpusProgram, InstRef, Vec<InstRef>) {
    let p = owl_corpus::extensions::heap_relay();
    let r = owl_race::explore(
        &p.module,
        p.entry,
        &p.workloads,
        &owl_race::ExplorerConfig {
            runs_per_input: 20,
            ..Default::default()
        },
    );
    let report = r
        .reports_on("attack_len")
        .next()
        .unwrap_or_else(|| panic!("attack_len race: {:?}", r.reports))
        .clone();
    let read = report.read_access().unwrap();
    (p.clone(), read.site, read.stack.to_vec())
}

#[test]
fn summary_cache_replay_is_deterministic_and_cheaper() {
    let (p, site, stack) = heap_relay_read();
    let cache = Arc::new(SummaryCache::new());
    let mut cold = VulnAnalyzer::with_shared(
        &p.module,
        VulnConfig::default(),
        None,
        None,
        Some(cache.clone()),
    );
    let (r1, s1) = cold.analyze(site, &stack);
    let misses_after_cold = cache.misses();
    assert!(misses_after_cold > 0, "the cold walk computes summaries");
    assert!(!r1.is_empty(), "the relay must be hinted");

    // A second analyzer sharing the cache replays instead of
    // recomputing — same reports, strictly cheaper traversal.
    let mut warm = VulnAnalyzer::with_shared(
        &p.module,
        VulnConfig::default(),
        None,
        None,
        Some(cache.clone()),
    );
    let (r2, s2) = warm.analyze(site, &stack);
    assert_eq!(r1, r2, "cache replay must not change the reports");
    assert!(cache.hits() > 0, "the warm walk hits the cache");
    assert_eq!(
        cache.misses(),
        misses_after_cold,
        "the warm walk recomputes nothing"
    );
    assert!(
        s2.insts_visited < s1.insts_visited,
        "replay skips the summarized subtrees: {s2:?} vs {s1:?}"
    );
}

#[test]
fn concurrent_analyzers_count_like_a_serial_run() {
    // Analyzers on several threads share one cache and start the same
    // analysis at once. Summaries are computed one at a time, so no two
    // workers both miss on a key and both pay for it: hits, misses and
    // the traversal cost equal a serial run's, whatever the timing.
    const THREADS: usize = 4;
    let (p, site, stack) = heap_relay_read();
    let analyze = |cache: &Arc<SummaryCache>| {
        let mut a = VulnAnalyzer::with_shared(
            &p.module,
            VulnConfig::default(),
            None,
            None,
            Some(cache.clone()),
        );
        let (reports, stats) = a.analyze(site, &stack);
        (reports.len(), stats.insts_visited, stats.funcs_entered)
    };
    let totals = |runs: Vec<(usize, u64, u64)>, cache: &SummaryCache| {
        let sum = runs
            .iter()
            .fold((0, 0, 0), |t, r| (t.0 + r.0, t.1 + r.1, t.2 + r.2));
        (sum, cache.hits(), cache.misses())
    };
    let cache = Arc::new(SummaryCache::new());
    let serial = totals((0..THREADS).map(|_| analyze(&cache)).collect(), &cache);
    assert!(serial.2 > 0, "the walk computes summaries");
    for _ in 0..20 {
        let cache = Arc::new(SummaryCache::new());
        let start = std::sync::Barrier::new(THREADS);
        let runs = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        analyze(&cache)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(totals(runs, &cache), serial);
    }
}

#[test]
fn heap_relay_detected_end_to_end_with_points_to_only() {
    // The pipeline-level acceptance check, both directions: with the
    // default knobs stage 4 hints the heap-relay memcopy (and the
    // verifier reaches it); with points-to disabled the paper's
    // register-only analysis loses the attack.
    let p = owl_corpus::extensions::heap_relay();
    let on = owl::evaluate_program(&p, &owl::OwlConfig::quick());
    let a = &on.attacks[0];
    assert!(
        a.hinted,
        "points-to hints the relay: {:?}",
        on.result.findings
    );
    assert!(a.detected(), "hinted site is dynamically reachable");
    assert_eq!(a.dep_matched(), Some(true), "{:?}", a.dep_kinds);

    let mut cfg = owl::OwlConfig::quick();
    cfg.vuln.points_to = false;
    let off = owl::evaluate_program(&p, &cfg);
    assert!(
        !off.attacks[0].hinted,
        "register-only stage 4 must miss the relay: {:?}",
        off.result.findings
    );
}
