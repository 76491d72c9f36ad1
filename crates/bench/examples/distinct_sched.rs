//! Probe: how many *distinct* schedules the explorer actually realizes
//! per corpus input, i.e. the ceiling on schedule-signature dedup.
//!
//! Run with `cargo run --release -p owl-bench --example distinct_sched`.
//! The counts back the schedule-space analysis in EXPERIMENTS.md (A11):
//! corpus inputs whose distinct-schedule count equals the seed count can
//! never dedup, so the corpus-wide dedup ratio is bounded by the gap
//! between seeds and distinct schedules.

const SEEDS: u64 = 128;

fn main() {
    for p in owl_corpus::all_programs() {
        let cfg = owl_race::ExplorerConfig {
            runs_per_input: SEEDS,
            fork: false,
            ..owl_race::ExplorerConfig::default()
        };
        let r = owl_race::explore(&p.module, p.entry, &p.workloads, &cfg);
        let n_inputs = p.workloads.len();
        let mut per_input: Vec<std::collections::HashSet<Vec<owl_vm::ThreadId>>> =
            vec![Default::default(); n_inputs];
        for (i, o) in r.outcomes.iter().enumerate() {
            per_input[i / SEEDS as usize].insert(o.schedule.clone());
        }
        let distinct: Vec<usize> = per_input.iter().map(|s| s.len()).collect();
        let steps: u64 = r.outcomes.iter().map(|o| o.steps).sum();
        println!(
            "{}: runs={} steps={} distinct/input: {:?}",
            p.name, r.runs, steps, distinct
        );
    }
}
