//! Probe: fork mode against `--no-fork`, explorer wall time per program
//! of the `corpus-campaign` workload (the corpus plus HeapRelay,
//! CacheRelay and DoubleFetch) at the campaign's detection settings
//! (`OwlConfig::default().detect`: 12 PCT seeds per input, depth 3,
//! 4 000 expected steps, epoch backend), with the fork counters. Each
//! mode's time is the median of `reps` sweeps (default 30), the two
//! modes alternating.
//!
//! `cargo run --release -p owl-bench --example fork_timing [reps]`

use std::time::Instant;

fn median_us(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2] * 1e6
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let mut programs = owl_corpus::all_programs();
    programs.extend([
        owl_corpus::extensions::heap_relay(),
        owl_corpus::extensions::cache_relay(),
        owl_corpus::extensions::kernel_double_fetch(),
    ]);
    let forked_cfg = owl::OwlConfig::default().detect;
    let no_fork_cfg = owl_race::ExplorerConfig {
        fork: false,
        ..forked_cfg.clone()
    };
    let (mut tot_f, mut tot_n) = (0.0, 0.0);
    let (mut tot_forked, mut tot_deduped) = (0, 0);
    for p in &programs {
        // Warm-up + correctness guard.
        let rf = owl_race::explore(&p.module, p.entry, &p.workloads, &forked_cfg);
        let rn = owl_race::explore(&p.module, p.entry, &p.workloads, &no_fork_cfg);
        assert_eq!(rf.reports, rn.reports, "{}", p.name);
        assert_eq!(rf.outcomes, rn.outcomes, "{}", p.name);
        let (mut f, mut n) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
        for _ in 0..reps {
            let t = Instant::now();
            let _ = owl_race::explore(&p.module, p.entry, &p.workloads, &forked_cfg);
            f.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let _ = owl_race::explore(&p.module, p.entry, &p.workloads, &no_fork_cfg);
            n.push(t.elapsed().as_secs_f64());
        }
        let (f, n) = (median_us(f), median_us(n));
        tot_f += f;
        tot_n += n;
        tot_forked += rf.units_forked;
        tot_deduped += rf.schedules_deduped;
        println!(
            "{:12} fork {:8.1}us no-fork {:8.1}us fork/no-fork {:.3} units {:3} forked {:3} \
             deduped {:3} saved {:5}",
            p.name,
            f,
            n,
            f / n,
            rf.runs,
            rf.units_forked,
            rf.schedules_deduped,
            rf.prefix_steps_saved,
        );
    }
    println!(
        "{:12} fork {:8.1}us no-fork {:8.1}us fork/no-fork {:.3} forked {tot_forked} \
         deduped {tot_deduped}",
        "TOTAL",
        tot_f,
        tot_n,
        tot_f / tot_n,
    );
}
