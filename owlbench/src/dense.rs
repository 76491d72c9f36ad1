//! `dense-detect` and `dense-predict`: detection alone over generated
//! programs (see [`crate::gen`]), with the epoch detector or with
//! sync-reversal prediction.

use crate::gen::{dense_program, Generated, Shape, RACY_PREFIX};
use crate::stats::{median, ratio, tail_percentile};
use crate::{Ctx, Metric, Outcome};
use owl::owl_ir::{verify_module, FuncId, InstRef, Module};
use owl::owl_race::{
    explore, ExploreResult, ExploreStrategy, ExplorerConfig, HbBackend, RaceReport,
};
use owl::owl_static::ElisionPrepass;
use owl::owl_vm::{NullSink, PctScheduler, ProgramInput, RandomScheduler, Scheduler, Vm};
use owl::OwlConfig;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// 4–8 workers of 400–1000 accesses; every other program also runs a
/// 1000–3000-access single-threaded startup, which prefix-sharing fork
/// mode skips re-executing and the startup-free half gives it nothing
/// to skip.
const DETECT: Shape = Shape {
    threads: (4, 8),
    ops: (400, 1000),
    startup: (1000, 3000),
    startup_on_odd_only: true,
};

/// Small enough that sync-reversal prediction, which examines every
/// conflicting pair the lock order hides, finishes a program in about a
/// fifth of a second, so that a run's median rests on over a hundred
/// programs.
const PREDICT: Shape = Shape {
    threads: (4, 4),
    ops: (120, 120),
    startup: (100, 100),
    startup_on_odd_only: false,
};

/// Which dense workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Detect,
    Predict,
}

fn generate(seed: u64, index: u64, shape: &Shape) -> Result<Generated, String> {
    let g = dense_program(seed, index, shape);
    verify_module(&g.module).map_err(|e| format!("generated program {index}: {e:?}"))?;
    Ok(g)
}

/// Reports outside the generator's racy globals: each one is a false
/// positive.
fn false_positives(reports: &[RaceReport]) -> usize {
    reports
        .iter()
        .filter(|r| {
            !r.global_name
                .as_deref()
                .unwrap_or("")
                .starts_with(RACY_PREFIX)
        })
        .count()
}

fn keys(r: &ExploreResult) -> HashSet<(u64, (InstRef, InstRef))> {
    r.reports.iter().map(|rep| (rep.addr, rep.key())).collect()
}

/// Folds one exploration's counters into the traced run, under the
/// names the pipeline's own health counters use.
fn count_explore(ctx: &Ctx, r: &ExploreResult) {
    ctx.count("detect_units", r.runs);
    ctx.count("raw_reports", r.reports.len() as u64);
    ctx.count("events_elided", r.events_elided);
    ctx.count("prefix_steps_saved", r.prefix_steps_saved);
    ctx.count("schedules_deduped", r.schedules_deduped);
    ctx.count("shadow_cells_gced", r.shadow_cells_gced);
    ctx.count("predict_candidates", r.predict_candidates);
    ctx.count("predict_witnessed", r.predict_witnessed);
}

/// The uninstrumented baseline of one exploration sweep: every
/// `(input, seed)` execution of `cfg` run to a [`NullSink`], with no
/// detector, channel, fork or dedup. Recorded outside the `program`
/// span, so it never counts toward the workload's own time.
fn null_run(ctx: &Ctx, name: &str, module: &Module, entry: FuncId, cfg: &ExplorerConfig) {
    let steps = ctx.span("vm-null-run", name, || {
        let mut steps = 0;
        for k in 0..cfg.runs_per_input {
            let seed = cfg.base_seed + k;
            let mut sched: Box<dyn Scheduler> = match cfg.strategy {
                ExploreStrategy::Random => Box::new(RandomScheduler::new(seed)),
                ExploreStrategy::Pct { depth } => {
                    Box::new(PctScheduler::new(seed, depth, cfg.expected_steps))
                }
            };
            let vm = Vm::new(module, entry, ProgramInput::empty(), cfg.run_config.clone());
            steps += vm.run(sched.as_mut(), &mut NullSink).steps;
        }
        steps
    });
    ctx.count("null_steps", steps);
}

pub fn run(mode: Mode, ctx: &Ctx) -> Result<Outcome, String> {
    let shape = match mode {
        Mode::Detect => DETECT,
        Mode::Predict => PREDICT,
    };
    let epoch_cfg = OwlConfig::default().detect;
    let inputs = [ProgramInput::empty()];
    let mut out = Outcome::default();
    let mut steps = 0u64;
    let mut busy = 0.0f64;
    let mut raced = 0usize;

    out.times.pace(Duration::ZERO);
    let end = Instant::now() + ctx.seconds;
    let mut index = 0u64;
    while Instant::now() < end {
        // Set-up, once per program: generate and verify it.
        let t_setup = Instant::now();
        let g = generate(ctx.seed, index, &shape)?;
        out.times.setup(t_setup.elapsed().as_secs_f64(), t_setup);
        let (m, entry) = (&g.module, g.entry);
        let name = format!("gen-{index}");
        let mut ok = true;
        let t0 = Instant::now();
        let (cfg, timed) = ctx.span("program", &name, || {
            // Prediction runs without the elision pre-pass: it would
            // prove every lock-protected site race-free, and elided
            // accesses are never prediction candidates, leaving the
            // predictor almost nothing to do.
            let (cfg, sweep) = match mode {
                Mode::Detect => {
                    let pre = ctx.span("elision-solve", &name, || ElisionPrepass::run(m, entry));
                    let cfg = ExplorerConfig {
                        elided_sites: Some(pre.elided_sites()),
                        ..epoch_cfg.clone()
                    };
                    (cfg.clone(), cfg)
                }
                Mode::Predict => {
                    let sweep = ExplorerConfig {
                        hb_backend: HbBackend::SyncReversal,
                        ..epoch_cfg.clone()
                    };
                    (epoch_cfg.clone(), sweep)
                }
            };
            let timed = ctx.span("race-detect", &name, || explore(m, entry, &inputs, &sweep));
            (cfg, timed)
        });
        let secs = t0.elapsed().as_secs_f64();
        out.times.op(secs * 1e3, t0);
        out.times.pace(t0.elapsed());
        busy += secs;
        steps += timed.outcomes.iter().map(|o| o.steps).sum::<u64>();
        count_explore(ctx, &timed);
        raced += timed.reports.len();
        let fp = false_positives(&timed.reports);
        if fp > 0 {
            eprintln!("program {index}: {fp} report(s) outside the racy globals");
            ok = false;
        }
        if mode == Mode::Predict {
            // Outside the timed window: the same sweep under the epoch
            // detector, whose reports prediction may only add to, and
            // whose cost prediction's is measured against.
            let epoch = ctx.span("epoch-detect", &name, || explore(m, entry, &inputs, &cfg));
            if !keys(&epoch).is_subset(&keys(&timed)) {
                eprintln!("program {index}: sync-reversal lost an epoch report");
                ok = false;
            }
        }
        if ctx.rec.is_some() {
            null_run(ctx, &name, m, entry, &cfg);
        }
        out.attempted += 1;
        out.failed += u64::from(!ok);
        index += 1;
    }
    if raced == 0 {
        eprintln!("no program raced: the workload exercised no report path");
        out.incorrect = true;
    }

    let walls = out.times.ops_wall();
    let n = walls.len();
    let rate = ratio(steps as f64, busy);
    match mode {
        Mode::Detect => {
            out.detail
                .push(Metric::new("detect_steps_per_s", rate, "1/s", n));
            out.detail.push(Metric::new(
                "explore_ms_p50",
                median(&walls).unwrap_or(0.0),
                "ms",
                n,
            ));
            if let Some(p95) = tail_percentile(&walls, 95.0) {
                out.detail.push(Metric::new("explore_ms_p95", p95, "ms", n));
            }
        }
        Mode::Predict => out
            .detail
            .push(Metric::new("predict_steps_per_s", rate, "1/s", n)),
    }
    Ok(out)
}
