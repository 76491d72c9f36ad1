//! Criterion micro-benchmarks for OWL's components — the measurements
//! behind Table 3's analysis-cost column ("The performance of OWL's
//! static analysis tool is critical because OWL aims to be scalable to
//! large programs", §8.2) plus substrate throughput numbers.

#[cfg(feature = "criterion")]
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use owl::{Owl, OwlConfig};
#[cfg(not(feature = "criterion"))]
use owl_bench::harness::{criterion_group, criterion_main, BatchSize, Criterion};
use owl_race::{explore, ExplorerConfig, HbConfig, HbDetector};
use owl_static::{AdhocSyncDetector, VulnAnalyzer, VulnConfig};
use owl_verify::{RaceVerifier, RaceVerifyConfig};
use owl_vm::{NullSink, RandomScheduler, RunConfig, Vm};

fn bench_vm_interpreter(c: &mut Criterion) {
    let p = owl_corpus::program("Libsafe").unwrap();
    c.bench_function("vm/libsafe_primary_workload", |b| {
        b.iter(|| {
            let mut sched = RandomScheduler::new(7);
            let vm = Vm::new(
                &p.module,
                p.entry,
                p.primary_workload().clone(),
                RunConfig::default(),
            );
            vm.run(&mut sched, &mut NullSink)
        })
    });
    let linux = owl_corpus::program("Linux").unwrap();
    c.bench_function("vm/linux_primary_workload", |b| {
        b.iter(|| {
            let mut sched = RandomScheduler::new(7);
            let vm = Vm::new(
                &linux.module,
                linux.entry,
                linux.primary_workload().clone(),
                RunConfig::default(),
            );
            vm.run(&mut sched, &mut NullSink)
        })
    });
}

fn bench_race_detection(c: &mut Criterion) {
    let p = owl_corpus::program("MySQL").unwrap();
    c.bench_function("race/hb_detection_mysql_run", |b| {
        b.iter(|| {
            let mut det = HbDetector::new(HbConfig::default());
            let mut sched = RandomScheduler::new(3);
            let vm = Vm::new(
                &p.module,
                p.entry,
                p.primary_workload().clone(),
                RunConfig::default(),
            );
            vm.run(&mut sched, &mut det)
        })
    });
}

fn bench_vuln_analysis(c: &mut Criterion) {
    // Pre-compute a verified race to analyze, then measure Algorithm 1
    // alone (Table 3 A.C.).
    for name in ["Libsafe", "Linux"] {
        let p = owl_corpus::program(name).unwrap();
        let result = explore(
            &p.module,
            p.entry,
            &p.workloads,
            &ExplorerConfig {
                runs_per_input: 10,
                ..Default::default()
            },
        );
        let attack_global = p.attacks[0].race_global;
        let report = result
            .reports_on(attack_global)
            .next()
            .expect("attack race present")
            .clone();
        let read = report.read_access().expect("read side").clone();
        c.bench_function(
            &format!("static/vuln_analysis_{}", name.to_lowercase()),
            |b| {
                b.iter_batched(
                    || VulnAnalyzer::new(&p.module, VulnConfig::default()),
                    |mut an| an.analyze(read.site, &read.stack),
                    BatchSize::SmallInput,
                )
            },
        );
    }
}

fn bench_adhoc_detection(c: &mut Criterion) {
    let p = owl_corpus::program("Apache").unwrap();
    let result = explore(
        &p.module,
        p.entry,
        &p.workloads,
        &ExplorerConfig {
            runs_per_input: 10,
            ..Default::default()
        },
    );
    c.bench_function("static/adhoc_detection_apache_reports", |b| {
        b.iter(|| {
            let det = AdhocSyncDetector::new(&p.module);
            det.detect(&result.reports)
        })
    });
}

fn bench_race_verification(c: &mut Criterion) {
    let p = owl_corpus::program("SSDB").unwrap();
    let result = explore(
        &p.module,
        p.entry,
        &p.workloads,
        &ExplorerConfig {
            runs_per_input: 10,
            ..Default::default()
        },
    );
    let report = result
        .reports_on("db")
        .next()
        .expect("db race present")
        .clone();
    c.bench_function("verify/race_verification_ssdb", |b| {
        b.iter(|| {
            let verifier = RaceVerifier::new(
                &p.module,
                RaceVerifyConfig {
                    max_schedules: 8,
                    ..Default::default()
                },
            );
            verifier.verify(p.entry, p.primary_workload(), &report)
        })
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let p = owl_corpus::program("SSDB").unwrap();
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("full_pipeline_ssdb", |b| {
        b.iter(|| {
            let owl = Owl::new(&p.module, p.entry, OwlConfig::quick());
            owl.run("SSDB", &p.workloads, &p.exploit_inputs)
        })
    });
    group.finish();
}

fn bench_extensions(c: &mut Criterion) {
    // Atomicity-violation detection over a bank run.
    let bank = owl_corpus::extensions::bank_atomicity();
    c.bench_function("race/atomicity_detection_bank_run", |b| {
        b.iter(|| {
            let mut det = owl_race::AtomicityDetector::new();
            let mut sched = RandomScheduler::new(3);
            let vm = Vm::new(
                &bank.module,
                bank.entry,
                bank.primary_workload().clone(),
                RunConfig::default(),
            );
            vm.run(&mut sched, &mut det)
        })
    });
    // IR text round trip on the largest corpus module.
    let linux = owl_corpus::program("Linux").unwrap();
    let text = owl_ir::module_to_string(&linux.module);
    c.bench_function("ir/print_linux", |b| {
        b.iter(|| owl_ir::module_to_string(&linux.module))
    });
    c.bench_function("ir/parse_linux", |b| {
        b.iter(|| owl_ir::parse_module(&text).unwrap())
    });
    // Input synthesis over a hint.
    let mysql = owl_corpus::program("MySQL").unwrap();
    let raw = explore(
        &mysql.module,
        mysql.entry,
        &mysql.workloads,
        &ExplorerConfig {
            runs_per_input: 10,
            ..Default::default()
        },
    );
    let report = raw.reports_on("pwd_buf").next().expect("pwd race").clone();
    let read = report.read_access().unwrap().clone();
    let mut an = VulnAnalyzer::new(&mysql.module, VulnConfig::default());
    let (vulns, _) = an.analyze(read.site, &read.stack);
    let hint = vulns
        .iter()
        .find(|v| v.class == owl_ir::VulnClass::MemoryOp)
        .expect("hint")
        .clone();
    c.bench_function("static/input_synthesis_mysql_hint", |b| {
        b.iter(|| {
            let synth = owl_static::InputSynthesizer::new(&mysql.module);
            synth.refine_input(
                &owl_vm::ProgramInput::empty(),
                &hint.path_branches,
                hint.site,
            )
        })
    });
}

criterion_group!(
    benches,
    bench_vm_interpreter,
    bench_race_detection,
    bench_vuln_analysis,
    bench_adhoc_detection,
    bench_race_verification,
    bench_full_pipeline,
    bench_extensions
);
criterion_main!(benches);
