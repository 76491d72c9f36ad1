//! Property tests over the VM: schedule-replay determinism, memory
//! model consistency against a reference model, and arithmetic
//! faithfulness.

use owl_ir::{BinOp, ModuleBuilder, Operand, Type};
use owl_vm::mem::Memory;
use owl_vm::{
    ExitStatus, ProgramInput, RandomScheduler, ReplayScheduler, RoundRobin, RunConfig, Vm,
};
use proptest::prelude::*;

/// A straight-line arithmetic program over the input vector.
#[derive(Clone, Debug)]
enum Op {
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
}

fn eval_reference(ops: &[Op], inputs: &[i64]) -> i64 {
    let get = |vals: &[i64], i: usize| vals.get(i % vals.len().max(1)).copied().unwrap_or(0);
    let mut vals: Vec<i64> = inputs.to_vec();
    if vals.is_empty() {
        vals.push(0);
    }
    for op in ops {
        let v = match *op {
            Op::Add(a, b) => get(&vals, a).wrapping_add(get(&vals, b)),
            Op::Sub(a, b) => get(&vals, a).wrapping_sub(get(&vals, b)),
            Op::Mul(a, b) => get(&vals, a).wrapping_mul(get(&vals, b)),
            Op::And(a, b) => get(&vals, a) & get(&vals, b),
            Op::Or(a, b) => get(&vals, a) | get(&vals, b),
            Op::Xor(a, b) => get(&vals, a) ^ get(&vals, b),
        };
        vals.push(v);
    }
    *vals.last().unwrap()
}

fn build_arith(ops: &[Op], num_inputs: usize) -> (owl_ir::Module, owl_ir::FuncId) {
    let mut mb = ModuleBuilder::new("arith");
    let main = mb.declare_func("main", 0);
    {
        let mut b = mb.build_func(main);
        let mut vals: Vec<owl_ir::InstId> = Vec::new();
        for i in 0..num_inputs.max(1) {
            vals.push(b.input(i as i64));
        }
        for op in ops {
            let pick = |vals: &[owl_ir::InstId], i: usize| vals[i % vals.len()];
            let (bo, x, y) = match *op {
                Op::Add(a, bb) => (BinOp::Add, a, bb),
                Op::Sub(a, bb) => (BinOp::Sub, a, bb),
                Op::Mul(a, bb) => (BinOp::Mul, a, bb),
                Op::And(a, bb) => (BinOp::And, a, bb),
                Op::Or(a, bb) => (BinOp::Or, a, bb),
                Op::Xor(a, bb) => (BinOp::Xor, a, bb),
            };
            let r = b.bin(bo, pick(&vals, x), pick(&vals, y));
            vals.push(r);
        }
        let last = *vals.last().unwrap();
        b.output(0, last);
        b.ret(None);
    }
    (mb.finish(), main)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..12, 0usize..12).prop_map(|(a, b)| Op::Add(a, b)),
        (0usize..12, 0usize..12).prop_map(|(a, b)| Op::Sub(a, b)),
        (0usize..12, 0usize..12).prop_map(|(a, b)| Op::Mul(a, b)),
        (0usize..12, 0usize..12).prop_map(|(a, b)| Op::And(a, b)),
        (0usize..12, 0usize..12).prop_map(|(a, b)| Op::Or(a, b)),
        (0usize..12, 0usize..12).prop_map(|(a, b)| Op::Xor(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arithmetic_matches_reference(
        ops in prop::collection::vec(op_strategy(), 1..20),
        inputs in prop::collection::vec(any::<i64>(), 1..6),
    ) {
        let (m, main) = build_arith(&ops, inputs.len());
        let mut sched = RoundRobin::default();
        let o = Vm::run_quiet(&m, main, ProgramInput::new(inputs.clone()), &mut sched);
        prop_assert_eq!(o.status, ExitStatus::Finished);
        prop_assert_eq!(o.outputs[0].1, eval_reference(&ops, &inputs));
    }

    #[test]
    fn schedule_replay_is_deterministic(seed in 0u64..500) {
        // A genuinely racy two-thread program: outputs depend on the
        // schedule, so replaying the recorded schedule must reproduce
        // them exactly.
        let mut mb = ModuleBuilder::new("racy");
        let g = mb.global("g", 1, Type::I64);
        let w = mb.declare_func("w", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let a = b.global_addr(g);
            let v = b.load(a, Type::I64);
            let v2 = b.bin(BinOp::Mul, v, 3);
            let v3 = b.add(v2, Operand::Param(0));
            b.store(a, v3);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(w, 1);
            let t2 = b.thread_create(w, 2);
            let a = b.global_addr(g);
            b.store(a, 7);
            b.thread_join(t1);
            b.thread_join(t2);
            let v = b.load(a, Type::I64);
            b.output(0, v);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        let mut sched = RandomScheduler::new(seed);
        let o1 = Vm::run_quiet(&m, main_id, ProgramInput::empty(), &mut sched);
        let mut replay = ReplayScheduler::new(o1.schedule.clone());
        let o2 = Vm::run_quiet(&m, main_id, ProgramInput::empty(), &mut replay);
        prop_assert_eq!(o1.outputs, o2.outputs);
        prop_assert_eq!(o1.steps, o2.steps);
        prop_assert_eq!(replay.divergences, 0);
    }

    #[test]
    fn memory_model_matches_reference(
        actions in prop::collection::vec(
            prop_oneof![
                (1u64..16).prop_map(MemAction::Malloc),
                (0usize..8).prop_map(MemAction::Free),
                (0usize..8, 0u64..16, any::<i64>()).prop_map(|(r, o, v)| MemAction::Write(r, o, v)),
                (0usize..8, 0u64..16).prop_map(|(r, o)| MemAction::Read(r, o)),
            ],
            1..40,
        )
    ) {
        // Reference model: allocation list with freed flags.
        let mut mb = ModuleBuilder::new("memref");
        mb.global("pad", 3, Type::I64);
        let module = mb.finish();
        let mut mem = Memory::new(&module);
        let mut allocs: Vec<(u64, u64, bool, Vec<i64>)> = Vec::new(); // (base, size, freed, data)
        for action in actions {
            match action {
                MemAction::Malloc(size) => {
                    let base = mem.malloc(size);
                    allocs.push((base, size.max(1), false, vec![0; size.max(1) as usize]));
                }
                MemAction::Free(i) => {
                    if allocs.is_empty() { continue; }
                    let idx = i % allocs.len();
                    let (base, _, freed, _) = &mut allocs[idx];
                    let result = mem.free(*base);
                    if *freed {
                        prop_assert!(result.is_err(), "double free must error");
                    } else {
                        prop_assert!(result.is_ok());
                        *freed = true;
                    }
                }
                MemAction::Write(i, off, v) => {
                    if allocs.is_empty() { continue; }
                    let idx = i % allocs.len();
                    let (base, size, freed, data) = &mut allocs[idx];
                    let off = off % *size;
                    let r = mem.store(*base + off, v).expect("allocated words are mapped");
                    prop_assert_eq!(r.value, data[off as usize], "store returns the old word");
                    data[off as usize] = v;
                    prop_assert_eq!(r.freed.is_none(), !*freed, "write is clean iff live");
                }
                MemAction::Read(i, off) => {
                    if allocs.is_empty() { continue; }
                    let idx = i % allocs.len();
                    let (base, size, freed, data) = &allocs[idx];
                    let off = off % *size;
                    let r = mem.load(*base + off).expect("allocated words are mapped");
                    prop_assert_eq!(r.freed.is_some(), *freed, "read is clean iff live");
                    // Stale reads agree with the reference contents too.
                    prop_assert_eq!(r.value, data[off as usize]);
                }
            }
        }
    }

    #[test]
    fn io_delay_never_loses_work(d1 in 0i64..300, d2 in 0i64..300) {
        // Two delayed workers must both finish regardless of delays.
        let mut mb = ModuleBuilder::new("delay");
        let w = mb.declare_func("w", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            b.io_delay(Operand::Param(0));
            b.output(0, Operand::Param(0));
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(w, d1);
            let t2 = b.thread_create(w, d2);
            b.thread_join(t1);
            b.thread_join(t2);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        let mut sched = RandomScheduler::new(5);
        let o = Vm::new(&m, main_id, ProgramInput::empty(), RunConfig::default())
            .run(&mut sched, &mut owl_vm::NullSink);
        prop_assert_eq!(o.status, ExitStatus::Finished);
        prop_assert_eq!(o.outputs.len(), 2);
    }
}

#[derive(Clone, Debug)]
enum MemAction {
    Malloc(u64),
    Free(usize),
    Write(usize, u64, i64),
    Read(usize, u64),
}
