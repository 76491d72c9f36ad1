//! Property tests over the IR: randomly generated (well-formed)
//! functions must pass the verifier, and dominator/control-dependence
//! facts must hold structurally on arbitrary CFGs.

use owl_ir::analysis::{Cfg, ControlDeps, DomTree, LoopInfo, PostDomTree};
use owl_ir::{BlockId, Module, ModuleBuilder, Operand, Pred, Type};
use proptest::prelude::*;

/// A compact description of a random CFG: for each block, either a
/// conditional branch to two targets, a jump to one, or a return.
#[derive(Clone, Debug)]
enum Shape {
    Br(usize, usize),
    Jmp(usize),
    Ret,
}

fn shape_strategy(max_blocks: usize) -> impl Strategy<Value = Vec<Shape>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..max_blocks, 0usize..max_blocks).prop_map(|(a, b)| Shape::Br(a, b)),
            (0usize..max_blocks).prop_map(Shape::Jmp),
            Just(Shape::Ret),
        ],
        1..=max_blocks,
    )
}

/// Builds a module with one function realizing `shapes` (targets are
/// taken modulo the block count).
fn build_cfg(shapes: &[Shape]) -> Module {
    let n = shapes.len();
    let mut mb = ModuleBuilder::new("prop");
    let g = mb.global("g", 1, Type::I64);
    let f = mb.declare_func("f", 1);
    {
        let mut b = mb.build_func(f);
        let blocks: Vec<BlockId> = std::iter::once(BlockId(0))
            .chain((1..n).map(|_| b.block()))
            .collect();
        for (i, shape) in shapes.iter().enumerate() {
            b.switch_to(blocks[i]);
            let a = b.global_addr(g);
            let v = b.load(a, Type::I64);
            let c = b.cmp(Pred::Gt, v, Operand::Param(0));
            match shape {
                Shape::Br(x, y) => {
                    b.br(c, blocks[x % n], blocks[y % n]);
                }
                Shape::Jmp(x) => {
                    b.jmp(blocks[x % n]);
                }
                Shape::Ret => {
                    b.ret(Some(c.into()));
                }
            }
        }
    }
    mb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_modules_verify(shapes in shape_strategy(8)) {
        let m = build_cfg(&shapes);
        prop_assert!(owl_ir::verify_module(&m).is_ok());
    }

    #[test]
    fn print_parse_roundtrip(shapes in shape_strategy(8)) {
        let m = build_cfg(&shapes);
        let printed = owl_ir::module_to_string(&m);
        let parsed = owl_ir::parse_module(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        prop_assert!(owl_ir::verify_module(&parsed).is_ok());
        prop_assert_eq!(owl_ir::module_to_string(&parsed), printed);
    }

    #[test]
    fn entry_dominates_every_reachable_block(shapes in shape_strategy(8)) {
        let m = build_cfg(&shapes);
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        for b in cfg.reverse_postorder() {
            prop_assert!(dom.dominates(BlockId(0), b), "entry must dominate {b}");
        }
    }

    #[test]
    fn idom_is_a_strict_dominator(shapes in shape_strategy(8)) {
        let m = build_cfg(&shapes);
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        for b in cfg.reverse_postorder() {
            if let Some(i) = dom.idom(b) {
                prop_assert!(dom.dominates(i, b));
                prop_assert!(i != b);
            }
        }
    }

    #[test]
    fn control_deps_only_from_conditional_branches(shapes in shape_strategy(8)) {
        let m = build_cfg(&shapes);
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let pdom = PostDomTree::new(f, &cfg);
        let cd = ControlDeps::new(f, &cfg, &pdom);
        for b in 0..f.blocks.len() {
            for dep in cd.block_deps(BlockId::from_index(b)) {
                prop_assert!(
                    cfg.succs(*dep).len() >= 2,
                    "bb{b} depends on single-successor {dep}"
                );
            }
        }
    }

    #[test]
    fn loop_headers_dominate_their_bodies(shapes in shape_strategy(8)) {
        let m = build_cfg(&shapes);
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        let li = LoopInfo::new(f, &cfg, &dom);
        for lp in li.loops() {
            for b in lp.body.iter() {
                // Natural loops: the header dominates every body block
                // that is reachable from the entry.
                if dom.dominates(BlockId(0), *b) {
                    prop_assert!(
                        dom.dominates(lp.header, *b),
                        "header {} must dominate {b}",
                        lp.header
                    );
                }
            }
        }
    }

    #[test]
    fn postdominance_is_reflexive_for_exit_reaching_blocks(shapes in shape_strategy(6)) {
        let m = build_cfg(&shapes);
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let pdom = PostDomTree::new(f, &cfg);
        for b in 0..f.blocks.len() {
            let b = BlockId::from_index(b);
            // Blocks that can reach an exit (they have an immediate
            // post-dominator or are exits themselves) post-dominate
            // themselves; blocks stuck in infinite loops do not.
            if pdom.ipdom_raw(b.index()).is_some() || cfg.succs(b).is_empty() {
                prop_assert!(pdom.postdominates(b, b));
            }
        }
    }
}

#[test]
fn printer_roundtrips_every_opcode_textually() {
    // Not a proptest, but a coverage net: build one function using
    // every instruction kind and render it.
    let mut mb = ModuleBuilder::new("all");
    let g = mb.global("g", 2, Type::I64);
    let ext = mb.declare_external("ext", 1);
    let callee = mb.declare_func("callee", 1);
    let worker = mb.declare_func("worker", 1);
    let f = mb.declare_func("f", 1);
    {
        let mut b = mb.build_func(callee);
        b.ret(Some(Operand::Param(0)));
    }
    {
        let mut b = mb.build_func(worker);
        b.ret(None);
    }
    {
        let mut b = mb.build_func(f);
        let a = b.global_addr(g);
        let fp = b.func_addr(callee);
        let st = b.alloca(2);
        let h = b.malloc(3);
        let v = b.load(a, Type::I64);
        b.store(st, v);
        let gp = b.gep(h, 1);
        b.atomic_store(gp, 5);
        let av = b.atomic_load(gp);
        let s = b.add(av, 1);
        let c = b.cmp(Pred::Ne, s, 0);
        let t = b.block();
        let e = b.block();
        b.br(c, t, e);
        b.switch_to(t);
        b.call(ext, vec![Operand::Const(1)]);
        b.call_indirect(fp, vec![Operand::Const(2)]);
        let tid = b.thread_create(worker, 0);
        b.thread_join(tid);
        b.lock(a);
        b.unlock(a);
        b.yield_now();
        b.io_delay(3);
        let inp = b.input(0);
        b.output(1, inp);
        b.memcopy(st, h, 1);
        b.set_privilege(0);
        b.file_access(1, 2);
        b.exec(9);
        b.free(h);
        b.jmp(e);
        b.switch_to(e);
        let phi = b.phi(vec![]);
        b.set_phi(
            phi,
            vec![(BlockId(0), Operand::Const(0)), (t, Operand::Value(s))],
        );
        b.ret(Some(phi.into()));
    }
    let m = mb.finish();
    owl_ir::assert_verified(&m);
    let text = owl_ir::module_to_string(&m);
    for needle in [
        "globaladdr",
        "funcaddr",
        "alloca",
        "malloc",
        "load",
        "store",
        "gep",
        "atomic_store",
        "atomic_load",
        "add",
        "cmp ne",
        "br",
        "call @ext",
        "call *",
        "thread_create",
        "thread_join",
        "lock",
        "unlock",
        "yield",
        "io_delay",
        "input",
        "output",
        "memcopy",
        "set_privilege",
        "file_access",
        "exec",
        "free",
        "jmp",
        "phi",
        "ret",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

/// Hostile input for the IR parser: arbitrary bytes, every truncation
/// point, and single-byte corruptions of printed corpus programs. The
/// parser must return a module or a [`owl_ir::ParseError`] naming one of
/// the input's lines, and never panic; the verifier must then accept or
/// reject what it returned, and never panic either. A module that
/// verifies reaches the analyses that trust a verified module: the
/// points-to solve, and the check-elision pre-pass from every function
/// without parameters. They index their tables by ids taken from the
/// module, and must not panic either.
mod hostile_input {
    use owl_ir::analysis::{ElisionMap, PointsTo};
    use owl_ir::{module_to_string, parse_module, verify_module, FuncId, Module};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// Every corpus program, printed, smallest first.
    fn corpus() -> &'static [String] {
        static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
        TEXTS.get_or_init(|| {
            let mut texts: Vec<String> = owl_corpus::PROGRAMS
                .iter()
                .map(|e| module_to_string(&e.build().module))
                .collect();
            texts.sort_by_key(String::len);
            texts
        })
    }

    /// Parses `bytes` (lossily decoded) and checks the failure contract.
    fn parse_cleanly(bytes: &[u8]) {
        let text = String::from_utf8_lossy(bytes);
        match parse_module(&text) {
            Ok(m) => {
                if verify_module(&m).is_ok() {
                    analyze(&m);
                }
            }
            Err(e) => {
                let lines = text.lines().count();
                assert!(
                    (1..=lines).contains(&e.line),
                    "error on line {} of {lines}: {e}\n{text}",
                    e.line
                );
            }
        }
    }

    /// Runs the analyses a verified module reaches, from every entry
    /// that takes no parameters.
    fn analyze(m: &Module) {
        let pts = PointsTo::new(m);
        for (fi, f) in m.funcs.iter().enumerate() {
            if f.is_internal && f.num_params == 0 {
                let _ = ElisionMap::analyze_with(m, FuncId::from_index(fi), &pts);
            }
        }
    }

    /// Pieces of the IR grammar, so random sequences reach past the
    /// first token of a line.
    const TOKENS: &[&str] = &[
        "\n",
        "\n",
        " ",
        ",",
        ":",
        "=",
        "(",
        ")",
        "[",
        "]",
        "{",
        "}",
        ";",
        "module m",
        "global",
        "@g",
        ":",
        "1 x i64",
        "4294967295 x ptr",
        "func",
        "extern func",
        "@f",
        "@main",
        "bb0:",
        "bb1",
        "bb4000000000:",
        "%0",
        "%1",
        "%4294967295",
        "%arg0",
        "%arg9",
        "=",
        "add",
        "load",
        "i64",
        "store",
        "br",
        "jmp",
        "ret",
        "phi",
        "[bb0: 1]",
        "call",
        "thread_create",
        "thread_join",
        "globaladdr",
        "mutex_lock",
        "cond_wait",
        "malloc",
        "free",
        "memcpy",
        "0",
        "-1",
        "99999999999999999999",
        "f.c:3",
    ];

    #[test]
    fn every_truncation_parses_or_fails_cleanly() {
        // The smallest program at every byte, then every line boundary
        // of the other programs under 10 KB. Cuts elsewhere in the large
        // ones are left to the single-byte corruptions below: parsing
        // every prefix costs the square of the text's length.
        let texts = corpus();
        let small = texts[0].as_bytes();
        for cut in 0..=small.len() {
            parse_cleanly(&small[..cut]);
        }
        for text in texts[1..].iter().filter(|t| t.len() < 10_000) {
            let ends = text.match_indices('\n').map(|(i, _)| i);
            for cut in ends {
                parse_cleanly(&text.as_bytes()[..cut]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_parse_or_fail_cleanly(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            parse_cleanly(&bytes);
        }

        #[test]
        fn token_soup_parses_or_fails_cleanly(
            picks in prop::collection::vec(0..TOKENS.len(), 0..96),
        ) {
            let text: String = picks.iter().map(|&k| TOKENS[k]).collect::<Vec<_>>().join(" ");
            parse_cleanly(text.as_bytes());
        }

        #[test]
        fn corrupted_corpus_programs_parse_or_fail_cleanly(
            program in any::<usize>(),
            at in any::<usize>(),
            bit in 0..8u32,
            substitute in any::<u8>(),
            flip in any::<bool>(),
        ) {
            let texts = corpus();
            let mut bytes = texts[program % texts.len()].clone().into_bytes();
            let at = at % bytes.len();
            if flip {
                bytes[at] ^= 1 << bit;
            } else {
                bytes[at] = substitute;
            }
            parse_cleanly(&bytes);
        }
    }
}
