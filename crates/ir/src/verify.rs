//! Structural IR verification.
//!
//! Catches malformed programs (missing terminators, dangling operand
//! references, phi/pred mismatches, bad call arity) before the VM or the
//! static analyzers ever see them.

use crate::analysis::cfg::Cfg;
use crate::ids::FuncId;
use crate::inst::{Callee, Inst, Operand};
use crate::module::Module;
use std::fmt;

/// One structural defect found by [`verify_module`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function containing the defect (`None` for module-level defects).
    pub func: Option<FuncId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.func {
            Some(id) => write!(f, "{id}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

fn err(errors: &mut Vec<VerifyError>, func: Option<FuncId>, message: String) {
    errors.push(VerifyError { func, message });
}

/// Verifies every internal function of `m`.
///
/// # Errors
///
/// Returns all defects found; an empty `Ok(())` means the module is
/// structurally sound (it may still loop forever or race — that is the
/// corpus's job).
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();

    for (fi, f) in m.funcs.iter().enumerate() {
        let fid = FuncId::from_index(fi);
        if !f.is_internal {
            if !f.blocks.is_empty() || !f.insts.is_empty() {
                err(
                    &mut errors,
                    Some(fid),
                    "external function must have no body".into(),
                );
            }
            continue;
        }
        if f.blocks.is_empty() {
            err(&mut errors, Some(fid), "function has no blocks".into());
            continue;
        }
        if f.locs.len() != f.insts.len() {
            err(
                &mut errors,
                Some(fid),
                "location table length mismatch".into(),
            );
        }
        // Each instruction must appear in exactly one block.
        let mut seen = vec![0u8; f.insts.len()];
        for (bi, block) in f.blocks.iter().enumerate() {
            if block.insts.is_empty() {
                err(&mut errors, Some(fid), format!("bb{bi} is empty"));
                continue;
            }
            for (k, &i) in block.insts.iter().enumerate() {
                if i.index() >= f.insts.len() {
                    err(
                        &mut errors,
                        Some(fid),
                        format!("bb{bi} references out-of-range {i}"),
                    );
                    continue;
                }
                seen[i.index()] += 1;
                let inst = f.inst(i);
                let last = k + 1 == block.insts.len();
                if last && !inst.is_terminator() {
                    err(
                        &mut errors,
                        Some(fid),
                        format!("bb{bi} does not end in a terminator"),
                    );
                }
                if !last && inst.is_terminator() {
                    err(
                        &mut errors,
                        Some(fid),
                        format!("terminator {i} in the middle of bb{bi}"),
                    );
                }
            }
        }
        for (i, &count) in seen.iter().enumerate() {
            if count == 0 {
                err(
                    &mut errors,
                    Some(fid),
                    format!("%{i} not placed in any block"),
                );
            } else if count > 1 {
                err(
                    &mut errors,
                    Some(fid),
                    format!("%{i} placed in {count} blocks"),
                );
            }
        }

        // Operand sanity.
        let mut ops = Vec::new();
        let mut targets_ok = true;
        for (ii, inst) in f.insts.iter().enumerate() {
            inst.operands(&mut ops);
            for op in &ops {
                match op {
                    Operand::Value(v) => {
                        if v.index() >= f.insts.len() {
                            err(
                                &mut errors,
                                Some(fid),
                                format!("%{ii} uses out-of-range {v}"),
                            );
                        } else if !f.inst(*v).has_result() {
                            err(
                                &mut errors,
                                Some(fid),
                                format!("%{ii} uses {v}, which produces no value"),
                            );
                        }
                    }
                    Operand::Param(p) => {
                        if *p >= f.num_params {
                            err(
                                &mut errors,
                                Some(fid),
                                format!("%{ii} uses missing parameter {p}"),
                            );
                        }
                    }
                    Operand::Const(_) => {}
                }
            }
            // Branch targets and callee references.
            match inst {
                Inst::Br {
                    then_bb, else_bb, ..
                } => {
                    for t in [then_bb, else_bb] {
                        if t.index() >= f.blocks.len() {
                            targets_ok = false;
                            err(
                                &mut errors,
                                Some(fid),
                                format!("%{ii} branches to missing {t}"),
                            );
                        }
                    }
                }
                Inst::Jmp(t) if t.index() >= f.blocks.len() => {
                    targets_ok = false;
                    err(
                        &mut errors,
                        Some(fid),
                        format!("%{ii} jumps to missing {t}"),
                    );
                }
                Inst::Call {
                    callee: Callee::Direct(c),
                    args,
                } => {
                    if c.index() >= m.funcs.len() {
                        err(&mut errors, Some(fid), format!("%{ii} calls missing {c}"));
                    } else if m.func(*c).num_params as usize != args.len() {
                        err(
                            &mut errors,
                            Some(fid),
                            format!(
                                "%{ii} calls {} with {} args (expects {})",
                                m.func(*c).name,
                                args.len(),
                                m.func(*c).num_params
                            ),
                        );
                    }
                }
                Inst::ThreadCreate { func, .. } => {
                    if func.index() >= m.funcs.len() {
                        err(
                            &mut errors,
                            Some(fid),
                            format!("%{ii} spawns missing {func}"),
                        );
                    } else if m.func(*func).num_params != 1 {
                        err(
                            &mut errors,
                            Some(fid),
                            format!(
                                "%{ii} spawns {}, which must take exactly one parameter",
                                m.func(*func).name
                            ),
                        );
                    }
                }
                Inst::FuncAddr(c) if c.index() >= m.funcs.len() => {
                    err(
                        &mut errors,
                        Some(fid),
                        format!("%{ii} takes address of missing {c}"),
                    );
                }
                Inst::GlobalAddr(g) if g.index() >= m.globals.len() => {
                    err(
                        &mut errors,
                        Some(fid),
                        format!("%{ii} references missing {g}"),
                    );
                }
                _ => {}
            }
        }

        // Phi incoming blocks must be actual predecessors. The CFG
        // indexes blocks by branch target, so it needs them in range.
        if !targets_ok {
            continue;
        }
        let cfg = Cfg::new(f);
        let owner = f.inst_blocks();
        for (ii, inst) in f.insts.iter().enumerate() {
            if let Inst::Phi { incoming } = inst {
                let b = owner[ii];
                let preds = cfg.preds(b);
                if incoming.len() != preds.len() {
                    err(
                        &mut errors,
                        Some(fid),
                        format!(
                            "%{ii} phi has {} incoming edges, block has {} preds",
                            incoming.len(),
                            preds.len()
                        ),
                    );
                }
                for (src, _) in incoming {
                    if !preds.contains(src) {
                        err(
                            &mut errors,
                            Some(fid),
                            format!("%{ii} phi names non-predecessor {src}"),
                        );
                    }
                }
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Panics with a readable listing if `m` fails verification. Intended
/// for corpus constructors and tests.
///
/// # Panics
///
/// Panics when [`verify_module`] reports any defect.
pub fn assert_verified(m: &Module) {
    if let Err(errors) = verify_module(m) {
        let listing: Vec<String> = errors.iter().map(ToString::to_string).collect();
        panic!(
            "module `{}` failed verification:\n  {}",
            m.name,
            listing.join("\n  ")
        );
    }
}

#[allow(unused)]
fn _assert_traits() {
    fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<VerifyError>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ids::InstId;
    use crate::module::{Block, Function};
    use crate::types::Type;

    #[test]
    fn well_formed_module_passes() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1, Type::I64);
        let f = mb.declare_func("f", 0);
        {
            let mut b = mb.build_func(f);
            let a = b.global_addr(g);
            b.store(a, 1i64);
            b.ret(None);
        }
        assert!(verify_module(&mb.finish()).is_ok());
    }

    #[test]
    fn missing_terminator_detected() {
        let mut m = Module::new("t");
        m.funcs.push(Function {
            name: "f".into(),
            num_params: 0,
            insts: vec![Inst::Yield],
            locs: vec![crate::module::Loc::UNKNOWN],
            blocks: vec![Block {
                insts: vec![InstId(0)],
            }],
            is_internal: true,
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("terminator")));
    }

    #[test]
    fn dangling_operand_detected() {
        let mut m = Module::new("t");
        m.funcs.push(Function {
            name: "f".into(),
            num_params: 0,
            insts: vec![Inst::Ret(Some(Operand::Value(InstId(9))))],
            locs: vec![crate::module::Loc::UNKNOWN],
            blocks: vec![Block {
                insts: vec![InstId(0)],
            }],
            is_internal: true,
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("out-of-range")));
    }

    #[test]
    fn branch_to_missing_block_is_an_error_not_a_panic() {
        let mut m = Module::new("t");
        m.funcs.push(Function {
            name: "f".into(),
            num_params: 0,
            insts: vec![Inst::Jmp(crate::ids::BlockId(5))],
            locs: vec![crate::module::Loc::UNKNOWN],
            blocks: vec![Block {
                insts: vec![InstId(0)],
            }],
            is_internal: true,
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("missing bb5")),
            "{errs:?}"
        );
    }

    #[test]
    fn bad_call_arity_detected() {
        let mut mb = ModuleBuilder::new("t");
        let callee = mb.declare_func("callee", 2);
        let f = mb.declare_func("f", 0);
        {
            let mut b = mb.build_func(callee);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(f);
            b.call(callee, vec![Operand::Const(1)]); // wrong arity
            b.ret(None);
        }
        let errs = verify_module(&mb.finish()).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("args")));
    }

    #[test]
    fn thread_entry_arity_enforced() {
        let mut mb = ModuleBuilder::new("t");
        let worker = mb.declare_func("worker", 2);
        let f = mb.declare_func("f", 0);
        {
            let mut b = mb.build_func(worker);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(f);
            b.thread_create(worker, 0);
            b.ret(None);
        }
        let errs = verify_module(&mb.finish()).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("one parameter")));
    }

    #[test]
    fn use_of_valueless_inst_detected() {
        let mut mb = ModuleBuilder::new("t");
        let f = mb.declare_func("f", 0);
        {
            let mut b = mb.build_func(f);
            let y = b.yield_now(); // produces no value
            b.ret(Some(y.into()));
        }
        let errs = verify_module(&mb.finish()).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("no value")));
    }
}
