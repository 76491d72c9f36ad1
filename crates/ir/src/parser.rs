//! Textual IR parsing — the inverse of [`crate::module_to_string`].
//!
//! Lets programs be written, stored, and diffed as text (the way LLVM
//! assembly round-trips through `llvm-as`/`llvm-dis`). The grammar is
//! exactly what the printer emits:
//!
//! ```text
//! module name
//! global @flag : 1 x i64
//! global @table : 4 x ptr = [0, 7]
//!
//! func @main() {
//! bb0:
//!   %0 = globaladdr @flag
//!   store 1, %0  ; main.c:3
//!   ret
//! }
//! extern func @write(%arg0)
//! ```
//!
//! Instruction result ids (`%N =`) are taken from the text and re-mapped
//! to fresh ids in textual order, so hand-edited numbering need not be
//! dense.

use crate::ids::{BlockId, FuncId, GlobalId, InstId};
use crate::inst::{BinOp, Callee, Inst, Operand, Pred};
use crate::module::{Block, Function, Global, Loc, Module};
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// A parse failure with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

fn parse_type(s: &str, line: usize) -> Result<Type, ParseError> {
    match s {
        "i64" => Ok(Type::I64),
        "ptr" => Ok(Type::Ptr),
        "funcptr" => Ok(Type::FuncPtr),
        other => err(line, format!("unknown type `{other}`")),
    }
}

// Keyed by names and numbers read from the text: these maps keep std's
// seeded hasher (see `crate::hash`).
struct FuncRefs {
    funcs: HashMap<String, FuncId>,
    globals: HashMap<String, GlobalId>,
}

struct LineCtx<'a> {
    refs: &'a FuncRefs,
    /// textual `%N` -> actual InstId within the function.
    values: HashMap<u32, InstId>,
    line: usize,
}

impl LineCtx<'_> {
    fn operand(&self, s: &str) -> Result<Operand, ParseError> {
        let s = s.trim();
        if let Some(rest) = s.strip_prefix("%arg") {
            let n: u32 = rest
                .parse()
                .map_err(|_| self.e(format!("bad parameter `{s}`")))?;
            return Ok(Operand::Param(n));
        }
        if let Some(rest) = s.strip_prefix('%') {
            let n: u32 = rest
                .parse()
                .map_err(|_| self.e(format!("bad value ref `{s}`")))?;
            let id = self
                .values
                .get(&n)
                .ok_or_else(|| self.e(format!("use of undefined value `%{n}`")))?;
            return Ok(Operand::Value(*id));
        }
        let c: i64 = s
            .parse()
            .map_err(|_| self.e(format!("bad operand `{s}`")))?;
        Ok(Operand::Const(c))
    }

    fn block(&self, s: &str) -> Result<BlockId, ParseError> {
        let rest = s
            .trim()
            .strip_prefix("bb")
            .ok_or_else(|| self.e(format!("bad block ref `{s}`")))?;
        let n: u32 = rest
            .parse()
            .map_err(|_| self.e(format!("bad block ref `{s}`")))?;
        Ok(BlockId(n))
    }

    fn func(&self, s: &str) -> Result<FuncId, ParseError> {
        let name = s
            .trim()
            .strip_prefix('@')
            .ok_or_else(|| self.e(format!("bad function ref `{s}`")))?;
        self.refs
            .funcs
            .get(name)
            .copied()
            .ok_or_else(|| self.e(format!("unknown function `@{name}`")))
    }

    fn global(&self, s: &str) -> Result<GlobalId, ParseError> {
        let name = s
            .trim()
            .strip_prefix('@')
            .ok_or_else(|| self.e(format!("bad global ref `{s}`")))?;
        self.refs
            .globals
            .get(name)
            .copied()
            .ok_or_else(|| self.e(format!("unknown global `@{name}`")))
    }

    fn e(&self, message: String) -> ParseError {
        ParseError {
            line: self.line,
            message,
        }
    }
}

/// Splits `a, b, c` at top-level commas (phi brackets nest).
fn split_args(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, ch) in s.char_indices() {
        match ch {
            '[' | '(' => depth += 1,
            ']' | ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = s[start..].trim();
    if !last.is_empty() {
        out.push(last);
    }
    out
}

fn parse_call_args(ctx: &LineCtx<'_>, s: &str) -> Result<Vec<Operand>, ParseError> {
    let inner = s
        .trim()
        .strip_suffix(')')
        .ok_or_else(|| ctx.e(format!("missing `)` in call `{s}`")))?;
    split_args(inner)
        .into_iter()
        .map(|a| ctx.operand(a))
        .collect()
}

fn bin_op(name: &str) -> Option<BinOp> {
    Some(match name {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "subu" => BinOp::SubU,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        _ => return None,
    })
}

fn pred_of(name: &str, line: usize) -> Result<Pred, ParseError> {
    Ok(match name {
        "eq" => Pred::Eq,
        "ne" => Pred::Ne,
        "lt" => Pred::Lt,
        "le" => Pred::Le,
        "gt" => Pred::Gt,
        "ge" => Pred::Ge,
        "ltu" => Pred::LtU,
        other => return err(line, format!("unknown predicate `{other}`")),
    })
}

/// Parses one instruction body (no `%N = ` prefix, no loc comment).
fn parse_inst(ctx: &LineCtx<'_>, text: &str) -> Result<Inst, ParseError> {
    let (op, rest) = match text.split_once(' ') {
        Some((a, b)) => (a, b.trim()),
        None => (text, ""),
    };
    if let Some(bo) = bin_op(op) {
        let args = split_args(rest);
        if args.len() != 2 {
            return err(ctx.line, format!("`{op}` expects 2 operands"));
        }
        return Ok(Inst::Bin {
            op: bo,
            a: ctx.operand(args[0])?,
            b: ctx.operand(args[1])?,
        });
    }
    match op {
        "cmp" => {
            let (p, rest) = rest
                .split_once(' ')
                .ok_or_else(|| ctx.e("cmp needs a predicate".into()))?;
            let args = split_args(rest);
            if args.len() != 2 {
                return err(ctx.line, "cmp expects 2 operands");
            }
            Ok(Inst::Cmp {
                pred: pred_of(p, ctx.line)?,
                a: ctx.operand(args[0])?,
                b: ctx.operand(args[1])?,
            })
        }
        "globaladdr" => Ok(Inst::GlobalAddr(ctx.global(rest)?)),
        "funcaddr" => Ok(Inst::FuncAddr(ctx.func(rest)?)),
        "alloca" => {
            let size: u32 = rest
                .parse()
                .map_err(|_| ctx.e(format!("bad alloca size `{rest}`")))?;
            Ok(Inst::Alloca { size })
        }
        "malloc" => Ok(Inst::Malloc {
            size: ctx.operand(rest)?,
        }),
        "free" => Ok(Inst::Free {
            ptr: ctx.operand(rest)?,
        }),
        "load" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return err(ctx.line, "load expects `type, addr`");
            }
            Ok(Inst::Load {
                ty: parse_type(args[0], ctx.line)?,
                addr: ctx.operand(args[1])?,
            })
        }
        "store" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return err(ctx.line, "store expects `val, addr`");
            }
            Ok(Inst::Store {
                val: ctx.operand(args[0])?,
                addr: ctx.operand(args[1])?,
            })
        }
        "gep" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return err(ctx.line, "gep expects `base, offset`");
            }
            Ok(Inst::Gep {
                base: ctx.operand(args[0])?,
                offset: ctx.operand(args[1])?,
            })
        }
        "br" => {
            let args = split_args(rest);
            if args.len() != 3 {
                return err(ctx.line, "br expects `cond, then, else`");
            }
            Ok(Inst::Br {
                cond: ctx.operand(args[0])?,
                then_bb: ctx.block(args[1])?,
                else_bb: ctx.block(args[2])?,
            })
        }
        "jmp" => Ok(Inst::Jmp(ctx.block(rest)?)),
        "ret" => {
            if rest.is_empty() {
                Ok(Inst::Ret(None))
            } else {
                Ok(Inst::Ret(Some(ctx.operand(rest)?)))
            }
        }
        "call" => {
            if let Some(rest) = rest.strip_prefix('*') {
                let (ptr, args) = rest
                    .split_once('(')
                    .ok_or_else(|| ctx.e("call expects `(`".into()))?;
                Ok(Inst::Call {
                    callee: Callee::Indirect(ctx.operand(ptr)?),
                    args: parse_call_args(ctx, args)?,
                })
            } else {
                let (name, args) = rest
                    .split_once('(')
                    .ok_or_else(|| ctx.e("call expects `(`".into()))?;
                Ok(Inst::Call {
                    callee: Callee::Direct(ctx.func(name)?),
                    args: parse_call_args(ctx, args)?,
                })
            }
        }
        "phi" => {
            let mut incoming = Vec::new();
            for part in split_args(rest) {
                let inner = part
                    .strip_prefix('[')
                    .and_then(|p| p.strip_suffix(']'))
                    .ok_or_else(|| ctx.e(format!("bad phi arm `{part}`")))?;
                let (bb, val) = inner
                    .split_once(':')
                    .ok_or_else(|| ctx.e(format!("bad phi arm `{part}`")))?;
                incoming.push((ctx.block(bb)?, ctx.operand(val)?));
            }
            Ok(Inst::Phi { incoming })
        }
        "thread_create" => {
            let (name, args) = rest
                .split_once('(')
                .ok_or_else(|| ctx.e("thread_create expects `(`".into()))?;
            let args = parse_call_args(ctx, args)?;
            if args.len() != 1 {
                return err(ctx.line, "thread_create expects one argument");
            }
            Ok(Inst::ThreadCreate {
                func: ctx.func(name)?,
                arg: args[0],
            })
        }
        "thread_join" => Ok(Inst::ThreadJoin {
            tid: ctx.operand(rest)?,
        }),
        "lock" => Ok(Inst::MutexLock {
            addr: ctx.operand(rest)?,
        }),
        "unlock" => Ok(Inst::MutexUnlock {
            addr: ctx.operand(rest)?,
        }),
        "cond_wait" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return err(ctx.line, "cond_wait expects `cond, mutex`");
            }
            Ok(Inst::CondWait {
                cond: ctx.operand(args[0])?,
                mutex: ctx.operand(args[1])?,
            })
        }
        "cond_signal" => Ok(Inst::CondSignal {
            cond: ctx.operand(rest)?,
        }),
        "cond_broadcast" => Ok(Inst::CondBroadcast {
            cond: ctx.operand(rest)?,
        }),
        "atomic_load" => Ok(Inst::AtomicLoad {
            addr: ctx.operand(rest)?,
        }),
        "atomic_store" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return err(ctx.line, "atomic_store expects `val, addr`");
            }
            Ok(Inst::AtomicStore {
                val: ctx.operand(args[0])?,
                addr: ctx.operand(args[1])?,
            })
        }
        "yield" => Ok(Inst::Yield),
        "io_delay" => Ok(Inst::IoDelay {
            amount: ctx.operand(rest)?,
        }),
        "input" => Ok(Inst::Input {
            idx: ctx.operand(rest)?,
        }),
        "output" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return err(ctx.line, "output expects `chan, val`");
            }
            Ok(Inst::Output {
                chan: ctx.operand(args[0])?,
                val: ctx.operand(args[1])?,
            })
        }
        "memcopy" => {
            let args = split_args(rest);
            if args.len() != 3 {
                return err(ctx.line, "memcopy expects `dst, src, len`");
            }
            Ok(Inst::MemCopy {
                dst: ctx.operand(args[0])?,
                src: ctx.operand(args[1])?,
                len: ctx.operand(args[2])?,
            })
        }
        "set_privilege" => Ok(Inst::SetPrivilege {
            level: ctx.operand(rest)?,
        }),
        "file_access" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return err(ctx.line, "file_access expects `fd, data`");
            }
            Ok(Inst::FileAccess {
                fd: ctx.operand(args[0])?,
                data: ctx.operand(args[1])?,
            })
        }
        "exec" => Ok(Inst::Exec {
            cmd: ctx.operand(rest)?,
        }),
        other => err(ctx.line, format!("unknown instruction `{other}`")),
    }
}

/// Parses the textual form produced by [`crate::module_to_string`].
///
/// # Errors
///
/// Returns the first syntax error with its line number. The result is
/// *not* implicitly verified; run [`crate::verify_module`] on it.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let lines: Vec<&str> = text.lines().collect();

    // Pass 1: module name, globals, function signatures.
    let mut module = Module::new("module");
    let mut refs = FuncRefs {
        funcs: HashMap::new(),
        globals: HashMap::new(),
    };
    for (ln, raw) in lines.iter().enumerate() {
        let line = raw.split(';').next().unwrap_or("").trim();
        let n = ln + 1;
        if let Some(rest) = line.strip_prefix("module ") {
            module.name = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("global ") {
            // @name : SIZE x TYPE [= [v, ...]]
            let (name, rest) = rest.split_once(':').ok_or(ParseError {
                line: n,
                message: "global expects `@name : SIZE x TYPE`".into(),
            })?;
            let name = name.trim().strip_prefix('@').ok_or(ParseError {
                line: n,
                message: "global name must start with `@`".into(),
            })?;
            let (dims, init) = match rest.split_once('=') {
                Some((d, i)) => (d, Some(i)),
                None => (rest, None),
            };
            let (size, ty) = dims.trim().split_once(" x ").ok_or(ParseError {
                line: n,
                message: "global expects `SIZE x TYPE`".into(),
            })?;
            let size: u32 = size.trim().parse().map_err(|_| ParseError {
                line: n,
                message: format!("bad global size `{size}`"),
            })?;
            let ty = parse_type(ty.trim(), n)?;
            let init: Vec<i64> = match init {
                None => vec![],
                Some(i) => {
                    let inner = i
                        .trim()
                        .strip_prefix('[')
                        .and_then(|x| x.strip_suffix(']'))
                        .ok_or(ParseError {
                            line: n,
                            message: "global init expects `[v, ...]`".into(),
                        })?;
                    split_args(inner)
                        .into_iter()
                        .map(|v| {
                            v.parse().map_err(|_| ParseError {
                                line: n,
                                message: format!("bad init value `{v}`"),
                            })
                        })
                        .collect::<Result<_, _>>()?
                }
            };
            if init.len() > size as usize {
                return err(n, "init longer than global");
            }
            refs.globals
                .insert(name.to_string(), GlobalId::from_index(module.globals.len()));
            module.globals.push(Global {
                name: name.to_string(),
                size,
                init,
                ty,
            });
        } else if let Some(sig) = line
            .strip_prefix("func ")
            .or_else(|| line.strip_prefix("extern func "))
        {
            let external = line.starts_with("extern");
            let (name, params) = sig.split_once('(').ok_or(ParseError {
                line: n,
                message: "function signature expects `(`".into(),
            })?;
            let name = name.trim().strip_prefix('@').ok_or(ParseError {
                line: n,
                message: "function name must start with `@`".into(),
            })?;
            let params = params
                .split(')')
                .next()
                .unwrap_or("")
                .split(',')
                .filter(|p| !p.trim().is_empty())
                .count() as u32;
            refs.funcs
                .insert(name.to_string(), FuncId::from_index(module.funcs.len()));
            module.funcs.push(Function {
                name: name.to_string(),
                num_params: params,
                insts: vec![],
                locs: vec![],
                blocks: if external {
                    vec![]
                } else {
                    vec![Block::default()]
                },
                is_internal: !external,
            });
        }
    }

    // Pass 2: function bodies.
    let mut cur_func: Option<FuncId> = None;
    let mut cur_block = BlockId(0);
    let mut ctx = LineCtx {
        refs: &refs,
        values: HashMap::new(),
        line: 0,
    };
    for (ln, raw) in lines.iter().enumerate() {
        let n = ln + 1;
        ctx.line = n;
        // Separate the loc comment (the *last* `;` delimits it).
        let (code, comment) = match raw.find(';') {
            Some(i) => (&raw[..i], Some(raw[i + 1..].trim())),
            None => (*raw, None),
        };
        let line = code.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("module ") || line.starts_with("global ") || line.starts_with("extern")
        {
            continue;
        }
        if let Some(sig) = line.strip_prefix("func ") {
            let name = sig
                .split('(')
                .next()
                .and_then(|s| s.trim().strip_prefix('@'))
                .unwrap_or("");
            cur_func = refs.funcs.get(name).copied();
            cur_block = BlockId(0);
            ctx.values.clear();
            continue;
        }
        if line == "}" {
            cur_func = None;
            continue;
        }
        if let Some(bb) = line.strip_suffix(':') {
            cur_block = ctx.block(bb)?;
            // Each block has a label line of its own, so a label past
            // the line count names no block; refusing it keeps the
            // block table within the input's size.
            if cur_block.index() >= lines.len() {
                return err(
                    n,
                    format!("block `{bb}` beyond the text's {} lines", lines.len()),
                );
            }
            let Some(f) = cur_func else {
                return err(n, "block label outside a function");
            };
            let func = &mut module.funcs[f.index()];
            while func.blocks.len() <= cur_block.index() {
                func.blocks.push(Block::default());
            }
            continue;
        }
        let Some(f) = cur_func else {
            return err(n, format!("instruction outside a function: `{line}`"));
        };
        // `%N = body` or `body`.
        let (lhs, body) = match line.split_once('=') {
            Some((l, b)) if l.trim().starts_with('%') && !l.trim().contains(' ') => {
                let raw_id: u32 = l
                    .trim()
                    .strip_prefix('%')
                    .unwrap()
                    .parse()
                    .map_err(|_| ctx.e(format!("bad result id `{l}`")))?;
                (Some(raw_id), b.trim())
            }
            _ => (None, line),
        };
        let inst = parse_inst(&ctx, body)?;
        let loc = match comment {
            Some(c) => match c.rsplit_once(':') {
                Some((file, lineno)) => match lineno.trim().parse::<u32>() {
                    Ok(l) => {
                        let fi = module.intern_file(file.trim());
                        Loc { file: fi, line: l }
                    }
                    Err(_) => Loc::UNKNOWN,
                },
                None => Loc::UNKNOWN,
            },
            None => Loc::UNKNOWN,
        };
        let func = &mut module.funcs[f.index()];
        let id = InstId::from_index(func.insts.len());
        if let Some(raw) = lhs {
            ctx.values.insert(raw, id);
        }
        func.insts.push(inst);
        func.locs.push(loc);
        while func.blocks.len() <= cur_block.index() {
            func.blocks.push(Block::default());
        }
        func.blocks[cur_block.index()].insts.push(id);
    }

    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::module_to_string;
    use crate::verify::verify_module;

    const SAMPLE: &str = r#"
module sample
global @flag : 1 x i64
global @table : 4 x ptr = [0, 7]

func @worker(%arg0) {
bb0:
  %0 = globaladdr @flag
  %1 = load i64, %0  ; worker.c:10
  %2 = add %1, %arg0
  store %2, %0  ; worker.c:12
  ret %2
}

func @main() {
bb0:
  %0 = thread_create @worker(5)
  thread_join %0
  %2 = globaladdr @flag
  %3 = load i64, %2
  output 1, %3
  ret
}

extern func @write(%arg0, %arg1)
"#;

    #[test]
    fn parses_sample_and_verifies() {
        let m = parse_module(SAMPLE).expect("parse");
        assert_eq!(m.name, "sample");
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.globals[1].init, vec![0, 7]);
        assert_eq!(m.funcs.len(), 3);
        assert!(!m
            .func_by_name("write")
            .map(|f| m.func(f).is_internal)
            .unwrap());
        verify_module(&m).expect("verifies");
        // Locations survived.
        let worker = m.func_by_name("worker").unwrap();
        assert_eq!(
            m.format_loc(crate::InstRef::new(worker, InstId(1))),
            "worker.c:10"
        );
    }

    #[test]
    fn parsed_module_executes_like_source() {
        // Full round trip through text into behaviour is covered by the
        // vm crate; here check print(parse(text)) is a fixed point.
        let m = parse_module(SAMPLE).expect("parse");
        let printed = module_to_string(&m);
        let m2 = parse_module(&printed).expect("reparse");
        assert_eq!(module_to_string(&m2), printed, "printing is a fixed point");
    }

    #[test]
    fn error_reports_line_numbers() {
        let bad = "module x\nfunc @f() {\nbb0:\n  bogus_op 1\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("bogus_op"));
    }

    #[test]
    fn undefined_value_rejected() {
        let bad = "module x\nfunc @f() {\nbb0:\n  ret %9\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.message.contains("undefined value"), "{e}");
    }

    #[test]
    fn unknown_callee_rejected() {
        let bad = "module x\nfunc @f() {\nbb0:\n  %0 = call @nope()\n  ret\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.message.contains("unknown function"), "{e}");
    }

    #[test]
    fn sparse_result_ids_are_remapped() {
        // Hand-edited numbering need not be dense.
        let text =
            "module x\nfunc @f() {\nbb0:\n  %10 = add 1, 2\n  %20 = add %10, 3\n  ret %20\n}\n";
        let m = parse_module(text).expect("parse");
        verify_module(&m).expect("verifies");
        let f = m.func_by_name("f").unwrap();
        assert_eq!(m.func(f).insts.len(), 3);
    }

    #[test]
    fn block_label_past_the_text_is_rejected() {
        // Would otherwise grow the function's block table to 4·10⁹
        // entries from one line of input.
        let bad = "module x\nfunc @f() {\nbb4000000000:\n  ret\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        // A sparse label within the text's line count still parses.
        let ok = "module x\nfunc @f() {\nbb0:\n  jmp bb5\nbb5:\n  ret\n}\n";
        assert_eq!(parse_module(ok).expect("parse").funcs[0].blocks.len(), 6);
    }

    #[test]
    fn phi_arms_parse() {
        let text = "module x\nfunc @f(%arg0) {\nbb0:\n  br %arg0, bb1, bb2\nbb1:\n  jmp bb3\nbb2:\n  jmp bb3\nbb3:\n  %3 = phi [bb1: 1], [bb2: 2]\n  ret %3\n}\n";
        let m = parse_module(text).expect("parse");
        verify_module(&m).expect("verifies");
    }
}
