//! # owl-ir
//!
//! The SSA intermediate representation underlying the OWL
//! concurrency-attack detection framework — a Rust reproduction of
//! *"Understanding and Detecting Concurrency Attacks"* (DSN 2018).
//!
//! The original OWL consumed LLVM bitcode produced by `clang`. This
//! crate substitutes a compact SSA IR with the same analytical surface:
//! virtual registers with def-use chains, basic blocks with explicit
//! control dependence, loads/stores over a shared address space, direct
//! and indirect calls, and intrinsics for the paper's five
//! vulnerable-site classes (§3.2): memory operations, NULL pointer
//! dereferences, privilege operations, file operations, and
//! process-forking operations.
//!
//! ## Example
//!
//! ```
//! use owl_ir::{ModuleBuilder, Operand, Type, verify_module};
//!
//! let mut mb = ModuleBuilder::new("hello");
//! let flag = mb.global("flag", 1, Type::I64);
//! let main = mb.declare_func("main", 0);
//! {
//!     let mut f = mb.build_func(main);
//!     let addr = f.global_addr(flag);
//!     f.store(addr, Operand::Const(1));
//!     f.ret(None);
//! }
//! let module = mb.finish();
//! verify_module(&module).expect("structurally sound");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
mod builder;
mod hash;
mod ids;
mod inst;
mod module;
mod parser;
mod printer;
mod types;
mod verify;

pub use builder::{FunctionBuilder, ModuleBuilder};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{BlockId, FuncId, GlobalId, InstId, InstRef};
pub use inst::{BinOp, Callee, Inst, Operand, Pred, VulnClass};
pub use module::{Block, Function, Global, Loc, Module};
pub use parser::{parse_module, ParseError};
pub use printer::{func_to_string, inst_to_string, inst_with_loc, module_to_string};
pub use types::Type;
pub use verify::{assert_verified, verify_module, VerifyError};
