//! # owl-vm
//!
//! A deterministic concurrent interpreter for [`owl_ir`] programs — the
//! execution substrate of the OWL concurrency-attack detection
//! framework (a Rust reproduction of *"Understanding and Detecting
//! Concurrency Attacks"*, DSN 2018).
//!
//! In the original system, programs ran natively under TSan (with the
//! OS scheduler supplying interleavings), under SKI's QEMU-level
//! schedule exploration for kernels, and under LLDB for verification.
//! This crate replaces all three execution environments with one VM:
//!
//! * instruction-granularity preemption under a pluggable
//!   [`Scheduler`] (round-robin, seeded random ≈ native timing, PCT ≈
//!   SKI exploration, replay);
//! * [`TraceEvent`]s for every shared-memory access, synchronization,
//!   and thread-lifecycle action (what TSan's instrumentation sees);
//! * thread-specific [`Breakpoint`]s with a [`Controller`] callback —
//!   the paper's §5.2 LLDB mechanism, including automatic livelock
//!   release;
//! * runtime violation detection (NULL dereference, use-after-free,
//!   double free, buffer overflow with *real* corruption of adjacent
//!   memory, unsigned underflow, corrupted function pointers) plus
//!   security-event recording (privilege, file, exec), so attack
//!   oracles can observe consequences end-to-end.
//!
//! ## Example
//!
//! ```
//! use owl_ir::{ModuleBuilder, Type};
//! use owl_vm::{ProgramInput, RoundRobin, Vm};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let main = mb.declare_func("main", 0);
//! {
//!     let mut f = mb.build_func(main);
//!     let v = f.input(0);
//!     f.output(7, v);
//!     f.ret(None);
//! }
//! let module = mb.finish();
//!
//! let mut sched = RoundRobin::default();
//! let outcome = Vm::run_quiet(&module, main, ProgramInput::new(vec![42]), &mut sched);
//! assert_eq!(outcome.outputs, vec![(7, 42)]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod breakpoint;
mod event;
mod fault;
mod input;
pub mod mem;
mod sched;
mod sites;
mod violation;
mod vm;

pub use breakpoint::{
    BreakDecision, BreakWorld, Breakpoint, Controller, NoController, PendingAccess, Suspension,
};
pub use event::{CallStack, EventKind, NullSink, ThreadId, TraceEvent, TraceSink, VecSink};
pub use fault::{FaultKind, FaultPlan, FaultRecord, JournalKilled};
pub use input::ProgramInput;
pub use mem::Memory;
pub use sched::{PctScheduler, RandomScheduler, ReplayScheduler, RoundRobin, Scheduler};
pub use sites::SiteSet;
pub use violation::{SecurityEvent, SecurityRecord, Violation, ViolationRecord};
pub use vm::{
    DeadlockInfo, ExecOutcome, ExitStatus, RunConfig, Snapshot, Vm, WaitInfo, WaitReason,
};
