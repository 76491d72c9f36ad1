//! Runtime violations — the observable *consequences* of concurrency
//! attacks.
//!
//! The paper's study classifies attack consequences as privilege
//! escalation, code injection, authentication bypass, buffer overflow,
//! HTML integrity violation, and DoS. The VM detects the mechanical
//! ones (memory-safety and arithmetic violations) directly; the
//! corpus's per-program oracles combine them with security events
//! (privilege, file, exec records) to decide whether an *attack*
//! happened.

use crate::event::{CallStack, ThreadId};
use owl_ir::InstRef;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A mechanical runtime violation detected by the VM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Violation {
    /// Load/store through a NULL (page-zero) pointer.
    NullDeref {
        /// Faulting address.
        addr: u64,
    },
    /// Load/store outside every region.
    WildAccess {
        /// Faulting address.
        addr: u64,
    },
    /// Access to freed heap memory.
    UseAfterFree {
        /// Faulting address.
        addr: u64,
        /// Base of the freed allocation.
        region_base: u64,
    },
    /// `free` of an already-freed allocation.
    DoubleFree {
        /// The allocation base.
        addr: u64,
    },
    /// `free` of a non-allocation address.
    InvalidFree {
        /// The bogus address.
        addr: u64,
    },
    /// `MemCopy` wrote past the end of the destination allocation.
    BufferOverflow {
        /// Destination base passed to the copy.
        dst: u64,
        /// First out-of-bounds address written.
        first_oob: u64,
    },
    /// Unsigned subtraction wrapped below zero (Figure 8's busy
    /// counter).
    IntegerUnderflow {
        /// Minuend.
        a: i64,
        /// Subtrahend.
        b: i64,
    },
    /// Division or remainder by zero.
    DivByZero,
    /// Indirect call through a NULL function pointer (Figure 2's
    /// `f_op->fsync`).
    NullFuncPtr,
    /// Indirect call through a corrupted (non-function) pointer —
    /// arbitrary code execution in the paper's threat model.
    CorruptFuncPtr {
        /// The bogus pointer value.
        value: i64,
    },
    /// An SSA value was read before any execution path defined it
    /// (program bug, not an attack).
    UndefinedValue,
    /// An `Alloca` did not fit in what was left of the thread's stack
    /// window ([`crate::mem::STACK_SIZE`] words).
    StackOverflow {
        /// Words requested.
        size: u64,
    },
}

impl Violation {
    /// Whether the violating thread cannot continue (crash semantics).
    pub fn is_fatal(self) -> bool {
        matches!(
            self,
            Violation::NullDeref { .. }
                | Violation::WildAccess { .. }
                | Violation::NullFuncPtr
                | Violation::CorruptFuncPtr { .. }
                | Violation::DivByZero
                | Violation::UndefinedValue
                | Violation::StackOverflow { .. }
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NullDeref { addr } => write!(f, "NULL dereference at {addr:#x}"),
            Violation::WildAccess { addr } => write!(f, "wild access at {addr:#x}"),
            Violation::UseAfterFree { addr, region_base } => {
                write!(
                    f,
                    "use-after-free at {addr:#x} (allocation {region_base:#x})"
                )
            }
            Violation::DoubleFree { addr } => write!(f, "double free of {addr:#x}"),
            Violation::InvalidFree { addr } => write!(f, "invalid free of {addr:#x}"),
            Violation::BufferOverflow { dst, first_oob } => {
                write!(
                    f,
                    "buffer overflow past {dst:#x} (first OOB {first_oob:#x})"
                )
            }
            Violation::IntegerUnderflow { a, b } => {
                write!(f, "unsigned underflow: {a} - {b}")
            }
            Violation::DivByZero => write!(f, "division by zero"),
            Violation::NullFuncPtr => write!(f, "call through NULL function pointer"),
            Violation::CorruptFuncPtr { value } => {
                write!(f, "call through corrupted function pointer {value:#x}")
            }
            Violation::UndefinedValue => write!(f, "use of undefined SSA value"),
            Violation::StackOverflow { size } => {
                write!(f, "stack overflow: alloca of {size} words")
            }
        }
    }
}

/// A violation plus where and who.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ViolationRecord {
    /// The violation.
    pub violation: Violation,
    /// Executing thread.
    pub tid: ThreadId,
    /// Faulting instruction.
    pub site: InstRef,
    /// Call stack at the fault.
    pub stack: CallStack,
    /// Step at which it happened.
    pub step: u64,
}

/// A security-relevant action (always recorded; an oracle decides
/// whether it constitutes an attack).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SecurityEvent {
    /// `SetPrivilege(level)` executed.
    Privilege {
        /// The new level (0 = root in corpus conventions).
        level: i64,
    },
    /// `FileAccess(fd, data)` executed.
    FileWrite {
        /// Descriptor written.
        fd: i64,
        /// Word written.
        data: i64,
    },
    /// `Exec(cmd)` executed.
    Exec {
        /// Command word.
        cmd: i64,
    },
}

/// A security event plus provenance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SecurityRecord {
    /// The action.
    pub event: SecurityEvent,
    /// Executing thread.
    pub tid: ThreadId,
    /// Acting instruction.
    pub site: InstRef,
    /// Step at which it happened.
    pub step: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fatality_classification() {
        assert!(Violation::NullDeref { addr: 0 }.is_fatal());
        assert!(Violation::NullFuncPtr.is_fatal());
        assert!(!Violation::UseAfterFree {
            addr: 1,
            region_base: 1
        }
        .is_fatal());
        assert!(!Violation::BufferOverflow {
            dst: 1,
            first_oob: 2
        }
        .is_fatal());
        assert!(!Violation::IntegerUnderflow { a: 0, b: 1 }.is_fatal());
        assert!(Violation::StackOverflow { size: 1 }.is_fatal());
    }

    #[test]
    fn display_is_informative() {
        let s = Violation::BufferOverflow {
            dst: 0x1000,
            first_oob: 0x1008,
        }
        .to_string();
        assert!(s.contains("overflow"));
        assert!(s.contains("0x1008"));
    }
}
