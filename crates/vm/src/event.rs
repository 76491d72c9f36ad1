//! Execution trace events.
//!
//! The VM emits one [`TraceEvent`] per observable action (shared-memory
//! access, synchronization, thread lifecycle). Race detectors implement
//! [`TraceSink`] and consume events online, exactly as TSan instruments
//! a native run.

use owl_ir::{InstRef, Type};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A VM thread identifier. Thread 0 is the initial (main) thread.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The main thread.
    pub const MAIN: ThreadId = ThreadId(0);

    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A call stack: call-site instruction references, outermost first.
/// The executing instruction itself is *not* included (it lives in
/// [`TraceEvent::site`]). Matches the paper's Figure-4 rendering.
pub type CallStack = Arc<[InstRef]>;

/// What a trace event records.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A shared-memory read.
    Read {
        /// Address read.
        addr: u64,
        /// Value observed.
        value: i64,
        /// Static type at the load site.
        ty: Type,
        /// Whether the access was atomic (atomics never race).
        atomic: bool,
    },
    /// A shared-memory write.
    Write {
        /// Address written.
        addr: u64,
        /// Value written.
        value: i64,
        /// Previous value.
        old: i64,
        /// Whether the access was atomic.
        atomic: bool,
    },
    /// Mutex acquired.
    Lock {
        /// Mutex cell address.
        addr: u64,
    },
    /// Mutex released.
    Unlock {
        /// Mutex cell address.
        addr: u64,
    },
    /// Thread spawned.
    Fork {
        /// The new thread.
        child: ThreadId,
    },
    /// Thread joined.
    Join {
        /// The joined thread.
        child: ThreadId,
    },
    /// Heap allocation.
    Malloc {
        /// Base address.
        addr: u64,
        /// Words allocated.
        size: u64,
    },
    /// Heap release.
    Free {
        /// Base address freed.
        addr: u64,
    },
    /// An injected fault fired here (chaos runs only; never emitted
    /// under a zeroed [`crate::FaultPlan`]).
    Fault {
        /// Which fault fired.
        kind: crate::fault::FaultKind,
    },
}

/// One observable action of one thread.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Global step counter at which the action executed.
    pub step: u64,
    /// Acting thread.
    pub tid: ThreadId,
    /// The instruction that acted.
    pub site: InstRef,
    /// Call stack at the action (call sites, outermost first).
    pub stack: CallStack,
    /// Action payload.
    pub kind: EventKind,
    /// Whether the static check-elision pre-pass proved this site
    /// race-free: shadow-memory backends may skip their lookup/update
    /// for the event. Only ever set on plain `Read`/`Write` events, and
    /// only when an elision map was installed in the VM. The reference
    /// vector-clock backend deliberately ignores it (it is the
    /// differential oracle for the elision proof).
    #[serde(default)]
    pub no_shadow: bool,
}

impl TraceEvent {
    /// The accessed address for memory events.
    pub fn addr(&self) -> Option<u64> {
        match self.kind {
            EventKind::Read { addr, .. }
            | EventKind::Write { addr, .. }
            | EventKind::Lock { addr }
            | EventKind::Unlock { addr }
            | EventKind::Malloc { addr, .. }
            | EventKind::Free { addr } => Some(addr),
            _ => None,
        }
    }

    /// Whether this is a non-atomic data access (race candidate).
    pub fn is_data_access(&self) -> bool {
        matches!(
            self.kind,
            EventKind::Read { atomic: false, .. } | EventKind::Write { atomic: false, .. }
        )
    }

    /// Whether this is a write (atomic or not).
    pub fn is_write(&self) -> bool {
        matches!(self.kind, EventKind::Write { .. })
    }
}

/// Consumes trace events during execution.
pub trait TraceSink {
    /// Called once per event, in execution order.
    fn on_event(&mut self, ev: &TraceEvent);

    /// By-value variant of [`TraceSink::on_event`]. The VM constructs
    /// every event it emits, so it hands the sink ownership through
    /// this method; sinks that store events (`VecSink`) override it to
    /// move the event instead of cloning. The default delegates to
    /// `on_event`, so borrowing sinks — the detectors among them — only
    /// implement the by-reference method.
    fn on_event_owned(&mut self, ev: TraceEvent) {
        self.on_event(&ev);
    }
}

/// Discards all events.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn on_event(&mut self, _ev: &TraceEvent) {}
}

/// Records every event for offline analysis.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// The recorded trace.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.events.push(ev.clone());
    }

    fn on_event_owned(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn on_event(&mut self, ev: &TraceEvent) {
        (**self).on_event(ev);
    }

    fn on_event_owned(&mut self, ev: TraceEvent) {
        (**self).on_event_owned(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{FuncId, InstId};

    fn ev(kind: EventKind) -> TraceEvent {
        TraceEvent {
            step: 1,
            tid: ThreadId(2),
            site: InstRef::new(FuncId(0), InstId(0)),
            stack: Arc::from(vec![].into_boxed_slice()),
            kind,
            no_shadow: false,
        }
    }

    #[test]
    fn address_extraction() {
        assert_eq!(
            ev(EventKind::Read {
                addr: 9,
                value: 0,
                ty: Type::I64,
                atomic: false
            })
            .addr(),
            Some(9)
        );
        assert_eq!(ev(EventKind::Fork { child: ThreadId(1) }).addr(), None);
    }

    #[test]
    fn data_access_classification() {
        assert!(ev(EventKind::Write {
            addr: 1,
            value: 2,
            old: 0,
            atomic: false
        })
        .is_data_access());
        assert!(!ev(EventKind::Read {
            addr: 1,
            value: 2,
            ty: Type::I64,
            atomic: true
        })
        .is_data_access());
        assert!(!ev(EventKind::Lock { addr: 1 }).is_data_access());
    }

    #[test]
    fn vec_sink_records() {
        let mut sink = VecSink::default();
        sink.on_event(&ev(EventKind::Free { addr: 4 }));
        assert_eq!(sink.events.len(), 1);
    }
}
