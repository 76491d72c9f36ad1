//! Admission control and load shedding for the `owl serve` daemon.
//!
//! A resident analysis service must fail *predictably* under overload:
//! rather than queueing without bound (latency collapse) or dropping
//! connections (indistinguishable from a crash), every submission
//! passes this controller, which either admits it — counting it
//! against a bounded submission window and an in-flight byte budget —
//! or sheds it with a typed [`RejectReason`] the client can act on.
//!
//! The window covers a request from admission until its response is
//! written (queued *and* executing), so `queue_capacity` is the hard
//! bound on concurrent admitted work; the worker-pool size separately
//! bounds how many of those execute at once. Draining flips one flag
//! and everything new is shed with [`RejectReason::Draining`] while
//! in-flight requests finish.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Why a submission was shed. Stable wire names via
/// [`RejectReason::as_str`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded submission window is full — back-pressure; retry
    /// after a result comes back.
    QueueFull,
    /// The request would exceed the in-flight byte budget (or is
    /// larger than the whole budget by itself).
    TooLarge,
    /// The daemon is draining for shutdown and admits nothing new.
    Draining,
    /// The named program is not in the corpus.
    UnknownProgram,
}

impl RejectReason {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::TooLarge => "too-large",
            RejectReason::Draining => "draining",
            RejectReason::UnknownProgram => "unknown-program",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<RejectReason> {
        Some(match s {
            "queue-full" => RejectReason::QueueFull,
            "too-large" => RejectReason::TooLarge,
            "draining" => RejectReason::Draining,
            "unknown-program" => RejectReason::UnknownProgram,
            _ => return None,
        })
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Counters and levels the controller exposes (for `status` responses
/// and the final [`crate::serve::ServeReport`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Requests admitted and not yet completed.
    pub in_flight: u64,
    /// Payload bytes admitted and not yet completed.
    pub inflight_bytes: u64,
    /// Whether the controller is draining.
    pub draining: bool,
    /// Submissions shed with [`RejectReason::QueueFull`].
    pub shed_queue_full: u64,
    /// Submissions shed with [`RejectReason::TooLarge`].
    pub shed_too_large: u64,
    /// Submissions shed with [`RejectReason::Draining`].
    pub shed_draining: u64,
}

impl AdmissionSnapshot {
    /// Total submissions shed for capacity or drain reasons.
    pub fn total_shed(&self) -> u64 {
        self.shed_queue_full + self.shed_too_large + self.shed_draining
    }
}

#[derive(Debug, Default)]
struct State {
    in_flight: u64,
    inflight_bytes: u64,
    draining: bool,
    shed_queue_full: u64,
    shed_too_large: u64,
    shed_draining: u64,
}

/// The daemon's admission controller (see the module docs).
#[derive(Debug)]
pub struct AdmissionController {
    queue_capacity: u64,
    max_inflight_bytes: u64,
    state: Mutex<State>,
}

impl AdmissionController {
    /// A controller admitting at most `queue_capacity` concurrent
    /// requests totaling at most `max_inflight_bytes` payload bytes.
    pub fn new(queue_capacity: usize, max_inflight_bytes: u64) -> Self {
        AdmissionController {
            queue_capacity: queue_capacity.max(1) as u64,
            max_inflight_bytes,
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a `bytes`-sized request or sheds it with a typed reason.
    /// An admitted request holds its slot and bytes until
    /// [`AdmissionController::complete`].
    pub fn try_admit(&self, bytes: u64) -> Result<(), RejectReason> {
        let mut s = self.lock();
        if s.draining {
            s.shed_draining += 1;
            return Err(RejectReason::Draining);
        }
        if bytes > self.max_inflight_bytes {
            s.shed_too_large += 1;
            return Err(RejectReason::TooLarge);
        }
        if s.in_flight >= self.queue_capacity {
            s.shed_queue_full += 1;
            return Err(RejectReason::QueueFull);
        }
        if s.inflight_bytes + bytes > self.max_inflight_bytes {
            s.shed_too_large += 1;
            return Err(RejectReason::TooLarge);
        }
        s.in_flight += 1;
        s.inflight_bytes += bytes;
        Ok(())
    }

    /// Sheds a request line longer than the in-flight byte budget
    /// before it is even parsed (no such line could ever be admitted),
    /// counted with the other [`RejectReason::TooLarge`] sheds.
    pub fn shed_too_large(&self) -> RejectReason {
        self.lock().shed_too_large += 1;
        RejectReason::TooLarge
    }

    /// Releases an admitted request's slot and bytes (call exactly
    /// once per successful [`AdmissionController::try_admit`], after
    /// the response is written).
    pub fn complete(&self, bytes: u64) {
        let mut s = self.lock();
        s.in_flight = s.in_flight.saturating_sub(1);
        s.inflight_bytes = s.inflight_bytes.saturating_sub(bytes);
    }

    /// Stops admitting: every later [`AdmissionController::try_admit`]
    /// sheds with [`RejectReason::Draining`].
    pub fn drain(&self) {
        self.lock().draining = true;
    }

    /// Whether the controller is draining.
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Current levels and shed counters.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let s = self.lock();
        AdmissionSnapshot {
            in_flight: s.in_flight,
            inflight_bytes: s.inflight_bytes,
            draining: s.draining,
            shed_queue_full: s.shed_queue_full,
            shed_too_large: s.shed_too_large,
            shed_draining: s.shed_draining,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_capacity_then_sheds_queue_full() {
        let a = AdmissionController::new(2, 1_000);
        assert!(a.try_admit(10).is_ok());
        assert!(a.try_admit(10).is_ok());
        assert_eq!(a.try_admit(10), Err(RejectReason::QueueFull));
        a.complete(10);
        assert!(a.try_admit(10).is_ok(), "slot freed by completion");
        let s = a.snapshot();
        assert_eq!(s.in_flight, 2);
        assert_eq!(s.shed_queue_full, 1);
    }

    #[test]
    fn byte_budget_sheds_too_large() {
        let a = AdmissionController::new(10, 100);
        assert_eq!(a.try_admit(101), Err(RejectReason::TooLarge));
        assert!(a.try_admit(60).is_ok());
        assert_eq!(a.try_admit(60), Err(RejectReason::TooLarge));
        a.complete(60);
        assert!(a.try_admit(60).is_ok());
        assert_eq!(a.snapshot().shed_too_large, 2);
    }

    #[test]
    fn draining_sheds_everything_new() {
        let a = AdmissionController::new(4, 1_000);
        assert!(a.try_admit(1).is_ok());
        a.drain();
        assert_eq!(a.try_admit(1), Err(RejectReason::Draining));
        assert!(a.is_draining());
        let s = a.snapshot();
        assert_eq!(s.in_flight, 1, "in-flight work survives the drain flag");
        assert_eq!(s.shed_draining, 1);
    }

    #[test]
    fn reject_reasons_round_trip_their_wire_names() {
        for r in [
            RejectReason::QueueFull,
            RejectReason::TooLarge,
            RejectReason::Draining,
            RejectReason::UnknownProgram,
        ] {
            assert_eq!(RejectReason::parse(r.as_str()), Some(r));
        }
        assert_eq!(RejectReason::parse("no-such-reason"), None);
    }
}
