//! The `owl serve` wire protocol: line-delimited JSON over a Unix
//! domain socket.
//!
//! Each request is one canonical-JSON object on one line; each
//! response is likewise one object per line. The grammar (DESIGN.md
//! §13 has the full state machine):
//!
//! ```text
//! request  := submit | status | shutdown
//! submit   := {"op":"submit","program":<name>,
//!              "quick":<bool>?,"deadline_ms":<n>?,
//!              "sleep_ms":<n>?,"inject_panic":<bool>?}
//! status   := {"op":"status"}
//! shutdown := {"op":"shutdown"}
//!
//! response := accepted | rejected | result | failed
//!           | status | bye | error
//! accepted := {"resp":"accepted","id":<n>}
//! rejected := {"resp":"rejected","reason":<reason>}
//! result   := {"resp":"result","id":<n>,"program":<name>,
//!              "cached":<bool>,"summary":<summary>}
//! failed   := {"resp":"failed","id":<n>,"kind":<kind>,
//!              "message":<text>}
//! bye      := {"resp":"bye"}
//! error    := {"resp":"error","message":<text>}
//! ```
//!
//! A `submit` is answered by `rejected` (admission refused it), by an
//! immediate `result` with `"cached":true` (fingerprint hit in the
//! result store), or by `accepted` now and `result`/`failed` later on
//! the same connection once a worker finishes it.
//!
//! `sleep_ms` and `inject_panic` are test instrumentation, the same
//! spirit as the campaign's [`crate::campaign::CampaignFault`]:
//! `sleep_ms` holds a worker busy to make back-pressure deterministic,
//! `inject_panic` forces the quarantine path.

use crate::counters::Counters;
use crate::journal::{decode_summary, encode_summary, ProgramSummary};
use crate::json::{self, Json};
use crate::serve::admission::RejectReason;

/// Upper bound on `sleep_ms` so a stray client cannot park a worker
/// for minutes.
pub const MAX_SLEEP_MS: u64 = 2_000;

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run (or answer from cache) one corpus program.
    Submit {
        /// Corpus program name (case-insensitive, as `owl-cli run`).
        program: String,
        /// Use [`crate::OwlConfig::quick`] instead of the default.
        quick: bool,
        /// Per-request deadline budget; `None` uses the server
        /// default. A request still queued past its deadline is
        /// cancelled, never executed.
        deadline_ms: Option<u64>,
        /// Test instrumentation: hold the worker for this long before
        /// executing (clamped to [`MAX_SLEEP_MS`]).
        sleep_ms: u64,
        /// Test instrumentation: panic instead of executing, forcing
        /// the quarantine path.
        inject_panic: bool,
    },
    /// Report queue depth, counters, and recovery state.
    Status,
    /// Graceful drain: stop admitting, finish in-flight work, fsync
    /// the store, then answer `bye` and exit.
    Shutdown,
}

/// Why a request failed after being accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The request's deadline passed before a worker could run it.
    DeadlineExceeded,
    /// The pipeline (or an injected fault) panicked; the request was
    /// quarantined, the daemon kept running.
    Quarantined,
}

impl FailureKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::DeadlineExceeded => "deadline-exceeded",
            FailureKind::Quarantined => "quarantined",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<FailureKind> {
        Some(match s {
            "deadline-exceeded" => FailureKind::DeadlineExceeded,
            "quarantined" => FailureKind::Quarantined,
            _ => return None,
        })
    }
}

/// Aggregate service counters carried by a `status` response.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// Requests queued, not yet picked up by a worker.
    pub queue_depth: u64,
    /// Requests currently executing.
    pub active: u64,
    /// Payload bytes admitted and not yet completed.
    pub inflight_bytes: u64,
    /// Whether the daemon is draining (shutdown requested).
    pub draining: bool,
    /// Requests executed through the full pipeline.
    pub executed: u64,
    /// Requests answered from the result store.
    pub cache_hits: u64,
    /// Requests shed with `queue-full`.
    pub shed_queue_full: u64,
    /// Requests shed with `too-large`.
    pub shed_too_large: u64,
    /// Requests shed with `draining`.
    pub shed_draining: u64,
    /// Distinct results in the store.
    pub stored: u64,
    /// Bytes the store's open-time recovery truncated.
    pub recovery_discarded_bytes: u64,
    /// Records the store's open-time recovery discarded.
    pub recovery_discarded_records: u64,
    /// Microseconds spent solving the check-elision pre-pass, summed
    /// over executed requests.
    pub elision_solve_us: u64,
    /// Every pipeline counter, summed over executed requests (failed
    /// ones included), plus the store's recovery as the journal
    /// recovery counters.
    pub counters: Counters,
}

/// One server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The submit was admitted; a `result` or `failed` with the same
    /// id follows on this connection.
    Accepted {
        /// Request id, unique per daemon lifetime.
        id: u64,
    },
    /// Admission refused the submit; nothing was queued.
    Rejected {
        /// The typed shed reason.
        reason: RejectReason,
    },
    /// A completed analysis.
    Result {
        /// Request id (0 for an immediate cache hit).
        id: u64,
        /// Program name as resolved by the corpus.
        program: String,
        /// Whether the result came from the store without executing
        /// any pipeline stage.
        cached: bool,
        /// The deterministic result summary.
        summary: ProgramSummary,
    },
    /// An admitted request that did not produce a result.
    Failed {
        /// Request id.
        id: u64,
        /// What happened.
        kind: FailureKind,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to `status`.
    Status(Box<StatusReport>),
    /// Answer to `shutdown`, sent after the drain completes.
    Bye,
    /// The request line could not be understood.
    Error {
        /// What was wrong with it.
        message: String,
    },
}

/// Encodes a request as one wire line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let v = match req {
        Request::Submit {
            program,
            quick,
            deadline_ms,
            sleep_ms,
            inject_panic,
        } => {
            let mut pairs = vec![
                ("op".to_string(), Json::str("submit")),
                ("program".to_string(), Json::str(program.clone())),
                ("quick".to_string(), Json::Bool(*quick)),
            ];
            if let Some(ms) = deadline_ms {
                pairs.push(("deadline_ms".to_string(), Json::UInt(*ms)));
            }
            if *sleep_ms > 0 {
                pairs.push(("sleep_ms".to_string(), Json::UInt(*sleep_ms)));
            }
            if *inject_panic {
                pairs.push(("inject_panic".to_string(), Json::Bool(true)));
            }
            Json::Obj(pairs)
        }
        Request::Status => Json::obj([("op", Json::str("status"))]),
        Request::Shutdown => Json::obj([("op", Json::str("shutdown"))]),
    };
    v.to_json_string()
}

/// Parses one request line. `Err` carries the message for an `error`
/// response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line.trim()).map_err(|e| format!("bad request JSON: {e}"))?;
    let op = v
        .get("op")
        .and_then(|j| j.as_str())
        .ok_or_else(|| "request is missing `op`".to_string())?;
    match op {
        "submit" => {
            let program = v
                .get("program")
                .and_then(|j| j.as_str())
                .ok_or_else(|| "submit is missing `program`".to_string())?
                .to_string();
            Ok(Request::Submit {
                program,
                quick: v.get("quick").and_then(|j| j.as_bool()).unwrap_or(false),
                deadline_ms: v.get("deadline_ms").and_then(|j| j.as_u64()),
                sleep_ms: v
                    .get("sleep_ms")
                    .and_then(|j| j.as_u64())
                    .unwrap_or(0)
                    .min(MAX_SLEEP_MS),
                inject_panic: v
                    .get("inject_panic")
                    .and_then(|j| j.as_bool())
                    .unwrap_or(false),
            })
        }
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// The fields of a [`StatusReport`] as JSON object pairs: the service
/// fields, then every counter in [`crate::Counter::ALL`] order. The
/// `status` response and `owl-cli status` both print these.
pub fn status_pairs(s: &StatusReport) -> Vec<(&'static str, Json)> {
    let mut pairs = vec![
        ("queue_depth", Json::UInt(s.queue_depth)),
        ("active", Json::UInt(s.active)),
        ("inflight_bytes", Json::UInt(s.inflight_bytes)),
        ("draining", Json::Bool(s.draining)),
        ("executed", Json::UInt(s.executed)),
        ("cache_hits", Json::UInt(s.cache_hits)),
        ("shed_queue_full", Json::UInt(s.shed_queue_full)),
        ("shed_too_large", Json::UInt(s.shed_too_large)),
        ("shed_draining", Json::UInt(s.shed_draining)),
        ("stored", Json::UInt(s.stored)),
        (
            "recovery_discarded_bytes",
            Json::UInt(s.recovery_discarded_bytes),
        ),
        (
            "recovery_discarded_records",
            Json::UInt(s.recovery_discarded_records),
        ),
        ("elision_solve_us", Json::UInt(s.elision_solve_us)),
    ];
    pairs.extend(s.counters.json_pairs());
    pairs
}

/// Encodes a response as one wire line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    let v = match resp {
        Response::Accepted { id } => Json::obj([
            ("resp", Json::str("accepted")),
            ("id", Json::UInt(*id)),
        ]),
        Response::Rejected { reason } => Json::obj([
            ("resp", Json::str("rejected")),
            ("reason", Json::str(reason.as_str())),
        ]),
        Response::Result {
            id,
            program,
            cached,
            summary,
        } => Json::obj([
            ("resp", Json::str("result")),
            ("id", Json::UInt(*id)),
            ("program", Json::str(program.clone())),
            ("cached", Json::Bool(*cached)),
            ("summary", encode_summary(summary)),
        ]),
        Response::Failed { id, kind, message } => Json::obj([
            ("resp", Json::str("failed")),
            ("id", Json::UInt(*id)),
            ("kind", Json::str(kind.as_str())),
            ("message", Json::str(message.clone())),
        ]),
        Response::Status(s) => {
            Json::obj(std::iter::once(("resp", Json::str("status"))).chain(status_pairs(s)))
        }
        Response::Bye => Json::obj([("resp", Json::str("bye"))]),
        Response::Error { message } => Json::obj([
            ("resp", Json::str("error")),
            ("message", Json::str(message.clone())),
        ]),
    };
    v.to_json_string()
}

/// Parses one response line (the client side of the protocol).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = json::parse(line.trim()).map_err(|e| format!("bad response JSON: {e}"))?;
    let resp = v
        .get("resp")
        .and_then(|j| j.as_str())
        .ok_or_else(|| "response is missing `resp`".to_string())?;
    let id = || v.get("id").and_then(|j| j.as_u64()).unwrap_or(0);
    match resp {
        "accepted" => Ok(Response::Accepted { id: id() }),
        "rejected" => {
            let reason = v
                .get("reason")
                .and_then(|j| j.as_str())
                .and_then(RejectReason::parse)
                .ok_or_else(|| "rejected without a known reason".to_string())?;
            Ok(Response::Rejected { reason })
        }
        "result" => {
            let summary = v
                .get("summary")
                .and_then(decode_summary)
                .ok_or_else(|| "result without a decodable summary".to_string())?;
            Ok(Response::Result {
                id: id(),
                program: v
                    .get("program")
                    .and_then(|j| j.as_str())
                    .unwrap_or_default()
                    .to_string(),
                cached: v.get("cached").and_then(|j| j.as_bool()).unwrap_or(false),
                summary,
            })
        }
        "failed" => {
            let kind = v
                .get("kind")
                .and_then(|j| j.as_str())
                .and_then(FailureKind::parse)
                .ok_or_else(|| "failed without a known kind".to_string())?;
            Ok(Response::Failed {
                id: id(),
                kind,
                message: v
                    .get("message")
                    .and_then(|j| j.as_str())
                    .unwrap_or_default()
                    .to_string(),
            })
        }
        "status" => {
            let u = |key: &str| v.get(key).and_then(|j| j.as_u64()).unwrap_or(0);
            Ok(Response::Status(Box::new(StatusReport {
                queue_depth: u("queue_depth"),
                active: u("active"),
                inflight_bytes: u("inflight_bytes"),
                draining: v
                    .get("draining")
                    .and_then(|j| j.as_bool())
                    .unwrap_or(false),
                executed: u("executed"),
                cache_hits: u("cache_hits"),
                shed_queue_full: u("shed_queue_full"),
                shed_too_large: u("shed_too_large"),
                shed_draining: u("shed_draining"),
                stored: u("stored"),
                recovery_discarded_bytes: u("recovery_discarded_bytes"),
                recovery_discarded_records: u("recovery_discarded_records"),
                elision_solve_us: u("elision_solve_us"),
                counters: Counters::from_json(&v),
            })))
        }
        "bye" => Ok(Response::Bye),
        "error" => Ok(Response::Error {
            message: v
                .get("message")
                .and_then(|j| j.as_str())
                .unwrap_or_default()
                .to_string(),
        }),
        other => Err(format!("unknown response `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit {
                program: "Libsafe".into(),
                quick: true,
                deadline_ms: Some(500),
                sleep_ms: 25,
                inject_panic: false,
            },
            Request::Submit {
                program: "SSDB".into(),
                quick: false,
                deadline_ms: None,
                sleep_ms: 0,
                inject_panic: true,
            },
            Request::Status,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = encode_request(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn sleep_ms_is_clamped() {
        let line = r#"{"op":"submit","program":"Libsafe","sleep_ms":999999}"#;
        let Request::Submit { sleep_ms, .. } = parse_request(line).unwrap() else {
            panic!("submit expected");
        };
        assert_eq!(sleep_ms, MAX_SLEEP_MS);
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Accepted { id: 7 },
            Response::Rejected {
                reason: RejectReason::QueueFull,
            },
            Response::Result {
                id: 7,
                program: "Libsafe".into(),
                cached: true,
                summary: ProgramSummary {
                    raw_reports: 2,
                    vulnerable: 1,
                    ..ProgramSummary::default()
                },
            },
            Response::Failed {
                id: 9,
                kind: FailureKind::DeadlineExceeded,
                message: "queued past its deadline".into(),
            },
            Response::Status(Box::new(StatusReport {
                queue_depth: 3,
                shed_queue_full: 11,
                draining: true,
                ..StatusReport::default()
            })),
            Response::Bye,
            Response::Error {
                message: "bad request JSON".into(),
            },
        ];
        for resp in resps {
            let line = encode_response(&resp);
            assert_eq!(parse_response(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn malformed_lines_are_reported_not_panicked() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"launch"}"#).is_err());
        assert!(parse_request(r#"{"op":"submit"}"#).is_err());
        assert!(parse_response(r#"{"resp":"rejected"}"#).is_err());
    }
}
