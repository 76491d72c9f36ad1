//! Trace spill segments — the disk layer of the budgeted detector sink.
//!
//! When a unit's in-flight event window exceeds `--max-trace-mem`, the
//! explorer writes the cold window to a *segment* file and immediately
//! replays it into the detector, bounding resident memory by the spill
//! threshold instead of the trace length. Segments and `owl::journal`
//! share one checksummed line frame, [`LineFrame`] — here one
//! `{"crc":"<16 hex>","rec":"<payload>"}` record per line, FNV-1a/64
//! over the payload — and one torn-tail scan, [`valid_prefix`], so a
//! process death mid-write leaves at most one torn tail line, which
//! [`recover_segment`] truncates on reopen exactly like the campaign
//! journal does.
//!
//! The record payload is a hex-encoded fixed-width binary event (not
//! JSON): segments are written and read back within one unit and never
//! interpreted by humans, so the codec optimizes for size and
//! deterministic byte layout. Encoding depends only on the event
//! contents, never on thread timing, which keeps spill behavior (and
//! therefore a budgeted unit's detection) reproducible for a given
//! schedule seed.
//!
//! Crash injection: a [`SpillKillSwitch`] armed with *kill after N
//! appends* makes the writer die — flush a torn half-line, then panic
//! with the shared [`JournalKilled`] payload — simulating `SIGKILL`
//! mid-spill for the crash-recovery suite.

use owl_ir::{FuncId, InstId, InstRef, Type};
use owl_vm::{EventKind, FaultKind, JournalKilled, ThreadId, TraceEvent, TraceSink};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Typed spill-layer failure. Everything here flows into the memory
/// budget's degradation ladder — the unit aborts with a typed verdict
/// and the campaign quarantines-and-continues — instead of panicking
/// mid-run.
#[derive(Debug)]
pub enum SpillError {
    /// An event's call stack exceeds the codec's `u32` frame-count
    /// field and cannot be represented in a segment record.
    StackTooDeep {
        /// Observed frame count.
        frames: usize,
    },
    /// The underlying segment file operation failed.
    Io(io::Error),
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::StackTooDeep { frames } => {
                write!(f, "call stack of {frames} frames exceeds the spill codec limit")
            }
            SpillError::Io(e) => write!(f, "spill segment I/O failed: {e}"),
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::StackTooDeep { .. } => None,
            SpillError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for SpillError {
    fn from(e: io::Error) -> Self {
        SpillError::Io(e)
    }
}

/// Approximate resident size of one in-flight event: the inline struct
/// plus its share of the call-stack allocation. The budget window
/// accounts with this, so `--max-trace-mem` bounds the same quantity a
/// materialized `VecSink` trace would occupy.
pub fn approx_event_bytes(ev: &TraceEvent) -> usize {
    std::mem::size_of::<TraceEvent>() + ev.stack.len() * std::mem::size_of::<InstRef>()
}

/// FNV-1a 64-bit — small, dependency-free, and plenty for torn-write
/// and bit-rot detection on a line-sized payload. The checksum of
/// every spill segment line and every run-journal line.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Binary event codec
// ---------------------------------------------------------------------

const TAG_READ: u8 = 0;
const TAG_WRITE: u8 = 1;
const TAG_LOCK: u8 = 2;
const TAG_UNLOCK: u8 = 3;
const TAG_FORK: u8 = 4;
const TAG_JOIN: u8 = 5;
const TAG_MALLOC: u8 = 6;
const TAG_FREE: u8 = 7;
const TAG_FAULT: u8 = 8;

fn encode_type(ty: Type) -> u8 {
    match ty {
        Type::I64 => 0,
        Type::Ptr => 1,
        Type::FuncPtr => 2,
    }
}

fn decode_type(b: u8) -> Option<Type> {
    Some(match b {
        0 => Type::I64,
        1 => Type::Ptr,
        2 => Type::FuncPtr,
        _ => return None,
    })
}

fn encode_fault(k: FaultKind) -> u8 {
    match k {
        FaultKind::MemFault => 0,
        FaultKind::SpuriousWakeup => 1,
        FaultKind::SchedDelay => 2,
        FaultKind::DroppedBreakpoint => 3,
        FaultKind::StepExhaustion => 4,
        FaultKind::JournalKill => 5,
    }
}

fn decode_fault(b: u8) -> Option<FaultKind> {
    Some(match b {
        0 => FaultKind::MemFault,
        1 => FaultKind::SpuriousWakeup,
        2 => FaultKind::SchedDelay,
        3 => FaultKind::DroppedBreakpoint,
        4 => FaultKind::StepExhaustion,
        5 => FaultKind::JournalKill,
        _ => return None,
    })
}

fn push_site(out: &mut Vec<u8>, s: InstRef) {
    out.extend_from_slice(&s.func.0.to_le_bytes());
    out.extend_from_slice(&s.inst.0.to_le_bytes());
}

fn encode_event(ev: &TraceEvent) -> Result<Vec<u8>, SpillError> {
    encode_event_limited(ev, u32::MAX as usize)
}

/// The codec body, with the frame-count ceiling injectable so tests
/// can exercise the [`SpillError::StackTooDeep`] path without building
/// a four-billion-frame stack.
fn encode_event_limited(ev: &TraceEvent, max_frames: usize) -> Result<Vec<u8>, SpillError> {
    if ev.stack.len() > max_frames {
        return Err(SpillError::StackTooDeep {
            frames: ev.stack.len(),
        });
    }
    let mut out = Vec::with_capacity(64 + ev.stack.len() * 8);
    out.extend_from_slice(&ev.step.to_le_bytes());
    out.extend_from_slice(&ev.tid.0.to_le_bytes());
    push_site(&mut out, ev.site);
    out.push(u8::from(ev.no_shadow));
    match ev.kind {
        EventKind::Read {
            addr,
            value,
            ty,
            atomic,
        } => {
            out.push(TAG_READ);
            out.extend_from_slice(&addr.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
            out.push(encode_type(ty));
            out.push(u8::from(atomic));
        }
        EventKind::Write {
            addr,
            value,
            old,
            atomic,
        } => {
            out.push(TAG_WRITE);
            out.extend_from_slice(&addr.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
            out.extend_from_slice(&old.to_le_bytes());
            out.push(u8::from(atomic));
        }
        EventKind::Lock { addr } => {
            out.push(TAG_LOCK);
            out.extend_from_slice(&addr.to_le_bytes());
        }
        EventKind::Unlock { addr } => {
            out.push(TAG_UNLOCK);
            out.extend_from_slice(&addr.to_le_bytes());
        }
        EventKind::Fork { child } => {
            out.push(TAG_FORK);
            out.extend_from_slice(&child.0.to_le_bytes());
        }
        EventKind::Join { child } => {
            out.push(TAG_JOIN);
            out.extend_from_slice(&child.0.to_le_bytes());
        }
        EventKind::Malloc { addr, size } => {
            out.push(TAG_MALLOC);
            out.extend_from_slice(&addr.to_le_bytes());
            out.extend_from_slice(&size.to_le_bytes());
        }
        EventKind::Free { addr } => {
            out.push(TAG_FREE);
            out.extend_from_slice(&addr.to_le_bytes());
        }
        EventKind::Fault { kind } => {
            out.push(TAG_FAULT);
            out.push(encode_fault(kind));
        }
    }
    // Guarded above: `max_frames` never exceeds `u32::MAX`.
    let len = ev.stack.len() as u32;
    out.extend_from_slice(&len.to_le_bytes());
    for s in ev.stack.iter() {
        push_site(&mut out, *s);
    }
    Ok(out)
}

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.b.get(self.i..self.i + n)?;
        self.i += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn site(&mut self) -> Option<InstRef> {
        Some(InstRef::new(FuncId(self.u32()?), InstId(self.u32()?)))
    }
}

fn decode_event(bytes: &[u8]) -> Option<TraceEvent> {
    let mut c = Cursor { b: bytes, i: 0 };
    let step = c.u64()?;
    let tid = ThreadId(c.u32()?);
    let site = c.site()?;
    let no_shadow = c.u8()? != 0;
    let kind = match c.u8()? {
        TAG_READ => EventKind::Read {
            addr: c.u64()?,
            value: c.i64()?,
            ty: decode_type(c.u8()?)?,
            atomic: c.u8()? != 0,
        },
        TAG_WRITE => EventKind::Write {
            addr: c.u64()?,
            value: c.i64()?,
            old: c.i64()?,
            atomic: c.u8()? != 0,
        },
        TAG_LOCK => EventKind::Lock { addr: c.u64()? },
        TAG_UNLOCK => EventKind::Unlock { addr: c.u64()? },
        TAG_FORK => EventKind::Fork {
            child: ThreadId(c.u32()?),
        },
        TAG_JOIN => EventKind::Join {
            child: ThreadId(c.u32()?),
        },
        TAG_MALLOC => EventKind::Malloc {
            addr: c.u64()?,
            size: c.u64()?,
        },
        TAG_FREE => EventKind::Free { addr: c.u64()? },
        TAG_FAULT => EventKind::Fault {
            kind: decode_fault(c.u8()?)?,
        },
        _ => return None,
    };
    let frames = c.u32()? as usize;
    let mut stack = Vec::with_capacity(frames.min(1024));
    for _ in 0..frames {
        stack.push(c.site()?);
    }
    if c.i != bytes.len() {
        return None; // trailing garbage: not a record we wrote
    }
    Some(TraceEvent {
        step,
        tid,
        site,
        stack: Arc::from(stack.into_boxed_slice()),
        kind,
        no_shadow,
    })
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write as _;
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn hex_decode(s: &[u8]) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.chunks(2)
        .map(|c| u8::from_str_radix(std::str::from_utf8(c).ok()?, 16).ok())
        .collect()
}

// ---------------------------------------------------------------------
// Checksummed line frame (shared with owl::journal)
// ---------------------------------------------------------------------

/// How every checksummed line starts.
const CRC_PREFIX: &str = "{\"crc\":\"";

/// The line layout of spill segments and of the run journal:
/// `{"crc":"<16 lowercase hex>"`, then `mid`, the payload and `suffix`,
/// then a newline. The CRC is [`fnv1a64`] over the payload bytes.
#[derive(Clone, Copy, Debug)]
pub struct LineFrame {
    mid: &'static str,
    suffix: &'static str,
}

impl LineFrame {
    /// A frame that puts the payload between `mid` and `suffix`.
    pub const fn new(mid: &'static str, suffix: &'static str) -> Self {
        LineFrame { mid, suffix }
    }

    /// The framed line for `payload`, trailing newline included.
    pub fn line(&self, payload: &str) -> String {
        let crc = fnv1a64(payload.as_bytes());
        format!(
            "{CRC_PREFIX}{crc:016x}{}{payload}{}\n",
            self.mid, self.suffix
        )
    }

    /// The checksummed payload of one newline-stripped line, or `None`
    /// on any damage. The CRC must be spelled exactly as
    /// [`LineFrame::line`] writes it — sixteen lowercase hex digits — so
    /// that every single-bit flip of a line is damage, including one
    /// that upper-cases a CRC digit.
    pub fn payload<'a>(&self, line: &'a [u8]) -> Option<&'a [u8]> {
        let (crc, rest) = line
            .strip_prefix(CRC_PREFIX.as_bytes())?
            .split_at_checked(16)?;
        let payload = rest
            .strip_prefix(self.mid.as_bytes())?
            .strip_suffix(self.suffix.as_bytes())?;
        (crc == format!("{:016x}", fnv1a64(payload)).as_bytes()).then_some(payload)
    }
}

/// The torn-tail scan of every checksummed file: decodes the
/// newline-terminated lines at the start of `data` and stops at the
/// first one that is torn (no newline before EOF) or that `decode`
/// rejects. Returns the decoded values and the length of that valid
/// prefix, which is where a recovering reader truncates the file.
pub fn valid_prefix<T>(data: &[u8], mut decode: impl FnMut(&[u8]) -> Option<T>) -> (Vec<T>, usize) {
    let mut values = Vec::new();
    let mut end = 0;
    for line in data.split_inclusive(|&b| b == b'\n') {
        let Some(value) = line.strip_suffix(b"\n").and_then(&mut decode) else {
            break;
        };
        values.push(value);
        end += line.len();
    }
    (values, end)
}

const FRAME: LineFrame = LineFrame::new("\",\"rec\":\"", "\"}");

fn format_line(ev: &TraceEvent) -> Result<String, SpillError> {
    Ok(FRAME.line(&hex_encode(&encode_event(ev)?)))
}

/// Parses one newline-stripped segment line; `None` on any damage (bad
/// framing, CRC mismatch, undecodable payload).
fn parse_line(line: &[u8]) -> Option<TraceEvent> {
    decode_event(&hex_decode(FRAME.payload(line)?)?)
}

// ---------------------------------------------------------------------
// Kill switch
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct KillInner {
    /// Record appends remaining before the kill fires; `None` =
    /// disarmed.
    remaining: Option<u64>,
    /// Total record appends observed (reported in the panic payload).
    appends: u64,
}

/// Simulated `SIGKILL` during a spill-segment write, one-shot like the
/// journal's `set_kill_after`: after the armed number of record
/// appends the writer flushes a torn half-line and panics with
/// [`JournalKilled`], which supervisors re-raise rather than retry.
#[derive(Clone, Debug, Default)]
pub struct SpillKillSwitch(Arc<Mutex<KillInner>>);

impl SpillKillSwitch {
    /// A disarmed switch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the switch to fire after `after` more record appends
    /// (counted across all subsequent segment writes sharing this
    /// switch).
    pub fn arm(&self, after: u64) {
        self.0.lock().expect("kill switch poisoned").remaining = Some(after);
    }

    /// Notes one completed record append; kills the process simulation
    /// when the countdown hits zero.
    fn note_append(&self, out: &mut impl Write) {
        let mut g = self.0.lock().expect("kill switch poisoned");
        g.appends += 1;
        let fire = match g.remaining.as_mut() {
            Some(rem) => {
                *rem = rem.saturating_sub(1);
                *rem == 0
            }
            None => false,
        };
        if fire {
            g.remaining = None;
            let appends = g.appends;
            drop(g);
            // A real SIGKILL can land mid-`write(2)`: leave a torn,
            // checksummed-looking tail with no newline.
            let _ = out.write_all(CRC_PREFIX.as_bytes());
            let _ = out.write_all(b"dead");
            let _ = out.flush();
            std::panic::panic_any(JournalKilled {
                appends,
                kind: FaultKind::JournalKill,
            });
        }
    }
}

// ---------------------------------------------------------------------
// Segment I/O
// ---------------------------------------------------------------------

/// Writes `events` as one segment at `path` (truncating any previous
/// content) and returns the bytes written. Failures — I/O or an
/// uncodable event — come back as a typed [`SpillError`] so the
/// budgeted sink can abort the unit gracefully. With an armed
/// `kill`, the write may instead panic with [`JournalKilled`] partway
/// through, leaving a torn tail for [`recover_segment`].
pub fn write_segment<'a, I>(
    path: &Path,
    events: I,
    kill: Option<&SpillKillSwitch>,
) -> Result<u64, SpillError>
where
    I: IntoIterator<Item = &'a TraceEvent>,
{
    let mut out = BufWriter::new(File::create(path)?);
    let mut bytes = 0u64;
    for ev in events {
        let line = format_line(ev)?;
        out.write_all(line.as_bytes())?;
        bytes += line.len() as u64;
        if let Some(k) = kill {
            k.note_append(&mut out);
        }
    }
    out.flush()?;
    Ok(bytes)
}

/// Streams a segment back into `sink` in write order, verifying every
/// record's checksum. Returns the number of events replayed. Unlike
/// [`recover_segment`], any damage is an error: replay only runs on a
/// segment this same unit just wrote, so corruption means the disk
/// lied and the unit must abort rather than silently drop events.
pub fn replay_segment<S: TraceSink + ?Sized>(path: &Path, sink: &mut S) -> io::Result<u64> {
    let mut rd = BufReader::new(File::open(path)?);
    let mut line = Vec::new();
    let mut n = 0u64;
    loop {
        line.clear();
        if rd.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let ev = parse_line(line.strip_suffix(b"\n").unwrap_or(&line)).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt spill record {n} in {}", path.display()),
            )
        })?;
        sink.on_event_owned(ev);
        n += 1;
    }
    Ok(n)
}

/// What [`recover_segment`] found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentRecovery {
    /// Intact records before the first damage.
    pub valid_events: u64,
    /// Whether a torn/corrupt tail was found (and truncated away).
    pub torn: bool,
    /// Bytes discarded by the truncation.
    pub discarded_bytes: u64,
}

/// Scans a segment left over from a killed run and truncates everything
/// from the first damaged record onward, restoring the
/// every-line-is-valid invariant — the same torn-tail discipline the
/// campaign journal applies on reopen.
pub fn recover_segment(path: &Path) -> io::Result<SegmentRecovery> {
    let data = std::fs::read(path)?;
    let (valid, end) = valid_prefix(&data, |line| parse_line(line).map(drop));
    let torn = end < data.len();
    if torn {
        OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(end as u64)?;
    }
    Ok(SegmentRecovery {
        valid_events: valid.len() as u64,
        torn,
        discarded_bytes: (data.len() - end) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_vm::VecSink;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    fn sample_events() -> Vec<TraceEvent> {
        let stack: owl_vm::CallStack = Arc::from(
            vec![
                InstRef::new(FuncId(1), InstId(2)),
                InstRef::new(FuncId(3), InstId(4)),
            ]
            .into_boxed_slice(),
        );
        let kinds = vec![
            EventKind::Read {
                addr: 0x1000,
                value: -7,
                ty: Type::Ptr,
                atomic: false,
            },
            EventKind::Write {
                addr: 0x1001,
                value: i64::MIN,
                old: i64::MAX,
                atomic: true,
            },
            EventKind::Lock { addr: 0x2000 },
            EventKind::Unlock { addr: 0x2000 },
            EventKind::Fork {
                child: ThreadId(3),
            },
            EventKind::Join {
                child: ThreadId(3),
            },
            EventKind::Malloc {
                addr: 0x1000_0000,
                size: 16,
            },
            EventKind::Free { addr: 0x1000_0000 },
            EventKind::Fault {
                kind: FaultKind::SpuriousWakeup,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                step: i as u64 * 17,
                tid: ThreadId(i as u32 % 3),
                site: InstRef::new(FuncId(i as u32), InstId(9)),
                stack: stack.clone(),
                kind,
                no_shadow: i % 2 == 0,
            })
            .collect()
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("owl-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn segment_roundtrips_every_event_kind() {
        let events = sample_events();
        let path = scratch("roundtrip.seg");
        let bytes = write_segment(&path, &events, None).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let mut sink = VecSink::default();
        let n = replay_segment(&path, &mut sink).unwrap();
        assert_eq!(n, events.len() as u64);
        assert_eq!(sink.events, events);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_truncates_torn_tail_and_replay_succeeds_after() {
        let events = sample_events();
        let path = scratch("torn.seg");
        write_segment(&path, &events, None).unwrap();
        // Simulate a crash mid-append: a prefix of a new record with no
        // terminator.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"crc\":\"0123").unwrap();
        }
        let mut sink = VecSink::default();
        assert!(replay_segment(&path, &mut sink).is_err(), "torn tail must not replay");
        let rec = recover_segment(&path).unwrap();
        assert!(rec.torn);
        assert_eq!(rec.valid_events, events.len() as u64);
        assert_eq!(rec.discarded_bytes, 12);
        // Idempotent: a second scan finds a clean file.
        let rec2 = recover_segment(&path).unwrap();
        assert_eq!(
            rec2,
            SegmentRecovery {
                valid_events: events.len() as u64,
                torn: false,
                discarded_bytes: 0
            }
        );
        let mut sink = VecSink::default();
        assert_eq!(replay_segment(&path, &mut sink).unwrap(), events.len() as u64);
        assert_eq!(sink.events, events);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_recovery_at_damage() {
        let events = sample_events();
        let path = scratch("crc.seg");
        write_segment(&path, &events, None).unwrap();
        // Flip one payload byte of the second record.
        let mut data = std::fs::read(&path).unwrap();
        let first_nl = data.iter().position(|&b| b == b'\n').unwrap();
        let hit = first_nl + 30;
        data[hit] = if data[hit] == b'a' { b'b' } else { b'a' };
        std::fs::write(&path, &data).unwrap();
        let rec = recover_segment(&path).unwrap();
        assert!(rec.torn);
        assert_eq!(rec.valid_events, 1, "only the first record survives");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kill_switch_leaves_torn_segment_and_journal_killed_payload() {
        let events = sample_events();
        let path = scratch("kill.seg");
        let kill = SpillKillSwitch::new();
        kill.arm(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _ = write_segment(&path, &events, Some(&kill));
        }))
        .expect_err("armed switch must fire");
        let killed = err
            .downcast_ref::<JournalKilled>()
            .expect("JournalKilled payload");
        assert_eq!(killed.appends, 2);
        assert_eq!(killed.kind, FaultKind::JournalKill);
        let rec = recover_segment(&path).unwrap();
        assert!(rec.torn, "kill must leave a torn tail");
        assert_eq!(rec.valid_events, 2);
        let mut sink = VecSink::default();
        assert_eq!(replay_segment(&path, &mut sink).unwrap(), 2);
        assert_eq!(sink.events, events[..2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stack_too_deep_is_a_typed_error_not_a_panic() {
        let events = sample_events(); // every sample carries 2 frames
        let err = encode_event_limited(&events[0], 1).expect_err("2 frames over a limit of 1");
        assert!(matches!(err, SpillError::StackTooDeep { frames: 2 }), "{err:?}");
        assert!(err.to_string().contains("2 frames"), "{err}");
        assert!(std::error::Error::source(&err).is_none());
        assert!(encode_event(&events[0]).is_ok(), "real limit is u32::MAX");
    }

    #[test]
    fn write_segment_surfaces_io_failure_as_spill_error() {
        let events = sample_events();
        let missing = scratch("no-such-dir").join("seg");
        let err = write_segment(&missing, &events, None).expect_err("parent dir absent");
        assert!(matches!(err, SpillError::Io(_)), "{err:?}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn approx_bytes_counts_stack_share() {
        let events = sample_events();
        let base = approx_event_bytes(&TraceEvent {
            stack: Arc::from(vec![].into_boxed_slice()),
            ..events[0].clone()
        });
        assert_eq!(
            approx_event_bytes(&events[0]),
            base + 2 * std::mem::size_of::<InstRef>()
        );
    }

    fn kind_strategy() -> impl Strategy<Value = EventKind> {
        prop_oneof![
            (any::<u64>(), any::<i64>(), 0u8..3, any::<bool>()).prop_map(
                |(addr, value, ty, atomic)| EventKind::Read {
                    addr,
                    value,
                    ty: decode_type(ty).expect("type tag in range"),
                    atomic,
                }
            ),
            (any::<u64>(), any::<i64>(), any::<i64>(), any::<bool>()).prop_map(
                |(addr, value, old, atomic)| EventKind::Write {
                    addr,
                    value,
                    old,
                    atomic,
                }
            ),
            any::<u64>().prop_map(|addr| EventKind::Lock { addr }),
            any::<u64>().prop_map(|addr| EventKind::Unlock { addr }),
            any::<u32>().prop_map(|c| EventKind::Fork { child: ThreadId(c) }),
            any::<u32>().prop_map(|c| EventKind::Join { child: ThreadId(c) }),
            (any::<u64>(), any::<u64>()).prop_map(|(addr, size)| EventKind::Malloc { addr, size }),
            any::<u64>().prop_map(|addr| EventKind::Free { addr }),
            (0u8..6).prop_map(|k| EventKind::Fault {
                kind: decode_fault(k).expect("fault tag in range"),
            }),
        ]
    }

    fn site((f, i): (u32, u32)) -> InstRef {
        InstRef::new(FuncId(f), InstId(i))
    }

    /// Arbitrary events of every kind, with stacks of 0 to
    /// `max_frames` frames.
    fn event_strategy(max_frames: usize) -> impl Strategy<Value = TraceEvent> {
        (
            any::<u64>(),
            any::<u32>(),
            (any::<u32>(), any::<u32>()),
            any::<bool>(),
            kind_strategy(),
            prop::collection::vec((any::<u32>(), any::<u32>()), 0..=max_frames),
        )
            .prop_map(|(step, tid, at, no_shadow, kind, frames)| TraceEvent {
                step,
                tid: ThreadId(tid),
                site: site(at),
                stack: Arc::from(frames.into_iter().map(site).collect::<Vec<_>>()),
                kind,
                no_shadow,
            })
    }

    /// Recovers the segment at `path`, then replays what recovery
    /// kept; returns both views of the surviving events.
    fn recover_then_replay(path: &Path) -> (SegmentRecovery, Vec<TraceEvent>) {
        let rec = recover_segment(path).expect("recovery reads the segment");
        let mut sink = VecSink::default();
        let n = replay_segment(path, &mut sink).expect("a recovered segment replays");
        assert_eq!(n, rec.valid_events);
        (rec, sink.events)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn format_line_parse_line_roundtrips(ev in event_strategy(64)) {
            let line = format_line(&ev).expect("at most 64 frames encode");
            prop_assert_eq!(line.matches('\n').count(), 1);
            let body = line.strip_suffix('\n').expect("one record per line");
            prop_assert_eq!(parse_line(body.as_bytes()), Some(ev));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes after `events.len()` intact records: recovery
        /// keeps exactly the intact records, and the recovered segment
        /// replays them.
        #[test]
        fn arbitrary_bytes_never_panic(
            events in prop::collection::vec(event_strategy(4), 0..3),
            garbage in prop::collection::vec(any::<u8>(), 1..256),
        ) {
            let path = scratch("garbage.seg");
            write_segment(&path, &events, None).expect("segment writes");
            let mut data = std::fs::read(&path).expect("segment reads");
            data.extend_from_slice(&garbage);
            std::fs::write(&path, &data).expect("segment rewrites");
            prop_assert!(parse_line(&garbage).is_none());
            let (rec, replayed) = recover_then_replay(&path);
            prop_assert_eq!(rec.valid_events, events.len() as u64);
            prop_assert!(rec.torn);
            prop_assert_eq!(rec.discarded_bytes, garbage.len() as u64);
            prop_assert_eq!(replayed, events);
            std::fs::remove_file(&path).expect("segment removes");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Every single-bit flip of a written segment: recovery keeps
        /// exactly the lines before the flipped one, and the recovered
        /// segment replays exactly their events.
        #[test]
        fn every_bit_flip_keeps_the_lines_before_it(
            events in prop::collection::vec(event_strategy(4), 1..4),
        ) {
            let path = scratch("flip.seg");
            write_segment(&path, &events, None).expect("segment writes");
            let clean = std::fs::read(&path).expect("segment reads");
            for byte in 0..clean.len() {
                let line = clean[..byte].iter().filter(|&&b| b == b'\n').count();
                for bit in 0..8 {
                    let mut data = clean.clone();
                    data[byte] ^= 1 << bit;
                    std::fs::write(&path, &data).expect("segment rewrites");
                    let (rec, replayed) = recover_then_replay(&path);
                    prop_assert!(rec.torn, "byte {byte} bit {bit}");
                    prop_assert_eq!(rec.valid_events, line as u64, "byte {byte} bit {bit}");
                    prop_assert_eq!(&replayed[..], &events[..line]);
                }
            }
            std::fs::remove_file(&path).expect("segment removes");
        }
    }
}
