//! The read side of the telemetry trace: spans and invariants.
//!
//! [`telemetry`](crate::telemetry) is write-only — it serializes the
//! causal chain as JSONL and stops there. This module turns the stream
//! back into structure:
//!
//! * [`parse_jsonl`] decodes a trace (hand-rolled flat-JSON decoder, so
//!   `simcore` stays dependency-free) back into [`TracedEvent`]s,
//! * [`SpanCollector`] pairs events into causal [`Span`]s by correlation
//!   id — read/write sessions, copy streams, Condor task lifecycles
//!   (queued → dispatched → retries → finished) and per-file elastic
//!   episodes (boost → shed, encode → decode) — and keeps the per-file
//!   data-class transition timeline,
//! * [`oracle::TraceOracle`] checks the stream event-by-event against
//!   the system's own rules (liveness, replication bounds, RS layout,
//!   verdict/action causality, sequence monotonicity).
//!
//! Everything here is deterministic: reports iterate sorted maps and
//! percentiles come from exact sorted-duration ranks, so two same-seed
//! traces summarize byte-identically.
//!
//! ```
//! use simcore::spans::{parse_jsonl, SpanCollector, SpanKind};
//! use simcore::telemetry::{Event, TelemetrySink};
//! use simcore::{trace, SimTime};
//!
//! let sink = TelemetrySink::recording();
//! trace!(sink, SimTime::from_secs(1), Event::ReadStarted {
//!     read: 0,
//!     path: "/hot/a".into(),
//! });
//! trace!(sink, SimTime::from_secs(3), Event::ReadFinished {
//!     read: 0,
//!     path: "/hot/a".into(),
//!     bytes: 64,
//!     failed: false,
//! });
//! let events = parse_jsonl(&sink.drain_jsonl()).unwrap();
//! let report = SpanCollector::collect(&events);
//! assert_eq!(report.count(SpanKind::Read), 1);
//! assert_eq!(report.latency(SpanKind::Read).p50, 2.0);
//! ```

pub mod oracle;

use crate::telemetry::{Event, TracedEvent};
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;

// ---------------------------------------------------------------------
// JSONL decoding

/// A malformed line in a JSONL trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number within the input.
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A well-formed trace line whose event kind this build does not know —
/// skipped by the lenient parser so older tools survive newer traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedLine {
    /// 1-based line number within the input.
    pub line: usize,
    /// The unrecognized `"ev"` tag.
    pub kind: String,
}

/// Decode a JSONL trace (as produced by
/// [`TelemetrySink::drain_jsonl`](crate::telemetry::TelemetrySink::drain_jsonl))
/// back into events. Empty lines are skipped. Malformed lines — bad
/// JSON, or a *known* event kind with missing fields — are errors (the
/// trace format is ours, so that leniency would only hide emitter
/// bugs); a well-formed line with an *unknown* kind is silently skipped
/// so an older build keeps working on traces that carry newer event
/// vocabulary. Use [`parse_jsonl_lenient`] to learn what was skipped.
pub fn parse_jsonl(input: &str) -> Result<Vec<TracedEvent>, ParseError> {
    parse_jsonl_lenient(input).map(|(events, _)| events)
}

/// Like [`parse_jsonl`], but also reports the unknown-kind lines it
/// skipped so callers (e.g. `trace-tools`) can warn about them. The
/// oracle's sequence invariant requires strictly *increasing* `seq`,
/// not contiguous, so a trace with skipped lines still checks clean.
pub fn parse_jsonl_lenient(
    input: &str,
) -> Result<(Vec<TracedEvent>, Vec<SkippedLine>), ParseError> {
    let mut out = Vec::new();
    let mut skipped = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(ParsedLine::Event(ev)) => out.push(ev),
            Ok(ParsedLine::UnknownKind(kind)) => skipped.push(SkippedLine {
                line: idx + 1,
                kind,
            }),
            Err(message) => {
                return Err(ParseError {
                    line: idx + 1,
                    message,
                })
            }
        }
    }
    Ok((out, skipped))
}

/// One decoded scalar JSON value (the trace encoding is flat).
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    UInt(u64),
    Num(f64),
    Bool(bool),
    Null,
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Cursor {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.bump() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                want as char,
                self.pos.saturating_sub(1),
                other.map(|b| b as char)
            )),
        }
    }

    /// Parse a JSON string; the cursor sits on the opening quote.
    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit '{}'", d as char))?;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid \\u{code:04x} escape"))?,
                        );
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                // multi-byte UTF-8 sequences pass through untouched
                Some(b) => {
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = utf8_len(b)?;
                        let end = start + len;
                        let chunk = self
                            .bytes
                            .get(start..end)
                            .ok_or("truncated UTF-8 sequence")?;
                        out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn parse_scalar(&mut self) -> Result<Scalar, String> {
        match self.peek() {
            Some(b'"') => Ok(Scalar::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Scalar::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Scalar::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Scalar::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                while self.peek().is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
                if text.bytes().all(|b| b.is_ascii_digit()) {
                    if let Ok(v) = text.parse::<u64>() {
                        return Ok(Scalar::UInt(v));
                    }
                }
                text.parse::<f64>()
                    .map(Scalar::Num)
                    .map_err(|_| format!("bad number '{text}'"))
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Scalar) -> Result<Scalar, String> {
        for want in word.bytes() {
            if self.bump() != Some(want) {
                return Err(format!("bad literal (expected '{word}')"));
            }
        }
        Ok(value)
    }
}

fn utf8_len(lead: u8) -> Result<usize, String> {
    match lead {
        0xC0..=0xDF => Ok(2),
        0xE0..=0xEF => Ok(3),
        0xF0..=0xF7 => Ok(4),
        _ => Err(format!("invalid UTF-8 lead byte {lead:#x}")),
    }
}

/// The decoded key/value pairs of one trace line.
struct Obj(Vec<(String, Scalar)>);

impl Obj {
    fn get(&self, key: &str) -> Option<&Scalar> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(Scalar::UInt(v)) => Ok(*v),
            _ => Err(format!("field `{key}` missing or not an unsigned integer")),
        }
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.u64(key)?).map_err(|_| format!("field `{key}` exceeds u32"))
    }

    fn opt_u32(&self, key: &str) -> Result<Option<u32>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => Ok(Some(self.u32(key)?)),
        }
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Scalar::Num(v)) => Ok(*v),
            Some(Scalar::UInt(v)) => Ok(*v as f64),
            // non-finite floats serialize as null
            Some(Scalar::Null) => Ok(f64::NAN),
            _ => Err(format!("field `{key}` missing or not a number")),
        }
    }

    fn str(&self, key: &str) -> Result<String, String> {
        match self.get(key) {
            Some(Scalar::Str(v)) => Ok(v.clone()),
            _ => Err(format!("field `{key}` missing or not a string")),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Scalar::Bool(v)) => Ok(*v),
            _ => Err(format!("field `{key}` missing or not a bool")),
        }
    }
}

/// One decoded trace line: an event, or a structurally valid line whose
/// kind this build does not recognize.
enum ParsedLine {
    Event(TracedEvent),
    UnknownKind(String),
}

fn parse_line(line: &str) -> Result<ParsedLine, String> {
    let mut cur = Cursor::new(line.trim());
    cur.expect(b'{')?;
    let mut fields = Vec::new();
    if cur.peek() != Some(b'}') {
        loop {
            let key = cur.parse_string()?;
            cur.expect(b':')?;
            let value = cur.parse_scalar()?;
            fields.push((key, value));
            match cur.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    } else {
        cur.bump();
    }
    if cur.peek().is_some() {
        return Err("trailing bytes after object".into());
    }
    let obj = Obj(fields);
    let kind = obj.str("ev")?;
    // the envelope must still decode, so a skipped line is provably a
    // trace line (and not arbitrary garbage hiding behind leniency)
    let time = SimTime::from_nanos(obj.u64("t_ns")?);
    let seq = obj.u64("seq")?;
    match event_from(&kind, &obj).map_err(|e| format!("{kind}: {e}"))? {
        Some(event) => Ok(ParsedLine::Event(TracedEvent { time, seq, event })),
        None => Ok(ParsedLine::UnknownKind(kind)),
    }
}

/// Decode the typed event for `kind`; `Ok(None)` when the kind is not
/// in this build's vocabulary (the lenient parser skips such lines).
fn event_from(kind: &str, o: &Obj) -> Result<Option<Event>, String> {
    let ev = match kind {
        "read_started" => Event::ReadStarted {
            read: o.u64("read")?,
            path: o.str("path")?,
        },
        "read_finished" => Event::ReadFinished {
            read: o.u64("read")?,
            path: o.str("path")?,
            bytes: o.u64("bytes")?,
            failed: o.bool("failed")?,
        },
        "write_started" => Event::WriteStarted {
            write: o.u64("write")?,
            path: o.str("path")?,
            replication: o.u32("replication")?,
        },
        "write_finished" => Event::WriteFinished {
            write: o.u64("write")?,
            path: o.str("path")?,
            bytes: o.u64("bytes")?,
            failed: o.bool("failed")?,
        },
        "copy_dispatched" => Event::CopyDispatched {
            copy: o.u64("copy")?,
            block: o.u64("block")?,
            source: o.u32("source")?,
            target: o.u32("target")?,
        },
        "reconstruct_dispatched" => Event::ReconstructDispatched {
            copy: o.u64("copy")?,
            block: o.u64("block")?,
            sources: o.u64("sources")?,
            target: o.u32("target")?,
        },
        "copy_completed" => Event::CopyCompleted {
            copy: o.u64("copy")?,
            block: o.u64("block")?,
            target: o.u32("target")?,
        },
        "fault_applied" => Event::FaultApplied {
            kind: o.str("kind")?,
            node: o.opt_u32("node")?,
            rack: o.opt_u32("rack")?,
        },
        "repair_scan" => Event::RepairScan {
            under_replicated: o.u64("under_replicated")?,
            over_replicated: o.u64("over_replicated")?,
            dark_shards: o.u64("dark_shards")?,
        },
        "corruption_injected" => Event::CorruptionInjected {
            block: o.u64("block")?,
            node: o.u32("node")?,
            kind: o.str("kind")?,
        },
        "corruption_detected" => Event::CorruptionDetected {
            block: o.u64("block")?,
            node: o.u32("node")?,
            via: o.str("via")?,
        },
        "corrupt_quarantined" => Event::CorruptQuarantined {
            block: o.u64("block")?,
            node: o.u32("node")?,
        },
        "corrupt_repaired" => Event::CorruptRepaired {
            block: o.u64("block")?,
            via: o.str("via")?,
        },
        "scrub_progress" => Event::ScrubProgress {
            scanned: o.u64("scanned")?,
            cursor: o.u64("cursor")?,
            found: o.u64("found")?,
        },
        "data_loss" => Event::DataLoss {
            block: o.u64("block")?,
            live_replicas: o.u64("live_replicas")?,
            clean_retained: o.u64("clean_retained")?,
        },
        "window_emit" => Event::WindowEmit {
            query: o.str("query")?,
            group: o.str("group")?,
            value: o.f64("value")?,
        },
        "verdict" => Event::Verdict {
            path: o.str("path")?,
            verdict: o.str("verdict")?,
            file_sessions: o.f64("file_sessions")?,
            max_block_sessions: o.f64("max_block_sessions")?,
            replicas: o.u32("replicas")?,
        },
        "replication_boost" => Event::ReplicationBoost {
            path: o.str("path")?,
            from: o.u32("from")?,
            to: o.u32("to")?,
            sessions: o.f64("sessions")?,
        },
        "replication_shed" => Event::ReplicationShed {
            path: o.str("path")?,
            from: o.u32("from")?,
            to: o.u32("to")?,
        },
        "encode_cold" => Event::EncodeCold {
            path: o.str("path")?,
            stripes: o.u32("stripes")?,
            parities: o.u32("parities")?,
        },
        "decode_cold" => Event::DecodeCold {
            path: o.str("path")?,
        },
        "self_heal" => Event::SelfHeal {
            action: o.str("action")?,
            detail: o.str("detail")?,
        },
        "standby_power" => Event::StandbyPower {
            node: o.u32("node")?,
            on: o.bool("on")?,
        },
        "task_queued" => Event::TaskQueued {
            job: o.u64("job")?,
            priority: o.str("priority")?,
        },
        "task_dispatched" => Event::TaskDispatched {
            job: o.u64("job")?,
            attempt: o.u32("attempt")?,
        },
        "task_retry" => Event::TaskRetry {
            job: o.u64("job")?,
            attempt: o.u32("attempt")?,
            delay_ns: o.u64("delay_ns")?,
        },
        "task_finished" => Event::TaskFinished {
            job: o.u64("job")?,
            ok: o.bool("ok")?,
        },
        _ => return Ok(None),
    };
    Ok(Some(ev))
}

// ---------------------------------------------------------------------
// Spans

/// The causal span families reconstructed from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// `read_started` → `read_finished`, keyed by read id.
    Read,
    /// `write_started` → `write_finished`, keyed by write id.
    Write,
    /// `copy_dispatched` → `copy_completed`, keyed by copy id — retried
    /// repairs of the same `(block, target)` are distinct spans.
    Copy,
    /// `task_queued` → `task_finished`, keyed by job id; dispatches and
    /// retries in between fold into the span's event count.
    Task,
    /// A per-file elastic episode: `replication_boost` → matching
    /// `replication_shed`, or `encode_cold` → `decode_cold`.
    Episode,
}

impl SpanKind {
    pub const ALL: [SpanKind; 5] = [
        SpanKind::Read,
        SpanKind::Write,
        SpanKind::Copy,
        SpanKind::Task,
        SpanKind::Episode,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Read => "read",
            SpanKind::Write => "write",
            SpanKind::Copy => "copy",
            SpanKind::Task => "task",
            SpanKind::Episode => "episode",
        }
    }
}

/// One reconstructed causal span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub kind: SpanKind,
    /// Stable identity, e.g. `read:12`, `copy:3`, `boost:/hot/a`.
    pub key: String,
    pub start: SimTime,
    pub end: SimTime,
    /// `false` when the closing event reported failure.
    pub ok: bool,
    /// Events folded into the span (a task span counts its dispatches
    /// and retries; a repeated boost extends the open episode).
    pub events: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end.since(self.start).as_secs_f64()
    }
}

/// Exact latency statistics over the completed spans of one kind.
///
/// Percentiles are nearest-rank over the sorted durations (no
/// interpolation), so they are a pure function of the span set and
/// byte-stable across same-seed runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    pub count: u64,
    pub failed: u64,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    start: SimTime,
    events: u32,
}

/// Streaming span reconstruction over a trace.
///
/// Feed events in order via [`SpanCollector::observe`] (live, from a
/// sink drain, or from [`parse_jsonl`]) and call
/// [`SpanCollector::finish`] for the report. The collector is lenient —
/// unmatched closings are dropped and duplicate openings overwrite —
/// because flagging those is the [`oracle`]'s job.
#[derive(Debug, Default)]
pub struct SpanCollector {
    open_reads: BTreeMap<u64, OpenSpan>,
    open_writes: BTreeMap<u64, OpenSpan>,
    open_copies: BTreeMap<u64, OpenSpan>,
    open_tasks: BTreeMap<u64, OpenSpan>,
    open_boosts: BTreeMap<String, OpenSpan>,
    open_encodes: BTreeMap<String, OpenSpan>,
    spans: Vec<Span>,
    event_counts: BTreeMap<&'static str, u64>,
    transitions: BTreeMap<String, Vec<(SimTime, String)>>,
    first: Option<SimTime>,
    last: SimTime,
    events: u64,
}

impl SpanCollector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstruct spans from a complete trace in one call.
    pub fn collect(events: &[TracedEvent]) -> SpanReport {
        let mut c = SpanCollector::new();
        for ev in events {
            c.observe(ev);
        }
        c.finish()
    }

    pub fn observe(&mut self, ev: &TracedEvent) {
        self.events += 1;
        self.first.get_or_insert(ev.time);
        self.last = self.last.max(ev.time);
        *self.event_counts.entry(ev.event.kind()).or_insert(0) += 1;
        let t = ev.time;
        match &ev.event {
            Event::ReadStarted { read, .. } => {
                self.open_reads.insert(
                    *read,
                    OpenSpan {
                        start: t,
                        events: 1,
                    },
                );
            }
            Event::ReadFinished { read, failed, .. } => {
                if let Some(o) = self.open_reads.remove(read) {
                    self.close(SpanKind::Read, format!("read:{read}"), o, t, !failed);
                }
            }
            Event::WriteStarted { write, .. } => {
                self.open_writes.insert(
                    *write,
                    OpenSpan {
                        start: t,
                        events: 1,
                    },
                );
            }
            Event::WriteFinished { write, failed, .. } => {
                if let Some(o) = self.open_writes.remove(write) {
                    self.close(SpanKind::Write, format!("write:{write}"), o, t, !failed);
                }
            }
            Event::CopyDispatched { copy, .. } => {
                self.open_copies.insert(
                    *copy,
                    OpenSpan {
                        start: t,
                        events: 1,
                    },
                );
            }
            Event::CopyCompleted { copy, .. } => {
                if let Some(o) = self.open_copies.remove(copy) {
                    self.close(SpanKind::Copy, format!("copy:{copy}"), o, t, true);
                }
            }
            Event::TaskQueued { job, .. } => {
                self.open_tasks.insert(
                    *job,
                    OpenSpan {
                        start: t,
                        events: 1,
                    },
                );
            }
            Event::TaskDispatched { job, .. } | Event::TaskRetry { job, .. } => {
                if let Some(o) = self.open_tasks.get_mut(job) {
                    o.events += 1;
                }
            }
            Event::TaskFinished { job, ok } => {
                if let Some(o) = self.open_tasks.remove(job) {
                    self.close(SpanKind::Task, format!("task:{job}"), o, t, *ok);
                }
            }
            Event::Verdict { path, verdict, .. } => {
                let timeline = self.transitions.entry(path.clone()).or_default();
                if timeline.last().map(|(_, v)| v.as_str()) != Some(verdict.as_str()) {
                    timeline.push((t, verdict.clone()));
                }
            }
            Event::ReplicationBoost { path, .. } => {
                match self.open_boosts.get_mut(path) {
                    // a re-boost extends the episode already in flight
                    Some(o) => o.events += 1,
                    None => {
                        self.open_boosts.insert(
                            path.clone(),
                            OpenSpan {
                                start: t,
                                events: 1,
                            },
                        );
                    }
                }
            }
            Event::ReplicationShed { path, .. } => {
                if let Some(o) = self.open_boosts.remove(path) {
                    self.close(SpanKind::Episode, format!("boost:{path}"), o, t, true);
                }
            }
            Event::EncodeCold { path, .. } => {
                self.open_encodes.insert(
                    path.clone(),
                    OpenSpan {
                        start: t,
                        events: 1,
                    },
                );
            }
            Event::DecodeCold { path } => {
                if let Some(o) = self.open_encodes.remove(path) {
                    self.close(SpanKind::Episode, format!("encoded:{path}"), o, t, true);
                }
            }
            _ => {}
        }
    }

    fn close(&mut self, kind: SpanKind, key: String, open: OpenSpan, end: SimTime, ok: bool) {
        self.spans.push(Span {
            kind,
            key,
            start: open.start,
            end,
            ok,
            events: open.events + 1,
        });
    }

    /// Finalize: completed spans stay, still-open ones are reported
    /// separately with `end` pinned to the last trace instant.
    pub fn finish(self) -> SpanReport {
        let last = self.last;
        let mut open = Vec::new();
        let by_id = [
            (SpanKind::Read, "read", self.open_reads),
            (SpanKind::Write, "write", self.open_writes),
            (SpanKind::Copy, "copy", self.open_copies),
            (SpanKind::Task, "task", self.open_tasks),
        ];
        for (kind, tag, map) in by_id {
            for (id, o) in map {
                open.push(Span {
                    kind,
                    key: format!("{tag}:{id}"),
                    start: o.start,
                    end: last,
                    ok: false,
                    events: o.events,
                });
            }
        }
        let by_path = [("boost", self.open_boosts), ("encoded", self.open_encodes)];
        for (tag, map) in by_path {
            for (path, o) in map {
                open.push(Span {
                    kind: SpanKind::Episode,
                    key: format!("{tag}:{path}"),
                    start: o.start,
                    end: last,
                    ok: false,
                    events: o.events,
                });
            }
        }
        SpanReport {
            spans: self.spans,
            open,
            event_counts: self.event_counts,
            transitions: self.transitions,
            first: self.first.unwrap_or(SimTime::ZERO),
            last,
            events: self.events,
        }
    }
}

/// Everything [`SpanCollector`] reconstructed from one trace.
#[derive(Debug, Clone, Default)]
pub struct SpanReport {
    /// Completed spans, in completion order.
    pub spans: Vec<Span>,
    /// Spans still open when the trace ended (`ok == false`, `end` is
    /// the last trace instant), sorted by kind then key.
    pub open: Vec<Span>,
    /// Per-event-kind occurrence counts, lexicographic by kind.
    pub event_counts: BTreeMap<&'static str, u64>,
    /// Per-file data-class timeline: the verdict stream deduplicated to
    /// its transitions, e.g. `normal → hot → cooled → normal`.
    pub transitions: BTreeMap<String, Vec<(SimTime, String)>>,
    /// First and last event instants (both `ZERO` on an empty trace).
    pub first: SimTime,
    pub last: SimTime,
    /// Total events observed.
    pub events: u64,
}

impl SpanReport {
    /// Completed spans of `kind`.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    /// Exact nearest-rank latency summary over completed spans of `kind`.
    pub fn latency(&self, kind: SpanKind) -> LatencySummary {
        let mut nanos: Vec<u64> = Vec::new();
        let mut failed = 0u64;
        let mut sum = 0.0f64;
        for s in self.spans.iter().filter(|s| s.kind == kind) {
            let d = s.end.since(s.start).as_nanos();
            nanos.push(d);
            sum += d as f64 / 1e9;
            if !s.ok {
                failed += 1;
            }
        }
        if nanos.is_empty() {
            return LatencySummary::default();
        }
        nanos.sort_unstable();
        let secs = |q: f64| -> f64 {
            let rank = ((q * nanos.len() as f64).ceil() as usize).clamp(1, nanos.len());
            nanos[rank - 1] as f64 / 1e9
        };
        LatencySummary {
            count: nanos.len() as u64,
            failed,
            mean: sum / nanos.len() as f64,
            p50: secs(0.50),
            p95: secs(0.95),
            p99: secs(0.99),
            max: *nanos.last().expect("non-empty") as f64 / 1e9,
        }
    }

    /// The `n` files with the most data-class transitions, ranked by
    /// transition count (desc) then path — the "hottest" files in the
    /// elastic sense.
    pub fn hottest_files(&self, n: usize) -> Vec<(&str, &[(SimTime, String)])> {
        let mut ranked: Vec<(&str, &[(SimTime, String)])> = self
            .transitions
            .iter()
            .map(|(p, t)| (p.as_str(), t.as_slice()))
            .collect();
        ranked.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));
        ranked.truncate(n);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetrySink;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn traced(seq: u64, secs: u64, event: Event) -> TracedEvent {
        TracedEvent {
            time: t(secs),
            seq,
            event,
        }
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let sink = TelemetrySink::recording();
        let all = vec![
            Event::ReadStarted {
                read: 1,
                path: "/a \"q\"\n\u{1}".into(),
            },
            Event::ReadFinished {
                read: 1,
                path: "/α/β".into(),
                bytes: 7,
                failed: true,
            },
            Event::WriteStarted {
                write: 2,
                path: "/w".into(),
                replication: 3,
            },
            Event::WriteFinished {
                write: 2,
                path: "/w".into(),
                bytes: 9,
                failed: false,
            },
            Event::CopyDispatched {
                copy: 3,
                block: 40,
                source: 1,
                target: 2,
            },
            Event::CopyCompleted {
                copy: 3,
                block: 40,
                target: 2,
            },
            Event::FaultApplied {
                kind: "crash".into(),
                node: Some(4),
                rack: None,
            },
            Event::FaultApplied {
                kind: "rack_outage".into(),
                node: None,
                rack: Some(1),
            },
            Event::RepairScan {
                under_replicated: 1,
                over_replicated: 2,
                dark_shards: 3,
            },
            Event::CorruptionInjected {
                block: 40,
                node: 4,
                kind: "torn_write".into(),
            },
            Event::CorruptionDetected {
                block: 40,
                node: 4,
                via: "scrub".into(),
            },
            Event::CorruptQuarantined { block: 40, node: 4 },
            Event::CorruptRepaired {
                block: 40,
                via: "reconstruct".into(),
            },
            Event::ScrubProgress {
                scanned: 16,
                cursor: 41,
                found: 1,
            },
            Event::DataLoss {
                block: 40,
                live_replicas: 0,
                clean_retained: 0,
            },
            Event::WindowEmit {
                query: "q".into(),
                group: "g".into(),
                value: 1.25,
            },
            Event::Verdict {
                path: "/v".into(),
                verdict: "hot".into(),
                file_sessions: 10.5,
                max_block_sessions: 3.0,
                replicas: 3,
            },
            Event::ReplicationBoost {
                path: "/v".into(),
                from: 3,
                to: 6,
                sessions: 10.5,
            },
            Event::ReplicationShed {
                path: "/v".into(),
                from: 6,
                to: 3,
            },
            Event::EncodeCold {
                path: "/c".into(),
                stripes: 2,
                parities: 8,
            },
            Event::DecodeCold { path: "/c".into() },
            Event::SelfHeal {
                action: "evict".into(),
                detail: "n3".into(),
            },
            Event::StandbyPower { node: 9, on: true },
            Event::TaskQueued {
                job: 5,
                priority: "immediate".into(),
            },
            Event::TaskDispatched { job: 5, attempt: 1 },
            Event::TaskRetry {
                job: 5,
                attempt: 1,
                delay_ns: 1_000,
            },
            Event::TaskFinished { job: 5, ok: true },
        ];
        for (i, ev) in all.iter().enumerate() {
            sink.emit(t(i as u64), ev.clone());
        }
        let parsed = parse_jsonl(&sink.drain_jsonl()).unwrap();
        assert_eq!(parsed.len(), all.len());
        for (i, (parsed, original)) in parsed.iter().zip(&all).enumerate() {
            assert_eq!(&parsed.event, original, "event {i}");
            assert_eq!(parsed.seq, i as u64);
            assert_eq!(parsed.time, t(i as u64));
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_jsonl(
            "{\"t_ns\":0,\"seq\":0,\"ev\":\"decode_cold\",\"path\":\"/x\"}\nnot json\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);

        let err = parse_jsonl("{\"t_ns\":0,\"seq\":0,\"ev\":\"read_started\",\"path\":\"/x\"}")
            .unwrap_err();
        assert!(err.message.contains("`read`"), "missing id flagged: {err}");
    }

    #[test]
    fn unknown_event_kinds_are_skipped_not_fatal() {
        // a trace from a newer build: one event this build knows, one it
        // doesn't — the known event survives, the other is reported
        let input = "{\"t_ns\":0,\"seq\":0,\"ev\":\"decode_cold\",\"path\":\"/x\"}\n\
                     {\"t_ns\":1,\"seq\":1,\"ev\":\"quantum_heal\",\"qubits\":3}\n\
                     {\"t_ns\":2,\"seq\":2,\"ev\":\"read_started\",\"read\":7,\"path\":\"/y\"}\n";
        let (events, skipped) = parse_jsonl_lenient(input).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].seq, 2, "seq gap survives (oracle allows gaps)");
        assert_eq!(
            skipped,
            vec![SkippedLine {
                line: 2,
                kind: "quantum_heal".into()
            }]
        );
        // the plain parser drops them silently
        assert_eq!(parse_jsonl(input).unwrap().len(), 2);

        // an unknown kind still needs a valid envelope — garbage stays fatal
        let err = parse_jsonl("{\"ev\":\"mystery\"}").unwrap_err();
        assert!(err.message.contains("t_ns"), "{err}");
    }

    #[test]
    fn retried_copies_pair_by_copy_id_not_block_target() {
        // two repairs of the same (block, target): the first dies with
        // its node and never completes, the retry succeeds. Distinct
        // copy ids keep the spans from colliding.
        let events = vec![
            traced(
                0,
                10,
                Event::CopyDispatched {
                    copy: 7,
                    block: 1,
                    source: 0,
                    target: 2,
                },
            ),
            traced(
                1,
                11,
                Event::CopyDispatched {
                    copy: 8,
                    block: 1,
                    source: 3,
                    target: 2,
                },
            ),
            traced(
                2,
                15,
                Event::CopyCompleted {
                    copy: 8,
                    block: 1,
                    target: 2,
                },
            ),
        ];
        let report = SpanCollector::collect(&events);
        assert_eq!(report.count(SpanKind::Copy), 1);
        assert_eq!(report.spans[0].key, "copy:8");
        assert_eq!(
            report.spans[0].secs(),
            4.0,
            "retry measured from its own dispatch"
        );
        assert_eq!(report.open.len(), 1, "abandoned first attempt stays open");
        assert_eq!(report.open[0].key, "copy:7");
        assert!(!report.open[0].ok);
    }

    #[test]
    fn task_spans_fold_retries_and_keep_outcome() {
        let events = vec![
            traced(
                0,
                1,
                Event::TaskQueued {
                    job: 3,
                    priority: "immediate".into(),
                },
            ),
            traced(1, 2, Event::TaskDispatched { job: 3, attempt: 1 }),
            traced(
                2,
                4,
                Event::TaskRetry {
                    job: 3,
                    attempt: 1,
                    delay_ns: 5,
                },
            ),
            traced(3, 9, Event::TaskDispatched { job: 3, attempt: 2 }),
            traced(4, 12, Event::TaskFinished { job: 3, ok: false }),
        ];
        let report = SpanCollector::collect(&events);
        assert_eq!(report.count(SpanKind::Task), 1);
        let span = &report.spans[0];
        assert_eq!(span.key, "task:3");
        assert_eq!(span.secs(), 11.0, "queued at 1, finished at 12");
        assert_eq!(span.events, 5, "queued + 2 dispatches + retry + finish");
        assert!(!span.ok);
        let lat = report.latency(SpanKind::Task);
        assert_eq!(lat.count, 1);
        assert_eq!(lat.failed, 1);
        assert_eq!(lat.p99, 11.0);
    }

    #[test]
    fn elastic_episodes_span_boost_to_shed_and_encode_to_decode() {
        let events = vec![
            traced(
                0,
                5,
                Event::ReplicationBoost {
                    path: "/h".into(),
                    from: 3,
                    to: 6,
                    sessions: 9.0,
                },
            ),
            traced(
                1,
                8,
                Event::ReplicationBoost {
                    path: "/h".into(),
                    from: 6,
                    to: 8,
                    sessions: 14.0,
                },
            ),
            traced(
                2,
                65,
                Event::ReplicationShed {
                    path: "/h".into(),
                    from: 8,
                    to: 3,
                },
            ),
            traced(
                3,
                100,
                Event::EncodeCold {
                    path: "/c".into(),
                    stripes: 1,
                    parities: 4,
                },
            ),
            traced(4, 400, Event::DecodeCold { path: "/c".into() }),
        ];
        let report = SpanCollector::collect(&events);
        assert_eq!(report.count(SpanKind::Episode), 2);
        let boost = report.spans.iter().find(|s| s.key == "boost:/h").unwrap();
        assert_eq!(boost.secs(), 60.0, "episode runs from FIRST boost to shed");
        assert_eq!(boost.events, 3, "re-boost folded in");
        let encoded = report.spans.iter().find(|s| s.key == "encoded:/c").unwrap();
        assert_eq!(encoded.secs(), 300.0);
    }

    #[test]
    fn verdict_stream_dedupes_to_class_transitions() {
        let verdict = |seq, secs, class: &str| {
            traced(
                seq,
                secs,
                Event::Verdict {
                    path: "/f".into(),
                    verdict: class.into(),
                    file_sessions: 0.0,
                    max_block_sessions: 0.0,
                    replicas: 3,
                },
            )
        };
        let events = vec![
            verdict(0, 0, "normal"),
            verdict(1, 30, "normal"),
            verdict(2, 60, "hot"),
            verdict(3, 90, "hot"),
            verdict(4, 120, "cooled"),
            verdict(5, 150, "normal"),
        ];
        let report = SpanCollector::collect(&events);
        let timeline = &report.transitions["/f"];
        let classes: Vec<&str> = timeline.iter().map(|(_, c)| c.as_str()).collect();
        assert_eq!(classes, ["normal", "hot", "cooled", "normal"]);
        assert_eq!(report.hottest_files(1)[0].0, "/f");
    }

    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let mut events = Vec::new();
        // 100 reads, durations 1s..=100s
        for i in 0..100u64 {
            events.push(traced(
                2 * i,
                1000 + i,
                Event::ReadStarted {
                    read: i,
                    path: "/f".into(),
                },
            ));
            events.push(traced(
                2 * i + 1,
                1000 + i + (i + 1),
                Event::ReadFinished {
                    read: i,
                    path: "/f".into(),
                    bytes: 1,
                    failed: false,
                },
            ));
        }
        let report = SpanCollector::collect(&events);
        let lat = report.latency(SpanKind::Read);
        assert_eq!(lat.count, 100);
        assert_eq!(lat.p50, 50.0);
        assert_eq!(lat.p95, 95.0);
        assert_eq!(lat.p99, 99.0);
        assert_eq!(lat.max, 100.0);
        assert_eq!(lat.mean, 50.5);
    }

    /// A short valid trace: one line per event shape the parser
    /// distinguishes (strings with escapes, integers, floats, options,
    /// bools).
    fn sample_jsonl() -> String {
        let sink = TelemetrySink::recording();
        let events = [
            Event::ReadStarted {
                read: 1,
                path: "/a \"q\"\n".into(),
            },
            Event::FaultApplied {
                kind: "crash".into(),
                node: Some(4),
                rack: None,
            },
            Event::Verdict {
                path: "/v".into(),
                verdict: "hot".into(),
                file_sessions: 10.5,
                max_block_sessions: 3.0,
                replicas: 3,
            },
            Event::TaskFinished { job: 5, ok: true },
        ];
        for (i, ev) in events.into_iter().enumerate() {
            sink.emit(t(i as u64), ev);
        }
        sink.drain_jsonl()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]
        #[test]
        fn hostile_jsonl_never_panics(
            edits in proptest::collection::vec(
                (0u8..3, proptest::prelude::any::<u64>(), proptest::prelude::any::<u8>()),
                1..8,
            ),
        ) {
            let mut bytes = sample_jsonl().into_bytes();
            for (kind, at, byte) in edits {
                let at = (at % (bytes.len() as u64 + 1)) as usize;
                match kind {
                    0 => bytes.truncate(at),
                    1 if at < bytes.len() => bytes[at] ^= byte | 1,
                    _ => bytes.insert(at, byte),
                }
            }
            // Ok or a typed error; a panic fails the test
            let _ = parse_jsonl(&String::from_utf8_lossy(&bytes));
        }
    }
}
