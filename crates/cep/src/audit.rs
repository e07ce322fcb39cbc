//! HDFS audit-log parsing — the paper's "log parser".
//!
//! The paper's authors "developed a log parser to analyze the HDFS audit
//! logs and translate the log records into events for the CEP system".
//! This module is that component. Two line shapes are understood,
//! mirroring what a Hadoop namenode and datanode emit:
//!
//! * namespace operations (`FSNamesystem.audit`):
//!   `12.500 FSNamesystem.audit: allowed=true ugi=alice ip=/10.0.0.7
//!    cmd=open src=/data/f dst=null perm=null` → event type `audit`;
//! * block transfers (`datanode.clienttrace`, how real datanodes log
//!   per-block reads):
//!   `12.501 datanode.clienttrace: cmd=read_block blk=blk_42 dn=dn3
//!    src=/data/f bytes=67108864` → event type `block_read`.
//!
//! The leading token is the simulation timestamp in seconds. Unknown
//! `key=value` pairs are preserved verbatim; `null` values are dropped.

use crate::event::{Event, Value};
use crate::fnv::FnvBuildHasher;
use simcore::SimTime;
use std::collections::HashSet;
use std::sync::Arc;

/// Event type emitted for namenode audit lines.
pub const AUDIT_EVENT: &str = "audit";
/// Event type emitted for datanode block-transfer lines.
pub const BLOCK_EVENT: &str = "block_read";

const AUDIT_MARKER: &str = "FSNamesystem.audit:";
const BLOCK_MARKER: &str = "datanode.clienttrace:";

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum LineError {
    Empty,
    BadTimestamp(String),
    UnknownMarker(String),
    BadPair(String),
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::Empty => write!(f, "empty line"),
            LineError::BadTimestamp(t) => write!(f, "bad timestamp '{t}'"),
            LineError::UnknownMarker(l) => write!(f, "no known log marker in '{l}'"),
            LineError::BadPair(p) => write!(f, "malformed key=value pair '{p}'"),
        }
    }
}
impl std::error::Error for LineError {}

/// Parse one audit-log line into a CEP event.
///
/// One-shot convenience over a throwaway [`LineParser`]. Callers on a
/// hot loop (the judge's audit drain) should hold a parser instead so
/// keys, type names and recurring string values are interned across
/// lines rather than re-allocated per event.
pub fn parse_line(line: &str) -> Result<Event, LineError> {
    LineParser::new().parse(line)
}

/// Cap on distinct interned strings; past it the parser stops caching
/// new ones (falling back to per-event allocation) so adversarial input
/// can't grow the pool without bound.
const INTERN_CAP: usize = 1 << 20;

/// Cap on per-key slots; keys past it intern through the shared pool.
/// Real audit streams carry well under a dozen distinct keys.
const KEY_SLOT_CAP: usize = 32;

/// One known field key plus a memo of the last value text seen under it
/// and that text's classified [`Value`]. Audit streams repeat values
/// per key for long stretches (`ugi=`, `ip=`, `cmd=`, `allowed=`), so
/// the memo turns most classifications into a single string compare.
#[derive(Debug)]
struct KeySlot {
    key: Arc<str>,
    /// False when a projection is set and this key is not in it: the
    /// whole pair is skipped without classifying or storing.
    kept: bool,
    last_raw: String,
    last_value: Option<Value>,
}

/// Direct-mapped body-memo size (power of two). The flash-crowd lines
/// that dominate an audit storm rotate over a small set of distinct
/// bodies, so a few dozen slots hold the whole working set.
const BODY_MEMO_SLOTS: usize = 64;

/// Bodies longer than this are parsed but never memoized, bounding the
/// memo's memory at `BODY_MEMO_SLOTS * BODY_MEMO_MAX_LEN` body bytes.
const BODY_MEMO_MAX_LEN: usize = 256;

/// One memoized line body and its full parse result. Parsing is a pure
/// function of the body bytes (the timestamp sits outside the marker
/// body), so replaying the cached event — refcount bumps only — is
/// byte-for-byte identical to reparsing.
#[derive(Debug)]
struct BodyMemo {
    marker: usize,
    body: String,
    event: Event,
}

/// A reusable audit-line parser with a string-intern pool.
///
/// Audit streams repeat themselves: the same handful of field keys on
/// every line, the same commands, users and block/path names across
/// millions of lines. Interning turns each recurrence into one hash
/// probe and an `Arc` refcount bump — the difference between ~13 and
/// ~2 allocations per parsed line, which is what the ≥2M events/sec
/// CEP ingest budget requires.
#[derive(Debug, Default)]
pub struct LineParser {
    pool: HashSet<Arc<str>, FnvBuildHasher>,
    audit_type: Option<Arc<str>>,
    block_type: Option<Arc<str>>,
    /// Known field keys, linear-scanned: with ≤ a dozen distinct keys a
    /// few byte compares beat a hash probe.
    slots: Vec<KeySlot>,
    /// Projection pushdown: when set, only these keys are materialized
    /// on parsed events (the consumer declares what its queries read).
    projection: Option<Vec<Arc<str>>>,
    /// Per-marker memo of the previous line's slot-index sequence.
    /// Consecutive lines of one shape repeat the same keys in the same
    /// order, so each pair usually resolves with one string compare
    /// instead of a slot scan. `[0]` = audit lines, `[1]` = block lines.
    shapes: [Vec<u32>; 2],
    /// Scratch for the shape being observed on the current line.
    shape_scratch: Vec<u32>,
    /// Last timestamp token and its parsed value. Audit streams emit
    /// bursts of lines with the identical timestamp text, so one string
    /// compare usually replaces a float parse.
    ts_memo: (String, SimTime),
    /// Direct-mapped `body → parsed event` cache (lazily sized to
    /// [`BODY_MEMO_SLOTS`]). A hit skips tokenization and
    /// classification entirely: hash, one compare, clone the fields.
    body_memo: Vec<Option<BodyMemo>>,
    /// Promote-on-second-sight filter: the body hash last seen missing
    /// in each slot. One-shot bodies (unique paths in a scan tail)
    /// never match twice, so they neither pay the insert cost nor
    /// evict the flash-crowd entries that do repeat.
    body_cand: Vec<u64>,
}

impl LineParser {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`: the pooled `Arc<str>` if seen before, a fresh one
    /// (cached while the pool is under its cap) otherwise.
    pub fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(hit) = self.pool.get(s) {
            return hit.clone();
        }
        let fresh: Arc<str> = Arc::from(s);
        if self.pool.len() < INTERN_CAP {
            self.pool.insert(fresh.clone());
        }
        fresh
    }

    /// Restrict parsed events to these field keys — projection pushdown
    /// for consumers whose queries read a known field set. Pairs under
    /// other keys are tokenized (the line is still validated) but never
    /// classified or stored. Clears any previously set projection state.
    pub fn project(&mut self, keys: &[&str]) {
        self.slots.clear();
        self.body_memo.clear();
        self.body_cand.clear();
        self.projection = Some(keys.iter().map(|k| Arc::from(*k)).collect());
    }

    fn keep(&self, key: &str) -> bool {
        self.projection
            .as_ref()
            .is_none_or(|p| p.iter().any(|k| k.as_ref() == key))
    }

    /// Parse one line, sharing strings with everything parsed before.
    pub fn parse(&mut self, line: &str) -> Result<Event, LineError> {
        let mut out = Event::new_interned(SimTime::ZERO, Arc::from(""), 8);
        self.parse_into(line, &mut out)?;
        Ok(out)
    }

    fn timestamp(&mut self, ts_str: &str) -> Result<SimTime, LineError> {
        if self.ts_memo.0 == ts_str && !ts_str.is_empty() {
            return Ok(self.ts_memo.1);
        }
        let secs: f64 = ts_str
            .parse()
            .map_err(|_| LineError::BadTimestamp(ts_str.to_string()))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(LineError::BadTimestamp(ts_str.to_string()));
        }
        let time = SimTime::from_secs_f64(secs);
        self.ts_memo.0.clear();
        self.ts_memo.0.push_str(ts_str);
        self.ts_memo.1 = time;
        Ok(time)
    }

    /// [`parse`](Self::parse) into a caller-owned scratch event — the
    /// zero-allocation form for hot loops (the judge reuses one event
    /// across its whole audit drain). On error `out` is unspecified.
    ///
    /// Tokenization is a single byte-level pass (audit lines are ASCII;
    /// multi-byte text inside a token passes through untouched, but only
    /// ASCII whitespace separates tokens).
    pub fn parse_into(&mut self, line: &str, out: &mut Event) -> Result<(), LineError> {
        simcore::prof_scope!("cep/parse");
        let line = line.trim();
        if line.is_empty() {
            return Err(LineError::Empty);
        }
        let sp = line
            .as_bytes()
            .iter()
            .position(|b| b.is_ascii_whitespace())
            .ok_or(LineError::Empty)?;
        let time = self.timestamp(&line[..sp])?;
        let rest = &line[sp + 1..];

        let (event_type, body, marker) = if let Some(body) = marker_body(rest, AUDIT_MARKER) {
            let ty = self
                .audit_type
                .get_or_insert_with(|| Arc::from(AUDIT_EVENT))
                .clone();
            (ty, body, 0usize)
        } else if let Some(body) = marker_body(rest, BLOCK_MARKER) {
            let ty = self
                .block_type
                .get_or_insert_with(|| Arc::from(BLOCK_EVENT))
                .clone();
            (ty, body, 1usize)
        } else {
            return Err(LineError::UnknownMarker(rest.to_string()));
        };

        out.reset_interned(time, event_type);
        let bytes = body.as_bytes();

        // Body memo: identical bodies parse to identical fields, and
        // the storm traffic that dominates ingest repeats a small body
        // set for long stretches. A hit replays the cached result.
        let memoizable = bytes.len() <= BODY_MEMO_MAX_LEN;
        let mut memo_idx = 0usize;
        let mut memo_hash = 0u64;
        if memoizable {
            if self.body_memo.is_empty() {
                self.body_memo.resize_with(BODY_MEMO_SLOTS, || None);
                self.body_cand.resize(BODY_MEMO_SLOTS, 0);
            }
            memo_hash = body_hash(bytes) ^ (marker as u64).wrapping_mul(0x9E37_79B9);
            memo_idx = memo_hash as usize & (BODY_MEMO_SLOTS - 1);
            if let Some(m) = &self.body_memo[memo_idx] {
                if m.marker == marker && m.body == body {
                    out.clone_fields_from(&m.event);
                    return Ok(());
                }
            }
        }

        let mut i = 0;
        // Shape memo bookkeeping: `pos` walks the previous line's slot
        // sequence while it keeps matching; `usable` stays true while
        // every pair resolves to a slot index (so the observed sequence
        // can replace the memo).
        let mut pos = 0usize;
        let mut shape_hit = true;
        let mut shape_usable = true;
        self.shape_scratch.clear();
        while i < bytes.len() {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i == bytes.len() {
                break;
            }
            let start = i;
            let mut eq = usize::MAX;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                if bytes[i] == b'=' && eq == usize::MAX {
                    eq = i;
                }
                i += 1;
            }
            if eq == usize::MAX || eq == start {
                return Err(LineError::BadPair(body[start..i].to_string()));
            }
            let key = &body[start..eq];
            let value = &body[eq + 1..i];
            if value == "null" {
                continue;
            }
            let expected = if shape_hit {
                self.shapes[marker].get(pos).copied()
            } else {
                None
            };
            let si = match expected {
                Some(e)
                    if self
                        .slots
                        .get(e as usize)
                        .is_some_and(|s| s.key.as_ref() == key) =>
                {
                    pos += 1;
                    Some(e as usize)
                }
                _ => {
                    shape_hit = false;
                    match self.slots.iter().position(|s| s.key.as_ref() == key) {
                        Some(si) => Some(si),
                        None if self.slots.len() < KEY_SLOT_CAP => {
                            let kept = self.keep(key);
                            let key = self.intern(key);
                            self.slots.push(KeySlot {
                                key,
                                kept,
                                last_raw: String::new(),
                                last_value: None,
                            });
                            Some(self.slots.len() - 1)
                        }
                        None => None,
                    }
                }
            };
            match si {
                Some(si) => {
                    if shape_usable {
                        self.shape_scratch.push(si as u32);
                    }
                    if !self.slots[si].kept {
                        continue;
                    }
                    if self.slots[si].last_raw == value {
                        if let Some(v) = self.slots[si].last_value.clone() {
                            out.set_interned(self.slots[si].key.clone(), v);
                            continue;
                        }
                    }
                    let parsed = self.classify(value);
                    let slot = &mut self.slots[si];
                    slot.last_raw.clear();
                    slot.last_raw.push_str(value);
                    slot.last_value = Some(parsed.clone());
                    out.set_interned(slot.key.clone(), parsed);
                }
                // Slot table full: intern through the shared pool.
                None => {
                    shape_usable = false;
                    if !self.keep(key) {
                        continue;
                    }
                    let parsed = self.classify(value);
                    let key = self.intern(key);
                    out.set_interned(key, parsed);
                }
            }
        }
        if !shape_hit {
            if shape_usable {
                std::mem::swap(&mut self.shapes[marker], &mut self.shape_scratch);
            } else {
                self.shapes[marker].clear();
            }
        }
        if memoizable {
            if self.body_cand[memo_idx] == memo_hash {
                self.body_memo[memo_idx] = Some(BodyMemo {
                    marker,
                    body: body.to_string(),
                    event: out.clone(),
                });
            } else {
                self.body_cand[memo_idx] = memo_hash;
            }
        }
        Ok(())
    }

    /// Classify one field value: int, then float, then bool literal,
    /// then interned string. The first byte gates the numeric attempts —
    /// only `[0-9+-.]` and the `inf`/`nan` spellings (`i`/`n`, either
    /// case) can start a successful Rust numeric parse, so values like
    /// paths and commands skip two guaranteed-to-fail parses.
    fn classify(&mut self, value: &str) -> Value {
        let numeric_looking = matches!(
            value.as_bytes().first(),
            Some(b'0'..=b'9' | b'+' | b'-' | b'.' | b'i' | b'I' | b'n' | b'N')
        );
        if numeric_looking {
            if let Ok(i) = value.parse::<i64>() {
                return Value::Int(i);
            }
            if let Ok(f) = value.parse::<f64>() {
                return Value::Float(f);
            }
        }
        if value == "true" {
            return Value::Bool(true);
        }
        if value == "false" {
            return Value::Bool(false);
        }
        Value::Str(self.intern(value))
    }
}

/// Hash a line body eight bytes at a time (FxHash-style multiply-mix).
/// The byte-at-a-time FNV pool hasher is fine for short keys but too
/// slow for ~100-byte bodies on the per-line fast path.
fn body_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("exact 8-byte chunk"));
        h = (h.rotate_left(29) ^ w).wrapping_mul(K);
    }
    let mut tail = 0u64;
    for &b in chunks.remainder() {
        tail = (tail << 8) | u64::from(b);
    }
    (h.rotate_left(29) ^ tail).wrapping_mul(K)
}

fn marker_body<'a>(rest: &'a str, marker: &str) -> Option<&'a str> {
    // Fast path: well-formed lines put the marker right after the
    // timestamp, so a prefix test beats the substring scan.
    if let Some(body) = rest.strip_prefix(marker) {
        return Some(body.trim_start());
    }
    rest.find(marker)
        .map(|idx| rest[idx + marker.len()..].trim_start())
}

/// Format an audit event back into the canonical namenode line — the
/// simulator's audit sink uses this so that the *textual* log is the
/// interface between HDFS and ERMS, exactly as in the paper.
pub fn format_audit_line(
    time: SimTime,
    user: &str,
    ip: &str,
    cmd: &str,
    src: &str,
    dst: Option<&str>,
) -> String {
    format!(
        "{:.6} {} allowed=true ugi={} ip={} cmd={} src={} dst={} perm=null",
        time.as_secs_f64(),
        AUDIT_MARKER,
        user,
        ip,
        cmd,
        src,
        dst.unwrap_or("null"),
    )
}

/// Format a datanode block-transfer line.
pub fn format_block_line(
    time: SimTime,
    blk: &str,
    datanode: &str,
    src: &str,
    bytes: u64,
) -> String {
    format!(
        "{:.6} {} cmd=read_block blk={} dn={} src={} bytes={}",
        time.as_secs_f64(),
        BLOCK_MARKER,
        blk,
        datanode,
        src,
        bytes,
    )
}

/// Parse a whole log, skipping blank lines; returns events plus the
/// number of malformed lines (a real parser must tolerate noise).
pub fn parse_log(text: &str) -> (Vec<Event>, usize) {
    let mut events = Vec::new();
    let mut bad = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(e) => events.push(e),
            Err(_) => bad += 1,
        }
    }
    (events, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_line_round_trip() {
        let line = format_audit_line(
            SimTime::from_millis(12_500),
            "alice",
            "/10.0.0.7",
            "open",
            "/data/f",
            None,
        );
        let e = parse_line(&line).unwrap();
        assert_eq!(e.event_type.as_ref(), AUDIT_EVENT);
        assert_eq!(e.time, SimTime::from_millis(12_500));
        assert_eq!(e.get("cmd").unwrap().as_str(), Some("open"));
        assert_eq!(e.get("src").unwrap().as_str(), Some("/data/f"));
        assert_eq!(e.get("ugi").unwrap().as_str(), Some("alice"));
        assert_eq!(e.get("allowed").unwrap().as_bool(), Some(true));
        assert!(e.get("dst").is_none(), "null values are dropped");
        assert!(e.get("perm").is_none());
    }

    #[test]
    fn block_line_round_trip() {
        let line = format_block_line(SimTime::from_secs(99), "blk_42", "dn3", "/data/f", 67108864);
        let e = parse_line(&line).unwrap();
        assert_eq!(e.event_type.as_ref(), BLOCK_EVENT);
        assert_eq!(e.get("blk").unwrap().as_str(), Some("blk_42"));
        assert_eq!(e.get("dn").unwrap().as_str(), Some("dn3"));
        assert_eq!(e.get("bytes").unwrap().as_i64(), Some(67108864));
    }

    #[test]
    fn rename_carries_dst() {
        let line = format_audit_line(
            SimTime::from_secs(1),
            "bob",
            "/10.0.0.1",
            "rename",
            "/a",
            Some("/b"),
        );
        let e = parse_line(&line).unwrap();
        assert_eq!(e.get("dst").unwrap().as_str(), Some("/b"));
    }

    #[test]
    fn malformed_lines_error() {
        assert_eq!(parse_line(""), Err(LineError::Empty));
        assert!(matches!(
            parse_line("abc FSNamesystem.audit: cmd=open"),
            Err(LineError::BadTimestamp(_))
        ));
        assert!(matches!(
            parse_line("-5 FSNamesystem.audit: cmd=open"),
            Err(LineError::BadTimestamp(_))
        ));
        assert!(matches!(
            parse_line("1.0 SomethingElse: cmd=open"),
            Err(LineError::UnknownMarker(_))
        ));
        assert!(matches!(
            parse_line("1.0 FSNamesystem.audit: notapair"),
            Err(LineError::BadPair(_))
        ));
    }

    #[test]
    fn parse_log_tolerates_noise() {
        let text = format!(
            "{}\n\ngarbage line here\n{}\n",
            format_audit_line(SimTime::from_secs(1), "u", "/1", "open", "/f", None),
            format_block_line(SimTime::from_secs(2), "blk_1", "dn0", "/f", 64),
        );
        let (events, bad) = parse_log(&text);
        assert_eq!(events.len(), 2);
        assert_eq!(bad, 1);
    }

    #[test]
    fn numeric_fields_become_numbers() {
        let e = parse_line("3.5 datanode.clienttrace: bytes=100 ratio=0.5 name=abc").unwrap();
        assert_eq!(e.get("bytes").unwrap().as_i64(), Some(100));
        assert_eq!(e.get("ratio").unwrap().as_f64(), Some(0.5));
        assert_eq!(e.get("name").unwrap().as_str(), Some("abc"));
    }

    #[test]
    fn feeds_cep_engine_end_to_end() {
        use crate::engine::CepEngine;
        use crate::event::Value;
        use crate::query::{Predicate, QuerySpec};
        use simcore::SimDuration;
        // The exact pipeline of the paper: audit text → parser → CEP.
        let mut log = String::new();
        for i in 0..6u64 {
            log.push_str(&format_audit_line(
                SimTime::from_secs(i),
                "u",
                "/10.0.0.2",
                "open",
                "/hot/file",
                None,
            ));
            log.push('\n');
        }
        let (events, bad) = parse_log(&log);
        assert_eq!(bad, 0);
        let mut eng = CepEngine::new();
        let q = eng.register(QuerySpec {
            predicates: vec![Predicate::Eq("cmd".into(), Value::str("open"))],
            ..QuerySpec::count_per_group("audit", "src", SimDuration::from_secs(60))
        });
        for e in &events {
            eng.push(e);
        }
        assert_eq!(eng.value_for(q, SimTime::from_secs(5), "/hot/file"), 6.0);
    }
}
