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
use simcore::SimTime;

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
/// Tokens are separated by ASCII whitespace. Each value is classified
/// as an integer, then a float, then a `true`/`false` literal, and is
/// otherwise kept as a string.
pub fn parse_line(line: &str) -> Result<Event, LineError> {
    let line = line.trim();
    if line.is_empty() {
        return Err(LineError::Empty);
    }
    let (ts, rest) = line
        .split_once(|c: char| c.is_ascii_whitespace())
        .ok_or(LineError::Empty)?;
    let secs: f64 = ts
        .parse()
        .map_err(|_| LineError::BadTimestamp(ts.to_string()))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(LineError::BadTimestamp(ts.to_string()));
    }
    let (event_type, body) = if let Some(body) = marker_body(rest, AUDIT_MARKER) {
        (AUDIT_EVENT, body)
    } else if let Some(body) = marker_body(rest, BLOCK_MARKER) {
        (BLOCK_EVENT, body)
    } else {
        return Err(LineError::UnknownMarker(rest.to_string()));
    };
    let mut event = Event::new(SimTime::from_secs_f64(secs), event_type);
    for pair in body.split_ascii_whitespace() {
        match pair.split_once('=') {
            Some((key, value)) if !key.is_empty() => {
                if value != "null" {
                    event.set(key, classify(value));
                }
            }
            _ => return Err(LineError::BadPair(pair.to_string())),
        }
    }
    Ok(event)
}

fn classify(value: &str) -> Value {
    if let Ok(i) = value.parse::<i64>() {
        Value::Int(i)
    } else if let Ok(f) = value.parse::<f64>() {
        Value::Float(f)
    } else if let Ok(b) = value.parse::<bool>() {
        Value::Bool(b)
    } else {
        Value::str(value)
    }
}

fn marker_body<'a>(rest: &'a str, marker: &str) -> Option<&'a str> {
    rest.find(marker)
        .map(|idx| rest[idx + marker.len()..].trim_start())
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
    use proptest::prelude::*;

    const OPEN: &str = "12.500000 FSNamesystem.audit: allowed=true ugi=alice \
                        ip=/10.0.0.7 cmd=open src=/data/f dst=null perm=null";
    const READ: &str = "99.000000 datanode.clienttrace: cmd=read_block blk=blk_42 \
                        dn=dn3 src=/data/f bytes=67108864";

    #[test]
    fn audit_line_round_trip() {
        let e = parse_line(OPEN).unwrap();
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
        let e = parse_line(READ).unwrap();
        assert_eq!(e.event_type.as_ref(), BLOCK_EVENT);
        assert_eq!(e.time, SimTime::from_secs(99));
        assert_eq!(e.get("blk").unwrap().as_str(), Some("blk_42"));
        assert_eq!(e.get("dn").unwrap().as_str(), Some("dn3"));
        assert_eq!(e.get("bytes").unwrap().as_i64(), Some(67108864));
    }

    #[test]
    fn rename_carries_dst() {
        let line = "1.000000 FSNamesystem.audit: cmd=rename src=/a dst=/b perm=null";
        let e = parse_line(line).unwrap();
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
        let text = format!("{OPEN}\n\ngarbage line here\n{READ}\n");
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
        use crate::query::{Predicate, QuerySpec};
        use simcore::SimDuration;
        // The exact pipeline of the paper: audit text → parser → CEP.
        let log: String = (0..6u64)
            .map(|i| {
                format!(
                    "{i}.000000 FSNamesystem.audit: allowed=true ugi=u ip=/10.0.0.2 \
                     cmd=open src=/hot/file dst=null perm=null\n"
                )
            })
            .collect();
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn hostile_lines_never_panic(
            base in prop::sample::select(vec![OPEN, READ]),
            edits in prop::collection::vec((0u8..3, any::<u64>(), any::<u8>()), 1..8),
        ) {
            let mut bytes = base.as_bytes().to_vec();
            for (kind, at, byte) in edits {
                let at = (at % (bytes.len() as u64 + 1)) as usize;
                match kind {
                    0 => bytes.truncate(at),
                    1 if at < bytes.len() => bytes[at] ^= byte | 1,
                    _ => bytes.insert(at, byte),
                }
            }
            // Ok or a typed error; a panic fails the test
            let _ = parse_line(&String::from_utf8_lossy(&bytes));
        }
    }
}
