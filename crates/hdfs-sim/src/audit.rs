//! Audit-log emission.
//!
//! The namenode logs every namespace operation and each datanode logs
//! block transfers. The sink buffers one typed [`AuditRecord`] per
//! event until drained, so the ERMS control loop processes exactly the
//! records that arrived since its previous epoch. A record renders
//! (`Display`) as the line a Hadoop daemon would write — the one writer
//! of the HDFS log format; `cep::audit::parse_line` is its one reader.

use crate::block::BlockId;
use crate::topology::{Endpoint, NodeId};
use simcore::SimTime;
use std::fmt;

/// A namenode command the simulator audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditCmd {
    Create,
    Open,
    Delete,
    SetReplication,
}

impl AuditCmd {
    /// The `cmd=` token HDFS writes for this command.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditCmd::Create => "create",
            AuditCmd::Open => "open",
            AuditCmd::Delete => "delete",
            AuditCmd::SetReplication => "setReplication",
        }
    }
}

/// What an audit record reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditOp {
    /// A namenode (`FSNamesystem.audit`) command issued by `reader`.
    Namenode { cmd: AuditCmd, reader: Endpoint },
    /// A datanode (`datanode.clienttrace`) read of one block.
    BlockRead {
        block: BlockId,
        node: NodeId,
        bytes: u64,
    },
}

/// One audit event: when, on which path, and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// On the microsecond grid of the log text (see [`AuditSink`]).
    pub time: SimTime,
    pub path: String,
    pub op: AuditOp,
}

impl fmt::Display for AuditRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.time.as_secs_f64();
        match self.op {
            AuditOp::Namenode { cmd, reader } => {
                let ip = match reader {
                    Endpoint::Node(n) => format!("/task@{n}"),
                    Endpoint::Client(c) => format!("/{c}"),
                };
                write!(
                    f,
                    "{t:.6} FSNamesystem.audit: allowed=true ugi=hadoop ip={ip} cmd={} src={} dst=null perm=null",
                    cmd.as_str(),
                    self.path,
                )
            }
            AuditOp::BlockRead { block, node, bytes } => write!(
                f,
                "{t:.6} datanode.clienttrace: cmd=read_block blk={block} dn={node} src={} bytes={bytes}",
                self.path,
            ),
        }
    }
}

/// Buffered audit/clienttrace sink.
#[derive(Debug, Default)]
pub struct AuditSink {
    records: Vec<AuditRecord>,
    emitted: u64,
}

impl AuditSink {
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, now: SimTime, path: &str, op: AuditOp) {
        // HDFS log lines carry seconds to six decimals, so records are
        // stamped on that microsecond grid (half-up): the judge sees the
        // times the text carried, and render-then-parse is exact.
        let time = SimTime::from_micros((now.as_nanos() + 500) / 1000);
        self.records.push(AuditRecord {
            time,
            path: path.to_string(),
            op,
        });
        self.emitted += 1;
    }

    /// Namenode audit record for a file-level operation.
    pub fn file_op(&mut self, now: SimTime, reader: Endpoint, cmd: AuditCmd, path: &str) {
        self.push(now, path, AuditOp::Namenode { cmd, reader });
    }

    /// Datanode client-trace record for one block transfer.
    pub fn block_read(
        &mut self,
        now: SimTime,
        block: BlockId,
        node: NodeId,
        path: &str,
        bytes: u64,
    ) {
        self.push(now, path, AuditOp::BlockRead { block, node, bytes });
    }

    /// Take all buffered records.
    pub fn drain(&mut self) -> Vec<AuditRecord> {
        std::mem::take(&mut self.records)
    }

    pub fn pending(&self) -> usize {
        self.records.len()
    }
    pub fn total_emitted(&self) -> u64 {
        self.emitted
    }
}

impl checkpoint::Checkpointable for AuditSink {
    fn save_state(&self) -> checkpoint::Value {
        use crate::cluster::ck::endpoint;
        use checkpoint::codec::{seq_of, MapBuilder};
        // Undrained records are part of the run's state: the CEP epoch
        // after a restore must see exactly what it would have seen.
        let records = seq_of(&self.records, |r| {
            let b = MapBuilder::new().time("t", r.time).str("path", &r.path);
            let b = match r.op {
                AuditOp::Namenode { cmd, reader } => {
                    b.str("op", cmd.as_str()).put("reader", endpoint(reader))
                }
                AuditOp::BlockRead { block, node, bytes } => b
                    .str("op", "read_block")
                    .u64("block", block.0)
                    .u64("node", u64::from(node.0))
                    .u64("bytes", bytes),
            };
            b.build()
        });
        MapBuilder::new()
            .put("records", records)
            .u64("emitted", self.emitted)
            .build()
    }

    fn load_state(&mut self, state: &checkpoint::Value) -> Result<(), checkpoint::CheckpointError> {
        use crate::cluster::ck::endpoint_back;
        use checkpoint::codec as c;
        let record = |v: &checkpoint::Value| {
            let namenode = |cmd| -> Result<AuditOp, checkpoint::CheckpointError> {
                Ok(AuditOp::Namenode {
                    cmd,
                    reader: endpoint_back(c::get(v, "reader")?)?,
                })
            };
            let op = match c::get_str(v, "op")? {
                "create" => namenode(AuditCmd::Create)?,
                "open" => namenode(AuditCmd::Open)?,
                "delete" => namenode(AuditCmd::Delete)?,
                "setReplication" => namenode(AuditCmd::SetReplication)?,
                "read_block" => AuditOp::BlockRead {
                    block: BlockId(c::get_u64(v, "block")?),
                    node: NodeId(c::get_u32(v, "node")?),
                    bytes: c::get_u64(v, "bytes")?,
                },
                other => {
                    return Err(checkpoint::CheckpointError::Corrupt(format!(
                        "unknown audit op `{other}`"
                    )))
                }
            };
            Ok(AuditRecord {
                time: c::get_time(v, "t")?,
                path: c::get_str(v, "path")?.to_string(),
                op,
            })
        };
        self.records = c::get_seq(state, "records")?
            .iter()
            .map(record)
            .collect::<Result<_, _>>()?;
        self.emitted = c::get_u64(state, "emitted")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClientId;
    use checkpoint::{CheckpointError, Checkpointable};
    use proptest::prelude::*;

    fn sample_sink() -> AuditSink {
        let mut sink = AuditSink::new();
        sink.file_op(
            SimTime::from_secs(10),
            Endpoint::Client(ClientId(3)),
            AuditCmd::Open,
            "/data/f",
        );
        sink.file_op(
            SimTime::from_secs(10),
            Endpoint::Node(NodeId(4)),
            AuditCmd::SetReplication,
            "/data/f",
        );
        sink.block_read(
            SimTime::from_secs(11),
            BlockId(7),
            NodeId(2),
            "/data/f",
            64 << 20,
        );
        sink
    }

    #[test]
    fn emits_parseable_lines() {
        let mut sink = sample_sink();
        assert_eq!(sink.pending(), 3);
        let records = sink.drain();
        assert_eq!(sink.pending(), 0, "drain empties the buffer");
        assert_eq!(sink.total_emitted(), 3);

        // the rendered text must round-trip through the cep audit parser
        let text: Vec<String> = records.iter().map(ToString::to_string).collect();
        let (events, bad) = cep::audit::parse_log(&text.join("\n"));
        assert_eq!(bad, 0);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].event_type.as_ref(), cep::audit::AUDIT_EVENT);
        assert_eq!(events[0].get("cmd").unwrap().as_str(), Some("open"));
        assert_eq!(events[0].get("src").unwrap().as_str(), Some("/data/f"));
        assert_eq!(
            events[1].get("cmd").unwrap().as_str(),
            Some("setReplication")
        );
        assert_eq!(events[2].event_type.as_ref(), cep::audit::BLOCK_EVENT);
        assert_eq!(events[2].get("blk").unwrap().as_str(), Some("blk_7"));
        assert_eq!(events[2].get("dn").unwrap().as_str(), Some("dn2"));
        assert_eq!(events[2].get("bytes").unwrap().as_i64(), Some(64 << 20));
    }

    #[test]
    fn reader_names_distinguish_tasks_from_clients() {
        let lines: Vec<String> = sample_sink()
            .drain()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert!(lines[0].contains("ip=/client3"));
        assert!(lines[1].contains("ip=/task@dn4"));
    }

    #[test]
    fn stamps_sit_on_the_microsecond_grid() {
        let mut sink = AuditSink::new();
        let reader = Endpoint::Client(ClientId(0));
        for ns in [1_499, 1_500, 123_456_789_012] {
            sink.file_op(SimTime::from_nanos(ns), reader, AuditCmd::Open, "/f");
        }
        let times: Vec<u64> = sink.drain().iter().map(|r| r.time.as_nanos()).collect();
        assert_eq!(times, [1_000, 2_000, 123_456_789_000]);
    }

    #[test]
    fn checkpoint_round_trips_undrained_records() {
        let sink = sample_sink();
        let json = serde_json::to_string(&sink.save_state()).unwrap();
        let mut back = AuditSink::new();
        back.load_state(&serde_json::parse_value(&json).unwrap())
            .unwrap();
        assert_eq!(back.total_emitted(), 3);
        assert_eq!(back.drain(), sample_sink().drain());
    }

    fn load_json(json: &str) -> Result<(), CheckpointError> {
        AuditSink::new().load_state(
            &serde_json::parse_value(json).map_err(|e| CheckpointError::Parse(e.to_string()))?,
        )
    }

    #[test]
    fn load_rejects_unknown_ops_and_wrong_types() {
        let json = serde_json::to_string(&sample_sink().save_state()).unwrap();
        let unknown = json.replacen("\"open\"", "\"rename\"", 1);
        assert!(matches!(
            load_json(&unknown),
            Err(CheckpointError::Corrupt(_))
        ));
        let wrong_type = json.replacen("\"emitted\":3", "\"emitted\":\"3\"", 1);
        assert!(matches!(
            load_json(&wrong_type),
            Err(CheckpointError::TypeMismatch { .. })
        ));
        let old_format = json.replacen("\"records\"", "\"lines\"", 1);
        assert_eq!(
            load_json(&old_format),
            Err(CheckpointError::MissingField("records".into()))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn load_never_panics_on_mutated_snapshots(
            edits in prop::collection::vec((0u8..3, any::<u64>(), any::<u8>()), 1..6),
        ) {
            let mut bytes = serde_json::to_string(&sample_sink().save_state())
                .unwrap()
                .into_bytes();
            for (kind, at, byte) in edits {
                let at = (at % (bytes.len() as u64 + 1)) as usize;
                match kind {
                    0 => bytes.truncate(at),
                    1 if at < bytes.len() => bytes[at] ^= byte | 1,
                    _ => bytes.insert(at, byte),
                }
            }
            // Ok or a typed error; a panic fails the test
            let _ = load_json(&String::from_utf8_lossy(&bytes));
        }
    }
}
