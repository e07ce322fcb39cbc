//! The check path: parse an instance's JSONL trace as it is drained,
//! rebuild its spans, run the invariant oracle, and pull out the
//! simulated outcomes the metrics are made of. Runs outside the
//! measured region.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use simcore::spans::oracle::{OracleConfig, TraceOracle};
use simcore::spans::{parse_jsonl, SpanCollector, SpanKind};
use simcore::{SimTime, TelemetryEvent};

/// What the check path extracted from one trace.
#[derive(Debug, Default)]
pub struct Checked {
    /// Durations of completed read spans, simulated nanoseconds.
    pub read_ns: Vec<u64>,
    /// Completed read spans that reported failure.
    pub reads_failed: u64,
    /// Failed read spans that ended while no injected fault had a node
    /// or rack down, so no fault explains them.
    pub reads_failed_unexplained: u64,
    /// Read spans still open when the trace ended.
    pub reads_unfinished: u64,
    /// Durations of completed copy spans, simulated nanoseconds.
    pub copy_ns: Vec<u64>,
    /// Simulated wait from `task_queued` to the first `task_dispatched`.
    pub task_wait_ns: Vec<u64>,
    pub oracle_violations: Vec<String>,
    /// FNV-1a over the trace bytes, so tests can compare whole traces.
    pub trace_digest: u64,
    pub parse_ns: u64,
    pub collect_ns: u64,
    pub oracle_ns: u64,
}

impl Checked {
    /// Read spans the trace opened, finished or not.
    pub fn reads_started(&self) -> u64 {
        self.read_ns.len() as u64 + self.reads_unfinished
    }
}

/// FNV-1a offset basis: the digest of an empty trace.
pub const EMPTY_DIGEST: u64 = 0xCBF2_9CE4_8422_2325;

/// Fold `bytes` into an FNV-1a digest.
pub fn digest(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// Streaming check over a trace fed in drained chunks, so the benchmark
/// never holds a whole trace in memory.
pub struct Checker {
    collector: SpanCollector,
    oracle: TraceOracle,
    queued: BTreeMap<u64, SimTime>,
    down: Outages,
    out: Checked,
    error: Option<String>,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            collector: SpanCollector::new(),
            oracle: TraceOracle::new(OracleConfig::default()),
            queued: BTreeMap::new(),
            down: Outages::default(),
            out: Checked {
                trace_digest: EMPTY_DIGEST,
                ..Checked::default()
            },
            error: None,
        }
    }
}

/// The nodes and racks the injected faults have down, replayed from
/// the trace's `fault_applied` events.
#[derive(Debug, Default)]
struct Outages {
    nodes: BTreeSet<u32>,
    killed: BTreeSet<u32>,
    racks: BTreeSet<u32>,
}

impl Outages {
    fn apply(&mut self, kind: &str, node: Option<u32>, rack: Option<u32>) {
        match (kind, node, rack) {
            ("crash" | "torn_crash", Some(n), _) => {
                self.nodes.insert(n);
            }
            ("kill", Some(n), _) => {
                self.nodes.insert(n);
                self.killed.insert(n);
            }
            // the cluster ignores a restart of a killed node
            ("restart", Some(n), _) if !self.killed.contains(&n) => {
                self.nodes.remove(&n);
            }
            ("rack_outage", _, Some(r)) => {
                self.racks.insert(r);
            }
            ("rack_restore", _, Some(r)) => {
                self.racks.remove(&r);
            }
            _ => {}
        }
    }

    fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.racks.is_empty()
    }
}

impl Checker {
    /// Check the next chunk of whole JSONL lines.
    pub fn feed(&mut self, chunk: &str) {
        if self.error.is_some() {
            return;
        }
        self.out.trace_digest = digest(self.out.trace_digest, chunk.as_bytes());
        let t = Instant::now();
        let events = match parse_jsonl(chunk) {
            Ok(events) => events,
            Err(e) => {
                self.error = Some(format!("trace does not parse: {e}"));
                return;
            }
        };
        self.out.parse_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        for ev in &events {
            self.collector.observe(ev);
            match &ev.event {
                TelemetryEvent::TaskQueued { job, .. } => {
                    self.queued.insert(*job, ev.time);
                }
                TelemetryEvent::TaskDispatched { job, .. } => {
                    if let Some(at) = self.queued.remove(job) {
                        self.out.task_wait_ns.push(ev.time.since(at).as_nanos());
                    }
                }
                TelemetryEvent::FaultApplied { kind, node, rack } => {
                    self.down.apply(kind, *node, *rack);
                }
                TelemetryEvent::ReadFinished { failed: true, .. } if self.down.is_empty() => {
                    self.out.reads_failed_unexplained += 1;
                }
                _ => {}
            }
        }
        self.out.collect_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        for ev in &events {
            self.oracle.observe(ev);
        }
        self.out.oracle_ns += t.elapsed().as_nanos() as u64;
    }

    /// Close the trace. A trace that did not parse is an error.
    pub fn finish(self) -> Result<Checked, String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut out = self.out;
        let t = Instant::now();
        let report = self.collector.finish();
        for s in &report.spans {
            let ns = s.end.since(s.start).as_nanos();
            match s.kind {
                SpanKind::Read => {
                    out.read_ns.push(ns);
                    out.reads_failed += u64::from(!s.ok);
                }
                SpanKind::Copy => out.copy_ns.push(ns),
                _ => {}
            }
        }
        out.reads_unfinished = report
            .open
            .iter()
            .filter(|s| s.kind == SpanKind::Read)
            .count() as u64;
        out.collect_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        out.oracle_violations = self
            .oracle
            .into_violations()
            .iter()
            .map(|v| v.to_string())
            .collect();
        out.oracle_ns += t.elapsed().as_nanos() as u64;
        Ok(out)
    }
}

/// Check one whole trace.
pub fn check_trace(trace: &str) -> Result<Checked, String> {
    let mut checker = Checker::default();
    checker.feed(trace);
    checker.finish()
}

/// Every read the benchmark opened must appear in the trace as a read
/// span, finished or not, and no other read may.
pub fn reconcile_reads(opened: u64, checked: &Checked) -> Result<(), String> {
    if checked.reads_started() == opened {
        Ok(())
    } else {
        Err(format!(
            "read spans do not reconcile: {opened} opened, {} in the trace",
            checked.reads_started()
        ))
    }
}
