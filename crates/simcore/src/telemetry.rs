//! Structured tracing and metrics for the decision path.
//!
//! The ERMS papers' causal chain — audit event → CEP window → judge
//! verdict → Condor task → block-map change — is invisible in end-state
//! figures. This module makes it observable: every component holds a
//! cloneable [`TelemetrySink`] handle and emits typed [`Event`]s through
//! the [`trace!`](crate::trace) macro, which costs one branch (and evaluates nothing
//! else) when the sink is disabled.
//!
//! Alongside the event trace, the sink owns a [`MetricsRegistry`] of
//! counters, gauges and histograms whose snapshots iterate in a fixed
//! (lexicographic) order, so two same-seed runs serialize byte-identical
//! JSON — traces and metric dumps are diffable artifacts.
//!
//! The event vocabulary is domain-shaped (reads, replication streams,
//! verdicts, scheduler attempts) but carries only primitive fields
//! (`u32` node ids, `u64` job/block ids, `String` paths): `simcore`
//! stays at the bottom of the crate DAG and never depends on the
//! substrates that emit into it.
//!
//! ```
//! use simcore::telemetry::{Event, TelemetrySink};
//! use simcore::{trace, SimTime};
//!
//! let sink = TelemetrySink::recording();
//! trace!(sink, SimTime::from_secs(1), Event::ReadStarted {
//!     read: 1,
//!     path: "/hot/a".into(),
//! });
//! sink.counter_add("hdfs.reads_started", 1);
//! assert_eq!(sink.drain_events().len(), 1);
//! ```

use crate::time::SimTime;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// One structured event on the decision path.
///
/// Variants cover the four stages the ERMS loop is made of: the HDFS
/// substrate (I/O, replication streams, faults, repair), the CEP layer
/// (window emits), the manager (verdicts and the elastic decisions they
/// trigger, with the formula inputs), and the Condor scheduler (queue /
/// dispatch / retry / outcome).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Event {
    // --- HDFS substrate ---
    /// A client session opened a file (or single block) for reading.
    ///
    /// `read` is the session's correlation id: the
    /// matching [`Event::ReadFinished`] carries the same value, so spans
    /// pair unambiguously even when several sessions stream one path.
    ReadStarted { read: u64, path: String },
    /// A read session completed (all blocks streamed, or gave up).
    ReadFinished {
        read: u64,
        path: String,
        bytes: u64,
        failed: bool,
    },
    /// A write pipeline started for a new file.
    WriteStarted {
        write: u64,
        path: String,
        replication: u32,
    },
    /// The write pipeline finished (committed or abandoned).
    WriteFinished {
        write: u64,
        path: String,
        bytes: u64,
        failed: bool,
    },
    /// A replication stream was dispatched (source chosen at dispatch).
    ///
    /// `copy` is monotone per cluster: a retried repair of the same
    /// `(block, target)` pair gets a fresh id, so dispatch/completion
    /// never collide across retries.
    CopyDispatched {
        copy: u64,
        block: u64,
        source: u32,
        target: u32,
    },
    /// An RS reconstruction stream was dispatched: the target pulls one
    /// shard from each of `sources` stripe members. Shares the copy-id
    /// space with [`Event::CopyDispatched`]; completion surfaces as
    /// [`Event::CopyCompleted`]. Sources hold *sibling* stripe blocks,
    /// not the dark block itself, so only their count is recorded.
    ReconstructDispatched {
        copy: u64,
        block: u64,
        sources: u64,
        target: u32,
    },
    /// A replication / reconstruction stream delivered its replica.
    CopyCompleted { copy: u64, block: u64, target: u32 },
    /// An injected fault (or recovery) took effect.
    FaultApplied {
        kind: String,
        node: Option<u32>,
        rack: Option<u32>,
    },
    /// The periodic repair scan summarized the damage it found.
    RepairScan {
        under_replicated: u64,
        over_replicated: u64,
        dark_shards: u64,
    },
    /// A replica (or parity shard) was silently corrupted on disk.
    /// `kind` is `"replica"`, `"shard"` or `"torn_write"`.
    CorruptionInjected { block: u64, node: u32, kind: String },
    /// A checksum mismatch was caught, either on the read path
    /// (`via == "read"`) or by the background scrubber (`via == "scrub"`).
    CorruptionDetected { block: u64, node: u32, via: String },
    /// The corrupt replica was removed from service — no read will be
    /// routed to it again.
    CorruptQuarantined { block: u64, node: u32 },
    /// A quarantined block regained its target replica count through a
    /// verified repair (`via` is `"copy"` or `"reconstruct"`).
    CorruptRepaired { block: u64, via: String },
    /// One scrub pass over the budgeted slice of the block space.
    ScrubProgress {
        scanned: u64,
        cursor: u64,
        found: u64,
    },
    /// A block became unreadable with no surviving clean copy anywhere —
    /// live replica counts at the moment of loss, so the oracle can
    /// verify loss is only ever declared when everything is dead or
    /// corrupt.
    DataLoss {
        block: u64,
        live_replicas: u64,
        clean_retained: u64,
    },

    // --- CEP layer ---
    /// A sliding-window query emitted a row past its threshold.
    WindowEmit {
        query: String,
        group: String,
        value: f64,
    },

    // --- ERMS manager ---
    /// The judge classified one file, with the formula inputs used.
    Verdict {
        path: String,
        verdict: String,
        file_sessions: f64,
        max_block_sessions: f64,
        replicas: u32,
    },
    /// Replication increase decision (Formula 1/2/3 tripped).
    ReplicationBoost {
        path: String,
        from: u32,
        to: u32,
        sessions: f64,
    },
    /// Replica shed decision after the cooled-patience hysteresis.
    ReplicationShed { path: String, from: u32, to: u32 },
    /// Cold file encoded to RS stripes (emitted when the rewrite lands,
    /// not when the decision is queued). `parities` counts the parity
    /// shards placed — always `stripes × m` for the configured layout.
    EncodeCold {
        path: String,
        stripes: u32,
        parities: u32,
    },
    /// Encoded file decoded back to replication.
    DecodeCold { path: String },
    /// A self-healing action taken by the tick loop.
    SelfHeal { action: String, detail: String },
    /// A standby node was powered on (capacity) or off (drained).
    StandbyPower { node: u32, on: bool },

    // --- Condor scheduler ---
    /// A task entered one of the two priority queues.
    TaskQueued { job: u64, priority: String },
    /// A task left the queue for execution.
    TaskDispatched { job: u64, attempt: u32 },
    /// A failed task was re-queued with backoff.
    TaskRetry {
        job: u64,
        attempt: u32,
        delay_ns: u64,
    },
    /// A task reached a terminal state.
    TaskFinished { job: u64, ok: bool },
}

impl Event {
    /// Stable tag used as the `"ev"` field of the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ReadStarted { .. } => "read_started",
            Event::ReadFinished { .. } => "read_finished",
            Event::WriteStarted { .. } => "write_started",
            Event::WriteFinished { .. } => "write_finished",
            Event::CopyDispatched { .. } => "copy_dispatched",
            Event::ReconstructDispatched { .. } => "reconstruct_dispatched",
            Event::CopyCompleted { .. } => "copy_completed",
            Event::FaultApplied { .. } => "fault_applied",
            Event::RepairScan { .. } => "repair_scan",
            Event::CorruptionInjected { .. } => "corruption_injected",
            Event::CorruptionDetected { .. } => "corruption_detected",
            Event::CorruptQuarantined { .. } => "corrupt_quarantined",
            Event::CorruptRepaired { .. } => "corrupt_repaired",
            Event::ScrubProgress { .. } => "scrub_progress",
            Event::DataLoss { .. } => "data_loss",
            Event::WindowEmit { .. } => "window_emit",
            Event::Verdict { .. } => "verdict",
            Event::ReplicationBoost { .. } => "replication_boost",
            Event::ReplicationShed { .. } => "replication_shed",
            Event::EncodeCold { .. } => "encode_cold",
            Event::DecodeCold { .. } => "decode_cold",
            Event::SelfHeal { .. } => "self_heal",
            Event::StandbyPower { .. } => "standby_power",
            Event::TaskQueued { .. } => "task_queued",
            Event::TaskDispatched { .. } => "task_dispatched",
            Event::TaskRetry { .. } => "task_retry",
            Event::TaskFinished { .. } => "task_finished",
        }
    }

    fn write_fields(&self, out: &mut String) {
        match self {
            Event::ReadStarted { read, path } => {
                json_u64(out, "read", *read);
                json_str(out, "path", path);
            }
            Event::ReadFinished {
                read,
                path,
                bytes,
                failed,
            } => {
                json_u64(out, "read", *read);
                json_str(out, "path", path);
                json_u64(out, "bytes", *bytes);
                json_bool(out, "failed", *failed);
            }
            Event::WriteFinished {
                write,
                path,
                bytes,
                failed,
            } => {
                json_u64(out, "write", *write);
                json_str(out, "path", path);
                json_u64(out, "bytes", *bytes);
                json_bool(out, "failed", *failed);
            }
            Event::WriteStarted {
                write,
                path,
                replication,
            } => {
                json_u64(out, "write", *write);
                json_str(out, "path", path);
                json_u64(out, "replication", u64::from(*replication));
            }
            Event::CopyDispatched {
                copy,
                block,
                source,
                target,
            } => {
                json_u64(out, "copy", *copy);
                json_u64(out, "block", *block);
                json_u64(out, "source", u64::from(*source));
                json_u64(out, "target", u64::from(*target));
            }
            Event::ReconstructDispatched {
                copy,
                block,
                sources,
                target,
            } => {
                json_u64(out, "copy", *copy);
                json_u64(out, "block", *block);
                json_u64(out, "sources", *sources);
                json_u64(out, "target", u64::from(*target));
            }
            Event::CopyCompleted {
                copy,
                block,
                target,
            } => {
                json_u64(out, "copy", *copy);
                json_u64(out, "block", *block);
                json_u64(out, "target", u64::from(*target));
            }
            Event::FaultApplied { kind, node, rack } => {
                json_str(out, "kind", kind);
                if let Some(n) = node {
                    json_u64(out, "node", u64::from(*n));
                }
                if let Some(r) = rack {
                    json_u64(out, "rack", u64::from(*r));
                }
            }
            Event::RepairScan {
                under_replicated,
                over_replicated,
                dark_shards,
            } => {
                json_u64(out, "under_replicated", *under_replicated);
                json_u64(out, "over_replicated", *over_replicated);
                json_u64(out, "dark_shards", *dark_shards);
            }
            Event::CorruptionInjected { block, node, kind } => {
                json_u64(out, "block", *block);
                json_u64(out, "node", u64::from(*node));
                json_str(out, "kind", kind);
            }
            Event::CorruptionDetected { block, node, via } => {
                json_u64(out, "block", *block);
                json_u64(out, "node", u64::from(*node));
                json_str(out, "via", via);
            }
            Event::CorruptQuarantined { block, node } => {
                json_u64(out, "block", *block);
                json_u64(out, "node", u64::from(*node));
            }
            Event::CorruptRepaired { block, via } => {
                json_u64(out, "block", *block);
                json_str(out, "via", via);
            }
            Event::ScrubProgress {
                scanned,
                cursor,
                found,
            } => {
                json_u64(out, "scanned", *scanned);
                json_u64(out, "cursor", *cursor);
                json_u64(out, "found", *found);
            }
            Event::DataLoss {
                block,
                live_replicas,
                clean_retained,
            } => {
                json_u64(out, "block", *block);
                json_u64(out, "live_replicas", *live_replicas);
                json_u64(out, "clean_retained", *clean_retained);
            }
            Event::WindowEmit {
                query,
                group,
                value,
            } => {
                json_str(out, "query", query);
                json_str(out, "group", group);
                json_f64(out, "value", *value);
            }
            Event::Verdict {
                path,
                verdict,
                file_sessions,
                max_block_sessions,
                replicas,
            } => {
                json_str(out, "path", path);
                json_str(out, "verdict", verdict);
                json_f64(out, "file_sessions", *file_sessions);
                json_f64(out, "max_block_sessions", *max_block_sessions);
                json_u64(out, "replicas", u64::from(*replicas));
            }
            Event::ReplicationBoost {
                path,
                from,
                to,
                sessions,
            } => {
                json_str(out, "path", path);
                json_u64(out, "from", u64::from(*from));
                json_u64(out, "to", u64::from(*to));
                json_f64(out, "sessions", *sessions);
            }
            Event::ReplicationShed { path, from, to } => {
                json_str(out, "path", path);
                json_u64(out, "from", u64::from(*from));
                json_u64(out, "to", u64::from(*to));
            }
            Event::EncodeCold {
                path,
                stripes,
                parities,
            } => {
                json_str(out, "path", path);
                json_u64(out, "stripes", u64::from(*stripes));
                json_u64(out, "parities", u64::from(*parities));
            }
            Event::DecodeCold { path } => {
                json_str(out, "path", path);
            }
            Event::SelfHeal { action, detail } => {
                json_str(out, "action", action);
                json_str(out, "detail", detail);
            }
            Event::StandbyPower { node, on } => {
                json_u64(out, "node", u64::from(*node));
                json_bool(out, "on", *on);
            }
            Event::TaskQueued { job, priority } => {
                json_u64(out, "job", *job);
                json_str(out, "priority", priority);
            }
            Event::TaskDispatched { job, attempt } => {
                json_u64(out, "job", *job);
                json_u64(out, "attempt", u64::from(*attempt));
            }
            Event::TaskRetry {
                job,
                attempt,
                delay_ns,
            } => {
                json_u64(out, "job", *job);
                json_u64(out, "attempt", u64::from(*attempt));
                json_u64(out, "delay_ns", *delay_ns);
            }
            Event::TaskFinished { job, ok } => {
                json_u64(out, "job", *job);
                json_bool(out, "ok", *ok);
            }
        }
    }
}

/// An [`Event`] plus its emission instant and global sequence number.
///
/// The sequence number makes ties at equal `SimTime` unambiguous in a
/// diff, mirroring how the event queue breaks scheduling ties.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedEvent {
    pub time: SimTime,
    pub seq: u64,
    pub event: Event,
}

impl TracedEvent {
    /// One line of the JSONL trace encoding, without trailing newline.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        json_u64(&mut out, "t_ns", self.time.as_nanos());
        json_u64(&mut out, "seq", self.seq);
        json_str(&mut out, "ev", self.event.kind());
        self.event.write_fields(&mut out);
        out.push('}');
        out
    }
}

/// A histogram over `f64` observations with power-of-two buckets.
///
/// Bucket `i` counts observations in `(2^(i-1), 2^i]` (bucket 0 holds
/// everything ≤ 1). Fixed boundaries keep the encoding stable across
/// runs regardless of observation order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricHistogram {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    buckets: Vec<u64>,
}

impl MetricHistogram {
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        let idx = if value <= 1.0 {
            0
        } else {
            // ceil(log2(value)), capped so the vec stays small
            (64 - (value.ceil() as u64).saturating_sub(1).leading_zeros()) as usize
        };
        let idx = idx.min(63);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket counts, index `i` covering `(2^(i-1), 2^i]`.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuild a histogram from previously captured parts (the
    /// checkpoint restore path). The parts must come from
    /// [`MetricHistogram`]'s own fields — no validation beyond shape is
    /// attempted.
    pub fn from_parts(count: u64, sum: f64, min: f64, max: f64, buckets: Vec<u64>) -> Self {
        MetricHistogram {
            count,
            sum,
            min,
            max,
            buckets,
        }
    }

    /// Estimated value at quantile `q` in `[0, 1]`.
    ///
    /// Walks the cumulative bucket counts and reports the upper bound of
    /// the bucket holding the `ceil(q · count)`-th observation, clamped
    /// to the observed `[min, max]`. Coarse (buckets are powers of two)
    /// but deterministic: a pure function of the bucket counts, so two
    /// same-seed runs always report identical percentiles.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil().max(1.0)) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let upper = if i == 0 { 1.0 } else { (1u64 << i) as f64 };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        json_u64(out, "count", self.count);
        json_f64(out, "sum", self.sum);
        json_f64(out, "min", self.min);
        json_f64(out, "max", self.max);
        json_f64(out, "p50", self.percentile(0.50));
        json_f64(out, "p95", self.percentile(0.95));
        json_f64(out, "p99", self.percentile(0.99));
        comma(out);
        out.push_str("\"buckets\":[");
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push(']');
        out.push('}');
    }
}

/// Named counters, gauges and histograms with deterministic iteration.
///
/// Backed by sorted maps so [`MetricsRegistry::snapshot_json`] always
/// lists metrics in lexicographic order — the property the byte-identity
/// acceptance test leans on.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    // Keys are Cow so the hot path stays allocation-free (&'static str
    // borrowed) while checkpoint restore can re-create entries from
    // parsed JSON (owned). `Cow<str>: Borrow<str>` keeps &str lookups
    // working against either.
    counters: std::collections::BTreeMap<std::borrow::Cow<'static, str>, u64>,
    gauges: std::collections::BTreeMap<std::borrow::Cow<'static, str>, f64>,
    histograms: std::collections::BTreeMap<std::borrow::Cow<'static, str>, MetricHistogram>,
}

impl MetricsRegistry {
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self
            .counters
            .entry(std::borrow::Cow::Borrowed(name))
            .or_insert(0) += delta;
    }

    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(std::borrow::Cow::Borrowed(name), value);
    }

    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms
            .entry(std::borrow::Cow::Borrowed(name))
            .or_default()
            .observe(value);
    }

    /// Re-create a counter from restored state (owned key).
    pub fn restore_counter(&mut self, name: &str, value: u64) {
        self.counters
            .insert(std::borrow::Cow::Owned(name.to_owned()), value);
    }

    /// Re-create a gauge from restored state (owned key).
    pub fn restore_gauge(&mut self, name: &str, value: f64) {
        self.gauges
            .insert(std::borrow::Cow::Owned(name.to_owned()), value);
    }

    /// Re-create a histogram from restored state (owned key).
    pub fn restore_histogram(&mut self, name: &str, hist: MetricHistogram) {
        self.histograms
            .insert(std::borrow::Cow::Owned(name.to_owned()), hist);
    }

    /// Counters in lexicographic key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Gauges in lexicographic key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Histograms in lexicographic key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &MetricHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_ref(), v))
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&MetricHistogram> {
        self.histograms.get(name)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// One JSON object capturing every metric at `now`, keys sorted.
    pub fn snapshot_json(&self, now: SimTime) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        json_u64(&mut out, "t_ns", now.as_nanos());
        comma(&mut out);
        out.push_str("\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push('}');
        comma(&mut out);
        out.push_str("\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":");
            write_f64(&mut out, *v);
        }
        out.push('}');
        comma(&mut out);
        out.push_str("\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":");
            h.write_json(&mut out);
        }
        out.push('}');
        out.push('}');
        out
    }
}

#[derive(Debug, Default)]
struct SinkInner {
    events: Vec<TracedEvent>,
    seq: u64,
    metrics: MetricsRegistry,
}

/// A cloneable handle to a trace buffer + metrics registry.
///
/// The default handle is *disabled*: it holds no allocation, every
/// `enabled()` check is a branch on a `None`, and the [`trace!`](crate::trace) macro
/// never evaluates its event expression. Components store a sink
/// unconditionally; harnesses that want observability swap in
/// [`TelemetrySink::recording`] and share clones of it across the
/// cluster, manager, judge and scheduler so one buffer sees the whole
/// causal chain in emission order.
///
/// Single-threaded by design (the simulator is single-threaded):
/// `Rc<RefCell<_>>`, not `Arc<Mutex<_>>`.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink(Option<Rc<RefCell<SinkInner>>>);

impl TelemetrySink {
    /// The no-op handle every component starts with.
    pub fn disabled() -> Self {
        TelemetrySink(None)
    }

    /// A live sink that buffers events and accumulates metrics.
    pub fn recording() -> Self {
        TelemetrySink(Some(Rc::new(RefCell::new(SinkInner::default()))))
    }

    /// Whether emissions are recorded. Gate event construction on this
    /// (the [`trace!`](crate::trace) macro does it for you).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record `event` at `now`. Prefer [`trace!`](crate::trace), which skips the
    /// event construction entirely on a disabled sink.
    pub fn emit(&self, now: SimTime, event: Event) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            let seq = inner.seq;
            inner.seq += 1;
            inner.events.push(TracedEvent {
                time: now,
                seq,
                event,
            });
        }
    }

    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.counter_add(name, delta);
        }
    }

    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.gauge_set(name, value);
        }
    }

    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.observe(name, value);
        }
    }

    /// Number of buffered (undrained) events.
    pub fn event_count(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.borrow().events.len())
    }

    /// Take the buffered events, leaving the buffer empty (sequence
    /// numbers keep counting up across drains).
    pub fn drain_events(&self) -> Vec<TracedEvent> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |i| std::mem::take(&mut i.borrow_mut().events))
    }

    /// Serialize and drain the buffered events as JSONL (one event per
    /// line, trailing newline included when non-empty).
    pub fn drain_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.drain_events() {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }

    /// The next sequence number this sink will assign (`0` if disabled).
    ///
    /// Checkpoints record it so a resumed run's trace continues the
    /// straight-through numbering: prefix (drained before the snapshot)
    /// plus resumed suffix concatenate into a byte-identical JSONL.
    pub fn seq(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.borrow().seq)
    }

    /// Overwrite the next sequence number (no-op on a disabled sink).
    pub fn set_seq(&self, seq: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().seq = seq;
        }
    }

    /// Read access to the metrics under this sink (`None` if disabled).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> Option<R> {
        self.0.as_ref().map(|i| f(&i.borrow().metrics))
    }

    /// Swap in a restored registry (the checkpoint resume path); no-op
    /// on a disabled sink.
    pub fn replace_metrics(&self, metrics: MetricsRegistry) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics = metrics;
        }
    }

    /// JSON snapshot of every metric at `now`; `None` if disabled.
    pub fn snapshot_json(&self, now: SimTime) -> Option<String> {
        self.with_metrics(|m| m.snapshot_json(now))
    }
}

/// Emit an [`Event`](crate::telemetry::Event) into a sink, evaluating
/// the event expression only when the sink is enabled.
///
/// ```
/// use simcore::telemetry::{Event, TelemetrySink};
/// use simcore::{trace, SimTime};
///
/// let sink = TelemetrySink::disabled();
/// // `Event::DecodeCold { .. }` below is never constructed:
/// trace!(sink, SimTime::ZERO, Event::DecodeCold { path: "/x".into() });
/// assert_eq!(sink.event_count(), 0);
/// ```
#[macro_export]
macro_rules! trace {
    ($sink:expr, $now:expr, $event:expr) => {
        if $sink.enabled() {
            $sink.emit($now, $event);
        }
    };
}

fn comma(out: &mut String) {
    if !out.ends_with('{') && !out.ends_with('[') {
        out.push(',');
    }
}

fn json_u64(out: &mut String, key: &str, value: u64) {
    comma(out);
    let _ = write!(out, "\"{key}\":{value}");
}

fn json_bool(out: &mut String, key: &str, value: bool) {
    comma(out);
    let _ = write!(out, "\"{key}\":{value}");
}

fn json_f64(out: &mut String, key: &str, value: f64) {
    comma(out);
    let _ = write!(out, "\"{key}\":");
    write_f64(out, value);
}

fn write_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        // Rust's shortest-roundtrip formatting is deterministic and,
        // for finite values, valid JSON.
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

fn json_str(out: &mut String, key: &str, value: &str) {
    comma(out);
    let _ = write!(out, "\"{key}\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing_and_skips_evaluation() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.enabled());

        // The trace! macro must not evaluate its event expression on a
        // disabled sink — build the event through a side-effecting
        // closure and assert it never ran (so no path String was ever
        // allocated on the hot path).
        let mut evaluated = false;
        let mut build = || {
            evaluated = true;
            Event::ReadStarted {
                read: 0,
                path: "/never".into(),
            }
        };
        trace!(sink, SimTime::from_secs(1), build());
        assert!(!evaluated, "disabled sink must not construct events");
        assert_eq!(sink.event_count(), 0);

        // Metric calls are no-ops and the registry stays absent.
        sink.counter_add("x", 1);
        sink.gauge_set("y", 2.0);
        sink.observe("z", 3.0);
        assert!(sink.with_metrics(|_| ()).is_none());
        assert!(sink.snapshot_json(SimTime::ZERO).is_none());
        assert!(sink.drain_events().is_empty());
        assert!(sink.drain_jsonl().is_empty());
    }

    #[test]
    fn recording_sink_buffers_in_emission_order() {
        let sink = TelemetrySink::recording();
        let clone = sink.clone();
        trace!(
            sink,
            SimTime::from_secs(1),
            Event::TaskQueued {
                job: 7,
                priority: "immediate".into(),
            }
        );
        trace!(
            clone,
            SimTime::from_secs(1),
            Event::TaskDispatched { job: 7, attempt: 1 }
        );
        let events = sink.drain_events();
        assert_eq!(events.len(), 2, "clones share one buffer");
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].event.kind(), "task_queued");
        // drained; sequence numbers keep counting
        sink.emit(
            SimTime::from_secs(2),
            Event::TaskFinished { job: 7, ok: true },
        );
        assert_eq!(sink.drain_events()[0].seq, 2);
    }

    #[test]
    fn jsonl_encoding_is_stable_and_escaped() {
        let sink = TelemetrySink::recording();
        sink.emit(
            SimTime::from_millis(1500),
            Event::ReadStarted {
                read: 41,
                path: "/a \"b\"\n".into(),
            },
        );
        let line = sink.drain_jsonl();
        assert_eq!(
            line,
            "{\"t_ns\":1500000000,\"seq\":0,\"ev\":\"read_started\",\"read\":41,\"path\":\"/a \\\"b\\\"\\n\"}\n"
        );
    }

    #[test]
    fn metrics_snapshot_orders_keys_lexicographically() {
        let sink = TelemetrySink::recording();
        sink.counter_add("z.last", 2);
        sink.counter_add("a.first", 1);
        sink.gauge_set("m.middle", 1.5);
        sink.observe("h.lat", 3.0);
        sink.observe("h.lat", 9.0);
        let snap = sink.snapshot_json(SimTime::from_secs(10)).unwrap();
        let a = snap.find("a.first").unwrap();
        let z = snap.find("z.last").unwrap();
        assert!(a < z, "counters must serialize sorted: {snap}");
        assert!(snap.starts_with("{\"t_ns\":10000000000,"));
        assert!(snap.contains("\"m.middle\":1.5"));
        assert!(snap.contains("\"h.lat\":{\"count\":2,\"sum\":12,"));
        assert!(
            snap.contains("\"p50\":4,\"p95\":9,\"p99\":9,"),
            "histogram snapshots carry percentile estimates: {snap}"
        );
    }

    #[test]
    fn histogram_buckets_are_fixed_power_of_two() {
        let mut h = MetricHistogram::default();
        h.observe(0.5); // bucket 0
        h.observe(1.0); // bucket 0
        h.observe(2.0); // bucket 1
        h.observe(3.0); // bucket 2
        h.observe(1024.0); // bucket 10
        assert_eq!(h.count, 5);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1024.0);
        assert!((h.mean() - 206.1).abs() < 0.1);
    }

    #[test]
    fn percentiles_walk_cumulative_buckets_deterministically() {
        let mut h = MetricHistogram::default();
        assert_eq!(h.percentile(0.5), 0.0, "empty histogram reports 0");
        for _ in 0..90 {
            h.observe(0.5); // bucket 0
        }
        for _ in 0..9 {
            h.observe(3.0); // bucket 2, upper bound 4
        }
        h.observe(100.0); // bucket 7, upper bound 128 → clamped to max
        assert_eq!(h.percentile(0.50), 1.0);
        assert_eq!(h.percentile(0.95), 4.0);
        assert_eq!(h.percentile(1.0), 100.0, "clamped to observed max");
        // p99 lands on the 99th observation, still in the 3.0 bucket.
        assert_eq!(h.percentile(0.99), 4.0);
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let h = MetricHistogram::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 0.0);
        }
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        let mut h = MetricHistogram::default();
        h.observe(37.5);
        // Every quantile's rank clamps to the one observation, and the
        // bucket upper bound (64) clamps to observed max.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 37.5, "q={q}");
        }
    }

    #[test]
    fn percentile_of_all_equal_samples_is_the_common_value() {
        let mut h = MetricHistogram::default();
        for _ in 0..1000 {
            h.observe(6.0);
        }
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 6.0, "q={q}");
        }
        assert_eq!(h.mean(), 6.0);
    }

    #[test]
    fn p99_of_100_samples_uses_nearest_rank_99() {
        // Nearest-rank: rank = ceil(0.99 * 100) = 99 — the 99th
        // observation, NOT the 100th. With 99 samples in bucket 0 and
        // one outlier, p99 must stay in bucket 0.
        let mut h = MetricHistogram::default();
        for _ in 0..99 {
            h.observe(1.0);
        }
        h.observe(1000.0);
        assert_eq!(h.percentile(0.99), 1.0, "rank 99 is still the 1.0 bucket");
        assert_eq!(h.percentile(1.0), 1000.0, "rank 100 walks to the outlier");
        // And the symmetric boundary: 99 outliers push rank 99 up.
        let mut h2 = MetricHistogram::default();
        h2.observe(1.0);
        for _ in 0..99 {
            h2.observe(1000.0);
        }
        assert_eq!(h2.percentile(0.99), 1000.0);
    }

    #[test]
    fn histogram_from_parts_roundtrips_exactly() {
        let mut h = MetricHistogram::default();
        for v in [0.5, 3.0, 3.0, 700.0] {
            h.observe(v);
        }
        let rebuilt =
            MetricHistogram::from_parts(h.count, h.sum, h.min, h.max, h.buckets().to_vec());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.percentile(0.99), h.percentile(0.99));
    }

    #[test]
    fn restored_registry_snapshots_identically() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("c.one", 5);
        reg.gauge_set("g.two", -1.25);
        reg.observe("h.three", 9.0);

        let mut restored = MetricsRegistry::default();
        for (k, v) in reg.counters() {
            restored.restore_counter(k, v);
        }
        for (k, v) in reg.gauges() {
            restored.restore_gauge(k, v);
        }
        for (k, h) in reg.histograms() {
            restored.restore_histogram(
                k,
                MetricHistogram::from_parts(h.count, h.sum, h.min, h.max, h.buckets().to_vec()),
            );
        }
        let now = SimTime::from_secs(3);
        assert_eq!(restored.snapshot_json(now), reg.snapshot_json(now));
        // Owned keys must keep accumulating under the same name as
        // borrowed ones (Cow lookup transparency).
        restored.counter_add("c.one", 1);
        assert_eq!(restored.counter("c.one"), 6);
    }

    #[test]
    fn counter_and_gauge_readback() {
        let sink = TelemetrySink::recording();
        sink.counter_add("c", 3);
        sink.counter_add("c", 4);
        sink.gauge_set("g", 1.0);
        sink.gauge_set("g", -2.5);
        assert_eq!(sink.with_metrics(|m| m.counter("c")), Some(7));
        assert_eq!(sink.with_metrics(|m| m.gauge("g")), Some(Some(-2.5)));
        assert_eq!(sink.with_metrics(|m| m.counter("missing")), Some(0));
    }

    #[test]
    fn non_finite_gauges_serialize_as_null() {
        let sink = TelemetrySink::recording();
        sink.gauge_set("bad", f64::NAN);
        let snap = sink.snapshot_json(SimTime::ZERO).unwrap();
        assert!(snap.contains("\"bad\":null"));
    }
}
