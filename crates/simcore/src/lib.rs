//! `simcore` — foundation for the ERMS reproduction's discrete-event
//! simulations.
//!
//! The crate contains no HDFS- or ERMS-specific *logic*; it provides
//! the things every substrate in the workspace needs:
//!
//! * [`time`] — a nanosecond-resolution simulated clock ([`SimTime`],
//!   [`SimDuration`]) with total ordering and saturating arithmetic,
//! * [`arena`] — generational arenas ([`arena::Arena`],
//!   [`arena::Handle`]) backing the columnar, dense-id state tables of
//!   the simulators; stale handles are detected, never silently re-read,
//! * [`queue`] — a deterministic, cancellable event queue
//!   ([`EventQueue`]),
//! * [`rng`] — seeded, reproducible random sources and the heavy-tailed
//!   distributions the workloads are built from,
//! * [`stats`] — online statistics, histograms, CDF and time-series
//!   recorders used by every experiment harness,
//! * [`telemetry`] — a zero-cost-when-disabled structured event tracer
//!   ([`telemetry::TelemetrySink`], the [`trace!`] macro) plus a
//!   metrics registry with deterministic snapshot order. The event
//!   vocabulary is domain-shaped but carries only primitive fields, so
//!   `simcore` stays dependency-free at the bottom of the DAG,
//! * [`profiler`] — a zero-cost-when-disabled hierarchical wall-clock
//!   self-profiler ([`prof_scope!`]) whose snapshot *shape* is
//!   deterministic while its timing weights are host-dependent,
//! * [`spans`] — the read side of the trace: a JSONL decoder, a
//!   [`spans::SpanCollector`] that pairs events into causal spans by
//!   correlation id, and an online invariant oracle
//!   ([`spans::oracle::TraceOracle`]) that checks a trace against the
//!   system's own rules event by event.
//!
//! Determinism is a design requirement: two runs with the same seed must
//! produce byte-identical figure output, so the event queue breaks time
//! ties by insertion sequence and all randomness flows through [`rng::DetRng`].
//!
//! ```
//! use simcore::{EventQueue, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_secs(2), "flow done");
//! let boot = queue.schedule(SimTime::from_secs(1), "node booted");
//! queue.cancel(boot); // lazy O(1) cancellation
//! assert_eq!(queue.pop(), Some((SimTime::from_secs(2), "flow done")));
//! assert_eq!(queue.now(), SimTime::from_secs(2));
//! ```

pub mod arena;
pub mod profiler;
pub mod queue;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod units;

pub use arena::{Arena, Handle};
pub use queue::{EventId, EventQueue};
pub use rng::DetRng;
pub use spans::{SpanCollector, SpanKind, SpanReport};
pub use telemetry::{Event as TelemetryEvent, MetricsRegistry, TelemetrySink, TracedEvent};
pub use time::{SimDuration, SimTime};
