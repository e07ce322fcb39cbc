//! `cep` — a complex event processing engine.
//!
//! ERMS distinguishes hot / cooled / normal / cold data **in real time**
//! by streaming HDFS audit-log records through a CEP engine (paper
//! Section III.C). This crate is that engine:
//!
//! * [`event`] — timestamped events with typed fields,
//! * [`window`] — the two sliding windows the paper names: the **time
//!   window** (`win:time(t_w)`) and the **length window** (`win:length(N)`),
//! * [`query`] — continuous queries: filter → window → group-by →
//!   aggregate → having, evaluated incrementally per arriving event,
//! * [`engine`] — registration, event routing and subscriptions,
//! * [`audit`] — the HDFS audit-log parser (the paper's hand-written
//!   "log parser" that turns raw log lines into CEP events).
//!
//! The engine is single-threaded and driven by the simulation clock;
//! determinism matters more here than parallel throughput, and the
//! throughput benches show it comfortably exceeds the audit-log rates a
//! simulated cluster generates.
//!
//! ```
//! use cep::{CepEngine, Predicate, QuerySpec, Value};
//! use simcore::{SimDuration, SimTime};
//!
//! let mut engine = CepEngine::new();
//! // opens per file over a 60 s sliding window
//! let per_file = engine.register(QuerySpec {
//!     predicates: vec![Predicate::Eq("cmd".into(), Value::str("open"))],
//!     ..QuerySpec::count_per_group("audit", "src", SimDuration::from_secs(60))
//! });
//! // the paper's pipeline: raw HDFS audit text → parser → CEP
//! let line = "12.5 FSNamesystem.audit: allowed=true ugi=alice \
//!             ip=/10.0.0.7 cmd=open src=/data/f dst=null perm=null";
//! let event = cep::audit::parse_line(line).unwrap();
//! engine.push(&event);
//! assert_eq!(engine.value_for(per_file, SimTime::from_secs(13), "/data/f"), 1.0);
//! ```

pub mod audit;
pub mod engine;
pub mod event;
pub mod fnv;
pub mod pattern;
pub mod query;
pub mod window;

pub use engine::{CepEngine, QueryId, Row};
pub use event::{Event, Value};
pub use pattern::{EventFilter, FollowedBy, PatternMatch, PatternState};
pub use query::{AggFn, Comparison, Predicate, QuerySpec, WindowSpec};
