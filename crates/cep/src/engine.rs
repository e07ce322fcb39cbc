//! Event routing, query registration and subscriptions.
//!
//! The engine is the piece ERMS talks to: register queries (built as
//! [`QuerySpec`] values), push every audit event at it, and
//! either poll grouped rows or subscribe a callback that fires whenever
//! a query's HAVING clause admits a row for the arriving event's group.

use crate::event::Event;
use crate::pattern::{FollowedBy, PatternMatch, PatternState};
use crate::query::{GroupRow, QuerySpec, QueryState};
use simcore::telemetry::{Event as TelemetryEvent, TelemetrySink};
use simcore::{trace, SimTime};
use std::collections::BTreeMap;

/// Handle to a registered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(u64);

/// Handle to a registered sequence pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternId(u64);

/// A fired subscription row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub query: QueryId,
    pub time: SimTime,
    pub group: String,
    pub value: f64,
}

type Callback = Box<dyn FnMut(&Row)>;

/// The CEP engine.
#[derive(Default)]
pub struct CepEngine {
    queries: BTreeMap<QueryId, QueryState>,
    subscriptions: BTreeMap<QueryId, Vec<Callback>>,
    patterns: BTreeMap<PatternId, (PatternState, Vec<PatternMatch>)>,
    next_id: u64,
    events_seen: u64,
    telemetry: TelemetrySink,
}

impl CepEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a telemetry sink; every subscription row the engine fires
    /// is then traced as a `window_emit` event.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Register a query; returns its handle.
    pub fn register(&mut self, spec: QuerySpec) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.queries.insert(id, QueryState::new(spec));
        id
    }

    /// Remove a query (and its subscriptions).
    pub fn unregister(&mut self, id: QueryId) {
        self.queries.remove(&id);
        self.subscriptions.remove(&id);
    }

    /// Register a sequence pattern ("A followed by B within t").
    pub fn register_pattern(&mut self, spec: FollowedBy) -> PatternId {
        let id = PatternId(self.next_id);
        self.next_id += 1;
        self.patterns
            .insert(id, (PatternState::new(spec), Vec::new()));
        id
    }

    /// Take the matches a pattern produced since the last drain.
    pub fn drain_matches(&mut self, id: PatternId) -> Vec<PatternMatch> {
        self.patterns
            .get_mut(&id)
            .map(|(_, buf)| std::mem::take(buf))
            .unwrap_or_default()
    }

    /// Attach a callback fired when an arriving event makes the query
    /// emit a row for that event's group (requires a HAVING clause to be
    /// selective; without one it fires on every accepted event).
    pub fn subscribe<F>(&mut self, id: QueryId, callback: F)
    where
        F: FnMut(&Row) + 'static,
    {
        self.subscriptions
            .entry(id)
            .or_default()
            .push(Box::new(callback));
    }

    /// Push one event through every registered query and pattern.
    pub fn push(&mut self, event: &Event) {
        self.events_seen += 1;
        for (state, buf) in self.patterns.values_mut() {
            buf.extend(state.offer(event));
        }
        let mut fired: Vec<Row> = Vec::new();
        for (&id, state) in self.queries.iter_mut() {
            if !state.offer(event) {
                continue;
            }
            if !self.subscriptions.contains_key(&id) {
                continue;
            }
            // Evaluate only the arriving event's group: subscriptions are
            // per-trigger, polling covers whole-table reads.
            let group_key = match &state.spec.group_by {
                Some(field) => match event.get(field) {
                    Some(v) => v.to_string(),
                    None => continue,
                },
                None => String::new(),
            };
            let value = state.value_for(event.time, &group_key);
            if state.spec.having.is_none_or(|h| h.test(value)) {
                fired.push(Row {
                    query: id,
                    time: event.time,
                    group: group_key,
                    value,
                });
            }
        }
        if !fired.is_empty() {
            for row in &fired {
                trace!(
                    self.telemetry,
                    row.time,
                    TelemetryEvent::WindowEmit {
                        query: self
                            .queries
                            .get(&row.query)
                            .and_then(|s| s.spec.from.clone())
                            .unwrap_or_default(),
                        group: row.group.clone(),
                        value: row.value,
                    }
                );
            }
            self.telemetry
                .counter_add("cep.windows_emitted", fired.len() as u64);
        }
        for row in &fired {
            if let Some(callbacks) = self.subscriptions.get_mut(&row.query) {
                for cb in callbacks.iter_mut() {
                    cb(row);
                }
            }
        }
    }

    /// Poll the current grouped rows of a query at `now`.
    pub fn rows(&mut self, id: QueryId, now: SimTime) -> Vec<GroupRow> {
        self.queries
            .get_mut(&id)
            .map(|q| q.rows(now))
            .unwrap_or_default()
    }

    /// Current aggregate for one group of a query. Polled reads are the
    /// other half of window delivery (subscriptions being the first), so
    /// each one is traced as a [`TelemetryEvent::WindowEmit`].
    pub fn value_for(&mut self, id: QueryId, now: SimTime, key: &str) -> f64 {
        let Some(q) = self.queries.get_mut(&id) else {
            return 0.0;
        };
        let value = q.value_for(now, key);
        trace!(
            self.telemetry,
            now,
            TelemetryEvent::WindowEmit {
                query: q.spec.from.clone().unwrap_or_default(),
                group: key.to_string(),
                value,
            }
        );
        value
    }

    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }
}

impl checkpoint::Checkpointable for CepEngine {
    // Rebuild-then-hydrate: ids are assigned sequentially at registration,
    // so a restored engine must re-register the same queries and patterns
    // in the same order before loading. Subscriptions (closures) and the
    // telemetry sink are re-attached by the caller, never serialized.
    fn save_state(&self) -> checkpoint::Value {
        use checkpoint::codec::MapBuilder;
        use checkpoint::Value;
        MapBuilder::new()
            .u64("next_id", self.next_id)
            .u64("events_seen", self.events_seen)
            .seq(
                "queries",
                self.queries
                    .iter()
                    .map(|(id, q)| Value::Seq(vec![Value::U64(id.0), q.save_state()]))
                    .collect(),
            )
            .seq(
                "patterns",
                self.patterns
                    .iter()
                    .map(|(id, (p, buf))| {
                        Value::Seq(vec![
                            Value::U64(id.0),
                            p.save_state(),
                            Value::Seq(
                                buf.iter()
                                    .map(|m| {
                                        Value::Seq(vec![
                                            crate::event::ck::event(&m.first),
                                            crate::event::ck::event(&m.second),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ])
                    })
                    .collect(),
            )
            .build()
    }

    fn load_state(&mut self, state: &checkpoint::Value) -> Result<(), checkpoint::CheckpointError> {
        use checkpoint::codec as c;
        use checkpoint::CheckpointError;
        let queries = c::get_seq(state, "queries")?;
        if queries.len() != self.queries.len() {
            return Err(CheckpointError::Corrupt(format!(
                "snapshot has {} queries, engine has {} registered",
                queries.len(),
                self.queries.len()
            )));
        }
        for entry in queries {
            let pair = c::as_seq(entry, "queries[]")?;
            if pair.len() != 2 {
                return Err(CheckpointError::Corrupt(
                    "query entry is not [id, state]".into(),
                ));
            }
            let id = QueryId(c::as_u64(&pair[0], "query id")?);
            let q = self.queries.get_mut(&id).ok_or_else(|| {
                CheckpointError::Corrupt(format!("snapshot query {} is not registered", id.0))
            })?;
            q.load_state(&pair[1])?;
        }
        let patterns = c::get_seq(state, "patterns")?;
        if patterns.len() != self.patterns.len() {
            return Err(CheckpointError::Corrupt(format!(
                "snapshot has {} patterns, engine has {} registered",
                patterns.len(),
                self.patterns.len()
            )));
        }
        for entry in patterns {
            let parts = c::as_seq(entry, "patterns[]")?;
            if parts.len() != 3 {
                return Err(CheckpointError::Corrupt(
                    "pattern entry is not [id, state, matches]".into(),
                ));
            }
            let id = PatternId(c::as_u64(&parts[0], "pattern id")?);
            let (p, buf) = self.patterns.get_mut(&id).ok_or_else(|| {
                CheckpointError::Corrupt(format!("snapshot pattern {} is not registered", id.0))
            })?;
            p.load_state(&parts[1])?;
            buf.clear();
            for m in c::as_seq(&parts[2], "pattern matches")? {
                let pair = c::as_seq(m, "match")?;
                if pair.len() != 2 {
                    return Err(CheckpointError::Corrupt(
                        "pattern match is not [first, second]".into(),
                    ));
                }
                buf.push(PatternMatch {
                    first: crate::event::ck::event_back(&pair[0])?,
                    second: crate::event::ck::event_back(&pair[1])?,
                });
            }
        }
        self.next_id = c::get_u64(state, "next_id")?;
        self.events_seen = c::get_u64(state, "events_seen")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Comparison;
    use simcore::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn access(t: u64, path: &str) -> Event {
        Event::new(SimTime::from_secs(t), "audit")
            .with("cmd", "open")
            .with("src", path)
    }

    #[test]
    fn register_push_poll() {
        let mut eng = CepEngine::new();
        let q = eng.register(QuerySpec::count_per_group(
            "audit",
            "src",
            SimDuration::from_secs(60),
        ));
        for p in ["/a", "/a", "/b"] {
            eng.push(&access(1, p));
        }
        let rows = eng.rows(q, SimTime::from_secs(1));
        assert_eq!(rows.len(), 2);
        assert_eq!(eng.value_for(q, SimTime::from_secs(1), "/a"), 2.0);
        assert_eq!(eng.events_seen(), 3);
    }

    #[test]
    fn subscription_fires_on_threshold() {
        let mut eng = CepEngine::new();
        let mut spec = QuerySpec::count_per_group("audit", "src", SimDuration::from_secs(60));
        spec.having = Some(Comparison::Ge(3.0));
        let q = eng.register(spec);
        let fired: Rc<RefCell<Vec<Row>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = fired.clone();
        eng.subscribe(q, move |row| sink.borrow_mut().push(row.clone()));

        eng.push(&access(0, "/cold_path_accessed_once"));
        for t in 0..5u64 {
            eng.push(&access(t, "/hot"));
        }
        let fired = fired.borrow();
        // /hot fires on its 3rd, 4th, 5th access; the other path never
        assert_eq!(fired.len(), 3);
        assert!(fired.iter().all(|r| r.group == "/hot"));
        assert_eq!(fired[0].value, 3.0);
        assert_eq!(fired[2].value, 5.0);
    }

    #[test]
    fn multiple_queries_route_independently() {
        let mut eng = CepEngine::new();
        let by_src = eng.register(QuerySpec::count_per_group(
            "audit",
            "src",
            SimDuration::from_secs(60),
        ));
        let blocks = eng.register(QuerySpec::count_per_group(
            "block_read",
            "blk",
            SimDuration::from_secs(60),
        ));
        eng.push(&access(0, "/a"));
        eng.push(&Event::new(SimTime::from_secs(0), "block_read").with("blk", "blk_1"));
        assert_eq!(eng.rows(by_src, SimTime::ZERO).len(), 1);
        assert_eq!(eng.rows(blocks, SimTime::ZERO).len(), 1);
        assert_eq!(eng.query_count(), 2);
    }

    #[test]
    fn unregister_stops_routing() {
        let mut eng = CepEngine::new();
        let q = eng.register(QuerySpec::count_per_group(
            "audit",
            "src",
            SimDuration::from_secs(60),
        ));
        eng.unregister(q);
        eng.push(&access(0, "/a"));
        assert!(eng.rows(q, SimTime::ZERO).is_empty());
        assert_eq!(eng.query_count(), 0);
    }

    #[test]
    fn ungrouped_subscription_fires_under_empty_key() {
        // An ungrouped query has exactly one row, keyed "". The
        // subscription path (push → value_for(.., "")) and the polling
        // path (rows / value_for) must agree on that key: "" reads the
        // whole-window aggregate, any other key reads 0.0.
        let mut eng = CepEngine::new();
        let spec = QuerySpec {
            from: Some("audit".into()),
            predicates: vec![],
            window: crate::query::WindowSpec::Time(SimDuration::from_secs(60)),
            group_by: None,
            aggregate: crate::query::AggFn::Count,
            having: Some(Comparison::Ge(2.0)),
        };
        let q = eng.register(spec);
        let fired: Rc<RefCell<Vec<Row>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = fired.clone();
        eng.subscribe(q, move |row| sink.borrow_mut().push(row.clone()));

        eng.push(&access(0, "/a"));
        eng.push(&access(1, "/b"));
        eng.push(&access(2, "/c"));

        let fired = fired.borrow();
        assert_eq!(fired.len(), 2, "fires on the 2nd and 3rd event");
        assert!(fired.iter().all(|r| r.group.is_empty()));
        assert_eq!(fired[1].value, 3.0);

        let now = SimTime::from_secs(2);
        let rows = eng.rows(q, now);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key.as_ref(), "");
        assert_eq!(rows[0].value, 3.0);
        assert_eq!(eng.value_for(q, now, ""), 3.0);
        // Keys naming no row must not alias the global aggregate.
        assert_eq!(eng.value_for(q, now, "/a"), 0.0);
    }

    #[test]
    fn checkpoint_round_trip_resumes_identically() {
        use crate::pattern::{EventFilter, FollowedBy};
        use crate::query::Predicate;
        use checkpoint::Checkpointable;

        // Same registration sequence both times (rebuild-then-hydrate).
        let build = || {
            let mut eng = CepEngine::new();
            let mut hot = QuerySpec::count_per_group("audit", "src", SimDuration::from_secs(60));
            hot.having = Some(Comparison::Ge(2.0));
            let q_hot = eng.register(hot);
            let q_blk = eng.register(QuerySpec::count_per_group(
                "block_read",
                "blk",
                SimDuration::from_secs(30),
            ));
            let pat = eng.register_pattern(FollowedBy {
                first: EventFilter::of_type("audit").with(Predicate::Eq(
                    "cmd".into(),
                    crate::event::Value::str("open"),
                )),
                second: EventFilter::of_type("block_read"),
                within: SimDuration::from_secs(120),
                key_field: Some("src".into()),
            });
            (eng, q_hot, q_blk, pat)
        };
        let feed = |eng: &mut CepEngine, range: std::ops::Range<u64>| {
            for t in range {
                eng.push(&access(t, if t % 3 == 0 { "/a" } else { "/b" }));
                eng.push(
                    &Event::new(SimTime::from_secs(t), "block_read")
                        .with("blk", format!("blk_{}", t % 4))
                        .with("src", "/a"),
                );
            }
        };

        let (mut live, q_hot, q_blk, pat) = build();
        feed(&mut live, 0..40);

        let json = serde_json::to_string(&live.save_state()).unwrap();
        let (mut restored, ..) = build();
        restored
            .load_state(&serde_json::parse_value(&json).unwrap())
            .unwrap();

        // Continue both engines over identical input and compare outputs.
        feed(&mut live, 40..80);
        feed(&mut restored, 40..80);
        let now = SimTime::from_secs(80);
        for q in [q_hot, q_blk] {
            assert_eq!(live.rows(q, now), restored.rows(q, now));
        }
        assert_eq!(
            live.value_for(q_hot, now, "/a"),
            restored.value_for(q_hot, now, "/a")
        );
        assert_eq!(live.events_seen(), restored.events_seen());
        assert_eq!(live.drain_matches(pat), restored.drain_matches(pat));
    }

    #[test]
    fn checkpoint_rejects_mismatched_registration() {
        use checkpoint::Checkpointable;
        let mut eng = CepEngine::new();
        eng.register(QuerySpec::count_per_group(
            "audit",
            "src",
            SimDuration::from_secs(60),
        ));
        let saved = eng.save_state();
        let mut empty = CepEngine::new();
        let err = empty.load_state(&saved).unwrap_err();
        assert!(matches!(err, checkpoint::CheckpointError::Corrupt(_)));
    }

    #[test]
    fn window_decay_drops_counts() {
        let mut eng = CepEngine::new();
        let q = eng.register(QuerySpec::count_per_group(
            "audit",
            "src",
            SimDuration::from_secs(10),
        ));
        eng.push(&access(0, "/a"));
        eng.push(&access(1, "/a"));
        assert_eq!(eng.value_for(q, SimTime::from_secs(1), "/a"), 2.0);
        // long silence → everything expires
        assert_eq!(eng.value_for(q, SimTime::from_secs(100), "/a"), 0.0);
    }
}
