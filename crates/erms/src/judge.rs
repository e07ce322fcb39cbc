//! The Data Judge Module.
//!
//! "The Data Judge Module obtains system metrics from HDFS clusters and
//! uses CEP to distinguish current data types in real-time." Audit
//! records go in; per-file classifications come out. [`DataJudge::observe`]
//! is the paper's "translate the log records into events" step: it turns
//! each typed record into the CEP event `cep::audit::parse_line` reads
//! from the record's rendered line (restricted to the fields the queries
//! use). The module keeps three continuous queries over the sliding
//! window `t_w`:
//!
//! * accesses per file (`N_d`, from every namenode record on the path:
//!   `create`, `open`, `delete` and `setReplication`, including the
//!   `setReplication` records ERMS's own replica changes emit),
//! * accesses per block (`N_b`, from datanode client-trace records),
//! * accesses per datanode (Formula (4)'s left-hand side), plus a
//!   derived per-(datanode,file) stream so an overloaded node can name
//!   "the data D that contributes the largest access" to it.
//!
//! Classification implements Formulas (1)–(6) verbatim; thresholds come
//! from [`crate::thresholds::Thresholds`]. The formulas themselves live
//! in [`classify_with_rules`], a free function over the `policy` crate's
//! [`CepProbe`] view of the windowed counts, so the same decision logic
//! serves both [`DataJudge::classify`] and the [`RulesPolicy`] backend
//! the manager drives through the [`JudgePolicy`] trait.

use crate::config::ConfigError;
use crate::thresholds::Thresholds;
use cep::audit::{AUDIT_EVENT, BLOCK_EVENT};
use cep::pattern::{EventFilter, FollowedBy};
use cep::query::Predicate;
use cep::{CepEngine, Event, QuerySpec, Value};
use hdfs_sim::audit::{AuditOp, AuditRecord};
use simcore::telemetry::TelemetrySink;
use simcore::{SimDuration, SimTime};
use std::collections::HashSet;
use std::sync::Arc;

pub use policy::{
    CepProbe, DataClass, FileSnapshot, JudgeBackend, JudgePolicy, JudgeRule, Judgment, RewardMeters,
};

/// CEP-backed data-type judge.
pub struct DataJudge {
    engine: CepEngine,
    q_file: cep::QueryId,
    q_block: cep::QueryId,
    q_node: cep::QueryId,
    q_node_file: cep::QueryId,
    /// `create → open` correlation: fresh data drawing immediate reads.
    p_fresh: cep::engine::PatternId,
    thresholds: Thresholds,
    /// Intern pool for event field values: each recurring path, block
    /// and node name is one shared `Arc`, which the CEP group tables'
    /// pointer memo relies on. Excluded from checkpoints.
    pool: HashSet<Arc<str>, cep::fnv::FnvBuildHasher>,
    /// Scratch for rendering block and node names, in record
    /// translation and in the [`CepProbe`] impl; excluded from
    /// checkpoints.
    scratch: String,
}

/// Synthetic event type carrying the (datanode, file) composite key.
const NODE_FILE_EVENT: &str = "block_read_by_node";

/// Cap on distinct pooled values; past it new values are allocated per
/// event instead, so a long run's churn of paths cannot grow the pool
/// without bound.
const INTERN_CAP: usize = 1 << 20;

impl DataJudge {
    /// Build a judge, panicking on invalid thresholds. Thin wrapper
    /// over [`try_new`](Self::try_new) for tests and callers holding
    /// already-validated thresholds; the manager goes through the
    /// fallible path.
    pub fn new(thresholds: Thresholds) -> Self {
        Self::try_new(thresholds).expect("valid thresholds")
    }

    /// Build a judge, returning the typed [`ConfigError`] when the
    /// thresholds are inconsistent instead of panicking.
    pub fn try_new(thresholds: Thresholds) -> Result<Self, ConfigError> {
        thresholds.validate()?;
        let w = thresholds.window;
        let mut engine = CepEngine::new();
        let q_file = engine.register(count_query(AUDIT_EVENT, "src", w));
        let q_block = engine.register(count_query(BLOCK_EVENT, "blk", w));
        let q_node = engine.register(count_query(BLOCK_EVENT, "dn", w));
        let q_node_file = engine.register(count_query(NODE_FILE_EVENT, "dn_src", w));
        // "popularity spikes when the data is freshest": a create followed
        // quickly by an open on the same path flags a fresh-data spike
        let p_fresh = engine.register_pattern(FollowedBy {
            first: EventFilter::of_type(AUDIT_EVENT)
                .with(Predicate::Eq("cmd".into(), Value::str("create"))),
            second: EventFilter::of_type(AUDIT_EVENT)
                .with(Predicate::Eq("cmd".into(), Value::str("open"))),
            within: w,
            key_field: Some("src".into()),
        });
        Ok(DataJudge {
            engine,
            q_file,
            q_block,
            q_node,
            q_node_file,
            p_fresh,
            thresholds,
            pool: HashSet::default(),
            scratch: String::new(),
        })
    }

    /// Install a telemetry sink on the underlying CEP engine so every
    /// fired window row is traced.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.engine.set_telemetry(sink);
    }

    pub fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }
    pub fn thresholds_mut(&mut self) -> &mut Thresholds {
        &mut self.thresholds
    }
    pub fn events_seen(&self) -> u64 {
        self.engine.events_seen()
    }

    /// Feed audit records into the CEP windows (the paper's "translate
    /// the log records into events" step). A block read also yields a
    /// derived per-(datanode, file) event, pushed before the block event
    /// itself.
    pub fn observe(&mut self, records: &[AuditRecord]) {
        for rec in records {
            let (derived, event) = {
                simcore::prof_scope!("cep/parse");
                self.events_for(rec)
            };
            if let Some(derived) = derived {
                self.engine.push(&derived);
            }
            self.engine.push(&event);
        }
    }

    /// Translate one record into its CEP event — the fields the queries
    /// read (`blk`, `cmd`, `dn`, `src`), as `cep::audit::parse_line`
    /// reads them from the rendered line — plus, for a block read, the
    /// derived `dn|src` event. Paths are absolute, so `src` is always a
    /// string, as the parser classifies it.
    fn events_for(&mut self, rec: &AuditRecord) -> (Option<Event>, Event) {
        match rec.op {
            AuditOp::Namenode { cmd, .. } => {
                let mut event = self.event(rec.time, AUDIT_EVENT);
                self.field(&mut event, "cmd", cmd.as_str());
                self.field(&mut event, "src", &rec.path);
                (None, event)
            }
            AuditOp::BlockRead { block, node, .. } => {
                let mut event = self.event(rec.time, BLOCK_EVENT);
                self.field(&mut event, "cmd", "read_block");
                self.field_fmt(&mut event, "blk", format_args!("{block}"));
                self.field_fmt(&mut event, "dn", format_args!("{node}"));
                self.field(&mut event, "src", &rec.path);
                let mut derived = self.event(rec.time, NODE_FILE_EVENT);
                self.field_fmt(&mut derived, "dn_src", format_args!("{node}|{}", rec.path));
                (Some(derived), event)
            }
        }
    }

    fn event(&mut self, time: SimTime, event_type: &str) -> Event {
        Event::new_interned(time, self.intern(event_type), 4)
    }

    fn field(&mut self, event: &mut Event, key: &str, value: &str) {
        let key = self.intern(key);
        let value = Value::Str(self.intern(value));
        event.set_interned(key, value);
    }

    /// [`field`](Self::field) with the value rendered into the scratch
    /// buffer, so a pooled name costs no allocation.
    fn field_fmt(&mut self, event: &mut Event, key: &str, value: std::fmt::Arguments<'_>) {
        let mut buf = std::mem::take(&mut self.scratch);
        render(&mut buf, value);
        self.field(event, key, &buf);
        self.scratch = buf;
    }

    /// The pooled `Arc` for `s`, added while the pool is under
    /// [`INTERN_CAP`].
    fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(hit) = self.pool.get(s) {
            return hit.clone();
        }
        let fresh: Arc<str> = Arc::from(s);
        if self.pool.len() < INTERN_CAP {
            self.pool.insert(fresh.clone());
        }
        fresh
    }

    /// Paths whose creation was followed by reads within the window —
    /// fresh data spiking in popularity. Drains the pattern's matches;
    /// the manager may pre-warm these before Formula (1) trips.
    pub fn freshly_popular(&mut self) -> Vec<String> {
        let mut paths: Vec<String> = self
            .engine
            .drain_matches(self.p_fresh)
            .into_iter()
            .filter_map(|m| m.second.get("src").map(|v| v.to_string()))
            .collect();
        paths.sort_unstable();
        paths.dedup();
        paths
    }

    /// Windowed `N_d` for a file path.
    pub fn file_accesses(&mut self, now: SimTime, path: &str) -> f64 {
        self.engine.value_for(self.q_file, now, path)
    }

    /// Windowed `N_b` for a block name.
    pub fn block_accesses(&mut self, now: SimTime, blk: &str) -> f64 {
        self.engine.value_for(self.q_block, now, blk)
    }

    /// Classify one file per Formulas (1)–(3), (5), (6).
    pub fn classify(&mut self, now: SimTime, file: &FileSnapshot) -> Judgment {
        let thresholds = self.thresholds.clone();
        classify_with_rules(&thresholds, now, file, self)
    }

    /// Formula (4): datanodes whose windowed session count exceeds τ_DN,
    /// with the file contributing the most accesses on each ("ERMS could
    /// choose the data D that contributes the largest access to DN").
    pub fn overloaded_nodes(&mut self, now: SimTime) -> Vec<(String, String, f64)> {
        let hot_nodes: Vec<(String, f64)> = self
            .engine
            .rows(self.q_node, now)
            .into_iter()
            .filter(|row| row.value > self.thresholds.tau_datanode)
            .map(|row| (row.key.to_string(), row.value))
            .collect();
        let mut out = Vec::new();
        for (dn, load) in hot_nodes {
            let prefix = format!("{dn}|");
            let top = self
                .engine
                .rows(self.q_node_file, now)
                .into_iter()
                .filter(|row| row.key.starts_with(&prefix))
                .max_by(|a, b| {
                    a.value
                        .partial_cmp(&b.value)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| b.key.cmp(&a.key))
                });
            if let Some(row) = top {
                let file = row.key[prefix.len()..].to_string();
                out.push((dn, file, load));
            }
        }
        out
    }
}

impl checkpoint::Checkpointable for DataJudge {
    // Thresholds and the query/pattern registrations are constructor
    // config: a restored judge is built by `DataJudge::new` first (which
    // re-registers the four queries and the freshness pattern in the
    // same deterministic order, yielding identical ids), then hydrated.
    // Only the CEP engine's runtime state is dynamic.
    fn save_state(&self) -> checkpoint::Value {
        checkpoint::codec::MapBuilder::new()
            .put("engine", self.engine.save_state())
            .build()
    }

    fn load_state(&mut self, state: &checkpoint::Value) -> Result<(), checkpoint::CheckpointError> {
        self.engine
            .load_state(checkpoint::codec::get(state, "engine")?)
    }
}

/// The judge reads its own CEP engine through the probe view; the
/// scratch buffer keeps per-block queries allocation-free at steady
/// state. Query order (and therefore `WindowEmit` telemetry order) is
/// exactly the order [`classify_with_rules`] asks in.
impl CepProbe for DataJudge {
    fn file_accesses(&mut self, now: SimTime, path: &str) -> f64 {
        self.engine.value_for(self.q_file, now, path)
    }

    fn block_accesses(&mut self, now: SimTime, block: hdfs_sim::BlockId) -> f64 {
        render(&mut self.scratch, format_args!("{block}"));
        self.engine.value_for(self.q_block, now, &self.scratch)
    }
}

/// Formulas (1)–(3), (5), (6) as a pure decision over probed counts.
///
/// The probe is consulted lazily and in a fixed order — file count
/// first, then each block in order, stopping at the first formula that
/// fires — because each probe call emits `WindowEmit` telemetry and the
/// call order is part of the byte-identical trace contract.
pub fn classify_with_rules(
    t: &Thresholds,
    now: SimTime,
    file: &FileSnapshot,
    probe: &mut dyn CepProbe,
) -> Judgment {
    let r = file.replication.max(1) as f64;
    let (tau_hot, block_burst, block_warm, epsilon, tau_cooled, tau_cold, cold_age) = (
        t.tau_hot,
        t.block_burst,
        t.block_warm,
        t.epsilon,
        t.tau_cooled,
        t.tau_cold,
        t.cold_age,
    );
    // N_d is the file's windowed access count. MapReduce inflates the
    // raw open count by the file's block count (every map task opens
    // the file to read its split), so normalise per block: the result
    // counts *whole-file accesses* (jobs/clients) in the window, which
    // is the concurrency Formula (1) compares against per-replica
    // session capacity.
    let raw_opens = probe.file_accesses(now, &file.path);
    let n_d = raw_opens / file.blocks.len().max(1) as f64;

    // Formula (1): per-replica file pressure
    if n_d / r > tau_hot {
        return judgment(file, DataClass::Hot, n_d, 0.0, JudgeRule::FilePressure);
    }
    // Formulas (2) and (3): per-block pressure
    let n_blocks = file.blocks.len();
    let mut n_b_max = 0.0f64;
    if n_blocks > 0 {
        let mut warm_blocks = 0usize;
        for &b in &file.blocks {
            let n_b = probe.block_accesses(now, b);
            n_b_max = n_b_max.max(n_b);
            if n_b / r > block_burst {
                return judgment(file, DataClass::Hot, n_d, n_b_max, JudgeRule::BlockBurst);
            }
            if n_b / r > block_warm {
                warm_blocks += 1;
            }
        }
        if warm_blocks as f64 / n_blocks as f64 > epsilon {
            return judgment(file, DataClass::Hot, n_d, n_b_max, JudgeRule::WarmFraction);
        }
    }
    // Formula (5): boosted file whose demand fell away
    if file.boosted && n_d / r < tau_cooled {
        return judgment(file, DataClass::Cooled, n_d, n_b_max, JudgeRule::Cooled);
    }
    // Formula (6): quiet and old → cold
    if !file.encoded && n_d / r < tau_cold && now.since(file.last_access) > cold_age {
        return judgment(file, DataClass::Cold, n_d, n_b_max, JudgeRule::ColdAge);
    }
    judgment(file, DataClass::Normal, n_d, n_b_max, JudgeRule::Normal)
}

/// The paper's threshold machine as a [`JudgePolicy`] backend: a
/// stateless wrapper over [`classify_with_rules`] probing the manager's
/// [`DataJudge`]. Stateless because the formulas *are* configuration —
/// everything dynamic (the CEP windows) lives in the judge it probes.
pub struct RulesPolicy {
    thresholds: Thresholds,
}

impl RulesPolicy {
    /// Thresholds are assumed already validated (the manager constructs
    /// the [`DataJudge`] through [`DataJudge::try_new`] first).
    pub fn new(thresholds: Thresholds) -> Self {
        RulesPolicy { thresholds }
    }
}

impl JudgePolicy for RulesPolicy {
    fn backend(&self) -> JudgeBackend {
        JudgeBackend::Rules
    }

    fn classify(
        &mut self,
        now: SimTime,
        file: &FileSnapshot,
        _fresh: bool,
        probe: &mut dyn CepProbe,
    ) -> Judgment {
        classify_with_rules(&self.thresholds, now, file, probe)
    }
}

impl checkpoint::Checkpointable for RulesPolicy {
    fn save_state(&self) -> checkpoint::Value {
        // stateless: the thresholds are rebuilt from scenario config
        checkpoint::codec::MapBuilder::new().build()
    }

    fn load_state(
        &mut self,
        _state: &checkpoint::Value,
    ) -> Result<(), checkpoint::CheckpointError> {
        Ok(())
    }
}

/// Overwrite `buf` with the formatted `args`.
fn render(buf: &mut String, args: std::fmt::Arguments<'_>) {
    use std::fmt::Write as _;
    buf.clear();
    buf.write_fmt(args)
        .expect("writing to a String cannot fail");
}

fn count_query(event_type: &str, field: &str, window: SimDuration) -> QuerySpec {
    QuerySpec::count_per_group(event_type, field, window)
}

fn judgment(
    file: &FileSnapshot,
    class: DataClass,
    n_d: f64,
    n_b_max: f64,
    rule: JudgeRule,
) -> Judgment {
    Judgment {
        path: file.path.clone(),
        class,
        n_d,
        n_b_max,
        rule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdfs_sim::audit::AuditCmd;
    use hdfs_sim::topology::{ClientId, Endpoint};
    use hdfs_sim::{BlockId, NodeId};
    use proptest::prelude::*;

    fn snapshot(path: &str, r: usize, blocks: &[u64]) -> FileSnapshot {
        FileSnapshot {
            id: hdfs_sim::FileId(0),
            path: path.into(),
            replication: r,
            blocks: blocks.iter().map(|&b| BlockId(b)).collect(),
            last_access: SimTime::ZERO,
            boosted: false,
            encoded: false,
        }
    }

    fn nn_rec(t: u64, cmd: AuditCmd, path: &str) -> AuditRecord {
        AuditRecord {
            time: SimTime::from_secs(t),
            path: path.into(),
            op: AuditOp::Namenode {
                cmd,
                reader: Endpoint::Client(ClientId(1)),
            },
        }
    }

    fn open_rec(t: u64, path: &str) -> AuditRecord {
        nn_rec(t, AuditCmd::Open, path)
    }

    fn block_rec(t: u64, blk: u64, dn: u32, path: &str) -> AuditRecord {
        AuditRecord {
            time: SimTime::from_secs(t),
            path: path.into(),
            op: AuditOp::BlockRead {
                block: BlockId(blk),
                node: NodeId(dn),
                bytes: 64 << 20,
            },
        }
    }

    fn judge() -> DataJudge {
        DataJudge::new(Thresholds::calibrate(4.0)) // τ_M=4, M_M=6, M_m=3, τ_d=2, τ_m=0.5
    }

    #[test]
    fn rule1_file_pressure_makes_hot() {
        let mut j = judge();
        let file = snapshot("/hot", 3, &[1]);
        // 13 whole-file opens / r=3 ≈ 4.3 > τ_M=4 → hot via (1)
        let records: Vec<AuditRecord> = (0..13).map(|i| open_rec(10 + i, "/hot")).collect();
        j.observe(&records);
        let v = j.classify(SimTime::from_secs(30), &file);
        assert_eq!(v.class, DataClass::Hot);
        assert_eq!(v.rule, JudgeRule::FilePressure);
        assert_eq!(v.n_d, 13.0);
    }

    #[test]
    fn rule2_block_burst_makes_hot() {
        let mut j = judge();
        let file = snapshot("/f", 1, &[7, 8]);
        // 2 opens (N_d/r = 2, not hot by (1)); block 7 bursts: 7 reads > M_M=6
        let mut records = vec![open_rec(1, "/f"), open_rec(2, "/f")];
        for i in 0..7 {
            records.push(block_rec(3 + i, 7, 0, "/f"));
        }
        j.observe(&records);
        let v = j.classify(SimTime::from_secs(20), &file);
        assert_eq!(v.class, DataClass::Hot);
        assert_eq!(v.rule, JudgeRule::BlockBurst);
    }

    #[test]
    fn rule3_many_warm_blocks_make_hot() {
        let mut j = judge();
        let file = snapshot("/f", 1, &[1, 2, 3]);
        // two of three blocks get 4 reads each (> M_m=3, ≤ M_M=6);
        // 2/3 > ε=0.3 → hot via (3)
        let mut records = Vec::new();
        for blk in [1u64, 2] {
            for i in 0..4 {
                records.push(block_rec(1 + i, blk, 0, "/f"));
            }
        }
        j.observe(&records);
        let v = j.classify(SimTime::from_secs(20), &file);
        assert_eq!(v.class, DataClass::Hot);
        assert_eq!(v.rule, JudgeRule::WarmFraction);
    }

    #[test]
    fn rule5_boosted_quiet_file_cools() {
        let mut j = judge();
        let mut file = snapshot("/f", 6, &[1]);
        file.boosted = true;
        // 2 accesses / r=6 = 0.33 < τ_d=2 → cooled
        j.observe(&[open_rec(1, "/f"), open_rec(2, "/f")]);
        let v = j.classify(SimTime::from_secs(10), &file);
        assert_eq!(v.class, DataClass::Cooled);
        assert_eq!(v.rule, JudgeRule::Cooled);
        // the same traffic on an unboosted file is just normal
        let plain = snapshot("/f", 6, &[1]);
        let v = j.classify(SimTime::from_secs(10), &plain);
        assert_eq!(v.class, DataClass::Normal);
    }

    #[test]
    fn rule6_old_quiet_file_is_cold() {
        let mut j = judge();
        let mut file = snapshot("/f", 3, &[1]);
        file.last_access = SimTime::from_secs(0);
        // no accesses in window, last touch 2h ago (> cold_age 1h)
        let v = j.classify(SimTime::from_secs(7200), &file);
        assert_eq!(v.class, DataClass::Cold);
        assert_eq!(v.rule, JudgeRule::ColdAge);
        // recently-touched quiet file is NOT cold
        file.last_access = SimTime::from_secs(7000);
        let v = j.classify(SimTime::from_secs(7200), &file);
        assert_eq!(v.class, DataClass::Normal);
        // already-encoded file is never re-classified cold
        file.last_access = SimTime::ZERO;
        file.encoded = true;
        let v = j.classify(SimTime::from_secs(7200), &file);
        assert_eq!(v.class, DataClass::Normal);
    }

    #[test]
    fn window_decay_returns_file_to_normal() {
        let mut j = judge();
        let file = snapshot("/f", 1, &[1]);
        let records: Vec<AuditRecord> = (0..10).map(|i| open_rec(i, "/f")).collect();
        j.observe(&records);
        assert_eq!(
            j.classify(SimTime::from_secs(10), &file).class,
            DataClass::Hot
        );
        // 300s window: by t=400 the burst has expired (file still young
        // enough not to be cold)
        let v = j.classify(SimTime::from_secs(400), &file);
        assert_eq!(v.class, DataClass::Normal);
        assert_eq!(v.n_d, 0.0);
    }

    #[test]
    fn rule4_overloaded_node_names_top_file() {
        let mut j = judge();
        // τ_DN = 8; dn0 serves 6 reads of /a and 4 of /b → overloaded,
        // top contributor /a
        let mut records = Vec::new();
        for i in 0..6 {
            records.push(block_rec(1 + i, 100 + i, 0, "/a"));
        }
        for i in 0..4 {
            records.push(block_rec(10 + i, 200 + i, 0, "/b"));
        }
        // dn1 only serves 2 reads → not overloaded
        records.push(block_rec(20, 300, 1, "/c"));
        records.push(block_rec(21, 301, 1, "/c"));
        j.observe(&records);
        let over = j.overloaded_nodes(SimTime::from_secs(30));
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].0, "dn0");
        assert_eq!(over[0].1, "/a");
        assert_eq!(over[0].2, 10.0);
    }

    #[test]
    fn fresh_data_pattern_fires_on_create_then_open() {
        let mut j = judge();
        j.observe(&[
            nn_rec(1, AuditCmd::Create, "/fresh"),
            open_rec(5, "/fresh"),
            open_rec(6, "/other"),
        ]);
        assert_eq!(j.freshly_popular(), vec!["/fresh".to_string()]);
        assert!(j.freshly_popular().is_empty(), "matches drain once");
    }

    #[test]
    fn checkpoint_round_trip_preserves_windows_and_pattern() {
        use checkpoint::Checkpointable;
        let mut j = judge();
        let mut records = vec![nn_rec(1, AuditCmd::Create, "/fresh")];
        for i in 0..9 {
            records.push(open_rec(2 + i, "/hot"));
            records.push(block_rec(2 + i, 7, 0, "/hot"));
        }
        j.observe(&records);

        let json = serde_json::to_string(&j.save_state()).unwrap();
        let back = serde_json::parse_value(&json).unwrap();
        let mut fresh = judge();
        fresh.load_state(&back).unwrap();

        // identical classification and event accounting after restore
        let file = snapshot("/hot", 1, &[7]);
        let now = SimTime::from_secs(20);
        let a = j.classify(now, &file);
        let b = fresh.classify(now, &file);
        assert_eq!((a.class, a.rule), (b.class, b.rule));
        assert_eq!(a.n_d.to_bits(), b.n_d.to_bits());
        assert_eq!(fresh.events_seen(), j.events_seen());
        // the pending create → open correlation survived: an open on the
        // restored judge completes the pattern armed before the snapshot
        fresh.observe(&[open_rec(5, "/fresh")]);
        assert_eq!(fresh.freshly_popular(), vec!["/fresh".to_string()]);
    }

    fn arb_record() -> impl Strategy<Value = AuditRecord> {
        // times below 30 days, where every microsecond survives the
        // `{:.6}` seconds of the log text
        let time = (0u64..30 * 86_400_000_000).prop_map(SimTime::from_micros);
        let reader = prop_oneof![
            (0u32..64).prop_map(|n| Endpoint::Node(NodeId(n))),
            any::<u32>().prop_map(|c| Endpoint::Client(ClientId(c))),
        ];
        let cmd = prop::sample::select(vec![
            AuditCmd::Create,
            AuditCmd::Open,
            AuditCmd::Delete,
            AuditCmd::SetReplication,
        ]);
        let op = prop_oneof![
            (cmd, reader).prop_map(|(cmd, reader)| AuditOp::Namenode { cmd, reader }),
            (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(b, n, bytes)| {
                AuditOp::BlockRead {
                    block: BlockId(b),
                    node: NodeId(n),
                    bytes,
                }
            }),
        ];
        (time, "/[a-z0-9_./-]{0,12}", op).prop_map(|(time, path, op)| AuditRecord {
            time,
            path,
            op,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn observe_builds_the_event_the_rendered_line_parses_to(rec in arb_record()) {
            let parsed = cep::audit::parse_line(&rec.to_string()).expect("rendered line parses");
            prop_assert_eq!(parsed.time, rec.time);
            let mut projected = Event::new(parsed.time, parsed.event_type.as_ref());
            for (k, v) in parsed.fields() {
                if ["blk", "cmd", "dn", "src"].contains(&k) {
                    projected.set(k, v.clone());
                }
            }
            let (derived, event) = judge().events_for(&rec);
            prop_assert_eq!(event, projected);
            if let AuditOp::BlockRead { node, .. } = rec.op {
                let derived = derived.expect("block reads derive a (datanode, file) event");
                let key = format!("{node}|{}", rec.path);
                prop_assert_eq!(derived.get("dn_src").and_then(Value::as_str), Some(key.as_str()));
                prop_assert_eq!(derived.time, rec.time);
            } else {
                prop_assert!(derived.is_none());
            }
        }
    }

    #[test]
    fn repeated_names_share_one_arc() {
        let mut j = judge();
        let (d1, a) = j.events_for(&block_rec(1, 7, 2, "/f"));
        let (d2, b) = j.events_for(&block_rec(2, 7, 2, "/f"));
        let (_, c) = j.events_for(&open_rec(3, "/f"));
        let arc = |e: &Event, k: &str| match e.get(k) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };
        for k in ["blk", "cmd", "dn", "src"] {
            assert!(Arc::ptr_eq(&arc(&a, k), &arc(&b, k)), "{k}");
        }
        assert!(Arc::ptr_eq(&arc(&a, "src"), &arc(&c, "src")));
        let (d1, d2) = (d1.unwrap(), d2.unwrap());
        assert!(Arc::ptr_eq(&arc(&d1, "dn_src"), &arc(&d2, "dn_src")));
    }
}
