//! Seeded tabular Q-learning judge.
//!
//! A contextual-bandit-with-bootstrapping judge over the discretized
//! feature space of [`crate::features`]: one row per state, four
//! actions — boost, hold, shed, encode — mapped onto the paper's
//! `DataClass` verdicts (the manager's gating still applies, so a
//! spurious boost of an idle file is a no-op task-wise).
//!
//! # Determinism and visit-order independence
//!
//! * Decisions during a judge pass read a table **frozen** at
//!   `begin_pass`; the `(s, a, r, s')` updates observed during the pass
//!   are queued and applied sorted by `FileId` in `end_pass`, so the
//!   table's evolution does not depend on the order files are visited
//!   in.
//! * Exploration randomness is not a sequential stream: each draw is
//!   derived by SplitMix64-mixing `(stream salt, pass index, file id)`,
//!   where the salt itself comes from a forked `DetRng` stream at
//!   construction. Same seed → same exploration, regardless of how
//!   many files exist or in which order they are visited.
//! * Reward needs the *consequence* of an action, which is only
//!   observable at the file's next visit: `classify` settles the
//!   pending `(state, action)` recorded last time using the features it
//!   just read plus the per-tick [`RewardMeters`], then records a new
//!   pending pair.
//!
//! All learner state — table, visit counts, pending attributions, pass
//! counter — is checkpointed, so resume-equivalence holds byte-for-byte.

use crate::features::{Discretizer, Features, NUM_STATES};
use crate::{
    splitmix64, CepProbe, DataClass, FileSnapshot, JudgeBackend, JudgePolicy, JudgeRule, Judgment,
    RewardMeters,
};
use checkpoint::codec as c;
use checkpoint::{CheckpointError, Checkpointable, Value};
use simcore::rng::DetRng;
use simcore::SimTime;
use std::collections::BTreeMap;

/// The judge's action set. Order is the tie-break order for argmax and
/// the wire order of the Q-table, so it is append-only.
pub const NUM_ACTIONS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Boost = 0,
    Hold = 1,
    Shed = 2,
    Encode = 3,
}

impl Action {
    fn from_index(i: usize) -> Action {
        match i {
            0 => Action::Boost,
            1 => Action::Hold,
            2 => Action::Shed,
            _ => Action::Encode,
        }
    }

    fn class(self) -> DataClass {
        match self {
            Action::Boost => DataClass::Hot,
            Action::Hold => DataClass::Normal,
            Action::Shed => DataClass::Cooled,
            Action::Encode => DataClass::Cold,
        }
    }
}

/// Hyper-parameters and feature fences for [`QLearningJudge`].
#[derive(Debug, Clone, Copy)]
pub struct QConfig {
    /// Bucket fences shared with the HMM judge.
    pub disc: Discretizer,
    /// Learning rate α.
    pub alpha: f64,
    /// Discount γ for the bootstrapped next-state value.
    pub gamma: f64,
    /// Initial exploration rate ε₀.
    pub epsilon: f64,
    /// Visit-count scale of the ε decay: ε(s) = ε₀ / (1 + visits(s)/k).
    pub epsilon_decay: f64,
    /// Reward weight on per-replica read pressure above the hot
    /// boundary (the latency-hit proxy).
    pub w_hit: f64,
    /// Reward weight on extra replicas held, scaled by the cluster's
    /// storage-overhead meter.
    pub w_storage: f64,
    /// Reward weight on extra replicas held while standby nodes are
    /// powered on (the energy price).
    pub w_energy: f64,
}

impl QConfig {
    /// Defaults tuned on the `prod-*` matrix: mild exploration with a
    /// fast per-state decay, storage/energy priced well below a real
    /// latency hit so the judge still boosts under pressure.
    pub fn new(disc: Discretizer) -> QConfig {
        QConfig {
            disc,
            alpha: 0.20,
            gamma: 0.60,
            epsilon: 0.08,
            epsilon_decay: 8.0,
            w_hit: 1.0,
            w_storage: 0.05,
            w_energy: 0.02,
        }
    }
}

/// A `(state, action)` awaiting its reward at the file's next visit.
#[derive(Debug, Clone, Copy)]
struct Pending {
    file: u64,
    state: usize,
    action: Action,
}

/// One settled transition, queued during a pass and applied in
/// `FileId` order at `end_pass`.
#[derive(Debug, Clone, Copy)]
struct Update {
    file: u64,
    state: usize,
    action: Action,
    reward: f64,
    next_state: usize,
}

/// Tabular Q-learning judge. See the module docs for the determinism
/// discipline.
pub struct QLearningJudge {
    cfg: QConfig,
    /// Row-major `NUM_STATES × NUM_ACTIONS` table.
    q: Vec<f64>,
    /// Per-state visit counts driving the ε decay.
    visits: Vec<u64>,
    /// Last `(state, action)` per path, settled at the next visit.
    pending: BTreeMap<String, Pending>,
    /// Judge passes seen (increments in `begin_pass`).
    passes: u64,
    /// Salt of the exploration stream, drawn from a forked `DetRng`.
    salt: u64,
    meters: RewardMeters,
    /// Transitions observed this pass; drained by `end_pass`.
    queue: Vec<Update>,
    /// States visited this pass (visit counts are frozen mid-pass).
    visit_queue: Vec<usize>,
}

impl QLearningJudge {
    /// Build with a warm-started table: in every state the action the
    /// paper's rules would take gets an optimistic prior, so before any
    /// learning the greedy policy is rules-shaped and exploration only
    /// has to *justify* deviations.
    pub fn new(cfg: QConfig, seed: u64) -> QLearningJudge {
        let mut root = DetRng::new(seed);
        let salt = root.fork(0x9_1ea7).gen_u64();
        let mut q = vec![0.0f64; NUM_STATES * NUM_ACTIONS];
        for s in 0..NUM_STATES {
            let prior = Self::rules_action(&cfg.disc, s);
            q[s * NUM_ACTIONS + prior as usize] = 1.0;
        }
        QLearningJudge {
            cfg,
            q,
            visits: vec![0; NUM_STATES],
            pending: BTreeMap::new(),
            passes: 0,
            salt,
            meters: RewardMeters::default(),
            queue: Vec::new(),
            visit_queue: Vec::new(),
        }
    }

    /// The action Formulas (1)–(6) would take in a given discrete
    /// state (the warm-start prior).
    fn rules_action(_disc: &Discretizer, state: usize) -> Action {
        use crate::features::{AGE_BUCKETS, BLOCK_BUCKETS, FRESH_BUCKETS, REPL_BUCKETS};
        let age = state % AGE_BUCKETS;
        let repl = (state / AGE_BUCKETS) % REPL_BUCKETS;
        let _fresh = (state / (AGE_BUCKETS * REPL_BUCKETS)) % FRESH_BUCKETS;
        let block = (state / (AGE_BUCKETS * REPL_BUCKETS * FRESH_BUCKETS)) % BLOCK_BUCKETS;
        let pressure = state / (AGE_BUCKETS * REPL_BUCKETS * FRESH_BUCKETS * BLOCK_BUCKETS);
        if pressure >= 4 || block == 3 {
            Action::Boost
        } else if repl >= 1 && pressure <= 2 {
            Action::Shed
        } else if pressure <= 1 && age >= 2 {
            Action::Encode
        } else {
            Action::Hold
        }
    }

    /// A uniform `[0, 1)` draw derived from `(salt, pass, file, lane)`
    /// — stateless, so independent of visit order.
    fn draw(&self, file: u64, lane: u64) -> f64 {
        let z = splitmix64(
            self.salt
                ^ splitmix64(self.passes.wrapping_mul(0xA076_1D64_78BD_642F))
                ^ splitmix64(file.wrapping_add(lane.wrapping_mul(0xE703_7ED1_A0B4_28DB))),
        );
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn greedy(&self, state: usize) -> Action {
        let row = &self.q[state * NUM_ACTIONS..(state + 1) * NUM_ACTIONS];
        let mut best = 0usize;
        for (i, v) in row.iter().enumerate().skip(1) {
            if *v > row[best] {
                best = i;
            }
        }
        Action::from_index(best)
    }

    /// Reward for the previously chosen action, observed through the
    /// file's *next-visit* features plus the cluster meters: read
    /// pressure above the hot boundary is the latency hit; replicas
    /// held above the default are priced in storage (scaled by how
    /// much overhead the cluster already carries) and in energy (scaled
    /// by the powered-on standby fraction).
    fn reward(&self, f: &Features) -> f64 {
        let overload = (f.pressure - 1.0).clamp(0.0, 4.0);
        let extra = f
            .replication
            .saturating_sub(self.cfg.disc.default_replication) as f64
            / self.cfg.disc.default_replication.max(1) as f64;
        -self.cfg.w_hit * overload
            - self.cfg.w_storage * extra * self.meters.storage_overhead.max(1.0)
            - self.cfg.w_energy * extra * self.meters.standby_on_frac
    }

    #[cfg(test)]
    fn q_at(&self, state: usize, action: usize) -> f64 {
        self.q[state * NUM_ACTIONS + action]
    }
}

impl JudgePolicy for QLearningJudge {
    fn backend(&self) -> JudgeBackend {
        JudgeBackend::QLearning
    }

    fn wants_reward(&self) -> bool {
        true
    }

    fn begin_pass(&mut self, _now: SimTime, meters: &RewardMeters) {
        self.passes += 1;
        self.meters = *meters;
    }

    fn classify(
        &mut self,
        now: SimTime,
        file: &FileSnapshot,
        fresh: bool,
        probe: &mut dyn CepProbe,
    ) -> Judgment {
        let d = &self.cfg.disc;
        let feats = Features::observe(probe, now, file, fresh, d.tau_hot, d.block_burst);
        let state = d.state(&feats);

        // Settle the previous visit's action with what we can see now.
        if let Some(prev) = self.pending.get(&file.path).copied() {
            self.queue.push(Update {
                file: file.id.0,
                state: prev.state,
                action: prev.action,
                reward: self.reward(&feats),
                next_state: state,
            });
        }

        // ε-greedy on the frozen table.
        let eps = self.cfg.epsilon / (1.0 + self.visits[state] as f64 / self.cfg.epsilon_decay);
        let action = if self.draw(file.id.0, 0) < eps {
            Action::from_index(
                (self.draw(file.id.0, 1) * NUM_ACTIONS as f64) as usize % NUM_ACTIONS,
            )
        } else {
            self.greedy(state)
        };

        self.pending.insert(
            file.path.clone(),
            Pending {
                file: file.id.0,
                state,
                action,
            },
        );
        self.visit_queue.push(state);

        Judgment {
            path: file.path.clone(),
            class: action.class(),
            n_d: feats.n_d,
            n_b_max: feats.n_b_max,
            rule: JudgeRule::Learned(JudgeBackend::QLearning),
        }
    }

    fn end_pass(&mut self) {
        // FileId order, not visit order: the Q-update sequence (which
        // matters — updates compose) is pinned to the namespace, so it
        // cannot depend on visit order.
        self.queue.sort_by_key(|u| u.file);
        for u in self.queue.drain(..) {
            let next_best = {
                let row = &self.q[u.next_state * NUM_ACTIONS..(u.next_state + 1) * NUM_ACTIONS];
                row.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
            };
            let cell = &mut self.q[u.state * NUM_ACTIONS + u.action as usize];
            *cell += self.cfg.alpha * (u.reward + self.cfg.gamma * next_best - *cell);
        }
        for s in self.visit_queue.drain(..) {
            self.visits[s] += 1;
        }
    }

    fn forget_path(&mut self, path: &str) {
        self.pending.remove(path);
    }
}

impl Checkpointable for QLearningJudge {
    fn save_state(&self) -> Value {
        // The table is stored sparsely as diffs against the warm-start
        // prior: most of the 768×4 cells never leave their init value,
        // so snapshots stay small.
        let mut q_diff = Vec::new();
        for (i, &v) in self.q.iter().enumerate() {
            let s = i / NUM_ACTIONS;
            let init: f64 = if Self::rules_action(&self.cfg.disc, s) as usize == i % NUM_ACTIONS {
                1.0
            } else {
                0.0
            };
            if v.to_bits() != init.to_bits() {
                q_diff.push(Value::Seq(vec![Value::U64(i as u64), c::f64_bits(v)]));
            }
        }
        let visits = self
            .visits
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Value::Seq(vec![Value::U64(i as u64), Value::U64(n)]))
            .collect();
        let pending = self
            .pending
            .iter()
            .map(|(path, p)| {
                c::MapBuilder::new()
                    .str("path", path)
                    .u64("file", p.file)
                    .u64("state", p.state as u64)
                    .u64("action", p.action as u64)
                    .build()
            })
            .collect();
        c::MapBuilder::new()
            .u64("passes", self.passes)
            .u64("salt", self.salt)
            .f64b("m_storage", self.meters.storage_overhead)
            .f64b("m_energy", self.meters.standby_on_frac)
            .put("q", Value::Seq(q_diff))
            .seq("visits", visits)
            .seq("pending", pending)
            .build()
    }

    fn load_state(&mut self, state: &Value) -> Result<(), CheckpointError> {
        let passes = c::get_u64(state, "passes")?;
        let salt = c::get_u64(state, "salt")?;
        let m_storage = c::get_f64b(state, "m_storage")?;
        let m_energy = c::get_f64b(state, "m_energy")?;
        let mut q = vec![0.0f64; NUM_STATES * NUM_ACTIONS];
        for s in 0..NUM_STATES {
            q[s * NUM_ACTIONS + Self::rules_action(&self.cfg.disc, s) as usize] = 1.0;
        }
        for entry in c::get_seq(state, "q")? {
            let pair = c::as_seq(entry, "q[]")?;
            if pair.len() != 2 {
                return Err(CheckpointError::TypeMismatch {
                    field: "q[]".to_string(),
                    expected: "[index, bits] pair",
                });
            }
            let i = c::as_u64(&pair[0], "q[].index")? as usize;
            if i >= q.len() {
                return Err(CheckpointError::TypeMismatch {
                    field: "q[].index".to_string(),
                    expected: "index within table",
                });
            }
            q[i] = c::as_f64_bits(&pair[1], "q[].bits")?;
        }
        let mut visits = vec![0u64; NUM_STATES];
        for entry in c::get_seq(state, "visits")? {
            let pair = c::as_seq(entry, "visits[]")?;
            if pair.len() != 2 {
                return Err(CheckpointError::TypeMismatch {
                    field: "visits[]".to_string(),
                    expected: "[state, count] pair",
                });
            }
            let i = c::as_u64(&pair[0], "visits[].state")? as usize;
            if i >= visits.len() {
                return Err(CheckpointError::TypeMismatch {
                    field: "visits[].state".to_string(),
                    expected: "state within table",
                });
            }
            visits[i] = c::as_u64(&pair[1], "visits[].count")?;
        }
        let mut pending = BTreeMap::new();
        for entry in c::get_seq(state, "pending")? {
            let action = c::get_u64(entry, "action")? as usize;
            if action >= NUM_ACTIONS {
                return Err(CheckpointError::TypeMismatch {
                    field: "pending[].action".to_string(),
                    expected: "action index",
                });
            }
            let st = c::get_u64(entry, "state")? as usize;
            if st >= NUM_STATES {
                return Err(CheckpointError::TypeMismatch {
                    field: "pending[].state".to_string(),
                    expected: "state within table",
                });
            }
            pending.insert(
                c::get_str(entry, "path")?.to_string(),
                Pending {
                    file: c::get_u64(entry, "file")?,
                    state: st,
                    action: Action::from_index(action),
                },
            );
        }
        self.passes = passes;
        self.salt = salt;
        self.meters = RewardMeters {
            storage_overhead: m_storage,
            standby_on_frac: m_energy,
        };
        self.q = q;
        self.visits = visits;
        self.pending = pending;
        self.queue.clear();
        self.visit_queue.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdfs_sim::{BlockId, FileId};
    use simcore::SimDuration;

    struct FakeProbe {
        opens: f64,
        per_block: f64,
    }

    impl CepProbe for FakeProbe {
        fn file_accesses(&mut self, _now: SimTime, _path: &str) -> f64 {
            self.opens
        }
        fn block_accesses(&mut self, _now: SimTime, _block: BlockId) -> f64 {
            self.per_block
        }
    }

    fn disc() -> Discretizer {
        Discretizer {
            tau_hot: 4.0,
            block_burst: 6.0,
            block_warm: 3.0,
            tau_cooled: 2.0,
            tau_cold: 0.5,
            window_secs: 600.0,
            cold_age_secs: 1800.0,
            default_replication: 3,
        }
    }

    fn snap(id: u64, path: &str, repl: usize, last: SimTime) -> FileSnapshot {
        FileSnapshot {
            id: FileId(id),
            path: path.to_string(),
            replication: repl,
            blocks: vec![BlockId(id * 10)],
            last_access: last,
            boosted: repl > 3,
            encoded: false,
        }
    }

    fn judge() -> QLearningJudge {
        QLearningJudge::new(QConfig::new(disc()), 42)
    }

    #[test]
    fn warm_start_matches_the_rules_shape() {
        // greedy-only so the test sees the prior, not an exploration draw
        let mut cfg = QConfig::new(disc());
        cfg.epsilon = 0.0;
        let mut j = QLearningJudge::new(cfg, 42);
        let now = SimTime::from_secs(1000);
        j.begin_pass(now, &RewardMeters::default());
        let hot = snap(1, "/hot", 3, now);
        let mut p = FakeProbe {
            opens: 100.0,
            per_block: 0.0,
        };
        let v = j.classify(now, &hot, false, &mut p);
        assert_eq!(v.class, DataClass::Hot);
        assert_eq!(v.rule, JudgeRule::Learned(JudgeBackend::QLearning));
        // a long-idle unboosted file encodes
        let cold = snap(2, "/cold", 3, SimTime::from_secs(0));
        let now2 = SimTime::from_secs(5000);
        let mut p0 = FakeProbe {
            opens: 0.0,
            per_block: 0.0,
        };
        let v = j.classify(now2, &cold, false, &mut p0);
        assert_eq!(v.class, DataClass::Cold);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = || {
            let mut j = judge();
            let mut out = Vec::new();
            let mut t = SimTime::from_secs(0);
            for pass in 0..30u64 {
                t += SimDuration::from_secs(60);
                j.begin_pass(
                    t,
                    &RewardMeters {
                        storage_overhead: 1.1,
                        standby_on_frac: 0.5,
                    },
                );
                for id in 0..8u64 {
                    let f = snap(id, &format!("/f{id}"), 3, t);
                    let mut p = FakeProbe {
                        opens: ((id + pass) % 5) as f64 * 10.0,
                        per_block: 0.0,
                    };
                    let v = j.classify(t, &f, id % 3 == 0, &mut p);
                    out.push(format!("{}:{:?}", v.path, v.class));
                }
                j.end_pass();
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn decisions_do_not_depend_on_visit_order_within_a_pass() {
        let run = |rev: bool| {
            let mut j = judge();
            let mut out = Vec::new();
            let mut t = SimTime::from_secs(0);
            for pass in 0..10u64 {
                t += SimDuration::from_secs(60);
                j.begin_pass(t, &RewardMeters::default());
                let mut ids: Vec<u64> = (0..6).collect();
                if rev {
                    ids.reverse();
                }
                let mut vs = Vec::new();
                for id in ids {
                    let f = snap(id, &format!("/f{id}"), 3, t);
                    let mut p = FakeProbe {
                        opens: ((id * 7 + pass) % 6) as f64 * 8.0,
                        per_block: 0.0,
                    };
                    let v = j.classify(t, &f, false, &mut p);
                    vs.push((id, format!("{:?}", v.class)));
                }
                vs.sort();
                out.push(vs);
                j.end_pass();
            }
            out
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn overload_penalty_drives_the_boosted_cell_up_relative_to_hold() {
        let mut j = judge();
        let d = disc();
        let mut t = SimTime::from_secs(0);
        // hammer one file hard; its state is the over-pressure bucket
        let hot_state = {
            let f = Features {
                n_d: 120.0,
                n_b_max: 0.0,
                pressure: 120.0 / (3.0 * 4.0),
                fresh: false,
                replication: 3,
                age_secs: 0.0,
            };
            d.state(&f)
        };
        let before_hold = j.q_at(hot_state, Action::Hold as usize);
        for _ in 0..40 {
            t += SimDuration::from_secs(60);
            j.begin_pass(t, &RewardMeters::default());
            let f = snap(1, "/hammer", 3, t);
            let mut p = FakeProbe {
                opens: 120.0,
                per_block: 0.0,
            };
            j.classify(t, &f, false, &mut p);
            j.end_pass();
        }
        // staying at pressure is penalised: whatever was learned, the
        // hold cell in the hot state must have gone down from its init.
        assert!(j.q_at(hot_state, Action::Hold as usize) <= before_hold);
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        let mut j = judge();
        let mut t = SimTime::from_secs(0);
        for pass in 0..15u64 {
            t += SimDuration::from_secs(60);
            j.begin_pass(
                t,
                &RewardMeters {
                    storage_overhead: 1.2,
                    standby_on_frac: 0.25,
                },
            );
            for id in 0..5u64 {
                let f = snap(id, &format!("/f{id}"), 3, t);
                let mut p = FakeProbe {
                    opens: ((id + pass) % 4) as f64 * 12.0,
                    per_block: 2.0,
                };
                j.classify(t, &f, false, &mut p);
            }
            j.end_pass();
        }
        let saved = j.save_state();
        let mut fresh = judge();
        fresh.load_state(&saved).unwrap();
        assert_eq!(j.passes, fresh.passes);
        assert_eq!(j.salt, fresh.salt);
        for i in 0..j.q.len() {
            assert_eq!(j.q[i].to_bits(), fresh.q[i].to_bits(), "q[{i}]");
        }
        assert_eq!(j.visits, fresh.visits);
        assert_eq!(j.pending.len(), fresh.pending.len());
        // and the hydrated judge keeps making the same decisions
        t += SimDuration::from_secs(60);
        j.begin_pass(t, &RewardMeters::default());
        fresh.begin_pass(t, &RewardMeters::default());
        for id in 0..5u64 {
            let f = snap(id, &format!("/f{id}"), 3, t);
            let mut p1 = FakeProbe {
                opens: 30.0,
                per_block: 0.0,
            };
            let mut p2 = FakeProbe {
                opens: 30.0,
                per_block: 0.0,
            };
            let a = j.classify(t, &f, false, &mut p1);
            let b = fresh.classify(t, &f, false, &mut p2);
            assert_eq!(a.class, b.class);
        }
    }

    #[test]
    fn forgetting_a_path_drops_its_pending_attribution() {
        let mut j = judge();
        let t = SimTime::from_secs(60);
        j.begin_pass(t, &RewardMeters::default());
        let f = snap(1, "/gone", 3, t);
        let mut p = FakeProbe {
            opens: 5.0,
            per_block: 0.0,
        };
        j.classify(t, &f, false, &mut p);
        assert!(j.pending.contains_key("/gone"));
        j.forget_path("/gone");
        assert!(!j.pending.contains_key("/gone"));
    }

    #[test]
    fn load_rejects_out_of_range_indices() {
        let mut j = judge();
        let mut saved = j.save_state();
        // corrupt: a q index beyond the table
        if let Value::Map(entries) = &mut saved {
            for (k, v) in entries.iter_mut() {
                if k == "q" {
                    *v = Value::Seq(vec![Value::Seq(vec![
                        Value::U64(10_000_000),
                        c::f64_bits(1.0),
                    ])]);
                }
            }
        }
        assert!(j.load_state(&saved).is_err());
    }
}
