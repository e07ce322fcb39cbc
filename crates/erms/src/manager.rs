//! The ERMS control loop.
//!
//! [`ErmsManager::tick`] is one pass of the architecture in the paper's
//! Fig. 1: drain the audit logs into the CEP-backed judge, classify every
//! file, and turn the verdicts into Condor tasks —
//!
//! * hot → `Increase` to the computed optimum (**immediate** priority;
//!   commissioning standby nodes first when the extras need somewhere
//!   to land),
//! * hot-but-encoded → `Decode` (**immediate**),
//! * cooled → `Decrease` back to the default factor (**when idle**),
//! * cold → `Encode` with the configured stripe layout (**when idle**).
//!
//! Tasks execute against the [`ClusterSim`]; replica movement completes
//! asynchronously (real simulated bytes), and a task only reports
//! success to Condor once every copy it started has landed — so the
//! journal honestly reflects cluster state, rollbacks included. Node
//! ads are refreshed in the ClassAds matchmaker every tick, which is
//! also how commissioning picks its standby node.

use crate::config::{ConfigError, ErmsConfig};
use crate::judge::{
    DataClass, DataJudge, FileSnapshot, JudgeBackend, JudgePolicy, Judgment, RewardMeters,
    RulesPolicy,
};
use crate::model::ActiveStandbyModel;
use crate::replication::optimal_replication;
use condor::matchmaker::Matchmaker;
use condor::parser::parse_expr;
use condor::scheduler::{JobId, Outcome, Priority, Scheduler};
use condor::{ClassAd, Expr};
use hdfs_sim::cluster::CopyId;
use hdfs_sim::{ClusterSim, FileId, NodeId};
use simcore::telemetry::{Event as Tel, TelemetrySink};
use simcore::{prof_scope, trace, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// A replication-management task, as journalled by Condor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErmsTask {
    /// Raise `path` to `target` replicas.
    Increase { path: String, target: usize },
    /// Lower `path` to `target` replicas.
    Decrease { path: String, target: usize },
    /// Erasure-encode `path` (replication 1 + parities).
    Encode { path: String },
    /// Undo encoding and restore `target` replicas.
    Decode { path: String, target: usize },
    /// Verified repair of a file with quarantined-corrupt copies:
    /// re-copy every under-replicated block from a clean source (the
    /// scrubber's repair route for replicated files; dark encoded
    /// shards go through RS reconstruction instead).
    Repair { path: String },
}

impl ErmsTask {
    fn kind(&self) -> u8 {
        match self {
            ErmsTask::Increase { .. } => 0,
            ErmsTask::Decrease { .. } => 1,
            ErmsTask::Encode { .. } => 2,
            ErmsTask::Decode { .. } => 3,
            ErmsTask::Repair { .. } => 4,
        }
    }
    fn path(&self) -> &str {
        match self {
            ErmsTask::Increase { path, .. }
            | ErmsTask::Decrease { path, .. }
            | ErmsTask::Encode { path }
            | ErmsTask::Decode { path, .. }
            | ErmsTask::Repair { path } => path,
        }
    }

    /// The compensating action recorded on rollback.
    fn inverse(&self, default_r: usize) -> ErmsTask {
        match self {
            ErmsTask::Increase { path, .. } => ErmsTask::Decrease {
                path: path.clone(),
                target: default_r,
            },
            ErmsTask::Decrease { path, .. } => ErmsTask::Increase {
                path: path.clone(),
                target: default_r,
            },
            ErmsTask::Encode { path } => ErmsTask::Decode {
                path: path.clone(),
                target: default_r,
            },
            ErmsTask::Decode { path, .. } => ErmsTask::Encode { path: path.clone() },
            // repair is idempotent convergence toward the replica
            // target; the only sane compensation is another attempt
            ErmsTask::Repair { path } => ErmsTask::Repair { path: path.clone() },
        }
    }
}

/// What one control-loop pass did.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    pub files_judged: usize,
    pub hot: usize,
    pub cooled: usize,
    pub cold: usize,
    pub tasks_submitted: usize,
    pub tasks_completed: usize,
    pub tasks_failed: usize,
    pub commissioned: Vec<NodeId>,
    pub shut_down: Vec<NodeId>,
    /// Self-healing: repair copies started this tick.
    pub repairs_started: usize,
    /// Self-healing: excess replicas trimmed this tick.
    pub replicas_trimmed: usize,
    /// Self-healing: dark encoded shards whose reconstruction started.
    pub reconstructions: usize,
    /// Self-healing: tasks failed by the timeout watchdog.
    pub tasks_timed_out: usize,
    /// Self-healing: commissioned standby nodes found dead and evicted.
    pub standby_evicted: Vec<NodeId>,
    /// Scrubber: blocks checksum-verified this tick.
    pub scrub_scanned: usize,
    /// Scrubber: corrupt copies detected (and quarantined) this tick.
    pub corruptions_found: usize,
}

/// The elastic replication manager.
pub struct ErmsManager {
    cfg: ErmsConfig,
    judge: DataJudge,
    /// The decision backend driven through dyn dispatch in the judge
    /// pass: the paper's rules by default, or a learned judge from the
    /// `policy` crate (selected by `cfg.judge_backend`). The `judge`
    /// field above stays the CEP feature plumbing for every backend.
    policy: Box<dyn JudgePolicy>,
    condor: Scheduler<ErmsTask>,
    model: ActiveStandbyModel,
    matchmaker: Matchmaker,
    commission_req: Expr,
    commission_rank: Expr,
    /// Files currently boosted above the default factor.
    boosted: BTreeSet<String>,
    /// Consecutive Cooled verdicts per boosted file (hysteresis).
    cooled_streak: BTreeMap<String, u32>,
    /// Tasks in flight, deduplicating resubmission: (path, kind) → job.
    inflight: BTreeMap<(String, u8), JobId>,
    /// Copies each running job is waiting on.
    pending_copies: BTreeMap<CopyId, JobId>,
    job_wait: BTreeMap<JobId, usize>,
    job_failed_copy: BTreeSet<JobId>,
    /// When each copy-awaiting job started (timeout watchdog).
    job_started: BTreeMap<JobId, SimTime>,
    /// In-flight shard reconstructions (self-healing), by copy.
    reconstruct_copies: BTreeMap<CopyId, hdfs_sim::BlockId>,
    /// Blocks with a reconstruction already in flight.
    reconstructing: BTreeSet<hdfs_sim::BlockId>,
    /// Files that must be re-judged every tick: anything whose last
    /// verdict was not "Normal with zero windowed demand and no task in
    /// flight". Stable files leave this set and are revisited only when
    /// the cluster marks them dirty (see [`ClusterSim::drain_dirty_files`])
    /// or their cold-age deadline in `cold_due` arrives.
    active: BTreeSet<String>,
    /// Stable unencoded files, by the `last_access` recorded when they
    /// went stable: once `now - last_access` exceeds the judge's
    /// `cold_age` they must be revisited so Formula (6) can fire.
    cold_due: BTreeMap<String, SimTime>,
    /// A lower bound on every `last_access` in `cold_due`, so the tick
    /// skips scanning it until that much cold age has passed. Inserts
    /// lower it, each scan resets it to the exact minimum, and a fresh
    /// or restored manager starts at zero, the weakest bound.
    cold_due_floor: SimTime,
    /// Whether the first full classification pass has happened. The
    /// manager may be built over a cluster that already has files, so
    /// tick 1 always rescans everything.
    primed: bool,
    /// Ticks elapsed, for the repair-scan cadence.
    tick_count: u64,
    telemetry: TelemetrySink,
    /// Total tasks finished, for harness accounting.
    pub total_completed: u64,
    pub total_failed: u64,
}

impl ErmsManager {
    /// Build the manager and configure `cluster` for the active/standby
    /// model (designating and powering off the standby pool).
    ///
    /// Beyond the config's own invariants, this validates the standby
    /// pool against the actual cluster: every designated node must exist
    /// and must not already hold block replicas (powering such a node
    /// off would take live data with it).
    pub fn new(cfg: ErmsConfig, cluster: &mut ClusterSim) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let datanodes = cluster.config().datanodes;
        for &n in &cfg.standby {
            if n.0 >= datanodes {
                return Err(ConfigError::UnknownStandbyNode {
                    node: n.0,
                    datanodes,
                });
            }
            let blocks = cluster.node_block_count(n);
            if blocks > 0 {
                return Err(ConfigError::StandbyHoldsReplicas { node: n.0, blocks });
            }
        }
        let all: Vec<NodeId> = cluster.topology().nodes().collect();
        let standby: Vec<NodeId> = cfg.standby.clone();
        let active: Vec<NodeId> = all
            .iter()
            .copied()
            .filter(|n| !standby.contains(n))
            .collect();
        cluster.designate_standby(&standby);
        let model = if standby.is_empty() {
            ActiveStandbyModel::all_active(active)
        } else {
            ActiveStandbyModel::new(active, standby)
        };
        // Under self-healing (and for the scrubber's repair tasks),
        // failed tasks (dead endpoints, downed racks) retry with
        // exponential backoff instead of hammering the same broken
        // placement every tick.
        let condor = if cfg.enable_self_healing || cfg.enable_scrubber {
            Scheduler::with_retry_policy(
                cfg.max_concurrent_tasks,
                cfg.max_task_attempts,
                condor::scheduler::RetryPolicy::new(
                    simcore::SimDuration::from_secs(60),
                    simcore::SimDuration::from_mins(15),
                    0.2,
                    7,
                ),
            )
        } else {
            Scheduler::new(cfg.max_concurrent_tasks, cfg.max_task_attempts)
        };
        Ok(ErmsManager {
            judge: DataJudge::try_new(cfg.thresholds.clone())?,
            policy: build_policy(&cfg, cluster.config().default_replication),
            condor,
            model,
            matchmaker: Matchmaker::new(),
            commission_req: parse_expr("target.Standby == true && target.PoweredOn == false")
                .expect("static expression parses"),
            commission_rank: parse_expr("target.FreeDisk").expect("static expression parses"),
            boosted: BTreeSet::new(),
            cooled_streak: BTreeMap::new(),
            inflight: BTreeMap::new(),
            pending_copies: BTreeMap::new(),
            job_wait: BTreeMap::new(),
            job_failed_copy: BTreeSet::new(),
            job_started: BTreeMap::new(),
            reconstruct_copies: BTreeMap::new(),
            reconstructing: BTreeSet::new(),
            active: BTreeSet::new(),
            cold_due: BTreeMap::new(),
            cold_due_floor: SimTime::ZERO,
            primed: false,
            tick_count: 0,
            telemetry: TelemetrySink::disabled(),
            total_completed: 0,
            total_failed: 0,
            cfg,
        })
    }

    /// Install a telemetry sink, fanning it out to the CEP engine and
    /// the Condor scheduler so one recording handle captures the whole
    /// control loop.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.judge.set_telemetry(sink.clone());
        self.condor.set_telemetry(sink.clone());
        self.telemetry = sink;
    }

    pub fn judge(&mut self) -> &mut DataJudge {
        &mut self.judge
    }
    /// Which decision backend this manager was built with.
    pub fn judge_backend(&self) -> JudgeBackend {
        self.policy.backend()
    }
    pub fn model(&self) -> &ActiveStandbyModel {
        &self.model
    }
    pub fn condor(&self) -> &Scheduler<ErmsTask> {
        &self.condor
    }
    pub fn is_boosted(&self, path: &str) -> bool {
        self.boosted.contains(path)
    }

    /// One control-loop pass at `now`.
    pub fn tick(&mut self, cluster: &mut ClusterSim, now: SimTime) -> TickReport {
        let mut report = TickReport::default();
        self.tick_count += 1;
        prof_scope!("tick");

        // 1. audit logs → CEP
        let lines = {
            prof_scope!("audit");
            cluster.drain_audit()
        };
        {
            prof_scope!("cep_drain");
            self.judge.observe_lines(lines.iter().map(String::as_str));
        }

        // 1b. deleted files: drop every piece of per-path bookkeeping so
        // the manager never leaks state for (or acts on a streak/boost
        // belonging to) a path that no longer exists.
        for path in cluster.drain_deleted_paths() {
            self.forget_path(&path);
        }

        // 2. refresh ClassAds (node state detection)
        self.advertise_nodes(cluster);
        self.absorb_boot_completions(cluster);

        // 3. settle async copy completions from previous ticks
        self.settle_copies(cluster, now, &mut report);

        // 3b. self-healing: watchdog, standby eviction, repair scan and
        // dark-shard reconstruction
        {
            prof_scope!("repair_scan");
            if self.cfg.enable_self_healing {
                self.heal(cluster, now, &mut report);
            } else if self.cfg.enable_scrubber {
                // the scrubber's repair tasks get the timeout watchdog even
                // without the full self-healing pass
                self.watchdog_stuck_tasks(cluster, now, &mut report);
            }
        }

        // 3c. background scrubber: budgeted checksum sweep, then
        // verified repair scheduling for quarantined blocks
        if self.cfg.enable_scrubber {
            prof_scope!("scrub");
            self.scrub_pass(cluster, now, &mut report);
        }

        // 4. classify files and derive tasks. The default visit set is
        // incremental: files touched by audit/replica traffic since the
        // last tick (the cluster's dirty set), files still under
        // management (`active`), Formula (4) promotions, freshness-
        // pattern hits, and files whose cold-age deadline has arrived.
        // Files skipped are exactly those a full rescan would judge
        // Normal with zero windowed demand and no task in flight, which
        // produce no verdict counts and no tasks — so the two modes
        // yield identical actions (see DESIGN.md, "Scaling the control
        // loop"; `full_rescan` forces the old exhaustive behaviour).
        let default_r = cluster.config().default_replication;
        // Formula (4): overloaded datanodes promote their top file
        let promoted: BTreeSet<String> = self
            .judge
            .overloaded_nodes(now)
            .into_iter()
            .map(|(_, path, _)| path)
            .collect();
        // experimental freshness pre-warm (create → open correlation)
        let fresh: BTreeSet<String> = if self.cfg.enable_freshness_boost {
            self.judge.freshly_popular().into_iter().collect()
        } else {
            self.judge.freshly_popular();
            BTreeSet::new()
        };
        let dirty = cluster.drain_dirty_files();
        let full = self.cfg.full_rescan || !self.primed;
        self.primed = true;
        let snapshots = if full {
            self.snapshot_files(cluster)
        } else {
            let ns = cluster.namespace();
            let mut visit: BTreeSet<FileId> = dirty
                .into_iter()
                .filter(|&f| ns.file(f).is_some())
                .collect();
            for path in self.active.iter().chain(&promoted).chain(&fresh) {
                if let Some(f) = ns.resolve(path) {
                    visit.insert(f);
                }
            }
            let cold_age = self.judge.thresholds().cold_age;
            if now.since(self.cold_due_floor) > cold_age {
                let mut due = Vec::new();
                let mut floor = SimTime::MAX;
                for (path, &last) in &self.cold_due {
                    if now.since(last) > cold_age {
                        due.push(path.clone());
                    } else {
                        floor = floor.min(last);
                    }
                }
                self.cold_due_floor = floor;
                for path in due {
                    self.cold_due.remove(&path);
                    if let Some(f) = ns.resolve(&path) {
                        visit.insert(f);
                    }
                }
            }
            self.snapshot_subset(cluster, &visit)
        };
        report.files_judged = snapshots.len();

        // Reward meters for learning backends — the storage/energy
        // accounting the system already keeps, sampled once per tick.
        // Skipped entirely for backends that don't want a reward (the
        // rules), so the default path does no extra namespace walks.
        let meters = if self.policy.wants_reward() {
            let logical: u64 = cluster.namespace().files().map(|f| f.size).sum();
            let ideal = logical as f64 * default_r as f64;
            let storage_overhead = if ideal > 0.0 {
                cluster.storage_used() as f64 / ideal
            } else {
                1.0
            };
            let standby_total = self.model.standby_nodes().count();
            let standby_on_frac = if standby_total > 0 {
                self.model.powered_on().len() as f64 / standby_total as f64
            } else {
                0.0
            };
            RewardMeters {
                storage_overhead,
                standby_on_frac,
            }
        } else {
            RewardMeters::default()
        };
        self.policy.begin_pass(now, &meters);

        // 4a. classify each file and act on its verdict right away, in
        // FileId order (the snapshot walk order). `classify` only reads
        // CEP state, and acting only touches Condor's queue and the
        // manager's per-path bookkeeping, so the two can interleave. The
        // judge's `WindowEmit` events land in the sink just before the
        // file's `Verdict`.
        {
            prof_scope!("judge");
            for snap in &snapshots {
                let verdict =
                    self.policy
                        .classify(now, snap, fresh.contains(&snap.path), &mut self.judge);
                let class = if verdict.class == DataClass::Normal && promoted.contains(&snap.path) {
                    DataClass::Hot
                } else {
                    verdict.class
                };
                trace!(
                    self.telemetry,
                    now,
                    Tel::Verdict {
                        path: snap.path.clone(),
                        verdict: class_name(class).into(),
                        file_sessions: verdict.n_d,
                        max_block_sessions: verdict.n_b_max,
                        replicas: snap.replication as u32,
                    }
                );
                if class != DataClass::Cooled {
                    self.cooled_streak.remove(&snap.path);
                }
                match class {
                    DataClass::Hot => {
                        report.hot += 1;
                        // the pre-boost bump for predicted files must not
                        // escape the cap Formula (1)'s target respects
                        let target = optimal_replication(
                            verdict.n_d,
                            self.cfg.thresholds.tau_hot,
                            default_r,
                            self.cfg.max_replication,
                        )
                        .max(if promoted.contains(&snap.path) {
                            snap.replication + 1
                        } else {
                            0
                        })
                        .min(self.cfg.max_replication.max(default_r));
                        if snap.encoded {
                            // `DecodeCold` is traced when the rewrite lands
                            // in `exec_decode`, not at submission.
                            self.submit(
                                now,
                                ErmsTask::Decode {
                                    path: snap.path.clone(),
                                    target: target.max(default_r),
                                },
                                Priority::Immediate,
                                &mut report,
                            );
                        } else if target > snap.replication
                            && self.submit(
                                now,
                                ErmsTask::Increase {
                                    path: snap.path.clone(),
                                    target,
                                },
                                Priority::Immediate,
                                &mut report,
                            )
                        {
                            trace!(
                                self.telemetry,
                                now,
                                Tel::ReplicationBoost {
                                    path: snap.path.clone(),
                                    from: snap.replication as u32,
                                    to: target as u32,
                                    sessions: verdict.n_d,
                                }
                            );
                        }
                    }
                    DataClass::Cooled => {
                        report.cooled += 1;
                        let streak = self.cooled_streak.entry(snap.path.clone()).or_insert(0);
                        *streak += 1;
                        let patient = *streak >= self.cfg.cooled_patience;
                        if patient
                            && snap.replication > default_r
                            && self.submit(
                                now,
                                ErmsTask::Decrease {
                                    path: snap.path.clone(),
                                    target: default_r,
                                },
                                Priority::WhenIdle,
                                &mut report,
                            )
                        {
                            trace!(
                                self.telemetry,
                                now,
                                Tel::ReplicationShed {
                                    path: snap.path.clone(),
                                    from: snap.replication as u32,
                                    to: default_r as u32,
                                }
                            );
                        }
                    }
                    DataClass::Cold => {
                        report.cold += 1;
                        if self.cfg.enable_encode && !snap.encoded {
                            // `EncodeCold` is traced when the stripes land
                            // in `exec_encode`, not at submission.
                            self.submit(
                                now,
                                ErmsTask::Encode {
                                    path: snap.path.clone(),
                                },
                                Priority::WhenIdle,
                                &mut report,
                            );
                        }
                    }
                    DataClass::Normal => {
                        if fresh.contains(&snap.path)
                            && !snap.encoded
                            && snap.replication == default_r
                            && self.submit(
                                now,
                                ErmsTask::Increase {
                                    path: snap.path.clone(),
                                    target: default_r + 1,
                                },
                                Priority::Immediate,
                                &mut report,
                            )
                        {
                            trace!(
                                self.telemetry,
                                now,
                                Tel::ReplicationBoost {
                                    path: snap.path.clone(),
                                    from: snap.replication as u32,
                                    to: (default_r + 1) as u32,
                                    sessions: verdict.n_d,
                                }
                            );
                        }
                    }
                }
                self.note_visit(snap, class, &verdict);
            }
        }
        self.policy.end_pass();

        // 5. dispatch + execute Condor tasks
        let idle = cluster.is_idle();
        let dispatched = self.condor.dispatch(now, idle);
        for (job, task) in dispatched {
            self.execute(cluster, now, job, task, &mut report);
        }

        // 6. compensate permanently-failed tasks
        for (_job, task) in self.condor.take_rollbacks(now) {
            let inv = task.inverse(default_r);
            self.apply_compensation(cluster, inv);
        }

        // 7. shut drained standby nodes down
        if self.cfg.enable_standby_shutdown {
            self.shutdown_drained_standby(cluster, now, &mut report);
        }

        if self.telemetry.enabled() {
            prof_scope!("telemetry_flush");
            self.telemetry
                .counter_add("erms.hot_verdicts", report.hot as u64);
            self.telemetry
                .counter_add("erms.cooled_verdicts", report.cooled as u64);
            self.telemetry
                .counter_add("erms.cold_verdicts", report.cold as u64);
            self.telemetry
                .gauge_set("erms.boosted_files", self.boosted.len() as f64);
            self.telemetry
                .gauge_set("erms.tasks_pending", self.condor.pending() as f64);
        }

        report
    }

    // ------------------------------------------------------------------

    fn snapshot_of(&self, meta: &hdfs_sim::namespace::FileMeta) -> FileSnapshot {
        FileSnapshot {
            id: meta.id,
            path: meta.path.clone(),
            replication: meta.replication(),
            blocks: meta.blocks.clone(),
            last_access: meta.last_access,
            boosted: self.boosted.contains(&meta.path),
            encoded: meta.is_encoded(),
        }
    }

    fn snapshot_files(&self, cluster: &ClusterSim) -> Vec<FileSnapshot> {
        cluster
            .namespace()
            .files()
            .map(|meta| self.snapshot_of(meta))
            .collect()
    }

    /// Snapshot only `ids`, in id order — the same relative order a full
    /// namespace walk would visit them, so task submission (and thus
    /// Condor `JobId` assignment) is identical in both modes.
    fn snapshot_subset(&self, cluster: &ClusterSim, ids: &BTreeSet<FileId>) -> Vec<FileSnapshot> {
        let ns = cluster.namespace();
        ids.iter()
            .filter_map(|&id| ns.file(id))
            .map(|meta| self.snapshot_of(meta))
            .collect()
    }

    /// Drop all per-path bookkeeping for a deleted file. A task already
    /// queued for the path is left to fail at dispatch ("file deleted");
    /// its dedup entry goes now so a later file reusing the path starts
    /// with a clean slate.
    fn forget_path(&mut self, path: &str) {
        self.boosted.remove(path);
        self.cooled_streak.remove(path);
        self.active.remove(path);
        self.cold_due.remove(path);
        self.inflight.retain(|(p, _), _| p != path);
        self.policy.forget_path(path);
    }

    /// Maintain the incremental visit sets after judging one file.
    ///
    /// A file is *stable* when it was judged Normal with zero windowed
    /// demand while unboosted and with no task in flight. Nothing about
    /// such a file can change except through events that mark it dirty
    /// in the cluster — or the silent passage of time carrying it past
    /// Formula (6)'s cold age, which `cold_due` schedules explicitly.
    fn note_visit(&mut self, snap: &FileSnapshot, class: DataClass, verdict: &Judgment) {
        let has_inflight = self.inflight.keys().any(|(p, _)| p == &snap.path);
        let stable = class == DataClass::Normal
            && !snap.boosted
            && !has_inflight
            && verdict.n_d == 0.0
            && verdict.n_b_max == 0.0;
        if !stable {
            self.cold_due.remove(&snap.path);
            self.active.insert(snap.path.clone());
            return;
        }
        self.active.remove(&snap.path);
        if snap.encoded {
            // encoded files never re-enter Cold; only traffic (which
            // dirties them) can change their class
            self.cold_due.remove(&snap.path);
        } else {
            // τ_m > 0 (validated), so zero demand always satisfies
            // Formula (6)'s rate clause once the file is old enough
            self.cold_due.insert(snap.path.clone(), snap.last_access);
            self.cold_due_floor = self.cold_due_floor.min(snap.last_access);
        }
    }

    fn advertise_nodes(&mut self, cluster: &ClusterSim) {
        for view in cluster.node_views(None, None) {
            let name = view.id.to_string();
            let dead = matches!(
                cluster.node_state(view.id),
                hdfs_sim::datanode::NodeState::Dead
            );
            if dead {
                self.matchmaker.withdraw(&name);
                continue;
            }
            // FreeDisk is advertised in bytes: truncating to whole MiB
            // made a node with any sub-MiB remainder (or less than 1 MiB
            // total) advertise 0 and lose every rank tie despite having
            // genuinely more room.
            let ad = ClassAd::new()
                .with("Rack", i64::from(view.rack.0))
                .with("FreeDisk", view.free as i64)
                .with("Standby", view.standby_pool)
                .with("PoweredOn", view.serving)
                .with("Load", view.load as i64)
                .with("Blocks", cluster.node_block_count(view.id) as i64);
            self.matchmaker.advertise(name, ad, None);
        }
    }

    fn absorb_boot_completions(&mut self, cluster: &ClusterSim) {
        for n in self.model.powered_on() {
            if matches!(cluster.node_state(n), hdfs_sim::datanode::NodeState::Active) {
                self.model.mark_booted(n);
            }
        }
    }

    /// Returns whether the task was actually enqueued (false when an
    /// identical task is already in flight).
    fn submit(
        &mut self,
        now: SimTime,
        task: ErmsTask,
        priority: Priority,
        report: &mut TickReport,
    ) -> bool {
        let key = (task.path().to_string(), task.kind());
        if self.inflight.contains_key(&key) {
            return false; // identical task already queued/running
        }
        let job = self.condor.submit(now, task, priority);
        self.inflight.insert(key, job);
        report.tasks_submitted += 1;
        true
    }

    fn execute(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        job: JobId,
        task: ErmsTask,
        report: &mut TickReport,
    ) {
        let outcome = match &task {
            ErmsTask::Increase { path, target } => {
                self.exec_increase(cluster, now, job, path, *target, report)
            }
            ErmsTask::Decrease { path, target } => self.exec_decrease(cluster, path, *target),
            ErmsTask::Encode { path } => self.exec_encode(cluster, path),
            ErmsTask::Decode { path, target } => self.exec_decode(cluster, now, job, path, *target),
            ErmsTask::Repair { path } => self.exec_repair(cluster, now, job, path),
        };
        match outcome {
            PendingOrDone::Done(outcome) => {
                self.finish(cluster, now, job, &task, outcome, report);
            }
            PendingOrDone::AwaitingCopies => {
                // settled by a later tick via settle_copies
            }
        }
    }

    fn finish(
        &mut self,
        _cluster: &mut ClusterSim,
        now: SimTime,
        job: JobId,
        task: &ErmsTask,
        outcome: Outcome,
        report: &mut TickReport,
    ) {
        let ok = outcome == Outcome::Success;
        self.job_started.remove(&job);
        self.condor.report(now, job, outcome);
        // drop the dedup key only when the job is no longer queued/running
        if self.condor.state(job) != Some(condor::scheduler::JobState::Queued) {
            self.inflight.retain(|_, &mut j| j != job);
        }
        if ok {
            report.tasks_completed += 1;
            self.total_completed += 1;
            match task {
                ErmsTask::Increase { path, .. } | ErmsTask::Decode { path, .. } => {
                    self.boosted.insert(path.clone());
                }
                ErmsTask::Decrease { path, .. } => {
                    self.boosted.remove(path);
                }
                ErmsTask::Encode { path } => {
                    self.boosted.remove(path);
                }
                ErmsTask::Repair { .. } => {} // no replication-state change
            }
        } else {
            report.tasks_failed += 1;
            self.total_failed += 1;
        }
    }

    fn exec_increase(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        job: JobId,
        path: &str,
        target: usize,
        report: &mut TickReport,
    ) -> PendingOrDone {
        let Some(file) = cluster.namespace().resolve(path) else {
            return PendingOrDone::Done(Outcome::Failure("file deleted".into()));
        };
        let current = cluster
            .namespace()
            .file(file)
            .map(|m| m.replication())
            .unwrap_or(0);
        let extra = target.saturating_sub(current);
        if extra == 0 {
            return PendingOrDone::Done(Outcome::Success);
        }
        // make sure the extras have standby nodes to land on
        if !self.ensure_standby_capacity(cluster, now, extra, report) {
            return PendingOrDone::Done(Outcome::Failure("awaiting standby boot".into()));
        }
        let copies = cluster.set_file_replication(file, target);
        if copies.is_empty() {
            // nothing could start (no space anywhere)
            return PendingOrDone::Done(Outcome::Failure("no placement targets".into()));
        }
        self.track_copies(now, job, copies);
        PendingOrDone::AwaitingCopies
    }

    fn exec_decrease(
        &mut self,
        cluster: &mut ClusterSim,
        path: &str,
        target: usize,
    ) -> PendingOrDone {
        let Some(file) = cluster.namespace().resolve(path) else {
            return PendingOrDone::Done(Outcome::Failure("file deleted".into()));
        };
        cluster.set_file_replication(file, target);
        PendingOrDone::Done(Outcome::Success)
    }

    fn exec_encode(&mut self, cluster: &mut ClusterSim, path: &str) -> PendingOrDone {
        let Some(file) = cluster.namespace().resolve(path) else {
            return PendingOrDone::Done(Outcome::Failure("file deleted".into()));
        };
        let (num_blocks, already) = match cluster.namespace().file(file) {
            Some(m) => (m.blocks.len(), m.is_encoded()),
            None => return PendingOrDone::Done(Outcome::Failure("file vanished".into())),
        };
        if already {
            return PendingOrDone::Done(Outcome::Success);
        }
        let block_size = cluster.config().block_size;
        let plan = erasure::StripePlan::for_file(num_blocks, block_size, self.cfg.cold_stripe);
        // 1. shrink data replicas to one
        cluster.set_file_replication(file, 1);
        // 2. place the parity blocks per Algorithm 1
        let mut parities = Vec::new();
        let mut index = 0u32;
        for stripe in &plan.stripes {
            for _ in 0..stripe.parity_count {
                match cluster.place_parity_block(file, index, block_size) {
                    Some((b, _node)) => parities.push(b),
                    None => {
                        return PendingOrDone::Done(Outcome::Failure(
                            "no parity placement target".into(),
                        ))
                    }
                }
                index += 1;
            }
        }
        let parity_count = parities.len() as u32;
        cluster.mark_encoded(file, parities);
        trace!(
            self.telemetry,
            cluster.now(),
            Tel::EncodeCold {
                path: path.to_string(),
                stripes: plan.stripes.len() as u32,
                parities: parity_count,
            }
        );
        PendingOrDone::Done(Outcome::Success)
    }

    fn exec_decode(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        job: JobId,
        path: &str,
        target: usize,
    ) -> PendingOrDone {
        let Some(file) = cluster.namespace().resolve(path) else {
            return PendingOrDone::Done(Outcome::Failure("file deleted".into()));
        };
        cluster.mark_decoded(file, target);
        trace!(
            self.telemetry,
            now,
            Tel::DecodeCold {
                path: path.to_string(),
            }
        );
        let copies = cluster.set_file_replication(file, target);
        if copies.is_empty() {
            return PendingOrDone::Done(Outcome::Success);
        }
        self.track_copies(now, job, copies);
        PendingOrDone::AwaitingCopies
    }

    /// Verified repair of a quarantined file: re-copy every block that
    /// sits below its target replica count from a surviving clean source
    /// (the cluster's copy completion re-verifies the source, so a
    /// corrupt replica can never propagate). Blocks with zero live
    /// replicas are left for the dark-shard reconstruction pass; the task
    /// fails and retries with backoff until reconstruction lands.
    fn exec_repair(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        job: JobId,
        path: &str,
    ) -> PendingOrDone {
        let Some(file) = cluster.namespace().resolve(path) else {
            return PendingOrDone::Done(Outcome::Failure("file deleted".into()));
        };
        let blocks: Vec<hdfs_sim::BlockId> = match cluster.namespace().file(file) {
            Some(meta) => {
                let mut all = meta.blocks.clone();
                if let hdfs_sim::namespace::StorageMode::Encoded { parity_blocks } = &meta.mode {
                    all.extend_from_slice(parity_blocks);
                }
                all
            }
            None => return PendingOrDone::Done(Outcome::Failure("file vanished".into())),
        };
        let mut copies = Vec::new();
        let mut dark = 0usize;
        for b in blocks {
            let have = cluster.blockmap().replica_count(b);
            let want = cluster.block_target(b).max(1);
            if have == 0 {
                dark += 1;
                continue;
            }
            if have < want {
                copies.extend(cluster.add_replicas(b, want - have));
            }
        }
        if !copies.is_empty() {
            self.track_copies(now, job, copies);
            return PendingOrDone::AwaitingCopies;
        }
        if dark > 0 {
            return PendingOrDone::Done(Outcome::Failure("awaiting reconstruction".into()));
        }
        PendingOrDone::Done(Outcome::Success)
    }

    fn track_copies(&mut self, now: SimTime, job: JobId, copies: Vec<CopyId>) {
        self.job_wait.insert(job, copies.len());
        self.job_started.insert(job, now);
        for c in copies {
            self.pending_copies.insert(c, job);
        }
    }

    fn settle_copies(&mut self, cluster: &mut ClusterSim, now: SimTime, report: &mut TickReport) {
        let mut finished: Vec<(JobId, bool)> = Vec::new();
        for stat in cluster.drain_completed_copies() {
            let Some(job) = self.pending_copies.remove(&stat.id) else {
                // not a task copy: maybe one of our shard reconstructions
                if let Some(block) = self.reconstruct_copies.remove(&stat.id) {
                    // success or failure, the block is fair game for the
                    // next heal pass to re-examine
                    self.reconstructing.remove(&block);
                }
                continue; // otherwise repair traffic, not ours
            };
            if !stat.succeeded {
                self.job_failed_copy.insert(job);
            }
            let left = self
                .job_wait
                .get_mut(&job)
                .expect("job with pending copies");
            *left -= 1;
            if *left == 0 {
                self.job_wait.remove(&job);
                finished.push((job, !self.job_failed_copy.remove(&job)));
            }
        }
        for (job, ok) in finished {
            let Some(task) = self.condor.journal().payload_of(job) else {
                continue;
            };
            let outcome = if ok {
                Outcome::Success
            } else {
                Outcome::Failure("replica copy failed".into())
            };
            self.finish(cluster, now, job, &task, outcome, report);
        }
    }

    /// Commission standby nodes until `extra` serving standby nodes are
    /// available (or the pool is exhausted). Returns whether enough
    /// capacity is already serving.
    fn ensure_standby_capacity(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        extra: usize,
        report: &mut TickReport,
    ) -> bool {
        if self.model.standby_nodes().count() == 0 {
            return true; // all-active configuration: place anywhere
        }
        let serving_standby = self
            .model
            .standby_nodes()
            .filter(|&n| matches!(cluster.node_state(n), hdfs_sim::datanode::NodeState::Active))
            .count();
        if serving_standby >= extra {
            return true;
        }
        // Not enough: commission more via ClassAds matchmaking, ranked by
        // free disk. The boot takes time; retry the task later.
        let mut need = extra - serving_standby;
        let request = ClassAd::new();
        while need > 0 {
            let Some(name) = self
                .matchmaker
                .best_match(&request, &self.commission_req, Some(&self.commission_rank))
                .map(str::to_string)
            else {
                break; // pool exhausted; extras will fall back to active
            };
            let id = NodeId(
                name.trim_start_matches("dn")
                    .parse()
                    .expect("node ad names are dnN"),
            );
            if self.model.request_boot(id, now) && cluster.commission(id) {
                // refresh the ad so the next match skips this node
                let mut ad = self.matchmaker.get(&name).cloned().unwrap_or_default();
                ad.set("PoweredOn", true);
                self.matchmaker.advertise(name, ad, None);
                report.commissioned.push(id);
                need -= 1;
            } else {
                break;
            }
        }
        // if no commissionable node remains (pool exhausted, or only
        // crashed nodes left — those can never boot), let placement fall
        // back to the active set instead of waiting forever
        let commissionable = self.model.powered_off().into_iter().any(|n| {
            matches!(
                cluster.node_state(n),
                hdfs_sim::datanode::NodeState::Standby
            )
        });
        !commissionable && report.commissioned.is_empty()
    }

    /// The self-healing pass: (1) time out tasks stuck behind dead
    /// endpoints or downed uplinks, (2) evict crashed standby nodes from
    /// the model so commissioning re-selects, (3) run the namenode
    /// repair scan (under-replication re-copies honour the replication
    /// monitor's staging and `max_replication_streams` pacing inside the
    /// cluster; block-reported excess gets trimmed), (4) reconstruct
    /// dark shards of encoded files from their surviving stripe mates.
    fn heal(&mut self, cluster: &mut ClusterSim, now: SimTime, report: &mut TickReport) {
        // (1) task-timeout watchdog
        self.watchdog_stuck_tasks(cluster, now, report);

        // (2) crashed commissioned standby nodes: bank their energy,
        // return them to Off, and let the next capacity request pick a
        // healthy replacement (their ad was withdrawn in advertise_nodes)
        for n in self.model.powered_on() {
            if matches!(cluster.node_state(n), hdfs_sim::datanode::NodeState::Dead)
                && self.model.mark_failed(n, now)
            {
                report.standby_evicted.push(n);
                trace!(
                    self.telemetry,
                    now,
                    Tel::SelfHeal {
                        action: "standby_evict".into(),
                        detail: n.to_string(),
                    }
                );
            }
        }

        // (3) periodic namenode repair scan
        let scan_due = self
            .tick_count
            .is_multiple_of(u64::from(self.cfg.repair_scan_ticks));
        let mut under = 0usize;
        let mut over = 0usize;
        if scan_due {
            under = cluster.repair_under_replicated().len();
            over = cluster.trim_over_replicated();
            report.repairs_started += under;
            report.replicas_trimmed += over;
        }

        // (4) reconstruct dark shards of encoded files (immediate
        // priority: a dark block is the namenode's most urgent queue, so
        // this bypasses Condor's idle gating entirely)
        let recon_before = report.reconstructions;
        self.reconstruct_dark_shards(cluster, now, report);
        if scan_due {
            trace!(
                self.telemetry,
                now,
                Tel::RepairScan {
                    under_replicated: under as u64,
                    over_replicated: over as u64,
                    dark_shards: (report.reconstructions - recon_before) as u64,
                }
            );
        }
    }

    /// Time out tasks stuck behind dead endpoints or downed uplinks so
    /// Condor can retry them with backoff elsewhere. Shared between the
    /// self-healing pass and the scrubber (which needs the watchdog for
    /// its repair tasks even when full self-healing is off).
    fn watchdog_stuck_tasks(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        report: &mut TickReport,
    ) {
        let stuck: Vec<JobId> = self
            .job_started
            .iter()
            .filter(|&(_, &started)| now.since(started) > self.cfg.task_timeout)
            .map(|(&job, _)| job)
            .collect();
        for job in stuck {
            self.pending_copies.retain(|_, &mut j| j != job);
            self.job_wait.remove(&job);
            self.job_failed_copy.remove(&job);
            let Some(task) = self.condor.journal().payload_of(job) else {
                continue;
            };
            report.tasks_timed_out += 1;
            trace!(
                self.telemetry,
                now,
                Tel::SelfHeal {
                    action: "task_timeout".into(),
                    detail: task.path().to_string(),
                }
            );
            self.finish(
                cluster,
                now,
                job,
                &task,
                Outcome::Failure("task timeout".into()),
                report,
            );
        }
    }

    /// The budgeted background scrub pass: walk a slice of the block
    /// space verifying stored checksums (hot, boosted files first), then
    /// schedule a verified repair task for every block left quarantined.
    /// The scan budget sheds under queue pressure — half budget once the
    /// Condor queue exceeds the concurrency cap, zero at twice the cap —
    /// so scrubbing degrades before it can stall the control loop.
    fn scrub_pass(&mut self, cluster: &mut ClusterSim, now: SimTime, report: &mut TickReport) {
        let full = self.cfg.scrub_blocks_per_tick as usize;
        let queued = self.condor.pending();
        let cap = self.cfg.max_concurrent_tasks;
        let budget = if queued >= cap * 2 {
            0
        } else if queued > cap {
            full / 2
        } else {
            full
        };

        // hot data first: blocks of currently boosted files
        let mut hot: Vec<hdfs_sim::BlockId> = Vec::new();
        for path in &self.boosted {
            let Some(file) = cluster.namespace().resolve(path) else {
                continue;
            };
            if let Some(meta) = cluster.namespace().file(file) {
                hot.extend(meta.blocks.iter().copied());
                if let hdfs_sim::namespace::StorageMode::Encoded { parity_blocks } = &meta.mode {
                    hot.extend(parity_blocks.iter().copied());
                }
            }
        }
        let (scanned, found) = cluster.scrub(budget, &hot);
        report.scrub_scanned += scanned;
        report.corruptions_found += found;

        // verified repair for everything quarantined (by this pass, the
        // read path, or a failed copy) — dedup through `inflight`
        let mut paths: BTreeSet<String> = BTreeSet::new();
        for block in cluster.corrupt_blocks_pending_repair() {
            let Some(info) = cluster.namespace().block(block) else {
                continue; // file deleted since quarantine
            };
            if let Some(meta) = cluster.namespace().file(info.file) {
                paths.insert(meta.path.clone());
            }
        }
        for path in paths {
            self.submit(now, ErmsTask::Repair { path }, Priority::Immediate, report);
        }
    }

    /// Start an RS reconstruction for each recoverable shard with zero
    /// live replicas. Candidate files come from the blockmap's dark-block
    /// index (blocks with a registered target and no replicas), so a
    /// healthy cluster pays nothing here regardless of namespace size;
    /// per-file stripe analysis then proceeds exactly as a namespace walk
    /// would, in file-id order.
    fn reconstruct_dark_shards(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        report: &mut TickReport,
    ) {
        use erasure::recovery::{rs_recovery_plan, ErasurePattern};
        use erasure::StripePlan;

        struct DarkShard {
            block: hdfs_sim::BlockId,
            sources: Vec<NodeId>,
        }
        let mut work: Vec<DarkShard> = Vec::new();
        let block_size = cluster.config().block_size;
        let candidates: BTreeSet<FileId> = cluster
            .blockmap()
            .dark_blocks()
            .filter_map(|b| cluster.namespace().block(b).map(|info| info.file))
            .collect();
        for meta in candidates
            .iter()
            .filter_map(|&id| cluster.namespace().file(id))
        {
            let hdfs_sim::namespace::StorageMode::Encoded { parity_blocks } = &meta.mode else {
                continue;
            };
            let plan = StripePlan::for_file(meta.blocks.len(), block_size, self.cfg.cold_stripe);
            for stripe in &plan.stripes {
                // shard order: the stripe's data blocks, then its parities
                let m = stripe.parity_count;
                let parities = &parity_blocks[stripe.index * m..(stripe.index + 1) * m];
                let shards: Vec<hdfs_sim::BlockId> = stripe
                    .blocks
                    .iter()
                    .map(|&i| meta.blocks[i])
                    .chain(parities.iter().copied())
                    .collect();
                let erased: Vec<usize> = (0..shards.len())
                    .filter(|&i| cluster.blockmap().replica_count(shards[i]) == 0)
                    .collect();
                if erased.is_empty() {
                    continue;
                }
                let k = stripe.blocks.len();
                let pattern = ErasurePattern::from_indices(shards.len(), &erased);
                for &e in &erased {
                    let block = shards[e];
                    // only data shards carry client-visible bytes; dark
                    // parities are rebuilt too (they restore tolerance)
                    if self.reconstructing.contains(&block) {
                        continue;
                    }
                    let Some(recovery) = rs_recovery_plan(&pattern, k, e) else {
                        continue; // stripe unrecoverable: true data loss
                    };
                    let sources: Vec<NodeId> = recovery
                        .read_from
                        .iter()
                        .filter_map(|&s| {
                            cluster.blockmap().replica_nodes(shards[s]).first().copied()
                        })
                        .collect();
                    if sources.len() < recovery.read_from.len() {
                        continue; // a survivor went dark mid-scan
                    }
                    work.push(DarkShard { block, sources });
                }
            }
        }
        for shard in work {
            // target: the serving node with the most free disk that is
            // not a source (ties break toward the lower id)
            let target = cluster
                .node_views(Some(shard.block), None)
                .into_iter()
                .filter(|v| v.serving && !v.holds_block && !shard.sources.contains(&v.id))
                .max_by_key(|v| (v.free, std::cmp::Reverse(v.id.0)))
                .map(|v| v.id);
            let Some(target) = target else { continue };
            if let Some(copy) = cluster.reconstruct_block(shard.block, &shard.sources, target) {
                self.reconstruct_copies.insert(copy, shard.block);
                self.reconstructing.insert(shard.block);
                report.reconstructions += 1;
                trace!(
                    self.telemetry,
                    now,
                    Tel::SelfHeal {
                        action: "reconstruct_shard".into(),
                        detail: shard.block.to_string(),
                    }
                );
            }
        }
    }

    fn shutdown_drained_standby(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        report: &mut TickReport,
    ) {
        if self.condor.pending() > 0 || !self.job_wait.is_empty() {
            return; // replica traffic may still target standby nodes
        }
        for n in self.model.powered_on() {
            let serving = matches!(cluster.node_state(n), hdfs_sim::datanode::NodeState::Active);
            if serving
                && cluster.node_block_count(n) == 0
                && cluster.node_load(n) == 0
                && cluster.power_off(n).is_ok()
            {
                self.model.shut_down(n, now);
                report.shut_down.push(n);
            }
        }
    }
}

enum PendingOrDone {
    Done(Outcome),
    AwaitingCopies,
}

/// Build the configured judge backend. The learned backends share one
/// discretizer derived from the rule thresholds plus the namespace's
/// default replication, so their feature fences line up with the
/// decision boundaries the rules (and the manager's gating) use.
fn build_policy(cfg: &ErmsConfig, default_replication: usize) -> Box<dyn JudgePolicy> {
    let t = &cfg.thresholds;
    let disc = policy::Discretizer {
        tau_hot: t.tau_hot,
        block_burst: t.block_burst,
        block_warm: t.block_warm,
        tau_cooled: t.tau_cooled,
        tau_cold: t.tau_cold,
        window_secs: t.window.as_secs_f64(),
        cold_age_secs: t.cold_age.as_secs_f64(),
        default_replication,
    };
    match cfg.judge_backend {
        JudgeBackend::Rules => Box::new(RulesPolicy::new(t.clone())),
        JudgeBackend::QLearning => Box::new(policy::QLearningJudge::new(
            policy::QConfig::new(disc),
            cfg.judge_seed,
        )),
        JudgeBackend::Hmm => Box::new(policy::HmmJudge::new(policy::HmmConfig::new(disc))),
    }
}

fn class_name(class: DataClass) -> &'static str {
    match class {
        DataClass::Hot => "hot",
        DataClass::Cooled => "cooled",
        DataClass::Normal => "normal",
        DataClass::Cold => "cold",
    }
}

/// Checkpoint codec for [`ErmsTask`] — the payload handed to Condor's
/// generic `save_state_with`/`load_state_with`.
mod ck {
    use super::ErmsTask;
    use checkpoint::codec as c;
    use checkpoint::{CheckpointError, Value};

    pub(super) fn task(t: &ErmsTask) -> Value {
        let (kind, path, target) = match t {
            ErmsTask::Increase { path, target } => ("increase", path, Some(*target)),
            ErmsTask::Decrease { path, target } => ("decrease", path, Some(*target)),
            ErmsTask::Encode { path } => ("encode", path, None),
            ErmsTask::Decode { path, target } => ("decode", path, Some(*target)),
            ErmsTask::Repair { path } => ("repair", path, None),
        };
        let mut b = c::MapBuilder::new().str("kind", kind).str("path", path);
        if let Some(t) = target {
            b = b.u64("target", t as u64);
        }
        b.build()
    }

    pub(super) fn task_back(v: &Value) -> Result<ErmsTask, CheckpointError> {
        let path = c::get_str(v, "path")?.to_string();
        Ok(match c::get_str(v, "kind")? {
            "increase" => ErmsTask::Increase {
                path,
                target: c::get_usize(v, "target")?,
            },
            "decrease" => ErmsTask::Decrease {
                path,
                target: c::get_usize(v, "target")?,
            },
            "encode" => ErmsTask::Encode { path },
            "repair" => ErmsTask::Repair { path },
            "decode" => ErmsTask::Decode {
                path,
                target: c::get_usize(v, "target")?,
            },
            other => {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown task kind {other:?}"
                )))
            }
        })
    }
}

impl checkpoint::Checkpointable for ErmsManager {
    // Rebuild-then-hydrate: a restored manager is built by
    // `ErmsManager::new` with the same config first, then hydrated. The
    // config, the static commissioning expressions, the telemetry sink
    // and the matchmaker (whose ads are re-advertised wholesale from
    // cluster state at the top of every tick) are construction/derived
    // state; everything the control loop itself mutates is captured.
    fn save_state(&self) -> checkpoint::Value {
        use checkpoint::codec::{seq_of, MapBuilder};
        use checkpoint::Value;
        MapBuilder::new()
            .put("judge", self.judge.save_state())
            .put("policy", self.policy.save_state())
            .put("condor", self.condor.save_state_with(ck::task))
            .put("model", self.model.save_state())
            .put("boosted", seq_of(&self.boosted, |p| Value::Str(p.clone())))
            .put(
                "cooled_streak",
                seq_of(&self.cooled_streak, |(p, &n)| {
                    Value::Seq(vec![Value::Str(p.clone()), Value::U64(n.into())])
                }),
            )
            .put(
                "inflight",
                seq_of(&self.inflight, |(key, j)| {
                    Value::Seq(vec![
                        Value::Str(key.0.clone()),
                        Value::U64(key.1.into()),
                        Value::U64(j.0),
                    ])
                }),
            )
            .put(
                "pending_copies",
                seq_of(&self.pending_copies, |(cp, j)| {
                    Value::Seq(vec![Value::U64(cp.0), Value::U64(j.0)])
                }),
            )
            .put(
                "job_wait",
                seq_of(&self.job_wait, |(j, &n)| {
                    Value::Seq(vec![Value::U64(j.0), Value::U64(n as u64)])
                }),
            )
            .put(
                "job_failed_copy",
                seq_of(&self.job_failed_copy, |j| Value::U64(j.0)),
            )
            .put(
                "job_started",
                seq_of(&self.job_started, |(j, t)| {
                    Value::Seq(vec![Value::U64(j.0), Value::U64(t.as_nanos())])
                }),
            )
            .put(
                "reconstruct_copies",
                seq_of(&self.reconstruct_copies, |(cp, b)| {
                    Value::Seq(vec![Value::U64(cp.0), Value::U64(b.0)])
                }),
            )
            .put(
                "reconstructing",
                seq_of(&self.reconstructing, |b| Value::U64(b.0)),
            )
            .put("active", seq_of(&self.active, |p| Value::Str(p.clone())))
            .put(
                "cold_due",
                seq_of(&self.cold_due, |(p, t)| {
                    Value::Seq(vec![Value::Str(p.clone()), Value::U64(t.as_nanos())])
                }),
            )
            .bool("primed", self.primed)
            .u64("tick_count", self.tick_count)
            .u64("total_completed", self.total_completed)
            .u64("total_failed", self.total_failed)
            .build()
    }

    fn load_state(&mut self, state: &checkpoint::Value) -> Result<(), checkpoint::CheckpointError> {
        use checkpoint::codec as c;
        use checkpoint::{CheckpointError, Value};
        fn parts<'a>(v: &'a Value, n: usize, what: &str) -> Result<&'a [Value], CheckpointError> {
            let p = c::as_seq(v, what)?;
            if p.len() != n {
                return Err(CheckpointError::Corrupt(format!("{what} arity")));
            }
            Ok(p)
        }
        fn string(v: &Value, what: &str) -> Result<String, CheckpointError> {
            Ok(c::as_str(v, what)?.to_string())
        }
        self.judge.load_state(c::get(state, "judge")?)?;
        self.policy.load_state(c::get(state, "policy")?)?;
        self.condor
            .load_state_with(c::get(state, "condor")?, ck::task_back)?;
        self.model.load_state(c::get(state, "model")?)?;
        self.boosted = c::get_seq(state, "boosted")?
            .iter()
            .map(|v| string(v, "boosted path"))
            .collect::<Result<_, _>>()?;
        self.cooled_streak = c::get_seq(state, "cooled_streak")?
            .iter()
            .map(|v| {
                let p = parts(v, 2, "cooled_streak entry")?;
                let n = u32::try_from(c::as_u64(&p[1], "streak")?)
                    .map_err(|_| CheckpointError::Corrupt("streak exceeds u32".into()))?;
                Ok((string(&p[0], "path")?, n))
            })
            .collect::<Result<_, CheckpointError>>()?;
        self.inflight = c::get_seq(state, "inflight")?
            .iter()
            .map(|v| {
                let p = parts(v, 3, "inflight entry")?;
                let kind = u8::try_from(c::as_u64(&p[1], "task kind")?)
                    .map_err(|_| CheckpointError::Corrupt("task kind exceeds u8".into()))?;
                Ok((
                    (string(&p[0], "path")?, kind),
                    JobId(c::as_u64(&p[2], "job id")?),
                ))
            })
            .collect::<Result<_, CheckpointError>>()?;
        self.pending_copies = c::get_seq(state, "pending_copies")?
            .iter()
            .map(|v| {
                let p = parts(v, 2, "pending_copies entry")?;
                Ok((
                    CopyId(c::as_u64(&p[0], "copy id")?),
                    JobId(c::as_u64(&p[1], "job id")?),
                ))
            })
            .collect::<Result<_, CheckpointError>>()?;
        self.job_wait = c::get_seq(state, "job_wait")?
            .iter()
            .map(|v| {
                let p = parts(v, 2, "job_wait entry")?;
                Ok((
                    JobId(c::as_u64(&p[0], "job id")?),
                    c::as_u64(&p[1], "copies waited on")? as usize,
                ))
            })
            .collect::<Result<_, CheckpointError>>()?;
        self.job_failed_copy = c::get_seq(state, "job_failed_copy")?
            .iter()
            .map(|v| Ok(JobId(c::as_u64(v, "job id")?)))
            .collect::<Result<_, CheckpointError>>()?;
        self.job_started = c::get_seq(state, "job_started")?
            .iter()
            .map(|v| {
                let p = parts(v, 2, "job_started entry")?;
                Ok((
                    JobId(c::as_u64(&p[0], "job id")?),
                    SimTime::from_nanos(c::as_u64(&p[1], "started at")?),
                ))
            })
            .collect::<Result<_, CheckpointError>>()?;
        self.reconstruct_copies = c::get_seq(state, "reconstruct_copies")?
            .iter()
            .map(|v| {
                let p = parts(v, 2, "reconstruct_copies entry")?;
                Ok((
                    CopyId(c::as_u64(&p[0], "copy id")?),
                    hdfs_sim::BlockId(c::as_u64(&p[1], "block id")?),
                ))
            })
            .collect::<Result<_, CheckpointError>>()?;
        self.reconstructing = c::get_seq(state, "reconstructing")?
            .iter()
            .map(|v| Ok(hdfs_sim::BlockId(c::as_u64(v, "block id")?)))
            .collect::<Result<_, CheckpointError>>()?;
        self.active = c::get_seq(state, "active")?
            .iter()
            .map(|v| string(v, "active path"))
            .collect::<Result<_, _>>()?;
        self.cold_due = c::get_seq(state, "cold_due")?
            .iter()
            .map(|v| {
                let p = parts(v, 2, "cold_due entry")?;
                Ok((
                    string(&p[0], "path")?,
                    SimTime::from_nanos(c::as_u64(&p[1], "cold due at")?),
                ))
            })
            .collect::<Result<_, CheckpointError>>()?;
        self.cold_due_floor = SimTime::ZERO;
        self.primed = c::get_bool(state, "primed")?;
        self.tick_count = c::get_u64(state, "tick_count")?;
        self.total_completed = c::get_u64(state, "total_completed")?;
        self.total_failed = c::get_u64(state, "total_failed")?;
        Ok(())
    }
}

/// Apply a compensation action directly (outside Condor: the journal has
/// already recorded the rollback).
impl ErmsManager {
    /// Crash-restart recovery. An exact resume (cluster and manager both
    /// hydrated from the same snapshot) needs nothing more than
    /// `load_state`; a *restart* — a fresh manager process attaching to a
    /// cluster that outlived the old one — must deal with the tasks the
    /// journal shows as in flight at capture time, because their
    /// executors died with the old process. Each job named by
    /// [`condor::journal::Journal::rollback_plan`] is failed (Condor's
    /// retry or rollback machinery then takes over) and any resulting
    /// rollbacks are compensated immediately, so the cluster converges
    /// back to an oracle-clean state under normal ticking. Returns the
    /// number of in-flight tasks recovered.
    pub fn restore(&mut self, cluster: &mut ClusterSim, now: SimTime) -> usize {
        let plan = self.condor.journal().rollback_plan();
        let recovered = plan.len();
        let mut report = TickReport::default();
        for (job, task) in plan {
            // volatile copy tracking died with the old executor
            self.pending_copies.retain(|_, &mut j| j != job);
            self.job_wait.remove(&job);
            self.job_failed_copy.remove(&job);
            trace!(
                self.telemetry,
                now,
                Tel::SelfHeal {
                    action: "crash_restart".into(),
                    detail: task.path().to_string(),
                }
            );
            self.finish(
                cluster,
                now,
                job,
                &task,
                Outcome::Failure("manager crash-restart".into()),
                &mut report,
            );
        }
        let default_r = cluster.config().default_replication;
        for (_job, task) in self.condor.take_rollbacks(now) {
            let inv = task.inverse(default_r);
            self.apply_compensation(cluster, inv);
        }
        recovered
    }

    fn apply_compensation(&mut self, cluster: &mut ClusterSim, task: ErmsTask) {
        match task {
            ErmsTask::Decrease { path, target } | ErmsTask::Increase { path, target } => {
                if let Some(file) = cluster.namespace().resolve(&path) {
                    cluster.set_file_replication(file, target);
                }
            }
            ErmsTask::Decode { path, target } => {
                if let Some(file) = cluster.namespace().resolve(&path) {
                    cluster.mark_decoded(file, target);
                    cluster.set_file_replication(file, target);
                }
            }
            ErmsTask::Encode { .. } => {
                // failed decode leaves the file encoded; nothing to undo
            }
            ErmsTask::Repair { .. } => {
                // repair is idempotent convergence toward the target
                // replica count; an interrupted repair has nothing to undo
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdfs_sim::topology::{ClientId, Endpoint};
    use hdfs_sim::{ClusterConfig, ClusterSim};
    use simcore::units::MB;
    use simcore::SimDuration;

    fn cluster() -> ClusterSim {
        ClusterSim::new(
            ClusterConfig::paper_testbed(),
            Box::new(crate::placement::ErmsPlacement::new()),
        )
    }

    fn fast_thresholds() -> crate::Thresholds {
        let mut t = crate::Thresholds::calibrate(4.0);
        t.window = SimDuration::from_secs(600);
        t.cold_age = SimDuration::from_secs(300);
        t
    }

    fn manager(cluster: &mut ClusterSim, standby: Vec<NodeId>) -> ErmsManager {
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .standby(standby)
            .build()
            .unwrap();
        ErmsManager::new(cfg, cluster).unwrap()
    }

    fn hammer(cluster: &mut ClusterSim, path: &str, readers: usize) {
        for i in 0..readers {
            cluster
                .open_read(Endpoint::Client(ClientId(i as u32 + 100)), path)
                .unwrap();
        }
        cluster.run_until_quiescent();
    }

    #[test]
    fn hot_file_gets_boosted_onto_standby() {
        let mut c = cluster();
        let mut m = manager(&mut c, (10..18).map(NodeId).collect());
        let f = c.create_file("/hot", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40); // 40/r3 ≈ 13 > τ_M=4

        // tick 1: classifies hot, commissions standby, task retries
        let now = c.now();
        let r1 = m.tick(&mut c, now);
        assert_eq!(r1.hot, 1);
        assert!(r1.tasks_submitted >= 1);
        assert!(!r1.commissioned.is_empty(), "standby nodes commissioned");
        // let the standby nodes boot
        c.run_until(c.now() + SimDuration::from_secs(60));
        // tick 2+: the increase lands and copies flow
        for _ in 0..5 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let now = c.now();
        m.tick(&mut c, now); // settle copy completions
        let b = c.namespace().file(f).unwrap().blocks[0];
        let r = c.blockmap().replica_count(b);
        assert!(r > 3, "replication should rise above default, got {r}");
        assert!(m.is_boosted("/hot"));
        // extras landed on standby-pool nodes
        let on_standby = (10..18).map(NodeId).filter(|&n| c.node_holds(n, b)).count();
        assert!(on_standby > 0, "extras parked on standby nodes");
    }

    #[test]
    fn cooled_file_sheds_extras_and_standby_powers_off() {
        let mut c = cluster();
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .standby((10..18).map(NodeId))
            .encode(false) // keep the cooled file from going cold→encoded
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        let f = c.create_file("/fading", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/fading", 40);
        // boost it
        for _ in 0..8 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until(c.now() + SimDuration::from_secs(40));
        }
        let b = c.namespace().file(f).unwrap().blocks[0];
        assert!(c.blockmap().replica_count(b) > 3, "precondition: boosted");

        // silence: demand expires from the window → cooled → decrease
        c.run_until(c.now() + SimDuration::from_secs(1200));
        for _ in 0..4 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until(c.now() + SimDuration::from_secs(10));
        }
        assert_eq!(c.blockmap().replica_count(b), 3, "back to default");
        assert!(!m.is_boosted("/fading"));
        // drained standby nodes were shut down again
        let serving_standby = (10..18)
            .map(NodeId)
            .filter(|&n| matches!(c.node_state(n), hdfs_sim::datanode::NodeState::Active))
            .count();
        assert_eq!(serving_standby, 0, "standby pool powered back off");
    }

    #[test]
    fn cold_file_gets_encoded_and_saves_storage() {
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new());
        // 20 blocks × 3 replicas
        let f = c.create_file("/cold", 1280 * MB, 3, None).unwrap();
        let before = c.storage_used();
        // age it far beyond cold_age with zero accesses
        c.run_until(c.now() + SimDuration::from_secs(4000));
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert_eq!(r.cold, 1);
        let now = c.now();
        m.tick(&mut c, now); // idle dispatch executes the encode
        let meta = c.namespace().file(f).unwrap();
        assert!(meta.is_encoded());
        let after = c.storage_used();
        assert!(
            after < before / 2,
            "RS(10,4) ≈ 1.4x vs 3x: {before} -> {after}"
        );
        // 20 blocks → 2 stripes → 8 parities, r=1 data
        assert_eq!(after, (20 + 8) * 64 * MB);
    }

    #[test]
    fn hot_encoded_file_is_decoded_immediately() {
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new());
        let f = c.create_file("/revived", 64 * MB, 3, None).unwrap();
        // make it cold + encoded
        c.run_until(c.now() + SimDuration::from_secs(4000));
        let now = c.now();
        m.tick(&mut c, now);
        let now = c.now();
        m.tick(&mut c, now);
        assert!(c.namespace().file(f).unwrap().is_encoded());

        // demand returns
        hammer(&mut c, "/revived", 30);
        for _ in 0..6 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let meta = c.namespace().file(f).unwrap();
        assert!(!meta.is_encoded(), "decode restored replication");
        assert!(meta.replication() >= 3);
    }

    #[test]
    fn journal_records_the_whole_story() {
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new());
        c.create_file("/hot", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40);
        for _ in 0..5 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let journal = m.condor().journal();
        assert!(!journal.is_empty());
        let states = journal.replay();
        assert!(states
            .values()
            .any(|s| *s == condor::journal::ReplayState::Completed));
    }

    #[test]
    fn freshness_boost_prewarms_new_files() {
        let mut c = cluster();
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .standby([])
            .freshness_boost(true)
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        let f = c.create_file("/new", 64 * MB, 3, None).unwrap();
        // a couple of reads — far below the hot threshold
        hammer(&mut c, "/new", 3);
        for _ in 0..4 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let b = c.namespace().file(f).unwrap().blocks[0];
        assert_eq!(
            c.blockmap().replica_count(b),
            4,
            "create→open pattern should pre-warm by one replica"
        );
    }

    fn healing_manager(cluster: &mut ClusterSim, standby: Vec<NodeId>) -> ErmsManager {
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .standby(standby)
            .encode(false)
            .self_healing(true)
            .task_timeout(SimDuration::from_secs(60))
            .build()
            .unwrap();
        ErmsManager::new(cfg, cluster).unwrap()
    }

    #[test]
    fn self_healing_restores_replication_after_a_kill() {
        let mut c = cluster();
        let mut m = healing_manager(&mut c, Vec::new());
        let f = c.create_file("/data", 512 * MB, 3, None).unwrap();
        c.run_until_quiescent();

        let victim = c
            .blockmap()
            .replica_nodes(c.namespace().file(f).unwrap().blocks[0])[0];
        let (degraded, lost) = c.kill_node(victim);
        assert!(!degraded.is_empty());
        assert!(lost.is_empty(), "3-way replication survives one kill");

        let now = c.now();
        let r = m.tick(&mut c, now);
        assert!(r.repairs_started > 0, "repair scan kicked in");
        for _ in 0..6 {
            c.run_until_quiescent();
            let now = c.now();
            m.tick(&mut c, now);
        }
        for b in &c.namespace().file(f).unwrap().blocks {
            assert_eq!(c.blockmap().replica_count(*b), 3, "{b:?} back to target");
        }
        assert!(c.durability().loss_events().is_empty());
    }

    #[test]
    fn without_self_healing_the_deficit_persists() {
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new()); // healing off
        let f = c.create_file("/data", 512 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let victim = c
            .blockmap()
            .replica_nodes(c.namespace().file(f).unwrap().blocks[0])[0];
        c.kill_node(victim);
        for _ in 0..4 {
            let now = c.now();
            let r = m.tick(&mut c, now);
            assert_eq!(r.repairs_started, 0);
            c.run_until_quiescent();
        }
        let deficit = c
            .namespace()
            .file(f)
            .unwrap()
            .blocks
            .iter()
            .filter(|&&b| c.blockmap().replica_count(b) < 3)
            .count();
        assert!(deficit > 0, "nobody repaired the killed replicas");
    }

    #[test]
    fn self_healing_reconstructs_dark_encoded_shards() {
        let mut c = cluster();
        // encode via the normal cold path, then enable healing semantics
        // by building a healing manager over the same cluster state
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .standby([])
            .self_healing(true)
            .task_timeout(SimDuration::from_secs(60))
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        let f = c.create_file("/cold", 1280 * MB, 3, None).unwrap();
        c.run_until(c.now() + SimDuration::from_secs(4000));
        let now = c.now();
        m.tick(&mut c, now);
        let now = c.now();
        m.tick(&mut c, now);
        assert!(c.namespace().file(f).unwrap().is_encoded());

        // kill the single holder of the first data block
        let b0 = c.namespace().file(f).unwrap().blocks[0];
        let victim = c.blockmap().replica_nodes(b0)[0];
        let (_, lost) = c.kill_node(victim);
        assert!(lost.contains(&b0), "encoded data block went dark");
        assert!(
            c.durability().open_windows() > 0,
            "dark encoded shard opens an unavailability window"
        );

        let now = c.now();
        let r = m.tick(&mut c, now);
        assert!(r.reconstructions > 0, "reconstruction scheduled");
        for _ in 0..6 {
            c.run_until_quiescent();
            let now = c.now();
            m.tick(&mut c, now);
        }
        for b in &c.namespace().file(f).unwrap().blocks {
            assert!(
                c.blockmap().replica_count(*b) >= 1,
                "{b:?} rebuilt from stripe mates"
            );
        }
        assert_eq!(c.durability().open_windows(), 0, "windows closed");
        assert!(c.durability().loss_events().is_empty(), "no data lost");
    }

    #[test]
    fn watchdog_times_out_stuck_tasks() {
        let mut c = cluster();
        let mut m = healing_manager(&mut c, Vec::new());
        c.create_file("/hot", 256 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40);
        // cripple every node so the boost copies crawl (80 MB/s → 0.8)
        for n in c.topology().nodes().collect::<Vec<_>>() {
            c.set_node_slowdown(n, 0.01);
        }
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert!(r.tasks_submitted >= 1, "boost submitted");
        // past the 60 s timeout, but well short of copy completion
        c.run_until(c.now() + SimDuration::from_secs(70));
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert!(r.tasks_timed_out >= 1, "watchdog fired: {r:?}");
    }

    #[test]
    fn crashed_standby_is_evicted_and_replaced() {
        let mut c = cluster();
        let standby: Vec<NodeId> = (10..18).map(NodeId).collect();
        let mut m = healing_manager(&mut c, standby.clone());
        c.create_file("/hot", 64 * MB, 3, None).unwrap();
        // 15 direct reads: hot (15/3 > 4) with a modest optimum, so
        // exactly one standby node gets commissioned
        hammer(&mut c, "/hot", 15);
        let now = c.now();
        let r = m.tick(&mut c, now);
        let commissioned = r
            .commissioned
            .first()
            .copied()
            .expect("standby commissioned");
        c.run_until(c.now() + SimDuration::from_secs(60)); // let it boot

        assert!(c.crash_node(commissioned));
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert!(
            r.standby_evicted.contains(&commissioned),
            "dead standby evicted: {r:?}"
        );
        assert_eq!(
            m.model().state_of(commissioned),
            Some(crate::model::StandbyState::Off),
            "model returns the node to the commission pool"
        );
        // new demand needing standby capacity re-selects a healthy node
        c.create_file("/hot2", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot2", 15);
        let mut replacement = None;
        for _ in 0..6 {
            let now = c.now();
            let r = m.tick(&mut c, now);
            if let Some(&n) = r.commissioned.iter().find(|&&n| n != commissioned) {
                replacement = Some(n);
                break;
            }
            c.run_until(c.now() + SimDuration::from_secs(70));
        }
        assert!(replacement.is_some(), "a healthy standby was re-selected");
    }

    #[test]
    fn new_rejects_unknown_or_occupied_standby_nodes() {
        use crate::config::ConfigError;

        // paper_testbed has 18 datanodes: dn99 does not exist
        let mut c = cluster();
        let cfg = ErmsConfig::builder().standby([NodeId(99)]).build().unwrap();
        assert_eq!(
            ErmsManager::new(cfg, &mut c).err(),
            Some(ConfigError::UnknownStandbyNode {
                node: 99,
                datanodes: 18
            })
        );

        // a node already holding replicas cannot join the standby pool
        let mut c = cluster();
        c.create_file("/data", 512 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let occupied = (0..18)
            .map(NodeId)
            .find(|&n| c.node_block_count(n) > 0)
            .expect("some node holds a replica");
        let cfg = ErmsConfig::builder().standby([occupied]).build().unwrap();
        match ErmsManager::new(cfg, &mut c).err() {
            Some(ConfigError::StandbyHoldsReplicas { node, blocks }) => {
                assert_eq!(node, occupied.0);
                assert!(blocks > 0);
            }
            other => panic!("expected StandbyHoldsReplicas, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_traces_the_boost_decision() {
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new());
        let sink = simcore::telemetry::TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        m.set_telemetry(sink.clone());
        c.create_file("/hot", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40);
        for _ in 0..5 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let events = sink.drain_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        assert!(kinds.contains(&"verdict"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"replication_boost"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"task_dispatched"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"copy_completed"), "kinds: {kinds:?}");
        // the boost event carries the formula inputs
        let boost = events
            .iter()
            .find(|e| e.event.kind() == "replication_boost")
            .unwrap();
        let line = boost.to_json_line();
        assert!(line.contains("\"path\":\"/hot\""), "{line}");
        assert!(line.contains("\"sessions\":"), "{line}");
    }

    #[test]
    fn stable_files_leave_the_visit_set() {
        let mut c = cluster();
        let mut t = crate::Thresholds::calibrate(4.0);
        t.window = SimDuration::from_secs(600);
        t.cold_age = SimDuration::from_secs(7200);
        let cfg = ErmsConfig::builder()
            .thresholds(t)
            .standby([])
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        c.create_file("/idle", 64 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let now = c.now();
        let r1 = m.tick(&mut c, now);
        assert_eq!(r1.files_judged, 1, "first tick is a full scan");
        // past the CEP window (creation line expired), well short of cold
        c.run_until(c.now() + SimDuration::from_secs(700));
        let now = c.now();
        let r2 = m.tick(&mut c, now);
        assert_eq!(r2.files_judged, 1, "active until observed stable");
        let now = c.now();
        let r3 = m.tick(&mut c, now);
        assert_eq!(r3.files_judged, 0, "stable file skipped");
        // touching it puts it back under observation
        c.open_read(Endpoint::Client(ClientId(7)), "/idle").unwrap();
        c.run_until_quiescent();
        let now = c.now();
        let r4 = m.tick(&mut c, now);
        assert_eq!(r4.files_judged, 1, "dirty file revisited");
    }

    #[test]
    fn deleting_a_file_prunes_manager_bookkeeping() {
        let mut c = cluster();
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .standby([])
            .encode(false)
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        c.create_file("/doomed", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/doomed", 40);
        for _ in 0..5 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        assert!(m.is_boosted("/doomed"), "precondition: file got boosted");
        // silence starts a cooled streak (patience 3, so no demote yet)
        c.run_until(c.now() + SimDuration::from_secs(1200));
        let now = c.now();
        m.tick(&mut c, now);
        assert!(
            m.cooled_streak.contains_key("/doomed"),
            "precondition: streak accruing"
        );
        assert!(m.active.contains("/doomed"));

        assert!(c.delete_file("/doomed"));
        let now = c.now();
        m.tick(&mut c, now);
        assert!(!m.boosted.contains("/doomed"), "boost pruned");
        assert!(!m.cooled_streak.contains_key("/doomed"), "streak pruned");
        assert!(!m.active.contains("/doomed"), "visit set pruned");
        assert!(!m.cold_due.contains_key("/doomed"), "cold schedule pruned");
        assert!(
            m.inflight.keys().all(|(p, _)| p != "/doomed"),
            "task dedup keys pruned"
        );
    }

    #[test]
    fn advertised_free_disk_is_bytes_not_truncated_mib() {
        use hdfs_sim::ClusterConfig;

        // 4-node cluster where every node ends up with 512 bytes free:
        // whole-MiB truncation would advertise FreeDisk = 0 for all of
        // them and starve rank-by-free-disk matchmaking of any signal.
        let cfg = ClusterConfig {
            disk_capacity: 64 * MB + 512,
            ..ClusterConfig::tiny()
        };
        let mut c = ClusterSim::new(cfg, Box::new(crate::placement::ErmsPlacement::new()));
        let mut m = manager(&mut c, Vec::new());
        c.create_file("/fill", 64 * MB, 4, None).unwrap();
        c.run_until_quiescent();
        let now = c.now();
        m.tick(&mut c, now);
        for view in c.node_views(None, None) {
            let ad = m.matchmaker.get(&view.id.to_string()).expect("node ad");
            let advertised = ad.get("FreeDisk").unwrap().as_f64().unwrap();
            assert_eq!(advertised, view.free as f64, "FreeDisk is in bytes");
            if view.free > 0 && view.free < 1 << 20 {
                assert!(advertised > 0.0, "sub-MiB free must not advertise 0");
            }
        }
        let holders = c
            .node_views(None, None)
            .into_iter()
            .filter(|v| v.free == 512)
            .count();
        assert!(holders > 0, "at least one node is down to 512 free bytes");
    }

    #[test]
    fn quiet_cluster_does_nothing() {
        let mut c = cluster();
        let mut m = manager(&mut c, (10..18).map(NodeId).collect());
        c.create_file("/idle", 64 * MB, 3, None).unwrap();
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert_eq!(r.hot + r.cooled + r.cold, 0);
        assert_eq!(r.tasks_submitted, 0);
        assert!(r.commissioned.is_empty());
    }

    /// Drive a manager into a rich state (boosted file, commissioned
    /// standby, copies in flight), checkpoint it through a real JSON
    /// cycle, and hydrate a freshly-constructed manager: every piece of
    /// control-loop bookkeeping must survive.
    #[test]
    fn checkpoint_round_trip_restores_every_bookkeeping_set() {
        use checkpoint::Checkpointable;
        let standby: Vec<NodeId> = (10..18).map(NodeId).collect();
        let mut c = cluster();
        let mut m = manager(&mut c, standby.clone());
        c.create_file("/hot", 64 * MB, 3, None).unwrap();
        c.create_file("/quiet", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40);
        for _ in 0..6 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until(c.now() + SimDuration::from_secs(30));
        }

        let json = serde_json::to_string(&m.save_state()).unwrap();
        let back = serde_json::parse_value(&json).unwrap();
        let mut scratch = cluster();
        let mut fresh = manager(&mut scratch, standby);
        fresh.load_state(&back).unwrap();

        assert_eq!(fresh.boosted, m.boosted);
        assert_eq!(fresh.cooled_streak, m.cooled_streak);
        assert_eq!(fresh.inflight, m.inflight);
        assert_eq!(fresh.pending_copies, m.pending_copies);
        assert_eq!(fresh.job_wait, m.job_wait);
        assert_eq!(fresh.job_failed_copy, m.job_failed_copy);
        assert_eq!(fresh.job_started, m.job_started);
        assert_eq!(fresh.reconstruct_copies, m.reconstruct_copies);
        assert_eq!(fresh.reconstructing, m.reconstructing);
        assert_eq!(fresh.active, m.active);
        assert_eq!(fresh.cold_due, m.cold_due);
        assert_eq!(fresh.primed, m.primed);
        assert_eq!(fresh.tick_count, m.tick_count);
        assert_eq!(fresh.total_completed, m.total_completed);
        assert_eq!(fresh.total_failed, m.total_failed);
        assert_eq!(fresh.judge.events_seen(), m.judge.events_seen());
        assert_eq!(fresh.model.powered_on(), m.model.powered_on());
        assert_eq!(fresh.condor.pending(), m.condor.pending());
        assert_eq!(
            fresh.condor.journal().rollback_plan(),
            m.condor.journal().rollback_plan()
        );
    }

    /// A fresh manager process attaches to a cluster that outlived the
    /// old one: `restore` fails every journal-in-flight task, then
    /// normal ticking retries it and the boost still lands.
    #[test]
    fn crash_restart_recovers_inflight_tasks_via_rollback_plan() {
        use checkpoint::Checkpointable;
        let standby: Vec<NodeId> = (10..18).map(NodeId).collect();
        let mut c = cluster();
        let mut m = manager(&mut c, standby.clone());
        c.create_file("/hot", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40);
        // drive until an Increase is actually awaiting copies, then
        // capture the manager mid-flight
        let mut saved = None;
        for _ in 0..12 {
            let now = c.now();
            m.tick(&mut c, now);
            if !m.job_wait.is_empty() {
                saved = Some(m.save_state());
                break;
            }
            c.run_until(c.now() + SimDuration::from_secs(30));
        }
        let saved = saved.expect("an increase task went in flight");
        drop(m); // the old manager process dies here

        let json = serde_json::to_string(&saved).unwrap();
        let back = serde_json::parse_value(&json).unwrap();
        // construction happens against a scratch cluster so it cannot
        // disturb the live one (new() powers standby nodes off)
        let mut scratch = cluster();
        let mut m2 = manager(&mut scratch, standby);
        m2.load_state(&back).unwrap();
        assert!(
            !m2.condor.journal().rollback_plan().is_empty(),
            "precondition: the journal names the dead in-flight task"
        );

        let now = c.now();
        let recovered = m2.restore(&mut c, now);
        assert!(recovered >= 1, "at least the increase was recovered");
        assert!(m2.condor.journal().rollback_plan().is_empty());
        assert!(m2.pending_copies.is_empty() && m2.job_wait.is_empty());

        // the restarted manager converges: the failed task retries (or
        // the old copies land on their own) and the boost materialises.
        // Quiescent draining (not wall-clock advances) keeps the demand
        // inside the CEP window so the file does not legitimately cool.
        for _ in 0..10 {
            let now = c.now();
            m2.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let now = c.now();
        m2.tick(&mut c, now); // settle the last copy completions
        let f = c.namespace().resolve("/hot").unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        assert!(
            c.blockmap().replica_count(b) > 3,
            "boost landed after restart, got {}",
            c.blockmap().replica_count(b)
        );
    }

    #[test]
    fn scrubber_detects_quarantines_and_repairs_corruption() {
        let mut c = cluster();
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .scrubber(true)
            .scrub_blocks_per_tick(64)
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        let f = c.create_file("/data", 64 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let victim = c.blockmap().replica_nodes(b)[0];
        assert!(c.corrupt_replica(victim, 0, false));
        assert_eq!(c.latent_corrupt_count(), 1);

        // tick 1: the scrub sweep finds the corrupt replica, quarantines
        // it (dropping it from the blockmap) and submits a Repair task
        let now = c.now();
        let r1 = m.tick(&mut c, now);
        assert!(r1.scrub_scanned > 0, "scrubber scanned blocks");
        assert_eq!(r1.corruptions_found, 1);
        assert_eq!(c.latent_corrupt_count(), 0, "corruption detected");
        assert!(!c.blockmap().holds(b, victim), "quarantined replica gone");
        assert_eq!(c.blockmap().replica_count(b), 2);

        // subsequent ticks: the Repair task re-copies from a clean source
        for _ in 0..6 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let now = c.now();
        m.tick(&mut c, now); // settle copy completions
        assert_eq!(c.blockmap().replica_count(b), 3, "replica re-copied");
        assert!(
            c.corrupt_blocks_pending_repair().is_empty(),
            "quarantine cleared after verified repair"
        );
    }

    fn scrub_manager(c: &mut ClusterSim) -> ErmsManager {
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .scrubber(true)
            .scrub_blocks_per_tick(64)
            .task_timeout(SimDuration::from_secs(60))
            .build()
            .unwrap();
        ErmsManager::new(cfg, c).unwrap()
    }

    #[test]
    fn repair_watchdog_fires_without_self_healing() {
        let mut c = cluster();
        let mut m = scrub_manager(&mut c);
        let f = c.create_file("/data", 64 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let victim = c.blockmap().replica_nodes(b)[0];
        assert!(c.corrupt_replica(victim, 0, false));
        // cripple the cluster so the repair copy crawls
        for n in c.topology().nodes().collect::<Vec<_>>() {
            c.set_node_slowdown(n, 0.01);
        }
        let now = c.now();
        let r = m.tick(&mut c, now); // scrub detects + submits repair
        assert_eq!(r.corruptions_found, 1);
        let now = c.now();
        m.tick(&mut c, now); // repair executes, copy goes in flight
                             // past the 60 s timeout, far short of copy completion
        c.run_until(c.now() + SimDuration::from_secs(70));
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert!(
            r.tasks_timed_out >= 1,
            "scrubber-only watchdog fired: {r:?}"
        );
    }

    #[test]
    fn repair_retries_after_target_dies_mid_copy() {
        let mut c = cluster();
        let mut m = scrub_manager(&mut c);
        let f = c.create_file("/data", 64 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let victim = c.blockmap().replica_nodes(b)[0];
        assert!(c.corrupt_replica(victim, 0, false));
        let now = c.now();
        let r = m.tick(&mut c, now); // detect + quarantine + submit
        assert_eq!(r.corruptions_found, 1);
        let now = c.now();
        m.tick(&mut c, now); // repair executes, copy staged
                             // into the transfer window, then kill the copy's landing node:
                             // torn-crash non-holders until the in-flight copy registers
        c.run_until(c.now() + SimDuration::from_millis(3050));
        let holders = c.blockmap().replica_nodes(b).to_vec();
        let latent_before = c.latent_corrupt_count();
        let mut died = None;
        for i in 0..c.config().datanodes {
            let n = NodeId(i);
            if holders.contains(&n) {
                continue;
            }
            assert!(c.crash_node_torn(n));
            if c.latent_corrupt_count() > latent_before {
                died = Some(n);
                break;
            }
        }
        assert!(died.is_some(), "the repair copy's target was mid-copy");
        // the failed copy fails the task; backoff retries it onto a
        // healthy node and the quarantine eventually clears
        let mut failed_seen = 0usize;
        for _ in 0..12 {
            c.run_until(c.now() + SimDuration::from_secs(30));
            let now = c.now();
            let r = m.tick(&mut c, now);
            failed_seen += r.tasks_failed + r.tasks_timed_out;
            if c.corrupt_blocks_pending_repair().is_empty() && c.blockmap().replica_count(b) >= 3 {
                break;
            }
        }
        assert!(failed_seen >= 1, "first repair attempt failed");
        assert_eq!(c.blockmap().replica_count(b), 3, "repair landed on retry");
        assert!(c.corrupt_blocks_pending_repair().is_empty());
    }

    #[test]
    fn scrub_budget_sheds_under_queue_pressure() {
        let mut c = cluster();
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .scrubber(true)
            .scrub_blocks_per_tick(8)
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        c.create_file("/data", 640 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        // saturate the Condor queue far beyond twice the concurrency cap
        let now = c.now();
        for i in 0..(m.cfg.max_concurrent_tasks * 2 + 4) {
            m.condor.submit(
                now,
                ErmsTask::Increase {
                    path: format!("/ghost{i}"),
                    target: 4,
                },
                Priority::WhenIdle,
            );
        }
        let queued = m.condor.pending();
        assert!(queued >= m.cfg.max_concurrent_tasks * 2);
        let mut report = TickReport::default();
        m.scrub_pass(&mut c, now, &mut report);
        assert_eq!(report.scrub_scanned, 0, "budget fully shed under pressure");
    }

    #[test]
    fn task_codec_rejects_unknown_kind() {
        use checkpoint::codec::MapBuilder;
        let bad = MapBuilder::new()
            .str("kind", "compress")
            .str("path", "/f")
            .build();
        assert!(matches!(
            super::ck::task_back(&bad),
            Err(checkpoint::CheckpointError::Corrupt(_))
        ));
    }
}
