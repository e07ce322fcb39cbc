//! The benchmark's own step loop for the registry's production-traffic
//! scenarios (`prod-diurnal`, `soak-diurnal`).
//!
//! [`ProdRun`] mirrors `bench::checkpointing::ResumableRun` call for
//! call — same cluster, manager, fault plan, quantised trace and client
//! ids, same snapshot sections — but routes every call through
//! [`Layers`] so each crate can be timed from outside. The fidelity
//! tests hold the two loops to identical traces and snapshots.

use bench::checkpointing::Scenario;
use checkpoint::codec as c;
use checkpoint::{CheckpointError, Checkpointable, Snapshot, SnapshotMeta};
use erms::{ErmsConfig, ErmsManager, ErmsPlacement, Thresholds};
use hdfs_sim::faults::FaultInjector;
use hdfs_sim::{ClusterConfig, ClusterSim, NodeId};
use simcore::telemetry::TelemetrySink;
use simcore::units::Bytes;
use simcore::{MetricsRegistry, SimDuration, SimTime};

use crate::layers::Layers;

/// Salt the registry applies to the run seed before generating the
/// production trace, so its streams never mirror the fault plan's.
const TRACE_SEED_SALT: u64 = 0x7ACE_5EED;

/// The production trace quantised onto the tick grid: per tick, the
/// files to create and then the paths to read.
struct Ops {
    creates: Vec<Vec<(String, Bytes)>>,
    reads: Vec<Vec<String>>,
}

impl Ops {
    /// Generate the scenario's trace from `seed` and bin it by tick;
    /// times past the horizon clamp into the last tick.
    fn generate(s: &Scenario, seed: u64) -> Ops {
        let total = s.total_ticks as usize;
        let mut ops = Ops {
            creates: vec![Vec::new(); total],
            reads: vec![Vec::new(); total],
        };
        let Some(workload) = &s.workload else {
            return ops;
        };
        let trace = workload.generate(seed ^ TRACE_SEED_SALT);
        let tick_secs = s.tick.as_secs_f64();
        let tick_of = |t: f64| ((t / tick_secs) as usize).min(total - 1);
        for f in trace.files {
            ops.creates[tick_of(f.created_at_secs)].push((f.path, f.size));
        }
        for j in trace.jobs {
            ops.reads[tick_of(j.submit_at_secs)].push(j.input);
        }
        ops
    }
}

fn erms_config(s: &Scenario) -> ErmsConfig {
    let mut thresholds = Thresholds::calibrate(4.0);
    thresholds.window = SimDuration::from_secs(600);
    thresholds.cold_age = SimDuration::from_secs(1800);
    ErmsConfig::builder()
        .thresholds(thresholds)
        .standby(s.standby.clone().map(NodeId))
        .self_healing(true)
        .encode(s.encode)
        .scrubber(s.scrubber)
        .full_rescan(s.full_rescan)
        .judge_backend(s.judge_backend)
        .build()
        .expect("registry scenario config is valid")
}

fn build(s: &Scenario, sink: Option<&TelemetrySink>) -> (ClusterSim, ErmsManager) {
    let mut cluster = ClusterSim::new(
        ClusterConfig::paper_testbed(),
        Box::new(ErmsPlacement::new()),
    );
    if let Some(sink) = sink {
        cluster.set_telemetry(sink.clone());
    }
    let mut manager = ErmsManager::new(erms_config(s), &mut cluster).expect("scenario manager");
    if let Some(sink) = sink {
        manager.set_telemetry(sink.clone());
    }
    (cluster, manager)
}

fn injector(s: &Scenario, seed: u64) -> FaultInjector {
    let cfg = ClusterConfig::paper_testbed();
    FaultInjector::from_config(&s.fault, cfg.datanodes as usize, cfg.racks as usize, seed)
}

/// One production-traffic scenario instance, steppable and
/// checkpointable at any tick boundary.
pub struct ProdRun {
    scenario: Scenario,
    seed: u64,
    cluster: ClusterSim,
    manager: ErmsManager,
    injector: FaultInjector,
    ops: Ops,
    sink: TelemetrySink,
    tick_idx: u64,
    deadline: SimTime,
    finished: bool,
}

impl ProdRun {
    /// Fresh instance: paper testbed, recording telemetry from the first
    /// event, base files created and settled, trace and fault plan
    /// generated from `seed`.
    pub fn new(scenario: Scenario, seed: u64, l: &mut Layers) -> Self {
        let sink = TelemetrySink::recording();
        let (mut cluster, manager) = build(&scenario, Some(&sink));
        for i in 0..scenario.num_files {
            l.create_file(&mut cluster, &format!("/churn/f{i}"), scenario.file_size);
        }
        l.run_until_quiescent(&mut cluster);
        let injector = injector(&scenario, seed);
        let ops = l.generate(|| Ops::generate(&scenario, seed));
        ProdRun {
            scenario,
            seed,
            cluster,
            manager,
            injector,
            ops,
            sink,
            tick_idx: 0,
            deadline: SimTime::ZERO,
            finished: false,
        }
    }

    pub fn tick_idx(&self) -> u64 {
        self.tick_idx
    }
    pub fn done(&self) -> bool {
        self.tick_idx >= self.scenario.total_ticks
    }
    pub fn cluster(&self) -> &ClusterSim {
        &self.cluster
    }
    pub fn manager(&self) -> &ErmsManager {
        &self.manager
    }
    pub fn sink(&self) -> &TelemetrySink {
        &self.sink
    }

    /// One control tick: drain to the deadline, fire the tick's creates
    /// and reads at their trace instants whatever the backlog (open
    /// loop), land due faults, tick ERMS.
    pub fn step(&mut self, l: &mut Layers) {
        let s = &self.scenario;
        self.deadline += s.tick;
        l.run_until(&mut self.cluster, self.deadline);
        if self.tick_idx < s.warmup_read_ticks {
            for r in 0..s.reads_per_tick {
                let client = self.tick_idx as u32 * s.reads_per_tick + r;
                l.open_read(&mut self.cluster, client, "/churn/f0");
            }
        }
        let t = self.tick_idx as usize;
        for (path, size) in &self.ops.creates[t] {
            l.create_file(&mut self.cluster, path, *size);
        }
        for (pos, path) in self.ops.reads[t].iter().enumerate() {
            let client = (self.tick_idx as u32)
                .wrapping_mul(131)
                .wrapping_add(pos as u32)
                % 4096;
            l.open_read(&mut self.cluster, client, path);
        }
        l.apply_faults(&mut self.injector, &mut self.cluster, self.deadline);
        let now = self.cluster.now();
        l.tick(&mut self.manager, &mut self.cluster, now);
        self.tick_idx += 1;
    }

    /// Step to the horizon, drain in-flight work and close the
    /// durability ledger.
    pub fn finish(&mut self, l: &mut Layers) {
        while !self.done() {
            self.step(l);
        }
        if !self.finished {
            l.run_until_quiescent(&mut self.cluster);
            let end = self.cluster.now();
            self.cluster.durability_mut().finalize(end);
            self.finished = true;
        }
    }

    /// Snapshot at the current tick boundary, in the registry runner's
    /// section layout (`cluster`, `manager`, `metrics`, `runner`).
    pub fn save(&self) -> Snapshot {
        let mut snap = Snapshot::new(SnapshotMeta {
            scenario: self.scenario.name.to_string(),
            seed: self.seed,
            tick: self.tick_idx,
        });
        snap.insert_section("cluster", self.cluster.save_state());
        snap.insert_section("manager", self.manager.save_state());
        snap.insert_section(
            "metrics",
            self.sink
                .with_metrics(|m| m.save_state())
                .expect("instances always record"),
        );
        snap.insert_section(
            "runner",
            c::MapBuilder::new()
                .u64("tick_idx", self.tick_idx)
                .time("deadline", self.deadline)
                .u64("fault_cursor", self.injector.cursor() as u64)
                .u64("telemetry_seq", self.sink.seq())
                .bool("finished", self.finished)
                .build(),
        );
        snap
    }

    /// Rebuild-then-hydrate: construct everything from the named
    /// scenario, load the sections, regenerate the fault plan and ops
    /// schedule from the seed.
    pub fn resume(snap: &Snapshot) -> Result<Self, CheckpointError> {
        let scenario = Scenario::by_name(&snap.meta.scenario).ok_or_else(|| {
            CheckpointError::Corrupt(format!("unknown scenario {:?}", snap.meta.scenario))
        })?;
        let seed = snap.meta.seed;
        let (mut cluster, mut manager) = build(&scenario, None);
        cluster.load_state(snap.section("cluster")?)?;
        manager.load_state(snap.section("manager")?)?;
        let runner = snap.section("runner")?;
        let mut injector = injector(&scenario, seed);
        injector.set_cursor(c::get_usize(runner, "fault_cursor")?);
        let sink = TelemetrySink::recording();
        sink.set_seq(c::get_u64(runner, "telemetry_seq")?);
        let mut metrics = MetricsRegistry::default();
        metrics.load_state(snap.section("metrics")?)?;
        sink.replace_metrics(metrics);
        cluster.set_telemetry(sink.clone());
        manager.set_telemetry(sink.clone());
        let ops = Ops::generate(&scenario, seed);
        Ok(ProdRun {
            scenario,
            seed,
            cluster,
            manager,
            injector,
            ops,
            sink,
            tick_idx: c::get_u64(runner, "tick_idx")?,
            deadline: c::get_time(runner, "deadline")?,
            finished: c::get_bool(runner, "finished")?,
        })
    }
}
