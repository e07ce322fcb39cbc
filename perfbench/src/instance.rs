//! One scenario instance per call: set up, run the measured region,
//! check the trace, and hand back everything the metrics need.

use std::time::Instant;

use bench::checkpointing::Scenario;
use bench::scale::{scale_cluster, ScaleConfig};
use checkpoint::{Checkpointable, Snapshot, SnapshotMeta};
use erms::{ErmsConfig, ErmsManager, Thresholds};
use hdfs_sim::faults::{FaultInjector, FaultPlan};
use hdfs_sim::{ClusterSim, NodeId};
use simcore::profiler::{self, ProfileNode};
use simcore::telemetry::TelemetrySink;
use simcore::units::MB;
use simcore::{DetRng, SimDuration};

use crate::check::{reconcile_reads, Checked, Checker};
use crate::layers::Layers;
use crate::prod::ProdRun;

/// Everything one instance produced.
#[derive(Debug, Default)]
pub struct Instance {
    pub layers: Layers,
    /// Host time before the measured region.
    pub setup_ns: u64,
    /// Host time of the measured region.
    pub measured_ns: u64,
    /// Host time inside the measured region charged to a crate's entry
    /// point (traced instances only).
    pub covered_ns: u64,
    /// Simulated seconds the measured region advanced.
    pub sim_secs: f64,
    pub checked: Checked,
    pub storage_used: u64,
    pub logical_bytes: u64,
    pub standby_node_secs: f64,
    /// What the standby pool would have burned had it never powered off.
    pub all_active_node_secs: f64,
    /// `DurabilityLog::loss_events` at the end of the run.
    pub loss_events: u64,
    /// Blocks the block map tracks at the end of the run.
    pub blocks: u64,
    /// Profiler tree of the measured region (traced instances only).
    pub profile: Option<ProfileNode>,
    /// Failed correctness checks; any entry fails the whole run.
    pub errors: Vec<String>,
}

impl Instance {
    /// Creates and reads attempted, and how many of them failed: a
    /// rejected create, a refused open, or a read span that failed or
    /// never finished.
    pub fn ops(&self) -> (u64, u64) {
        let l = &self.layers;
        let failed = l.creates_failed
            + l.reads_refused
            + self.checked.reads_failed
            + self.checked.reads_unfinished;
        (l.creates + l.reads, failed)
    }

    /// Creates and reads attempted, and how many of them the program
    /// failed: as [`Instance::ops`], except that a read span failing
    /// while an injected fault has a node or rack down is the correct
    /// outcome of that fault, not a failed operation. The outcome
    /// metrics still count it.
    pub fn ops_faulted(&self) -> (u64, u64) {
        let (attempted, failed) = self.ops();
        let injected = self
            .checked
            .reads_failed
            .saturating_sub(self.checked.reads_failed_unexplained);
        (attempted, failed - injected)
    }

    /// Take the check's verdict on the trace and record the cluster's
    /// end state.
    fn conclude(&mut self, checked: Result<Checked, String>, c: &ClusterSim, m: &ErmsManager) {
        match checked {
            Ok(checked) => self.checked = checked,
            Err(e) => self.errors.push(e),
        }
        for v in self.checked.oracle_violations.iter().take(3) {
            self.errors.push(format!("oracle: {v}"));
        }
        let opened = self.layers.reads - self.layers.reads_refused;
        if let Err(e) = reconcile_reads(opened, &self.checked) {
            self.errors.push(e);
        }
        let now = c.now();
        self.storage_used = c.storage_used();
        self.logical_bytes = c.namespace().files().map(|f| f.size).sum();
        self.standby_node_secs = m.model().standby_node_seconds(now);
        self.all_active_node_secs = m.model().all_active_node_seconds(now);
        self.loss_events = c.durability().loss_events().len() as u64;
        self.blocks = c.blockmap().num_blocks() as u64;
    }
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The measured region's stopwatch. Pausing also pauses the profiler,
/// so the check work done in a pause is charged to nothing.
struct Stopwatch {
    traced: bool,
    ns: u64,
    since: Option<Instant>,
}

impl Stopwatch {
    fn start(traced: bool) -> Self {
        if traced {
            profiler::reset();
        }
        let mut w = Stopwatch {
            traced,
            ns: 0,
            since: None,
        };
        w.resume();
        w
    }
    fn resume(&mut self) {
        profiler::set_enabled(self.traced);
        self.since = Some(Instant::now());
    }
    fn pause(&mut self) {
        if let Some(t) = self.since.take() {
            self.ns += since(t);
        }
        profiler::set_enabled(false);
    }
    fn stop(mut self) -> (u64, Option<ProfileNode>) {
        self.pause();
        let profile = self.traced.then(profiler::snapshot);
        profiler::reset();
        (self.ns, profile)
    }
}

/// Drain the telemetry recorded so far (measured) and check it (not).
/// Draining every tick keeps the benchmark from holding a whole trace,
/// so `peak_rss_mb` is the program's footprint, not the trace's.
fn drain_and_check(
    l: &mut Layers,
    sink: &TelemetrySink,
    watch: &mut Stopwatch,
    checker: &mut Checker,
) {
    let chunk = l.drain(sink);
    watch.pause();
    checker.feed(&chunk);
    drop(chunk);
    watch.resume();
}

/// Save → `to_json` → `from_json` → resume, each step timed into the
/// checkpoint layer, which is also charged for dropping what each step
/// replaces. Returns the resumed run and the wire bytes.
fn round_trip(run: ProdRun, l: &mut Layers) -> Result<(ProdRun, String), String> {
    let on = l.traced;
    let snap = l.save.time(on, || run.save());
    let wire = l.encode.time(on, || snap.to_json());
    let back = l
        .decode
        .time(on, || {
            drop(snap);
            Snapshot::from_json(&wire)
        })
        .map_err(|e| format!("snapshot does not decode: {e}"))?;
    let resumed = l
        .load
        .time(on, || {
            drop(run);
            ProdRun::resume(&back)
        })
        .map_err(|e| format!("snapshot does not resume: {e}"))?;
    l.checkpoint_bytes += wire.len() as u64;
    Ok((resumed, wire))
}

/// A resumed run must re-save exactly the snapshot it was loaded from.
pub fn verify_round_trip(resumed: &ProdRun, wire: &str) -> Result<(), String> {
    if resumed.save().to_json() == wire {
        Ok(())
    } else {
        Err(format!(
            "snapshot round trip at tick {} re-saves a different snapshot",
            resumed.tick_idx()
        ))
    }
}

/// One registry scenario instance, split into `segments` checkpointed
/// segments (1 = straight through). A traced instance that never
/// checkpoints makes one round trip after the measured region, so the
/// checkpoint layer is priced on its state too.
pub fn run_prod(scenario: &Scenario, seed: u64, segments: u64, traced: bool) -> Instance {
    let mut out = Instance::default();
    let mut l = Layers::new(traced);
    let t = Instant::now();
    let mut run = ProdRun::new(scenario.clone(), seed, &mut l);
    out.setup_ns = since(t);

    let covered0 = l.covered_ns();
    let mut checker = Checker::default();
    let mut watch = Stopwatch::start(traced);
    let bounds = bench::soak::boundaries(scenario.total_ticks, segments);
    for (k, &boundary) in bounds.iter().enumerate() {
        while run.tick_idx() < boundary {
            run.step(&mut l);
            drain_and_check(&mut l, run.sink(), &mut watch, &mut checker);
        }
        if k + 1 == bounds.len() {
            break;
        }
        let (resumed, wire) = match round_trip(run, &mut l) {
            Ok(ok) => ok,
            Err(e) => {
                out.errors.push(e);
                watch.stop();
                return out;
            }
        };
        watch.pause();
        if let Err(e) = verify_round_trip(&resumed, &wire) {
            out.errors.push(e);
        }
        watch.resume();
        run = resumed;
    }
    run.finish(&mut l);
    let chunk = l.drain(run.sink());
    (out.measured_ns, out.profile) = watch.stop();
    checker.feed(&chunk);
    out.covered_ns = l.covered_ns() - covered0;
    out.sim_secs = run.cluster().now().as_secs_f64();

    if traced && segments == 1 {
        match round_trip(run, &mut l) {
            Ok((resumed, wire)) => {
                if let Err(e) = verify_round_trip(&resumed, &wire) {
                    out.errors.push(e);
                }
                run = resumed;
            }
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        }
    }
    out.layers = l;
    out.conclude(checker.finish(), run.cluster(), run.manager());
    out
}

/// Flash-crowd episodes per storm instance. Their 3.5 simulated hours
/// stay under the manager's 4-hour cold age, so the run measures flash
/// crowds, not 100k files turning cold at once.
const STORM_EPISODES: usize = 14;
/// ERMS's elastic standby pool: the last 20 node ids, which the
/// round-robin topology spreads over 20 racks.
const STORM_STANDBY: std::ops::Range<u32> = 980..1000;

/// The seeded input of one storm instance: per episode, per storm
/// tick, the `(client, file index)` reads to open.
struct StormSchedule {
    episodes: Vec<Vec<Vec<(u32, usize)>>>,
}

impl StormSchedule {
    /// Each episode draws a fresh hot set of distinct files and a fresh
    /// client id per reader.
    fn draw(cfg: &ScaleConfig, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let episodes = (0..STORM_EPISODES)
            .map(|_| {
                let mut hot: Vec<usize> = Vec::with_capacity(cfg.hot_files);
                while hot.len() < cfg.hot_files.min(cfg.files) {
                    let f = rng.gen_range(0, cfg.files);
                    if !hot.contains(&f) {
                        hot.push(f);
                    }
                }
                (0..cfg.storm_ticks)
                    .map(|_| {
                        let mut reads = Vec::new();
                        for &f in &hot {
                            for _ in 0..cfg.readers_per_hot {
                                reads.push((rng.gen_u64() as u32, f));
                            }
                        }
                        reads
                    })
                    .collect()
            })
            .collect();
        StormSchedule { episodes }
    }
}

fn storm_erms_config(cfg: &ScaleConfig) -> ErmsConfig {
    let mut thresholds = Thresholds::calibrate(4.0);
    thresholds.window = cfg.window;
    thresholds.cold_age = SimDuration::from_hours(4);
    ErmsConfig::builder()
        .thresholds(thresholds)
        .standby(STORM_STANDBY.map(NodeId))
        .self_healing(true)
        .build()
        .expect("valid storm config")
}

fn storm_build(cfg: &ScaleConfig, sink: Option<&TelemetrySink>) -> (ClusterSim, ErmsManager) {
    let mut c = scale_cluster(cfg);
    if let Some(sink) = sink {
        c.set_telemetry(sink.clone());
    }
    let mut m = ErmsManager::new(storm_erms_config(cfg), &mut c).expect("valid storm manager");
    if let Some(sink) = sink {
        m.set_telemetry(sink.clone());
    }
    (c, m)
}

/// One `storm-xlarge` instance: bulk-create the namespace and settle
/// (setup), then [`STORM_EPISODES`] flash crowds, each a few storm
/// ticks of reads on a seeded hot set followed by an idle tail.
pub fn run_storm(cfg: &ScaleConfig, seed: u64, traced: bool) -> Instance {
    let mut out = Instance::default();
    let mut l = Layers::new(traced);
    let t = Instant::now();
    let sink = TelemetrySink::recording();
    let (mut c, mut m) = storm_build(cfg, Some(&sink));
    for i in 0..cfg.files {
        l.create_file(&mut c, &format!("/scale/f{i}"), 64 * MB);
    }
    c.run_until_quiescent();
    // age the creation audit events out of the CEP window and let one
    // tick drain the creation dirty set, then drop the bootstrap trace
    c.run_until(c.now() + cfg.window + cfg.tick_step);
    c.run_until_quiescent();
    let now = c.now();
    m.tick(&mut c, now);
    c.run_until(c.now() + cfg.tick_step);
    c.run_until_quiescent();
    drop(sink.drain_events());
    let schedule = l.generate(|| StormSchedule::draw(cfg, seed));
    // the storm plans no faults; the loop still polls the injector each
    // tick like every other step loop
    let mut injector = FaultInjector::new(FaultPlan::default(), 1.0);
    let start = c.now();
    out.setup_ns = since(t);

    let covered0 = l.covered_ns();
    let mut checker = Checker::default();
    let mut watch = Stopwatch::start(traced);
    for episode in &schedule.episodes {
        for tick in 0..cfg.ticks() {
            if let Some(reads) = episode.get(tick) {
                for &(client, f) in reads {
                    l.open_read(&mut c, client, &format!("/scale/f{f}"));
                }
                l.run_until_quiescent(&mut c);
            }
            let now = c.now();
            l.apply_faults(&mut injector, &mut c, now);
            l.tick(&mut m, &mut c, now);
            l.run_until(&mut c, now + cfg.tick_step);
            l.run_until_quiescent(&mut c);
            drain_and_check(&mut l, &sink, &mut watch, &mut checker);
        }
    }
    let end = c.now();
    c.durability_mut().finalize(end);
    let chunk = l.drain(&sink);
    (out.measured_ns, out.profile) = watch.stop();
    checker.feed(&chunk);
    out.covered_ns = l.covered_ns() - covered0;
    out.sim_secs = end.since(start).as_secs_f64();

    if traced {
        if let Err(e) = storm_round_trip(cfg, seed, &c, &m, &mut l) {
            out.errors.push(e);
        }
    }
    out.layers = l;
    out.conclude(checker.finish(), &c, &m);
    out
}

/// The storm's checkpoint price: snapshot cluster and manager, decode,
/// hydrate a freshly built pair and check it re-saves the same bytes.
fn storm_round_trip(
    cfg: &ScaleConfig,
    seed: u64,
    c: &ClusterSim,
    m: &ErmsManager,
    l: &mut Layers,
) -> Result<(), String> {
    let on = l.traced;
    let snap = l.save.time(on, || {
        let mut snap = Snapshot::new(SnapshotMeta {
            scenario: format!("scale-{}", cfg.label),
            seed,
            tick: 0,
        });
        snap.insert_section("cluster", c.save_state());
        snap.insert_section("manager", m.save_state());
        snap
    });
    let wire = l.encode.time(on, || snap.to_json());
    let back = l
        .decode
        .time(on, || Snapshot::from_json(&wire))
        .map_err(|e| format!("storm snapshot does not decode: {e}"))?;
    let (c2, m2) = l
        .load
        .time(on, || {
            let (mut c2, mut m2) = storm_build(cfg, None);
            c2.load_state(back.section("cluster")?)?;
            m2.load_state(back.section("manager")?)?;
            Ok::<_, checkpoint::CheckpointError>((c2, m2))
        })
        .map_err(|e| format!("storm snapshot does not load: {e}"))?;
    l.checkpoint_bytes += wire.len() as u64;
    let mut again = Snapshot::new(back.meta.clone());
    again.insert_section("cluster", c2.save_state());
    again.insert_section("manager", m2.save_state());
    if again.to_json() != wire {
        return Err("storm snapshot round trip re-saves a different snapshot".into());
    }
    Ok(())
}
