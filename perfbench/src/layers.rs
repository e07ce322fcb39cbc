//! Timed wrappers around the public calls the benchmark makes into each
//! crate.
//!
//! Every call into the program goes through [`Layers`]. Operation
//! counts and the per-tick latency are recorded on every run; the
//! per-call host timers only when the instance is traced, so the
//! untraced run pays one clock read per tick and nothing per call.

use std::time::Instant;

use erms::{ErmsManager, TickReport};
use hdfs_sim::faults::FaultInjector;
use hdfs_sim::topology::{ClientId, Endpoint};
use hdfs_sim::ClusterSim;
use simcore::telemetry::TelemetrySink;
use simcore::units::Bytes;
use simcore::SimTime;

/// Host nanoseconds and call count of one wrapped entry point.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timer {
    pub ns: u64,
    pub calls: u64,
}

impl Timer {
    /// Run `f`, charging its host time to this timer when `on`.
    pub fn time<R>(&mut self, on: bool, f: impl FnOnce() -> R) -> R {
        let start = on.then(Instant::now);
        let out = f();
        if let Some(t) = start {
            self.ns += t.elapsed().as_nanos() as u64;
            self.calls += 1;
        }
        out
    }
}

/// Sums of the [`TickReport`] fields the benchmark reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct TickTotals {
    pub files_judged: u64,
    pub tasks_submitted: u64,
    pub tasks_completed: u64,
    pub tasks_failed: u64,
    pub tasks_timed_out: u64,
    pub repairs_started: u64,
    pub scrub_scanned: u64,
    pub corruptions_found: u64,
}

impl TickTotals {
    fn add(&mut self, r: &TickReport) {
        self.files_judged += r.files_judged as u64;
        self.tasks_submitted += r.tasks_submitted as u64;
        self.tasks_completed += r.tasks_completed as u64;
        self.tasks_failed += r.tasks_failed as u64;
        self.tasks_timed_out += r.tasks_timed_out as u64;
        self.repairs_started += r.repairs_started as u64;
        self.scrub_scanned += r.scrub_scanned as u64;
        self.corruptions_found += r.corruptions_found as u64;
    }
}

/// What one instance measured about its calls into each crate.
#[derive(Debug, Default)]
pub struct Layers {
    pub traced: bool,
    pub creates: u64,
    pub creates_failed: u64,
    pub reads: u64,
    pub reads_refused: u64,
    pub faults_applied: u64,
    pub ticks: TickTotals,
    /// Largest queued (immediate + idle) Condor backlog seen after a tick.
    pub queue_depth_max: u64,
    /// Host time of every `ErmsManager::tick`, traced or not.
    pub tick_ns: Vec<u64>,
    pub run_until: Timer,
    pub create_file_ns: Vec<u64>,
    pub open_read_ns: Vec<u64>,
    pub faults: Timer,
    pub generate: Timer,
    pub save: Timer,
    pub encode: Timer,
    pub decode: Timer,
    pub load: Timer,
    pub checkpoint_bytes: u64,
    pub drain: Timer,
    pub telemetry_events: u64,
    pub telemetry_bytes: u64,
}

impl Layers {
    pub fn new(traced: bool) -> Self {
        Layers {
            traced,
            ..Layers::default()
        }
    }

    pub fn run_until(&mut self, c: &mut ClusterSim, deadline: SimTime) {
        self.run_until.time(self.traced, || c.run_until(deadline));
    }

    pub fn run_until_quiescent(&mut self, c: &mut ClusterSim) {
        self.run_until.time(self.traced, || c.run_until_quiescent());
    }

    /// `create_file` at replication 3; a rejected create counts as a
    /// failed operation instead of being dropped.
    pub fn create_file(&mut self, c: &mut ClusterSim, path: &str, size: Bytes) -> bool {
        self.creates += 1;
        let t = self.traced.then(Instant::now);
        let ok = c.create_file(path, size, 3, None).is_some();
        if let Some(t) = t {
            self.create_file_ns.push(t.elapsed().as_nanos() as u64);
        }
        self.creates_failed += u64::from(!ok);
        ok
    }

    /// `open_read` from an external client; `None` counts as refused.
    pub fn open_read(&mut self, c: &mut ClusterSim, client: u32, path: &str) -> bool {
        self.reads += 1;
        let t = self.traced.then(Instant::now);
        let ok = c
            .open_read(Endpoint::Client(ClientId(client)), path)
            .is_some();
        if let Some(t) = t {
            self.open_read_ns.push(t.elapsed().as_nanos() as u64);
        }
        self.reads_refused += u64::from(!ok);
        ok
    }

    pub fn apply_faults(&mut self, inj: &mut FaultInjector, c: &mut ClusterSim, now: SimTime) {
        self.faults_applied += self.faults.time(self.traced, || inj.apply_due(c, now)) as u64;
    }

    /// One control tick, always timed: its latency is an end-to-end
    /// metric.
    pub fn tick(&mut self, m: &mut ErmsManager, c: &mut ClusterSim, now: SimTime) {
        let t = Instant::now();
        let report = m.tick(c, now);
        self.tick_ns.push(t.elapsed().as_nanos() as u64);
        self.ticks.add(&report);
        let (immediate, idle, _running) = m.condor().queue_depths();
        self.queue_depth_max = self.queue_depth_max.max((immediate + idle) as u64);
    }

    pub fn generate<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.generate.time(self.traced, f)
    }

    /// Drain the recorded telemetry as JSONL.
    pub fn drain(&mut self, sink: &TelemetrySink) -> String {
        self.telemetry_events += sink.event_count() as u64;
        let out = self.drain.time(self.traced, || sink.drain_jsonl());
        self.telemetry_bytes += out.len() as u64;
        out
    }

    /// Host nanoseconds charged to some crate's entry point: the sum
    /// the traced run's coverage is judged by.
    pub fn covered_ns(&self) -> u64 {
        let sum = |v: &[u64]| v.iter().sum::<u64>();
        sum(&self.tick_ns)
            + self.run_until.ns
            + sum(&self.create_file_ns)
            + sum(&self.open_read_ns)
            + self.faults.ns
            + self.save.ns
            + self.encode.ns
            + self.decode.ns
            + self.load.ns
            + self.drain.ns
    }
}
