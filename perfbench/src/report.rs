//! Turn a [`Run`] into named metrics with units, and print them.

use simcore::profiler::ProfileNode;

use crate::instance::Instance;
use crate::workload::Run;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Nearest-rank percentile (the span collector's rule), `q` in (0, 1].
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn pooled<'a>(
    insts: impl Iterator<Item = &'a Instance>,
    f: impl Fn(&'a Instance) -> &'a [u64],
) -> Vec<u64> {
    let mut v: Vec<u64> = insts.flat_map(|i| f(i).iter().copied()).collect();
    v.sort_unstable();
    v
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Simulated hours advanced per host second of measured region.
fn sim_h_per_s(insts: &[Instance]) -> f64 {
    let sim_h: f64 = insts.iter().map(|i| i.sim_secs / 3600.0).sum();
    let host_s: f64 = insts.iter().map(|i| i.measured_ns as f64 / 1e9).sum();
    sim_h / host_s
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Creates and reads attempted and failed over `insts`.
pub fn ops(insts: &[Instance]) -> (u64, u64) {
    sum_ops(insts, Instance::ops)
}

/// Creates and reads attempted over `insts`, and those the program
/// failed ([`Instance::ops_faulted`]): the result line's counts.
pub fn ops_faulted(insts: &[Instance]) -> (u64, u64) {
    sum_ops(insts, Instance::ops_faulted)
}

fn sum_ops(insts: &[Instance], f: impl Fn(&Instance) -> (u64, u64)) -> (u64, u64) {
    insts
        .iter()
        .map(f)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The scored prefix: the first instances every run completes.
fn scored<'a>(run: &Run, insts: &'a [Instance]) -> &'a [Instance] {
    &insts[..run.workload.scored_instances().min(insts.len())]
}

/// Pooled read-span latencies of the scored untraced instances, sorted.
fn scored_reads(run: &Run) -> Vec<u64> {
    pooled(scored(run, &run.untraced).iter(), |i| &i.checked.read_ns)
}

/// The end-to-end metrics, from the untraced instances: host figures
/// over every instance, simulated outcomes over the scored prefix.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let all = &run.untraced;
    let scored = scored(run, all);
    let ticks = pooled(all.iter(), |i| &i.layers.tick_ns);
    let reads = scored_reads(run);
    let (attempted, failed) = ops(scored);
    let used: u64 = scored.iter().map(|i| i.storage_used).sum();
    let logical: u64 = scored.iter().map(|i| i.logical_bytes).sum();
    let standby: f64 = scored.iter().map(|i| i.standby_node_secs).sum();
    let all_active: f64 = scored.iter().map(|i| i.all_active_node_secs).sum();
    let lost: u64 = scored.iter().map(|i| i.loss_events).sum();
    let blocks: u64 = scored.iter().map(|i| i.blocks).sum();
    vec![
        metric(
            "setup_s",
            median(all.iter().map(|i| i.setup_ns as f64 / 1e9).collect()),
            "s",
        ),
        metric("sim_h_per_s", sim_h_per_s(all), "sim-h/s"),
        metric("tick_ms_p99", percentile(&ticks, 0.99) as f64 / 1e6, "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("read_s_p50", percentile(&reads, 0.50) as f64 / 1e9, "sim-s"),
        metric("read_s_p95", percentile(&reads, 0.95) as f64 / 1e9, "sim-s"),
        metric(
            "ok_ops_pct",
            100.0 * (attempted - failed) as f64 / attempted.max(1) as f64,
            "%",
        ),
        metric("storage_x", used as f64 / (3 * logical).max(1) as f64, "x"),
        metric(
            "energy_saved_pct",
            100.0 * (1.0 - standby / all_active),
            "%",
        ),
        metric(
            "intact_blocks_pct",
            100.0 * (1.0 - lost as f64 / blocks.max(1) as f64),
            "%",
        ),
    ]
}

/// Figures whose spread across runs is wider than any end-to-end bound
/// allows, reported unbounded with the traced run from the same
/// untraced instances as the end-to-end metrics: outcome tails that a
/// rare fault-driven stall sets, and the median tick, which follows the
/// host's speed more than any other timing.
fn unbounded(run: &Run) -> Vec<Metric> {
    let scored = scored(run, &run.untraced);
    let ticks = pooled(run.untraced.iter(), |i| &i.layers.tick_ns);
    let reads = scored_reads(run);
    let (attempted, failed) = ops(scored);
    let standby_h: f64 = scored.iter().map(|i| i.standby_node_secs / 3600.0).sum();
    let lost: u64 = scored.iter().map(|i| i.loss_events).sum();
    vec![
        metric("tick_ms_p50", percentile(&ticks, 0.50) as f64 / 1e6, "ms"),
        metric("read_s_p99", percentile(&reads, 0.99) as f64 / 1e9, "sim-s"),
        metric(
            "failed_ops_pct",
            100.0 * failed as f64 / attempted.max(1) as f64,
            "%",
        ),
        metric(
            "standby_node_h",
            standby_h / scored.len().max(1) as f64,
            "node-h",
        ),
        metric("data_loss_events", lost as f64, "count"),
    ]
}

/// Sum `(calls, wall_ns)` over every profiler scope named `name`.
fn fold_named(node: &ProfileNode, name: &str) -> (u64, u64) {
    let own = if node.name == name {
        (node.calls, node.wall_ns)
    } else {
        (0, 0)
    };
    node.children.iter().fold(own, |acc, c| {
        let (calls, ns) = fold_named(c, name);
        (acc.0 + calls, acc.1 + ns)
    })
}

/// Tick phases read from the profiler scopes the manager already has:
/// (metric stem, scope name).
const TICK_PHASES: [(&str, &str); 8] = [
    ("cep_drain", "cep_drain"),
    ("cep_parse", "cep/parse"),
    ("judge", "judge"),
    ("merge", "merge"),
    ("repair_scan", "repair_scan"),
    ("scrub", "scrub"),
    ("condor_dispatch", "condor/dispatch"),
    ("telemetry_flush", "telemetry_flush"),
];

/// The per-layer metrics, from the traced replays. Host times are means
/// per traced instance; counts and simulated figures are sums over the
/// scored prefix, so they repeat exactly for a seed.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let traced = &run.traced;
    let n = traced.len().max(1) as f64;
    let scored = scored(run, traced);
    let mut out = unbounded(run);
    let mut put = |name: &str, value: f64, unit| out.push(metric(name, value, unit));
    let per_inst =
        |f: &dyn Fn(&Instance) -> u64| traced.iter().map(f).sum::<u64>() as f64 / n / 1e9;
    let count = |f: &dyn Fn(&Instance) -> u64| scored.iter().map(f).sum::<u64>() as f64;

    put(
        "workload.generate_s",
        per_inst(&|i| i.layers.generate.ns),
        "s/instance",
    );

    put(
        "hdfs_sim.run_until_s",
        per_inst(&|i| i.layers.run_until.ns),
        "s/instance",
    );
    put(
        "hdfs_sim.run_until_calls",
        count(&|i| i.layers.run_until.calls),
        "count",
    );
    let creates = pooled(traced.iter(), |i| &i.layers.create_file_ns);
    put(
        "hdfs_sim.create_file_us_p50",
        percentile(&creates, 0.50) as f64 / 1e3,
        "us",
    );
    put(
        "hdfs_sim.create_file_us_p99",
        percentile(&creates, 0.99) as f64 / 1e3,
        "us",
    );
    put(
        "hdfs_sim.create_file_calls",
        count(&|i| i.layers.creates),
        "count",
    );
    put(
        "hdfs_sim.create_file_failed",
        count(&|i| i.layers.creates_failed),
        "count",
    );
    let opens = pooled(traced.iter(), |i| &i.layers.open_read_ns);
    put(
        "hdfs_sim.open_read_us_p50",
        percentile(&opens, 0.50) as f64 / 1e3,
        "us",
    );
    put(
        "hdfs_sim.open_read_calls",
        count(&|i| i.layers.reads),
        "count",
    );
    put(
        "hdfs_sim.open_read_refused",
        count(&|i| i.layers.reads_refused),
        "count",
    );
    put(
        "hdfs_sim.faults_s",
        per_inst(&|i| i.layers.faults.ns),
        "s/instance",
    );
    put(
        "hdfs_sim.faults_applied",
        count(&|i| i.layers.faults_applied),
        "count",
    );
    let copies = pooled(scored.iter(), |i| &i.checked.copy_ns);
    put("hdfs_sim.copies", copies.len() as f64, "count");
    put(
        "hdfs_sim.copy_s_p99",
        percentile(&copies, 0.99) as f64 / 1e9,
        "sim-s",
    );

    let tick_ns = |i: &Instance| i.layers.tick_ns.iter().sum::<u64>();
    put("erms.tick_s", per_inst(&tick_ns), "s/instance");
    let judged = count(&|i| i.layers.ticks.files_judged);
    put("erms.files_judged", judged, "count");
    let ticks = count(&|i| i.layers.tick_ns.len() as u64);
    put(
        "erms.judged_per_tick",
        judged / ticks.max(1.0),
        "files/tick",
    );
    put(
        "erms.tasks_submitted",
        count(&|i| i.layers.ticks.tasks_submitted),
        "count",
    );
    let completed = count(&|i| i.layers.ticks.tasks_completed);
    let failed = count(&|i| i.layers.ticks.tasks_failed);
    put("erms.tasks_completed", completed, "count");
    put("erms.tasks_failed", failed, "count");
    put(
        "erms.tasks_timed_out",
        count(&|i| i.layers.ticks.tasks_timed_out),
        "count",
    );
    put(
        "erms.task_success_ratio",
        completed / (completed + failed).max(1.0),
        "ratio",
    );
    put(
        "erms.repairs_started",
        count(&|i| i.layers.ticks.repairs_started),
        "count",
    );
    put(
        "erms.scrub_scanned",
        count(&|i| i.layers.ticks.scrub_scanned),
        "count",
    );
    put(
        "erms.corruptions_found",
        count(&|i| i.layers.ticks.corruptions_found),
        "count",
    );
    let tick_wall: u64 = traced.iter().map(tick_ns).sum();
    for (stem, scope) in TICK_PHASES {
        let (mut calls, mut ns) = (0u64, 0u64);
        for (k, inst) in traced.iter().enumerate() {
            let (c, w) = inst
                .profile
                .as_ref()
                .map_or((0, 0), |p| fold_named(p, scope));
            ns += w;
            if k < scored.len() {
                calls += c;
            }
        }
        put(
            &format!("erms.tick.{stem}_pct"),
            100.0 * ns as f64 / tick_wall.max(1) as f64,
            "%",
        );
        put(&format!("erms.tick.{stem}_calls"), calls as f64, "count");
    }

    put(
        "condor.queue_depth_max",
        scored
            .iter()
            .map(|i| i.layers.queue_depth_max)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    let waits = pooled(scored.iter(), |i| &i.checked.task_wait_ns);
    put(
        "condor.task_wait_s_p50",
        percentile(&waits, 0.50) as f64 / 1e9,
        "sim-s",
    );

    put(
        "checkpoint.save_s",
        per_inst(&|i| i.layers.save.ns),
        "s/instance",
    );
    put(
        "checkpoint.encode_s",
        per_inst(&|i| i.layers.encode.ns),
        "s/instance",
    );
    put(
        "checkpoint.decode_s",
        per_inst(&|i| i.layers.decode.ns),
        "s/instance",
    );
    put(
        "checkpoint.load_s",
        per_inst(&|i| i.layers.load.ns),
        "s/instance",
    );
    put(
        "checkpoint.bytes",
        count(&|i| i.layers.checkpoint_bytes),
        "bytes",
    );
    put("checkpoint.count", count(&|i| i.layers.save.calls), "count");

    put(
        "telemetry.events",
        count(&|i| i.layers.telemetry_events),
        "count",
    );
    put(
        "telemetry.bytes",
        count(&|i| i.layers.telemetry_bytes),
        "bytes",
    );
    put(
        "telemetry.drain_s",
        per_inst(&|i| i.layers.drain.ns),
        "s/instance",
    );

    put(
        "spans.parse_s",
        per_inst(&|i| i.checked.parse_ns),
        "s/instance",
    );
    put(
        "spans.collect_s",
        per_inst(&|i| i.checked.collect_ns),
        "s/instance",
    );
    put(
        "oracle.check_s",
        per_inst(&|i| i.checked.oracle_ns),
        "s/instance",
    );

    let plain = sim_h_per_s(&run.untraced[..traced.len()]);
    put(
        "trace.overhead_pct",
        100.0 * (plain - sim_h_per_s(traced)) / plain,
        "%",
    );
    let covered: u64 = traced.iter().map(|i| i.covered_ns).sum();
    let measured: u64 = traced.iter().map(|i| i.measured_ns).sum();
    put(
        "trace.coverage_pct",
        100.0 * covered as f64 / measured.max(1) as f64,
        "%",
    );
    out
}

/// The result line: one JSON object, every value in its shortest
/// round-tripping form. Callers reject non-finite values first.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
