//! Step-loop fidelity: the benchmark's own step loop must drive the
//! program exactly like the registry runner the scorecard uses.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a full simulated day per test; debug builds are slow).

use bench::checkpointing::{ResumableRun, Scenario};
use perfbench::check::{digest, EMPTY_DIGEST};
use perfbench::instance::run_prod;
use perfbench::layers::Layers;
use perfbench::prod::ProdRun;
use perfbench::report::percentile;
use perfbench::workload::SOAK_SEGMENTS;
use serde::Value;

/// The `prod-diurnal` row's deterministic metrics in the checked-in
/// scorecard.
fn scorecard_row(name: &str) -> Vec<(String, f64)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/SCORECARD.json");
    let text = std::fs::read_to_string(path).expect("scorecard is checked in");
    let doc = serde_json::parse_value(&text).expect("scorecard parses");
    let row = doc
        .get("scenarios")
        .and_then(Value::as_seq)
        .expect("scenario list")
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
        .expect("scenario row");
    row.get("deterministic")
        .and_then(Value::as_map)
        .expect("deterministic map")
        .iter()
        .map(|(k, v)| {
            let v = match v {
                Value::U64(u) => *u as f64,
                Value::I64(i) => *i as f64,
                Value::F64(f) => *f,
                other => panic!("{k} is not a number: {other:?}"),
            };
            (k.clone(), v)
        })
        .collect()
}

fn metric(row: &[(String, f64)], key: &str) -> f64 {
    row.iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("scorecard row lacks {key}"))
        .1
}

#[test]
fn diurnal_seed_42_reproduces_the_scorecard_row() {
    let row = scorecard_row("prod-diurnal");
    let inst = run_prod(&Scenario::prod_diurnal(), 42, 1, false);
    assert!(inst.errors.is_empty(), "{:?}", inst.errors);

    let mut reads = inst.checked.read_ns.clone();
    reads.sort_unstable();
    assert_eq!(reads.len() as f64, metric(&row, "read_count"));
    assert_eq!(
        inst.checked.reads_failed as f64,
        metric(&row, "read_failed")
    );
    for (q, key) in [
        (0.50, "read_p50_s"),
        (0.95, "read_p95_s"),
        (0.99, "read_p99_s"),
    ] {
        assert_eq!(
            percentile(&reads, q) as f64 / 1e9,
            metric(&row, key),
            "{key}"
        );
    }
    assert_eq!(
        *reads.last().unwrap() as f64 / 1e9,
        metric(&row, "read_max_s")
    );
    assert_eq!(inst.storage_used as f64, metric(&row, "storage_used_bytes"));
    assert_eq!(
        inst.standby_node_secs,
        metric(&row, "energy_standby_node_s")
    );
    assert_eq!(inst.loss_events as f64, metric(&row, "data_loss_events"));
    assert_eq!(
        inst.layers.telemetry_events as f64,
        metric(&row, "trace_events")
    );
    assert_eq!(inst.layers.tick_ns.len() as f64, metric(&row, "ticks"));
    assert_eq!(
        inst.checked.oracle_violations.len() as f64,
        metric(&row, "oracle_violations")
    );
}

#[test]
fn the_step_loop_matches_the_registry_runner_byte_for_byte() {
    let mut l = Layers::new(true);
    let mut run = ProdRun::new(Scenario::prod_diurnal(), 7, &mut l);
    run.finish(&mut l);
    let trace = l.drain(run.sink());

    let mut reference = ResumableRun::new(Scenario::prod_diurnal(), 7);
    reference.finish();
    assert!(trace == reference.drain_trace(), "traces differ");
    assert!(
        run.save().to_json() == reference.save().to_json(),
        "final snapshots differ"
    );
}

#[test]
fn every_soak_round_trip_resaves_the_snapshot_it_loaded() {
    let seed = 11;
    let inst = run_prod(&Scenario::soak_diurnal(), seed, SOAK_SEGMENTS, true);
    // each of the SOAK_SEGMENTS - 1 boundaries saved, decoded, resumed
    // and re-saved the same bytes, or the instance carries an error
    assert!(inst.errors.is_empty(), "{:?}", inst.errors);
    assert_eq!(inst.layers.save.calls, SOAK_SEGMENTS - 1);
    assert_eq!(inst.layers.load.calls, SOAK_SEGMENTS - 1);

    // and checkpointing changed nothing the simulation did
    let mut straight = ResumableRun::new(Scenario::soak_diurnal(), seed);
    straight.finish();
    let expect = digest(EMPTY_DIGEST, straight.drain_trace().as_bytes());
    assert_eq!(inst.checked.trace_digest, expect, "segmented trace differs");
}

#[test]
fn the_streamed_diurnal_trace_is_the_registry_runners_trace() {
    let inst = run_prod(&Scenario::prod_diurnal(), 7, 1, false);
    let mut reference = ResumableRun::new(Scenario::prod_diurnal(), 7);
    reference.finish();
    let expect = digest(EMPTY_DIGEST, reference.drain_trace().as_bytes());
    assert_eq!(inst.checked.trace_digest, expect);
}
