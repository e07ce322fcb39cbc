//! The correctness checks that gate a run: each must catch its defect.

use bench::checkpointing::Scenario;
use perfbench::check::{check_trace, reconcile_reads};
use perfbench::instance::verify_round_trip;
use perfbench::layers::Layers;
use perfbench::prod::ProdRun;

/// A short clean run: its trace, its opened-read count and the run.
fn short_run() -> (String, u64, ProdRun) {
    let mut l = Layers::new(false);
    let mut run = ProdRun::new(Scenario::churn_tiny(), 5, &mut l);
    run.finish(&mut l);
    let trace = l.drain(run.sink());
    (trace, l.reads - l.reads_refused, run)
}

#[test]
fn a_clean_trace_passes_every_check() {
    let (trace, opened, _) = short_run();
    let checked = check_trace(&trace).expect("parses");
    assert!(checked.oracle_violations.is_empty());
    assert!(opened > 0);
    reconcile_reads(opened, &checked).expect("reads reconcile");
}

#[test]
fn an_oracle_violation_is_caught() {
    let (trace, _, _) = short_run();
    // replaying the last event breaks seq monotonicity
    let last = trace.lines().last().expect("non-empty trace");
    let tampered = format!("{trace}{last}\n");
    let checked = check_trace(&tampered).expect("still parses");
    assert!(!checked.oracle_violations.is_empty());
}

#[test]
fn a_read_missing_from_the_trace_does_not_reconcile() {
    let (trace, opened, _) = short_run();
    let mut dropped = false;
    let tampered: String = trace
        .lines()
        .filter(|line| {
            let drop = !dropped && line.contains("\"read_started\"");
            dropped |= drop;
            !drop
        })
        .flat_map(|line| [line, "\n"])
        .collect();
    assert!(dropped);
    let checked = check_trace(&tampered).expect("parses");
    assert!(reconcile_reads(opened, &checked).is_err());
}

#[test]
fn an_unparseable_trace_is_an_error() {
    assert!(check_trace("{\"not\": \"an event\"}\n").is_err());
}

#[test]
fn a_snapshot_that_resaves_differently_is_caught() {
    let (_, _, run) = short_run();
    let wire = run.save().to_json();
    verify_round_trip(&run, &wire).expect("identical bytes pass");
    let tampered = wire.replacen("\"tick\":", "\"tick\": ", 1);
    assert!(verify_round_trip(&run, &tampered).is_err());
}

/// A trace of `events`, each `(ev, fields)`, one simulated second apart.
fn synthetic(events: &[(&str, &str)]) -> String {
    events
        .iter()
        .enumerate()
        .map(|(seq, (ev, fields))| {
            let t = (seq as u64 + 1) * 1_000_000_000;
            format!("{{\"t_ns\":{t},\"seq\":{seq},\"ev\":\"{ev}\",{fields}}}\n")
        })
        .collect()
}

fn failed_read(id: u32) -> [(&'static str, String); 2] {
    [
        ("read_started", format!("\"read\":{id},\"path\":\"/f\"")),
        (
            "read_finished",
            format!("\"read\":{id},\"path\":\"/f\",\"bytes\":0,\"failed\":true"),
        ),
    ]
}

#[test]
fn only_failed_reads_no_injected_fault_explains_are_unexplained() {
    let mut events: Vec<(&str, String)> = Vec::new();
    // 1: nothing down
    events.extend(failed_read(1));
    // 2: node 3 crashed
    events.push(("fault_applied", "\"kind\":\"crash\",\"node\":3".into()));
    events.extend(failed_read(2));
    // 3: node 3 back
    events.push(("fault_applied", "\"kind\":\"restart\",\"node\":3".into()));
    events.extend(failed_read(3));
    // 4: a killed node stays down through a restart
    events.push(("fault_applied", "\"kind\":\"kill\",\"node\":4".into()));
    events.push(("fault_applied", "\"kind\":\"restart\",\"node\":4".into()));
    events.extend(failed_read(4));
    let events: Vec<(&str, &str)> = events.iter().map(|(e, f)| (*e, f.as_str())).collect();
    let checked = check_trace(&synthetic(&events)).expect("parses");
    assert_eq!(checked.reads_failed, 4);
    assert_eq!(checked.reads_failed_unexplained, 2);
}
