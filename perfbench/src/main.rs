//! `perfbench --workload <diurnal|soak-ckpt|storm-xlarge> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Exit codes: 0 with a result line, 1 when a correctness check fails
//! (no result line), 2 on bad arguments.

use std::process::ExitCode;

use perfbench::report::{end_to_end, json_line, ops_faulted, per_layer};
use perfbench::workload::{run, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (diurnal, soak-ckpt, storm-xlarge)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(args.workload, args.seed, args.seconds, args.trace);
    let errors = result.errors();
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("perfbench: FAILED {e}");
        }
        return ExitCode::from(1);
    }
    let metrics = if args.trace {
        per_layer(&result)
    } else {
        end_to_end(&result)
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: FAILED metric {} is not a number", m.name);
        return ExitCode::from(1);
    }
    println!(
        "workload {} seed {}: {} instances ({} traced) in {:.1} s",
        args.workload.name(),
        args.seed,
        result.untraced.len(),
        result.traced.len(),
        result.wall_s
    );
    for m in &metrics {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let (attempted, failed) = ops_faulted(&result.untraced);
    println!("{}", json_line(true, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
