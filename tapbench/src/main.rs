//! `tapbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, in order: the result record (host
//! fingerprint, every metric with its unit, tail quantiles, the simulated
//! outputs' digest), the per-layer table when traced, and as the last line
//! the JSON result: end-to-end metrics untraced, per-layer metrics traced.

use std::process::ExitCode;

use tapbench::{host, report, RunConfig, WorkloadKind};

const USAGE: &str = "usage: tapbench --workload <fig6-transit|fig5-churn|striped-lossy> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(WorkloadKind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host::fingerprint();
    let result = args.workload.run(&RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: args.workload.paper_size(),
    });
    let metrics = if args.trace {
        report::per_layer(&result)
    } else {
        report::end_to_end(&result, host::peak_rss_mb())
    };
    for e in &result.errors {
        eprintln!("check failed: {e}");
    }
    let mut recorded = metrics.clone();
    if !args.trace {
        recorded.extend(report::recorded_only(&result));
    }
    println!("record {}", report::record_json(&result, &host, &recorded));
    if args.trace {
        print!("{}", report::table(&result));
    }
    println!("{}", report::result_json(&result, &metrics));
    ExitCode::SUCCESS
}
