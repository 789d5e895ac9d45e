//! Command line of the benchmark:
//!
//! ```text
//! coach-perfbench --workload <paper-cadence|large-cluster|churn-stream>
//!                 --seed <n> --seconds <s> --trace <0|1> [--scale tiny]
//! ```
//!
//! Prints one `check`, `metric` or `unmeasured` line per item, then the
//! JSON result object as the last line. Exits 1 if any reference check or
//! shadow replay disagreed, 2 on a usage error.

use coach_perfbench::{run, Options, Scale, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace is 0 or 1, got {value:?}")),
                })
            }
            "--scale" => {
                scale = match value {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale is full or tiny, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("coach-perfbench: {why}");
            eprintln!(
                "usage: coach-perfbench --workload <paper-cadence|large-cluster|churn-stream> \
                 --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for line in report.text_lines() {
        println!("{line}");
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
