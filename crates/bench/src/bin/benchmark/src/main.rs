//! `benchmark --workload <name|all> [--seed <u64>] [--seconds <n>]
//! [--trace <0|1>] [--smoke]`
//!
//! Prints a readable summary per workload, then the result as one line of
//! JSON. Exits non-zero when any outcome fails the correctness oracle.

use std::process::ExitCode;

use ra_benchmark::alloc::CountingAlloc;
use ra_benchmark::run::{run, Options};
use ra_benchmark::workloads::Workload;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed <u64>] [--seconds <n>] \
                     [--trace <0|1>] [--smoke]";

fn main() -> ExitCode {
    let (workloads, options) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for workload in workloads {
        let report = run(&Options {
            workload,
            ..options
        });
        println!("{}", report.json());
        failed |= report.exit_code() != 0;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The workloads to run and the options shared by all of them.
fn parse(mut args: impl Iterator<Item = String>) -> Result<(Vec<Workload>, Options), String> {
    let mut workloads = None;
    let mut options = Options {
        workload: Workload::SteadySmall,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            options.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let workload = Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?;
                workloads = Some(vec![workload]);
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad("expected a u64"))?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=86_400.0).contains(s))
                    .ok_or_else(|| bad("expected 0 to 86400"))?
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    Ok((workloads, options))
}
