//! Runs one benchmark workload:
//!
//! ```text
//! cargo run --release --manifest-path membench/Cargo.toml -- \
//!     --workload serve_1c --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result. The exit code is
//! 1 when a correctness check failed and 2 when the run could not start.

use std::process::ExitCode;

use membench::report::result_json;
use membench::{run, Options, Size, Workload};

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let mut workload = None;
    let mut opts = Options { seed: 0, seconds: 0.0, trace: false, size: Size::FULL };
    let mut seen = [false; 4];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|(_, n)| *n).collect();
                    format!("unknown workload `{value}` (expected one of {})", names.join(", "))
                })?);
                0
            }
            "--seed" => {
                opts.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
                1
            }
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
                2
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (expected 0 or 1)")),
                };
                3
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        };
        seen[slot] = true;
    }
    if seen.contains(&false) {
        return Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>".into());
    }
    Ok((workload.expect("seen"), opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("membench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match run(workload, &opts) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("membench: the workload could not run: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &result.outcome.notes {
        println!("{note}");
    }
    print!("{}", result.outcome.metrics.lines());
    for failure in &result.failures {
        eprintln!("membench: check failed: {failure}");
    }
    println!("{}", result_json(result.correct, result.outcome.tally, &result.outcome.metrics));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
