//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cell-mf-bulyan|cell-ncf-ours|serve-1m> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of `BENCHMARK.json`;
//! with `--trace 1` it prints the per-layer metrics, taken by timing the
//! public calls and decorating the public extension traits from outside the
//! program. Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding exactly the
//! metrics `BENCHMARK.json` declares for the mode, and the exit code is
//! non-zero when an output check, or that match, failed.

mod cell;
mod host;
mod loadgen;
mod phases;
mod report;
mod rounds;
mod serve;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use report::Report;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}`; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {} cores {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::cores()
    );
    let mut report = Report::default();
    let outcome = if args.workload.is_cell() {
        cell::run(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        )
    } else {
        serve::run(args.seed, args.seconds, args.trace, &mut report)
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload.name());
        return ExitCode::from(1);
    }
    report.check_declared(args.trace);
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload serve-1m --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Serve1m);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload serve-1m --seconds 1",
            "--workload serve-1m --seed 1 --seconds 0",
            "--workload serve-1m --seed 1 --seconds 1 --trace 2",
            "--workload serve-1m --seed 1 --seconds",
            "--frob 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
