//! `ctsbench`: the benchmark of the continuous top-k service.
//!
//! One workload per process, as the benchmark driver runs it:
//!
//! ```text
//! ctsbench --workload paper_sharded --seed 7 --seconds 20 --trace 0
//! ```
//!
//! prints every metric by name with its unit and, as the last line of its
//! standard output, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}` — the end-to-end metrics of an untraced run, the per-layer
//! metrics of a traced one. `ctsbench run` does that for all four workloads
//! (each in its own child process) and writes one report file; `ctsbench
//! compare A.json B.json` judges report B against report A under the bounds
//! in `BENCHMARK.json`. See the README beside this file.

#![forbid(unsafe_code)]

mod adapter;
mod open_loop;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{RunConfig, Scale};

const USAGE: &str = "usage:
  ctsbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--detail] [--trace-out DIR]
  ctsbench run [--seed N] [--seconds S] [--trace] [--quick] [--out PATH]
  ctsbench compare A.json B.json [--bench BENCHMARK.json]
workloads: paper_single paper_sharded service_open register_churn";

/// The seed every report in the repository was produced with.
const DEFAULT_SEED: u64 = 0xC75B;
/// Seconds one workload measures for; `BENCHMARK.json` passes the same.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    detail: bool,
    trace_out: Option<PathBuf>,
    out: PathBuf,
    bench: PathBuf,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        detail: false,
        trace_out: None,
        out: PathBuf::from("ctsbench_report.json"),
        bench: PathBuf::from("BENCHMARK.json"),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                let text = value("--seed")?;
                parsed.seed = parse_seed(&text).ok_or(format!("--seed: not an integer: {text}"))?;
            }
            "--seconds" => {
                let text = value("--seconds")?;
                parsed.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("--seconds: expected 0 < S <= 600, got {text}"))?;
            }
            // The driver passes `--trace 0|1`; `run --trace` is a bare flag.
            "--trace" => {
                parsed.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => parsed.quick = true,
            "--detail" => parsed.detail = true,
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            "--bench" => parsed.bench = PathBuf::from(value("--bench")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => parsed.positional.push(arg),
        }
    }
    Ok(parsed)
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale::quick()
    } else {
        Scale::paper()
    }
}

fn run_one(args: &Args, workload: &str) -> Result<(), String> {
    let config = RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: scale(args.quick),
    };
    let outcome = workloads::run(&config)?;
    report::print_metrics(&outcome);
    if let Some(dir) = args.trace_out.as_ref().filter(|_| args.trace) {
        println!("wrote {}", report::write_trace(&outcome, dir)?.display());
    }
    if args.detail {
        println!("DETAIL {}", report::detail(&outcome, &config));
    }
    println!("{}", report::result_line(&outcome, args.trace));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ctsbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    let result = match (args.workload.as_deref(), positional.as_slice()) {
        (Some(workload), []) => run_one(&args, workload).map(|()| true),
        (None, ["run"]) => report::run_all(&report::RunAll {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            quick: args.quick,
            out: args.out.clone(),
        }),
        (None, ["compare", a, b]) => {
            report::compare(&PathBuf::from(a), &PathBuf::from(b), &args.bench)
        }
        _ => Err(format!("expected a workload, `run` or `compare`\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ctsbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WORKLOADS;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_drivers_command_line_and_the_bare_trace_flag() {
        let a = args("--workload service_open --seed 17 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("service_open"));
        assert_eq!((a.seed, a.seconds, a.trace), (17, 3.0, true));
        let a = args("--workload paper_single --seed 0xC75B --seconds 10 --trace 0").unwrap();
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, false));
        let a = args("run --trace --out x.json").unwrap();
        assert!(a.trace && a.positional == ["run"] && a.out.to_str() == Some("x.json"));
        let a = args("compare a.json b.json").unwrap();
        assert_eq!(a.positional, ["compare", "a.json", "b.json"]);
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate").is_err());
    }

    #[test]
    fn every_workload_name_is_usable_in_benchmark_json() {
        for name in WORKLOADS {
            assert!(
                name.len() <= 64 && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            );
        }
    }
}
