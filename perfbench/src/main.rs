//! The AWEsim benchmark. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <chip_batch|pdn_sweep|eco_serve|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable block (every metric with its unit and sample
//! count, `#`-prefixed) and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` the per-layer set
//! from a separate traced run. Exits 1 when any correctness check fails.

mod chip_batch;
mod common;
mod eco_serve;
mod layers;
mod pdn_sweep;
mod report;
mod trace;

use std::process::{Command, ExitCode};

use common::{per_layer_keys, END_TO_END};
use report::{print_outcome, Outcome};

const WORKLOADS: [&str; 3] = ["chip_batch", "pdn_sweep", "eco_serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Fails the outcome when the metric set is not exactly the contract's.
fn check_metric_set(out: &mut Outcome, traced: bool) {
    let expected: Vec<&str> = if traced {
        per_layer_keys()
    } else {
        END_TO_END.to_vec()
    };
    let got: Vec<&str> = out.metrics.iter().map(|m| m.key).collect();
    if got != expected {
        out.fail(format!("metric set {got:?} differs from {expected:?}"));
    }
}

/// Runs each workload in its own process, passing the output through.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate itself: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let run = match args.workload.as_str() {
        "chip_batch" => chip_batch::run,
        "pdn_sweep" => pdn_sweep::run,
        _ => eco_serve::run,
    };
    let mut out = run(args.seed, args.seconds, args.trace);
    check_metric_set(&mut out, args.trace);
    let correct = out.failed == 0;
    print_outcome(&args.workload, args.seed, out);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awe_serve::Json;

    /// The metric lists the program prints are the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let spec = awe_serve::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            match spec.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        m.get("name")
                            .and_then(Json::as_str)
                            .expect("named")
                            .to_owned()
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key} list"),
            }
        };
        assert_eq!(names("end_to_end"), END_TO_END.to_vec());
        assert_eq!(names("per_layer"), per_layer_keys());
        assert_eq!(names("workloads"), WORKLOADS.to_vec());
    }
}
