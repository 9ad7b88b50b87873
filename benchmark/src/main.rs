//! `acn-perf`: the repo's layered benchmark.
//!
//! ```text
//! acn-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--skip-probes]
//! acn-perf run [--seed n] [--seconds s] [--smoke] [--traced] [--out file]
//! acn-perf compare A.json B.json
//! ```
//!
//! The first form measures one workload in this process and prints one
//! JSON result line last; `run` does that for every workload, each in a
//! child process, and writes a result file; `compare` judges two result
//! files against the bounds. `--skip-probes` is how `run --traced`,
//! which takes the microprobes' readings once itself, keeps its seven
//! children from taking them again. See `benchmark/README.md`.

mod bench;
mod catalog;
mod compare;
mod counter;
mod host;
mod json;
mod openloop;
mod probes;
mod run;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;

use bench::Options;
use json::Json;
use run::RunOptions;

const USAGE: &str = "usage:
  acn-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--skip-probes]
  acn-perf run [--seed n] [--seconds s] [--smoke] [--traced] [--out file]
  acn-perf compare A.json B.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|options| run::run(&options)),
        Some("compare") => compare_files(&args[1..]),
        Some(_) => parse_single(&args).and_then(single),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("acn-perf: {message}");
            ExitCode::from(2)
        }
    }
}

/// The value following flag `args[*i]`, parsed.
fn value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String> {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {:?}", args[*i]))
}

fn checked_seconds(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && seconds > 0.0 && seconds <= 60.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds must be in (0, 60], got {seconds}"))
    }
}

fn parse_single(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut probes) =
        (None, 7u64, workload::NOMINAL_SECONDS, 0u8, true);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload = Some(value::<String>(args, &mut i)?),
            "--seed" => seed = value(args, &mut i)?,
            "--seconds" => seconds = checked_seconds(value(args, &mut i)?)?,
            "--trace" => trace = value(args, &mut i)?,
            "--skip-probes" => probes = false,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if catalog::workload(&workload).is_none() {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            names.join(", ")
        ));
    }
    if trace > 1 {
        return Err("--trace is 0 or 1".to_string());
    }
    Ok(Options {
        workload,
        seed,
        seconds,
        traced: trace == 1,
        probes,
    })
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut options = RunOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => options.seed = value(args, &mut i)?,
            "--seconds" => options.seconds = checked_seconds(value(args, &mut i)?)?,
            "--smoke" => options.smoke = true,
            "--traced" => options.traced = true,
            "--out" => options.out = Some(value::<String>(args, &mut i)?.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(options)
}

/// Measures one workload in this process. Load comes from one process
/// with at most `nproc` threads; more is refused, not oversubscribed.
fn single(options: Options) -> Result<bool, String> {
    let (needed, available) = (bench::threads_needed(&options), host::nproc());
    if needed > available {
        return Err(format!(
            "{} needs {needed} threads but this host has {available}; refusing to oversubscribe",
            options.workload
        ));
    }
    let measurement = bench::measure(options);
    print!("{}", measurement.report);
    println!("{}{}", run::DETAIL_PREFIX, measurement.detail().render());
    println!("{}", measurement.result_line());
    Ok(true)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let comparison = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", comparison.table);
    println!(
        "{}",
        if comparison.pass {
            "PASS: nothing worse"
        } else {
            "FAIL: see rows marked worse or differs"
        }
    );
    Ok(comparison.pass)
}
