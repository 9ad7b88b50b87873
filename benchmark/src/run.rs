//! `acn-perf run`: every workload, each in its own child process (so
//! `peak_rss_mb` is the workload's own), collected into one result file
//! with the host record.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::catalog::{self, END_TO_END, WORKLOADS};
use crate::host;
use crate::json::Json;
use crate::probes::{self, Readings};
use crate::spans::{Recorder, TRACE_DIR};
use crate::workload::{self, NOMINAL_SECONDS};

/// `--smoke` divides every length by this.
const SMOKE_DIVISOR: f64 = 20.0;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub traced: bool,
    pub out: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 7,
            seconds: NOMINAL_SECONDS,
            smoke: false,
            traced: false,
            out: None,
        }
    }
}

/// Prefix of the line a child prints its detail on, just above the
/// result line.
pub const DETAIL_PREFIX: &str = "#detail ";

/// Runs one workload in a child process and returns its detail. A
/// traced child leaves the probes to [`take_probes`].
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(if traced {
            &["--trace", "1", "--skip-probes"][..]
        } else {
            &["--trace", "0"]
        })
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout
        .lines()
        .filter(|l| !l.starts_with(DETAIL_PREFIX) && !l.starts_with('{'))
    {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "the {workload} child exited with {}",
            output.status
        ));
    }
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("the {workload} child printed no detail line"))?;
    Json::parse(detail)
}

/// Takes the microprobes' readings once, in this process: they do not
/// depend on the workload, so every traced run of the file shares them.
fn take_probes(seed: u64, seconds: f64) -> Result<Readings, String> {
    let (needed, available) = (probes::threads(), host::nproc());
    if needed > available {
        return Err(format!(
            "the probes need {needed} threads but this host has {available}"
        ));
    }
    println!("== probes: one public function of one layer each, in a tight loop");
    let mut rec = Recorder::on(WORKLOADS.len() as u64);
    let readings = probes::run_all(seconds, seed, &mut rec);
    for (name, value) in &readings {
        let unit = catalog::metric(name).map_or("", |m| m.unit);
        println!("    {name:<40} {value:>18.6} {unit}");
    }
    print!("{}", rec.stack_report());
    match rec.write_trace(Path::new(TRACE_DIR), "probes") {
        Ok(path) => println!("  trace: {}", path.display()),
        Err(error) => println!("  trace not written: {error}"),
    }
    Ok(readings)
}

/// Adds `readings` to the metrics of a child's detail.
fn merge_readings(detail: &mut Json, readings: &Readings) {
    let Json::Obj(fields) = detail else { return };
    if let Some(Json::Obj(metrics)) = fields.get_mut("metrics") {
        for (name, value) in readings {
            metrics.insert(name.to_string(), Json::Num(*value));
        }
    }
}

/// Runs every workload; returns whether every run was correct.
pub fn run(options: &RunOptions) -> Result<bool, String> {
    let seconds = if options.smoke {
        options.seconds / SMOKE_DIVISOR
    } else {
        options.seconds
    };
    let readings = if options.traced {
        take_probes(options.seed, seconds)?
    } else {
        Vec::new()
    };

    let mut workloads = BTreeMap::new();
    let mut correct = true;
    for w in WORKLOADS {
        println!("== {}: {}", w.name, w.why);
        let mut entry = BTreeMap::new();
        let untraced = child(w.name, options.seed, seconds, false)?;
        correct &= untraced.get("correct") == Some(&Json::Bool(true));
        entry.insert("untraced".to_string(), untraced);
        if options.traced {
            let mut traced = child(w.name, options.seed, seconds, true)?;
            correct &= traced.get("correct") == Some(&Json::Bool(true));
            merge_readings(&mut traced, &readings);
            entry.insert("traced".to_string(), traced);
        }
        workloads.insert(w.name.to_string(), Json::Obj(entry));
    }

    println!("\nbaseline (seed {}, budget {seconds} s):", options.seed);
    print!("{:<16}", "workload");
    for m in END_TO_END {
        print!(" {:>18}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>18} {:>12}", "failed/attempted", "failed_share");
    for w in WORKLOADS {
        let run = workloads[w.name].get("untraced").expect("just inserted");
        let metric = |name: &str| {
            run.get("metrics")
                .and_then(|x| x.get(name))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        print!("{:<16}", w.name);
        for m in END_TO_END {
            print!(" {:>18.6}", metric(m.name));
        }
        let count = |key: &str| run.get(key).and_then(Json::as_u64).unwrap_or(0);
        println!(
            " {:>18} {:>12.6}",
            format!("{}/{}", count("failed"), count("attempted")),
            metric("failed_share")
        );
    }

    let threads = WORKLOADS
        .iter()
        .map(|w| (w.name, workload::threads(w.name)))
        .chain(options.traced.then(|| ("probes", probes::threads())))
        .map(|(name, threads)| (name, Json::Int(threads as u64)));
    let file = Json::obj([
        ("host", host::record()),
        ("seed", Json::Int(options.seed)),
        ("seconds", Json::Num(seconds)),
        ("length_scale", Json::Num(seconds / NOMINAL_SECONDS)),
        ("threads", Json::obj(threads)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = options.out.clone().unwrap_or_else(|| {
        PathBuf::from(TRACE_DIR).join(if options.smoke {
            "results.smoke.json"
        } else {
            "results.json"
        })
    });
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(correct)
}
