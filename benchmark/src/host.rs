//! The host record stamped on every result file: a number measured on
//! a shared two-core sandbox means something only next to this.

use std::process::Command;

use crate::json::Json;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model, compiler and commit. The commit is `unknown`
/// outside a git checkout.
pub fn record() -> Json {
    Json::obj([
        ("nproc", Json::Int(nproc() as u64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
