//! The host fingerprint stored in every result file: two result files are
//! only comparable when these agree, and a number measured on one core
//! says nothing about the pool.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

fn file_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|text| text.trim().to_string())
}

/// Online processors as the kernel lists them (what `nproc --all` prints).
fn processors() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

fn cpu_model() -> Option<String> {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find_map(|line| {
            let (key, value) = line.split_once(':')?;
            (key.trim() == "model name").then(|| value.trim().to_string())
        })
}

/// Parallelism the process may actually use (cgroup limits and affinity
/// included), the figure thread-count claims must be read against.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Describe the host, the toolchain, the sources and the driven binary.
pub fn fingerprint(root: &Path, pqd: &Path) -> Json {
    let unknown = || "unknown".to_string();
    let parallelism = available_parallelism();
    if parallelism < 2 {
        eprintln!(
            "pqbench: WARNING: available_parallelism = {parallelism}. The server runs --threads 2 beside the \
             client; on one core every latency below measures the scheduler, and pq-exec.speedup is meaningless."
        );
    }
    Json::obj(vec![
        ("nproc", Json::Num(processors() as f64)),
        ("available_parallelism", Json::Num(parallelism as f64)),
        ("cpu_model", Json::Str(cpu_model().unwrap_or_else(unknown))),
        (
            "governor",
            Json::Str(
                file_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                    .unwrap_or_else(unknown),
            ),
        ),
        (
            "kernel",
            Json::Str(file_line("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"], root).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"], root).unwrap_or_else(unknown)),
        ),
        (
            "pqd_sha256",
            Json::Str(
                command_line("sha256sum", &[&pqd.to_string_lossy()], root)
                    .and_then(|line| line.split_whitespace().next().map(str::to_string))
                    .unwrap_or_else(unknown),
            ),
        ),
    ])
}
