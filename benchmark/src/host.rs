//! Host facts: peak memory of a process, core count, toolchain, commit.

use std::process::Command;

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB. `None` off Linux or once the process is gone.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// `rustc -V`, or `"unknown"`.
pub fn rustc_version() -> String {
    first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, or `"unknown"` outside a git repository.
pub fn git_commit() -> String {
    first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
}
