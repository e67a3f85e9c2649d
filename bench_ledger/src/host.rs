//! Host fingerprint and the noise guard: what machine produced a
//! result, how loaded it was, and this process's peak memory.

use obs::json::{obj, Json};
use std::process::Command;

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// 1-minute load average, if the host exposes one.
pub fn loadavg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Restart the kernel's high-water mark of this process's resident
/// set, so the next [`peak_rss_mb`] covers only what ran since.
/// Returns false where the kernel does not offer it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Print the noise-guard warning (never a failure): timings taken on a
/// host that was already busy are suspect.
pub fn warn_if_loaded(load: Option<f64>) {
    if let Some(l) = load {
        if l > 0.5 * nproc() as f64 {
            eprintln!(
                "warning: 1-min load {l:.2} exceeds half of {} CPUs; timings may be noisy",
                nproc()
            );
        }
    }
}

/// Everything a reader needs to judge whether two results came from
/// comparable machines. Spawns `rustc` and `git`, so only the suite
/// (not every driver run) records it.
pub fn fingerprint() -> Json {
    let unknown = || "unknown".to_string();
    obj(vec![
        ("nproc", Json::U64(nproc() as u64)),
        (
            "cpu_model",
            Json::Str(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
    ])
}
