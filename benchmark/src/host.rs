//! Host provenance recorded with every invocation, and process memory.

use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Hardware threads available to the process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Worker threads a workload may use: every CPU, but at most four.
pub fn worker_threads() -> usize {
    cpus().min(4)
}

/// The checked-out revision, or `"unknown"` outside a git checkout. Only
/// `./.git` is consulted, never a repository above the working directory.
pub fn git_revision() -> String {
    Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Times a fixed amount of integer work, in milliseconds. Run at the start
/// and the end of an invocation, it shows whether the host itself was slow
/// while the numbers beside it were taken.
pub fn ref_loop_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
