//! What the benchmark reads from the host: process CPU time and peak memory
//! (from `/proc`), and the stamp every result file carries.

use std::path::PathBuf;
use std::process::Command;

/// Kernel clock ticks per second. `/proc/self/stat` counts CPU time in
/// `sysconf(_SC_CLK_TCK)` ticks, which is 100 on every Linux this runs on;
/// asking would need libc.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used so far.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; the numeric fields follow
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |field: usize| -> f64 {
        fields
            .get(field - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(14) + ticks(15)) / CLK_TCK
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    /// glibc's wrapper of the `sched_setaffinity` system call; `std` already
    /// links the C library, and has no affinity API of its own.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts every thread of this process to the CPUs in `mask` (bit `i` =
/// CPU `i`); threads started afterwards inherit the restriction. Returns
/// whether every thread took it.
pub fn set_affinity(mask: u64) -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut ok = true;
    for task in tasks.flatten() {
        if let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<i32>().ok())
        {
            // SAFETY: `mask` outlives the call and `cpusetsize` is its size in
            // bytes, which is all the system call reads.
            ok &= unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) } == 0;
        }
    }
    ok
}

/// The CPUs this process may run on when the benchmark starts (at most the
/// first 64), as a mask for [`set_affinity`].
pub fn allowed_cpus() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed:"))
        .and_then(|hex| {
            let digits: String = hex.trim().chars().filter(|c| *c != ',').collect();
            u64::from_str_radix(&digits[digits.len().saturating_sub(16)..], 16).ok()
        })
        .filter(|&mask| mask != 0)
        .unwrap_or(1)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Where the benchmark writes its temporary and result files:
/// `$CARGO_TARGET_DIR/benchmark`, or `target/benchmark` under the working
/// directory — inside the checkout either way.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // Git may look for a repository in the working directory and no higher:
    // the benchmark reads nothing outside its checkout.
    let ceiling = std::env::current_dir().ok()?.parent()?.to_path_buf();
    let output = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The host stamp as a JSON object: CPU count, the commit of the tree that
/// was actually measured and whether it had uncommitted changes, the rustc
/// version, and the run's seed and segment sizes.
pub fn stamp(seed: u64, seconds: f64, segment_ops: &[(&str, usize)]) -> String {
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let rustc = command_line("rustc", &["--version"]);
    let quote = |v: Option<String>| v.map_or("null".to_string(), |s| format!("\"{s}\""));
    let segments: Vec<String> = segment_ops
        .iter()
        .map(|(name, ops)| format!("\"{name}\":{ops}"))
        .collect();
    format!(
        "{{\"nproc\":{},\"git_commit\":{},\"dirty\":{},\"rustc\":{},\"seed\":{seed},\"seconds\":{seconds},\"segment_ops\":{{{}}}}}",
        nproc(),
        quote(commit),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        quote(rustc),
        segments.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_numbers() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
    }

    #[test]
    fn affinity_round_trips() {
        let all = allowed_cpus();
        let one = 1u64 << all.trailing_zeros();
        assert!(set_affinity(one));
        assert_eq!(allowed_cpus(), one);
        assert!(set_affinity(all));
        assert_eq!(allowed_cpus(), all);
    }
}
