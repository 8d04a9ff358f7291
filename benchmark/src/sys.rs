//! What the operating system says about this process: CPU time and
//! resident memory from procfs, and the environment stamp of a run
//! record. Linux only — the benchmark fails loudly elsewhere rather than
//! print zeros.

use std::fs;
use std::process::Command;

use crate::json::Json;

/// Kernel clock ticks per second (`USER_HZ`). Fixed at 100 on every Linux
/// ABI; reading it properly needs `sysconf`, which std does not expose.
const TICKS_PER_SEC: f64 = 100.0;

/// Process CPU seconds so far: `utime + stime` of `/proc/self/stat`, all
/// threads, including ones that already exited.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces and parentheses; the
    // numeric fields start after its closing parenthesis.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("/proc/self/stat: no command field")?;
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime = fields.nth(11).and_then(|f| f.parse::<u64>().ok());
    let stime = fields.next().and_then(|f| f.parse::<u64>().ok());
    match (utime, stime) {
        (Some(u), Some(s)) => Ok((u + s) as f64 / TICKS_PER_SEC),
        _ => Err("/proc/self/stat: utime/stime missing".into()),
    }
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".into())
}

/// Resets the peak-RSS high-water mark to the current RSS, so that what
/// ran before the timed window (reference mining, the repeated set-ups)
/// does not set the peak.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// The glibc setting the benchmark's command pins to 1 (`env
/// MALLOC_ARENA_MAX=1 cargo run …`). With per-thread arenas, which arena a
/// big allocation lands in — and so how much freed memory the process
/// keeps resident — depends on thread timing: the served workload's peak
/// RSS swung 25–55 MB between identical runs, against 22–23 MB pinned.
pub const ARENA_MAX: &str = "MALLOC_ARENA_MAX";

/// Warns when a run is not under the pin its numbers are defined with.
pub fn check_arena_pin() {
    if std::env::var(ARENA_MAX).as_deref() != Ok("1") {
        eprintln!(
            "warning: {ARENA_MAX} is not 1: peak_rss_mb will not repeat; run the command of BENCHMARK.json"
        );
    }
}

/// Returns the allocator's free pages to the kernel, so that what the run
/// freed before the timed window (the reference's tables, two discarded
/// set-ups) is not counted as resident during it. Without this the
/// window's peak is mostly a statement about where in the heap those
/// leftovers happened to lie: `selective_mix` read 37–62 MB across seeds
/// with them, for the same live data.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointer and touches only the
    // allocator's own free lists, under the allocator's locks; glibc
    // documents it as callable at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Other allocators keep their own counsel.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_memory() {}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `env` stamp of a run record. `commit` is `unknown` outside a git
/// checkout (the driver's checkouts are plain directories).
pub fn env_stamp(seed: u64, workers: usize) -> Json {
    let unknown = || "unknown".to_string();
    Json::obj([
        ("cores", Json::Num(cores() as f64)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("seed", Json::Num(seed as f64)),
        ("workers", Json::Num(workers as f64)),
        (
            ARENA_MAX,
            Json::Str(std::env::var(ARENA_MAX).unwrap_or_else(|_| "unset".into())),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readings_are_positive_and_cpu_time_advances() {
        let before = cpu_seconds().unwrap();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = cpu_seconds().unwrap();
        assert!(after > before, "60 ms of spinning moved no clock tick");
        assert!(peak_rss_mb().unwrap() > 0.5);
    }

    #[test]
    fn resetting_the_peak_drops_it_to_the_current_rss() {
        // Large against anything the tests running beside this one hold.
        let big = vec![1u8; 128 << 20];
        let sum: u64 = big.iter().map(|&b| u64::from(b)).sum();
        assert_eq!(std::hint::black_box(sum), 128 << 20);
        let with_big = peak_rss_mb().unwrap();
        drop(big);
        reset_peak_rss().unwrap();
        let after = peak_rss_mb().unwrap();
        assert!(
            after + 64.0 < with_big,
            "peak stayed at {after} MB after freeing 128 MB (was {with_big} MB)"
        );
    }
}
