//! Host-side meters (process CPU time, peak RSS) and the few statistics
//! helpers the benchmark reports with. Everything here reads `/proc`;
//! the benchmark only runs on Linux.

use std::fs;

/// User + system CPU seconds of this process, all threads, including
/// threads that have already exited (`/proc/self/stat` fields 14 and
/// 15, in `USER_HZ` = 100 ticks per second on every Linux ABI).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after_comm = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut ticks = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    (ticks() + ticks()) as f64 / 100.0
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Median, minimum, maximum and count of a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarises `samples` (which must be non-empty and finite).
pub fn summarise(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&s, 0.5),
        min: s[0],
        max: s[s.len() - 1],
        n: s.len(),
    }
}

/// The `q` quantile of an ascending slice, by linear interpolation.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// FNV-1a, 64 bit: folds `bytes` into the running hash `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis: the hash of the empty input.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
