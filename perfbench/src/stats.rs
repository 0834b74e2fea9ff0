//! Small measurement helpers: medians, percentiles, process memory.

use std::time::Instant;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of already sorted samples. `None` for no
/// samples, and for a quantile above the median with fewer than ten samples
/// above it.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    let too_few_above = q > 0.5 && (n as f64) * (1.0 - q) < 10.0;
    if n == 0 || too_few_above {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Runs `f` and returns its result with the elapsed host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A `/proc/self/status` field in megabytes (`VmHWM` is the peak resident
/// set, `VmRSS` the current one); `None` where procfs is unavailable.
pub fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}
