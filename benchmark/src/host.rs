//! Host-side measurement helpers: order statistics, the calibration spin
//! and what `/proc` says about this process and machine.

use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile (0..=100) by nearest rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Interquartile range of `values` as a share of their median — the spread
/// `compare` sets against a metric's bound. 0 with fewer than four values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 4 || m == 0.0 {
        return 0.0;
    }
    (percentile(values, 75.0) - percentile(values, 25.0)) / m
}

/// Times a fixed integer spin that touches no repo code. Two readings that
/// differ by more than a tenth mean the host changed speed between them.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..60_000_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(i);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process, kB (`VmHWM`).
pub fn peak_rss_kb() -> f64 {
    proc_status_kb("VmHWM:")
}

/// Current resident set of this process, kB (`VmRSS`).
pub fn rss_kb() -> f64 {
    proc_status_kb("VmRSS:")
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&v[..4]), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert!((iqr_share(&v) - 2.0 / 3.0).abs() < 1e-12);
    }
}
