//! Order statistics over latency samples.

/// The `p`-th percentile (0–100) by nearest rank on a sorted copy.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Whether `n` samples leave at least ten beyond the `p`-th percentile,
/// the least a reported percentile needs.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= 10.0
}

pub fn secs_ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
