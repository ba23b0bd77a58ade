//! Order statistics and outcome hashing.

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median of the fastest batch of timings: each batch's median, then
/// the least of those; infinite for no samples. A batch takes about a
/// millisecond, while a shared host switches between a fast and a slow
/// mode over tenths of a second to seconds (one set-up of a search took
/// 1.4 µs in one mode and 2.5 µs in the other). The median of all
/// timings jumps between the modes from run to run; batches spread over
/// a run find the fast mode whenever the host offers it.
pub fn fastest_batch_median(batches: &[Vec<f64>]) -> f64 {
    batches
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| median(b))
        .fold(f64::INFINITY, f64::min)
}

/// The highest order statistic with at least ten samples above it (the
/// tail a sample of this size can support), with its percentile rank.
/// Falls back to the maximum when fewer than eleven samples exist.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let i = if n < 11 { n - 1 } else { n - 11 };
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// FNV-1a, 64-bit: a stable digest of outcome bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
