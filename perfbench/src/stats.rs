//! Order statistics.

/// The median of `v` (0 for an empty list).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile_f(&v, 0.5)
}

/// The `q` quantile of sorted `v` by linear interpolation.
pub fn quantile_f(v: &[f64], q: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The `q` quantile of sorted integer samples (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}
