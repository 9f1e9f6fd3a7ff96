//! Small order statistics and the repeat-until-time-is-up loop.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count);
/// 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank quantile of an ascending slice, `q` in [0, 1].
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Wall seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Runs `f(rep)` at least `min_reps` times and until `seconds` of wall
/// time have passed since the first call, returning every result.
pub fn repeat_for<T>(seconds: f64, min_reps: usize, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        out.push(f(out.len()));
    }
    out
}

/// Median wall seconds of one call of `f`, for set-up steps that take
/// micro- or milliseconds. Calls are timed in batches of at least a
/// millisecond, so the clock's own cost and granularity drop out, and the
/// median is taken over at least `min_batches` batches and `min_s`
/// seconds. Returns the result of the last call.
pub fn median_time<T>(min_batches: usize, min_s: f64, mut f: impl FnMut() -> T) -> (f64, T) {
    let (first_s, mut out) = timed(&mut f);
    let batch = ((1e-3 / first_s.max(1e-9)).ceil() as usize).max(1);
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < min_batches || start.elapsed().as_secs_f64() < min_s {
        let t0 = Instant::now();
        for _ in 0..batch {
            out = std::hint::black_box(f());
        }
        per_call.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    (median(&per_call), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
    }

    #[test]
    fn repeat_for_honours_the_minimum() {
        let reps = repeat_for(0.0, 3, |i| i);
        assert_eq!(reps, vec![0, 1, 2]);
    }
}
