//! Order statistics used by every workload: percentiles of per-operation
//! latencies and the quartiles that describe run-to-run spread.

/// Linear-interpolation percentile (`p` in `[0, 100]`) of `values`, the
/// method numpy calls `linear`: position `p/100 * (n - 1)` in sorted order.
/// `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// The three cut points dividing `values` into quarters, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (default `exclusive`
/// method). `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // May be negative for tiny samples (Python extrapolates the same).
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Some(out)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert!(close(percentile(&v, 50.0).unwrap(), 2.5));
        // pos = 0.9 * 3 = 2.7 -> 3 + 0.7 * (4 - 3)
        assert!(close(percentile(&v, 90.0).unwrap(), 3.7));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    #[test]
    fn p90_of_a_hundred_samples_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 90.0).unwrap();
        assert!(close(p90, 90.1));
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25));
        // statistics.quantiles([10, 1, 7, 3, 5], n=4) == [2.0, 5.0, 8.5]
        let q = quartiles(&[10.0, 1.0, 7.0, 3.0, 5.0]).unwrap();
        assert!(close(q[0], 2.0) && close(q[1], 5.0) && close(q[2], 8.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]).unwrap();
        assert!(close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
