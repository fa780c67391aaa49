//! Order statistics over small samples.

/// Sort a copy of `values` (NaN-free by construction: every caller
/// passes measured times or counts).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median; `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so the spreads printed here are the ones the acceptance
/// check computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// The `q`-quantile of `values` with linear interpolation between
/// ranks; `None` on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let last = v.len().checked_sub(1)?;
    let at = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (at - lo as f64))
}

/// Inter-quartile range as a share of the median (0 when undefined).
pub fn iqr_share(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The `q`-quantile (nearest rank) of an already sorted sample.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The `q`-quantile if at least `beyond` samples lie above it, the
/// rule for reporting a tail at all.
pub fn tail_sorted(sorted: &[u64], q: f64, beyond: usize) -> Option<u64> {
    let above = ((sorted.len() as f64) * (1.0 - q)).floor() as usize;
    if above >= beyond {
        quantile_sorted(sorted, q)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.25), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.75), Some(1.75));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tails_need_samples_beyond_them() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(500));
        assert_eq!(tail_sorted(&v, 0.99, 10), Some(990));
        assert_eq!(tail_sorted(&v, 0.999, 10), None);
    }
}
