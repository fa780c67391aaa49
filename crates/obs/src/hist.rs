//! Log-bucketed latency histograms.
//!
//! The overload campaign (E17) needs commit-latency tails — p50, p99,
//! p999 — not means: past the saturation knee the mean stays polite
//! while the tail explodes. A [`LatencyHistogram`] is 64 atomic
//! power-of-two buckets over microseconds, so recording is one
//! `leading_zeros` and one relaxed `fetch_add` (safe on a hot path),
//! resolution is a constant relative error (each bucket is at most 2×
//! its predecessor), and the range covers a microsecond to centuries
//! with no configuration.
//!
//! Histograms aggregate commutatively: a [`HistogramSnapshot`] is a
//! plain value and [`HistogramSnapshot::merge`] adds bucket-wise, so
//! histograms recorded apart (one per thread, or per process) merge
//! into one exactly, in any order, with no cross-thread contention
//! while recording.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: bucket `i` is the set of samples with bit
/// length `i` (so bucket `i > 0` spans `[2^(i-1), 2^i)`), with bucket
/// 0 for `v == 0`. Bit lengths run 0..=64, hence 65 buckets.
const N_BUCKETS: usize = 65;

/// A lock-free histogram of `u64` samples (microseconds, by
/// convention) in logarithmic buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; N_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index of sample `v`: its bit length (0 for 0), so
/// bucket `i > 0` spans `[2^(i-1), 2^i)`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The inclusive upper bound reported for bucket `i` (`2^i - 1`): the
/// quantile estimate errs toward the pessimistic edge of its bucket.
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i).wrapping_sub(1)
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the bucket counts out as a plain value.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; N_BUCKETS];
        for (out, cell) in buckets.iter_mut().zip(&self.buckets) {
            *out = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`]: a plain value that
/// merges, compares and renders.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; N_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; N_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (identity of [`HistogramSnapshot::merge`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Absorb another snapshot bucket-wise. Addition commutes, so
    /// merging per-reactor histograms in any order yields the same
    /// cluster histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// The upper bound of the bucket containing quantile `q` in
    /// `[0, 1]` — a conservative (over-)estimate with at most 2×
    /// relative error. `None` when the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        // The rank of the quantile sample, 1-based; q = 0 gives the
        // smallest sample's bucket, q = 1 the largest.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i));
            }
        }
        Some(bucket_upper(N_BUCKETS - 1))
    }

    /// Median estimate (`quantile(0.5)`).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 99th percentile estimate.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile estimate.
    #[must_use]
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_bit_lengths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        // Rank 3 of 6 at q=0.5 lands in bucket_of(3) = 2 → upper 3.
        assert_eq!(s.p50(), Some(3));
        // The largest sample (1000) has bit length 10 → upper 1023.
        assert_eq!(s.p99(), Some(1023));
        assert_eq!(s.p999(), Some(1023));
        assert_eq!(s.quantile(0.0), Some(1));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), None);
        assert_eq!(s.p999(), None);
    }

    #[test]
    fn merge_commutes_and_matches_a_single_histogram() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let whole = LatencyHistogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 7)
            } else {
                b.record(v * 7)
            }
            whole.record(v * 7);
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole.snapshot());
        assert_eq!(ab.count(), 1000);
        assert_eq!(ab.p50(), whole.snapshot().p50());
    }

    #[test]
    fn quantile_estimate_bounds_the_true_value_within_2x() {
        let h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p99 = s.p99().unwrap();
        // True p99 is 9900; the bucket upper bound may overshoot by
        // at most 2× and never undershoots below the true value's
        // bucket lower bound.
        assert!((9900 / 2..=9900 * 2).contains(&p99), "p99 estimate {p99}");
    }
}
