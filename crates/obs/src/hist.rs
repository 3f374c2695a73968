//! Zero-dependency log-linear latency histograms (HDR-style).
//!
//! A [`Histogram`] is a fixed array of atomic bucket counters indexed
//! by a **log-linear** scheme: values below [`SUB_BUCKETS`] get one
//! bucket each, and every octave `[2^k, 2^(k+1))` above that is split
//! into [`SUB_BUCKETS`] equal-width sub-buckets. The relative bucket
//! width is therefore at most `1 / SUB_BUCKETS` (12.5%), which bounds
//! the error of every reported percentile, while the whole structure
//! is a few KiB and every operation is a handful of relaxed atomics:
//!
//! * [`Histogram::record`] — one `fetch_add` on the bucket plus
//!   count/sum/max bookkeeping; wait-free, callable from any thread;
//! * [`Histogram::merge_from`] — bucket-wise `fetch_add` of another
//!   histogram's counts; lock-free and never loses counts even when
//!   the source is concurrently recording (the merge reads a snapshot
//!   of each bucket; the source keeps its own counts);
//! * [`Histogram::value_at_quantile`] — walks the cumulative counts
//!   and returns the inclusive upper bound of the bucket holding the
//!   requested rank, so the reported value and the true quantile
//!   always share a bucket (`tests/proptest_hist.rs` proves both
//!   properties).
//!
//! The instrumentation statics in [`crate::hists`] wrap a histogram
//! with a stable snapshot name and a session-gated [`HistTimer`]; the
//! raw type here is deliberately *not* gated on the `enabled` feature
//! so it can be exercised (and property-tested) as a plain concurrent
//! data structure.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of sub-buckets per octave (and width of the initial linear
/// region). Bounds the relative bucket error at `1 / SUB_BUCKETS`.
pub const SUB_BUCKETS: u64 = 8;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Octaves tracked above the linear region. With 8 sub-buckets this
/// covers values up to `2^45` ns (~9.7 hours) before saturating into
/// the final bucket; the exact maximum is still tracked separately.
const OCTAVES: usize = 42;

/// Total bucket count of every [`Histogram`].
pub const NUM_BUCKETS: usize = SUB_BUCKETS as usize * (OCTAVES + 1);

/// Index of the bucket covering `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS + 1) as usize;
    if octave > OCTAVES {
        return NUM_BUCKETS - 1;
    }
    let mantissa = (v >> (msb - SUB_BITS)) - SUB_BUCKETS;
    octave * SUB_BUCKETS as usize + mantissa as usize
}

/// Inclusive lower bound of bucket `idx`.
#[inline]
pub fn bucket_lower(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        return idx;
    }
    let octave = (idx / SUB_BUCKETS) as u32;
    let mantissa = idx % SUB_BUCKETS;
    (SUB_BUCKETS + mantissa) << (octave - 1)
}

/// Inclusive upper bound of bucket `idx` (`u64::MAX` for the
/// saturating final bucket).
#[inline]
pub fn bucket_upper(idx: usize) -> u64 {
    if idx + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(idx + 1) - 1
    }
}

/// Reported percentiles of one histogram (see
/// [`Histogram::quantiles`]). `max` is exact; the `p*` values are
/// bucket upper bounds clamped to `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Quantiles {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (ns when recording latencies).
    pub sum: u64,
    /// Median (bucket-resolution upper bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum recorded value.
    pub max: u64,
}

/// A fixed-size log-linear histogram of `u64` values: [`NUM_BUCKETS`]
/// atomic buckets that bound the error of every reported percentile to
/// 12.5%, with wait-free recording and lock-free merging.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram. `const` so statics need no lazy init.
    pub const fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
        }
    }

    /// Records one value. Wait-free; callable from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Folds `other`'s counts into `self` bucket by bucket. Lock-free;
    /// never loses counts: `other` is only read (it keeps its own
    /// tallies), and every addition into `self` is a `fetch_add`.
    /// Concurrent recorders on either side are safe; the merge simply
    /// captures a point-in-time snapshot of each bucket.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(&other.buckets) {
            let n = src.load(Ordering::Relaxed);
            if n != 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Zeroes every bucket and tally (used by `session_begin`).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Number of recorded values.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded value (0 when empty).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` (in `0.0..=1.0`): the inclusive upper
    /// bound of the first bucket whose cumulative count reaches rank
    /// `ceil(q · count)`, clamped to the exact maximum. Returns 0 for
    /// an empty histogram. The reported value always lands in the same
    /// bucket as the true rank-`ceil(q·count)` order statistic, so the
    /// error is bounded by one bucket's width (≤ 12.5% relative).
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_upper(idx).min(self.max());
            }
        }
        self.max()
    }

    /// The standard percentile report (p50/p90/p99/max + count + sum).
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            count: self.count(),
            sum: self.sum(),
            p50: self.value_at_quantile(0.50),
            p90: self.value_at_quantile(0.90),
            p99: self.value_at_quantile(0.99),
            max: self.max(),
        }
    }

    /// The non-empty buckets as `(inclusive_upper_bound,
    /// cumulative_count)` pairs, cumulative over the whole histogram —
    /// the wire format of `hist` event-log lines. Upper bounds are
    /// strictly increasing and cumulative counts monotone
    /// non-decreasing; the final pair's count equals [`count`].
    ///
    /// [`count`]: Histogram::count
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                cum += n;
                out.push((bucket_upper(idx).min(self.max()), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_contiguous_and_monotone() {
        // Indices are monotone in the value and every bucket's bounds
        // agree with the index function.
        let mut prev = 0usize;
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotone at {v}");
            assert!(bucket_lower(idx) <= v && v <= bucket_upper(idx));
            prev = idx;
        }
        // The first linear region is exact.
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
        }
        // Relative width stays within 1/SUB_BUCKETS beyond the linear
        // region.
        for idx in SUB_BUCKETS as usize..NUM_BUCKETS - 1 {
            let lo = bucket_lower(idx);
            let hi = bucket_upper(idx);
            assert!(hi >= lo);
            assert!(hi - lo < lo.div_ceil(SUB_BUCKETS) * 2);
        }
        // Huge values saturate into the final bucket without panicking.
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn record_quantiles_and_merge() {
        let h = Histogram::new();
        assert_eq!(h.value_at_quantile(0.5), 0);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        // Every reported percentile lands in the true value's bucket.
        for (q, true_v) in [(0.50, 500u64), (0.90, 900), (0.99, 990)] {
            let got = h.value_at_quantile(q);
            assert_eq!(
                bucket_index(got),
                bucket_index(true_v),
                "q={q}: {got} vs true {true_v}"
            );
        }
        let other = Histogram::new();
        other.record(5);
        other.record(2_000_000);
        other.merge_from(&h);
        assert_eq!(other.count(), 1002);
        assert_eq!(other.max(), 2_000_000);
        assert_eq!(other.sum(), 500_500 + 5 + 2_000_000);
        let cum = other.cumulative_buckets();
        assert_eq!(cum.last().unwrap().1, 1002);
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 <= w[1].1);
        }
        other.reset();
        assert_eq!(other.count(), 0);
        assert!(other.cumulative_buckets().is_empty());
    }
}
