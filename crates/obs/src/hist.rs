//! Log-bucketed latency histograms with deterministic merge.
//!
//! The bucketing scheme is log-linear (HDR-style): values below
//! [`SUBS`] land in exact unit buckets; above that, each power-of-two
//! octave is split into [`SUBS`] linear sub-buckets, giving a bounded
//! relative error of `1/SUBS` (6.25%) at any magnitude while keeping the
//! whole index space inside a `u16`.
//!
//! Determinism is the load-bearing property: a histogram is a pure
//! function of the multiset of recorded values, so merging per-worker
//! shards in any order (or any grouping) yields bit-identical bucket
//! counts, sums, and maxima. Percentiles are computed from bucket upper
//! bounds (clamped to the observed max), so they are deterministic too —
//! a proptest in this crate pins the associative/commutative merge law.

/// Number of linear sub-buckets per power-of-two octave (and the bound
/// below which values are bucketed exactly). Must be a power of two.
pub const SUBS: u64 = 16;
const SUB_BITS: u32 = SUBS.trailing_zeros();

/// Map a value to its bucket index. Total order preserving: `a <= b`
/// implies `index(a) <= index(b)`.
fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (octave - SUB_BITS)) & (SUBS - 1);
    ((octave - SUB_BITS + 1) as usize) * SUBS as usize + sub as usize
}

/// Largest value that maps to `idx` — the representative reported by
/// [`Histogram::percentile`] (an upper bound on the true quantile).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUBS as usize {
        return idx as u64;
    }
    let octave = (idx / SUBS as usize) as u32 - 1 + SUB_BITS;
    let sub = (idx % SUBS as usize) as u64;
    let lower = (1u64 << octave) | (sub << (octave - SUB_BITS));
    lower + ((1u64 << (octave - SUB_BITS)) - 1)
}

/// A mergeable latency histogram over `u64` microsecond samples.
///
/// Internally dense: a `Vec<u64>` grown to the highest touched index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    max: u64,
    counts: Vec<u64>,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self`. Associative and commutative: any merge
    /// tree over the same shards produces the same histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, n) in other.counts.iter().enumerate() {
            self.counts[i] += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` (0..=100): the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q% * count)`, clamped
    /// to the observed maximum. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (u128::from(self.count) * u128::from(q.min(100))).div_ceil(100).max(1) as u64;
        let mut seen = 0u64;
        for (idx, n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50)
    }

    pub fn p90(&self) -> u64 {
        self.percentile(90)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense bucket count for `u64` values under this scheme:
    /// `SUBS` exact buckets + one run of `SUBS` per octave `SUB_BITS..=63`.
    const NUM_BUCKETS: usize = (SUBS as usize) * (64 - SUB_BITS as usize + 1);

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUBS {
            h.record(v);
        }
        for q in [1, 50, 99, 100] {
            assert!(h.percentile(q) < SUBS);
        }
        assert_eq!(h.count(), SUBS);
        assert_eq!(h.sum(), (0..SUBS).sum::<u64>());
        assert_eq!(h.max(), SUBS - 1);
        // Exact buckets: each small value is its own bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_upper(bucket_index(7)), 7);
    }

    #[test]
    fn bucket_bounds_cover_and_order() {
        // Every value maps into a bucket whose upper bound is >= it, and
        // the index is monotone in the value.
        let mut probes: Vec<u64> = (0..100_000).collect();
        for shift in 0..64u32 {
            for off in [0i64, -1, 1, 7] {
                probes.push(
                    (1u128 << shift).saturating_add_signed(off as i128).min(u64::MAX as u128)
                        as u64,
                );
            }
        }
        probes.sort_unstable();
        let mut prev_idx = 0usize;
        for v in probes {
            let idx = bucket_index(v);
            assert!(bucket_upper(idx) >= v, "upper({idx}) covers {v}");
            assert!(idx >= prev_idx, "monotone at {v}: {idx} < {prev_idx}");
            prev_idx = idx;
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 1_000, 10_000, 1_000_000, 123_456_789] {
            let rep = bucket_upper(bucket_index(v));
            assert!(rep >= v);
            assert!((rep - v) as f64 <= v as f64 / SUBS as f64 + 1.0, "{v} -> {rep}");
        }
    }

    #[test]
    fn percentile_of_uniform_run() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50();
        assert!((450..=580).contains(&p50), "p50 {p50}");
        let p99 = h.p99();
        assert!((980..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.percentile(100), 1000);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let values: Vec<u64> = (0..500).map(|i| (i * 7919) % 100_000).collect();
        let mut whole = Histogram::new();
        for v in &values {
            whole.record(*v);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, v) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v)
            } else {
                b.record(*v)
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole, "merge is commutative");
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
    }
}
