//! Property tests for the latency histogram's merge algebra — the
//! foundation of deterministic percentile metrics across worker counts.
//!
//! The contract: a histogram is a pure function of the *multiset* of
//! recorded samples. However the samples are sharded across workers and
//! however the shards are merged (order, grouping, nesting), the result
//! — bucket counts, sum, max, and therefore every percentile — is
//! bit-identical.

use deepmc_obs::Histogram;
use proptest::prelude::*;

fn build(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for s in samples {
        h.record(*s);
    }
    h
}

proptest! {
    /// Merging shards in any order equals recording everything into one
    /// histogram — the jobs-1 vs jobs-N determinism law.
    #[test]
    fn sharding_is_invisible(
        samples in proptest::collection::vec(0u64..2_000_000, 0..200),
        shards in 1usize..6,
        perm_seed in 0u64..1000,
    ) {
        let whole = build(&samples);

        // Deal samples round-robin into shards, then merge the shards in
        // a seed-derived order.
        let mut parts: Vec<Vec<u64>> = vec![Vec::new(); shards];
        for (i, s) in samples.iter().enumerate() {
            parts[i % shards].push(*s);
        }
        let mut order: Vec<usize> = (0..shards).collect();
        // Deterministic pseudo-shuffle from the seed.
        for i in (1..order.len()).rev() {
            let j = ((perm_seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64))
                % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut merged = Histogram::new();
        for idx in order {
            merged.merge(&build(&parts[idx]));
        }

        prop_assert_eq!(&merged, &whole);
        for q in [0u32, 50, 90, 99, 100] {
            prop_assert_eq!(merged.percentile(q), whole.percentile(q));
        }
    }

    /// Merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(0u64..1_000_000, 0..50),
        b in proptest::collection::vec(0u64..1_000_000, 0..50),
        c in proptest::collection::vec(0u64..1_000_000, 0..50),
    ) {
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Merge is commutative: a ∪ b == b ∪ a.
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(0u64..1_000_000, 0..80),
        b in proptest::collection::vec(0u64..1_000_000, 0..80),
    ) {
        let (ha, hb) = (build(&a), build(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Percentiles never understate: the reported quantile is an upper
    /// bound on the true sample quantile, within one bucket of it, and
    /// never exceeds the exact max.
    #[test]
    fn percentile_bounds(
        samples in proptest::collection::vec(0u64..10_000_000, 1..200),
        q in 1u32..=100,
    ) {
        let h = build(&samples);
        let mut samples = samples;
        samples.sort_unstable();
        let rank = ((samples.len() as u64 * u64::from(q)).div_ceil(100)).max(1) as usize;
        let exact = samples[rank - 1];
        let reported = h.percentile(q);
        prop_assert!(reported >= exact, "p{q} {reported} understates exact {exact}");
        prop_assert!(reported <= h.max());
        // Bounded relative error from the log-linear bucketing.
        prop_assert!(
            (reported - exact) as f64 <= exact as f64 / 16.0 + 1.0,
            "p{q} {reported} too far above exact {exact}"
        );
    }
}
