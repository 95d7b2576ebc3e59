//! Property tests for the Monte Carlo statistics accumulator: arbitrary
//! partitions of a sample set, merged in arbitrary orders, must reduce
//! to **bit-identical** summaries — the invariant that lets the sweep
//! engine shard seed batches across workers and runs while the
//! published figure JSON stays byte-stable.

use ehs_bench::stats::{Accumulator, Summary};
use proptest::prelude::*;

/// Every float of a summary as raw bits, so equality is exact.
fn bits(s: &Summary) -> Vec<u64> {
    let mut v = vec![
        s.n,
        s.mean.to_bits(),
        s.sd.to_bits(),
        s.min.to_bits(),
        s.max.to_bits(),
        s.ci95_t.lo.to_bits(),
        s.ci95_t.hi.to_bits(),
        s.ci95_bootstrap.lo.to_bits(),
        s.ci95_bootstrap.hi.to_bits(),
    ];
    match (s.gmean, s.gmean_ci95_t) {
        (Some(g), Some(ci)) => v.extend([1, g.to_bits(), ci.lo.to_bits(), ci.hi.to_bits()]),
        _ => v.push(0),
    }
    v
}

proptest! {
    /// Split the tagged samples into up to four parts by a generated
    /// assignment, build an accumulator per part, and merge the parts
    /// in several different orders (flat and tree-shaped). All of them
    /// — and the unpartitioned whole, and a reversed-insertion copy —
    /// must summarise to the same bits.
    #[test]
    fn partitions_merge_to_identical_bits(
        data in proptest::collection::vec((-10.0f64..10.0, 0usize..4), 2..40),
    ) {
        let pairs: Vec<(u64, f64)> = data
            .iter()
            .enumerate()
            .map(|(i, (v, _))| (i as u64, *v))
            .collect();

        let whole = Accumulator::from_pairs(pairs.iter().copied());

        // Insertion order must not matter.
        let reversed = Accumulator::from_pairs(pairs.iter().rev().copied());
        prop_assert_eq!(&reversed, &whole);

        // Partition by the generated assignment.
        let mut parts: Vec<Accumulator> = (0..4).map(|_| Accumulator::new()).collect();
        for (i, (v, part)) in data.iter().enumerate() {
            parts[*part].push(i as u64, *v);
        }

        // Flat merges in two different orders.
        let mut forward = Accumulator::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = Accumulator::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }

        // Tree-shaped merge: (0 ∪ 1) ∪ (2 ∪ 3).
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        let mut right = parts[2].clone();
        right.merge(&parts[3]);
        let mut tree = left;
        tree.merge(&right);

        // Overlapping re-merge (idempotent: duplicate tags carry
        // identical bits).
        let mut overlapped = forward.clone();
        overlapped.merge(&whole);

        let expect = bits(&whole.summary());
        prop_assert_eq!(&bits(&forward.summary()), &expect);
        prop_assert_eq!(&bits(&backward.summary()), &expect);
        prop_assert_eq!(&bits(&tree.summary()), &expect);
        prop_assert_eq!(&bits(&overlapped.summary()), &expect);
        prop_assert_eq!(&bits(&reversed.summary()), &expect);
    }

    /// The JSON a summary serialises to — what figure files are made of
    /// — is likewise identical across partitionings.
    #[test]
    fn summary_json_is_partition_invariant(
        data in proptest::collection::vec((0.5f64..2.0, 0usize..3), 2..24),
    ) {
        let whole = Accumulator::from_pairs(
            data.iter().enumerate().map(|(i, (v, _))| (i as u64, *v)),
        );
        let mut parts: Vec<Accumulator> = (0..3).map(|_| Accumulator::new()).collect();
        for (i, (v, part)) in data.iter().enumerate() {
            parts[*part].push(i as u64, *v);
        }
        let mut merged = Accumulator::new();
        for p in parts.iter().rev() {
            merged.merge(p);
        }
        let a = serde_json::to_string(&whole.summary()).unwrap();
        let b = serde_json::to_string(&merged.summary()).unwrap();
        prop_assert_eq!(a, b);
    }
}
