//! Distribution statistics for Monte Carlo seed sweeps.
//!
//! Every headline number in `EXPERIMENTS.md` historically rested on a
//! single synthetic trace seed; this module turns those point estimates
//! into distributions. It is built around one hard requirement, which
//! the sweep engine's worker pool imposes: **merge- and order-invariance
//! down to the bit**. Seed batches arrive from many workers in
//! nondeterministic order and may be split across runs, yet repeated
//! runs must publish byte-identical figure JSON.
//!
//! The [`Accumulator`] achieves that by refusing to fold floats as they
//! arrive. It stores `(tag, value)` pairs in a `BTreeMap` keyed by tag
//! (the trace seed), so merging is set union and every statistic is
//! computed in ascending-tag order at [`Accumulator::summary`] time.
//! Identical sample sets therefore reduce through the identical
//! float-operation sequence, no matter how they were partitioned —
//! which is the property `tests/stats_prop.rs` checks exhaustively.
//!
//! The bootstrap resampler is deterministic for the same reason: its
//! RNG is seeded from the FNV-1a digest of the tag-ordered sample bits,
//! so the same distribution always draws the same resamples.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Bootstrap resample count (percentile method, 95 % interval).
pub const BOOTSTRAP_RESAMPLES: usize = 2000;

/// A 95 % confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ci {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Ci {
    /// Whether `x` lies inside the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Summary statistics of one metric's seed distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples (seeds).
    pub n: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator); 0 for n < 2.
    pub sd: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Geometric mean, when every sample is positive.
    pub gmean: Option<f64>,
    /// Student-t 95 % CI on the mean (degenerate `[mean, mean]` for
    /// n < 2, where no dispersion estimate exists).
    pub ci95_t: Ci,
    /// Bootstrap percentile 95 % CI on the mean (deterministic
    /// resampler, see the module docs).
    pub ci95_bootstrap: Ci,
    /// Student-t 95 % CI on the *geometric* mean (computed on logs,
    /// exponentiated back), when every sample is positive.
    pub gmean_ci95_t: Option<Ci>,
}

/// An order- and merge-invariant accumulator of tagged samples.
///
/// Tags identify samples (for seed sweeps, the tag *is* the trace
/// seed). Pushing the same tag twice is allowed only with a
/// bit-identical value — anything else means two workers disagreed on
/// a deterministic simulation, which is a harness bug worth a panic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accumulator {
    samples: BTreeMap<u64, f64>,
}

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Accumulator {
        Accumulator::default()
    }

    /// Builds an accumulator from `(tag, value)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u64, f64)>) -> Accumulator {
        let mut acc = Accumulator::new();
        for (tag, value) in pairs {
            acc.push(tag, value);
        }
        acc
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `tag` was already recorded with a different bit
    /// pattern (deterministic replays must agree exactly).
    pub fn push(&mut self, tag: u64, value: f64) {
        match self.samples.entry(tag) {
            Entry::Vacant(e) => {
                e.insert(value);
            }
            Entry::Occupied(e) => {
                assert!(
                    e.get().to_bits() == value.to_bits(),
                    "tag {tag} re-recorded with a different value: {} vs {value}",
                    e.get()
                );
            }
        }
    }

    /// Merges another accumulator into this one (set union; duplicate
    /// tags must carry bit-identical values, as in [`push`](Self::push)).
    pub fn merge(&mut self, other: &Accumulator) {
        for (&tag, &value) in &other.samples {
            self.push(tag, value);
        }
    }

    /// Number of distinct samples recorded.
    pub fn n(&self) -> usize {
        self.samples.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples in ascending tag order — the canonical reduction
    /// order every statistic uses.
    pub fn values(&self) -> Vec<f64> {
        self.samples.values().copied().collect()
    }

    /// Computes the summary statistics over the recorded samples.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    pub fn summary(&self) -> Summary {
        let xs = self.values();
        assert!(!xs.is_empty(), "summary of an empty accumulator");
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let sd = if n < 2 {
            0.0
        } else {
            let ss: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
            (ss / (n - 1) as f64).sqrt()
        };
        let mut min = xs[0];
        let mut max = xs[0];
        for &x in &xs[1..] {
            if x < min {
                min = x;
            }
            if x > max {
                max = x;
            }
        }
        let half = t_quantile_975(n.saturating_sub(1)) * sd / (n as f64).sqrt();
        let ci95_t = Ci {
            lo: mean - half,
            hi: mean + half,
        };
        let ci95_bootstrap = bootstrap_ci(&xs);

        let all_positive = xs.iter().all(|&x| x > 0.0);
        let (gmean, gmean_ci95_t) = if all_positive {
            let logs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
            let lmean = logs.iter().sum::<f64>() / n as f64;
            let lsd = if n < 2 {
                0.0
            } else {
                let ss: f64 = logs.iter().map(|l| (l - lmean) * (l - lmean)).sum();
                (ss / (n - 1) as f64).sqrt()
            };
            let lhalf = t_quantile_975(n.saturating_sub(1)) * lsd / (n as f64).sqrt();
            (
                Some(lmean.exp()),
                Some(Ci {
                    lo: (lmean - lhalf).exp(),
                    hi: (lmean + lhalf).exp(),
                }),
            )
        } else {
            (None, None)
        };

        Summary {
            n: n as u64,
            mean,
            sd,
            min,
            max,
            gmean,
            ci95_t,
            ci95_bootstrap,
            gmean_ci95_t,
        }
    }
}

/// Two-sided 97.5 % Student-t quantile for `df` degrees of freedom —
/// the multiplier of a 95 % CI on the mean.
///
/// Exact table values for df ≤ 30; above that the next *lower*
/// tabulated df is used (a slightly wider, conservative interval), and
/// past 120 the normal limit 1.96 applies. `df == 0` (a single sample)
/// returns 0 so the interval collapses to the point estimate instead
/// of pretending a dispersion estimate exists.
pub fn t_quantile_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => 0.0,
        1..=30 => TABLE[df - 1],
        31..=39 => TABLE[29], // conservative: df 30
        40..=49 => 2.021,     // df 40
        50..=59 => 2.009,     // df 50
        60..=79 => 2.000,     // df 60
        80..=99 => 1.990,     // df 80
        100..=119 => 1.984,   // df 100
        120..=199 => 1.980,   // df 120
        _ => 1.960,
    }
}

/// Percentile-bootstrap 95 % CI on the mean of `xs` (given in the
/// canonical tag order). Deterministic: the resampling RNG is seeded
/// from the FNV-1a digest of the sample bit patterns, so equal sample
/// sets always produce equal intervals regardless of how they were
/// accumulated.
fn bootstrap_ci(xs: &[f64]) -> Ci {
    let n = xs.len();
    if n < 2 {
        return Ci {
            lo: xs[0],
            hi: xs[0],
        };
    }
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut rng = SplitMix64(seed);
    let mut means = Vec::with_capacity(BOOTSTRAP_RESAMPLES);
    for _ in 0..BOOTSTRAP_RESAMPLES {
        let mut sum = 0.0;
        for _ in 0..n {
            sum += xs[(rng.next() % n as u64) as usize];
        }
        means.push(sum / n as f64);
    }
    means.sort_by(f64::total_cmp);
    let rank = |q: f64| means[(q * (BOOTSTRAP_RESAMPLES - 1) as f64).round() as usize];
    Ci {
        lo: rank(0.025),
        hi: rank(0.975),
    }
}

/// Minimal deterministic RNG for the bootstrap (splitmix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        if let (Some(g), Some(ci)) = (s.gmean, s.gmean_ci95_t) {
            v.extend([g.to_bits(), ci.lo.to_bits(), ci.hi.to_bits()]);
        }
        v
    }

    #[test]
    fn basic_moments() {
        let acc = Accumulator::from_pairs([(1, 2.0), (2, 4.0), (3, 6.0)]);
        let s = acc.summary();
        assert_eq!(s.n, 3);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.sd - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        // gmean(2,4,6) = (48)^(1/3)
        assert!((s.gmean.unwrap() - 48f64.powf(1.0 / 3.0)).abs() < 1e-12);
        // t(df=2) = 4.303; half-width = 4.303 * 2 / sqrt(3)
        let half = 4.303 * 2.0 / 3f64.sqrt();
        assert!((s.ci95_t.lo - (4.0 - half)).abs() < 1e-9);
        assert!((s.ci95_t.hi - (4.0 + half)).abs() < 1e-9);
        assert!(s.ci95_t.contains(s.mean));
        assert!(s.ci95_bootstrap.contains(s.mean));
    }

    #[test]
    fn single_sample_collapses_to_point() {
        let s = Accumulator::from_pairs([(9, 1.25)]).summary();
        assert_eq!(s.n, 1);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.ci95_t, Ci { lo: 1.25, hi: 1.25 });
        assert_eq!(s.ci95_bootstrap, Ci { lo: 1.25, hi: 1.25 });
        assert_eq!(s.ci95_t.width(), 0.0);
    }

    #[test]
    fn non_positive_samples_drop_gmean_only() {
        let s = Accumulator::from_pairs([(0, -1.0), (1, 3.0)]).summary();
        assert_eq!(s.gmean, None);
        assert_eq!(s.gmean_ci95_t, None);
        assert!((s.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_union_and_bit_identical() {
        let whole = Accumulator::from_pairs((0..40).map(|i| (i, (i as f64).sin())));
        let mut left = Accumulator::from_pairs((0..17).map(|i| (i, (i as f64).sin())));
        let right = Accumulator::from_pairs((17..40).map(|i| (i, (i as f64).sin())));
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(bits(&left.summary()), bits(&whole.summary()));
    }

    #[test]
    fn duplicate_identical_push_is_idempotent() {
        let mut acc = Accumulator::new();
        acc.push(5, 0.1 + 0.2);
        acc.push(5, 0.1 + 0.2);
        assert_eq!(acc.n(), 1);
    }

    #[test]
    #[should_panic(expected = "re-recorded")]
    fn duplicate_conflicting_push_panics() {
        let mut acc = Accumulator::new();
        acc.push(5, 1.0);
        acc.push(5, 2.0);
    }

    #[test]
    fn t_table_is_monotone_and_bounded() {
        let mut prev = f64::INFINITY;
        for df in 1..400 {
            let t = t_quantile_975(df);
            assert!(t <= prev, "t must not increase with df ({df})");
            assert!(t >= 1.960, "t must stay above the normal limit ({df})");
            prev = t;
        }
        assert_eq!(t_quantile_975(0), 0.0);
    }

    #[test]
    fn bootstrap_is_deterministic_and_ordered() {
        let xs: Vec<f64> = (0..25).map(|i| 1.0 + (i as f64) * 0.01).collect();
        let a = bootstrap_ci(&xs);
        let b = bootstrap_ci(&xs);
        assert_eq!(a, b);
        assert!(a.lo <= a.hi);
        assert!(a.contains(xs.iter().sum::<f64>() / xs.len() as f64));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Accumulator::from_pairs([(1, 1.5), (2, 2.5), (3, 3.5)]).summary();
        let json = serde_json::to_string(&s).unwrap();
        let back: Summary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
