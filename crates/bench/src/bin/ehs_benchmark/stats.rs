//! Order statistics for timing samples: median, quartiles and the
//! nearest-rank tail percentile.

/// Median and quartiles of a sample set, plus its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median and quartiles. Quartiles use the "exclusive" method of
/// Python's `statistics.quantiles(xs, n=4)`, so they agree with a
/// reader recomputing them from the raw samples.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let xs = sorted(samples);
    let n = xs.len();
    let median = if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    };
    let (q1, q3) = if n < 2 {
        (xs[0], xs[0])
    } else {
        (exclusive_quartile(&xs, 1), exclusive_quartile(&xs, 3))
    };
    Summary { median, q1, q3, n }
}

/// Python's exclusive-method cut point `i` of 4 over sorted `xs`
/// (`len >= 2`), in exact integer index arithmetic.
fn exclusive_quartile(xs: &[f64], i: usize) -> f64 {
    let (ld, parts) = (xs.len(), 4usize);
    let m = ld + 1;
    let j = (i * m / parts).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * parts) as f64;
    (xs[j - 1] * (parts as f64 - delta) + xs[j] * delta) / parts as f64
}

/// Nearest-rank `p`-th percentile: the smallest sample with at least
/// `p` % of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample set or `p` outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    let xs = sorted(samples);
    xs[rank(xs.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// The tail percentile reported next to a median: p98 when at least ten
/// samples lie beyond it (500 samples or more), else the highest lower
/// percentile that still has ten samples beyond it. `None` when not even
/// the median has ten samples beyond it (fewer than 20 samples).
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    (50..=98)
        .rev()
        .find(|&p| n - rank(n, p) >= 10)
        .map(|p| (p, percentile(samples, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.q3), (1.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 98), 98.0);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let big: Vec<f64> = (1..=800).map(f64::from).collect();
        assert_eq!(tail(&big), Some((98, 784.0)), "800 samples: p98, 16 beyond");
        let at_500: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&at_500), Some((98, 490.0)));
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&small), Some((90, 90.0)), "100 samples: p90");
        let tiny: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&tiny), None, "not even the median has ten beyond it");
        for n in 20..600 {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (p, v) = tail(&xs).expect("twenty or more samples");
            assert!(n - v as usize >= 10, "n={n} p={p}");
            assert!(
                p == 98 || n - rank(n, p + 1) < 10,
                "n={n}: p{} also qualifies",
                p + 1
            );
        }
    }
}
