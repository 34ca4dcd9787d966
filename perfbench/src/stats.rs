//! Sample summaries: exact order statistics over recorded samples, and the
//! rule that decides which tail percentile a sample set can back.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie strictly above its rank; otherwise the "p99" of 200 samples would be
//! the second-largest sample, a number that moves with every stray stall.

use pmc_bench::histogram::LatencyHistogram;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: u64 = 10;

/// 1-based rank of the `q`-quantile among `count` samples: `ceil(q * count)`,
/// clamped to `1..=count`. The same rank [`LatencyHistogram::quantile`] uses.
pub fn rank(q: f64, count: u64) -> u64 {
    ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count.max(1))
}

/// Samples strictly beyond the `q`-quantile's rank.
pub fn beyond(q: f64, count: u64) -> u64 {
    count.saturating_sub(rank(q, count))
}

/// Whether `count` samples back the `q`-quantile as a tail percentile.
pub fn backs(q: f64, count: u64) -> bool {
    count > 0 && beyond(q, count) >= MIN_BEYOND
}

/// The highest of `ladder` that `count` samples back, if any.
pub fn highest_backed(ladder: &[f64], count: u64) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&q| backs(q, count))
        .reduce(f64::max)
}

/// The highest of p50, p90 and p99 that `count` samples back, as its
/// metric suffix (`"p99"`), or `"none"`: recorded with every run so a
/// reader can see which reported tails rest on enough samples.
pub fn backed_tail(count: u64) -> String {
    highest_backed(&[0.5, 0.9, 0.99], count)
        .map_or("none".to_string(), |q| format!("p{}", (q * 100.0).round()))
}

/// Exact `q`-quantile (the order statistic at [`rank`]) of unsorted samples.
/// Panics on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(q, sorted.len() as u64) as usize - 1]
}

/// Median of unsorted samples (the lower median for even counts, by the
/// [`rank`] convention).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A histogram quantile in milliseconds (the histograms record µs).
pub fn hist_ms(h: &LatencyHistogram, q: f64) -> f64 {
    h.quantile(q) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_bench::histogram::value_bucket_bounds;

    /// Deterministic pseudo-random samples spanning several octaves.
    fn samples(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                1 + x % (1 << (8 + x % 12))
            })
            .collect()
    }

    /// The oracle: sort, then index the `ceil(q * n)`-th smallest.
    fn oracle(v: &[u64], q: f64) -> u64 {
        let mut s = v.to_vec();
        s.sort_unstable();
        let r = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[r - 1]
    }

    #[test]
    fn exact_quantile_matches_sorted_vector_oracle() {
        for seed in 1..40 {
            let v = samples(seed, 1 + (seed as usize * 37) % 500);
            let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(quantile(&f, q), oracle(&v, q) as f64, "seed {seed} q {q}");
            }
        }
    }

    #[test]
    fn histogram_quantile_is_within_one_bucket_of_the_oracle() {
        for seed in 1..40 {
            let v = samples(seed, 50 + (seed as usize * 53) % 2000);
            let mut h = LatencyHistogram::new();
            v.iter().for_each(|&x| h.record(x));
            for q in [0.5, 0.9, 0.99] {
                let exact = oracle(&v, q);
                let (_, high) = value_bucket_bounds(exact);
                let got = h.quantile(q);
                assert!(
                    exact <= got && got <= high,
                    "seed {seed} q {q}: {exact} vs {got}"
                );
            }
        }
    }

    #[test]
    fn beyond_counts_match_the_sorted_vector() {
        for n in 1..=1200u64 {
            for q in [0.5, 0.9, 0.99] {
                // Samples 1..=n: exactly the values above the rank's value.
                let r = rank(q, n);
                let above = (1..=n).filter(|&x| x > r).count() as u64;
                assert_eq!(beyond(q, n), above, "n {n} q {q}");
            }
        }
    }

    #[test]
    fn tail_selection_needs_ten_samples_beyond() {
        let ladder = [0.5, 0.9, 0.99];
        assert_eq!(highest_backed(&ladder, 0), None);
        assert_eq!(highest_backed(&ladder, 19), None);
        assert_eq!(highest_backed(&ladder, 20), Some(0.5));
        assert_eq!(highest_backed(&ladder, 99), Some(0.5));
        assert_eq!(highest_backed(&ladder, 100), Some(0.9));
        assert_eq!(highest_backed(&ladder, 999), Some(0.9));
        assert_eq!(highest_backed(&ladder, 1000), Some(0.99));
        assert!(!backs(0.99, 999) && backs(0.99, 1000));
        assert_eq!(backed_tail(5), "none");
        assert_eq!(backed_tail(150), "p90");
        assert_eq!(backed_tail(1000), "p99");
    }
}
