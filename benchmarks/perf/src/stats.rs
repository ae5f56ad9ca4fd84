//! Order statistics and the score checksum.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the sample at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile_sorted`] of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// Median as the mean of the two middle elements for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The p-th percentile taken per window and then the median over
/// windows: one noisy-neighbour burst spoils one window, not the metric.
/// `samples` are in arrival order and are cut into `windows` equal
/// consecutive chunks (the last takes the remainder).
pub fn median_of_window_percentiles(samples: &[f64], windows: usize, p: f64) -> f64 {
    assert!(windows >= 1 && samples.len() >= windows);
    let per = samples.len() / windows;
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * per
            };
            percentile(&samples[w * per..end], p)
        })
        .collect();
    median(&per_window)
}

/// Completions per second over each of `windows` consecutive runs of
/// equally many completions, from ascending completion times in seconds
/// since the phase began.
pub fn window_rates(completed_at: &[f64], windows: usize) -> Vec<f64> {
    let per = completed_at.len() / windows;
    (0..windows)
        .filter(|_| per > 0)
        .map(|w| {
            let from = if w == 0 {
                0.0
            } else {
                completed_at[w * per - 1]
            };
            per as f64 / (completed_at[(w + 1) * per - 1] - from)
        })
        .collect()
}

/// How many p99 windows a sample supports: ten, unless that would leave
/// fewer than 1 000 samples per window.
pub fn p99_windows(samples: usize) -> usize {
    (samples / 1000).clamp(1, 10)
}

/// FNV-1a-64 over the bit patterns of served scores, in serve order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScoreHash(pub u64);

impl Default for ScoreHash {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl ScoreHash {
    pub fn push(&mut self, scores: &[f32]) {
        for s in scores {
            for b in s.to_bits().to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_sorted_references() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        // unsorted input, odd length
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 99th of 1000 is the 990th smallest
        let big: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), 989.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        // five windows of 100 samples at value w; window 2 has a burst
        let mut samples = Vec::new();
        for w in 0..5 {
            for i in 0..100 {
                let burst = w == 2 && i >= 90;
                samples.push(if burst { 1000.0 } else { 10.0 + f64::from(w) });
            }
        }
        // per-window p99: 10, 11, 1000, 13, 14 -> median 13
        assert_eq!(median_of_window_percentiles(&samples, 5, 99.0), 13.0);
        // whole-sample p99 would have seen the burst
        assert_eq!(percentile(&samples, 99.0), 1000.0);
    }

    #[test]
    fn window_rates_divide_equal_counts_by_their_time() {
        // 4 completions by t=1, the next 4 by t=3
        let at = [0.1, 0.2, 0.3, 1.0, 1.5, 2.0, 2.5, 3.0, 9.0];
        assert_eq!(window_rates(&at, 2), vec![4.0, 2.0]);
        assert_eq!(window_rates(&at[..4], 1), vec![4.0]);
        assert!(window_rates(&at[..1], 2).is_empty());
    }

    #[test]
    fn window_count_keeps_a_thousand_samples_each() {
        assert_eq!(p99_windows(500), 1);
        assert_eq!(p99_windows(2400), 2);
        assert_eq!(p99_windows(10_000), 10);
        assert_eq!(p99_windows(1_000_000), 10);
    }

    #[test]
    fn score_hash_is_order_sensitive_and_matches_fnv() {
        let mut a = ScoreHash::default();
        a.push(&[0.25, 0.5]);
        let mut b = ScoreHash::default();
        b.push(&[0.5, 0.25]);
        assert_ne!(a, b);
        // FNV-1a of the empty string is the offset basis
        assert_eq!(ScoreHash::default().0, 0xcbf29ce484222325);
        // one zero score = four zero bytes
        let mut z = ScoreHash::default();
        z.push(&[0.0]);
        let mut want = 0xcbf29ce484222325u64;
        for _ in 0..4 {
            want = want.wrapping_mul(0x100000001b3);
        }
        assert_eq!(z.0, want);
    }
}
