//! Property-based tests for the log₂ trace [`Histogram`]: its quantile
//! estimates against the exact [`LatencyRecorder`] on identical sample
//! streams, and the exact-count invariant under concurrent recording.

use apan_check::{check, Gen};
use apan_metrics::{Histogram, LatencyRecorder};
use std::sync::Arc;
use std::time::Duration;

fn sample_stream(g: &mut Gen) -> Vec<u64> {
    // spread over many orders of magnitude so every bucket regime is hit
    g.vec(1..200, |g| match g.range(0u8..4) {
        0 => g.range(0u64..16),
        1 => g.range(16u64..4096),
        2 => g.range(4096u64..1 << 20),
        _ => g.range((1u64 << 20)..1 << 44),
    })
}

/// The histogram's nearest-rank quantile estimate lands in the same
/// log₂ bucket as the exact recorder's quantile over the identical
/// stream — an error of at most one bucket width.
#[test]
fn quantile_matches_exact_recorder_within_one_bucket() {
    check(128, |g| {
        let q = g.range(0.0f64..=1.0);
        let samples = sample_stream(g);
        let hist = Histogram::new();
        let mut exact = LatencyRecorder::new();
        for &s in &samples {
            hist.record(s);
            exact.record(Duration::from_nanos(s));
        }
        let est = hist.quantile(q);
        let truth = exact.quantile(q).as_nanos() as u64;
        // both select the same rank over the same stream, so the exact
        // value must live in the bucket whose bound the estimate is
        assert_eq!(
            Histogram::bucket_index(est),
            Histogram::bucket_index(truth),
            "q={q} est={est} truth={truth}"
        );
        assert!(est >= truth, "bucket upper bound bounds the exact value");
    });
}

/// N threads hammering one histogram lose nothing: the bucket totals,
/// count, and sum are exactly what a serial recording would produce.
#[test]
fn concurrent_recording_preserves_exact_counts() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let hist = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..THREADS as u64)
        .map(|t| {
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || {
                // splitmix-style per-thread stream, deterministic
                let mut x = t.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
                let mut sum = 0u64;
                for _ in 0..PER_THREAD {
                    x ^= x >> 30;
                    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
                    let v = x % (1 << 40);
                    hist.record(v);
                    sum += v;
                }
                sum
            })
        })
        .collect();
    let expected_sum: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(hist.count(), THREADS as u64 * PER_THREAD);
    assert_eq!(hist.sum(), expected_sum);
    assert_eq!(hist.snapshot().count(), THREADS as u64 * PER_THREAD);
}
