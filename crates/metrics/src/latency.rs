//! Latency sample collection and percentile reporting.

use std::time::Duration;

/// Collects latency samples (e.g. one per inference batch) and reports
/// mean / percentiles, as needed for the Figure 6 reproduction.
///
/// A recorder made with [`LatencyRecorder::new`] keeps every sample —
/// right for bounded bench runs that want exact lifetime percentiles. A
/// recorder made with [`LatencyRecorder::bounded`] retains only the most
/// recent `cap` samples in a ring, so a long-running serving daemon's
/// stats memory and percentile-sort cost stay constant no matter how
/// many requests it has served; percentiles then describe the retained
/// window while [`LatencyRecorder::len`] still counts everything seen.
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    samples_ns: Vec<u64>,
    /// Ring capacity; 0 keeps every sample.
    cap: usize,
    /// Ring write cursor (bounded mode only).
    next: usize,
    /// Total samples ever recorded (≥ retained count in bounded mode).
    seen: u64,
}

impl LatencyRecorder {
    /// Creates an empty recorder that keeps every sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a recorder that retains only the last `cap` samples.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub fn bounded(cap: usize) -> Self {
        assert!(cap > 0, "bounded recorder needs a positive capacity");
        Self {
            samples_ns: Vec::new(),
            cap,
            next: 0,
            seen: 0,
        }
    }

    /// Records one sample, evicting the oldest retained sample once a
    /// bounded recorder is full.
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.seen += 1;
        if self.cap > 0 && self.samples_ns.len() == self.cap {
            self.samples_ns[self.next] = ns;
            self.next = (self.next + 1) % self.cap;
        } else {
            self.samples_ns.push(ns);
        }
    }

    /// Total number of samples recorded (a bounded recorder may retain
    /// fewer than this for its percentiles).
    pub fn len(&self) -> usize {
        self.seen as usize
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// Mean latency over the retained samples (zero if empty).
    pub fn mean(&self) -> Duration {
        if self.samples_ns.is_empty() {
            return Duration::ZERO;
        }
        let sum: u128 = self.samples_ns.iter().map(|&n| n as u128).sum();
        Duration::from_nanos((sum / self.samples_ns.len() as u128) as u64)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank over the retained
    /// samples; zero if empty.
    pub fn quantile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples_ns.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        Duration::from_nanos(sorted[rank])
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        self.quantile(0.5)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th-percentile latency — the tail a serving SLO is written
    /// against.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// Worst sample seen (zero if empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.samples_ns.iter().copied().max().unwrap_or(0))
    }

    /// Mean latency in fractional milliseconds (the unit of Figure 6).
    pub fn mean_ms(&self) -> f64 {
        self.mean().as_secs_f64() * 1e3
    }

    /// One-shot percentile summary: sorts once instead of once per
    /// quantile, so it is safe to call on hot stats endpoints.
    pub fn summary(&self) -> LatencySummary {
        if self.samples_ns.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        let q = |q: f64| -> f64 {
            let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
            sorted[rank] as f64 / 1e6
        };
        LatencySummary {
            count: self.seen as usize,
            mean_ms: self.mean_ms(),
            p50_ms: q(0.5),
            p95_ms: q(0.95),
            p99_ms: q(0.99),
            max_ms: *sorted.last().unwrap() as f64 / 1e6,
        }
    }
}

/// Point-in-time percentile summary of a [`LatencyRecorder`], in
/// fractional milliseconds. The serving daemon's `STATS` verb ships it
/// via [`LatencySummary::to_json`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Total samples recorded (a bounded recorder's percentiles describe
    /// only its retained window).
    pub count: usize,
    /// Mean latency.
    pub mean_ms: f64,
    /// Median latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Worst sample.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Renders the summary as a JSON object. Hand-rolled (field order is
    /// part of the wire contract) so it needs no serializer at runtime.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean_ms\":{:.6},\"p50_ms\":{:.6},\"p95_ms\":{:.6},\"p99_ms\":{:.6},\"max_ms\":{:.6}}}",
            self.count, self.mean_ms, self.p50_ms, self.p95_ms, self.p99_ms, self.max_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_quantiles() {
        let mut r = LatencyRecorder::new();
        for ms in [1u64, 2, 3, 4, 100] {
            r.record(Duration::from_millis(ms));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.mean(), Duration::from_millis(22));
        assert_eq!(r.p50(), Duration::from_millis(3));
        assert_eq!(r.p95(), Duration::from_millis(100));
        assert!((r.mean_ms() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn empty_recorder_is_zero() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.mean(), Duration::ZERO);
        assert_eq!(r.p50(), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_range_checked() {
        let mut r = LatencyRecorder::new();
        r.record(Duration::from_millis(1));
        let _ = r.quantile(1.5);
    }

    #[test]
    fn tail_percentiles_and_max() {
        let mut r = LatencyRecorder::new();
        for ms in 1..=100u64 {
            r.record(Duration::from_millis(ms));
        }
        assert_eq!(r.p99(), Duration::from_millis(99));
        assert_eq!(r.max(), Duration::from_millis(100));
        assert_eq!(LatencyRecorder::new().max(), Duration::ZERO);
    }

    #[test]
    fn summary_matches_individual_accessors() {
        let mut r = LatencyRecorder::new();
        for ms in [1u64, 2, 3, 4, 100] {
            r.record(Duration::from_millis(ms));
        }
        let s = r.summary();
        assert_eq!(s.count, 5);
        assert!((s.mean_ms - r.mean_ms()).abs() < 1e-9);
        assert!((s.p50_ms - 3.0).abs() < 1e-9);
        assert!((s.p95_ms - 100.0).abs() < 1e-9);
        assert!((s.p99_ms - 100.0).abs() < 1e-9);
        assert!((s.max_ms - 100.0).abs() < 1e-9);
    }

    #[test]
    fn bounded_recorder_retains_a_sliding_window() {
        let mut r = LatencyRecorder::bounded(4);
        for ms in 1..=10u64 {
            r.record(Duration::from_millis(ms));
        }
        // counts report everything seen, percentiles the last 4 samples
        assert_eq!(r.len(), 10);
        assert_eq!(r.quantile(0.0), Duration::from_millis(7));
        assert_eq!(r.p50(), Duration::from_millis(9));
        assert_eq!(r.max(), Duration::from_millis(10));
        assert_eq!(r.mean(), Duration::from_micros(8500));
        let s = r.summary();
        assert_eq!(s.count, 10);
        assert!((s.max_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn bounded_recorder_memory_is_constant() {
        let mut r = LatencyRecorder::bounded(16);
        for _ in 0..100_000 {
            r.record(Duration::from_millis(1));
        }
        assert_eq!(r.len(), 100_000);
        assert_eq!(r.samples_ns.len(), 16);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn bounded_zero_capacity_rejected() {
        let _ = LatencyRecorder::bounded(0);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = LatencyRecorder::new().summary();
        assert_eq!(s, LatencySummary::default());
    }

    #[test]
    fn summary_json_has_wire_fields() {
        let mut r = LatencyRecorder::new();
        r.record(Duration::from_millis(2));
        let json = r.summary().to_json();
        for key in ["count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"] {
            assert!(
                json.contains(&format!("\"{key}\":")),
                "missing {key} in {json}"
            );
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
