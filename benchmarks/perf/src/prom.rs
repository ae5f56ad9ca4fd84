//! Reading the daemon's Prometheus text exposition (`METRICS` verb).
//!
//! A single daemon answers with one exposition; the gateway answers
//! with one section per shard, each introduced by a
//! `# apan-gateway: shard <i> <addr>` comment line.

use std::collections::BTreeMap;

/// Unlabelled samples of one scrape, per section (one section for a
/// single daemon, one per shard behind a gateway).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scrape {
    sections: Vec<BTreeMap<String, f64>>,
}

impl Scrape {
    pub fn parse(text: &str) -> Self {
        let mut sections: Vec<BTreeMap<String, f64>> = Vec::new();
        for line in text.lines() {
            if line.starts_with("# apan-gateway: shard ") {
                sections.push(BTreeMap::new());
                continue;
            }
            // labelled series (`_bucket{le=..}`, exemplars) are not needed
            if line.starts_with('#') || line.contains('{') {
                continue;
            }
            let Some((name, value)) = line.split_once(' ') else {
                continue;
            };
            let Ok(value) = value.trim().parse::<f64>() else {
                continue;
            };
            if sections.is_empty() {
                sections.push(BTreeMap::new());
            }
            sections
                .last_mut()
                .expect("pushed above")
                .insert(name.to_string(), value);
        }
        Self { sections }
    }

    #[cfg(test)]
    pub fn sections(&self) -> usize {
        self.sections.len()
    }

    /// The sample's value in each section (0 where absent).
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.sections
            .iter()
            .map(|s| s.get(name).copied().unwrap_or(0.0))
            .collect()
    }

    /// Sum of the sample over sections.
    pub fn total(&self, name: &str) -> f64 {
        self.values(name).iter().sum()
    }
}

/// Mean of histogram `hist` between two scrapes, in the histogram's own
/// unit: Δ`_sum` ÷ Δ`_count` per section, averaged over the sections
/// that recorded anything. 0 when nothing was recorded.
pub fn delta_mean(before: &Scrape, after: &Scrape, hist: &str) -> f64 {
    let (sum, count) = (format!("{hist}_sum"), format!("{hist}_count"));
    let d = |name: &str| -> Vec<f64> {
        let b = before.values(name);
        after
            .values(name)
            .iter()
            .enumerate()
            .map(|(i, a)| a - b.get(i).copied().unwrap_or(0.0))
            .collect()
    };
    let means: Vec<f64> = d(&sum)
        .iter()
        .zip(d(&count))
        .filter(|(_, c)| *c > 0.0)
        .map(|(s, c)| s / c)
        .collect();
    crate::stats::mean(&means)
}

/// Δ of a counter between two scrapes, summed over sections.
pub fn delta_total(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.total(name) - before.total(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a live `apand` METRICS reply (buckets trimmed).
    const SINGLE_BEFORE: &str = "\
# HELP apan_requests_total Requests served (excluding shed)
# TYPE apan_requests_total counter
apan_requests_total 100
# HELP apan_queue_depth Inference requests currently queued
# TYPE apan_queue_depth gauge
apan_queue_depth 0
# HELP apan_prop_lag_seconds Mail age (admission to mailbox commit) on the asynchronous link
# TYPE apan_prop_lag_seconds histogram
apan_prop_lag_seconds_bucket{le=\"0.000524288\"} 40
apan_prop_lag_seconds_bucket{le=\"+Inf\"} 1000
apan_prop_lag_seconds_sum 0.5
apan_prop_lag_seconds_count 1000
# HELP apan_service_seconds_exemplar Trace id of the most recent tagged sample per bucket
# TYPE apan_service_seconds_exemplar gauge
apan_service_seconds_exemplar{le=\"0.001\"} 77
";
    const SINGLE_AFTER: &str = "\
apan_requests_total 300
apan_queue_depth 2
apan_prop_lag_seconds_bucket{le=\"+Inf\"} 3000
apan_prop_lag_seconds_sum 2.5
apan_prop_lag_seconds_count 3000
";

    #[test]
    fn parses_counters_gauges_and_histogram_totals() {
        let s = Scrape::parse(SINGLE_BEFORE);
        assert_eq!(s.sections(), 1);
        assert_eq!(s.total("apan_requests_total"), 100.0);
        assert_eq!(s.total("apan_prop_lag_seconds_sum"), 0.5);
        assert_eq!(s.total("apan_prop_lag_seconds_count"), 1000.0);
        // labelled lines never leak in as samples
        assert_eq!(s.total("apan_service_seconds_exemplar"), 0.0);
        assert_eq!(s.total("missing"), 0.0);
    }

    #[test]
    fn delta_mean_is_dsum_over_dcount() {
        let (b, a) = (Scrape::parse(SINGLE_BEFORE), Scrape::parse(SINGLE_AFTER));
        // (2.5 - 0.5) / (3000 - 1000)
        assert_eq!(delta_mean(&b, &a, "apan_prop_lag_seconds"), 0.001);
        assert_eq!(delta_total(&b, &a, "apan_requests_total"), 200.0);
        // nothing recorded in between -> 0, not NaN
        assert_eq!(delta_mean(&a, &a, "apan_prop_lag_seconds"), 0.0);
    }

    #[test]
    fn gateway_sections_are_kept_apart_and_averaged() {
        let before = "\
# apan-gateway: shard 0 127.0.0.1:4000
apan_prop_deliveries_total 10
apan_prop_lag_seconds_sum 1
apan_prop_lag_seconds_count 10
# apan-gateway: shard 1 127.0.0.1:4001
apan_prop_deliveries_total 20
apan_prop_lag_seconds_sum 2
apan_prop_lag_seconds_count 10
# apan-gateway: shard 2 127.0.0.1:4002 unavailable
";
        let after = "\
# apan-gateway: shard 0 127.0.0.1:4000
apan_prop_deliveries_total 110
apan_prop_lag_seconds_sum 3
apan_prop_lag_seconds_count 20
# apan-gateway: shard 1 127.0.0.1:4001
apan_prop_deliveries_total 220
apan_prop_lag_seconds_sum 6
apan_prop_lag_seconds_count 20
# apan-gateway: shard 2 127.0.0.1:4002
apan_prop_deliveries_total 5
apan_prop_lag_seconds_sum 0
apan_prop_lag_seconds_count 0
";
        let (b, a) = (Scrape::parse(before), Scrape::parse(after));
        assert_eq!(b.sections(), 3);
        assert_eq!(
            a.values("apan_prop_deliveries_total"),
            vec![110.0, 220.0, 5.0]
        );
        assert_eq!(delta_total(&b, &a, "apan_prop_deliveries_total"), 305.0);
        // shard 0: 2/10, shard 1: 4/10, shard 2 recorded nothing -> mean 0.3
        let m = delta_mean(&b, &a, "apan_prop_lag_seconds");
        assert!((m - 0.3).abs() < 1e-12, "{m}");
    }
}
