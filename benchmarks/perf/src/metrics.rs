//! The metric catalogue: the single source of names, units, directions
//! and regression bounds. `BENCHMARK.json` is rendered from this table
//! (`apan-perf --emit-benchmark-json`) and a unit test holds the two
//! equal.

use crate::workload::WORKLOADS;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Gating end-to-end metrics, reported by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("infer_p50_ms", "ms", Lower, 0.25),
    e2e("scored_eps", "events/s", Higher, 0.25),
    e2e("settled_eps", "events/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Non-gating per-layer metrics, reported by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    // end-to-end metrics by nature, demoted because their A/A spread on
    // the 2-vCPU reference machine (infer_p99_ms 20-100 %,
    // prop_lag_mean_ms 10-30 %) cannot hold a 25 % bound
    layer("infer_p99_ms", "ms", Lower),
    layer("prop_lag_mean_ms", "ms", Lower),
    layer("tensor.gemm_enc_us", "us", Lower),
    layer("tgraph.insert_us_per_event", "us", Lower),
    layer("tgraph.sample_us_per_event", "us", Lower),
    layer("tgraph.sample_rows_touched_per_event", "count", Lower),
    layer("core.shard.read_us_per_batch", "us", Lower),
    layer("core.shard.write_us_per_batch", "us", Lower),
    layer("core.shard.deliver_us_per_mail", "us", Lower),
    layer("core.mailbox.patch_late_us_per_mail", "us", Lower),
    layer("core.tier.hit_ratio", "ratio", Higher),
    layer("core.tier.evictions_per_kevent", "count", Lower),
    layer("core.tier.promotions_per_kevent", "count", Lower),
    layer("core.tier.cold_read_us", "us", Lower),
    layer("core.tier.cold_bytes", "bytes", Lower),
    layer("core.tier.settled_ratio", "ratio", Higher),
    layer("core.model.encode_us_per_batch", "us", Lower),
    layer("core.pipeline.sync_us_per_batch", "us", Lower),
    layer("core.pipeline.scored_eps", "events/s", Higher),
    layer("core.pipeline.settled_eps", "events/s", Higher),
    layer("core.wire.job_codec_us_per_job", "us", Lower),
    layer("core.wire.job_bytes_per_event", "bytes", Lower),
    layer("core.propagator.plan_us_per_batch", "us", Lower),
    layer("core.propagator.apply_us_per_batch", "us", Lower),
    layer("core.propagator.deliveries_per_event", "count", Lower),
    layer("core.stage.encode_us", "us", Lower),
    layer("core.stage.decode_score_us", "us", Lower),
    layer("core.stage.commit_us", "us", Lower),
    layer("core.stage.plan_us", "us", Lower),
    layer("core.stage.deliver_us", "us", Lower),
    layer("serve.proto.codec_us_per_req", "us", Lower),
    layer("serve.proto.bytes_per_req", "bytes", Lower),
    layer("serve.batcher.submit_drain_us_per_req", "us", Lower),
    layer("serve.batcher.mean_batch", "count", Higher),
    layer("serve.batcher.batch_wait_us", "us", Lower),
    layer("serve.batcher.shed_ratio", "ratio", Lower),
    layer("serve.batcher.late_admitted_per_kevent", "count", Lower),
    layer("serve.batcher.late_dropped_per_kevent", "count", Lower),
    layer("serve.stage.admit_us", "us", Lower),
    layer("serve.server.ping_rtt_us", "us", Lower),
    layer("serve.server.residual_us", "us", Lower),
    layer("serve.server.prop_pending_max", "count", Lower),
    layer("serve.server.knee_rps", "1/s", Higher),
    layer("serve.snapshot.write_ms", "ms", Lower),
    layer("serve.snapshot.bytes", "bytes", Lower),
    layer("serve.cluster_link.forward_us", "us", Lower),
    layer("serve.cluster_link.barrier_flush_ms", "ms", Lower),
    layer("cluster.gateway.ping_rtt_us", "us", Lower),
    layer("cluster.gateway.route_us", "us", Lower),
    layer("cluster.gateway.transport_us", "us", Lower),
    layer("cluster.write_amplification", "ratio", Lower),
    layer("metrics.trace_overhead_pct", "%", Lower),
    layer("metrics.scrape_ms", "ms", Lower),
    layer("gen.lag_p99_ms", "ms", Lower),
];

/// Per-layer counts that must repeat exactly for a given seed.
pub const EXACT: &[&str] = &[
    "tgraph.sample_rows_touched_per_event",
    "core.tier.evictions_per_kevent",
    "core.tier.promotions_per_kevent",
    "core.wire.job_bytes_per_event",
    "core.propagator.deliveries_per_event",
    "serve.proto.bytes_per_req",
    "serve.batcher.late_admitted_per_kevent",
    "serve.batcher.late_dropped_per_kevent",
    "cluster.write_amplification",
];

/// One measured value and how many samples stand behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: u64,
}

/// The values one run reports, checked against a catalogue slice.
#[derive(Debug, Default)]
pub struct Report(BTreeMap<&'static str, Measured>);

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.0.insert(name, Measured { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.get(name).copied()
    }

    /// Every metric of `defs`, in catalogue order. A metric that does
    /// not apply to the workload reads 0 with no samples.
    ///
    /// # Panics
    /// Panics if a value was set under a name `defs` does not list —
    /// that is a typo in the harness, not a measurement.
    pub fn rows(&self, defs: &'static [MetricDef]) -> Vec<(MetricDef, Measured)> {
        for name in self.0.keys() {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name} is not in the catalogue"
            );
        }
        defs.iter()
            .map(|d| {
                let m = self.get(d.name).unwrap_or(Measured {
                    value: 0.0,
                    samples: 0,
                });
                (*d, m)
            })
            .collect()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, rendered from the catalogue and the workload table.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let metric = |d: &MetricDef| {
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_str(d.name),
            json_str(d.unit),
            json_str(d.better.as_str())
        )
    };
    let list = |defs: &[MetricDef]| defs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmarks/perf/run.sh\"],\n  \"paths\": [\"benchmarks/perf\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(END_TO_END),
        list(PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `apan-perf --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn catalogue_respects_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{}", d.unit);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name));
            assert!(seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|d| d.name == *name), "{name}");
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn report_fills_unset_metrics_with_zero_and_rejects_unknown_names() {
        let mut r = Report::default();
        r.set("setup_s", 1.5, 3);
        let rows = r.rows(END_TO_END);
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(
            rows[0].1,
            Measured {
                value: 1.5,
                samples: 3
            }
        );
        assert_eq!(rows[1].1.samples, 0);
        let mut bad = Report::default();
        bad.set("no.such.metric", 1.0, 1);
        assert!(std::panic::catch_unwind(|| bad.rows(END_TO_END)).is_err());
    }
}
