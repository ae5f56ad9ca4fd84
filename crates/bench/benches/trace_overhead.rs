//! Tracing overhead: the observability layer's "free when dormant"
//! claim, measured.
//!
//! The tentpole contract is that stage spans cost well under 100 ns per
//! recorded event, and that the *dormant* instrumented hot path (trace
//! code compiled in, no sink installed) is indistinguishable from a
//! build with the tracing layer compiled out (`--features trace-off`).
//! This bench produces the evidence:
//!
//! * **per-event cost** — one `stage_record` against a live ring sink,
//!   and one dormant `stamp()`;
//! * **hot-path cost** — `ServingPipeline::infer_batch` per request,
//!   with and without a sink installed, propagation flushed every
//!   iteration so both arms pay identical asynchronous work.
//!
//! `BENCH_trace.json` carries the numbers plus a `trace_compiled` flag,
//! so the same bench built with `--features trace-off` writes the true
//! uninstrumented baseline under a different `APAN_OUT` directory; the
//! obs smoke script compares the two files and holds the dormant path
//! to within 2% of that baseline.

use apan_bench::{json_fields, time_ns, write_json, BenchEnv, Json, ToJson};
use apan_core::config::ApanConfig;
use apan_core::model::Apan;
use apan_core::pipeline::ServingPipeline;
use apan_core::propagator::Interaction;
use apan_core::AdmitKind;
use apan_metrics::{ObsHub, Stage, TraceSink};
use apan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

const DIM: usize = 32;
const BATCH: usize = 8;
const NODES: usize = 512;
/// Every benchmark event is admitted in order.
const IN_ORDER: [AdmitKind; BATCH] = [AdmitKind::InOrder; BATCH];

fn pipeline() -> ServingPipeline {
    let mut cfg = ApanConfig::new(DIM);
    cfg.mailbox_slots = 10;
    cfg.dropout = 0.0;
    let mut rng = StdRng::seed_from_u64(7);
    ServingPipeline::new(Apan::new(&cfg, &mut rng), NODES, 64)
}

/// Deterministic request `k`: BATCH interactions at strictly increasing
/// times with fixed features — same mix as the serving benches.
fn request(k: u64) -> (Vec<Interaction>, Tensor) {
    let interactions: Vec<Interaction> = (0..BATCH as u64)
        .map(|j| Interaction {
            src: ((k * 31 + j * 7) % NODES as u64) as u32,
            dst: ((k * 17 + j * 13) % NODES as u64) as u32,
            time: (k * BATCH as u64 + j) as f64,
            eid: (k * BATCH as u64 + j) as u32,
        })
        .collect();
    let data: Vec<f32> = (0..BATCH * DIM)
        .map(|i| ((k as usize * 131 + i * 29) % 1000) as f32 / 1000.0 - 0.5)
        .collect();
    (interactions, Tensor::from_vec(BATCH, DIM, data))
}

/// Drives `iters` inference requests through a fresh pipeline, flushing
/// propagation every iteration, and returns ns per request. The figure
/// is the **minimum** over `repeats` back-to-back timings: scheduler
/// and cache interference only ever add time, so the min is the stable
/// estimator a percent-level comparison between two separate processes
/// needs (a single 300-iteration shot swings tens of percent on a
/// shared runner, drowning the 2% dormant-overhead budget in noise).
fn infer_ns(iters: usize, repeats: usize, sink: Option<usize>) -> f64 {
    let mut p = pipeline();
    if let Some(cap) = sink {
        p.obs().install_sink(TraceSink::new(cap));
    }
    let mut k = 0u64;
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let ns = time_ns(iters, || {
            let (interactions, feats) = request(k);
            k += 1;
            black_box(p.infer_batch_admitted(&interactions, &feats, &IN_ORDER, k, None));
            p.flush();
        });
        best = best.min(ns);
    }
    best
}

struct TraceReport {
    bench: &'static str,
    /// `false` in a `--features trace-off` build: this report is then
    /// the uninstrumented baseline the smoke script compares against.
    trace_compiled: bool,
    batch: usize,
    dim: usize,
    ns_per_event_record: f64,
    ns_per_dormant_stamp: f64,
    ns_per_infer_no_sink: f64,
    ns_per_infer_with_sink: f64,
    /// Live-sink cost relative to the dormant path, in percent.
    sink_overhead_pct: f64,
}

impl ToJson for TraceReport {
    fn to_json(&self) -> Json {
        json_fields!(self; bench, trace_compiled, batch, dim, ns_per_event_record,
            ns_per_dormant_stamp, ns_per_infer_no_sink, ns_per_infer_with_sink,
            sink_overhead_pct)
    }
}

fn write_report() {
    let trace_compiled = !cfg!(feature = "trace-off");

    // per-event: one span recorded against a live ring sink
    let hub = ObsHub::new();
    hub.install_sink(TraceSink::new(1 << 16));
    let t0 = hub.stamp();
    let t1 = hub.stamp();
    let ns_event = time_ns(200_000, || {
        hub.stage_record(Stage::Encode, black_box(42), t0, t1);
    });
    if trace_compiled {
        let seen = hub.drain_events().len() as u64 + hub.dropped_events();
        assert!(seen > 0, "live sink recorded nothing");
        assert!(
            ns_event < 1000.0,
            "span recording costs {ns_event:.0} ns/event — an order past the <100ns budget"
        );
    } else {
        assert!(
            hub.drain_events().is_empty() && hub.dropped_events() == 0,
            "trace-off build must record nothing"
        );
    }

    // dormant stamp: what every instrumented call site pays with no sink
    let dormant = ObsHub::new();
    let ns_stamp = time_ns(200_000, || {
        black_box(dormant.stamp());
    });
    if !trace_compiled {
        assert_eq!(
            dormant.stamp(),
            Duration::ZERO,
            "trace-off stamp must be a no-op"
        );
    }

    // hot path: identical request streams, sink absent vs present
    let (iters, repeats) = (200, 30);
    let ns_no_sink = infer_ns(iters, repeats, None);
    let ns_with_sink = infer_ns(iters, repeats, Some(1 << 14));

    let report = TraceReport {
        bench: "trace_overhead",
        trace_compiled,
        batch: BATCH,
        dim: DIM,
        ns_per_event_record: ns_event,
        ns_per_dormant_stamp: ns_stamp,
        ns_per_infer_no_sink: ns_no_sink,
        ns_per_infer_with_sink: ns_with_sink,
        sink_overhead_pct: (ns_with_sink - ns_no_sink) / ns_no_sink * 100.0,
    };
    let path = BenchEnv::from_env().out_dir.join("BENCH_trace.json");
    if let Err(e) = write_json(&path, &report) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

fn main() {
    write_report();
}
