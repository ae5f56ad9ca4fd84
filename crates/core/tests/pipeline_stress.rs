//! Concurrency stress tests for the serving pipeline: sustained load,
//! backpressure, interleaved reads, and clean teardown.

use apan_core::config::ApanConfig;
use apan_core::model::Apan;
use apan_core::pipeline::ServingPipeline;
use apan_core::propagator::Interaction;
use apan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn model(dim: usize) -> Apan {
    let mut cfg = ApanConfig::new(dim);
    cfg.mailbox_slots = 4;
    cfg.mlp_hidden = 16;
    cfg.dropout = 0.0;
    let mut rng = StdRng::seed_from_u64(0);
    Apan::new(&cfg, &mut rng)
}

fn random_batch(
    rng: &mut StdRng,
    num_nodes: u32,
    t0: f64,
    len: usize,
    eid0: u32,
) -> (Vec<Interaction>, Tensor) {
    let mut interactions = Vec::with_capacity(len);
    for i in 0..len {
        let src = rng.gen_range(0..num_nodes);
        let mut dst = rng.gen_range(0..num_nodes);
        if dst == src {
            dst = (dst + 1) % num_nodes;
        }
        interactions.push(Interaction {
            src,
            dst,
            time: t0 + i as f64 * 0.01,
            eid: eid0 + i as u32,
        });
    }
    let feats = Tensor::randn(len, 8, 0.5, rng);
    (interactions, feats)
}

#[test]
fn sustained_load_hundreds_of_batches() {
    let mut pipeline = ServingPipeline::new(model(8), 64, 8); // small queue → backpressure
    let mut rng = StdRng::seed_from_u64(1);
    let mut eid = 0u32;
    for k in 0..200 {
        let (batch, feats) = random_batch(&mut rng, 64, k as f64, 20, eid);
        eid += 20;
        let r = pipeline.infer_batch(&batch, &feats);
        assert_eq!(r.scores.len(), 20);
        assert!(r.scores.iter().all(|s| s.is_finite()));
    }
    let stats = pipeline.shutdown();
    assert_eq!(stats.jobs, 200);
    assert!(stats.deliveries > 0);
    assert!(stats.cost.queries > 0);
}

#[test]
fn state_visible_after_flush() {
    let mut pipeline = ServingPipeline::new(model(8), 16, 4);
    let mut rng = StdRng::seed_from_u64(2);
    let (batch, feats) = random_batch(&mut rng, 16, 0.0, 10, 0);
    pipeline.infer_batch(&batch, &feats);
    pipeline.flush();
    let store = pipeline.store();
    let s = store.sync_view();
    // every endpoint received at least its own interaction's mail
    for i in &batch {
        assert!(!s.is_empty(i.src) || !s.is_empty(i.dst));
    }
    drop(s);
    let graph = pipeline.graph();
    assert_eq!(graph.read().unwrap().num_events(), 10);
}

#[test]
fn growing_node_space_is_handled() {
    // nodes appear beyond the pre-sized store; the pipeline must grow
    let mut pipeline = ServingPipeline::new(model(8), 4, 8);
    let batch = vec![Interaction {
        src: 1000,
        dst: 2000,
        time: 1.0,
        eid: 0,
    }];
    let feats = Tensor::ones(1, 8);
    let r = pipeline.infer_batch(&batch, &feats);
    assert_eq!(r.scores.len(), 1);
    pipeline.flush();
    assert!(!pipeline.store().sync_view().is_empty(1000));
}

#[test]
fn latency_recorder_tracks_every_call() {
    let mut pipeline = ServingPipeline::new(model(8), 32, 16);
    let mut rng = StdRng::seed_from_u64(3);
    for k in 0..25 {
        let (batch, feats) = random_batch(&mut rng, 32, k as f64, 8, k * 8);
        pipeline.infer_batch(&batch, &feats);
    }
    assert_eq!(pipeline.sync_latency.len(), 25);
    assert!(pipeline.sync_latency.mean() > std::time::Duration::ZERO);
    assert!(pipeline.sync_latency.p95() >= pipeline.sync_latency.p50());
}

#[test]
fn shutdown_under_pending_load_drains_first() {
    let mut pipeline = ServingPipeline::new(model(8), 64, 64);
    let mut rng = StdRng::seed_from_u64(4);
    let mut eid = 0;
    for k in 0..50 {
        let (batch, feats) = random_batch(&mut rng, 64, k as f64, 10, eid);
        eid += 10;
        pipeline.infer_batch(&batch, &feats);
    }
    // shutdown flushes internally; all 50 jobs must be processed
    let stats = pipeline.shutdown();
    assert_eq!(stats.jobs, 50);
}
