//! Regression test for pipeline shutdown ordering: dropping a
//! `ServingPipeline` while the propagation channel is full must flush
//! every pending job — mail is never silently dropped — and must not
//! deadlock. Shutdown drops the channel's sender, and the worker drains
//! the backlog before it sees the channel close; this test pins that
//! ordering.

use apan_core::config::ApanConfig;
use apan_core::model::Apan;
use apan_core::pipeline::ServingPipeline;
use apan_core::propagator::Interaction;
use apan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::Duration;

fn model(dim: usize) -> Apan {
    let mut cfg = ApanConfig::new(dim);
    cfg.mailbox_slots = 4;
    cfg.mlp_hidden = 16;
    cfg.dropout = 0.0;
    let mut rng = StdRng::seed_from_u64(0);
    Apan::new(&cfg, &mut rng)
}

#[test]
fn drop_with_full_channel_flushes_pending_propagation() {
    const NUM_NODES: u32 = 32;
    const BATCHES: usize = 40;
    const BATCH: usize = 4;

    // Capacity 1: after the first job the channel is saturated and every
    // further infer_batch hand-off blocks on the worker draining it.
    let mut pipeline = ServingPipeline::new(model(8), NUM_NODES as usize, 1);
    let store = pipeline.store();
    let graph = pipeline.graph();

    let mut rng = StdRng::seed_from_u64(7);
    use rand::Rng;
    for b in 0..BATCHES {
        let t0 = b as f64 + 1.0;
        let interactions: Vec<Interaction> = (0..BATCH)
            .map(|i| {
                let src = rng.gen_range(0..NUM_NODES);
                let mut dst = rng.gen_range(0..NUM_NODES);
                if dst == src {
                    dst = (dst + 1) % NUM_NODES;
                }
                Interaction {
                    src,
                    dst,
                    time: t0 + i as f64 * 0.01,
                    eid: (b * BATCH + i) as u32,
                }
            })
            .collect();
        let feats = Tensor::randn(BATCH, 8, 0.5, &mut rng);
        pipeline.infer_batch(&interactions, &feats);
    }

    // Drop on a helper thread so a regression (deadlock in Drop) fails
    // the test instead of hanging it.
    let (done_tx, done_rx) = mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(pipeline);
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("Drop deadlocked with a full propagation channel");
    dropper.join().unwrap();

    // Every queued job ran: each job inserts its batch's interactions
    // into the temporal graph before delivering mail.
    let g = graph.read().unwrap();
    assert_eq!(
        g.num_events(),
        BATCHES * BATCH,
        "pending propagation jobs were dropped on shutdown"
    );

    // And the flush was not a no-op on state: mail reached mailboxes.
    let s = store.sync_view();
    let delivered: usize = (0..NUM_NODES).map(|n| s.mails_of(n).len()).sum();
    assert!(
        delivered > 0,
        "no mail delivered despite {} propagated events",
        BATCHES * BATCH
    );
}

#[test]
fn explicit_shutdown_after_backlog_reports_all_jobs() {
    let mut pipeline = ServingPipeline::new(model(8), 16, 1);
    let mut rng = StdRng::seed_from_u64(11);
    use rand::Rng;
    const BATCHES: usize = 25;
    for b in 0..BATCHES {
        let src = rng.gen_range(0..16u32);
        let interactions = [Interaction {
            src,
            dst: (src + 1) % 16,
            time: b as f64 + 1.0,
            eid: b as u32,
        }];
        let feats = Tensor::randn(1, 8, 0.5, &mut rng);
        pipeline.infer_batch(&interactions, &feats);
    }
    let stats = pipeline.shutdown();
    assert_eq!(stats.jobs, BATCHES, "shutdown lost queued propagation jobs");
    assert_eq!(stats.decode_errors, 0);
}
