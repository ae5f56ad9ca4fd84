//! Figure 6's timing core as a Criterion bench: per-batch synchronous
//! inference for each model on identical state. APAN's time must be flat
//! in propagation depth; TGAT/TGN grow with layer count.
//!
//! (Accuracy is irrelevant here — models are untrained; the computation
//! shape is identical to the trained case.)

use apan_bench::{dynamic_zoo, wiki_like, BenchEnv};
use apan_core::model::dedup_nodes;
use apan_nn::Fwd;
use apan_tgraph::cost::QueryCost;
use apan_tgraph::NodeId;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_env() -> BenchEnv {
    BenchEnv {
        scale: 0.01,
        feat_dim: 48,
        seeds: 1,
        epochs: 1,
        lr: 1e-3,
        batch: 200,
        neighbors: 10,
        out_dir: std::env::temp_dir(),
    }
}

fn bench_sync_path(c: &mut Criterion) {
    let env = bench_env();
    let data = wiki_like(&env, 0);
    let split = apan_data::ChronoSplit::new(&data, apan_data::SplitFractions::paper_default());

    // roll every model's state through the training range once so the
    // timed region sees realistic mailbox/memory/graph state
    let events = &data.graph.events()[split.test.clone()][..env.batch.min(split.test.len())];
    let src: Vec<NodeId> = events.iter().map(|e| e.src).collect();
    let dst: Vec<NodeId> = events.iter().map(|e| e.dst).collect();
    let visible = events.first().expect("non-empty").time;
    let now = events.last().expect("non-empty").time;
    let (unique, maps) = dedup_nodes(&[&src, &dst]);

    let mut group = c.benchmark_group("sync_inference_batch200");
    group.sample_size(20);
    for mut zm in dynamic_zoo(&env, 0, true) {
        // warm state: replay the training range (no learning)
        zm.model.reset(&data);
        {
            let mut rng = StdRng::seed_from_u64(0);
            let mut cost = QueryCost::new();
            for chunk in data.graph.events()[split.train.clone()].chunks(env.batch) {
                let s: Vec<NodeId> = chunk.iter().map(|e| e.src).collect();
                let d: Vec<NodeId> = chunk.iter().map(|e| e.dst).collect();
                let v = chunk.first().expect("non-empty").time;
                let t = chunk.last().expect("non-empty").time;
                let (u, m) = dedup_nodes(&[&s, &d]);
                let z = {
                    let mut fwd = Fwd::new(zm.model.params(), false);
                    let zv = zm
                        .model
                        .embed(&mut fwd, &data, &u, v, t, &mut rng, &mut cost);
                    fwd.g.value(zv).clone()
                };
                zm.model.post_step(&data, chunk, &u, &m, &z, &mut cost);
            }
        }
        group.bench_with_input(BenchmarkId::from_parameter(&zm.name), &(), |bencher, _| {
            let mut rng = StdRng::seed_from_u64(1);
            bencher.iter(|| {
                let mut cost = QueryCost::new();
                let mut fwd = Fwd::new(zm.model.params(), false);
                let z = zm
                    .model
                    .embed(&mut fwd, &data, &unique, visible, now, &mut rng, &mut cost);
                let zi = fwd.g.gather_rows(z, &maps[0]);
                let zj = fwd.g.gather_rows(z, &maps[1]);
                let logits = zm.model.score_links(&mut fwd, zi, zj, &mut rng);
                black_box(fwd.g.value(logits).sum())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sync_path);
criterion_main!(benches);
