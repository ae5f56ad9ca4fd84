//! Asynchronous-link throughput: how fast the mail propagator drains a
//! batch, by hop count and fan-out. This is the work APAN moves *off* the
//! serving path — it needs to keep up with the stream on average, but it
//! never blocks a prediction.

use apan_bench::{wiki_like, BenchEnv};
use apan_core::config::{ApanConfig, MailReduce};
use apan_core::mailbox::MailboxStore;
use apan_core::propagator::Propagator;
use apan_tensor::Tensor;
use apan_tgraph::cost::QueryCost;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

fn bench_propagate(c: &mut Criterion) {
    let env = bench_env();
    let data = wiki_like(&env, 0);
    let events = data.graph.events();
    let start = events.len() - 200;
    let batch = &events[start..];
    let mails = Tensor::ones(200, 48);

    let mut group = c.benchmark_group("propagate_batch200");
    for &hops in &[1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(hops), &hops, |bencher, &h| {
            let cfg = ApanConfig::new(48);
            let mut prop = Propagator::from_config(&cfg);
            prop.hops = h;
            prop.reduce = MailReduce::Mean;
            let mut store = MailboxStore::new(
                data.num_nodes(),
                10,
                48,
                apan_core::config::MailboxUpdate::Fifo,
            );
            bencher.iter(|| {
                let mut cost = QueryCost::new();
                black_box(prop.propagate_batch(&data.graph, &mut store, batch, &mails, &mut cost))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_propagate);
criterion_main!(benches);
