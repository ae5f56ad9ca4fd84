//! Propagation-link throughput: the asynchronous half of APAN under the
//! parallel sharded rewrite.
//!
//! Two comparison axes, mirroring `tensor_ops`:
//!
//! * **seed vs planner** — `seed_propagate` below is a frozen copy of
//!   the pre-parallel serial link (HashMap inbox, per-node sort+dedup,
//!   ascending delivery), so the rewrite's gain stays measurable
//!   forever;
//! * **serial vs parallel** — the planner + sharded apply at
//!   `APAN_THREADS = 1` versus all available cores. Results are
//!   bit-identical either way; only the wall clock moves.
//!
//! Besides the criterion groups, running this bench writes a
//! machine-readable `BENCH_prop.json` (to `APAN_OUT_DIR`, default
//! `bench-results/`), and cross-checks every timed path against the
//! frozen reference snapshot so a perf run can never silently time a
//! wrong answer.

use apan_bench::{wiki_like, write_json, BenchEnv};
use apan_core::config::{ApanConfig, MailReduce, MailboxUpdate};
use apan_core::mail::reduce_mails;
use apan_core::mailbox::{MailOrigin, MailboxStore};
use apan_core::propagator::{DeliveryPlan, Interaction, PropScratch, Propagator};
use apan_core::shard::ShardedMailboxStore;
use apan_tensor::backend::pool::set_num_threads;
use apan_tensor::Tensor;
use apan_tgraph::cost::QueryCost;
use apan_tgraph::sampling::{sample_khop, Strategy};
use apan_tgraph::{NodeId, TemporalGraph, Time};
use criterion::{BenchmarkId, Criterion};
use std::collections::HashMap;
use std::hint::black_box;

/// The seed repo's propagation link, frozen as the comparison baseline.
fn seed_propagate(
    p: &Propagator,
    graph: &TemporalGraph,
    store: &mut MailboxStore,
    batch: &[Interaction],
    mails: &Tensor,
    cost: &mut QueryCost,
) -> usize {
    let mut inbox: HashMap<NodeId, Vec<usize>> = HashMap::new();
    let mut meta: HashMap<NodeId, (Time, MailOrigin)> = HashMap::new();
    for (row, inter) in batch.iter().enumerate() {
        let origin = MailOrigin {
            src: inter.src,
            dst: inter.dst,
            eid: inter.eid,
        };
        let mut push = |node: NodeId| {
            inbox.entry(node).or_default().push(row);
            meta.insert(node, (inter.time, origin));
        };
        if p.deliver_to_self {
            push(inter.src);
            push(inter.dst);
        }
        let layers = sample_khop(
            graph,
            &[inter.src, inter.dst],
            inter.time,
            p.sampled_neighbors,
            p.hops,
            Strategy::MostRecent,
            None,
            cost,
        );
        for layer in layers {
            for edge in layer {
                push(edge.entry.neighbor);
            }
        }
    }
    let mut targets: Vec<NodeId> = inbox.keys().copied().collect();
    targets.sort_unstable();
    let mut deliveries = 0;
    for node in targets {
        let mut rows = inbox.remove(&node).expect("key present");
        rows.sort_unstable();
        rows.dedup();
        let payload = reduce_mails(mails, &rows, p.reduce);
        let (t, origin) = meta[&node];
        store.deliver(node, &payload, t, origin);
        deliveries += 1;
    }
    deliveries
}

struct Workload {
    graph: TemporalGraph,
    batch: Vec<Interaction>,
    mails: Tensor,
    num_nodes: usize,
    prop: Propagator,
}

fn workload(hops: usize) -> Workload {
    let env = BenchEnv {
        scale: 0.01,
        feat_dim: 48,
        seeds: 1,
        epochs: 1,
        lr: 1e-3,
        batch: 200,
        neighbors: 10,
        out_dir: std::env::temp_dir(),
    };
    let data = wiki_like(&env, 0);
    let events = data.graph.events();
    let start = events.len() - 200;
    let batch = events[start..].to_vec();
    let mut prop = Propagator::from_config(&ApanConfig::new(48));
    prop.hops = hops;
    prop.reduce = MailReduce::Mean;
    let num_nodes = data.num_nodes();
    Workload {
        graph: data.graph,
        batch,
        mails: Tensor::ones(200, 48),
        num_nodes,
        prop,
    }
}

fn fresh_store(w: &Workload) -> MailboxStore {
    MailboxStore::new(w.num_nodes, 10, 48, MailboxUpdate::Fifo)
}

fn all_cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

fn bench_prop_link(c: &mut Criterion) {
    let mut group = c.benchmark_group("prop_link_batch200");
    for &hops in &[1usize, 2] {
        let w = workload(hops);
        group.bench_with_input(BenchmarkId::new("seed", hops), &hops, |bencher, _| {
            set_num_threads(1);
            let mut store = fresh_store(&w);
            bencher.iter(|| {
                let mut cost = QueryCost::new();
                black_box(seed_propagate(
                    &w.prop, &w.graph, &mut store, &w.batch, &w.mails, &mut cost,
                ))
            });
        });
        group.bench_with_input(
            BenchmarkId::new("planner_flat", hops),
            &hops,
            |bencher, _| {
                set_num_threads(1);
                let mut store = fresh_store(&w);
                bencher.iter(|| {
                    let mut cost = QueryCost::new();
                    black_box(
                        w.prop
                            .propagate_batch(&w.graph, &mut store, &w.batch, &w.mails, &mut cost),
                    )
                });
            },
        );
        for threads in [1usize, all_cores()] {
            group.bench_with_input(
                BenchmarkId::new(format!("planner_sharded_t{threads}"), hops),
                &hops,
                |bencher, _| {
                    set_num_threads(threads);
                    let sharded = ShardedMailboxStore::from_flat(&fresh_store(&w), 16);
                    let mut scratch = PropScratch::default();
                    let mut plan = DeliveryPlan::default();
                    bencher.iter(|| {
                        let mut cost = QueryCost::new();
                        w.prop.plan_batch(
                            &w.graph,
                            &w.batch,
                            &w.mails,
                            &mut cost,
                            &mut scratch,
                            &mut plan,
                        );
                        black_box(plan.apply_sharded(&sharded))
                    });
                    set_num_threads(1);
                },
            );
        }
    }
    group.finish();
}

// ----------------------------------------------------------------------
// Machine-readable report
// ----------------------------------------------------------------------

#[derive(serde::Serialize)]
struct PropTiming {
    path: String,
    hops: usize,
    threads: usize,
    ns_per_iter: f64,
    deliveries: usize,
    speedup_vs_seed: f64,
}

#[derive(serde::Serialize)]
struct PropReport {
    bench: &'static str,
    batch: usize,
    timings: Vec<PropTiming>,
}

fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up (pool spawn, caches)
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn snapshot_bytes(store: &MailboxStore) -> Vec<u8> {
    let mut out = Vec::new();
    store.write_snapshot(&mut out).expect("snapshot to memory");
    out
}

fn write_report() {
    let mut timings = Vec::new();
    for hops in [1usize, 2] {
        let w = workload(hops);
        let iters = if hops == 1 { 40 } else { 10 };

        // reference answer: one seed pass over a fresh store
        set_num_threads(1);
        let mut ref_store = fresh_store(&w);
        let mut ref_cost = QueryCost::new();
        let ref_deliveries = seed_propagate(
            &w.prop,
            &w.graph,
            &mut ref_store,
            &w.batch,
            &w.mails,
            &mut ref_cost,
        );
        let ref_snap = snapshot_bytes(&ref_store);

        let seed_ns = time_ns(iters, || {
            let mut store = fresh_store(&w);
            let mut cost = QueryCost::new();
            black_box(seed_propagate(
                &w.prop, &w.graph, &mut store, &w.batch, &w.mails, &mut cost,
            ));
        });
        timings.push(PropTiming {
            path: "seed_propagate".into(),
            hops,
            threads: 1,
            ns_per_iter: seed_ns,
            deliveries: ref_deliveries,
            speedup_vs_seed: 1.0,
        });

        let flat_ns = time_ns(iters, || {
            let mut store = fresh_store(&w);
            let mut cost = QueryCost::new();
            black_box(
                w.prop
                    .propagate_batch(&w.graph, &mut store, &w.batch, &w.mails, &mut cost),
            );
        });
        timings.push(PropTiming {
            path: "planner_flat".into(),
            hops,
            threads: 1,
            ns_per_iter: flat_ns,
            deliveries: ref_deliveries,
            speedup_vs_seed: seed_ns / flat_ns,
        });

        for threads in [1usize, all_cores()] {
            set_num_threads(threads);
            // correctness gate: this exact path must be bitwise on the
            // reference before its timing is worth writing down
            let sharded = ShardedMailboxStore::from_flat(&fresh_store(&w), 16);
            let mut scratch = PropScratch::default();
            let mut plan = DeliveryPlan::default();
            let mut cost = QueryCost::new();
            w.prop.plan_batch(
                &w.graph,
                &w.batch,
                &w.mails,
                &mut cost,
                &mut scratch,
                &mut plan,
            );
            let deliveries = plan.apply_sharded(&sharded);
            assert_eq!(deliveries, ref_deliveries, "sharded path lost deliveries");
            assert_eq!(
                snapshot_bytes(&sharded.to_flat()),
                ref_snap,
                "sharded path diverged from the frozen serial reference"
            );

            let ns = time_ns(iters, || {
                let sharded = ShardedMailboxStore::from_flat(&fresh_store(&w), 16);
                let mut scratch = PropScratch::default();
                let mut plan = DeliveryPlan::default();
                let mut cost = QueryCost::new();
                w.prop.plan_batch(
                    &w.graph,
                    &w.batch,
                    &w.mails,
                    &mut cost,
                    &mut scratch,
                    &mut plan,
                );
                black_box(plan.apply_sharded(&sharded));
            });
            timings.push(PropTiming {
                path: "planner_sharded".into(),
                hops,
                threads,
                ns_per_iter: ns,
                deliveries,
                speedup_vs_seed: seed_ns / ns,
            });
        }
        set_num_threads(1);
    }
    let report = PropReport {
        bench: "prop_throughput",
        batch: 200,
        timings,
    };
    let path = BenchEnv::from_env().out_dir.join("BENCH_prop.json");
    if let Err(e) = write_json(&path, &report) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

// Expanded by hand instead of `criterion_group!/criterion_main!` so the
// JSON report (and its bit-identity cross-check) runs after the criterion
// groups in both bench mode and `cargo test`'s one-iteration smoke mode.
fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_prop_link(&mut criterion);
    criterion.final_summary();
    write_report();
}
