//! Property-based equivalence of the parallel planner and the sharded
//! apply of the propagation link.
//!
//! The reference model is the historical serial `propagate_batch` —
//! HashMap inbox, per-node sort+dedup, ascending delivery — frozen here
//! verbatim. For arbitrary graphs, batches, reducers, update modes,
//! shard counts, and worker-pool widths, the rewritten planner plus both
//! apply paths (flat, sharded) must produce **bitwise identical** mailbox
//! snapshots and identical query-cost accounting.
//! One deterministic case adds what the small random graphs cannot: the
//! default shard count on a realistic 200-event batch.

use apan_check::{check, Gen};
use apan_core::config::{ApanConfig, MailReduce, MailboxUpdate};
use apan_core::mail::reduce_mails;
use apan_core::mailbox::{MailOrigin, MailboxStore};
use apan_core::propagator::{DeliveryPlan, Interaction, PropScratch, Propagator};
use apan_core::shard::{ShardedMailboxStore, DEFAULT_SHARDS};
use apan_data::generators::wikipedia;
use apan_tensor::backend::pool::set_num_threads;
use apan_tensor::Tensor;
use apan_tgraph::cost::QueryCost;
use apan_tgraph::sampling::{sample_khop, Strategy as SampleStrategy};
use apan_tgraph::{NodeId, TemporalGraph, Time};
use std::collections::HashMap;

/// The pre-parallel serial propagator, kept as the differential oracle.
fn reference_propagate(
    p: &Propagator,
    graph: &TemporalGraph,
    store: &mut MailboxStore,
    batch: &[Interaction],
    mails: &Tensor,
    cost: &mut QueryCost,
) -> usize {
    assert_eq!(mails.rows(), batch.len());
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
            SampleStrategy::MostRecent,
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

fn snapshot_bytes(store: &MailboxStore) -> Vec<u8> {
    let mut out = Vec::new();
    store.write_snapshot(&mut out).expect("snapshot to memory");
    out
}

const NODES: u32 = 10;

/// `(src, dst, time step)`.
fn event(g: &mut Gen) -> (u32, u32, f64) {
    (g.range(0..NODES), g.range(0..NODES), g.range(0.0f64..1.0))
}

#[test]
fn sharded_parallel_propagation_is_bitwise_serial() {
    check(48, |g| {
        let (dim, slots) = (g.range(1usize..4), g.range(1usize..4));
        let (sampled, hops) = (g.range(0usize..4), g.range(0usize..3));
        let self_flag = g.range(0u8..2);
        let reduce_sel = g.range(0u8..3);
        let update_sel = g.range(0u8..3);
        let threads = g.range(1usize..5);
        let history = g.vec(0..24, event);
        let raw_batch = g.vec(0..6, event);
        let mail_vals = g.vec(24..25, |g| g.range(-8.0f32..8.0));
        // worker-pool width under test; the pool is process-global, and
        // every case (and both apply paths within it) must agree bitwise
        set_num_threads(threads);

        // time-monotone event history, then the batch strictly after it
        let mut graph = TemporalGraph::new();
        let mut t = 0.0f64;
        for (src, dst, dt) in &history {
            t += dt + 1e-3;
            graph.insert(*src, *dst, t);
        }
        let batch: Vec<Interaction> = raw_batch
            .iter()
            .enumerate()
            .map(|(i, (src, dst, dt))| {
                t += dt + 1e-3;
                Interaction {
                    src: *src,
                    dst: *dst,
                    time: t,
                    eid: i as u32,
                }
            })
            .collect();
        let mails = Tensor::from_vec(
            batch.len(),
            dim,
            (0..batch.len() * dim)
                .map(|i| mail_vals[i % mail_vals.len()])
                .collect(),
        );

        let prop = Propagator {
            sampled_neighbors: sampled,
            hops,
            deliver_to_self: self_flag == 1,
            reduce: match reduce_sel {
                0 => MailReduce::Last,
                1 => MailReduce::Sum,
                _ => MailReduce::Mean,
            },
        };
        let update = match update_sel {
            0 => MailboxUpdate::Fifo,
            1 => MailboxUpdate::Overwrite,
            _ => MailboxUpdate::ContentAddressed,
        };

        // 1. frozen serial reference
        let mut ref_store = MailboxStore::new(NODES as usize, slots, dim, update);
        let mut ref_cost = QueryCost::new();
        let ref_deliveries =
            reference_propagate(&prop, &graph, &mut ref_store, &batch, &mails, &mut ref_cost);
        let ref_snap = snapshot_bytes(&ref_store);

        // 2. rewritten planner + flat serial apply
        let mut flat_store = MailboxStore::new(NODES as usize, slots, dim, update);
        let mut flat_cost = QueryCost::new();
        let flat_deliveries =
            prop.propagate_batch(&graph, &mut flat_store, &batch, &mails, &mut flat_cost);
        assert_eq!(flat_deliveries, ref_deliveries);
        assert_eq!(flat_cost, ref_cost);
        assert_eq!(snapshot_bytes(&flat_store), ref_snap);

        // 3. sharded apply, at several shard counts, all-resident
        // and with every shard spilling through one hot slot
        for (shards, budget) in [1usize, 2, 4, 8, DEFAULT_SHARDS]
            .into_iter()
            .flat_map(|s| [(s, None), (s, Some(0))])
        {
            let empty = MailboxStore::new(NODES as usize, slots, dim, update);
            let sharded = ShardedMailboxStore::from_flat_tiered(&empty, shards, budget, None)
                .expect("open cold tier");
            let mut cost = QueryCost::new();
            let mut scratch = PropScratch::default();
            let mut plan = DeliveryPlan::default();
            prop.plan_batch(&graph, &batch, &mails, &mut cost, &mut scratch, &mut plan);
            let deliveries = plan.apply_sharded(&sharded);
            assert_eq!(deliveries, ref_deliveries);
            assert_eq!(cost, ref_cost);
            assert_eq!(
                snapshot_bytes(&sharded.to_flat()),
                ref_snap,
                "shards={shards} budget={budget:?} threads={threads}"
            );
        }
    });
}

/// The last 200 events of a wiki-like stream, propagated over the whole
/// stream's graph into a store at the default shard count: bitwise equal
/// to the serial reference at hops 1 and 2 and pool widths 1 and 2.
#[test]
fn wiki_batch_at_default_shards_is_bitwise_serial() {
    const BATCH: usize = 200;
    const DIM: usize = 48;
    let data = wikipedia(0.01, 0);
    let events = data.graph.events();
    let batch = events[events.len() - BATCH..].to_vec();
    let mails = Tensor::from_vec(
        BATCH,
        DIM,
        (0..BATCH * DIM)
            .map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0)
            .collect(),
    );
    let fresh = || MailboxStore::new(data.num_nodes(), 10, DIM, MailboxUpdate::Fifo);
    for hops in [1usize, 2] {
        let mut prop = Propagator::from_config(&ApanConfig::new(DIM));
        prop.hops = hops;
        prop.reduce = MailReduce::Mean;

        let mut ref_store = fresh();
        let mut ref_cost = QueryCost::new();
        let ref_deliveries = reference_propagate(
            &prop,
            &data.graph,
            &mut ref_store,
            &batch,
            &mails,
            &mut ref_cost,
        );
        let ref_snap = snapshot_bytes(&ref_store);

        for threads in [1usize, 2] {
            set_num_threads(threads);
            let sharded = ShardedMailboxStore::from_flat(&fresh(), DEFAULT_SHARDS);
            let mut cost = QueryCost::new();
            let mut scratch = PropScratch::default();
            let mut plan = DeliveryPlan::default();
            prop.plan_batch(
                &data.graph,
                &batch,
                &mails,
                &mut cost,
                &mut scratch,
                &mut plan,
            );
            let deliveries = plan.apply_sharded(&sharded);
            assert_eq!(deliveries, ref_deliveries, "hops={hops} threads={threads}");
            assert_eq!(cost, ref_cost, "hops={hops} threads={threads}");
            assert!(
                snapshot_bytes(&sharded.to_flat()) == ref_snap,
                "hops={hops} threads={threads}: sharded store diverged from the serial reference"
            );
        }
    }
    set_num_threads(1);
}
