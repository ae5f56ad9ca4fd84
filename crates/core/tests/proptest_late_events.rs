//! Property-based correctness of bounded-lateness ingestion.
//!
//! Two layers, both differential against a time-sorted serial replay:
//!
//! 1. **Mailbox patching** — for an arbitrary delivery stream, applying
//!    in-order mails with [`MailboxStore::deliver`] and out-of-order
//!    mails with [`MailboxStore::patch_late`] (in arrival order) must
//!    leave the store — payload bytes, mail times, origins, ring heads —
//!    **bitwise identical** to delivering the whole stream time-sorted,
//!    across update modes and shard counts. `ContentAddressed` is exact
//!    only below capacity (the full ring's similarity eviction is
//!    order-dependent; see DESIGN.md), so that mode is checked only when
//!    no mailbox overflows.
//!
//! 2. **Event-level ingestion** — the serving discipline end to end:
//!    in-order events are inserted and propagated at arrival, late
//!    in-window events are spliced into the graph at arrival
//!    ([`TemporalGraph::insert_late`]) and their deliveries patch-applied
//!    at release (watermark past `time + L`, event-time order), and
//!    events older than the window are dropped. The sharded store must
//!    come out bitwise identical to a serial recompute of the effective
//!    admitted stream in time order, for every shard count. Late traffic
//!    runs on a node pool disjoint from the in-order stream: an in-order
//!    event served *before* a late edge arrives samples a graph without
//!    it — bounded staleness the sorted replay cannot reproduce — so the
//!    guarantee is exact only where neighborhoods don't straddle the
//!    window (see DESIGN.md).

use apan_check::check;
use apan_core::config::{MailReduce, MailboxUpdate};
use apan_core::mailbox::{MailOrigin, MailboxStore};
use apan_core::propagator::{DeliveryPlan, Interaction, PropScratch, Propagator};
use apan_core::shard::ShardedMailboxStore;
use apan_tensor::Tensor;
use apan_tgraph::cost::QueryCost;
use apan_tgraph::TemporalGraph;

fn snapshot_bytes(store: &MailboxStore) -> Vec<u8> {
    let mut out = Vec::new();
    store.write_snapshot(&mut out).expect("snapshot to memory");
    out
}

const NODES: u32 = 10;

/// One generated delivery: destination, event time (coarse grid, so
/// timestamp ties are common), and a payload seed.
type RawMail = (u32, u8, u8);

fn payload(seed: u8, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|j| ((seed as usize + j * 13) % 29) as f32 - 14.0)
        .collect()
}

/// Layer 1: `patch_late` splices are bitwise equivalent to the
/// time-sorted replay, flat and sharded.
#[test]
fn late_patches_equal_time_sorted_delivery() {
    check(48, |g| {
        let (dim, slots) = (g.range(1usize..4), g.range(1usize..4));
        let stream: Vec<RawMail> = g.vec(1..24, |g| {
            (g.range(0..NODES), g.range(0u8..12), g.range(0u8..64))
        });
        // stable sort: arrival order breaks timestamp ties, exactly the
        // tie rule patch_late implements
        let mut sorted: Vec<(usize, &RawMail)> = stream.iter().enumerate().collect();
        sorted.sort_by_key(|a| a.1 .1);

        let mut per_node = vec![0usize; NODES as usize];
        for (node, _, _) in &stream {
            per_node[*node as usize] += 1;
        }
        let overflows = per_node.iter().any(|&c| c > slots);

        for update in [
            MailboxUpdate::Fifo,
            MailboxUpdate::Overwrite,
            MailboxUpdate::ContentAddressed,
        ] {
            if update == MailboxUpdate::ContentAddressed && overflows {
                // full CA rings patch best-effort, not bitwise
                continue;
            }
            let origin = |arrival: usize, node: u32| MailOrigin {
                src: node,
                dst: node.wrapping_add(1),
                eid: arrival as u32,
            };

            let mut reference = MailboxStore::new(NODES as usize, slots, dim, update);
            for &(arrival, &(node, t, seed)) in &sorted {
                reference.deliver(node, &payload(seed, dim), t as f64, origin(arrival, node));
            }
            let want = snapshot_bytes(&reference);

            // flat store, arrival order: deliver in-order, patch late
            let mut flat = MailboxStore::new(NODES as usize, slots, dim, update);
            let mut max_t = f64::NEG_INFINITY;
            for (arrival, &(node, t, seed)) in stream.iter().enumerate() {
                let t = t as f64;
                let mail = payload(seed, dim);
                if t >= max_t {
                    flat.deliver(node, &mail, t, origin(arrival, node));
                    max_t = t;
                } else {
                    flat.patch_late(node, &mail, t, origin(arrival, node));
                }
            }
            assert_eq!(
                snapshot_bytes(&flat),
                want,
                "flat patching diverged (update {update:?})"
            );

            // sharded stores, same discipline through the store guard
            for shards in [1usize, 2, 4] {
                let empty = MailboxStore::new(NODES as usize, slots, dim, update);
                let sharded = ShardedMailboxStore::from_flat(&empty, shards);
                let mut max_t = f64::NEG_INFINITY;
                for (arrival, &(node, t, seed)) in stream.iter().enumerate() {
                    let t = t as f64;
                    let mail = payload(seed, dim);
                    let mut guard = sharded.sync_view();
                    if t >= max_t {
                        guard.deliver(node, &mail, t, origin(arrival, node));
                        drop(guard);
                        max_t = t;
                    } else {
                        guard.patch_late(node, &mail, t, origin(arrival, node));
                    }
                }
                assert_eq!(
                    snapshot_bytes(&sharded.to_flat()),
                    want,
                    "sharded patching diverged (update {update:?}, shards {shards})"
                );
            }
        }
    });
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    InOrder,
    Late,
}

/// Layer 2: the full insert-at-arrival / patch-at-release discipline
/// reproduces the time-sorted serial recompute of the admitted
/// stream, bitwise, at every shard count.
#[test]
fn messy_ingestion_equals_serial_recompute_of_admitted_stream() {
    check(32, |g| {
        let window = g.range(1u8..6);
        let dim = g.range(1usize..3);
        let slots = g.range(1usize..4);
        let sampled = g.range(1usize..3);
        let hops = g.range(1usize..3);
        let self_flag = g.range(0u8..2);
        let reduce_sel = g.range(0u8..3);
        let overwrite_flag = g.range(0u8..2);
        let raw = g.vec(1..20, |g| {
            let is_late = g.bool();
            (
                is_late,
                g.range(0u8..8),
                g.range(0u8..8),
                g.range(0u8..8),
                g.range(0u8..64),
            )
        });
        let lateness = window as f64;

        // Admission replay: in-order events ride node pool 0..8 and
        // advance the watermark; late attempts ride the disjoint pool
        // 8..16 at a timestamp behind it, and are admitted only inside
        // the window (beyond it the serving path scores them read-only
        // and drops them from the stream — so they appear in neither
        // run here).
        let mut wm = 0.0f64;
        let mut arrivals: Vec<(Kind, Interaction, u8)> = Vec::new();
        for &(is_late, src, dst, dt, seed) in &raw {
            if !is_late {
                let t = wm + 1.0 + (dt % 4) as f64;
                wm = t;
                arrivals.push((
                    Kind::InOrder,
                    Interaction {
                        src: src as u32,
                        dst: dst as u32,
                        time: t,
                        eid: 0,
                    },
                    seed,
                ));
            } else {
                let t = wm - (1.0 + (dt % 8) as f64);
                if t < 0.0 || t < wm - lateness {
                    continue; // dropped: outside the window
                }
                arrivals.push((
                    Kind::Late,
                    Interaction {
                        src: 8 + src as u32,
                        dst: 8 + dst as u32,
                        time: t,
                        eid: 0,
                    },
                    seed,
                ));
            }
        }
        // Interaction eids (the MailOrigin the mailbox stores) are the
        // caller's stream positions: assign them by *time-sorted*
        // position so both runs stamp identical origins.
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by(|&a, &b| arrivals[a].1.time.partial_cmp(&arrivals[b].1.time).unwrap());
        for (rank, &idx) in order.iter().enumerate() {
            arrivals[idx].1.eid = rank as u32;
        }

        let update = if overwrite_flag == 1 {
            MailboxUpdate::Overwrite
        } else {
            MailboxUpdate::Fifo
        };
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
        let num_nodes = 16usize;
        let run_one = |graph: &TemporalGraph,
                       inter: &Interaction,
                       seed: u8,
                       scratch: &mut PropScratch,
                       plan: &mut DeliveryPlan,
                       cost: &mut QueryCost| {
            let mails = Tensor::from_vec(1, dim, payload(seed, dim));
            prop.plan_batch(
                graph,
                std::slice::from_ref(inter),
                &mails,
                cost,
                scratch,
                plan,
            );
        };

        // serial reference: the admitted stream replayed in time order
        let mut ref_graph = TemporalGraph::new();
        let mut ref_store = MailboxStore::new(num_nodes, slots, dim, update);
        let mut ref_deliveries = 0usize;
        {
            let mut scratch = PropScratch::default();
            let mut plan = DeliveryPlan::default();
            let mut cost = QueryCost::new();
            for &idx in &order {
                let (_, inter, seed) = &arrivals[idx];
                ref_graph.insert(inter.src, inter.dst, inter.time);
                run_one(&ref_graph, inter, *seed, &mut scratch, &mut plan, &mut cost);
                ref_deliveries += plan.apply(&mut ref_store);
            }
        }
        let want = snapshot_bytes(&ref_store);

        // messy runs: arrival order, reorder buffer, per shard count
        for shards in [1usize, 2, 4] {
            let mut graph = TemporalGraph::new();
            let empty = MailboxStore::new(num_nodes, slots, dim, update);
            let store = ShardedMailboxStore::from_flat(&empty, shards);
            let mut scratch = PropScratch::default();
            let mut plan = DeliveryPlan::default();
            let mut cost = QueryCost::new();
            let mut deliveries = 0usize;
            // (time, arrival)-sorted reorder buffer, as the pipeline keeps
            let mut buf: Vec<(f64, usize, Interaction, u8)> = Vec::new();
            let mut wm = 0.0f64;
            for (arrival, (kind, inter, seed)) in arrivals.iter().enumerate() {
                match kind {
                    Kind::InOrder => {
                        graph.insert(inter.src, inter.dst, inter.time);
                        run_one(&graph, inter, *seed, &mut scratch, &mut plan, &mut cost);
                        deliveries += plan.apply_sharded(&store);
                        wm = inter.time;
                    }
                    Kind::Late => {
                        // splice at arrival, deliver at release
                        graph.insert_late(inter.src, inter.dst, inter.time);
                        let at =
                            buf.partition_point(|&(t, a, _, _)| (t, a) <= (inter.time, arrival));
                        buf.insert(at, (inter.time, arrival, *inter, *seed));
                    }
                }
                while buf.first().is_some_and(|&(t, _, _, _)| t <= wm - lateness) {
                    let (_, _, inter, seed) = buf.remove(0);
                    run_one(&graph, &inter, seed, &mut scratch, &mut plan, &mut cost);
                    deliveries += plan.apply_sharded_late(&store);
                }
            }
            // end of stream: forced release (the snapshot-cut flush)
            while !buf.is_empty() {
                let (_, _, inter, seed) = buf.remove(0);
                run_one(&graph, &inter, seed, &mut scratch, &mut plan, &mut cost);
                deliveries += plan.apply_sharded_late(&store);
            }
            assert_eq!(deliveries, ref_deliveries, "shards={shards}");
            assert_eq!(
                snapshot_bytes(&store.to_flat()),
                want,
                "messy ingestion diverged from the serial recompute (shards {shards})"
            );
        }
    });
}
