//! The asynchronous mail propagator (§3.5, Fig. 5).
//!
//! After the synchronous link produces embeddings for a batch of
//! interactions, the propagator (1) generates one mail per interaction
//! (φ), (2) finds each interaction's delivery set — the endpoints plus
//! their k-hop most-recent temporal neighbours, (3) reduces the mails
//! arriving at each node to one (ρ), and (4) updates the mailboxes (ψ).
//!
//! All of this runs off the critical path: inline after the optimizer step
//! during training, and on a background worker in the serving
//! [`crate::pipeline`].

use crate::config::{ApanConfig, MailReduce};
use crate::mail::reduce_mails_slice;
use crate::mailbox::{MailOrigin, MailboxStore};
use crate::shard::{locate, ShardedMailboxStore, StoreGuard};
use crate::tier::TierShard;
use apan_tensor::backend::pool::parallel_rows_mut;
use apan_tensor::Tensor;
use apan_tgraph::cost::QueryCost;
use apan_tgraph::sampling::sample_khop_targets;
use apan_tgraph::{NodeId, TemporalGraph, Time};

/// One interaction to propagate: the event-log record itself (`eid`
/// feeds mail origins / interpretability).
pub type Interaction = apan_tgraph::Event;

/// Configuration slice of the propagator.
#[derive(Clone, Copy, Debug)]
pub struct Propagator {
    /// Neighbours sampled per hop.
    pub sampled_neighbors: usize,
    /// Propagation depth in hops.
    pub hops: usize,
    /// Whether the endpoints receive their own mail.
    pub deliver_to_self: bool,
    /// Reduction operator for multiple mails to one node.
    pub reduce: MailReduce,
}

impl Propagator {
    /// Builds a propagator from an [`ApanConfig`], sampling with APAN's
    /// backward most-recent scan.
    pub fn from_config(cfg: &ApanConfig) -> Self {
        Self {
            sampled_neighbors: cfg.sampled_neighbors,
            hops: cfg.hops,
            deliver_to_self: cfg.deliver_to_self,
            reduce: cfg.mail_reduce,
        }
    }

    /// Propagates one batch of interactions. `mails` holds one row per
    /// interaction (built by [`crate::mail::make_mails`]); `graph` is the
    /// temporal graph used for k-hop delivery (time-respecting queries see
    /// only edges strictly before each interaction's time). Query work is
    /// accumulated into `cost`.
    ///
    /// Equivalent to [`Propagator::plan_batch`] + [`DeliveryPlan::apply`];
    /// callers on a hot loop should hold their own scratch/plan and call
    /// those directly to reuse the buffers.
    ///
    /// Returns the number of mailbox deliveries performed.
    pub fn propagate_batch(
        &self,
        graph: &TemporalGraph,
        store: &mut MailboxStore,
        batch: &[Interaction],
        mails: &Tensor,
        cost: &mut QueryCost,
    ) -> usize {
        let mut scratch = PropScratch::default();
        let mut plan = DeliveryPlan::default();
        self.plan_batch(graph, batch, mails, cost, &mut scratch, &mut plan);
        plan.apply(store)
    }

    /// Computes the full delivery set for a batch — every destination
    /// node, its reduced payload, and its delivery time/origin — without
    /// touching any mailbox. The graph is only *read*. The
    /// per-interaction `sample_khop` fan-out (phase 1) and the per-node
    /// reduction (phase 3) run on the shared tensor thread pool when
    /// called from training or replay; the serving pipeline's worker
    /// calls this inside `pool::inline`, so there both run on the worker
    /// thread.
    ///
    /// ## Determinism
    /// Bitwise identical to the historical serial path for any thread
    /// count: (1) per-interaction sampling is an independent pure read,
    /// collected into per-interaction slots and concatenated in batch
    /// order; (2) per-interaction [`QueryCost`] is merged in batch order
    /// (u64 sums — order-free anyway); (3) the `(node, row)` pair sort
    /// reproduces exactly the sorted/deduped ascending row list the old
    /// `HashMap` inbox produced per node, so every reduction consumes
    /// the same rows in the same order; (4) each payload row is reduced
    /// independently into a disjoint output row, handed to its task by
    /// `parallel_rows_mut`.
    pub fn plan_batch(
        &self,
        graph: &TemporalGraph,
        batch: &[Interaction],
        mails: &Tensor,
        cost: &mut QueryCost,
        scratch: &mut PropScratch,
        plan: &mut DeliveryPlan,
    ) {
        assert_eq!(mails.rows(), batch.len(), "one mail row per interaction");
        let b = batch.len();

        // Phase 1: fan per-interaction target collection across the pool.
        // Slot r of the scratch receives interaction r's targets in push
        // order (src, dst if deliver_to_self, then k-hop level by level)
        // and its query cost.
        if scratch.slots.len() < b {
            scratch.slots.resize_with(b, Default::default);
        }
        parallel_rows_mut(&mut scratch.slots[..b], 1, 1, |start, end, slots| {
            for ((targets, c), inter) in slots.iter_mut().zip(&batch[start..end]) {
                targets.clear();
                *c = QueryCost::default();
                self.collect_targets(graph, inter, c, targets);
            }
        });
        for (_, c) in &scratch.slots[..b] {
            *cost += *c;
        }

        // Phase 2: sorted (node, row) pairs replace the HashMap inbox.
        // After sort+dedup, each node's group is its ascending distinct
        // row list — exactly what sort_unstable+dedup per node produced.
        scratch.pairs.clear();
        for (r, (targets, _)) in scratch.slots[..b].iter().enumerate() {
            for &node in targets {
                scratch.pairs.push((node, r as u32));
            }
        }
        scratch.pairs.sort_unstable();
        scratch.pairs.dedup();

        plan.nodes.clear();
        plan.times.clear();
        plan.origins.clear();
        scratch.rows.clear();
        scratch.groups.clear();
        let mut i = 0;
        while i < scratch.pairs.len() {
            let node = scratch.pairs[i].0;
            let start = scratch.rows.len();
            while i < scratch.pairs.len() && scratch.pairs[i].0 == node {
                scratch.rows.push(scratch.pairs[i].1 as usize);
                i += 1;
            }
            scratch
                .groups
                .push((start as u32, scratch.rows.len() as u32));
            plan.nodes.push(node);
            // the delivery time/origin of the *latest* batch row that
            // targeted this node — the old `meta` overwrite semantics
            let inter = &batch[scratch.rows[scratch.rows.len() - 1]];
            plan.times.push(inter.time);
            plan.origins.push(MailOrigin {
                src: inter.src,
                dst: inter.dst,
                eid: inter.eid,
            });
        }

        // Phase 3: reduce each node's rows into its disjoint payload row.
        let d = mails.cols();
        plan.dim = d;
        plan.payload.clear();
        plan.payload.resize(plan.nodes.len() * d, 0.0);
        let (groups, rows) = (&scratch.groups, &scratch.rows);
        parallel_rows_mut(&mut plan.payload, d, 8, |start, end, payload| {
            for (&(gs, ge), out) in groups[start..end].iter().zip(payload.chunks_exact_mut(d)) {
                reduce_mails_slice(mails, &rows[gs as usize..ge as usize], self.reduce, out);
            }
        });
    }

    /// Appends interaction `inter`'s delivery targets (push order: src,
    /// dst if configured, then every k-hop sampled neighbour level by
    /// level) and accounts its query cost.
    fn collect_targets(
        &self,
        graph: &TemporalGraph,
        inter: &Interaction,
        cost: &mut QueryCost,
        out: &mut Vec<NodeId>,
    ) {
        if self.deliver_to_self {
            out.push(inter.src);
            out.push(inter.dst);
        }
        sample_khop_targets(
            graph,
            &[inter.src, inter.dst],
            inter.time,
            self.sampled_neighbors,
            self.hops,
            cost,
            out,
        );
    }
}

/// Reusable buffers for [`Propagator::plan_batch`] — hold one per
/// planning loop so repeated planning performs no steady-state
/// allocation.
#[derive(Default)]
pub struct PropScratch {
    /// Per-interaction slots: slot r holds interaction r's targets and
    /// its query cost (costs are merged in batch order).
    slots: Vec<(Vec<NodeId>, QueryCost)>,
    /// Sorted, deduped `(destination, mail row)` pairs.
    pairs: Vec<(NodeId, u32)>,
    /// Row indices grouped per destination node (ascending within group).
    rows: Vec<usize>,
    /// `[start, end)` ranges into `rows`, one per destination.
    groups: Vec<(u32, u32)>,
}

/// A computed delivery set: destinations (ascending), one reduced payload
/// row each, and the delivery time/origin. Applying it is the only part
/// of propagation that mutates the mailbox store.
#[derive(Default)]
pub struct DeliveryPlan {
    dim: usize,
    nodes: Vec<NodeId>,
    payload: Vec<f32>, // [nodes.len() × dim]
    times: Vec<Time>,
    origins: Vec<MailOrigin>,
}

impl DeliveryPlan {
    /// Number of deliveries the plan holds.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the plan delivers nothing.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Applies the plan to a flat store, destinations ascending — the
    /// exact delivery sequence of the historical serial path.
    pub fn apply(&self, store: &mut MailboxStore) -> usize {
        for i in 0..self.nodes.len() {
            store.deliver(
                self.nodes[i],
                &self.payload[i * self.dim..(i + 1) * self.dim],
                self.times[i],
                self.origins[i],
            );
        }
        self.nodes.len()
    }

    /// Applies the plan to a sharded store, destinations ascending. Per-node
    /// mailbox state is independent, so the final store state is
    /// identical to [`DeliveryPlan::apply`] on the equivalent flat store
    /// for any shard count.
    pub fn apply_sharded(&self, store: &ShardedMailboxStore) -> usize {
        self.apply_locked(&mut store.sync_view(), TierShard::deliver)
    }

    /// Applies the plan via [`MailboxStore::patch_late`] — the
    /// delta-apply path for a released late event: each mail is spliced
    /// into its destination's already-committed mailbox at its
    /// time-sorted position instead of being enqueued as newest.
    pub fn apply_sharded_late(&self, store: &ShardedMailboxStore) -> usize {
        self.apply_locked(&mut store.sync_view(), TierShard::patch_late)
    }

    /// Runs `write` (`deliver` or `patch_late`) for every delivery
    /// under the held store lock, one loop in ascending destination
    /// order on the calling thread. Each shard sees its deliveries in
    /// ascending order and keeps its own LRU, so the state is that of
    /// [`DeliveryPlan::apply`] on the equivalent flat store.
    /// Holding the lock for the whole apply is what keeps a synchronous
    /// encode from observing a half-applied commit.
    pub(crate) fn apply_locked(
        &self,
        store: &mut StoreGuard<'_>,
        write: impl Fn(&mut TierShard, NodeId, &[f32], Time, MailOrigin),
    ) -> usize {
        let shards = store.shards_mut();
        let s = shards.len();
        for (i, &node) in self.nodes.iter().enumerate() {
            let (shard, local) = locate(node, s);
            write(
                &mut shards[shard],
                local,
                &self.payload[i * self.dim..(i + 1) * self.dim],
                self.times[i],
                self.origins[i],
            );
        }
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MailboxUpdate;

    fn graph() -> TemporalGraph {
        // 0-1 @1, 1-2 @2, 2-3 @3
        let mut g = TemporalGraph::new();
        g.insert(0, 1, 1.0);
        g.insert(1, 2, 2.0);
        g.insert(2, 3, 3.0);
        g
    }

    fn propagator() -> Propagator {
        Propagator {
            sampled_neighbors: 5,
            hops: 2,
            deliver_to_self: true,
            reduce: MailReduce::Mean,
        }
    }

    #[test]
    fn delivers_to_self_and_khop() {
        let g = graph();
        let mut store = MailboxStore::new(4, 3, 2, MailboxUpdate::Fifo);
        let mut cost = QueryCost::new();
        // interaction 0-1 at t=4: 1-hop of {0,1} before t=4 → {1,0,2};
        // 2-hop adds {0,1,3}… so everyone hears about it
        let batch = [Interaction {
            src: 0,
            dst: 1,
            time: 4.0,
            eid: 99,
        }];
        let mails = Tensor::from_rows(&[&[1.0, 2.0]]);
        let n = propagator().propagate_batch(&g, &mut store, &batch, &mails, &mut cost);
        assert!(n >= 3, "deliveries {n}");
        assert_eq!(store.len(0), 1);
        assert_eq!(store.len(1), 1);
        assert_eq!(store.len(2), 1); // 2 is a 1-hop neighbour of 1
        assert_eq!(store.mails_of(0)[0].0, &[1.0, 2.0]);
        assert_eq!(store.mails_of(0)[0].2.eid, 99);
        assert!(cost.queries > 0 && cost.hops > 0);
    }

    #[test]
    fn no_self_delivery_when_disabled() {
        let mut g = TemporalGraph::new();
        g.insert(0, 1, 1.0); // no earlier history ⇒ no k-hop targets
        let mut store = MailboxStore::new(2, 3, 2, MailboxUpdate::Fifo);
        let mut cost = QueryCost::new();
        let mut p = propagator();
        p.deliver_to_self = false;
        let batch = [Interaction {
            src: 0,
            dst: 1,
            time: 1.0,
            eid: 0,
        }];
        let mails = Tensor::from_rows(&[&[1.0, 1.0]]);
        let n = p.propagate_batch(&g, &mut store, &batch, &mails, &mut cost);
        assert_eq!(n, 0);
        assert!(store.is_empty(0) && store.is_empty(1));
    }

    #[test]
    fn multiple_mails_mean_reduced() {
        let g = TemporalGraph::new();
        let mut store = MailboxStore::new(3, 3, 2, MailboxUpdate::Fifo);
        let mut cost = QueryCost::new();
        // two interactions both touching node 1 in one batch
        let batch = [
            Interaction {
                src: 0,
                dst: 1,
                time: 1.0,
                eid: 0,
            },
            Interaction {
                src: 2,
                dst: 1,
                time: 1.0,
                eid: 1,
            },
        ];
        let mails = Tensor::from_rows(&[&[2.0, 0.0], &[4.0, 2.0]]);
        propagator().propagate_batch(&g, &mut store, &batch, &mails, &mut cost);
        // node 1 got exactly ONE mail: the mean of the two
        assert_eq!(store.len(1), 1);
        assert_eq!(store.mails_of(1)[0].0, &[3.0, 1.0]);
        // nodes 0 and 2 each got their own single mail
        assert_eq!(store.mails_of(0)[0].0, &[2.0, 0.0]);
        assert_eq!(store.mails_of(2)[0].0, &[4.0, 2.0]);
    }

    #[test]
    fn last_reduce_keeps_newest() {
        let g = TemporalGraph::new();
        let mut store = MailboxStore::new(2, 3, 1, MailboxUpdate::Fifo);
        let mut cost = QueryCost::new();
        let mut p = propagator();
        p.reduce = MailReduce::Last;
        let batch = [
            Interaction {
                src: 0,
                dst: 1,
                time: 1.0,
                eid: 0,
            },
            Interaction {
                src: 0,
                dst: 1,
                time: 2.0,
                eid: 1,
            },
        ];
        let mails = Tensor::from_rows(&[&[10.0], &[20.0]]);
        p.propagate_batch(&g, &mut store, &batch, &mails, &mut cost);
        assert_eq!(store.mails_of(1)[0].0, &[20.0]);
        assert_eq!(store.mails_of(1)[0].2.eid, 1);
    }

    #[test]
    fn hop_count_controls_reach() {
        // chain 0-1 @1, 1-2 @2, 2-3 @3; new interaction at 0 at t=10
        let g = graph();
        let batch = [Interaction {
            src: 0,
            dst: 1,
            time: 10.0,
            eid: 9,
        }];
        let mails = Tensor::from_rows(&[&[1.0, 1.0]]);

        let mut p1 = propagator();
        p1.hops = 1;
        let mut s1 = MailboxStore::new(4, 3, 2, MailboxUpdate::Fifo);
        let mut c = QueryCost::new();
        p1.propagate_batch(&g, &mut s1, &batch, &mails, &mut c);
        // 1 hop from {0,1}: reaches 0,1,2 but NOT 3
        assert!(s1.is_empty(3));

        let mut p2 = propagator();
        p2.hops = 3;
        let mut s3 = MailboxStore::new(4, 3, 2, MailboxUpdate::Fifo);
        p2.propagate_batch(&g, &mut s3, &batch, &mails, &mut c);
        // 3 hops reach node 3 via 1→2→3
        assert_eq!(s3.len(3), 1);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let g = graph();
        let batch = [
            Interaction {
                src: 0,
                dst: 1,
                time: 5.0,
                eid: 0,
            },
            Interaction {
                src: 2,
                dst: 3,
                time: 6.0,
                eid: 1,
            },
        ];
        let mails = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let run = || {
            let mut s = MailboxStore::new(4, 3, 2, MailboxUpdate::Fifo);
            let mut c = QueryCost::new();
            propagator().propagate_batch(&g, &mut s, &batch, &mails, &mut c);
            (0..4u32)
                .map(|n| {
                    s.mails_of(n)
                        .iter()
                        .map(|(p, _, _)| p.to_vec())
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_held_guard_excludes_a_commit() {
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        let store =
            ShardedMailboxStore::from_flat(&MailboxStore::new(4, 3, 2, MailboxUpdate::Fifo), 2);
        let batch = [Interaction {
            src: 0,
            dst: 1,
            time: 4.0,
            eid: 7,
        }];
        let mails = Tensor::from_rows(&[&[1.0, 2.0]]);
        let mut plan = DeliveryPlan::default();
        propagator().plan_batch(
            &graph(),
            &batch,
            &mails,
            &mut QueryCost::new(),
            &mut PropScratch::default(),
            &mut plan,
        );
        let nodes = [0, 1, 2, 3];
        let view = store.sync_view();
        let before = view.read_batch(&nodes, 5.0);
        assert_eq!(before.lens, [0; 4]);
        let applied = AtomicBool::new(false);
        std::thread::scope(|s| {
            let commit = s.spawn(|| {
                let n = plan.apply_sharded(&store);
                applied.store(true, SeqCst);
                n
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!applied.load(SeqCst), "a commit ran under a held guard");
            let during = view.read_batch(&nodes, 5.0);
            assert_eq!(during.lens, before.lens);
            assert_eq!(during.mails.data(), before.mails.data());
            assert_eq!(during.ages, before.ages);
            drop(view);
            assert_eq!(commit.join().unwrap(), plan.len());
        });
        // every node of the chain hears about 0-1 within two hops
        assert_eq!(store.sync_view().read_batch(&nodes, 5.0).lens, [1; 4]);
    }
}
