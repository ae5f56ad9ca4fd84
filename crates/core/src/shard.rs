//! Sharded mailbox store behind the serving pipeline.
//!
//! [`ShardedMailboxStore`] splits node state across `S` shards by
//! `node_id % S`. Each shard is a [`TierShard`]:
//! a plain flat [`MailboxStore`] when no residency budget is configured,
//! or a bounded hot pool spilling its LRU tail to the store's
//! direct-mapped spill file when one is (see [`crate::tier`]).
//!
//! The sharding *and* the tiering are pure layout transforms:
//! `to_flat` reconstructs a flat store byte-identical (snapshot format
//! v2 included) to what the serial all-resident path would have
//! produced, because per-node state is independent, shard-local growth
//! mirrors `ensure_node` exactly — the reconstructed node count is
//! `max(initial_n, max_touched_id + 1)` in both layouts — and a
//! mailbox's bytes round-trip losslessly through the cold tier.
//!
//! One lock: the shards sit behind one `Mutex`, and [`StoreGuard`] is
//! the only way to touch mailbox state. Two parties take it. The batcher
//! thread holds it for one synchronous inference (read → encode →
//! embedding write-back), a peer job's write-back, or a snapshot cut
//! (the forced reorder-buffer release with the link drained, then the
//! export). The one propagation worker holds it for one plan's apply.
//! Each hold covers a whole unit of work, so an encode never observes a
//! half-applied commit, and with one lock there is no ordering rule.
//! Inside the worker's hold the apply is one loop on the worker thread,
//! so shards need no locks of their own. The spill file is not a lock
//! either: shards share it through positioned I/O, each at its own
//! nodes' offsets. A poisoned lock is fatal, as everywhere in the
//! serving stack: a panic under the store lock is a bug, not a state to
//! keep serving from.

use crate::mailbox::{MailOrigin, MailboxRead, MailboxStore, MailboxView};
use crate::tier::{ColdFile, TierShard, TierStats};
use apan_tensor::backend::pool::parse_positive;
use apan_tensor::Tensor;
use apan_tgraph::{NodeId, Time};
use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once};

/// Default shard count when `APAN_MAILBOX_SHARDS` is unset.
pub const DEFAULT_SHARDS: usize = 16;

/// Cap on `APAN_MAILBOX_SHARDS`: every shard is a store allocated at
/// boot, so an absurd value must not abort the process.
pub const MAX_SHARDS: usize = 1024;

/// Resolves the shard count: `APAN_MAILBOX_SHARDS` if set to a positive
/// integer (capped at [`MAX_SHARDS`]), else [`DEFAULT_SHARDS`]. A
/// set-but-malformed value warns once on stderr (same hardened parsing
/// as `APAN_THREADS`/`APAN_SIMD`) instead of being silently ignored.
pub fn shards_from_env() -> usize {
    static WARN: Once = Once::new();
    parse_positive("APAN_MAILBOX_SHARDS", &WARN)
        .unwrap_or(DEFAULT_SHARDS)
        .min(MAX_SHARDS)
}

/// Ownership discipline shared by every sharded layer: node `node`
/// belongs to member `node % n` of an `n`-way partition. The in-process
/// [`ShardedMailboxStore`] uses it to pick a mailbox shard; the
/// multi-daemon cluster uses the same function to pick the `apand`
/// process that serves a request, so in-process and cross-process
/// sharding never disagree about placement.
#[inline]
pub fn owner_shard(node: NodeId, n: usize) -> usize {
    node as usize % n.max(1)
}

/// Where `node` lives among `n` shards: its shard and its local index
/// there.
#[inline]
pub(crate) fn locate(node: NodeId, n: usize) -> (usize, NodeId) {
    (owner_shard(node, n), node / n as NodeId)
}

/// A mailbox store split into shards by `node_id % num_shards`; node
/// `g` lives at local index `g / S` of shard `g % S`. All shards sit
/// behind one lock, taken through [`Self::sync_view`].
pub struct ShardedMailboxStore {
    shards: Mutex<Vec<TierShard>>,
    num_shards: usize,
    dim: usize,
    slots: usize,
    stats: Arc<TierStats>,
}

/// Node count the equivalent flat store would report: the largest
/// global id any shard has grown to cover, plus one.
fn flat_node_count(shards: &[TierShard]) -> usize {
    let s = shards.len();
    shards
        .iter()
        .enumerate()
        .map(|(i, g)| match g.covered() {
            0 => 0,
            l => (l - 1) * s + i + 1,
        })
        .max()
        .unwrap_or(0)
}

impl ShardedMailboxStore {
    /// Scatters a flat store into `num_shards` all-resident shards. The
    /// flat store's state is preserved exactly ([`Self::to_flat`]
    /// round-trips it).
    pub fn from_flat(flat: &MailboxStore, num_shards: usize) -> Self {
        Self::from_flat_tiered(flat, num_shards, None, None)
            .expect("untiered construction cannot fail")
    }

    /// Scatters a flat store into `num_shards` shards with an optional
    /// resident-memory budget. `budget = None` keeps every mailbox in
    /// RAM (identical to [`Self::from_flat`]); `Some(bytes)` bounds the
    /// hot pools to roughly `bytes` of mailbox state total (at least
    /// one mailbox per shard) and spills the rest to one scratch file
    /// under `spill_dir`, truncating whatever a previous process left
    /// there and removing the file on drop. With `None` the directory
    /// is auto-created in the system temp dir and removed on drop too.
    /// Untouched (all-zero) nodes are never spilled, so a freshly sized
    /// boot store costs no cold I/O.
    ///
    /// Tiering only moves bytes between tiers: the resulting store is
    /// bitwise-indistinguishable from the all-resident one through
    /// every read, write, and export surface.
    pub fn from_flat_tiered(
        flat: &MailboxStore,
        num_shards: usize,
        budget: Option<u64>,
        spill_dir: Option<&Path>,
    ) -> io::Result<Self> {
        assert!(num_shards >= 1, "need at least one shard");
        let (slots, dim, update) = (flat.slots(), flat.dim(), flat.update_mode());
        let n = flat.num_nodes();
        let stats = Arc::new(TierStats::default());
        let tier = match budget {
            None => None,
            Some(bytes) => {
                let per_node = MailboxStore::node_payload_bytes(slots, dim) as u64;
                let cap = ((bytes / per_node) as usize / num_shards).max(1);
                let (dir, own_dir) = match spill_dir {
                    Some(d) => (d.to_path_buf(), false),
                    None => (default_spill_dir(), true),
                };
                Some((cap, Arc::new(ColdFile::create(&dir, slots, dim, own_dir)?)))
            }
        };
        let shards = (0..num_shards)
            .map(|s| {
                // nodes g with g % S == s and g < n
                let local_n = (n + num_shards - 1 - s) / num_shards;
                let mut shard = match &tier {
                    None => TierShard::flat(MailboxStore::new(local_n, slots, dim, update)),
                    Some((cap, cold)) => TierShard::tiered(
                        *cap,
                        slots,
                        dim,
                        update,
                        s,
                        num_shards,
                        local_n,
                        Arc::clone(cold),
                        Arc::clone(&stats),
                    ),
                };
                for local in 0..local_n {
                    shard.import_node(local as NodeId, flat, local * num_shards + s);
                }
                shard
            })
            .collect();
        Ok(Self {
            shards: Mutex::new(shards),
            num_shards,
            dim,
            slots,
            stats,
        })
    }

    /// Live tier counters (residency, evictions, promotions, cold
    /// bytes) — all zeros when no budget is configured.
    pub fn tier_stats(&self) -> Arc<TierStats> {
        Arc::clone(&self.stats)
    }

    /// Takes the store lock. The guard is the only way to touch mailbox
    /// state; while it lives no other party reads or writes a mailbox.
    /// Tier spans recorded under it are untraced until
    /// [`StoreGuard::set_trace`] tags them.
    pub fn sync_view(&self) -> StoreGuard<'_> {
        let guard = StoreGuard {
            store: self,
            shards: RefCell::new(self.shards.lock().expect("mailbox store lock poisoned")),
        };
        guard.set_trace(0);
        guard
    }

    /// [`Self::sync_view`] under the name `apan-perf` calls it by: there
    /// is one lock, so the shard index is ignored.
    pub fn lock_shard(&self, _shard: usize) -> StoreGuard<'_> {
        self.sync_view()
    }

    /// Gathers the shards back into one flat store, byte-identical to
    /// what the serial (unsharded, all-resident) path would hold: the
    /// node count is the maximum id any shard grew to cover, plus the
    /// initial sizing. Cold mailboxes are decoded straight from their
    /// checksummed records without promoting them, so an export leaves
    /// residency untouched.
    pub fn to_flat(&self) -> MailboxStore {
        let view = self.sync_view();
        let shards = view.shards.borrow();
        let s = shards.len();
        let update = shards[0].update_mode();
        let mut flat = MailboxStore::new(flat_node_count(&shards), self.slots, self.dim, update);
        for (i, g) in shards.iter().enumerate() {
            for local in 0..g.covered() {
                g.export_into_flat(&mut flat, local as NodeId, local * s + i);
            }
        }
        flat
    }

    /// Mail dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Slots per mailbox.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard holding `node`.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> usize {
        owner_shard(node, self.num_shards)
    }
}

/// A fresh per-process spill directory in the system temp dir.
fn default_spill_dir() -> PathBuf {
    static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "apan-spill-{}-{}",
        std::process::id(),
        SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The held store lock, addressed by global node id. Reads promote
/// spilled mailboxes (they just proved themselves hot); the `len`,
/// `mails_of`, `num_nodes` and `last_update` peeks never do, so
/// inspecting never changes residency.
///
/// [`MailboxRead`] reads through `&self` and a read may promote, so the
/// shards sit in a `RefCell`: the guard belongs to the one thread that
/// locked, and no method hands out a borrow that outlives its call.
pub struct StoreGuard<'a> {
    store: &'a ShardedMailboxStore,
    shards: RefCell<MutexGuard<'a, Vec<TierShard>>>,
}

impl StoreGuard<'_> {
    /// Tags the tier spans (evict, promote, cold read) recorded under
    /// this guard with `trace_id`. The lock holder is the only party
    /// that can cause tier traffic, so the attribution is exact.
    pub fn set_trace(&self, trace_id: u64) {
        self.store.stats.set_trace(trace_id);
    }

    /// Visits each `(shard, batch row, shard-local id)` of `nodes`, in
    /// batch order. A shard sees its own nodes in batch order, which is
    /// all its LRU depends on.
    fn for_each(&self, nodes: &[NodeId], mut visit: impl FnMut(&mut TierShard, usize, NodeId)) {
        let mut shards = self.shards.borrow_mut();
        for (bi, &node) in nodes.iter().enumerate() {
            let (s, local) = locate(node, shards.len());
            visit(&mut shards[s], bi, local);
        }
    }

    /// Builds the batched attention view for `nodes` as of `now`.
    /// Bitwise identical to the flat [`MailboxStore::read_batch`] on
    /// equal logical state.
    pub fn read_batch(&self, nodes: &[NodeId], now: Time) -> MailboxView {
        let (b, slots) = (nodes.len(), self.store.slots);
        let mut mails = Tensor::zeros(b * slots, self.store.dim);
        let mut lens = vec![0usize; b];
        let mut ages = vec![0.0f32; b * slots];
        self.for_each(nodes, |sub, bi, local| {
            lens[bi] = sub.read_mailbox_into(local, now, bi, &mut mails, &mut ages);
        });
        MailboxView { mails, lens, ages }
    }

    /// Gathers `z(t−)` for a batch into a `[B × d]` matrix (zeros for
    /// nodes a shard has not grown to yet), matching the flat store.
    pub fn embedding_batch(&self, nodes: &[NodeId]) -> Tensor {
        let mut out = Tensor::zeros(nodes.len(), self.store.dim);
        self.for_each(nodes, |sub, bi, local| {
            sub.copy_embedding_into(local, out.row_slice_mut(bi));
        });
        out
    }

    /// Stores new embeddings for `nodes` (rows of `z`) at time `t`.
    pub fn set_embeddings(&self, nodes: &[NodeId], z: &Tensor, t: Time) {
        assert_eq!(z.rows(), nodes.len(), "row count mismatch");
        assert_eq!(z.cols(), self.store.dim, "embedding width mismatch");
        self.for_each(nodes, |sub, bi, local| {
            sub.set_embedding(local, z.row_slice(bi), t);
        });
    }

    /// Delivers one reduced mail to `node` — same semantics as
    /// [`MailboxStore::deliver`].
    pub fn deliver(&mut self, node: NodeId, mail: &[f32], t: Time, origin: MailOrigin) {
        let (s, local) = locate(node, self.store.num_shards);
        self.shards.get_mut()[s].deliver(local, mail, t, origin);
    }

    /// Splices one *late* mail into `node`'s already-committed mailbox —
    /// same semantics as [`MailboxStore::patch_late`].
    pub fn patch_late(&mut self, node: NodeId, mail: &[f32], t: Time, origin: MailOrigin) {
        let (s, local) = locate(node, self.store.num_shards);
        self.shards.get_mut()[s].patch_late(local, mail, t, origin);
    }

    /// The shards themselves, for the propagation apply.
    pub(crate) fn shards_mut(&mut self) -> &mut [TierShard] {
        self.shards.get_mut()
    }

    /// Runs `f` on the shard holding `node` and its local id there.
    fn peek<R>(&self, node: NodeId, f: impl FnOnce(&TierShard, NodeId) -> R) -> R {
        let (s, local) = locate(node, self.store.num_shards);
        f(&self.shards.borrow()[s], local)
    }

    /// Number of valid mails in `node`'s mailbox (0 if never grown).
    pub fn len(&self, node: NodeId) -> usize {
        self.peek(node, TierShard::peek_len)
    }

    /// Whether `node`'s mailbox holds no mail.
    pub fn is_empty(&self, node: NodeId) -> bool {
        self.len(node) == 0
    }

    /// The mails of `node`, oldest first, as owned
    /// `(payload, time, origin)` triples (a cold mailbox has no
    /// in-memory slots to borrow from).
    pub fn mails_of(&self, node: NodeId) -> Vec<(Vec<f32>, Time, MailOrigin)> {
        self.peek(node, TierShard::peek_mails_of)
    }

    /// Node count the equivalent flat store would report.
    pub fn num_nodes(&self) -> usize {
        flat_node_count(&self.shards.borrow())
    }

    /// When `node` last received a new embedding (0 if never grown).
    pub fn last_update(&self, node: NodeId) -> Time {
        self.peek(node, TierShard::peek_last_update)
    }
}

impl MailboxRead for StoreGuard<'_> {
    fn read_batch(&self, nodes: &[NodeId], now: Time) -> MailboxView {
        StoreGuard::read_batch(self, nodes, now)
    }

    fn embedding_batch(&self, nodes: &[NodeId]) -> Tensor {
        StoreGuard::embedding_batch(self, nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MailboxUpdate;

    fn seeded_flat(nodes: usize) -> MailboxStore {
        let mut s = MailboxStore::new(nodes, 3, 4, MailboxUpdate::Fifo);
        for t in 0..40u32 {
            let node = (t * 7 + 3) % 23; // touches ids past `nodes` → growth
            s.deliver(
                node,
                &[t as f32, -1.0, 0.5 * t as f32, 2.0],
                t as f64,
                MailOrigin {
                    src: node,
                    dst: node + 1,
                    eid: t,
                },
            );
        }
        let z = Tensor::from_rows(&[&[9.0, 8.0, 7.0, 6.0]]);
        s.set_embeddings(&[11], &z, 40.0);
        s
    }

    fn snapshot_bytes(s: &MailboxStore) -> Vec<u8> {
        let mut buf = Vec::new();
        s.write_snapshot(&mut buf).unwrap();
        buf
    }

    #[test]
    fn flat_round_trip_is_bitwise_for_every_shard_count() {
        let flat = seeded_flat(8);
        let want = snapshot_bytes(&flat);
        for shards in [1, 2, 3, 7, 16, 64] {
            let sharded = ShardedMailboxStore::from_flat(&flat, shards);
            let back = sharded.to_flat();
            assert_eq!(snapshot_bytes(&back), want, "shards={shards}");
        }
    }

    #[test]
    fn tiered_round_trip_is_bitwise_for_every_budget() {
        let flat = seeded_flat(8);
        let want = snapshot_bytes(&flat);
        // 0 → one resident mailbox per shard; huge → everything resident
        for budget in [Some(0), Some(1 << 10), Some(1 << 30), None] {
            for shards in [1, 3, 16] {
                let sharded =
                    ShardedMailboxStore::from_flat_tiered(&flat, shards, budget, None).unwrap();
                assert_eq!(
                    snapshot_bytes(&sharded.to_flat()),
                    want,
                    "budget={budget:?} shards={shards}"
                );
                // export must not disturb residency: a second export is
                // identical too
                assert_eq!(snapshot_bytes(&sharded.to_flat()), want);
            }
        }
    }

    #[test]
    fn tiered_deliveries_and_reads_match_flat_bitwise() {
        let mut flat = seeded_flat(8);
        let sharded = ShardedMailboxStore::from_flat_tiered(&flat, 4, Some(0), None).unwrap();
        // interleave deliveries with promoting reads and embedding writes
        for t in 40..140u32 {
            let node = (t * 13 + 5) % 29;
            let mail = [t as f32, 1.0, -0.25 * t as f32, 0.5];
            flat.deliver(node, &mail, t as f64, MailOrigin::default());
            sharded
                .sync_view()
                .deliver(node, &mail, t as f64, MailOrigin::default());
            if t % 3 == 0 {
                let probe = [node, (node + 11) % 29, 200];
                let view = sharded.sync_view();
                let a = flat.read_batch(&probe, t as f64 + 1.0);
                let b = view.read_batch(&probe, t as f64 + 1.0);
                assert_eq!(a.lens, b.lens);
                assert_eq!(a.mails.data(), b.mails.data());
                assert_eq!(a.ages, b.ages);
                let za = flat.embedding_batch(&probe);
                let zb = view.embedding_batch(&probe);
                assert_eq!(za.data(), zb.data());
            }
            if t % 7 == 0 {
                let z = Tensor::from_rows(&[&[t as f32, 0.0, 1.0, 2.0]]);
                flat.set_embeddings(&[node], &z, t as f64);
                sharded.sync_view().set_embeddings(&[node], &z, t as f64);
            }
        }
        assert_eq!(snapshot_bytes(&sharded.to_flat()), snapshot_bytes(&flat));
        let stats = sharded.tier_stats();
        assert!(stats.evictions.load(std::sync::atomic::Ordering::Relaxed) > 0);
        assert!(stats.promotions.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }

    #[test]
    fn cold_bytes_counts_live_cold_records_exactly() {
        use std::sync::atomic::Ordering::Relaxed;
        // 2 shards × 1 hot slot; nodes 0..8 written once each, ascending
        let (slots, dim) = (3, 4);
        let flat = MailboxStore::new(0, slots, dim, MailboxUpdate::Fifo);
        let sharded = ShardedMailboxStore::from_flat_tiered(&flat, 2, Some(0), None).unwrap();
        let record_len = 4 + MailboxStore::node_payload_bytes(slots, dim) as u64 + 8;
        let stats = sharded.tier_stats();
        for node in 0..8u32 {
            sharded.sync_view().deliver(
                node,
                &[node as f32; 4],
                f64::from(node),
                MailOrigin::default(),
            );
        }
        // each shard keeps its newest node hot and spilled the other 3
        assert_eq!(stats.evictions.load(Relaxed), 6);
        assert_eq!(stats.cold_bytes.load(Relaxed), 6 * record_len);
        // promoting every cold node back takes its record out of the
        // count; the pools being full, each promotion spills exactly one
        // other mailbox, so the gauge ends where it started — it never
        // accumulates superseded records
        for node in 0..6u32 {
            let _ = sharded.sync_view().read_batch(&[node], 9.0);
        }
        assert_eq!(stats.promotions.load(Relaxed), 6);
        assert_eq!(stats.evictions.load(Relaxed), 12);
        assert_eq!(stats.cold_bytes.load(Relaxed), 6 * record_len);
    }

    #[test]
    fn tiered_inspection_does_not_promote() {
        let flat = seeded_flat(8);
        let sharded = ShardedMailboxStore::from_flat_tiered(&flat, 2, Some(0), None).unwrap();
        let stats = sharded.tier_stats();
        let before = stats.promotions.load(std::sync::atomic::Ordering::Relaxed);
        {
            let guard = sharded.sync_view();
            for n in 0..flat.num_nodes() as NodeId {
                assert_eq!(guard.len(n), flat.read_batch(&[n], 0.0).lens[0], "node {n}");
                assert_eq!(guard.last_update(n), flat.last_update(n));
                let got = guard.mails_of(n);
                let want = flat.mails_of(n);
                assert_eq!(got.len(), want.len());
                for ((gp, gt, go), (wp, wt, wo)) in got.iter().zip(want.iter()) {
                    assert_eq!(gp.as_slice(), *wp);
                    assert_eq!(gt, wt);
                    assert_eq!(go, wo);
                }
            }
            assert_eq!(guard.num_nodes(), flat.num_nodes());
        }
        assert_eq!(
            stats.promotions.load(std::sync::atomic::Ordering::Relaxed),
            before,
            "inspection must not change residency"
        );
    }

    #[test]
    fn sharded_growth_matches_flat_growth() {
        // deliveries through shards must reconstruct the same node count
        // the flat store would have grown to
        let mut flat = MailboxStore::new(4, 2, 2, MailboxUpdate::Fifo);
        let sharded = ShardedMailboxStore::from_flat(&flat, 5);
        for (node, t) in [(2u32, 1.0f64), (17, 2.0), (9, 3.0), (30, 4.0)] {
            let mail = [t as f32, 0.0];
            flat.deliver(node, &mail, t, MailOrigin::default());
            sharded
                .sync_view()
                .deliver(node, &mail, t, MailOrigin::default());
        }
        assert_eq!(snapshot_bytes(&sharded.to_flat()), snapshot_bytes(&flat));
        assert_eq!(sharded.sync_view().num_nodes(), flat.num_nodes());
    }

    #[test]
    fn tiered_growth_matches_flat_growth() {
        let mut flat = MailboxStore::new(4, 2, 2, MailboxUpdate::Fifo);
        let sharded = ShardedMailboxStore::from_flat_tiered(&flat, 5, Some(0), None).unwrap();
        for (node, t) in [(2u32, 1.0f64), (17, 2.0), (9, 3.0), (30, 4.0)] {
            let mail = [t as f32, 0.0];
            flat.deliver(node, &mail, t, MailOrigin::default());
            sharded
                .sync_view()
                .deliver(node, &mail, t, MailOrigin::default());
        }
        assert_eq!(snapshot_bytes(&sharded.to_flat()), snapshot_bytes(&flat));
        assert_eq!(sharded.sync_view().num_nodes(), flat.num_nodes());
    }

    #[test]
    fn read_paths_match_flat() {
        let flat = seeded_flat(8);
        let sharded = ShardedMailboxStore::from_flat(&flat, 4);
        let nodes: Vec<NodeId> = vec![3, 100, 11, 0, 22, 3];
        let guard = sharded.sync_view();
        let a = flat.read_batch(&nodes, 50.0);
        let b = guard.read_batch(&nodes, 50.0);
        assert_eq!(a.lens, b.lens);
        assert_eq!(a.mails.data(), b.mails.data());
        assert_eq!(a.ages, b.ages);
        let za = flat.embedding_batch(&nodes);
        let zb = guard.embedding_batch(&nodes);
        assert_eq!(za.data(), zb.data());
        for &n in &nodes {
            assert_eq!(guard.len(n), flat.read_batch(&[n], 0.0).lens[0]);
        }
    }

    #[test]
    fn set_embeddings_matches_flat() {
        let mut flat = seeded_flat(8);
        let sharded = ShardedMailboxStore::from_flat(&flat, 3);
        let nodes: Vec<NodeId> = vec![1, 40, 7];
        let z = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[5.0; 4], &[-1.0; 4]]);
        flat.set_embeddings(&nodes, &z, 99.0);
        sharded.sync_view().set_embeddings(&nodes, &z, 99.0);
        assert_eq!(snapshot_bytes(&sharded.to_flat()), snapshot_bytes(&flat));
    }

    #[test]
    fn env_shard_resolution_clamps() {
        assert!((1..=MAX_SHARDS).contains(&shards_from_env()));
    }
}
