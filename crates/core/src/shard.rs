//! Sharded mailbox store behind the serving pipeline.
//!
//! [`ShardedMailboxStore`] splits node state across `S` independently
//! locked shards by `node_id % S`, so concurrent deliveries to
//! different shards never contend and the synchronous encoder read path
//! only touches the shards its batch actually hits. Each shard is a
//! [`TierShard`]: a plain flat [`MailboxStore`] when no residency
//! budget is configured, or a bounded hot pool spilling its LRU tail to
//! the store's direct-mapped spill file when one is (see
//! [`crate::tier`]).
//!
//! The sharding *and* the tiering are pure layout transforms:
//! `to_flat` reconstructs a flat store byte-identical (snapshot format
//! v2 included) to what the serial all-resident path would have
//! produced, because per-node state is independent, shard-local growth
//! mirrors `ensure_node` exactly — the reconstructed node count is
//! `max(initial_n, max_touched_id + 1)` in both layouts — and a
//! mailbox's bytes round-trip losslessly through the cold tier.
//!
//! Lock discipline: multi-shard operations acquire shard mutexes in
//! ascending shard order only — which rules out lock-order inversions
//! between concurrent readers, the sync path's embedding writes, and
//! the propagation worker's shard-parallel deliveries. The spill file is
//! not a lock: shards share it through positioned I/O, each touching
//! only its own nodes' offsets under its own mutex. A poisoned lock is
//! fatal, as everywhere in the serving stack: a panic under a shard lock
//! is a bug, not a state to keep serving from.

use crate::mailbox::{MailOrigin, MailboxRead, MailboxStore, MailboxView};
use crate::tier::{ColdFile, TierShard, TierStats};
use apan_tensor::backend::pool::parse_positive;
use apan_tensor::Tensor;
use apan_tgraph::{NodeId, Time};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default shard count when `APAN_MAILBOX_SHARDS` is unset.
pub const DEFAULT_SHARDS: usize = 16;

/// Cap on `APAN_MAILBOX_SHARDS`: every shard is a mutex and a store
/// allocated at boot, so an absurd value must not abort the process.
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

/// A mailbox store split into independently locked shards by
/// `node_id % num_shards`; node `g` lives at local index `g / S` of
/// shard `g % S`.
///
/// Besides the per-shard mutexes there is an outer `sync_gate`: the
/// synchronous inference path holds it *shared* for the span of one
/// encode ([`Self::sync_view`]) while propagation commits hold it
/// *exclusive* — so an encode's `read_batch` + `embedding_batch` pair
/// observes a single consistent store state, exactly as the old global
/// `RwLock<MailboxStore>` guaranteed, without serializing concurrent
/// encodes against each other.
pub struct ShardedMailboxStore {
    sync_gate: RwLock<()>,
    shards: Vec<Mutex<TierShard>>,
    dim: usize,
    slots: usize,
    stats: Arc<TierStats>,
}

/// Node count the equivalent flat store would report: the largest
/// global id any shard has grown to cover, plus one.
fn flat_node_count(guards: &[MutexGuard<'_, TierShard>]) -> usize {
    let s = guards.len();
    guards
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
                Mutex::new(shard)
            })
            .collect();
        Ok(Self {
            sync_gate: RwLock::new(()),
            shards,
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

    /// Opens a consistent view for one synchronous inference: holds the
    /// outer gate shared, excluding propagation commits (which hold it
    /// exclusive) but not other concurrent inferences.
    pub fn sync_view(&self) -> SyncGuard<'_> {
        SyncGuard {
            _gate: self.gate_shared(),
            store: self,
        }
    }

    fn gate_shared(&self) -> RwLockReadGuard<'_, ()> {
        self.sync_gate.read().expect("sync gate poisoned")
    }

    /// Takes the outer gate exclusively for a propagation commit.
    pub(crate) fn commit_gate(&self) -> RwLockWriteGuard<'_, ()> {
        self.sync_gate.write().expect("sync gate poisoned")
    }

    /// Gathers the shards back into one flat store, byte-identical to
    /// what the serial (unsharded, all-resident) path would hold: the
    /// node count is the maximum id any shard grew to cover, plus the
    /// initial sizing. Cold mailboxes are decoded straight from their
    /// checksummed records without promoting them, so an export leaves
    /// residency untouched.
    pub fn to_flat(&self) -> MailboxStore {
        let _gate = self.gate_shared();
        let guards = self.lock_all();
        let s = self.shards.len();
        let update = guards[0].update_mode();
        let mut flat = MailboxStore::new(flat_node_count(&guards), self.slots, self.dim, update);
        for (i, g) in guards.iter().enumerate() {
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
        self.shards.len()
    }

    /// The shard holding `node`.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> usize {
        owner_shard(node, self.shards.len())
    }

    /// Locks shard `s` for delivery. The guard translates global node
    /// ids, so callers never handle shard-local indices.
    pub fn lock_shard(&self, s: usize) -> ShardGuard<'_> {
        ShardGuard {
            guard: self.shard(s),
            shard: s,
            num_shards: self.shards.len(),
        }
    }

    fn shard(&self, s: usize) -> MutexGuard<'_, TierShard> {
        self.shards[s].lock().expect("mailbox shard lock poisoned")
    }

    fn lock_all(&self) -> Vec<MutexGuard<'_, TierShard>> {
        // ascending shard order — the global lock discipline
        (0..self.shards.len()).map(|s| self.shard(s)).collect()
    }

    /// Locks every shard (ascending) for a consistent multi-node read —
    /// the inspection/debug path, not the hot path. Also holds the
    /// outer gate shared so no commit is mid-flight. Inspection never
    /// promotes: cold mailboxes are decoded in place.
    pub fn read(&self) -> StoreReadGuard<'_> {
        StoreReadGuard {
            _gate: self.gate_shared(),
            guards: self.lock_all(),
        }
    }

    /// Visits each `(batch row, shard-local id)` of `nodes` under its
    /// shard's lock: only the shards the batch touches, in ascending
    /// shard order, each locked once.
    fn for_each_by_shard(
        &self,
        nodes: &[NodeId],
        mut visit: impl FnMut(&mut TierShard, usize, NodeId),
    ) {
        let s = self.shards.len();
        let mut todo: Vec<bool> = vec![false; s];
        for &node in nodes {
            todo[node as usize % s] = true;
        }
        for (shard, _) in todo.iter().enumerate().filter(|(_, &t)| t) {
            let mut sub = self.shard(shard);
            for (bi, &node) in nodes.iter().enumerate() {
                if node as usize % s == shard {
                    visit(&mut sub, bi, node / s as NodeId);
                }
            }
        }
    }

    /// Builds the batched attention view for `nodes` as of `now`.
    /// Bitwise identical to the flat [`MailboxStore::read_batch`] on
    /// equal logical state. Reading a spilled mailbox promotes it (it
    /// just proved itself hot).
    pub fn read_batch(&self, nodes: &[NodeId], now: Time) -> MailboxView {
        let b = nodes.len();
        let mut mails = Tensor::zeros(b * self.slots, self.dim);
        let mut lens = vec![0usize; b];
        let mut ages = vec![0.0f32; b * self.slots];
        self.for_each_by_shard(nodes, |sub, bi, local| {
            lens[bi] = sub.read_mailbox_into(local, now, bi, &mut mails, &mut ages);
        });
        MailboxView { mails, lens, ages }
    }

    /// Gathers `z(t−)` for a batch into a `[B × d]` matrix (zeros for
    /// nodes a shard has not grown to yet), matching the flat store.
    pub fn embedding_batch(&self, nodes: &[NodeId]) -> Tensor {
        let mut out = Tensor::zeros(nodes.len(), self.dim);
        self.for_each_by_shard(nodes, |sub, bi, local| {
            sub.copy_embedding_into(local, out.row_slice_mut(bi));
        });
        out
    }

    /// Stores new embeddings for `nodes` (rows of `z`) at time `t`.
    pub fn set_embeddings(&self, nodes: &[NodeId], z: &Tensor, t: Time) {
        assert_eq!(z.rows(), nodes.len(), "row count mismatch");
        assert_eq!(z.cols(), self.dim, "embedding width mismatch");
        self.for_each_by_shard(nodes, |sub, bi, local| {
            sub.set_embedding(local, z.row_slice(bi), t);
        });
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

impl MailboxRead for ShardedMailboxStore {
    fn read_batch(&self, nodes: &[NodeId], now: Time) -> MailboxView {
        ShardedMailboxStore::read_batch(self, nodes, now)
    }

    fn embedding_batch(&self, nodes: &[NodeId]) -> Tensor {
        ShardedMailboxStore::embedding_batch(self, nodes)
    }
}

/// A consistent view for one synchronous inference: reads and the
/// embedding write-back all observe the same store state with respect
/// to propagation commits.
pub struct SyncGuard<'a> {
    _gate: RwLockReadGuard<'a, ()>,
    store: &'a ShardedMailboxStore,
}

impl SyncGuard<'_> {
    /// See [`ShardedMailboxStore::read_batch`].
    pub fn read_batch(&self, nodes: &[NodeId], now: Time) -> MailboxView {
        self.store.read_batch(nodes, now)
    }

    /// See [`ShardedMailboxStore::embedding_batch`].
    pub fn embedding_batch(&self, nodes: &[NodeId]) -> Tensor {
        self.store.embedding_batch(nodes)
    }

    /// See [`ShardedMailboxStore::set_embeddings`]. Safe under the
    /// shared gate: per-shard mutexes order concurrent writers.
    pub fn set_embeddings(&self, nodes: &[NodeId], z: &Tensor, t: Time) {
        self.store.set_embeddings(nodes, z, t);
    }
}

impl MailboxRead for SyncGuard<'_> {
    fn read_batch(&self, nodes: &[NodeId], now: Time) -> MailboxView {
        SyncGuard::read_batch(self, nodes, now)
    }

    fn embedding_batch(&self, nodes: &[NodeId]) -> Tensor {
        SyncGuard::embedding_batch(self, nodes)
    }
}

/// One locked shard, addressed by global node id.
pub struct ShardGuard<'a> {
    guard: MutexGuard<'a, TierShard>,
    shard: usize,
    num_shards: usize,
}

impl ShardGuard<'_> {
    /// Delivers one reduced mail to `node` (which must map to this
    /// shard) — same semantics as [`MailboxStore::deliver`].
    pub fn deliver(&mut self, node: NodeId, mail: &[f32], t: Time, origin: MailOrigin) {
        debug_assert_eq!(node as usize % self.num_shards, self.shard);
        self.guard
            .deliver(node / self.num_shards as NodeId, mail, t, origin);
    }

    /// Splices one *late* mail into `node`'s already-committed mailbox —
    /// same semantics as [`MailboxStore::patch_late`].
    pub fn patch_late(&mut self, node: NodeId, mail: &[f32], t: Time, origin: MailOrigin) {
        debug_assert_eq!(node as usize % self.num_shards, self.shard);
        self.guard
            .patch_late(node / self.num_shards as NodeId, mail, t, origin);
    }
}

/// All shards locked for a consistent read, addressed by global ids.
/// A pure inspection surface: cold mailboxes are decoded from their
/// records without promoting them, so looking never changes residency.
pub struct StoreReadGuard<'a> {
    _gate: RwLockReadGuard<'a, ()>,
    guards: Vec<MutexGuard<'a, TierShard>>,
}

impl StoreReadGuard<'_> {
    fn locate(&self, node: NodeId) -> (usize, NodeId) {
        let s = self.guards.len();
        (node as usize % s, node / s as NodeId)
    }

    /// Number of valid mails in `node`'s mailbox (0 if never grown).
    pub fn len(&self, node: NodeId) -> usize {
        let (shard, local) = self.locate(node);
        self.guards[shard].peek_len(local)
    }

    /// Whether `node`'s mailbox holds no mail.
    pub fn is_empty(&self, node: NodeId) -> bool {
        self.len(node) == 0
    }

    /// The mails of `node`, oldest first, as owned
    /// `(payload, time, origin)` triples (a cold mailbox has no
    /// in-memory slots to borrow from).
    pub fn mails_of(&self, node: NodeId) -> Vec<(Vec<f32>, Time, MailOrigin)> {
        let (shard, local) = self.locate(node);
        self.guards[shard].peek_mails_of(local)
    }

    /// Node count the equivalent flat store would report.
    pub fn num_nodes(&self) -> usize {
        flat_node_count(&self.guards)
    }

    /// When `node` last received a new embedding (0 if never grown).
    pub fn last_update(&self, node: NodeId) -> Time {
        let (shard, local) = self.locate(node);
        self.guards[shard].peek_last_update(local)
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
            sharded.lock_shard(sharded.shard_of(node)).deliver(
                node,
                &mail,
                t as f64,
                MailOrigin::default(),
            );
            if t % 3 == 0 {
                let probe = [node, (node + 11) % 29, 200];
                let a = flat.read_batch(&probe, t as f64 + 1.0);
                let b = ShardedMailboxStore::read_batch(&sharded, &probe, t as f64 + 1.0);
                assert_eq!(a.lens, b.lens);
                assert_eq!(a.mails.data(), b.mails.data());
                assert_eq!(a.ages, b.ages);
                let za = flat.embedding_batch(&probe);
                let zb = ShardedMailboxStore::embedding_batch(&sharded, &probe);
                assert_eq!(za.data(), zb.data());
            }
            if t % 7 == 0 {
                let z = Tensor::from_rows(&[&[t as f32, 0.0, 1.0, 2.0]]);
                flat.set_embeddings(&[node], &z, t as f64);
                sharded.set_embeddings(&[node], &z, t as f64);
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
            sharded.lock_shard(sharded.shard_of(node)).deliver(
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
            let _ = ShardedMailboxStore::read_batch(&sharded, &[node], 9.0);
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
            let guard = sharded.read();
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
            sharded.lock_shard(sharded.shard_of(node)).deliver(
                node,
                &mail,
                t,
                MailOrigin::default(),
            );
        }
        assert_eq!(snapshot_bytes(&sharded.to_flat()), snapshot_bytes(&flat));
        assert_eq!(sharded.read().num_nodes(), flat.num_nodes());
    }

    #[test]
    fn tiered_growth_matches_flat_growth() {
        let mut flat = MailboxStore::new(4, 2, 2, MailboxUpdate::Fifo);
        let sharded = ShardedMailboxStore::from_flat_tiered(&flat, 5, Some(0), None).unwrap();
        for (node, t) in [(2u32, 1.0f64), (17, 2.0), (9, 3.0), (30, 4.0)] {
            let mail = [t as f32, 0.0];
            flat.deliver(node, &mail, t, MailOrigin::default());
            sharded.lock_shard(sharded.shard_of(node)).deliver(
                node,
                &mail,
                t,
                MailOrigin::default(),
            );
        }
        assert_eq!(snapshot_bytes(&sharded.to_flat()), snapshot_bytes(&flat));
        assert_eq!(sharded.read().num_nodes(), flat.num_nodes());
    }

    #[test]
    fn read_paths_match_flat() {
        let flat = seeded_flat(8);
        let sharded = ShardedMailboxStore::from_flat(&flat, 4);
        let nodes: Vec<NodeId> = vec![3, 100, 11, 0, 22, 3];
        let a = flat.read_batch(&nodes, 50.0);
        let b = ShardedMailboxStore::read_batch(&sharded, &nodes, 50.0);
        assert_eq!(a.lens, b.lens);
        assert_eq!(a.mails.data(), b.mails.data());
        assert_eq!(a.ages, b.ages);
        let za = flat.embedding_batch(&nodes);
        let zb = ShardedMailboxStore::embedding_batch(&sharded, &nodes);
        assert_eq!(za.data(), zb.data());
        let guard = sharded.read();
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
        sharded.set_embeddings(&nodes, &z, 99.0);
        assert_eq!(snapshot_bytes(&sharded.to_flat()), snapshot_bytes(&flat));
    }

    #[test]
    fn env_shard_resolution_clamps() {
        assert!((1..=MAX_SHARDS).contains(&shards_from_env()));
    }
}
