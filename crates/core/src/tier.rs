//! Tiered mailbox residency: a bounded hot pool per shard over one
//! direct-mapped spill file, so mailbox state can exceed RAM.
//!
//! The paper budgets mailbox memory explicitly (§4.3) — it is the
//! storage-heavy half of the model — and the per-node activity skew of
//! real interaction streams means a small hot set receives most mail.
//! [`TierShard`] exploits that: each mailbox shard keeps at most `cap`
//! node mailboxes resident in a fixed-size [`MailboxStore`] slot pool,
//! orders them by an intrusive LRU list, and spills the least-recently
//! touched mailbox to the store's [`ColdFile`] when the pool is full.
//! Reading or delivering to a spilled node promotes it back (eviction
//! makes room first), so the hot pool always tracks the working set.
//!
//! The cold tier is as small as the problem: a mailbox is a fixed-size
//! `m × d` record and node ids are dense, so node `g`'s record lives at
//! byte offset `g × record_len` of a single file and needs no index,
//! log, or garbage collection — an eviction is one positioned write over
//! the node's previous record, a promotion one positioned read. Which
//! nodes are cold is part of each shard's residency map, not of the
//! file. The file is sparse and never longer than `num_nodes ×
//! record_len`. It is scratch space for one run: the serving snapshot
//! is the durable truth, so the file is truncated on open (a crashed
//! process's leftover is never read), removed on clean drop, and a warm
//! restart repopulates it from the restored snapshot.
//!
//! Every record is `node id | payload | FNV-1a-64 digest` and every read
//! re-checks both the digest and the id before the payload reaches the
//! hot pool, so a corrupted or misdirected record panics instead of
//! serving wrong mailbox state. Digests are FNV-1a-64 *folded over
//! 8-byte little-endian words* (remainder bytes singly) — the same
//! FNV-1a primitive as snapshot v2, folded wider because the
//! byte-serial multiply chain would otherwise dominate the eviction
//! path on multi-KB mailbox records.
//!
//! Tiering is a pure residency transform: a mailbox's bytes round-trip
//! through [`MailboxStore::export_node_bytes`] losslessly, and the LRU
//! affects only *where* a mailbox lives, never its contents — so
//! `to_flat` over a tiered store is bitwise identical to the
//! all-resident store for any budget, touch order, or thread count.
//! See DESIGN.md §6.16.

use crate::mailbox::{MailOrigin, MailboxStore};
use apan_metrics::{ObsHub, Stage};
use apan_tgraph::{NodeId, Time};
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Live counters of the tiered store, shared by every shard and scraped
/// by the serving daemon's `METRICS`/`STATS` surfaces. All zeros when
/// tiering is disabled (no budget configured).
#[derive(Debug, Default)]
pub struct TierStats {
    /// Node mailboxes currently resident in the hot pools.
    pub resident: AtomicU64,
    /// Mailboxes evicted (spilled) to the cold tier, cumulative.
    pub evictions: AtomicU64,
    /// Mailboxes promoted back from the cold tier, cumulative.
    pub promotions: AtomicU64,
    /// Bytes of live cold records: mailboxes currently spilled ×
    /// `record_len`. (The spill file itself is sparse; its logical
    /// length is bounded by `num_nodes × record_len`.)
    pub cold_bytes: AtomicU64,
    /// Observability hub installed by the serving pipeline; tier events
    /// (evict / promote / cold read) record spans through it. Unset =
    /// dormant: span helpers bail on one load, no clock read.
    obs: OnceLock<ObsHub>,
    /// Trace id of the request currently driving tier traffic (set by
    /// the sync path and the propagation worker). Best-effort
    /// attribution: concurrent sync reads and deliveries share the cell.
    trace: AtomicU64,
}

impl TierStats {
    /// Installs the hub tier spans are recorded through (the serving
    /// pipeline calls this once at boot, sharing its own hub; a second
    /// call is ignored).
    pub fn install_obs(&self, obs: ObsHub) {
        let _ = self.obs.set(obs);
    }

    /// Tags subsequent tier spans with `trace_id` (0 = untraced).
    pub fn set_trace(&self, trace_id: u64) {
        if self.obs.get().is_some() {
            self.trace.store(trace_id, Ordering::Relaxed);
        }
    }

    /// Opens a tier span: `None` (no clock read) when no hub is
    /// installed.
    fn span_start(&self) -> Option<Duration> {
        self.obs.get().map(ObsHub::stamp)
    }

    /// Closes a tier span opened by [`TierStats::span_start`].
    fn span_end(&self, started: Option<Duration>, stage: Stage) {
        if let (Some(t0), Some(obs)) = (started, self.obs.get()) {
            let t1 = obs.stamp();
            obs.stage_record(stage, self.trace.load(Ordering::Relaxed), t0, t1);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 over 8-byte little-endian words, run as **four
/// independent interleaved lanes** whose digests are FNV-folded
/// together at the end (remainder words and bytes fold into that
/// combined hash). Byte-wise FNV is a serial xor-multiply chain —
/// latency-bound at one multiply per byte; word folding cuts that 8×
/// and the four lanes let the multiplies overlap, making the walk
/// throughput-bound instead. That matters here because every eviction
/// digests and every promotion re-checks a multi-KB record. Same
/// offset-basis/prime discipline as the snapshot-v2 codec; the digest
/// value itself is private to the spill-file record format.
fn fnv1a_words(data: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(w.try_into().unwrap());
            *lane = lane.wrapping_mul(FNV_PRIME);
        }
    }
    let mut h = FNV_OFFSET;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(FNV_PRIME);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().unwrap());
        h = h.wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Name of the one spill file inside the spill directory.
const SPILL_FILE: &str = "mailboxes.spill";

/// The on-disk half of the tiered store: one file of fixed-size,
/// individually checksummed records, node `g`'s at byte offset
/// `g × record_len`. It holds no index — whether a node's record is
/// live is the owning shard's [`Residence`] entry — so it is shared
/// lock-free: positioned I/O on `&File` is thread-safe, and a shard
/// (under its own mutex) only ever touches its own nodes' offsets.
pub(crate) struct ColdFile {
    file: File,
    path: PathBuf,
    /// Remove the directory as well on drop (it was auto-created in
    /// the temp dir). The spill file itself is always removed.
    own_dir: bool,
    record_len: usize,
}

impl ColdFile {
    /// Creates the spill file under `dir` (creating `dir` if needed),
    /// truncating whatever a previous process left there: the spill is
    /// per-run and the snapshot is the durable truth, so a leftover
    /// file — intact, torn, or from another geometry — is never read.
    pub(crate) fn create(dir: &Path, slots: usize, dim: usize, own_dir: bool) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(SPILL_FILE);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Self {
            file,
            path,
            own_dir,
            record_len: 4 + MailboxStore::node_payload_bytes(slots, dim) + 8,
        })
    }

    /// Bytes per record: node id, payload, digest.
    pub(crate) fn record_len(&self) -> usize {
        self.record_len
    }

    fn offset(&self, node: u32) -> u64 {
        u64::from(node) * self.record_len as u64
    }

    /// Spills `node`'s record over its previous one. `record` arrives
    /// as `node id | payload`; the digest is appended in place and the
    /// whole record written with one positioned write. I/O failure
    /// panics: an eviction that cannot spill would otherwise silently
    /// lose committed mailbox state.
    pub(crate) fn write(&self, node: u32, record: &mut Vec<u8>) {
        debug_assert_eq!(record[..4], node.to_le_bytes());
        let digest = fnv1a_words(record);
        record.extend_from_slice(&digest.to_le_bytes());
        assert_eq!(record.len(), self.record_len, "record geometry mismatch");
        self.file
            .write_all_at(record, self.offset(node))
            .expect("cold tier write failed — cannot spill committed mailbox state");
    }

    /// Fills `buf` with `node`'s complete record and checks its digest
    /// and node id; [`Self::payload`] slices the mailbox bytes out. The
    /// caller knows the node is cold, i.e. that it wrote this offset —
    /// so a mismatch is disk corruption, and panics rather than serve.
    pub(crate) fn read(&self, node: u32, buf: &mut Vec<u8>) {
        buf.resize(self.record_len, 0);
        self.file
            .read_exact_at(buf, self.offset(node))
            .expect("cold tier read failed");
        let body_len = buf.len() - 8;
        let want = u64::from_le_bytes(buf[body_len..].try_into().unwrap());
        let got_node = u32::from_le_bytes(buf[..4].try_into().unwrap());
        assert!(
            got_node == node && fnv1a_words(&buf[..body_len]) == want,
            "cold tier record for node {node} failed its digest check (corrupt spill file)"
        );
    }

    /// The mailbox payload inside a complete record.
    pub(crate) fn payload(record: &[u8]) -> &[u8] {
        &record[4..record.len() - 8]
    }
}

impl Drop for ColdFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
        if self.own_dir {
            if let Some(dir) = self.path.parent() {
                let _ = fs::remove_dir(dir);
            }
        }
    }
}

const NONE: u32 = u32::MAX;

/// Where one shard-local node's mailbox lives.
#[derive(Clone, Copy)]
enum Residence {
    /// No state anywhere (never written): reads as zeros.
    Absent,
    /// Resident in this hot pool slot.
    Hot(u32),
    /// Spilled: its record in the [`ColdFile`] is the live copy.
    Cold,
}

/// Residency bookkeeping for one shard: where each local lives, the
/// hot slots' LRU order, and the logical node count.
struct TierState {
    /// This shard's index and the partition width: the cold file is
    /// addressed by the global node id `local * num_shards + shard`.
    shard: usize,
    num_shards: usize,
    /// local id → residence (locals past the end are `Absent`).
    map: Vec<Residence>,
    /// hot slot → local id (valid while the slot is bound).
    slot_node: Vec<u32>,
    /// Intrusive LRU list over slots; head is most-, tail is
    /// least-recently touched.
    lru_prev: Vec<u32>,
    lru_next: Vec<u32>,
    lru_head: u32,
    lru_tail: u32,
    free: Vec<u32>,
    cold: Arc<ColdFile>,
    stats: Arc<TierStats>,
    /// Reusable record buffer: an eviction builds its record here, a
    /// promotion (which makes room first) then reads its own into it.
    scratch: Vec<u8>,
}

impl TierState {
    fn new(
        cap: usize,
        shard: usize,
        num_shards: usize,
        cold: Arc<ColdFile>,
        stats: Arc<TierStats>,
    ) -> Self {
        assert!(cap >= 1, "hot pool needs at least one slot");
        Self {
            shard,
            num_shards,
            map: Vec::new(),
            slot_node: vec![NONE; cap],
            lru_prev: vec![NONE; cap],
            lru_next: vec![NONE; cap],
            lru_head: NONE,
            lru_tail: NONE,
            free: (0..cap as u32).rev().collect(),
            cold,
            stats,
            scratch: Vec::new(),
        }
    }

    #[inline]
    fn global(&self, local: NodeId) -> u32 {
        local * self.num_shards as u32 + self.shard as u32
    }

    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.lru_prev[slot as usize], self.lru_next[slot as usize]);
        if p == NONE {
            self.lru_head = n;
        } else {
            self.lru_next[p as usize] = n;
        }
        if n == NONE {
            self.lru_tail = p;
        } else {
            self.lru_prev[n as usize] = p;
        }
        self.lru_prev[slot as usize] = NONE;
        self.lru_next[slot as usize] = NONE;
    }

    fn push_mru(&mut self, slot: u32) {
        self.lru_prev[slot as usize] = NONE;
        self.lru_next[slot as usize] = self.lru_head;
        if self.lru_head != NONE {
            self.lru_prev[self.lru_head as usize] = slot;
        }
        self.lru_head = slot;
        if self.lru_tail == NONE {
            self.lru_tail = slot;
        }
    }

    fn push_lru(&mut self, slot: u32) {
        self.lru_next[slot as usize] = NONE;
        self.lru_prev[slot as usize] = self.lru_tail;
        if self.lru_tail != NONE {
            self.lru_next[self.lru_tail as usize] = slot;
        }
        self.lru_tail = slot;
        if self.lru_head == NONE {
            self.lru_head = slot;
        }
    }

    fn touch(&mut self, slot: u32) {
        if self.lru_head != slot {
            self.unlink(slot);
            self.push_mru(slot);
        }
    }

    /// Frees a hot slot, spilling the LRU victim to the cold file when
    /// the pool is full. The caller binds the returned slot — and owns
    /// re-initializing it: a promotion overwrites every field via
    /// `import_node_bytes`, a fresh bind must `clear_node` first (the
    /// evicted tenant's bytes are still in the slot).
    fn acquire_slot(&mut self, hot: &mut MailboxStore) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.lru_tail;
        debug_assert_ne!(slot, NONE, "cap ≥ 1 and free list empty ⇒ LRU nonempty");
        let victim = self.slot_node[slot as usize];
        let global = self.global(victim);
        let span = self.stats.span_start();
        self.scratch.clear();
        self.scratch.extend_from_slice(&global.to_le_bytes());
        hot.export_node_bytes(slot as usize, &mut self.scratch);
        self.cold.write(global, &mut self.scratch);
        self.stats.span_end(span, Stage::TierEvict);
        self.unlink(slot);
        self.map[victim as usize] = Residence::Cold;
        self.slot_node[slot as usize] = NONE;
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        self.stats.resident.fetch_sub(1, Ordering::Relaxed);
        self.stats
            .cold_bytes
            .fetch_add(self.cold.record_len() as u64, Ordering::Relaxed);
        slot
    }

    /// Brings cold `local` back into a hot slot (evicting to make room
    /// first): its record is read and digest-checked, imported over
    /// the slot, and bound on probation.
    fn promote(&mut self, hot: &mut MailboxStore, local: NodeId) -> u32 {
        let slot = self.acquire_slot(hot);
        let read_span = self.stats.span_start();
        self.cold.read(self.global(local), &mut self.scratch);
        self.stats.span_end(read_span, Stage::ColdRead);
        let promote_span = self.stats.span_start();
        hot.import_node_bytes(slot as usize, ColdFile::payload(&self.scratch));
        self.stats.promotions.fetch_add(1, Ordering::Relaxed);
        self.stats
            .cold_bytes
            .fetch_sub(self.cold.record_len() as u64, Ordering::Relaxed);
        self.bind_probation(local, slot);
        self.stats.span_end(promote_span, Stage::TierPromote);
        slot
    }

    fn bind(&mut self, local: NodeId, slot: u32) {
        self.map[local as usize] = Residence::Hot(slot);
        self.slot_node[slot as usize] = local;
        self.push_mru(slot);
        self.stats.resident.fetch_add(1, Ordering::Relaxed);
    }

    /// Like [`bind`](Self::bind) but inserts at the LRU **tail**:
    /// probationary placement for mailboxes refaulted from cold. A
    /// one-hit-wonder from the access distribution's tail is the next
    /// eviction victim and leaves without displacing the protected hot
    /// set; a genuinely re-warming node earns MRU on its next `touch`.
    /// Without this, each cold refault promoted straight to MRU evicts
    /// a warm node that then refaults in turn — on Zipf-skewed streams
    /// that cascade inflates misses well past the compulsory count.
    /// Purely a residency policy: stored bytes are unaffected either
    /// way.
    fn bind_probation(&mut self, local: NodeId, slot: u32) {
        self.map[local as usize] = Residence::Hot(slot);
        self.slot_node[slot as usize] = local;
        self.push_lru(slot);
        self.stats.resident.fetch_add(1, Ordering::Relaxed);
    }
}

/// One mailbox shard with optional tiered residency. With no tier
/// (`budget` unset) the inner flat [`MailboxStore`] is indexed by the
/// shard-local node id itself — bitwise and structurally the untiered
/// behavior. With a tier, the inner store is a fixed `cap`-slot pool
/// and this type maps shard-local node ids onto pool slots, promoting
/// from / evicting to the store's [`ColdFile`] as the working set moves.
/// "Where does `local` live" is answered in three places only —
/// [`Self::slot_for_write`], [`Self::slot_for_read`] and the
/// non-promoting [`Self::peek`] — and every operation goes through one
/// of them.
///
/// All methods address *shard-local* node ids; the sharded store's
/// guards translate global ids before calling in.
pub(crate) struct TierShard {
    hot: MailboxStore,
    tier: Option<TierState>,
    /// Logical shard-local node count (what an all-resident flat
    /// store's `num_nodes` would report): grows on write exactly like
    /// `ensure_node`, so `to_flat` reconstructs the same size.
    covered: usize,
}

impl TierShard {
    /// An untiered shard wrapping `hot` directly.
    pub(crate) fn flat(hot: MailboxStore) -> Self {
        Self {
            covered: hot.num_nodes(),
            hot,
            tier: None,
        }
    }

    /// A tiered shard: a `cap`-mailbox hot pool of the given geometry,
    /// covering `covered` logical nodes, spilling to `cold`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tiered(
        cap: usize,
        slots: usize,
        dim: usize,
        update: crate::config::MailboxUpdate,
        shard: usize,
        num_shards: usize,
        covered: usize,
        cold: Arc<ColdFile>,
        stats: Arc<TierStats>,
    ) -> Self {
        Self {
            hot: MailboxStore::new(cap, slots, dim, update),
            tier: Some(TierState::new(cap, shard, num_shards, cold, stats)),
            covered,
        }
    }

    /// Logical shard-local node count.
    pub(crate) fn covered(&self) -> usize {
        self.covered
    }

    pub(crate) fn update_mode(&self) -> crate::config::MailboxUpdate {
        self.hot.update_mode()
    }

    /// Where `local`'s state lives in `hot` for a write, growing the
    /// logical cover (mirroring `ensure_node`). Untiered that is the id
    /// itself; tiered it is a hot slot — the resident one, a spilled
    /// mailbox promoted back, or a fresh zeroed one — evicting the LRU
    /// victim if the pool is full.
    fn slot_for_write(&mut self, local: NodeId) -> NodeId {
        self.covered = self.covered.max(local as usize + 1);
        let Some(t) = self.tier.as_mut() else {
            self.hot.ensure_node(local);
            return local;
        };
        if t.map.len() <= local as usize {
            t.map.resize(local as usize + 1, Residence::Absent);
        }
        match t.map[local as usize] {
            Residence::Hot(slot) => {
                t.touch(slot);
                slot
            }
            Residence::Cold => t.promote(&mut self.hot, local),
            Residence::Absent => {
                let slot = t.acquire_slot(&mut self.hot);
                self.hot.clear_node(slot as usize);
                t.bind(local, slot);
                slot
            }
        }
    }

    /// Where `local`'s state lives in `hot` for a read, promoting a
    /// spilled mailbox (it just proved itself hot). A node with no
    /// state anywhere is `None` (the caller reads zeros) *without*
    /// allocating — reads never grow the store.
    fn slot_for_read(&mut self, local: NodeId) -> Option<NodeId> {
        let Some(t) = self.tier.as_mut() else {
            return ((local as usize) < self.hot.num_nodes()).then_some(local);
        };
        match t.map.get(local as usize) {
            Some(&Residence::Hot(slot)) => {
                t.touch(slot);
                Some(slot)
            }
            Some(Residence::Cold) => Some(t.promote(&mut self.hot, local)),
            Some(Residence::Absent) | None => None,
        }
    }

    /// Runs `f` over `local`'s state *without promoting* — inspection
    /// and export must not disturb residency. A resident mailbox is
    /// read in place, a cold one is decoded from its checksummed record
    /// into a standalone single-node store; `None` for a node with no
    /// state anywhere.
    fn peek<R>(&self, local: NodeId, f: impl FnOnce(&MailboxStore, NodeId) -> R) -> Option<R> {
        let Some(t) = self.tier.as_ref() else {
            return ((local as usize) < self.hot.num_nodes()).then(|| f(&self.hot, local));
        };
        match t.map.get(local as usize) {
            Some(&Residence::Hot(slot)) => Some(f(&self.hot, slot)),
            Some(Residence::Cold) => {
                let mut record = Vec::new();
                t.cold.read(t.global(local), &mut record);
                let mut one =
                    MailboxStore::new(1, self.hot.slots(), self.hot.dim(), self.update_mode());
                one.import_node_bytes(0, ColdFile::payload(&record));
                Some(f(&one, 0))
            }
            Some(Residence::Absent) | None => None,
        }
    }

    pub(crate) fn deliver(&mut self, local: NodeId, mail: &[f32], t: Time, origin: MailOrigin) {
        let slot = self.slot_for_write(local);
        self.hot.deliver(slot, mail, t, origin);
    }

    pub(crate) fn patch_late(&mut self, local: NodeId, mail: &[f32], t: Time, origin: MailOrigin) {
        let slot = self.slot_for_write(local);
        self.hot.patch_late(slot, mail, t, origin);
    }

    pub(crate) fn set_embedding(&mut self, local: NodeId, row: &[f32], t: Time) {
        let slot = self.slot_for_write(local);
        self.hot.set_embedding(slot, row, t);
    }

    /// See [`MailboxStore::read_mailbox_into`]; promotes a spilled
    /// mailbox before reading it.
    pub(crate) fn read_mailbox_into(
        &mut self,
        local: NodeId,
        now: Time,
        bi: usize,
        mails: &mut apan_tensor::Tensor,
        ages: &mut [f32],
    ) -> usize {
        match self.slot_for_read(local) {
            Some(slot) => self.hot.read_mailbox_into(slot, now, bi, mails, ages),
            None => 0,
        }
    }

    /// Copies `local`'s last embedding into `out` (left untouched —
    /// zeros — for a node with no state); promotes a spilled mailbox.
    pub(crate) fn copy_embedding_into(&mut self, local: NodeId, out: &mut [f32]) {
        if let Some(slot) = self.slot_for_read(local) {
            out.copy_from_slice(self.hot.embedding(slot));
        }
    }

    /// Scatters one node's state from a flat store into this shard
    /// (`from_flat` construction). Untouched (all-zero) nodes are
    /// skipped — they are representable as "no state anywhere", so a
    /// freshly sized boot store never floods the cold tier with empty
    /// mailboxes (and an untiered shard is born zeroed anyway).
    pub(crate) fn import_node(&mut self, local: NodeId, flat: &MailboxStore, flat_node: usize) {
        if flat.node_is_zero(flat_node) {
            return;
        }
        let slot = self.slot_for_write(local);
        self.hot.copy_node_from(slot as usize, flat, flat_node);
    }

    /// Gathers one node's state into `flat[global_dst]` without
    /// promoting — the `to_flat` / snapshot-export path. A node with no
    /// state anywhere stays zeros.
    pub(crate) fn export_into_flat(
        &self,
        flat: &mut MailboxStore,
        local: NodeId,
        global_dst: usize,
    ) {
        self.peek(local, |state, n| {
            flat.copy_node_from(global_dst, state, n as usize)
        });
    }

    /// Mail count of `local` without promoting (0 if no state).
    pub(crate) fn peek_len(&self, local: NodeId) -> usize {
        self.peek(local, MailboxStore::len).unwrap_or(0)
    }

    /// Mails of `local`, oldest first, owned, without promoting.
    pub(crate) fn peek_mails_of(&self, local: NodeId) -> Vec<(Vec<f32>, Time, MailOrigin)> {
        self.peek(local, |state, n| {
            state
                .mails_of(n)
                .into_iter()
                .map(|(m, t, o)| (m.to_vec(), t, o))
                .collect()
        })
        .unwrap_or_default()
    }

    /// Last embedding-update time of `local` without promoting.
    pub(crate) fn peek_last_update(&self, local: NodeId) -> Time {
        self.peek(local, MailboxStore::last_update).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MailboxUpdate;
    use std::sync::atomic::AtomicU32;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "apan-tier-test-{}-{}-{}",
            tag,
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// A single-shard tiered store of `cap` hot slots spilling under
    /// `dir` (so global id = local id; the dir goes with the store, even
    /// on a panic), plus its counters.
    fn tiered_shard(
        dir: &Path,
        cap: usize,
        slots: usize,
        dim: usize,
    ) -> (TierShard, Arc<TierStats>) {
        let stats = Arc::new(TierStats::default());
        let cold = Arc::new(ColdFile::create(dir, slots, dim, true).unwrap());
        let update = MailboxUpdate::Fifo;
        let shard = TierShard::tiered(cap, slots, dim, update, 0, 1, 0, cold, Arc::clone(&stats));
        (shard, stats)
    }

    /// `node id | payload` of a one-mail mailbox, ready for
    /// [`ColdFile::write`], and the bare payload to compare reads with.
    fn record_for(node: u32, value: f32, slots: usize, dim: usize) -> (Vec<u8>, Vec<u8>) {
        let mut s = MailboxStore::new(1, slots, dim, MailboxUpdate::Fifo);
        s.deliver(
            0,
            &vec![value; dim],
            f64::from(value),
            MailOrigin::default(),
        );
        let mut payload = Vec::new();
        s.export_node_bytes(0, &mut payload);
        let mut record = node.to_le_bytes().to_vec();
        record.extend_from_slice(&payload);
        (record, payload)
    }

    fn deliver(shard: &mut TierShard, local: NodeId, value: f32) {
        let dim = shard.hot.dim();
        shard.deliver(
            local,
            &vec![value; dim],
            f64::from(value),
            MailOrigin::default(),
        );
    }

    #[test]
    fn cold_file_round_trips_write_read_overwrite_and_re_evict() {
        let dir = temp_dir("basic");
        let cold = ColdFile::create(&dir, 2, 3, true).unwrap();
        let mut buf = Vec::new();
        let (mut a, pa) = record_for(7, 1.0, 2, 3);
        let (mut b, pb) = record_for(9, 2.0, 2, 3);
        cold.write(7, &mut a);
        cold.write(9, &mut b);
        cold.read(7, &mut buf);
        assert_eq!(ColdFile::payload(&buf), pa);
        cold.read(9, &mut buf);
        assert_eq!(ColdFile::payload(&buf), pb);
        // an eviction overwrites the node's previous record in place…
        let (mut a2, pa2) = record_for(7, 3.0, 2, 3);
        cold.write(7, &mut a2);
        cold.read(7, &mut buf);
        assert_eq!(ColdFile::payload(&buf), pa2);
        // …without disturbing its neighbours, and a record read back
        // (promotion) can be spilled again unchanged (re-eviction)
        cold.read(9, &mut buf);
        buf.truncate(buf.len() - 8);
        cold.write(9, &mut buf);
        cold.read(9, &mut buf);
        assert_eq!(ColdFile::payload(&buf), pb);
        // direct-mapped: node 9 is the highest offset ever written
        let len = fs::metadata(dir.join(SPILL_FILE)).unwrap().len();
        assert_eq!(len, 10 * cold.record_len() as u64);
        drop(cold);
        assert!(!dir.exists(), "an owned spill dir is removed on drop");
    }

    #[test]
    #[should_panic(expected = "failed its digest check")]
    fn flipped_byte_under_a_cold_node_panics_on_promotion() {
        let dir = temp_dir("corrupt");
        let (mut shard, _stats) = tiered_shard(&dir, 1, 2, 3);
        deliver(&mut shard, 0, 1.0);
        deliver(&mut shard, 1, 2.0); // cap 1: spills local 0
        let mut bytes = fs::read(dir.join(SPILL_FILE)).unwrap();
        bytes[10] ^= 0xFF; // inside node 0's payload
        fs::write(dir.join(SPILL_FILE), bytes).unwrap();
        deliver(&mut shard, 0, 3.0); // must panic, never serve the bytes
    }

    #[test]
    #[should_panic(expected = "failed its digest check")]
    fn record_carrying_another_nodes_id_panics_on_promotion() {
        let dir = temp_dir("misdirected");
        let (mut shard, _stats) = tiered_shard(&dir, 1, 2, 3);
        for local in 0..3 {
            deliver(&mut shard, local, local as f32 + 1.0); // spills 0 and 1
        }
        // node 1's record — intact, digest and all — lands on node 0's
        // offset, as a misdirected write would leave it
        let rl = shard.tier.as_ref().unwrap().cold.record_len();
        let mut bytes = fs::read(dir.join(SPILL_FILE)).unwrap();
        bytes.copy_within(rl..2 * rl, 0);
        fs::write(dir.join(SPILL_FILE), bytes).unwrap();
        let mut ages = [0.0f32; 2];
        let mut mails = apan_tensor::Tensor::zeros(2, 3);
        shard.read_mailbox_into(0, 9.0, 0, &mut mails, &mut ages);
    }

    #[test]
    fn open_over_any_leftover_file_starts_empty_and_serves_nothing_from_it() {
        // what a killed process leaves behind: its spill file, intact…
        let intact = |slots, dim| {
            let dir = temp_dir("leftover-src");
            let (mut shard, _stats) = tiered_shard(&dir, 1, slots, dim);
            for local in 0..6 {
                deliver(&mut shard, local, local as f32 + 1.0);
            }
            fs::read(dir.join(SPILL_FILE)).unwrap()
        };
        let same_geometry = intact(2, 3);
        let torn = same_geometry[..same_geometry.len() - 7].to_vec(); // mid-record
        let other_geometry = intact(4, 8);
        let garbage = vec![0xA5u8; 1000];
        for leftover in [same_geometry, torn, other_geometry, garbage] {
            let dir = temp_dir("leftover");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(SPILL_FILE), &leftover).unwrap();
            let (mut shard, stats) = tiered_shard(&dir, 1, 2, 3);
            assert_eq!(fs::metadata(dir.join(SPILL_FILE)).unwrap().len(), 0);
            // nothing is cold: every node the leftover had a record for
            // reads as "no state anywhere", through every read surface
            let mut ages = [0.0f32; 2];
            let mut mails = apan_tensor::Tensor::zeros(2, 3);
            for local in 0..6 {
                assert_eq!(shard.peek_len(local), 0);
                assert_eq!(
                    shard.read_mailbox_into(local, 9.0, 0, &mut mails, &mut ages),
                    0
                );
            }
            assert_eq!(stats.promotions.load(Ordering::Relaxed), 0);
            assert_eq!(stats.cold_bytes.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn steady_state_churn_keeps_exactly_one_bounded_spill_file() {
        use std::os::unix::fs::MetadataExt;
        let dir = temp_dir("one-file");
        let (cap, locals) = (2usize, 16u32);
        let (mut shard, stats) = tiered_shard(&dir, cap, 3, 4);
        let ino = fs::metadata(dir.join(SPILL_FILE)).unwrap().ino();
        let mut t = 0u32;
        while stats.evictions.load(Ordering::Relaxed) < 10 * cap as u64 * u64::from(locals) {
            deliver(&mut shard, (t * 7 + 3) % locals, t as f32);
            t += 1;
        }
        let files: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(files.len(), 1, "the spill directory holds one file");
        let meta = files[0].metadata().unwrap();
        assert!(meta.is_file());
        // the file created at construction, never unlinked or recreated
        assert_eq!(meta.ino(), ino);
        let rl = shard.tier.as_ref().unwrap().cold.record_len();
        assert!(meta.len() <= (shard.covered() * rl) as u64);
    }

    #[test]
    fn tiered_shard_matches_flat_under_churn() {
        let dir = temp_dir("shard");
        let (slots, dim) = (3, 4);
        let stats = Arc::new(TierStats::default());
        let cold = Arc::new(ColdFile::create(&dir, slots, dim, false).unwrap());
        // cap 2 forces constant eviction/promotion over 8 locals
        let mut tiered = TierShard::tiered(
            2,
            slots,
            dim,
            MailboxUpdate::Fifo,
            0,
            1,
            0,
            cold,
            Arc::clone(&stats),
        );
        let mut flat = TierShard::flat(MailboxStore::new(0, slots, dim, MailboxUpdate::Fifo));
        for t in 0..200u32 {
            let local = (t * 7 + 3) % 8;
            let mail: Vec<f32> = (0..dim).map(|d| (t + d as u32) as f32).collect();
            tiered.deliver(local, &mail, f64::from(t), MailOrigin::default());
            flat.deliver(local, &mail, f64::from(t), MailOrigin::default());
            if t % 5 == 0 {
                tiered.set_embedding(local, &mail, f64::from(t));
                flat.set_embedding(local, &mail, f64::from(t));
            }
        }
        assert_eq!(tiered.covered(), flat.covered());
        assert!(stats.evictions.load(Ordering::Relaxed) > 0);
        assert!(stats.promotions.load(Ordering::Relaxed) > 0);
        assert_eq!(stats.resident.load(Ordering::Relaxed), 2);
        let mut a = MailboxStore::new(tiered.covered(), slots, dim, MailboxUpdate::Fifo);
        let mut b = MailboxStore::new(flat.covered(), slots, dim, MailboxUpdate::Fifo);
        for local in 0..tiered.covered() as NodeId {
            tiered.export_into_flat(&mut a, local, local as usize);
            flat.export_into_flat(&mut b, local, local as usize);
            // the peek accessors agree with the flat shard too
            assert_eq!(tiered.peek_len(local), flat.peek_len(local));
            assert_eq!(tiered.peek_mails_of(local), flat.peek_mails_of(local));
            assert_eq!(tiered.peek_last_update(local), flat.peek_last_update(local));
        }
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        a.write_snapshot(&mut ba).unwrap();
        b.write_snapshot(&mut bb).unwrap();
        assert_eq!(ba, bb);
        drop(tiered);
        let _ = fs::remove_dir_all(&dir);
    }
}
