//! The per-node mailbox store — APAN's node-local serving state.
//!
//! Each node owns: a FIFO ring of `m` mail slots (each a `d`-vector plus a
//! timestamp and an origin tag), its last updated embedding `z(t−)`, and
//! its last-update time. The synchronous inference link reads *only* this
//! state — never the graph — which is the whole point of the architecture.

use crate::config::MailboxUpdate;
use apan_tensor::Tensor;
use apan_tgraph::{EventId, NodeId, Time};
use std::io::{self, Read, Write};

/// Fixed-width numeric copies for the tier record codec. Each pairs one
/// value with one same-size byte chunk, which LLVM lowers to a straight
/// `memcpy` on little-endian targets — the eviction/promotion paths run
/// these over multi-KB payloads, where per-element pushes would cost
/// microseconds.
fn put_f32s(dst: &mut [u8], vals: &[f32]) {
    for (c, v) in dst.chunks_exact_mut(4).zip(vals) {
        c.copy_from_slice(&v.to_le_bytes());
    }
}

fn put_f64s(dst: &mut [u8], vals: &[f64]) {
    for (c, v) in dst.chunks_exact_mut(8).zip(vals) {
        c.copy_from_slice(&v.to_le_bytes());
    }
}

fn get_f32s(dst: &mut [f32], src: &[u8]) {
    for (v, c) in dst.iter_mut().zip(src.chunks_exact(4)) {
        *v = f32::from_le_bytes(c.try_into().unwrap());
    }
}

fn get_f64s(dst: &mut [f64], src: &[u8]) {
    for (v, c) in dst.iter_mut().zip(src.chunks_exact(8)) {
        *v = f64::from_le_bytes(c.try_into().unwrap());
    }
}

/// Which interaction generated a mail — kept for interpretability (§3.6).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MailOrigin {
    /// Source node of the originating interaction.
    pub src: NodeId,
    /// Destination node of the originating interaction.
    pub dst: NodeId,
    /// Originating event id.
    pub eid: EventId,
}

/// A batched, attention-ready view of a set of mailboxes.
pub struct MailboxView {
    /// `[B·m × d]` mail matrix, grouped per node, oldest slot first,
    /// zero-padded past each node's length.
    pub mails: Tensor,
    /// Valid slot count per node (`≤ m`).
    pub lens: Vec<usize>,
    /// Age (`now − mail time`) per slot, `[B·m]`, zero for padding.
    pub ages: Vec<f32>,
}

/// The read surface the encoder needs from a mailbox store.
///
/// Implemented by the flat [`MailboxStore`] (training, replay) and the
/// sharded serving store ([`crate::shard::ShardedMailboxStore`]); both
/// produce bitwise-identical views for the same logical state, so
/// `Apan::encode` is generic over this trait.
pub trait MailboxRead {
    /// Builds the batched attention view for `nodes` as of time `now`.
    fn read_batch(&self, nodes: &[NodeId], now: Time) -> MailboxView;
    /// Gathers `z(t−)` for a batch into a `[B × d]` matrix.
    fn embedding_batch(&self, nodes: &[NodeId]) -> Tensor;
}

/// Mailboxes, last embeddings, and last-update times for every node.
#[derive(Clone)]
pub struct MailboxStore {
    dim: usize,
    slots: usize,
    update: MailboxUpdate,
    mails: Vec<f32>,       // [nodes × slots × dim]
    mail_times: Vec<Time>, // [nodes × slots]
    origins: Vec<MailOrigin>,
    lens: Vec<u8>,
    heads: Vec<u8>,       // ring index of the oldest slot
    embeddings: Vec<f32>, // [nodes × dim]
    last_update: Vec<Time>,
}

impl MailboxStore {
    /// Creates a store for `num_nodes` nodes with `slots` mail slots of
    /// width `dim` each.
    pub fn new(num_nodes: usize, slots: usize, dim: usize, update: MailboxUpdate) -> Self {
        assert!(slots > 0 && slots <= u8::MAX as usize, "1 ≤ slots ≤ 255");
        assert!(dim > 0, "dim must be positive");
        Self {
            dim,
            slots,
            update,
            mails: vec![0.0; num_nodes * slots * dim],
            mail_times: vec![0.0; num_nodes * slots],
            origins: vec![MailOrigin::default(); num_nodes * slots],
            lens: vec![0; num_nodes],
            heads: vec![0; num_nodes],
            embeddings: vec![0.0; num_nodes * dim],
            last_update: vec![0.0; num_nodes],
        }
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.lens.len()
    }

    /// Mail dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Slots per mailbox.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Grows the store to cover node ids up to `id`.
    pub fn ensure_node(&mut self, id: NodeId) {
        let need = id as usize + 1;
        if self.lens.len() < need {
            self.mails.resize(need * self.slots * self.dim, 0.0);
            self.mail_times.resize(need * self.slots, 0.0);
            self.origins
                .resize(need * self.slots, MailOrigin::default());
            self.lens.resize(need, 0);
            self.heads.resize(need, 0);
            self.embeddings.resize(need * self.dim, 0.0);
            self.last_update.resize(need, 0.0);
        }
    }

    /// Number of valid mails in `node`'s mailbox.
    pub fn len(&self, node: NodeId) -> usize {
        self.lens[node as usize] as usize
    }

    /// Whether `node`'s mailbox holds no mail.
    pub fn is_empty(&self, node: NodeId) -> bool {
        self.len(node) == 0
    }

    /// Delivers one (already reduced) mail to `node`'s mailbox at time `t`
    /// (ψ in Eq. 6: FIFO enqueue with eviction, or overwrite).
    ///
    /// # Panics
    /// Panics if `mail.len() != dim`.
    pub fn deliver(&mut self, node: NodeId, mail: &[f32], t: Time, origin: MailOrigin) {
        assert_eq!(mail.len(), self.dim, "mail width mismatch");
        self.ensure_node(node);
        let n = node as usize;
        let slot = match self.update {
            MailboxUpdate::Overwrite => {
                self.lens[n] = 1;
                self.heads[n] = 0;
                0
            }
            MailboxUpdate::Fifo => {
                if (self.lens[n] as usize) < self.slots {
                    let s = (self.heads[n] as usize + self.lens[n] as usize) % self.slots;
                    self.lens[n] += 1;
                    s
                } else {
                    // full: overwrite the oldest and advance the head
                    let s = self.heads[n] as usize;
                    self.heads[n] = ((s + 1) % self.slots) as u8;
                    s
                }
            }
            MailboxUpdate::ContentAddressed => {
                if (self.lens[n] as usize) < self.slots {
                    let s = self.lens[n] as usize; // head stays 0 in this mode
                    self.lens[n] += 1;
                    s
                } else {
                    // full: overwrite the most similar stored mail, keeping
                    // the mailbox a diverse summary of the history
                    self.most_similar_slot(n, mail)
                }
            }
        };
        let base = (n * self.slots + slot) * self.dim;
        self.mails[base..base + self.dim].copy_from_slice(mail);
        self.mail_times[n * self.slots + slot] = t;
        self.origins[n * self.slots + slot] = origin;
    }

    /// Splices one *late* mail (a timestamp at or before mails already
    /// delivered) into `node`'s mailbox so the resulting state — physical
    /// slot layout and ring head included — is bitwise identical to
    /// having delivered the node's whole mail stream in time-sorted
    /// order. Timestamp ties land *after* stored equal-time mails
    /// (stored mails arrived earlier; time-sorted replay breaks ties by
    /// arrival).
    ///
    /// Mode semantics:
    /// - `Fifo`: the merged time-sorted list keeps its newest `slots`
    ///   entries; when the splice overflows the ring the head advances
    ///   exactly as one more in-order delivery would have — even when the
    ///   late mail itself is the entry evicted (the content is unchanged
    ///   but the head still rotates, matching the sorted replay).
    /// - `Overwrite`: last-writer-wins in time order; the late mail is
    ///   stored only if its time is at or past the stored mail's.
    /// - `ContentAddressed` below capacity: time-sorted splice (the full
    ///   replay would have appended in sorted order). At capacity the
    ///   most-similar eviction is order-dependent and cannot be patched
    ///   exactly; the mail is delivered best-effort (see DESIGN.md).
    ///
    /// # Panics
    /// Panics if `mail.len() != dim`.
    pub fn patch_late(&mut self, node: NodeId, mail: &[f32], t: Time, origin: MailOrigin) {
        assert_eq!(mail.len(), self.dim, "mail width mismatch");
        self.ensure_node(node);
        let n = node as usize;
        if self.update == MailboxUpdate::Overwrite {
            if self.lens[n] == 0 || self.mail_times[n * self.slots] <= t {
                self.deliver(node, mail, t, origin);
            }
            return;
        }
        if self.update == MailboxUpdate::ContentAddressed && self.lens[n] as usize >= self.slots {
            // full CA ring: eviction is similarity- and order-dependent;
            // exact patching is impossible, deliver best-effort instead
            self.deliver(node, mail, t, origin);
            return;
        }
        // materialize the logical (oldest-first) list, splice, rewrite
        let mut list: Vec<(Vec<f32>, Time, MailOrigin)> = self
            .mails_of(node)
            .into_iter()
            .map(|(m, mt, o)| (m.to_vec(), mt, o))
            .collect();
        let pos = list.iter().take_while(|(_, mt, _)| *mt <= t).count();
        list.insert(pos, (mail.to_vec(), t, origin));
        let head = self.heads[n] as usize;
        let (new_head, start) = if list.len() > self.slots {
            // one more delivery than the ring holds: drop the merged
            // list's oldest entry and advance the head, exactly as the
            // sorted replay's eviction would have (Fifo only — CA full
            // was handled above, and CA keeps head 0 below capacity)
            ((head + 1) % self.slots, 1)
        } else {
            (head, 0)
        };
        self.heads[n] = new_head as u8;
        let kept = &list[start..];
        self.lens[n] = kept.len() as u8;
        for (i, (m, mt, o)) in kept.iter().enumerate() {
            let slot = (new_head + i) % self.slots;
            let base = (n * self.slots + slot) * self.dim;
            self.mails[base..base + self.dim].copy_from_slice(m);
            self.mail_times[n * self.slots + slot] = *mt;
            self.origins[n * self.slots + slot] = *o;
        }
    }

    /// The ring slot of node `n` whose payload has the highest cosine
    /// similarity to `mail` (ties and degenerate norms resolve to the
    /// lowest slot index).
    fn most_similar_slot(&self, n: usize, mail: &[f32]) -> usize {
        let mut best = 0usize;
        let mut best_sim = f32::NEG_INFINITY;
        let mail_norm = mail.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-12);
        for s in 0..self.slots {
            let base = (n * self.slots + s) * self.dim;
            let stored = &self.mails[base..base + self.dim];
            let dot: f32 = stored.iter().zip(mail).map(|(a, b)| a * b).sum();
            let norm = stored.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-12);
            let sim = dot / (norm * mail_norm);
            if sim > best_sim {
                best_sim = sim;
                best = s;
            }
        }
        best
    }

    /// The mails of `node`, oldest first, as `(payload, time, origin)`.
    pub fn mails_of(&self, node: NodeId) -> Vec<(&[f32], Time, MailOrigin)> {
        let n = node as usize;
        let len = self.lens[n] as usize;
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            let slot = (self.heads[n] as usize + i) % self.slots;
            let base = (n * self.slots + slot) * self.dim;
            out.push((
                &self.mails[base..base + self.dim],
                self.mail_times[n * self.slots + slot],
                self.origins[n * self.slots + slot],
            ));
        }
        out
    }

    /// Builds the batched attention view for `nodes` as of time `now`.
    pub fn read_batch(&self, nodes: &[NodeId], now: Time) -> MailboxView {
        let b = nodes.len();
        let mut mails = Tensor::zeros(b * self.slots, self.dim);
        let mut lens = Vec::with_capacity(b);
        let mut ages = vec![0.0f32; b * self.slots];
        for (bi, &node) in nodes.iter().enumerate() {
            lens.push(self.read_mailbox_into(node, now, bi, &mut mails, &mut ages));
        }
        MailboxView { mails, lens, ages }
    }

    /// Copies `node`'s mails and ages into batch position `bi` of a view
    /// under construction, returning the mail count. Shared by the flat
    /// and sharded `read_batch` so both produce identical views.
    pub(crate) fn read_mailbox_into(
        &self,
        node: NodeId,
        now: Time,
        bi: usize,
        mails: &mut Tensor,
        ages: &mut [f32],
    ) -> usize {
        let n = node as usize;
        let len = if n < self.lens.len() {
            self.lens[n] as usize
        } else {
            0
        };
        for i in 0..len {
            let slot = (self.heads[n] as usize + i) % self.slots;
            let src = (n * self.slots + slot) * self.dim;
            let row = bi * self.slots + i;
            mails
                .row_slice_mut(row)
                .copy_from_slice(&self.mails[src..src + self.dim]);
            ages[row] = (now - self.mail_times[n * self.slots + slot]).max(0.0) as f32;
        }
        len
    }

    /// The last updated embedding `z(t−)` of `node` (zeros if never set).
    pub fn embedding(&self, node: NodeId) -> &[f32] {
        let n = node as usize;
        &self.embeddings[n * self.dim..(n + 1) * self.dim]
    }

    /// Gathers `z(t−)` for a batch into a `[B × d]` matrix.
    pub fn embedding_batch(&self, nodes: &[NodeId]) -> Tensor {
        let mut out = Tensor::zeros(nodes.len(), self.dim);
        for (bi, &node) in nodes.iter().enumerate() {
            let n = node as usize;
            if n < self.lens.len() {
                out.row_slice_mut(bi)
                    .copy_from_slice(&self.embeddings[n * self.dim..(n + 1) * self.dim]);
            }
        }
        out
    }

    /// Stores new embeddings for `nodes` (rows of `z`) at time `t`.
    pub fn set_embeddings(&mut self, nodes: &[NodeId], z: &Tensor, t: Time) {
        assert_eq!(z.rows(), nodes.len(), "row count mismatch");
        assert_eq!(z.cols(), self.dim, "embedding width mismatch");
        for (bi, &node) in nodes.iter().enumerate() {
            self.set_embedding(node, z.row_slice(bi), t);
        }
    }

    /// Stores one node's embedding row at time `t`, growing on demand.
    pub(crate) fn set_embedding(&mut self, node: NodeId, row: &[f32], t: Time) {
        debug_assert_eq!(row.len(), self.dim);
        self.ensure_node(node);
        let n = node as usize;
        self.embeddings[n * self.dim..(n + 1) * self.dim].copy_from_slice(row);
        self.last_update[n] = t;
    }

    /// The configured update policy (ψ mode) of this store.
    pub(crate) fn update_mode(&self) -> MailboxUpdate {
        self.update
    }

    /// Copies the complete per-node state (mails, times, origins, ring
    /// indices, embedding, last-update) of `src_node` in `src` into
    /// `dst_node` of `self`. Both stores must share slots/dim geometry.
    /// Used by the sharded store to scatter/gather nodes without going
    /// through the snapshot codec.
    pub(crate) fn copy_node_from(&mut self, dst_node: usize, src: &MailboxStore, src_node: usize) {
        debug_assert_eq!(self.slots, src.slots);
        debug_assert_eq!(self.dim, src.dim);
        debug_assert!(dst_node < self.lens.len() && src_node < src.lens.len());
        let (sd, ss) = (self.dim, self.slots);
        self.mails[dst_node * ss * sd..(dst_node + 1) * ss * sd]
            .copy_from_slice(&src.mails[src_node * ss * sd..(src_node + 1) * ss * sd]);
        self.mail_times[dst_node * ss..(dst_node + 1) * ss]
            .copy_from_slice(&src.mail_times[src_node * ss..(src_node + 1) * ss]);
        self.origins[dst_node * ss..(dst_node + 1) * ss]
            .copy_from_slice(&src.origins[src_node * ss..(src_node + 1) * ss]);
        self.lens[dst_node] = src.lens[src_node];
        self.heads[dst_node] = src.heads[src_node];
        self.embeddings[dst_node * sd..(dst_node + 1) * sd]
            .copy_from_slice(&src.embeddings[src_node * sd..(src_node + 1) * sd]);
        self.last_update[dst_node] = src.last_update[src_node];
    }

    /// When `node` last received a new embedding.
    pub fn last_update(&self, node: NodeId) -> Time {
        self.last_update[node as usize]
    }

    /// Bytes one node's complete state occupies in the tier codec for a
    /// given geometry — the sizing unit `mailbox_budget` is divided by
    /// when computing hot-pool capacities (public so benches and
    /// capacity planning can express budgets in working-set fractions).
    pub fn node_payload_bytes(slots: usize, dim: usize) -> usize {
        // mails + mail_times + origins + len + head + embedding + last_update
        slots * dim * 4 + slots * 8 + slots * 12 + 2 + dim * 4 + 8
    }

    /// Appends `node`'s complete state (mails, times, origins, ring
    /// indices, embedding, last-update) to `out` in a fixed-size
    /// little-endian layout — the record payload of the cold mailbox
    /// tier. [`Self::import_node_bytes`] is the exact inverse.
    ///
    /// Runs on every eviction, so the numeric sections move through
    /// fixed-width chunk copies (which lower to `memcpy` on
    /// little-endian targets) rather than per-element pushes.
    pub(crate) fn export_node_bytes(&self, node: usize, out: &mut Vec<u8>) {
        debug_assert!(node < self.lens.len());
        let (d, s) = (self.dim, self.slots);
        let start = out.len();
        out.resize(start + Self::node_payload_bytes(s, d), 0);
        let buf = &mut out[start..];
        let (mails_b, rest) = buf.split_at_mut(s * d * 4);
        let (times_b, rest) = rest.split_at_mut(s * 8);
        let (orig_b, rest) = rest.split_at_mut(s * 12);
        let (len_b, rest) = rest.split_at_mut(2);
        let (emb_b, last_b) = rest.split_at_mut(d * 4);
        put_f32s(mails_b, &self.mails[node * s * d..(node + 1) * s * d]);
        put_f64s(times_b, &self.mail_times[node * s..(node + 1) * s]);
        for (c, o) in orig_b
            .chunks_exact_mut(12)
            .zip(&self.origins[node * s..(node + 1) * s])
        {
            c[..4].copy_from_slice(&o.src.to_le_bytes());
            c[4..8].copy_from_slice(&o.dst.to_le_bytes());
            c[8..].copy_from_slice(&o.eid.to_le_bytes());
        }
        len_b[0] = self.lens[node];
        len_b[1] = self.heads[node];
        put_f32s(emb_b, &self.embeddings[node * d..(node + 1) * d]);
        last_b.copy_from_slice(&self.last_update[node].to_le_bytes());
    }

    /// Overwrites `node`'s state from a payload written by
    /// [`Self::export_node_bytes`] on a store of the same geometry.
    ///
    /// # Panics
    /// Panics if the payload length does not match the geometry.
    pub(crate) fn import_node_bytes(&mut self, node: usize, payload: &[u8]) {
        let (d, s) = (self.dim, self.slots);
        assert_eq!(
            payload.len(),
            Self::node_payload_bytes(s, d),
            "cold record payload does not match store geometry"
        );
        debug_assert!(node < self.lens.len());
        let (mails_b, rest) = payload.split_at(s * d * 4);
        let (times_b, rest) = rest.split_at(s * 8);
        let (orig_b, rest) = rest.split_at(s * 12);
        let (len_b, rest) = rest.split_at(2);
        let (emb_b, last_b) = rest.split_at(d * 4);
        get_f32s(&mut self.mails[node * s * d..(node + 1) * s * d], mails_b);
        get_f64s(&mut self.mail_times[node * s..(node + 1) * s], times_b);
        for (o, c) in self.origins[node * s..(node + 1) * s]
            .iter_mut()
            .zip(orig_b.chunks_exact(12))
        {
            o.src = u32::from_le_bytes(c[..4].try_into().unwrap());
            o.dst = u32::from_le_bytes(c[4..8].try_into().unwrap());
            o.eid = u32::from_le_bytes(c[8..].try_into().unwrap());
        }
        self.lens[node] = len_b[0];
        self.heads[node] = len_b[1];
        get_f32s(&mut self.embeddings[node * d..(node + 1) * d], emb_b);
        self.last_update[node] = f64::from_le_bytes(last_b.try_into().unwrap());
    }

    /// Resets one node's state to the all-zero (never-touched) state —
    /// used by the tier to recycle a hot pool slot after eviction.
    pub(crate) fn clear_node(&mut self, node: usize) {
        debug_assert!(node < self.lens.len());
        let (d, s) = (self.dim, self.slots);
        self.mails[node * s * d..(node + 1) * s * d].fill(0.0);
        self.mail_times[node * s..(node + 1) * s].fill(0.0);
        self.origins[node * s..(node + 1) * s].fill(MailOrigin::default());
        self.lens[node] = 0;
        self.heads[node] = 0;
        self.embeddings[node * d..(node + 1) * d].fill(0.0);
        self.last_update[node] = 0.0;
    }

    /// Whether `node`'s complete state is bitwise the never-touched
    /// state (what a fresh `ensure_node` produces). Lets the tier skip
    /// spilling untouched nodes when scattering a flat store.
    pub(crate) fn node_is_zero(&self, node: usize) -> bool {
        let (d, s) = (self.dim, self.slots);
        self.lens[node] == 0
            && self.heads[node] == 0
            && self.last_update[node].to_bits() == 0
            && self.embeddings[node * d..(node + 1) * d]
                .iter()
                .all(|v| v.to_bits() == 0)
            && self.mail_times[node * s..(node + 1) * s]
                .iter()
                .all(|t| t.to_bits() == 0)
            && self.mails[node * s * d..(node + 1) * s * d]
                .iter()
                .all(|v| v.to_bits() == 0)
            && self.origins[node * s..(node + 1) * s]
                .iter()
                .all(|o| *o == MailOrigin::default())
    }

    /// Writes the complete store state in a versioned little-endian
    /// binary layout — the mailbox section of a serving snapshot:
    ///
    /// ```text
    /// magic "MBOXSNAP" | version u32 | update u8 | slots u32 | dim u32 |
    /// nodes u32 | mails [f32] | mail_times [f64] |
    /// origins [(src u32, dst u32, eid u32)] | lens [u8] | heads [u8] |
    /// embeddings [f32] | last_update [f64]
    /// ```
    pub fn write_snapshot<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(b"MBOXSNAP")?;
        w.write_all(&1u32.to_le_bytes())?;
        let update = match self.update {
            MailboxUpdate::Fifo => 0u8,
            MailboxUpdate::Overwrite => 1,
            MailboxUpdate::ContentAddressed => 2,
        };
        w.write_all(&[update])?;
        w.write_all(&(self.slots as u32).to_le_bytes())?;
        w.write_all(&(self.dim as u32).to_le_bytes())?;
        w.write_all(&(self.lens.len() as u32).to_le_bytes())?;
        for &v in &self.mails {
            w.write_all(&v.to_le_bytes())?;
        }
        for &t in &self.mail_times {
            w.write_all(&t.to_le_bytes())?;
        }
        for o in &self.origins {
            w.write_all(&o.src.to_le_bytes())?;
            w.write_all(&o.dst.to_le_bytes())?;
            w.write_all(&o.eid.to_le_bytes())?;
        }
        w.write_all(&self.lens)?;
        w.write_all(&self.heads)?;
        for &v in &self.embeddings {
            w.write_all(&v.to_le_bytes())?;
        }
        for &t in &self.last_update {
            w.write_all(&t.to_le_bytes())?;
        }
        Ok(())
    }

    /// Restores a store written by [`MailboxStore::write_snapshot`].
    /// Truncated or corrupt input fails with `InvalidData` — it never
    /// panics or returns a half-restored store.
    pub fn read_snapshot<R: Read>(r: &mut R) -> io::Result<MailboxStore> {
        fn bad(msg: impl Into<String>) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, msg.into())
        }
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != b"MBOXSNAP" {
            return Err(bad("not a mailbox snapshot"));
        }
        let mut u32_buf = [0u8; 4];
        let mut read_u32 = |r: &mut R| -> io::Result<u32> {
            r.read_exact(&mut u32_buf)?;
            Ok(u32::from_le_bytes(u32_buf))
        };
        let version = read_u32(r)?;
        if version != 1 {
            return Err(bad(format!(
                "unsupported mailbox snapshot version {version}"
            )));
        }
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let update = match byte[0] {
            0 => MailboxUpdate::Fifo,
            1 => MailboxUpdate::Overwrite,
            2 => MailboxUpdate::ContentAddressed,
            u => return Err(bad(format!("unknown mailbox update mode {u}"))),
        };
        let slots = read_u32(r)? as usize;
        let dim = read_u32(r)? as usize;
        let nodes = read_u32(r)? as usize;
        if slots == 0 || slots > u8::MAX as usize || dim == 0 {
            return Err(bad(format!(
                "implausible geometry: {slots} slots × {dim} dim"
            )));
        }
        // 1 GiB ceiling on the dominant payload: a corrupt header cannot
        // drive an unbounded allocation.
        if nodes.saturating_mul(slots).saturating_mul(dim) > (1usize << 28) {
            return Err(bad(format!("implausible store size: {nodes} nodes")));
        }
        let f32s = |r: &mut R, n: usize| -> io::Result<Vec<f32>> {
            let mut out = vec![0.0f32; n];
            let mut buf = [0u8; 4];
            for v in &mut out {
                r.read_exact(&mut buf)?;
                *v = f32::from_le_bytes(buf);
            }
            Ok(out)
        };
        let f64s = |r: &mut R, n: usize| -> io::Result<Vec<f64>> {
            let mut out = vec![0.0f64; n];
            let mut buf = [0u8; 8];
            for v in &mut out {
                r.read_exact(&mut buf)?;
                *v = f64::from_le_bytes(buf);
            }
            Ok(out)
        };
        let mails = f32s(r, nodes * slots * dim)?;
        let mail_times = f64s(r, nodes * slots)?;
        let mut origins = vec![MailOrigin::default(); nodes * slots];
        let mut buf = [0u8; 4];
        for o in &mut origins {
            for field in [&mut o.src, &mut o.dst, &mut o.eid] {
                r.read_exact(&mut buf)?;
                *field = u32::from_le_bytes(buf);
            }
        }
        let mut lens = vec![0u8; nodes];
        r.read_exact(&mut lens)?;
        let mut heads = vec![0u8; nodes];
        r.read_exact(&mut heads)?;
        if lens.iter().any(|&l| l as usize > slots) || heads.iter().any(|&h| (h as usize) >= slots)
        {
            return Err(bad("mailbox ring indices out of range"));
        }
        let embeddings = f32s(r, nodes * dim)?;
        let last_update = f64s(r, nodes)?;
        Ok(MailboxStore {
            dim,
            slots,
            update,
            mails,
            mail_times,
            origins,
            lens,
            heads,
            embeddings,
            last_update,
        })
    }

    /// Clears all state, keeping the allocation (used between training
    /// epochs — each epoch replays the stream from scratch).
    pub fn reset(&mut self) {
        self.mails.fill(0.0);
        self.mail_times.fill(0.0);
        self.origins.fill(MailOrigin::default());
        self.lens.fill(0);
        self.heads.fill(0);
        self.embeddings.fill(0.0);
        self.last_update.fill(0.0);
    }
}

impl MailboxRead for MailboxStore {
    fn read_batch(&self, nodes: &[NodeId], now: Time) -> MailboxView {
        MailboxStore::read_batch(self, nodes, now)
    }

    fn embedding_batch(&self, nodes: &[NodeId]) -> Tensor {
        MailboxStore::embedding_batch(self, nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(slots: usize) -> MailboxStore {
        MailboxStore::new(4, slots, 3, MailboxUpdate::Fifo)
    }

    fn mail(v: f32) -> Vec<f32> {
        vec![v; 3]
    }

    #[test]
    fn fifo_keeps_newest_evicts_oldest() {
        let mut s = store(2);
        for (i, t) in [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)] {
            s.deliver(0, &mail(i), t, MailOrigin::default());
        }
        assert_eq!(s.len(0), 2);
        let mails = s.mails_of(0);
        assert_eq!(mails[0].0, &[2.0, 2.0, 2.0]); // oldest surviving
        assert_eq!(mails[1].0, &[3.0, 3.0, 3.0]); // newest
        assert_eq!(mails[0].1, 2.0);
    }

    #[test]
    fn mail_times_monotone_in_fifo_order() {
        let mut s = store(3);
        for t in 1..=7 {
            s.deliver(1, &mail(t as f32), t as f64, MailOrigin::default());
        }
        let mails = s.mails_of(1);
        assert!(mails.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn overwrite_mode_keeps_one() {
        let mut s = MailboxStore::new(2, 4, 3, MailboxUpdate::Overwrite);
        s.deliver(0, &mail(1.0), 1.0, MailOrigin::default());
        s.deliver(0, &mail(2.0), 2.0, MailOrigin::default());
        assert_eq!(s.len(0), 1);
        assert_eq!(s.mails_of(0)[0].0, &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn read_batch_layout_and_padding() {
        let mut s = store(3);
        s.deliver(0, &mail(1.0), 1.0, MailOrigin::default());
        s.deliver(2, &mail(5.0), 2.0, MailOrigin::default());
        s.deliver(2, &mail(6.0), 3.0, MailOrigin::default());
        let view = s.read_batch(&[0, 1, 2], 10.0);
        assert_eq!(view.mails.shape(), (9, 3));
        assert_eq!(view.lens, vec![1, 0, 2]);
        // node 0 slot 0
        assert_eq!(view.mails.row_slice(0), &[1.0, 1.0, 1.0]);
        // padding is zeros
        assert_eq!(view.mails.row_slice(1), &[0.0, 0.0, 0.0]);
        assert_eq!(view.mails.row_slice(3), &[0.0, 0.0, 0.0]);
        // node 2 slots 0,1
        assert_eq!(view.mails.row_slice(6), &[5.0, 5.0, 5.0]);
        assert_eq!(view.mails.row_slice(7), &[6.0, 6.0, 6.0]);
        // ages
        assert!((view.ages[0] - 9.0).abs() < 1e-6);
        assert!((view.ages[6] - 8.0).abs() < 1e-6);
        assert_eq!(view.ages[1], 0.0);
    }

    #[test]
    fn embeddings_round_trip() {
        let mut s = store(2);
        let z = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        s.set_embeddings(&[1, 3], &z, 5.0);
        assert_eq!(s.embedding(1), &[1.0, 2.0, 3.0]);
        assert_eq!(s.embedding(3), &[4.0, 5.0, 6.0]);
        assert_eq!(s.last_update(3), 5.0);
        let batch = s.embedding_batch(&[3, 0, 1]);
        assert_eq!(batch.row_slice(0), &[4.0, 5.0, 6.0]);
        assert_eq!(batch.row_slice(1), &[0.0, 0.0, 0.0]);
        assert_eq!(batch.row_slice(2), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn grows_on_demand() {
        let mut s = store(2);
        s.deliver(100, &mail(1.0), 1.0, MailOrigin::default());
        assert!(s.num_nodes() >= 101);
        assert_eq!(s.len(100), 1);
        // read_batch past current size is safe
        let v = s.read_batch(&[500], 2.0);
        assert_eq!(v.lens, vec![0]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = store(2);
        s.deliver(0, &mail(1.0), 1.0, MailOrigin::default());
        let z = Tensor::from_rows(&[&[1.0, 1.0, 1.0]]);
        s.set_embeddings(&[0], &z, 1.0);
        s.reset();
        assert_eq!(s.len(0), 0);
        assert_eq!(s.embedding(0), &[0.0, 0.0, 0.0]);
        assert_eq!(s.last_update(0), 0.0);
    }

    #[test]
    fn origins_tracked() {
        let mut s = store(2);
        let o = MailOrigin {
            src: 7,
            dst: 9,
            eid: 42,
        };
        s.deliver(0, &mail(1.0), 1.0, o);
        assert_eq!(s.mails_of(0)[0].2, o);
    }

    #[test]
    fn content_addressed_appends_until_full() {
        let mut s = MailboxStore::new(1, 3, 3, MailboxUpdate::ContentAddressed);
        for (i, t) in [(1.0f32, 1.0f64), (2.0, 2.0), (3.0, 3.0)] {
            s.deliver(0, &[i, 0.0, 0.0], t, MailOrigin::default());
        }
        assert_eq!(s.len(0), 3);
        let payloads: Vec<f32> = s.mails_of(0).iter().map(|(p, _, _)| p[0]).collect();
        assert_eq!(payloads, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn content_addressed_replaces_most_similar() {
        let mut s = MailboxStore::new(1, 3, 3, MailboxUpdate::ContentAddressed);
        // three near-orthogonal mails
        s.deliver(0, &[1.0, 0.0, 0.0], 1.0, MailOrigin::default());
        s.deliver(0, &[0.0, 1.0, 0.0], 2.0, MailOrigin::default());
        s.deliver(0, &[0.0, 0.0, 1.0], 3.0, MailOrigin::default());
        // a fourth mail similar to slot 1 must evict slot 1, not slot 0
        s.deliver(
            0,
            &[0.1, 2.0, 0.0],
            4.0,
            MailOrigin {
                src: 9,
                dst: 9,
                eid: 9,
            },
        );
        let mails = s.mails_of(0);
        assert_eq!(mails.len(), 3);
        assert_eq!(mails[0].0, &[1.0, 0.0, 0.0]);
        assert_eq!(mails[1].0, &[0.1, 2.0, 0.0]);
        assert_eq!(mails[1].2.eid, 9);
        assert_eq!(mails[2].0, &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn content_addressed_keeps_diversity_under_repeats() {
        // hammering with near-identical mails must not evict the distinct one
        let mut s = MailboxStore::new(1, 2, 2, MailboxUpdate::ContentAddressed);
        s.deliver(0, &[0.0, 5.0], 1.0, MailOrigin::default());
        for t in 2..20 {
            s.deliver(0, &[1.0, 0.01 * t as f32], t as f64, MailOrigin::default());
        }
        let mails = s.mails_of(0);
        assert_eq!(mails.len(), 2);
        // the orthogonal [0,5] mail survived all the similar arrivals
        assert!(mails.iter().any(|(p, _, _)| p == &[0.0, 5.0]));
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        let mut s = store(3);
        for t in 1..=5 {
            s.deliver(
                t % 3,
                &mail(t as f32),
                t as f64,
                MailOrigin {
                    src: t,
                    dst: t + 1,
                    eid: t,
                },
            );
        }
        let z = Tensor::from_rows(&[&[1.0, -2.0, 3.5]]);
        s.set_embeddings(&[2], &z, 9.0);

        let mut buf = Vec::new();
        s.write_snapshot(&mut buf).unwrap();
        let mut cursor = buf.as_slice();
        let restored = MailboxStore::read_snapshot(&mut cursor).unwrap();

        assert_eq!(restored.num_nodes(), s.num_nodes());
        assert_eq!(restored.dim(), s.dim());
        assert_eq!(restored.slots(), s.slots());
        for n in 0..s.num_nodes() as NodeId {
            assert_eq!(restored.mails_of(n), s.mails_of(n), "node {n}");
            assert_eq!(restored.embedding(n), s.embedding(n));
            assert_eq!(restored.last_update(n), s.last_update(n));
        }
    }

    #[test]
    fn snapshot_rejects_truncation_and_garbage() {
        let mut s = store(2);
        s.deliver(0, &mail(1.0), 1.0, MailOrigin::default());
        let mut buf = Vec::new();
        s.write_snapshot(&mut buf).unwrap();
        for cut in [0, 4, 12, buf.len() - 1] {
            let mut cursor = &buf[..cut];
            assert!(
                MailboxStore::read_snapshot(&mut cursor).is_err(),
                "cut {cut}"
            );
        }
        let mut garbage = buf.clone();
        garbage[..8].copy_from_slice(b"NOTMAILS");
        let mut cursor = garbage.as_slice();
        assert!(MailboxStore::read_snapshot(&mut cursor).is_err());
    }

    /// Bitwise physical state comparison (slot layout, ring heads,
    /// timestamps, origins, embeddings) via the snapshot codec.
    fn snap(s: &MailboxStore) -> Vec<u8> {
        let mut buf = Vec::new();
        s.write_snapshot(&mut buf).unwrap();
        buf
    }

    #[test]
    fn patch_late_fifo_matches_sorted_replay_below_capacity() {
        let mut delta = store(4);
        for t in [1.0, 2.0, 4.0] {
            delta.deliver(0, &mail(t as f32), t, MailOrigin::default());
        }
        delta.patch_late(0, &mail(3.0), 3.0, MailOrigin::default());
        let mut reference = store(4);
        for t in [1.0, 2.0, 3.0, 4.0] {
            reference.deliver(0, &mail(t as f32), t, MailOrigin::default());
        }
        assert_eq!(snap(&delta), snap(&reference));
    }

    #[test]
    fn patch_late_fifo_overflow_rotates_head_like_replay() {
        let mut delta = store(3);
        for t in [1.0, 2.0, 4.0, 5.0] {
            delta.deliver(0, &mail(t as f32), t, MailOrigin::default());
        }
        delta.patch_late(0, &mail(3.0), 3.0, MailOrigin::default());
        let mut reference = store(3);
        for t in [1.0, 2.0, 3.0, 4.0, 5.0] {
            reference.deliver(0, &mail(t as f32), t, MailOrigin::default());
        }
        assert_eq!(snap(&delta), snap(&reference));
        // the spliced t=3 mail evicted t=2 and survives
        let times: Vec<f64> = delta.mails_of(0).iter().map(|m| m.1).collect();
        assert_eq!(times, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn patch_late_fifo_evicted_mail_still_rotates_head() {
        // the late mail is older than everything the full ring holds: the
        // sorted replay would have delivered-then-evicted it, leaving the
        // same mails but a rotated head — the patch must reproduce that
        let mut delta = store(2);
        for t in [1.0, 2.0, 3.0, 4.0] {
            delta.deliver(0, &mail(t as f32), t, MailOrigin::default());
        }
        delta.patch_late(0, &mail(0.5), 0.5, MailOrigin::default());
        let mut reference = store(2);
        for t in [0.5, 1.0, 2.0, 3.0, 4.0] {
            reference.deliver(0, &mail(t as f32), t, MailOrigin::default());
        }
        assert_eq!(snap(&delta), snap(&reference));
    }

    #[test]
    fn patch_late_tie_lands_after_stored_equal_time_mail() {
        let mut delta = store(4);
        delta.deliver(0, &mail(1.0), 1.0, MailOrigin::default());
        delta.deliver(0, &mail(9.0), 2.0, MailOrigin::default());
        delta.patch_late(0, &mail(5.0), 1.0, MailOrigin::default());
        let order: Vec<f32> = delta.mails_of(0).iter().map(|m| m.0[0]).collect();
        assert_eq!(order, vec![1.0, 5.0, 9.0]);
    }

    #[test]
    fn patch_late_overwrite_is_last_writer_in_time_order() {
        let mut s = MailboxStore::new(2, 4, 3, MailboxUpdate::Overwrite);
        s.deliver(0, &mail(2.0), 2.0, MailOrigin::default());
        // an older late mail loses: the stored mail is newer in time order
        s.patch_late(0, &mail(1.0), 1.0, MailOrigin::default());
        assert_eq!(s.mails_of(0)[0].0, &[2.0, 2.0, 2.0]);
        // a tied late mail wins: it arrived later, replay breaks ties by arrival
        s.patch_late(0, &mail(7.0), 2.0, MailOrigin::default());
        assert_eq!(s.mails_of(0)[0].0, &[7.0, 7.0, 7.0]);
    }

    #[test]
    fn patch_late_content_addressed_splices_below_capacity() {
        let mut delta = MailboxStore::new(1, 4, 3, MailboxUpdate::ContentAddressed);
        delta.deliver(0, &mail(1.0), 1.0, MailOrigin::default());
        delta.deliver(0, &mail(3.0), 3.0, MailOrigin::default());
        delta.patch_late(0, &mail(2.0), 2.0, MailOrigin::default());
        let mut reference = MailboxStore::new(1, 4, 3, MailboxUpdate::ContentAddressed);
        for t in [1.0, 2.0, 3.0] {
            reference.deliver(0, &mail(t as f32), t, MailOrigin::default());
        }
        assert_eq!(snap(&delta), snap(&reference));
    }

    #[test]
    fn patch_late_with_in_order_time_matches_deliver() {
        // a "late" mail that is actually newest degenerates to a plain
        // delivery in every mode
        for update in [
            MailboxUpdate::Fifo,
            MailboxUpdate::Overwrite,
            MailboxUpdate::ContentAddressed,
        ] {
            let mut patched = MailboxStore::new(2, 2, 3, update);
            let mut delivered = MailboxStore::new(2, 2, 3, update);
            for t in [1.0, 2.0, 3.0] {
                patched.deliver(0, &mail(t as f32), t, MailOrigin::default());
                delivered.deliver(0, &mail(t as f32), t, MailOrigin::default());
            }
            patched.patch_late(0, &mail(4.0), 4.0, MailOrigin::default());
            delivered.deliver(0, &mail(4.0), 4.0, MailOrigin::default());
            assert_eq!(snap(&patched), snap(&delivered), "{update:?}");
        }
    }

    #[test]
    fn node_byte_codec_round_trips_exactly() {
        let mut src = store(3);
        for t in 1..=5 {
            src.deliver(
                1,
                &mail(t as f32),
                t as f64,
                MailOrigin {
                    src: t,
                    dst: t + 1,
                    eid: t + 2,
                },
            );
        }
        let z = Tensor::from_rows(&[&[0.5, -1.5, 2.5]]);
        src.set_embeddings(&[1], &z, 7.0);

        let mut payload = Vec::new();
        src.export_node_bytes(1, &mut payload);
        assert_eq!(payload.len(), MailboxStore::node_payload_bytes(3, 3));

        let mut dst = store(3);
        dst.import_node_bytes(2, &payload);
        assert_eq!(snap_node(&dst, 2), snap_node(&src, 1));
        assert!(!dst.node_is_zero(2));

        dst.clear_node(2);
        assert!(dst.node_is_zero(2));
        assert_eq!(snap_node(&dst, 2), snap_node(&store(3), 0));
    }

    /// Per-node physical state via the codec itself (self-inverse pair,
    /// exercised against `copy_node_from` elsewhere).
    fn snap_node(s: &MailboxStore, node: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        s.export_node_bytes(node, &mut buf);
        buf
    }

    /// Pins the documented PR 8 caveat: `patch_late` on an exactly-full
    /// `ContentAddressed` ring cannot splice (the similarity eviction is
    /// order-dependent), so it must fall back to a plain best-effort
    /// `deliver` — the patched store is bitwise the delivered store, not
    /// the time-sorted replay.
    #[test]
    fn patch_late_content_addressed_at_full_capacity_is_best_effort_deliver() {
        let seed = |s: &mut MailboxStore| {
            // three near-orthogonal mails fill the ring exactly
            s.deliver(0, &[1.0, 0.0, 0.0], 1.0, MailOrigin::default());
            s.deliver(0, &[0.0, 1.0, 0.0], 3.0, MailOrigin::default());
            s.deliver(0, &[0.0, 0.0, 1.0], 4.0, MailOrigin::default());
        };
        let late = [0.9, 0.1, 0.0]; // most similar to slot 0, timestamp t=2 is late
        let origin = MailOrigin {
            src: 5,
            dst: 6,
            eid: 7,
        };

        let mut patched = MailboxStore::new(1, 3, 3, MailboxUpdate::ContentAddressed);
        seed(&mut patched);
        assert_eq!(patched.len(0), 3, "ring must be exactly full");
        patched.patch_late(0, &late, 2.0, origin);

        let mut delivered = MailboxStore::new(1, 3, 3, MailboxUpdate::ContentAddressed);
        seed(&mut delivered);
        delivered.deliver(0, &late, 2.0, origin);

        assert_eq!(snap(&patched), snap(&delivered));
        // and the fallback really is similarity eviction, not a splice:
        // the late mail replaced slot 0 in place, out of time order
        let mails = patched.mails_of(0);
        assert_eq!(mails[0].0, &late);
        assert_eq!(mails[0].1, 2.0);
        assert_eq!(mails[0].2, origin);
        assert_eq!(mails[1].1, 3.0);
    }

    #[test]
    fn invariant_len_never_exceeds_slots() {
        let mut s = store(3);
        for t in 0..50 {
            s.deliver(0, &mail(t as f32), t as f64, MailOrigin::default());
            assert!(s.len(0) <= 3);
        }
        assert_eq!(s.len(0), 3);
    }
}
