//! The attention-based encoder (§3.3, Fig. 4).
//!
//! Pipeline per batch of nodes:
//!
//! 1. **Slot encoding** — the mailbox matrix `M(t) ∈ R^{m×d}` gets a
//!    learned positional embedding per slot added (Eq. 2), or a functional
//!    time encoding of each mail's age (the §3.6 variant), selected by
//!    [`SlotEncoding`].
//! 2. **Multi-head attention** — queries from `z(t−)`, keys/values from
//!    the encoded mailbox (Eq. 3–4); padding slots are masked out.
//! 3. **Residual + LayerNorm** — `a = MultiHead + z(t−)`, normalized
//!    (Eq. 5).
//! 4. **MLP head** — a two-layer feed-forward net produces the final
//!    temporal embedding `z(t)`.
//!
//! Crucially, none of these steps touches the graph: the encoder's inputs
//! are the mailbox view and the last embedding, both node-local.

use crate::config::{ApanConfig, SlotEncoding};
use crate::mailbox::MailboxView;
use apan_nn::attention::length_mask;
use apan_nn::{
    Embedding, Fwd, LayerNorm, Mlp, MultiHeadAttention, ParamStore, QuantSet, TimeEncoding,
};
use apan_tensor::{Tensor, Var};
use rand::rngs::StdRng;
use rand::Rng;

/// The APAN encoder network.
pub struct ApanEncoder {
    positional: Embedding,
    temporal: TimeEncoding,
    attention: MultiHeadAttention,
    norm: LayerNorm,
    head: Mlp,
    slots: usize,
    dim: usize,
    slot_encoding: SlotEncoding,
    dropout: f32,
}

/// Encoder output: embeddings plus per-head attention weights.
pub struct EncoderOutput {
    /// New temporal embeddings `z(t)`, `[B × d]`.
    pub z: Var,
    /// Post-softmax attention weights per head, each `[B × m]` — the raw
    /// material of the paper's interpretability story.
    pub attn: Vec<Var>,
}

impl ApanEncoder {
    /// Registers all encoder parameters in `store`.
    pub fn new<R: Rng + ?Sized>(store: &mut ParamStore, cfg: &ApanConfig, rng: &mut R) -> Self {
        cfg.validate().expect("invalid APAN config");
        let head = Mlp::new(
            store,
            "enc.head",
            &[cfg.dim, cfg.mlp_hidden, cfg.dim],
            cfg.dropout,
            rng,
        );
        Self {
            positional: Embedding::new(store, "enc.pos", cfg.mailbox_slots, cfg.dim, rng),
            temporal: TimeEncoding::new(store, "enc.time", cfg.dim),
            attention: MultiHeadAttention::new(store, "enc.attn", cfg.dim, cfg.heads, rng),
            norm: LayerNorm::new(store, "enc.ln", cfg.dim),
            head,
            slots: cfg.mailbox_slots,
            dim: cfg.dim,
            slot_encoding: cfg.slot_encoding,
            dropout: cfg.dropout,
        }
    }

    /// Encodes a batch. `z_prev` is `[B × d]` (the stored `z(t−)`,
    /// entering as a constant — gradient isolation as in TGN's memory),
    /// `view` is the batched mailbox state of the same nodes.
    pub fn forward(
        &self,
        fwd: &mut Fwd<'_>,
        z_prev: &Tensor,
        view: &MailboxView,
        rng: &mut StdRng,
    ) -> EncoderOutput {
        let b = z_prev.rows();
        debug_assert_eq!(z_prev.cols(), self.dim);
        debug_assert_eq!(view.mails.shape(), (b * self.slots, self.dim));
        debug_assert_eq!(view.lens.len(), b);

        let q = fwd.g.constant(z_prev.clone());
        let mails = fwd.g.constant(view.mails.clone());

        // Slot-order encoding (Eq. 2): M̂ = M + P.
        let encoded = match self.slot_encoding {
            SlotEncoding::Positional => {
                let idx: Vec<usize> = (0..b).flat_map(|_| 0..self.slots).collect();
                let pos = self.positional.forward(fwd, &idx);
                fwd.g.add(mails, pos)
            }
            SlotEncoding::Temporal => {
                let te = self.temporal.forward(fwd, &view.ages);
                fwd.g.add(mails, te)
            }
            SlotEncoding::None => mails,
        };

        // Empty mailboxes keep slot 0 unmasked: its zero payload plus the
        // slot-0 encoding acts as a learned "no history yet" token.
        let effective: Vec<usize> = view.lens.iter().map(|&l| l.max(1)).collect();
        let mask = length_mask(&effective, self.slots);

        let attn_out = self
            .attention
            .forward(fwd, q, encoded, self.slots, Some(&mask));

        // Residual (⊕ in Fig. 4) + LayerNorm (Eq. 5).
        let residual = fwd.g.add(attn_out.out, q);
        let normed = self.norm.forward(fwd, residual);
        let normed = {
            let train = fwd.train;
            fwd.g.dropout(normed, self.dropout, train, rng)
        };

        // MLP head → final temporal embedding, tanh-bounded so the
        // embeddings recirculating through mails cannot blow up.
        let z = self.head.forward(fwd, normed, rng);
        let z = fwd.g.tanh(z);
        EncoderOutput {
            z,
            attn: attn_out.weights,
        }
    }

    /// Registers this encoder's weight matrices in `qs` as int8: the four
    /// attention projections and the MLP-head layers — the matmuls that
    /// dominate the synchronous serving path. Embeddings, time encoding,
    /// LayerNorm, and all biases stay f32 (they are cheap and
    /// quantization-sensitive).
    pub fn quantize_into(&self, store: &ParamStore, qs: &mut QuantSet) {
        self.attention.quantize_into(store, qs);
        self.head.quantize_into(store, qs);
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Mailbox slots the encoder expects.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MailboxUpdate;
    use crate::mailbox::{MailOrigin, MailboxStore};
    use rand::SeedableRng;

    fn small_cfg() -> ApanConfig {
        let mut cfg = ApanConfig::new(8);
        cfg.mailbox_slots = 4;
        cfg.mlp_hidden = 16;
        cfg.dropout = 0.0;
        cfg
    }

    fn build() -> (ParamStore, ApanEncoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let enc = ApanEncoder::new(&mut store, &small_cfg(), &mut rng);
        (store, enc, rng)
    }

    #[test]
    fn output_shapes() {
        let (store, enc, mut rng) = build();
        let mut mb = MailboxStore::new(3, 4, 8, MailboxUpdate::Fifo);
        mb.deliver(0, &[1.0; 8], 1.0, MailOrigin::default());
        mb.deliver(2, &[2.0; 8], 2.0, MailOrigin::default());
        let view = mb.read_batch(&[0, 1, 2], 5.0);
        let z_prev = mb.embedding_batch(&[0, 1, 2]);
        let mut fwd = Fwd::new(&store, false);
        let out = enc.forward(&mut fwd, &z_prev, &view, &mut rng);
        assert_eq!(fwd.g.value(out.z).shape(), (3, 8));
        assert_eq!(out.attn.len(), 2); // heads
        assert_eq!(fwd.g.value(out.attn[0]).shape(), (3, 4));
    }

    #[test]
    fn empty_mailbox_node_is_finite_and_deterministic() {
        let (store, enc, mut rng) = build();
        let mb = MailboxStore::new(2, 4, 8, MailboxUpdate::Fifo);
        let view = mb.read_batch(&[0, 1], 1.0);
        let z_prev = mb.embedding_batch(&[0, 1]);
        let mut fwd = Fwd::new(&store, false);
        let out = enc.forward(&mut fwd, &z_prev, &view, &mut rng);
        let z = fwd.g.value(out.z);
        assert!(z.data().iter().all(|v| v.is_finite()));
        // both nodes identical state ⇒ identical embedding
        assert_eq!(z.row_slice(0), z.row_slice(1));
    }

    #[test]
    fn mailbox_content_changes_embedding() {
        let (store, enc, mut rng) = build();
        let mut mb = MailboxStore::new(2, 4, 8, MailboxUpdate::Fifo);
        mb.deliver(0, &[3.0; 8], 1.0, MailOrigin::default());
        let view = mb.read_batch(&[0, 1], 2.0);
        let z_prev = mb.embedding_batch(&[0, 1]);
        let mut fwd = Fwd::new(&store, false);
        let out = enc.forward(&mut fwd, &z_prev, &view, &mut rng);
        let z = fwd.g.value(out.z);
        assert_ne!(z.row_slice(0), z.row_slice(1));
    }

    #[test]
    fn attention_masks_padding_slots() {
        let (store, enc, mut rng) = build();
        let mut mb = MailboxStore::new(1, 4, 8, MailboxUpdate::Fifo);
        mb.deliver(0, &[1.0; 8], 1.0, MailOrigin::default());
        mb.deliver(0, &[2.0; 8], 2.0, MailOrigin::default());
        let view = mb.read_batch(&[0], 3.0);
        let z_prev = mb.embedding_batch(&[0]);
        let mut fwd = Fwd::new(&store, false);
        let out = enc.forward(&mut fwd, &z_prev, &view, &mut rng);
        for w in &out.attn {
            let t = fwd.g.value(*w);
            // slots 2,3 are padding → ~0 weight
            assert!(t.get(0, 2) < 1e-6);
            assert!(t.get(0, 3) < 1e-6);
            let sum: f32 = t.row_slice(0).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn temporal_encoding_variant_runs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let mut cfg = small_cfg();
        cfg.slot_encoding = SlotEncoding::Temporal;
        let enc = ApanEncoder::new(&mut store, &cfg, &mut rng);
        let mut mb = MailboxStore::new(1, 4, 8, MailboxUpdate::Fifo);
        mb.deliver(0, &[1.0; 8], 1.0, MailOrigin::default());
        let view = mb.read_batch(&[0], 5.0);
        let z_prev = mb.embedding_batch(&[0]);
        let mut fwd = Fwd::new(&store, false);
        let out = enc.forward(&mut fwd, &z_prev, &view, &mut rng);
        assert!(fwd.g.value(out.z).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_mode_produces_gradients() {
        let (store, enc, mut rng) = build();
        let mut mb = MailboxStore::new(2, 4, 8, MailboxUpdate::Fifo);
        mb.deliver(0, &[1.0; 8], 1.0, MailOrigin::default());
        let view = mb.read_batch(&[0, 1], 2.0);
        let z_prev = mb.embedding_batch(&[0, 1]);
        let mut fwd = Fwd::new(&store, true);
        let out = enc.forward(&mut fwd, &z_prev, &view, &mut rng);
        let loss = fwd.g.mean_all(out.z);
        let grads = fwd.finish(loss);
        assert!(grads.grads.len() >= 8, "got {} grads", grads.grads.len());
    }
}
