//! Multi-head scaled dot-product attention for the mailbox setting.
//!
//! APAN's encoder (Fig. 4, Eq. 3–4) attends from one query per node (the
//! last updated embedding `z(t−)`) over that node's `m` mailbox slots.
//! Batching `B` nodes gives `q ∈ R^{B×d}` and keys/values `kv ∈ R^{B·m×d}`
//! grouped contiguously per node — exactly the layout of the fused
//! [`apan_tensor::Graph::attn_scores`] / [`apan_tensor::Graph::attn_mix`]
//! kernels.
//!
//! The forward runs in *absorbed* form. Attention is linear in its keys
//! and values, so head `h`'s projections move off the `B·m` mail rows
//! and onto the `B` query-side rows:
//!
//! * `⟨q_h, E_i·W_K,h⟩ = ⟨q_h·W_K,hᵀ, E_i⟩` — score the raw slots `E`
//!   against `u_h = q_h·W_K,hᵀ` (`[B × d]`);
//! * `Σ_i a_i·(E_i·W_V,h) = (Σ_i a_i·E_i)·W_V,h` — mix the raw slots,
//!   then project the `[B × d]` mix.
//!
//! Both identities are exact in real arithmetic, so the block is the
//! textbook project-then-attend one (the test suite keeps that form as
//! its reference). Per node this costs `4·d² + 2·H·m·d` multiply-adds
//! instead of `(2m + 2)·d² + 2·m·d`: at d = 172, m = 10, H = 2 the
//! encoder's attention drops from ≈ 654 K to ≈ 125 K.

use crate::init::xavier_uniform;
use crate::param::{Fwd, ParamId, ParamStore};
use apan_tensor::{Tensor, Var};
use rand::Rng;

/// `y = x·W`: the attention projections are pure matmuls (no bias).
fn proj(fwd: &mut Fwd<'_>, x: Var, w: ParamId) -> Var {
    let wv = fwd.p(w);
    fwd.g.matmul(x, wv)
}

/// Multi-head attention with per-head projections and an output projection
/// (`W_Q, W_K, W_V ∈ R^{d×d_h}`, `W^O ∈ R^{d×d}` in the paper's notation).
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    wo: ParamId,
    heads: usize,
    model_dim: usize,
    head_dim: usize,
}

/// The result of an attention forward pass.
pub struct AttentionOutput {
    /// Mixed and output-projected result, `[B × d]`.
    pub out: Var,
    /// Per-head post-softmax attention weights, each `[B × m]`. Kept for
    /// the paper's interpretability analysis (§3.6): the weight on slot `i`
    /// says how much `mail_i` drove the new embedding.
    pub weights: Vec<Var>,
}

impl MultiHeadAttention {
    /// Registers a multi-head attention block. `model_dim` must be
    /// divisible by `heads`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        model_dim: usize,
        heads: usize,
        rng: &mut R,
    ) -> Self {
        assert!(heads > 0, "at least one attention head required");
        assert_eq!(
            model_dim % heads,
            0,
            "model_dim {model_dim} not divisible by heads {heads}"
        );
        let wq = store.add(
            format!("{name}.wq"),
            xavier_uniform(model_dim, model_dim, rng),
        );
        let wk = store.add(
            format!("{name}.wk"),
            xavier_uniform(model_dim, model_dim, rng),
        );
        let wv = store.add(
            format!("{name}.wv"),
            xavier_uniform(model_dim, model_dim, rng),
        );
        let wo = store.add(
            format!("{name}.wo"),
            xavier_uniform(model_dim, model_dim, rng),
        );
        Self {
            wq,
            wk,
            wv,
            wo,
            heads,
            model_dim,
            head_dim: model_dim / heads,
        }
    }

    /// Attends from `query` `[B × d]` over `kv` `[B·m × d]` (m keys/values
    /// per query, contiguous), in the absorbed form of the module docs.
    /// `mask` optionally marks invalid slots with `-inf`-like large
    /// negatives *before* the softmax — used for nodes whose mailbox
    /// holds fewer than `m` real mails.
    pub fn forward(
        &self,
        fwd: &mut Fwd<'_>,
        query: Var,
        kv: Var,
        m: usize,
        mask: Option<&Tensor>,
    ) -> AttentionOutput {
        let b = fwd.g.value(query).rows();
        debug_assert_eq!(fwd.g.value(query).cols(), self.model_dim);
        debug_assert_eq!(fwd.g.value(kv).shape(), (b * m, self.model_dim));

        let q_all = proj(fwd, query, self.wq); // [B, d]
        let wk = fwd.p(self.wk);
        let wv = fwd.p(self.wv);
        // Each head scores against its own d_h-wide query, whatever the
        // width of the slots it reads.
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        let mask_var = mask.map(|t| {
            debug_assert_eq!(t.shape(), (b, m), "attention mask must be [B x m]");
            fwd.g.constant(t.clone())
        });

        let mut head_outputs = Vec::with_capacity(self.heads);
        let mut weights = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let off = h * self.head_dim;
            let qh = fwd.g.slice_cols(q_all, off, self.head_dim);
            let wk_h = fwd.g.slice_cols(wk, off, self.head_dim);
            let wk_ht = fwd.g.transpose(wk_h);
            let u = fwd.g.matmul(qh, wk_ht); // [B, d]
            let mut scores = fwd.g.attn_scores(u, kv, m, scale); // [B, m]
            if let Some(mv) = mask_var {
                scores = fwd.g.add(scores, mv);
            }
            let attn = fwd.g.softmax_rows(scores);
            let mixed = fwd.g.attn_mix(attn, kv, m); // [B, d]
            let wv_h = fwd.g.slice_cols(wv, off, self.head_dim);
            head_outputs.push(fwd.g.matmul(mixed, wv_h)); // [B, head_dim]
            weights.push(attn);
        }
        let concat = fwd.g.concat_cols(&head_outputs); // [B, d]
        let out = proj(fwd, concat, self.wo);
        AttentionOutput { out, weights }
    }

    /// The projection weights `[W_Q, W_K, W_V, W^O]`, each `[d × d]`
    /// (head `h` owns columns `h·d_h..(h+1)·d_h` of the first three).
    pub fn projections(&self) -> [ParamId; 4] {
        [self.wq, self.wk, self.wv, self.wo]
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Model (feature) dimension.
    pub fn model_dim(&self) -> usize {
        self.model_dim
    }
}

/// The additive mask entry of an empty slot: large and negative, so
/// softmax assigns the slot ~zero weight.
pub const MASKED: f32 = -1e9;

/// Builds an additive attention mask for variable-length mailboxes:
/// entry `[b, i]` is `0` when slot `i` of node `b` is valid and
/// [`MASKED`] when it is empty.
pub fn length_mask(lengths: &[usize], m: usize) -> Tensor {
    let b = lengths.len();
    let mut t = Tensor::zeros(b, m);
    for (bi, &len) in lengths.iter().enumerate() {
        for i in len.min(m)..m {
            t.set(bi, i, MASKED);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(heads: usize) -> (ParamStore, MultiHeadAttention, StdRng) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "attn", 8, heads, &mut rng);
        (store, mha, rng)
    }

    #[test]
    fn output_shape() {
        let (store, mha, mut rng) = setup(2);
        let mut fwd = Fwd::new(&store, false);
        let q = fwd.g.constant(Tensor::randn(3, 8, 1.0, &mut rng));
        let kv = fwd.g.constant(Tensor::randn(9, 8, 1.0, &mut rng));
        let out = mha.forward(&mut fwd, q, kv, 3, None);
        assert_eq!(fwd.g.value(out.out).shape(), (3, 8));
        assert_eq!(out.weights.len(), 2);
        assert_eq!(fwd.g.value(out.weights[0]).shape(), (3, 3));
    }

    #[test]
    fn attention_weights_are_distributions() {
        let (store, mha, mut rng) = setup(4);
        let mut fwd = Fwd::new(&store, false);
        let q = fwd.g.constant(Tensor::randn(2, 8, 1.0, &mut rng));
        let kv = fwd.g.constant(Tensor::randn(10, 8, 1.0, &mut rng));
        let out = mha.forward(&mut fwd, q, kv, 5, None);
        for w in &out.weights {
            let t = fwd.g.value(*w);
            for i in 0..t.rows() {
                let sum: f32 = t.row_slice(i).iter().sum();
                assert!((sum - 1.0).abs() < 1e-5);
                assert!(t.row_slice(i).iter().all(|&v| v >= 0.0));
            }
        }
    }

    #[test]
    fn mask_zeroes_empty_slots() {
        let (store, mha, mut rng) = setup(2);
        let mut fwd = Fwd::new(&store, false);
        let q = fwd.g.constant(Tensor::randn(2, 8, 1.0, &mut rng));
        let kv = fwd.g.constant(Tensor::randn(8, 8, 1.0, &mut rng));
        // node 0 has 1 valid slot out of 4; node 1 has all 4
        let mask = length_mask(&[1, 4], 4);
        let out = mha.forward(&mut fwd, q, kv, 4, Some(&mask));
        let w = fwd.g.value(out.weights[0]);
        assert!((w.get(0, 0) - 1.0).abs() < 1e-5);
        for i in 1..4 {
            assert!(w.get(0, i) < 1e-6);
        }
        let sum1: f32 = w.row_slice(1).iter().sum();
        assert!((sum1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let (mut store, _, mut rng) = setup(2);
        let mha = MultiHeadAttention::new(&mut store, "attn2", 8, 2, &mut rng);
        let mut fwd = Fwd::new(&store, true);
        let q = fwd.g.constant(Tensor::randn(3, 8, 1.0, &mut rng));
        let kv = fwd.g.constant(Tensor::randn(6, 8, 1.0, &mut rng));
        let out = mha.forward(&mut fwd, q, kv, 2, None);
        let loss = fwd.g.mean_all(out.out);
        let grads = fwd.finish(loss);
        let touched: Vec<&str> = grads.grads.iter().map(|(id, _)| store.name(*id)).collect();
        for suffix in ["wq", "wk", "wv", "wo"] {
            assert!(
                touched.iter().any(|n| n.ends_with(suffix)),
                "missing grad for {suffix}: {touched:?}"
            );
        }
    }

    #[test]
    fn length_mask_shape() {
        let m = length_mask(&[0, 2, 5], 3);
        assert_eq!(m.shape(), (3, 3));
        assert!(m.get(0, 0) < -1e8);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert!(m.get(1, 2) < -1e8);
        assert_eq!(m.row_slice(2), &[0.0, 0.0, 0.0]);
    }
}
