//! The compiled serving forward: [`InferencePlan`].
//!
//! The synchronous path runs the encoder and the link decoder in eval
//! mode, where the autodiff tape only costs: it binds (copies) every
//! weight into the graph, copies each operand again per op, and packs
//! every GEMM's weight panel anew. A plan is compiled once per set of
//! params. It holds each weight as the GEMM consumes it — a pre-packed
//! [`PackedB`] — plus scratch buffers that grow to the largest batch
//! seen and are then reused, so a forward pass copies no weight.
//!
//! The plan is **bitwise equal to the tape** in every SIMD mode
//! (`tests/plan_oracle.rs`), because it calls the tape's own kernels on
//! the same operands in the same order:
//! * the projections and MLP layers run `backend::gemm_prepacked`, which
//!   shares `gemm_with`'s one dispatch (small-problem cutoff, row split);
//! * attention runs in the absorbed form of `MultiHeadAttention::forward`
//!   (see `apan_nn::attention`): per head, `u = q_h·W_K,hᵀ`, scores of
//!   `u` against the encoded slots, softmax, the mix of the encoded
//!   slots, then `mix·W_V,h`. The per-head `W_K,hᵀ` and `W_V,h` are the
//!   tape's `transpose(slice_cols(W_K))` and `slice_cols(W_V)`, packed
//!   once here; scores and mixing run `backend::attn_scores_fwd` and
//!   `attn_mix_fwd` with the tape's `1/√d_h` scale;
//! * softmax and LayerNorm run `backend::softmax_row`/`layer_norm_row`,
//!   which `Tensor::softmax_rows` and `Graph::layer_norm` call too;
//! * the elementwise steps (slot encoding, mask add, residual, ReLU,
//!   tanh, sigmoid) are the tape's scalar expressions, operand order
//!   included.
//!
//! The absorbed form is the one algebraic re-fusion, and the tape makes
//! it too, so the two still agree bit for bit. Nothing else is re-fused:
//! no product of two weights is precomputed (`W_Q,h·W_K,hᵀ` would fold
//! a GEMM away but change the rounding the tape does).
//!
//! Eval-mode dropout is the identity, so the plan takes no rng.

use crate::config::SlotEncoding;
use crate::mailbox::MailboxRead;
use crate::model::Apan;
use apan_nn::attention::MASKED;
use apan_nn::{Mlp, ParamStore};
use apan_tensor::backend::{self, PackedB};
use apan_tensor::ops::stable_sigmoid;
use apan_tensor::Tensor;
use apan_tgraph::{NodeId, Time};

/// Packs one weight matrix `W[in × out]` for [`apply`].
fn pack(w: &Tensor) -> PackedB {
    PackedB::new(w.data(), w.rows(), w.cols())
}

/// `out[rows × out] = x[rows × in] · W (+ bias)`, overwriting `out`.
fn apply(w: &PackedB, x: &[f32], rows: usize, bias: Option<&[f32]>, out: &mut [f32]) {
    out.fill(0.0);
    backend::gemm_prepacked(x, w, bias, rows, out);
}

/// One affine layer of an MLP.
struct Layer {
    w: PackedB,
    b: Vec<f32>,
}

fn layers(params: &ParamStore, mlp: &Mlp) -> Vec<Layer> {
    mlp.layers()
        .iter()
        .map(|l| Layer {
            w: pack(params.get(l.weight())),
            b: params.get(l.bias()).data().to_vec(),
        })
        .collect()
}

/// What the encoder adds to each mail slot before attention.
enum SlotCode {
    /// Row `i` of the `[m × d]` table goes to slot `i`.
    Positional(Vec<f32>),
    /// `cos(age · ω + φ)`.
    Temporal {
        omega: Vec<f32>,
        phase: Vec<f32>,
    },
    None,
}

/// Resizes `buf` to `len` (keeping its capacity) and zeroes it.
fn zeroed(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Copies columns `off..off + w` of the `[rows × cols]` matrix `src`
/// into `dst`, as `Tensor::slice_cols` does.
fn slice_cols_into(src: &[f32], cols: usize, off: usize, w: usize, dst: &mut Vec<f32>) {
    dst.clear();
    for row in src.chunks_exact(cols) {
        dst.extend_from_slice(&row[off..off + w]);
    }
}

/// Runs `layers` on `x[rows × in]` into `out`, ReLU between layers and
/// none after the last (eval-mode `Mlp::forward`), one reused buffer per
/// hidden activation.
fn run_mlp(layers: &[Layer], x: &[f32], rows: usize, hidden: &mut Vec<Vec<f32>>, out: &mut [f32]) {
    let last = layers.len() - 1;
    hidden.resize_with(last, Vec::new);
    for (i, layer) in layers.iter().enumerate() {
        let (done, rest) = hidden.split_at_mut(i);
        let input: &[f32] = if i == 0 { x } else { &done[i - 1] };
        if i == last {
            apply(&layer.w, input, rows, Some(&layer.b), out);
        } else {
            let h = zeroed(&mut rest[0], rows * layer.w.n());
            apply(&layer.w, input, rows, Some(&layer.b), h);
            for v in h.iter_mut() {
                *v = v.max(0.0);
            }
        }
    }
}

/// Per-batch working memory, grown to the largest batch seen.
#[derive(Default)]
struct Scratch {
    q: Vec<f32>,
    qh: Vec<f32>,
    u: Vec<f32>,
    mask: Vec<f32>,
    scores: Vec<f32>,
    weights: Vec<f32>,
    mixed: Vec<f32>,
    head_out: Vec<f32>,
    heads: Vec<f32>,
    attn: Vec<f32>,
    normed: Vec<f32>,
    pairs: Vec<f32>,
    logits: Vec<f32>,
    hidden: Vec<Vec<f32>>,
}

/// The encoder plus link decoder of one [`Apan`], compiled for serving.
/// See the module docs for what it computes and why it matches the tape
/// bit for bit.
pub struct InferencePlan {
    dim: usize,
    slots: usize,
    heads: usize,
    slot_code: SlotCode,
    wq: PackedB,
    /// Per head `h`, `W_K,hᵀ` (`[d_h × d]`): lifts `q_h` to the slots' width.
    wk_t: Vec<PackedB>,
    /// Per head `h`, `W_V,h` (`[d × d_h]`): projects the mixed slots.
    wv: Vec<PackedB>,
    wo: PackedB,
    ln_gain: Vec<f32>,
    ln_bias: Vec<f32>,
    ln_eps: f32,
    head: Vec<Layer>,
    decoder: Vec<Layer>,
    scratch: Scratch,
}

impl InferencePlan {
    /// Compiles `model`'s encoder and link decoder.
    pub fn compile(model: &Apan) -> Self {
        let params = &model.params;
        let enc = &model.encoder;
        let row = |id| params.get(id).data().to_vec();
        let slot_code = match enc.slot_encoding {
            SlotEncoding::Positional => SlotCode::Positional(row(enc.positional.param())),
            SlotEncoding::Temporal => {
                let (omega, phase) = enc.temporal.params();
                SlotCode::Temporal {
                    omega: row(omega),
                    phase: row(phase),
                }
            }
            SlotEncoding::None => SlotCode::None,
        };
        let heads = enc.attention.heads();
        let dh = enc.dim() / heads;
        let [wq, wk, wv, wo] = enc.attention.projections().map(|id| params.get(id));
        // The tape's `slice_cols` and `transpose`, so the plan packs the
        // very matrices the tape multiplies by.
        let per_head = |w: &Tensor, transposed: bool| -> Vec<PackedB> {
            (0..heads)
                .map(|h| {
                    let slice = w.slice_cols(h * dh, dh);
                    let slice = if transposed { slice.transpose() } else { slice };
                    pack(&slice)
                })
                .collect()
        };
        let (gain, bias) = enc.norm.params();
        let decoder = layers(params, &model.link_decoder.mlp);
        assert_eq!(
            decoder.last().map(|l| l.w.n()),
            Some(1),
            "link decoder must end in one logit"
        );
        Self {
            dim: enc.dim(),
            slots: enc.slots(),
            heads,
            slot_code,
            wq: pack(wq),
            wk_t: per_head(wk, true),
            wv: per_head(wv, false),
            wo: pack(wo),
            ln_gain: row(gain),
            ln_bias: row(bias),
            ln_eps: enc.norm.eps(),
            head: layers(params, &enc.head),
            decoder,
            scratch: Scratch::default(),
        }
    }

    /// Encodes `nodes` from their mailbox state as of `now`: the eval
    /// forward of `Apan::encode`, bit for bit. Returns `z(t)` as a
    /// `[nodes × d]` matrix. Reads the store in the same order
    /// `Apan::encode` does (mailboxes, then last embeddings), so a
    /// tiered store promotes the same way.
    pub fn encode<S: MailboxRead + ?Sized>(
        &mut self,
        store: &S,
        nodes: &[NodeId],
        now: Time,
    ) -> Tensor {
        let view = store.read_batch(nodes, now);
        let z_prev = store.embedding_batch(nodes);
        let (b, m, d) = (nodes.len(), self.slots, self.dim);
        let dh = d / self.heads;
        let s = &mut self.scratch;

        // Slot encoding (Eq. 2), in place on the mail matrix.
        let mut mails = view.mails;
        let enc = mails.data_mut();
        match &self.slot_code {
            SlotCode::Positional(table) => {
                for (r, row) in enc.chunks_exact_mut(d).enumerate() {
                    let pos = &table[(r % m) * d..(r % m + 1) * d];
                    for (x, &p) in row.iter_mut().zip(pos) {
                        *x += p;
                    }
                }
            }
            SlotCode::Temporal { omega, phase } => {
                for (row, &age) in enc.chunks_exact_mut(d).zip(&view.ages) {
                    for ((x, &w), &ph) in row.iter_mut().zip(omega).zip(phase) {
                        *x += (age * w + ph).cos();
                    }
                }
            }
            SlotCode::None => {}
        }

        // Padding mask; an empty mailbox keeps slot 0 (the learned "no
        // history yet" token).
        let mask = zeroed(&mut s.mask, b * m);
        for (row, &len) in mask.chunks_exact_mut(m).zip(&view.lens) {
            for x in &mut row[len.max(1).min(m)..] {
                *x = MASKED;
            }
        }

        // Multi-head attention (Eq. 3–4), absorbed: the heads score and
        // mix the encoded slots themselves.
        let enc: &[f32] = enc;
        let q = z_prev.data();
        apply(&self.wq, q, b, None, zeroed(&mut s.q, b * d));
        let scale = 1.0 / (dh as f32).sqrt();
        zeroed(&mut s.heads, b * d);
        for (h, (wk_t, wv)) in self.wk_t.iter().zip(&self.wv).enumerate() {
            let off = h * dh;
            slice_cols_into(&s.q, d, off, dh, &mut s.qh);
            apply(wk_t, &s.qh, b, None, zeroed(&mut s.u, b * d));
            let scores = zeroed(&mut s.scores, b * m);
            backend::attn_scores_fwd(&s.u, enc, b, m, d, scale, scores);
            for (x, &mk) in scores.iter_mut().zip(&s.mask) {
                *x += mk;
            }
            let weights = zeroed(&mut s.weights, b * m);
            for (w, x) in weights.chunks_exact_mut(m).zip(s.scores.chunks_exact(m)) {
                backend::softmax_row(x, w);
            }
            let mixed = zeroed(&mut s.mixed, b * d);
            backend::attn_mix_fwd(&s.weights, enc, b, m, d, mixed);
            apply(wv, &s.mixed, b, None, zeroed(&mut s.head_out, b * dh));
            for (dst, src) in s.heads.chunks_exact_mut(d).zip(s.head_out.chunks_exact(dh)) {
                dst[off..off + dh].copy_from_slice(src);
            }
        }
        let attn = zeroed(&mut s.attn, b * d);
        apply(&self.wo, &s.heads, b, None, attn);

        // Residual + LayerNorm (Eq. 5).
        for (x, &zq) in attn.iter_mut().zip(q) {
            *x += zq;
        }
        let normed = zeroed(&mut s.normed, b * d);
        for (out, x) in normed.chunks_exact_mut(d).zip(s.attn.chunks_exact(d)) {
            backend::layer_norm_row(x, &self.ln_gain, &self.ln_bias, self.ln_eps, out, None);
        }

        // MLP head → tanh-bounded z(t).
        let mut z = Tensor::zeros(b, d);
        run_mlp(&self.head, &s.normed, b, &mut s.hidden, z.data_mut());
        for v in z.data_mut() {
            *v = v.tanh();
        }
        z
    }

    /// Link scores for pairs of rows of `z` (from [`InferencePlan::encode`]):
    /// `sigmoid(decoder(z[src_rows[i]] ‖ z[dst_rows[i]]))`, bit for bit
    /// `LinkDecoder::forward` followed by `stable_sigmoid`.
    pub fn score_links(&mut self, z: &Tensor, src_rows: &[usize], dst_rows: &[usize]) -> Vec<f32> {
        assert_eq!(src_rows.len(), dst_rows.len(), "one dst row per src row");
        let (n, d) = (src_rows.len(), z.cols());
        let s = &mut self.scratch;
        s.pairs.clear();
        for (&i, &j) in src_rows.iter().zip(dst_rows) {
            s.pairs.extend_from_slice(z.row_slice(i));
            s.pairs.extend_from_slice(z.row_slice(j));
        }
        debug_assert_eq!(s.pairs.len(), n * 2 * d);
        let logits = zeroed(&mut s.logits, n);
        run_mlp(&self.decoder, &s.pairs, n, &mut s.hidden, logits);
        logits.iter().map(|&x| stable_sigmoid(x)).collect()
    }
}
