//! Property-based tests for the neural-network layer semantics.

use apan_check::check;
use apan_nn::attention::length_mask;
use apan_nn::{Fwd, LayerNorm, Linear, Mlp, MultiHeadAttention, ParamStore, TimeEncoding};
use apan_tensor::{Graph, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn linear_is_affine() {
    check(48, |g| {
        // f(s·x) − f(0) == s·(f(x) − f(0))
        let (seed, s) = (g.range(0u64..50), g.range(-2.0f32..2.0));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "l", 4, 3, &mut rng);
        let x = Tensor::randn(2, 4, 1.0, &mut rng);
        let eval = |input: Tensor| {
            let mut fwd = Fwd::new(&store, false);
            let v = fwd.g.constant(input);
            let y = layer.forward(&mut fwd, v);
            fwd.g.value(y).clone()
        };
        let f0 = eval(Tensor::zeros(2, 4));
        let fx = eval(x.clone());
        let fsx = eval(x.scale(s));
        let lhs = fsx.sub(&f0);
        let rhs = fx.sub(&f0).scale(s);
        assert!(lhs.allclose(&rhs, 1e-3), "affinity violated");
    });
}

#[test]
fn layer_norm_output_is_normalized() {
    check(48, |g| {
        let (seed, scale) = (g.range(0u64..50), g.range(0.5f32..20.0));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 8);
        let x = Tensor::randn(4, 8, scale, &mut rng);
        let mut fwd = Fwd::new(&store, false);
        let v = fwd.g.constant(x);
        let y = ln.forward(&mut fwd, v);
        let t = fwd.g.value(y);
        for i in 0..4 {
            let row = t.row_slice(i);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-3, "row mean {mean}");
        }
    });
}

#[test]
fn attention_weights_always_distributions() {
    check(48, |g| {
        let (seed, m) = (g.range(0u64..50), g.range(1usize..6));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", 8, 2, &mut rng);
        let b = 3;
        let mut fwd = Fwd::new(&store, false);
        let q = fwd.g.constant(Tensor::randn(b, 8, 1.0, &mut rng));
        let kv = fwd.g.constant(Tensor::randn(b * m, 8, 1.0, &mut rng));
        let out = mha.forward(&mut fwd, q, kv, m, None);
        for w in &out.weights {
            let t = fwd.g.value(*w);
            for i in 0..b {
                let sum: f32 = t.row_slice(i).iter().sum();
                assert!((sum - 1.0).abs() < 1e-4);
            }
        }
    });
}

/// Textbook multi-head attention, the form `MultiHeadAttention::forward`
/// absorbs: project every slot to keys and values, then attend per head
/// at `1/√d_h`.
fn textbook_attention(
    mha: &MultiHeadAttention,
    fwd: &mut Fwd<'_>,
    query: Var,
    kv: Var,
    m: usize,
    mask: &Tensor,
) -> Var {
    let [wq, wk, wv, wo] = mha.projections().map(|id| fwd.p(id));
    let dh = mha.model_dim() / mha.heads();
    let g: &mut Graph = &mut fwd.g;
    let q_all = g.matmul(query, wq);
    let k_all = g.matmul(kv, wk);
    let v_all = g.matmul(kv, wv);
    let mask = g.constant(mask.clone());
    let heads: Vec<Var> = (0..mha.heads())
        .map(|h| {
            let qh = g.slice_cols(q_all, h * dh, dh);
            let kh = g.slice_cols(k_all, h * dh, dh);
            let vh = g.slice_cols(v_all, h * dh, dh);
            let scores = g.attn_scores(qh, kh, m, 1.0 / (dh as f32).sqrt());
            let scores = g.add(scores, mask);
            let attn = g.softmax_rows(scores);
            g.attn_mix(attn, vh, m)
        })
        .collect();
    let concat = g.concat_cols(&heads);
    g.matmul(concat, wo)
}

/// `|a − b| ≤ tol · (1 + max|b|)` elementwise, same shape.
fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    let scale = b.data().iter().fold(0.0f32, |acc, x| acc.max(x.abs()));
    a.allclose(b, tol * (1.0 + scale))
}

#[test]
fn absorbed_attention_matches_textbook_values_and_gradients() {
    check(64, |g| {
        let heads = g.pick(&[1usize, 2, 4]);
        let d = g.pick(&[8usize, 16]);
        let (b, m) = (g.range(1usize..=4), g.range(1usize..=12));
        let mut rng = StdRng::seed_from_u64(g.next_u64());
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", d, heads, &mut rng);
        let query = Tensor::randn(b, d, 1.0, &mut rng);
        let kv_in = Tensor::randn(b * m, d, 1.0, &mut rng);
        let probe = Tensor::randn(b, d, 1.0, &mut rng);
        // every node keeps slot 0 open, as the encoder's mask does; some
        // keep nothing else
        let lens: Vec<usize> = (0..b).map(|_| g.range(1usize..=m)).collect();
        let mask = length_mask(&lens, m);

        // out, then the gradients of W_Q, W_K, W_V, W^O and kv under a
        // random linear probe of out
        let run = |absorbed: bool| -> Vec<Tensor> {
            let mut fwd = Fwd::new(&store, true);
            let q = fwd.g.constant(query.clone());
            let kv = fwd.g.leaf(kv_in.clone(), true);
            let out = if absorbed {
                mha.forward(&mut fwd, q, kv, m, Some(&mask)).out
            } else {
                textbook_attention(&mha, &mut fwd, q, kv, m, &mask)
            };
            let probe = fwd.g.constant(probe.clone());
            let weighted = fwd.g.mul(out, probe);
            let loss = fwd.g.sum_all(weighted);
            fwd.g.backward(loss);
            let mut got = vec![fwd.g.value(out).clone()];
            for id in mha.projections() {
                let w = fwd.p(id);
                got.push(fwd.g.grad(w).expect("projection gradient").clone());
            }
            got.push(fwd.g.grad(kv).expect("kv gradient").clone());
            got
        };
        let (absorbed, textbook) = (run(true), run(false));
        for (what, (a, t)) in ["out", "dW_Q", "dW_K", "dW_V", "dW^O", "dkv"]
            .iter()
            .zip(absorbed.iter().zip(&textbook))
        {
            assert!(
                close(a, t, 1e-4),
                "{what} differs: heads {heads}, d {d}, b {b}, m {m}, lens {lens:?}"
            );
        }
    });
}

#[test]
fn length_mask_opens_exactly_len_slots() {
    check(48, |g| {
        let m = g.range(1usize..10);
        let lens = g.vec(1..6, |g| g.range(0usize..10));
        let mask = length_mask(&lens, m);
        for (i, &len) in lens.iter().enumerate() {
            for j in 0..m {
                let open = mask.get(i, j) == 0.0;
                assert_eq!(open, j < len.min(m));
            }
        }
    });
}

#[test]
fn time_encoding_bounded_and_deterministic() {
    check(48, |g| {
        let dts = g.vec(1..20, |g| g.range(0.0f32..1e6));
        let mut store = ParamStore::new();
        let te = TimeEncoding::new(&mut store, "t", 6);
        let run = || {
            let mut fwd = Fwd::new(&store, false);
            let v = te.forward(&mut fwd, &dts);
            fwd.g.value(v).clone()
        };
        let a = run();
        assert!(a.data().iter().all(|v| v.abs() <= 1.0 + 1e-6));
        assert!(a.allclose(&run(), 0.0));
    });
}

#[test]
fn mlp_eval_is_deterministic_despite_dropout() {
    check(48, |g| {
        let mut rng = StdRng::seed_from_u64(g.range(0u64..30));
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[4, 8, 2], 0.5, &mut rng);
        let x = Tensor::randn(3, 4, 1.0, &mut rng);
        let mut outs = Vec::new();
        for _ in 0..2 {
            let mut fwd = Fwd::new(&store, false);
            let v = fwd.g.constant(x.clone());
            let y = mlp.forward(&mut fwd, v, &mut rng);
            outs.push(fwd.g.value(y).clone());
        }
        assert!(outs[0].allclose(&outs[1], 0.0));
    });
}
