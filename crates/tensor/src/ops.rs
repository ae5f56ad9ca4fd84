//! Differentiable operations, implemented as methods on [`Graph`].
//!
//! Every method records the forward value plus a one-shot backward closure
//! on the tape. Operations whose inputs are all constants skip the closure
//! entirely, so inference-only passes pay no autodiff overhead beyond the
//! value buffers themselves.
//!
//! Besides the usual dense primitives, two fused kernels implement exactly
//! the batched attention that APAN's encoder needs without general 3-D
//! tensor support:
//!
//! * [`Graph::attn_scores`] — `s[b, i] = ⟨q[b], k[b·m + i]⟩ · scale`
//! * [`Graph::attn_mix`]    — `o[b] = Σ_i a[b, i] · v[b·m + i]`

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;
use rand::Rng;

impl Graph {
    // ------------------------------------------------------------------
    // Broadcasting binary arithmetic
    // ------------------------------------------------------------------

    /// Elementwise addition with NumPy-style broadcasting.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).add(self.value(b));
        let needs = self.needs_grad(a) || self.needs_grad(b);
        let (sa, sb) = (self.value(a).shape2(), self.value(b).shape2());
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                vec![(a, grad.reduce_to_shape(sa)), (b, grad.reduce_to_shape(sb))]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).sub(self.value(b));
        let needs = self.needs_grad(a) || self.needs_grad(b);
        let (sa, sb) = (self.value(a).shape2(), self.value(b).shape2());
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                vec![
                    (a, grad.reduce_to_shape(sa)),
                    (b, grad.scale(-1.0).reduce_to_shape(sb)),
                ]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a).clone();
        let bv = self.value(b).clone();
        let out = av.mul(&bv);
        let needs = self.needs_grad(a) || self.needs_grad(b);
        let backward = needs.then(|| {
            let (sa, sb) = (av.shape2(), bv.shape2());
            Box::new(move |grad: &Tensor| {
                vec![
                    (a, grad.mul(&bv).reduce_to_shape(sa)),
                    (b, grad.mul(&av).reduce_to_shape(sb)),
                ]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Multiplies every element by the constant `s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let out = self.value(a).scale(s);
        let needs = self.needs_grad(a);
        let backward = needs.then(|| Box::new(move |grad: &Tensor| vec![(a, grad.scale(s))]) as _);
        self.push(out, needs, backward)
    }

    /// Adds the constant `s` to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let out = self.value(a).add_scalar(s);
        let needs = self.needs_grad(a);
        let backward = needs.then(|| Box::new(move |grad: &Tensor| vec![(a, grad.clone())]) as _);
        self.push(out, needs, backward)
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a).clone();
        let bv = self.value(b).clone();
        let out = av.matmul(&bv);
        let na = self.needs_grad(a);
        let nb = self.needs_grad(b);
        let needs = na || nb;
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                // dA = G · Bᵀ ; dB = Aᵀ · G — via the transpose-free
                // kernels, and only for the operands that need them.
                let mut grads = Vec::with_capacity(2);
                if na {
                    grads.push((a, grad.matmul_bt(&bv)));
                }
                if nb {
                    grads.push((b, av.matmul_tn(grad)));
                }
                grads
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Fused affine map `x · w + bias`, with `bias` a `1×n` row broadcast
    /// over output rows — one graph node and one memory pass instead of a
    /// matmul followed by an add, numerically identical to that pair.
    pub fn affine(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let xv = self.value(x).clone();
        let wv = self.value(w).clone();
        let out = xv.matmul_bias(&wv, self.value(bias));
        let bshape = self.value(bias).shape2();
        let nx = self.needs_grad(x);
        let nw = self.needs_grad(w);
        let nb = self.needs_grad(bias);
        let needs = nx || nw || nb;
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let mut grads = Vec::with_capacity(3);
                if nx {
                    grads.push((x, grad.matmul_bt(&wv)));
                }
                if nw {
                    grads.push((w, xv.matmul_tn(grad)));
                }
                if nb {
                    grads.push((bias, grad.reduce_to_shape(bshape)));
                }
                grads
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Matrix product `a · b` for a **sparse** left operand (exact zeros
    /// are structural — normalised adjacency, masked attention weights):
    /// forward and the `dB = Aᵀ·G` backward skip `a`'s zeros. Values are
    /// identical to [`Graph::matmul`]; only the work is pruned.
    pub fn matmul_masked(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a).clone();
        let bv = self.value(b).clone();
        let out = av.matmul_masked(&bv);
        let na = self.needs_grad(a);
        let nb = self.needs_grad(b);
        let needs = na || nb;
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let mut grads = Vec::with_capacity(2);
                if na {
                    grads.push((a, grad.matmul_bt(&bv)));
                }
                if nb {
                    grads.push((b, av.matmul_tn_masked(grad)));
                }
                grads
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let out = self.value(a).transpose();
        let needs = self.needs_grad(a);
        let backward =
            needs.then(|| Box::new(move |grad: &Tensor| vec![(a, grad.transpose())]) as _);
        self.push(out, needs, backward)
    }

    /// Row-wise dot product of two equally shaped matrices: `out[i, 0] =
    /// ⟨a[i], b[i]⟩`. Used for link-prediction scores `z_i(t)ᵀ z_j(t)`.
    pub fn rows_dot(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a).clone();
        let bv = self.value(b).clone();
        assert_eq!(av.shape(), bv.shape(), "rows_dot shape mismatch");
        let (r, c) = av.shape();
        let mut out = Tensor::zeros(r, 1);
        for i in 0..r {
            out.data_mut()[i] = av
                .row_slice(i)
                .iter()
                .zip(bv.row_slice(i))
                .map(|(x, y)| x * y)
                .sum();
        }
        let needs = self.needs_grad(a) || self.needs_grad(b);
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let mut da = Tensor::zeros(r, c);
                let mut db = Tensor::zeros(r, c);
                for i in 0..r {
                    let gi = grad.get(i, 0);
                    for j in 0..c {
                        da.set(i, j, gi * bv.get(i, j));
                        db.set(i, j, gi * av.get(i, j));
                    }
                }
                vec![(a, da), (b, db)]
            }) as _
        });
        self.push(out, needs, backward)
    }

    // ------------------------------------------------------------------
    // Elementwise nonlinearities
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let av = self.value(a).clone();
        let out = av.map(|x| x.max(0.0));
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let dx = grad
                    .data()
                    .iter()
                    .zip(av.data())
                    .map(|(&g, &x)| if x > 0.0 { g } else { 0.0 })
                    .collect();
                vec![(a, Tensor::from_vec(av.rows(), av.cols(), dx))]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let out = self.value(a).map(stable_sigmoid);
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            let y = out.clone();
            Box::new(move |grad: &Tensor| {
                let dx = grad
                    .data()
                    .iter()
                    .zip(y.data())
                    .map(|(&g, &s)| g * s * (1.0 - s))
                    .collect();
                vec![(a, Tensor::from_vec(y.rows(), y.cols(), dx))]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let out = self.value(a).map(f32::tanh);
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            let y = out.clone();
            Box::new(move |grad: &Tensor| {
                let dx = grad
                    .data()
                    .iter()
                    .zip(y.data())
                    .map(|(&g, &t)| g * (1.0 - t * t))
                    .collect();
                vec![(a, Tensor::from_vec(y.rows(), y.cols(), dx))]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let out = self.value(a).map(f32::exp);
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            let y = out.clone();
            Box::new(move |grad: &Tensor| vec![(a, grad.mul(&y))]) as _
        });
        self.push(out, needs, backward)
    }

    /// Elementwise natural logarithm, clamped below at `1e-12` for
    /// numerical safety.
    pub fn ln(&mut self, a: Var) -> Var {
        const EPS: f32 = 1e-12;
        let av = self.value(a).clone();
        let out = av.map(|x| x.max(EPS).ln());
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let dx = grad
                    .data()
                    .iter()
                    .zip(av.data())
                    .map(|(&g, &x)| g / x.max(EPS))
                    .collect();
                vec![(a, Tensor::from_vec(av.rows(), av.cols(), dx))]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Elementwise cosine. Used by the TGAT-style functional time encoding.
    pub fn cos(&mut self, a: Var) -> Var {
        let av = self.value(a).clone();
        let out = av.map(f32::cos);
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let dx = grad
                    .data()
                    .iter()
                    .zip(av.data())
                    .map(|(&g, &x)| -g * x.sin())
                    .collect();
                vec![(a, Tensor::from_vec(av.rows(), av.cols(), dx))]
            }) as _
        });
        self.push(out, needs, backward)
    }

    // ------------------------------------------------------------------
    // Softmax and normalization
    // ------------------------------------------------------------------

    /// Row-wise numerically stable softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let out = self.value(a).softmax_rows();
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            let y = out.clone();
            Box::new(move |grad: &Tensor| {
                let (r, c) = y.shape();
                let mut dx = Tensor::zeros(r, c);
                for i in 0..r {
                    let yr = y.row_slice(i);
                    let gr = grad.row_slice(i);
                    let inner: f32 = yr.iter().zip(gr).map(|(&s, &g)| s * g).sum();
                    for j in 0..c {
                        dx.set(i, j, yr[j] * (gr[j] - inner));
                    }
                }
                vec![(a, dx)]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Row-wise layer normalization with learnable gain and bias:
    /// `y = gain ⊙ (x − μ)/√(σ² + eps) + bias`, with `μ, σ²` computed per
    /// row and `gain, bias` of shape `1×c` (Eq. 5 of the paper).
    pub fn layer_norm(&mut self, x: Var, gain: Var, bias: Var, eps: f32) -> Var {
        let xv = self.value(x).clone();
        let gv = self.value(gain).clone();
        let bv = self.value(bias).clone();
        let (r, c) = xv.shape();
        assert_eq!(gv.shape(), (1, c), "layer_norm gain must be 1x{c}");
        assert_eq!(bv.shape(), (1, c), "layer_norm bias must be 1x{c}");

        let mut xhat = Tensor::zeros(r, c);
        let mut out = Tensor::zeros(r, c);
        let inv_sigma: Vec<f32> = (0..r)
            .map(|i| {
                crate::backend::layer_norm_row(
                    xv.row_slice(i),
                    gv.data(),
                    bv.data(),
                    eps,
                    out.row_slice_mut(i),
                    Some(xhat.row_slice_mut(i)),
                )
            })
            .collect();

        let needs = self.needs_grad(x) || self.needs_grad(gain) || self.needs_grad(bias);
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let mut dgain = Tensor::zeros(1, c);
                let mut dbias = Tensor::zeros(1, c);
                let mut dx = Tensor::zeros(r, c);
                #[allow(clippy::needless_range_loop)] // parallel-array indexing
                for i in 0..r {
                    let gr = grad.row_slice(i);
                    let xh = xhat.row_slice(i);
                    // dŷ = grad ⊙ gain
                    let dy: Vec<f32> = gr.iter().zip(gv.data()).map(|(&g, &gn)| g * gn).collect();
                    let mean_dy: f32 = dy.iter().sum::<f32>() / c as f32;
                    let mean_dy_xhat: f32 =
                        dy.iter().zip(xh).map(|(&d, &h)| d * h).sum::<f32>() / c as f32;
                    for j in 0..c {
                        dgain.data_mut()[j] += gr[j] * xh[j];
                        dbias.data_mut()[j] += gr[j];
                        dx.set(
                            i,
                            j,
                            inv_sigma[i] * (dy[j] - mean_dy - xh[j] * mean_dy_xhat),
                        );
                    }
                }
                vec![(x, dx), (gain, dgain), (bias, dbias)]
            }) as _
        });
        self.push(out, needs, backward)
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements, as a `1×1` scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let shape = self.value(a).shape2();
        let out = Tensor::scalar(self.value(a).sum());
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                vec![(a, Tensor::full(shape.rows, shape.cols, grad.item()))]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Mean of all elements, as a `1×1` scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let shape = self.value(a).shape2();
        let n = shape.len() as f32;
        let out = Tensor::scalar(self.value(a).mean());
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                vec![(a, Tensor::full(shape.rows, shape.cols, grad.item() / n))]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Column sums: `[r×c] → [1×c]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let shape = self.value(a).shape2();
        let out = self.value(a).sum_rows();
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                // broadcast the 1×c gradient back over all rows
                let mut dx = Tensor::zeros(shape.rows, shape.cols);
                for i in 0..shape.rows {
                    dx.row_slice_mut(i).copy_from_slice(grad.data());
                }
                vec![(a, dx)]
            }) as _
        });
        self.push(out, needs, backward)
    }

    // ------------------------------------------------------------------
    // Structure: concat / slice / gather
    // ------------------------------------------------------------------

    /// Horizontal concatenation of equally tall matrices.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of zero parts");
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let out = Tensor::hcat(&tensors);
        let widths: Vec<usize> = tensors.iter().map(|t| t.cols()).collect();
        let needs = parts.iter().any(|&p| self.needs_grad(p));
        let parts_owned: Vec<Var> = parts.to_vec();
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let mut off = 0;
                let mut contributions = Vec::with_capacity(parts_owned.len());
                for (&p, &w) in parts_owned.iter().zip(&widths) {
                    contributions.push((p, grad.slice_cols(off, w)));
                    off += w;
                }
                contributions
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Vertical stacking of equally wide matrices.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of zero parts");
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let out = Tensor::vcat(&tensors);
        let heights: Vec<usize> = tensors.iter().map(|t| t.rows()).collect();
        let needs = parts.iter().any(|&p| self.needs_grad(p));
        let parts_owned: Vec<Var> = parts.to_vec();
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let mut off = 0;
                let mut contributions = Vec::with_capacity(parts_owned.len());
                for (&p, &h) in parts_owned.iter().zip(&heights) {
                    contributions.push((p, grad.slice_rows(off, h)));
                    off += h;
                }
                contributions
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Extracts the column range `[start, start+len)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let shape = self.value(a).shape2();
        let out = self.value(a).slice_cols(start, len);
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let mut dx = Tensor::zeros(shape.rows, shape.cols);
                for i in 0..shape.rows {
                    dx.row_slice_mut(i)[start..start + len].copy_from_slice(grad.row_slice(i));
                }
                vec![(a, dx)]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Extracts the row range `[start, start+len)`.
    pub fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        let shape = self.value(a).shape2();
        let out = self.value(a).slice_rows(start, len);
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let mut dx = Tensor::zeros(shape.rows, shape.cols);
                for i in 0..len {
                    dx.row_slice_mut(start + i)
                        .copy_from_slice(grad.row_slice(i));
                }
                vec![(a, dx)]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Row gather / embedding lookup: `out[i] = table[idx[i]]`. The
    /// backward pass scatter-adds, so repeated indices accumulate — exactly
    /// the semantics an embedding table needs.
    pub fn gather_rows(&mut self, table: Var, idx: &[usize]) -> Var {
        let tv = self.value(table);
        let shape = tv.shape2();
        for &i in idx {
            assert!(
                i < shape.rows,
                "gather index {i} out of {} rows",
                shape.rows
            );
        }
        let out = tv.gather_rows(idx);
        let needs = self.needs_grad(table);
        let idx_owned: Vec<usize> = idx.to_vec();
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let mut dt = Tensor::zeros(shape.rows, shape.cols);
                for (pos, &i) in idx_owned.iter().enumerate() {
                    let g = grad.row_slice(pos);
                    for (d, &gv) in dt.row_slice_mut(i).iter_mut().zip(g) {
                        *d += gv;
                    }
                }
                vec![(table, dt)]
            }) as _
        });
        self.push(out, needs, backward)
    }

    // ------------------------------------------------------------------
    // Regularization
    // ------------------------------------------------------------------

    /// Inverted dropout: each element is zeroed with probability `p` and the
    /// survivors are scaled by `1/(1−p)`, so the expectation is unchanged.
    /// Pass the training-mode flag explicitly; in eval mode this is the
    /// identity and records nothing extra.
    pub fn dropout<R: Rng + ?Sized>(&mut self, a: Var, p: f32, train: bool, rng: &mut R) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        if !train || p == 0.0 {
            return a;
        }
        let shape = self.value(a).shape2();
        let keep = 1.0 - p;
        let mask: Vec<f32> = (0..shape.len())
            .map(|_| {
                if rng.gen::<f32>() < p {
                    0.0
                } else {
                    1.0 / keep
                }
            })
            .collect();
        let mask = Tensor::from_vec(shape.rows, shape.cols, mask);
        let out = self.value(a).mul(&mask);
        let needs = self.needs_grad(a);
        let backward =
            needs.then(|| Box::new(move |grad: &Tensor| vec![(a, grad.mul(&mask))]) as _);
        self.push(out, needs, backward)
    }

    // ------------------------------------------------------------------
    // Fused batched attention kernels
    // ------------------------------------------------------------------

    /// Batched scaled dot-product scores. `q` is `[B × w]` (one query per
    /// batch element), `k` is `[B·m × w]` (m keys per batch element,
    /// grouped contiguously). Returns `[B × m]` with
    /// `s[b, i] = ⟨q[b], k[b·m + i]⟩ · scale`. The caller picks the scale:
    /// textbook attention passes `1/√w`, the absorbed mailbox attention
    /// `1/√d_h` of a head narrower than the slots it scores.
    ///
    /// The operands are copied onto the tape only when a backward is
    /// recorded; an eval or replay pass reads them in place.
    pub fn attn_scores(&mut self, q: Var, k: Var, m: usize, scale: f32) -> Var {
        let (qv, kv) = (self.value(q), self.value(k));
        let (b, dh) = qv.shape();
        assert_eq!(
            kv.shape(),
            (b * m, dh),
            "attn_scores expects k of shape [{}x{}], got {}",
            b * m,
            dh,
            kv.shape2()
        );
        let mut out = Tensor::zeros(b, m);
        crate::backend::attn_scores_fwd(qv.data(), kv.data(), b, m, dh, scale, out.data_mut());
        let needs = self.needs_grad(q) || self.needs_grad(k);
        let backward = needs.then(|| {
            let (qv, kv) = (qv.clone(), kv.clone());
            Box::new(move |grad: &Tensor| {
                let mut dq = Tensor::zeros(b, dh);
                let mut dk = Tensor::zeros(b * m, dh);
                crate::backend::attn_scores_bwd(
                    grad.data(),
                    qv.data(),
                    kv.data(),
                    b,
                    m,
                    dh,
                    scale,
                    dq.data_mut(),
                    dk.data_mut(),
                );
                vec![(q, dq), (k, dk)]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Batched attention mixing. `attn` is `[B × m]` (weights per batch
    /// element), `v` is `[B·m × w]`. Returns `[B × w]` with
    /// `o[b] = Σ_i attn[b, i] · v[b·m + i]`. Like [`Graph::attn_scores`],
    /// it copies its operands only when it records a backward.
    pub fn attn_mix(&mut self, attn: Var, v: Var, m: usize) -> Var {
        let (av, vv) = (self.value(attn), self.value(v));
        let (b, m2) = av.shape();
        assert_eq!(m, m2, "attn_mix weight width {m2} != m {m}");
        let dh = vv.cols();
        assert_eq!(
            vv.rows(),
            b * m,
            "attn_mix expects v with {} rows, got {}",
            b * m,
            vv.rows()
        );
        let mut out = Tensor::zeros(b, dh);
        crate::backend::attn_mix_fwd(av.data(), vv.data(), b, m, dh, out.data_mut());
        let needs = self.needs_grad(attn) || self.needs_grad(v);
        let backward = needs.then(|| {
            let (av, vv) = (av.clone(), vv.clone());
            Box::new(move |grad: &Tensor| {
                let mut da = Tensor::zeros(b, m);
                let mut dv = Tensor::zeros(b * m, dh);
                crate::backend::attn_mix_bwd(
                    grad.data(),
                    av.data(),
                    vv.data(),
                    b,
                    m,
                    dh,
                    da.data_mut(),
                    dv.data_mut(),
                );
                vec![(attn, da), (v, dv)]
            }) as _
        });
        self.push(out, needs, backward)
    }

    // ------------------------------------------------------------------
    // Losses
    // ------------------------------------------------------------------

    /// Numerically stable mean binary-cross-entropy with logits:
    /// `mean_i [ max(x_i, 0) − x_i·t_i + ln(1 + e^{−|x_i|}) ]`, with
    /// `targets` a constant tensor of the same shape as `logits`.
    pub fn bce_with_logits_mean(&mut self, logits: Var, targets: &Tensor) -> Var {
        let lv = self.value(logits).clone();
        assert_eq!(lv.shape(), targets.shape(), "bce shape mismatch");
        let n = lv.len() as f32;
        let mut total = 0.0f64;
        for (&x, &t) in lv.data().iter().zip(targets.data()) {
            total += (x.max(0.0) - x * t + (-x.abs()).exp().ln_1p()) as f64;
        }
        let out = Tensor::scalar((total / n as f64) as f32);
        let needs = self.needs_grad(logits);
        let t_owned = targets.clone();
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let g = grad.item() / n;
                let dx: Vec<f32> = lv
                    .data()
                    .iter()
                    .zip(t_owned.data())
                    .map(|(&x, &t)| g * (stable_sigmoid(x) - t))
                    .collect();
                vec![(logits, Tensor::from_vec(lv.rows(), lv.cols(), dx))]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Mean squared error between `pred` and a constant `target`.
    pub fn mse_mean(&mut self, pred: Var, target: &Tensor) -> Var {
        let pv = self.value(pred).clone();
        assert_eq!(pv.shape(), target.shape(), "mse shape mismatch");
        let n = pv.len() as f32;
        let loss: f32 = pv
            .data()
            .iter()
            .zip(target.data())
            .map(|(&p, &t)| (p - t).powi(2))
            .sum::<f32>()
            / n;
        let out = Tensor::scalar(loss);
        let needs = self.needs_grad(pred);
        let t_owned = target.clone();
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| {
                let g = 2.0 * grad.item() / n;
                let dx: Vec<f32> = pv
                    .data()
                    .iter()
                    .zip(t_owned.data())
                    .map(|(&p, &t)| g * (p - t))
                    .collect();
                vec![(pred, Tensor::from_vec(pv.rows(), pv.cols(), dx))]
            }) as _
        });
        self.push(out, needs, backward)
    }

    /// Reshape (same number of elements, new `rows×cols`).
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let shape = self.value(a).shape2();
        let out = self.value(a).reshape(rows, cols);
        let needs = self.needs_grad(a);
        let backward = needs.then(|| {
            Box::new(move |grad: &Tensor| vec![(a, grad.reshape(shape.rows, shape.cols))]) as _
        });
        self.push(out, needs, backward)
    }
}

/// Sigmoid that never overflows for large |x|.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn add_forward_and_grad() {
        let mut r = rng();
        let a = Tensor::randn(3, 4, 1.0, &mut r);
        let b = Tensor::randn(3, 4, 1.0, &mut r);
        check_gradients(&[a, b], |g, vars| {
            let s = g.add(vars[0], vars[1]);
            g.sum_all(s)
        })
        .unwrap();
    }

    #[test]
    fn add_broadcast_grad() {
        let mut r = rng();
        let a = Tensor::randn(3, 4, 1.0, &mut r);
        let bias = Tensor::randn(1, 4, 1.0, &mut r);
        check_gradients(&[a, bias], |g, vars| {
            let s = g.add(vars[0], vars[1]);
            let sq = g.mul(s, s);
            g.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn sub_and_mul_grad() {
        let mut r = rng();
        let a = Tensor::randn(2, 3, 1.0, &mut r);
        let b = Tensor::randn(2, 3, 1.0, &mut r);
        check_gradients(&[a.clone(), b.clone()], |g, vars| {
            let d = g.sub(vars[0], vars[1]);
            g.sum_all(d)
        })
        .unwrap();
        check_gradients(&[a, b], |g, vars| {
            let p = g.mul(vars[0], vars[1]);
            g.sum_all(p)
        })
        .unwrap();
    }

    #[test]
    fn mul_broadcast_col_grad() {
        let mut r = rng();
        let a = Tensor::randn(3, 4, 1.0, &mut r);
        let s = Tensor::randn(3, 1, 1.0, &mut r);
        check_gradients(&[a, s], |g, vars| {
            let p = g.mul(vars[0], vars[1]);
            g.sum_all(p)
        })
        .unwrap();
    }

    #[test]
    fn matmul_grad() {
        let mut r = rng();
        let a = Tensor::randn(3, 4, 0.5, &mut r);
        let b = Tensor::randn(4, 2, 0.5, &mut r);
        check_gradients(&[a, b], |g, vars| {
            let p = g.matmul(vars[0], vars[1]);
            g.sum_all(p)
        })
        .unwrap();
    }

    #[test]
    fn affine_grad() {
        let mut r = rng();
        let x = Tensor::randn(3, 4, 0.5, &mut r);
        let w = Tensor::randn(4, 2, 0.5, &mut r);
        let b = Tensor::randn(1, 2, 0.5, &mut r);
        check_gradients(&[x, w, b], |g, vars| {
            let y = g.affine(vars[0], vars[1], vars[2]);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn affine_matches_matmul_then_add_bitwise() {
        let mut r = rng();
        let x = Tensor::randn(5, 7, 1.0, &mut r);
        let w = Tensor::randn(7, 3, 1.0, &mut r);
        let b = Tensor::randn(1, 3, 1.0, &mut r);
        let mut g = Graph::new();
        let (xv, wv, bv) = (
            g.constant(x.clone()),
            g.constant(w.clone()),
            g.constant(b.clone()),
        );
        let fused = g.affine(xv, wv, bv);
        let mm = g.matmul(xv, wv);
        let unfused = g.add(mm, bv);
        assert_eq!(g.value(fused).data(), g.value(unfused).data());
    }

    #[test]
    fn matmul_masked_grad() {
        let mut r = rng();
        let mut a = Tensor::randn(3, 5, 0.5, &mut r);
        // Structural zeros in the sparse operand; dA stays dense, so both
        // gradients survive the finite-difference probe.
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let b = Tensor::randn(5, 2, 0.5, &mut r);
        check_gradients(&[a, b], |g, vars| {
            let p = g.matmul_masked(vars[0], vars[1]);
            g.sum_all(p)
        })
        .unwrap();
    }

    #[test]
    fn matmul_masked_matches_dense() {
        let mut r = rng();
        let mut a = Tensor::randn(4, 6, 1.0, &mut r);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let b = Tensor::randn(6, 3, 1.0, &mut r);
        assert_eq!(a.matmul_masked(&b).data(), a.matmul(&b).data());
    }

    #[test]
    fn matmul_chain_grad() {
        let mut r = rng();
        let a = Tensor::randn(2, 3, 0.5, &mut r);
        let b = Tensor::randn(3, 3, 0.5, &mut r);
        let c = Tensor::randn(3, 2, 0.5, &mut r);
        check_gradients(&[a, b, c], |g, vars| {
            let ab = g.matmul(vars[0], vars[1]);
            let abc = g.matmul(ab, vars[2]);
            let t = g.tanh(abc);
            g.sum_all(t)
        })
        .unwrap();
    }

    #[test]
    fn transpose_grad() {
        let mut r = rng();
        let a = Tensor::randn(3, 2, 1.0, &mut r);
        check_gradients(&[a], |g, vars| {
            let t = g.transpose(vars[0]);
            let sq = g.mul(t, t);
            g.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn rows_dot_forward() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.constant(Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let d = g.rows_dot(a, b);
        assert_eq!(g.value(d).data(), &[17.0, 53.0]);
    }

    #[test]
    fn rows_dot_grad() {
        let mut r = rng();
        let a = Tensor::randn(4, 3, 1.0, &mut r);
        let b = Tensor::randn(4, 3, 1.0, &mut r);
        check_gradients(&[a, b], |g, vars| {
            let d = g.rows_dot(vars[0], vars[1]);
            g.sum_all(d)
        })
        .unwrap();
    }

    #[test]
    fn unary_grads() {
        let mut r = rng();
        // keep relu inputs away from the kink at 0
        let pos = Tensor::uniform(2, 3, 0.5, 2.0, &mut r);
        check_gradients(std::slice::from_ref(&pos), |g, vars| {
            let y = g.relu(vars[0]);
            g.sum_all(y)
        })
        .unwrap();
        let x = Tensor::randn(2, 3, 1.0, &mut r);
        for op in ["sigmoid", "tanh", "exp", "cos"] {
            let op = op.to_string();
            check_gradients(std::slice::from_ref(&x), move |g, vars| {
                let y = match op.as_str() {
                    "sigmoid" => g.sigmoid(vars[0]),
                    "tanh" => g.tanh(vars[0]),
                    "exp" => g.exp(vars[0]),
                    _ => g.cos(vars[0]),
                };
                g.sum_all(y)
            })
            .unwrap();
        }
        check_gradients(&[pos], |g, vars| {
            let y = g.ln(vars[0]);
            g.sum_all(y)
        })
        .unwrap();
    }

    #[test]
    fn softmax_rows_grad() {
        let mut r = rng();
        let x = Tensor::randn(3, 5, 1.0, &mut r);
        let w = Tensor::randn(3, 5, 1.0, &mut r);
        let w2 = w.clone();
        check_gradients(&[x], move |g, vars| {
            let s = g.softmax_rows(vars[0]);
            let wc = g.constant(w2.clone());
            let p = g.mul(s, wc);
            g.sum_all(p)
        })
        .unwrap();
    }

    #[test]
    fn layer_norm_forward_stats() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
        let gain = g.constant(Tensor::ones(1, 4));
        let bias = g.constant(Tensor::zeros(1, 4));
        let y = g.layer_norm(x, gain, bias, 1e-5);
        let row = g.value(y).row_slice(0);
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5, "mean {mean}");
        assert!((var - 1.0).abs() < 1e-3, "var {var}");
    }

    #[test]
    fn layer_norm_grad() {
        let mut r = rng();
        let x = Tensor::randn(3, 6, 1.0, &mut r);
        let gain = Tensor::uniform(1, 6, 0.5, 1.5, &mut r);
        let bias = Tensor::randn(1, 6, 0.2, &mut r);
        let w = Tensor::randn(3, 6, 1.0, &mut r);
        check_gradients(&[x, gain, bias], move |g, vars| {
            let y = g.layer_norm(vars[0], vars[1], vars[2], 1e-5);
            let wc = g.constant(w.clone());
            let p = g.mul(y, wc);
            g.sum_all(p)
        })
        .unwrap();
    }

    #[test]
    fn reductions_grad() {
        let mut r = rng();
        let x = Tensor::randn(3, 4, 1.0, &mut r);
        check_gradients(std::slice::from_ref(&x), |g, vars| g.mean_all(vars[0])).unwrap();
        check_gradients(&[x], |g, vars| {
            let s = g.sum_rows(vars[0]);
            let sq = g.mul(s, s);
            g.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn concat_and_slice_grad() {
        let mut r = rng();
        let a = Tensor::randn(2, 3, 1.0, &mut r);
        let b = Tensor::randn(2, 2, 1.0, &mut r);
        check_gradients(&[a.clone(), b.clone()], |g, vars| {
            let c = g.concat_cols(&[vars[0], vars[1]]);
            let sq = g.mul(c, c);
            g.sum_all(sq)
        })
        .unwrap();
        check_gradients(std::slice::from_ref(&a), |g, vars| {
            let s = g.slice_cols(vars[0], 1, 2);
            let sq = g.mul(s, s);
            g.sum_all(sq)
        })
        .unwrap();
        let c = Tensor::randn(3, 3, 1.0, &mut r);
        check_gradients(&[a, c], |g, vars| {
            let v = g.concat_rows(&[vars[0], vars[1]]);
            let sq = g.mul(v, v);
            g.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn slice_rows_grad() {
        let mut r = rng();
        let a = Tensor::randn(5, 3, 1.0, &mut r);
        check_gradients(&[a], |g, vars| {
            let s = g.slice_rows(vars[0], 1, 3);
            let sq = g.mul(s, s);
            g.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn gather_rows_grad_accumulates_repeats() {
        let mut g = Graph::new();
        let table = g.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]), true);
        let out = g.gather_rows(table, &[0, 0, 1]);
        let loss = g.sum_all(out);
        g.backward(loss);
        let grad = g.grad(table).unwrap();
        assert_eq!(grad.data(), &[2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn gather_rows_grad_check() {
        let mut r = rng();
        let t = Tensor::randn(4, 3, 1.0, &mut r);
        check_gradients(&[t], |g, vars| {
            let out = g.gather_rows(vars[0], &[2, 0, 2, 3]);
            let sq = g.mul(out, out);
            g.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut r = rng();
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(4, 4));
        let y = g.dropout(x, 0.5, false, &mut r);
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut r = rng();
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(100, 100));
        let y = g.dropout(x, 0.3, true, &mut r);
        let mean = g.value(y).mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn attn_scores_forward() {
        let mut g = Graph::new();
        // B=1, m=2, dh=2
        let q = g.constant(Tensor::from_rows(&[&[1.0, 0.0]]));
        let k = g.constant(Tensor::from_rows(&[&[2.0, 5.0], &[0.0, 7.0]]));
        let scale = 1.0 / 2f32.sqrt();
        let s = g.attn_scores(q, k, 2, scale);
        assert!((g.value(s).get(0, 0) - 2.0 * scale).abs() < 1e-6);
        assert!((g.value(s).get(0, 1) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn attn_scores_grad() {
        let mut r = rng();
        let q = Tensor::randn(3, 4, 0.7, &mut r);
        let k = Tensor::randn(6, 4, 0.7, &mut r); // m=2

        // the textbook 1/√4 and the 1/√2 of a 2-head absorbed split of
        // these 4 columns: the scale reaches both gradients
        for scale in [0.5, 1.0 / 2f32.sqrt()] {
            check_gradients(&[q.clone(), k.clone()], |g, vars| {
                let s = g.attn_scores(vars[0], vars[1], 2, scale);
                let sq = g.mul(s, s);
                g.sum_all(sq)
            })
            .unwrap();
        }
    }

    #[test]
    fn attn_mix_grad() {
        let mut r = rng();
        let a = Tensor::randn(3, 2, 0.7, &mut r);
        let v = Tensor::randn(6, 4, 0.7, &mut r);
        check_gradients(&[a, v], |g, vars| {
            let o = g.attn_mix(vars[0], vars[1], 2);
            let sq = g.mul(o, o);
            g.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn full_attention_block_grad() {
        // softmax(QKᵀ/√d)·V end to end through the fused kernels
        let mut r = rng();
        let q = Tensor::randn(2, 4, 0.5, &mut r);
        let k = Tensor::randn(6, 4, 0.5, &mut r);
        let v = Tensor::randn(6, 4, 0.5, &mut r);
        check_gradients(&[q, k, v], |g, vars| {
            let s = g.attn_scores(vars[0], vars[1], 3, 0.5);
            let a = g.softmax_rows(s);
            let o = g.attn_mix(a, vars[2], 3);
            let sq = g.mul(o, o);
            g.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn bce_known_value() {
        let mut g = Graph::new();
        let logits = g.leaf(Tensor::from_rows(&[&[0.0], &[0.0]]), true);
        let targets = Tensor::from_rows(&[&[1.0], &[0.0]]);
        let loss = g.bce_with_logits_mean(logits, &targets);
        // -ln(0.5) for both entries
        assert!((g.value(loss).item() - std::f32::consts::LN_2).abs() < 1e-6);
        g.backward(loss);
        let grad = g.grad(logits).unwrap();
        assert!((grad.get(0, 0) - (0.5 - 1.0) / 2.0).abs() < 1e-6);
        assert!((grad.get(1, 0) - (0.5 - 0.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn bce_grad_check() {
        let mut r = rng();
        let logits = Tensor::randn(5, 1, 1.5, &mut r);
        let targets = Tensor::from_vec(5, 1, vec![1.0, 0.0, 1.0, 1.0, 0.0]);
        check_gradients(&[logits], move |g, vars| {
            g.bce_with_logits_mean(vars[0], &targets)
        })
        .unwrap();
    }

    #[test]
    fn mse_grad_check() {
        let mut r = rng();
        let pred = Tensor::randn(4, 2, 1.0, &mut r);
        let target = Tensor::randn(4, 2, 1.0, &mut r);
        check_gradients(&[pred], move |g, vars| g.mse_mean(vars[0], &target)).unwrap();
    }

    #[test]
    fn reshape_grad() {
        let mut r = rng();
        let a = Tensor::randn(2, 6, 1.0, &mut r);
        check_gradients(&[a], |g, vars| {
            let rsh = g.reshape(vars[0], 4, 3);
            let sq = g.mul(rsh, rsh);
            g.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn constants_do_not_record_backward() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::ones(4, 4));
        let b = g.constant(Tensor::ones(4, 4));
        let c = g.matmul(a, b);
        assert!(!g.needs_grad(c));
        let loss = g.sum_all(c);
        g.backward(loss);
        assert!(g.grad(a).is_none());
    }

    #[test]
    fn stable_sigmoid_extremes() {
        assert!((stable_sigmoid(100.0) - 1.0).abs() < 1e-7);
        assert!(stable_sigmoid(-100.0).abs() < 1e-7);
        assert!((stable_sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(stable_sigmoid(-1e30).is_finite());
        assert!(stable_sigmoid(1e30).is_finite());
    }
}
