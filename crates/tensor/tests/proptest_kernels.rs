//! Property tests for the compute backend's two-tier determinism
//! contract (DESIGN.md §5), across ragged shapes and thread counts:
//!
//! * **Scalar mode is bitwise.** Every kernel run with
//!   `SimdMode::Scalar` must be bit-identical (`f32::to_bits`) to the
//!   plain pre-backend naive loop, for any thread count — each output
//!   element is a single ascending-`k` multiply-add chain no matter how
//!   the work is blocked or split.
//! * **SIMD mode tracks scalar within a small relative bound.** The
//!   AVX2+FMA kernels re-round the same ascending chain (fused steps,
//!   lane-split dots), so they are *not* bitwise-equal to scalar, but
//!   must stay within `1e-4` relative — and must themselves be bitwise
//!   thread-invariant. Shapes deliberately include `n % 8 ≠ 0`,
//!   `n % 16 ≠ 0` and `k % 8 ≠ 0` so vector-tail and packing-remainder
//!   paths are exercised.
//! * **Masked kernels keep the zero-skip in both modes**: rows of B
//!   selected only by exact zeros of A are never touched, even when they
//!   hold NaN.

use apan_check::{check, Gen};
use apan_tensor::backend::pool::set_num_threads;
use apan_tensor::backend::{self, simd_supported, SimdMode};
use apan_tensor::Tensor;

/// The original naive `i-k-j` kernel, zero-skip included — the bitwise
/// ground truth the backend's scalar mode preserves.
fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2);
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for kk in 0..k {
            let av = a.get(i, kk);
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                let cur = out.get(i, j);
                out.set(i, j, cur + av * b.get(kk, j));
            }
        }
    }
    out
}

fn reference_attn_scores(q: &Tensor, k: &Tensor, m: usize) -> Tensor {
    let (b, dh) = q.shape();
    let scale = 1.0 / (dh as f32).sqrt();
    let mut out = Tensor::zeros(b, m);
    for bi in 0..b {
        for i in 0..m {
            let mut s = 0.0f32;
            for d in 0..dh {
                s += q.get(bi, d) * k.get(bi * m + i, d);
            }
            out.set(bi, i, s * scale);
        }
    }
    out
}

fn reference_attn_mix(attn: &Tensor, v: &Tensor, m: usize) -> Tensor {
    let (b, _) = attn.shape();
    let dh = v.cols();
    let mut out = Tensor::zeros(b, dh);
    for bi in 0..b {
        for i in 0..m {
            let w = attn.get(bi, i);
            for d in 0..dh {
                let cur = out.get(bi, d);
                out.set(bi, d, cur + w * v.get(bi * m + i, d));
            }
        }
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn filled(r: usize, c: usize, vals: Vec<f32>) -> Tensor {
    Tensor::from_vec(r, c, vals)
}

/// Max relative deviation of `got` from `want` in units of the `1e-4`
/// relative budget the SIMD tier promises; `<= 1.0` passes.
fn rel_excess(want: &Tensor, got: &Tensor) -> f32 {
    want.data()
        .iter()
        .zip(got.data())
        .map(|(w, g)| (w - g).abs() / (1e-4 * (1.0 + w.abs())))
        .fold(0.0, f32::max)
}

/// Runs the backend GEMM at an explicit mode on tensor operands.
fn gemm_at(mode: SimdMode, a: &Tensor, b: &Tensor, bias: Option<&Tensor>) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    backend::gemm_with(
        mode,
        a.data(),
        b.data(),
        bias.map(|t| t.data()),
        m,
        k,
        n,
        out.data_mut(),
    );
    out
}

fn gemm_bt_at(mode: SimdMode, a: &Tensor, bt: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = bt.rows();
    let mut out = Tensor::zeros(m, n);
    backend::gemm_bt_with(mode, a.data(), bt.data(), m, k, n, out.data_mut());
    out
}

fn gemm_tn_at(mode: SimdMode, a: &Tensor, b: &Tensor, masked: bool) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(k, n);
    if masked {
        backend::gemm_tn_masked_with(mode, a.data(), b.data(), m, k, n, out.data_mut());
    } else {
        backend::gemm_tn_with(mode, a.data(), b.data(), m, k, n, out.data_mut());
    }
    out
}

fn gemm_masked_at(mode: SimdMode, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    backend::gemm_masked_with(mode, a.data(), b.data(), m, k, n, out.data_mut());
    out
}

/// GEMM shapes that stress every kernel path: scalars, vectors,
/// tall-skinny, sizes straddling the scalar MR=4 / NR=8 block
/// boundaries *and* the SIMD 8-lane / 16-wide-strip boundaries.
const SHAPES: [(usize, usize, usize); 11] = [
    (1, 1, 1),
    (1, 17, 1),
    (1, 9, 31),   // n % 8 = 7, n % 16 = 15: both vector tails
    (64, 3, 2),   // tall-skinny
    (5, 40, 9),   // row tail (5 = MR+1) and column tail (9 = NR+1)
    (4, 33, 8),   // exact scalar tile, half a SIMD strip
    (7, 8, 15),   // both tails
    (4, 13, 23),  // k % 8 = 5 dot tail, n % 16 = 7 strip tail
    (6, 31, 17),  // ragged everything
    (40, 40, 17), // past SMALL_GEMM → blocked/packed path
    (40, 37, 33), // past SMALL_GEMM with k and n remainders
];

/// One of [`SHAPES`], a random small shape, or a random shape past the
/// serial-fallback threshold: thirteen equally likely choices.
fn gemm_dims(g: &mut Gen) -> (usize, usize, usize) {
    match g.range(0..SHAPES.len() + 2) {
        i if i < SHAPES.len() => SHAPES[i],
        i if i == SHAPES.len() => (g.range(1..=12), g.range(1..=12), g.range(1..=12)),
        _ => (g.range(30..=50), g.range(20..=40), g.range(10..=30)),
    }
}

fn values(g: &mut Gen, n: usize, bound: f32) -> Vec<f32> {
    (0..n).map(|_| g.range(-bound..bound)).collect()
}

fn gemm_inputs(g: &mut Gen) -> (Tensor, Tensor) {
    let (m, k, n) = gemm_dims(g);
    (
        filled(m, k, values(g, m * k, 3.0)),
        filled(k, n, values(g, k * n, 3.0)),
    )
}

/// Attention inputs `(q [b×dh], k/v [b·m×dh], m)` over ragged sizes,
/// including `dh` values with 8-lane dot-product tails.
fn attn_inputs(g: &mut Gen) -> (Tensor, Tensor, usize) {
    let (b, m, dh) = (
        g.range(1usize..=12),
        g.range(1usize..=10),
        g.range(1usize..=21),
    );
    (
        filled(b, dh, values(g, b * dh, 2.0)),
        filled(b * m, dh, values(g, b * m * dh, 2.0)),
        m,
    )
}

#[test]
fn scalar_gemm_bitwise_matches_reference_for_all_thread_counts() {
    check(48, |g| {
        let (a, b) = gemm_inputs(g);
        let want = bits(&reference_matmul(&a, &b));
        for threads in [1usize, 2, 8] {
            set_num_threads(threads);
            assert_eq!(
                &bits(&gemm_at(SimdMode::Scalar, &a, &b, None)),
                &want,
                "scalar gemm, {} threads",
                threads
            );
        }
        set_num_threads(1);
    });
}

#[test]
fn simd_gemm_tracks_scalar_and_is_thread_invariant() {
    check(48, |g| {
        let (a, b) = gemm_inputs(g);
        if !simd_supported() {
            return;
        }
        let scalar = gemm_at(SimdMode::Scalar, &a, &b, None);
        set_num_threads(1);
        let serial = gemm_at(SimdMode::Avx2Fma, &a, &b, None);
        assert!(
            rel_excess(&scalar, &serial) <= 1.0,
            "simd gemm drifted past the 1e-4 relative budget"
        );
        for threads in [2usize, 8] {
            set_num_threads(threads);
            let par = gemm_at(SimdMode::Avx2Fma, &a, &b, None);
            assert_eq!(
                &bits(&par),
                &bits(&serial),
                "simd gemm, {} threads",
                threads
            );
        }
        set_num_threads(1);
    });
}

#[test]
fn gemm_bt_matches_transposed_reference_in_both_modes() {
    check(48, |g| {
        let (a, bt) = gemm_inputs(g);
        // Store the second operand transposed ([n×k]); gemm_bt reads it
        // as Bᵀ, so the reference un-transposes it back to [k×n].
        let (a, bt) = (a, bt.transpose());
        let want = reference_matmul(&a, &bt.transpose());
        for threads in [1usize, 2, 8] {
            set_num_threads(threads);
            assert_eq!(
                &bits(&gemm_bt_at(SimdMode::Scalar, &a, &bt)),
                &bits(&want),
                "scalar gemm_bt, {} threads",
                threads
            );
        }
        set_num_threads(1);
        if simd_supported() {
            let simd = gemm_bt_at(SimdMode::Avx2Fma, &a, &bt);
            assert!(
                rel_excess(&want, &simd) <= 1.0,
                "simd gemm_bt drifted past the 1e-4 relative budget"
            );
        }
    });
}

#[test]
fn gemm_tn_matches_transposed_reference_in_both_modes() {
    check(48, |g| {
        let (at, b) = gemm_inputs(g);
        // Store the first operand pre-transposed ([k×m]); gemm_tn reads
        // it as Aᵀ = [m×k], so the reference un-transposes it first.
        let at = at.transpose();
        let want = reference_matmul(&at.transpose(), &b);
        for threads in [1usize, 2, 8] {
            set_num_threads(threads);
            assert_eq!(
                &bits(&gemm_tn_at(SimdMode::Scalar, &at, &b, false)),
                &bits(&want),
                "scalar gemm_tn, {} threads",
                threads
            );
            assert_eq!(
                &bits(&gemm_tn_at(SimdMode::Scalar, &at, &b, true)),
                &bits(&want),
                "scalar gemm_tn_masked, {} threads",
                threads
            );
        }
        set_num_threads(1);
        if simd_supported() {
            assert!(
                rel_excess(&want, &gemm_tn_at(SimdMode::Avx2Fma, &at, &b, false)) <= 1.0,
                "simd gemm_tn drifted"
            );
            assert!(
                rel_excess(&want, &gemm_tn_at(SimdMode::Avx2Fma, &at, &b, true)) <= 1.0,
                "simd gemm_tn_masked drifted"
            );
        }
    });
}

#[test]
fn masked_gemm_skips_zeros_in_both_modes() {
    check(48, |g| {
        let mask_mod = g.range(2usize..5);
        let (a, b) = gemm_inputs(g);
        let mut a = a;
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % mask_mod != 0 {
                *v = 0.0;
            }
        }
        let want = reference_matmul(&a, &b);
        for threads in [1usize, 2, 8] {
            set_num_threads(threads);
            assert_eq!(
                &bits(&gemm_masked_at(SimdMode::Scalar, &a, &b)),
                &bits(&want),
                "scalar matmul_masked, {} threads",
                threads
            );
            assert_eq!(
                &bits(&gemm_at(SimdMode::Scalar, &a, &b, None)),
                &bits(&want),
                "scalar dense on sparse data, {} threads",
                threads
            );
        }
        set_num_threads(1);
        if simd_supported() {
            assert!(
                rel_excess(&want, &gemm_masked_at(SimdMode::Avx2Fma, &a, &b)) <= 1.0,
                "simd gemm_masked drifted"
            );
        }
    });
}

#[test]
fn masked_kernels_never_touch_nan_rows() {
    check(48, |g| {
        let zero_col = g.range(0usize..64);
        // k = 1 leaves no second column: redraw (about one draw in 13)
        let (a, b) = loop {
            let (a, b) = gemm_inputs(g);
            if a.cols() >= 2 {
                break (a, b);
            }
        };
        let (m, k) = a.shape();
        let kk0 = zero_col % k;
        // Zero out one column of A and poison the row of B it selects:
        // the zero-skip must keep the NaNs out in both modes.
        let mut a = a;
        for i in 0..m {
            a.set(i, kk0, 0.0);
        }
        let mut b = b;
        for j in 0..b.cols() {
            b.set(kk0, j, f32::NAN);
        }
        for mode in [SimdMode::Scalar, SimdMode::Avx2Fma] {
            let out = gemm_masked_at(mode, &a, &b);
            assert!(
                out.data().iter().all(|v| v.is_finite()),
                "gemm_masked leaked NaN in {:?}",
                mode
            );
        }
        // gemm_tn_masked skips on zeros of (pre-transposed) A: zero one
        // row of `at` so output row kk0 ignores the poisoned B row.
        let at = a.transpose(); // [k×m], gemm_tn reads it as A = [m×k]
        let mut bt = Tensor::zeros(m, 3);
        for i in 0..m {
            for j in 0..3 {
                bt.set(i, j, if i == 0 { f32::NAN } else { 0.5 });
            }
        }
        let mut at2 = at.clone();
        for p in 0..at2.cols() {
            at2.set(0, p, 0.0); // A[0, :] = 0 → B row 0 (NaN) never selected
        }
        for mode in [SimdMode::Scalar, SimdMode::Avx2Fma] {
            let out = gemm_tn_at(mode, &at2.transpose(), &bt, true);
            // Only output row 0 is shielded by the zeroed A row; rows
            // p ≥ 1 legitimately mix the NaN B row in.
            assert!(
                out.data()[..3].iter().all(|v| v.is_finite()),
                "gemm_tn_masked leaked NaN in {:?}",
                mode
            );
        }
    });
}

#[test]
fn fused_bias_matches_matmul_then_add_in_both_modes() {
    check(48, |g| {
        let bias_seed = g.range(-2.0f32..2.0);
        let (a, b) = gemm_inputs(g);
        let n = b.cols();
        let bias = Tensor::row(
            &(0..n)
                .map(|j| bias_seed + j as f32 * 0.25)
                .collect::<Vec<_>>(),
        );
        for mode in [SimdMode::Scalar, SimdMode::Avx2Fma] {
            // Within a mode, the fused bias must be bitwise equal to that
            // mode's own matmul followed by a broadcast add.
            let mut unfused = gemm_at(mode, &a, &b, None);
            for i in 0..unfused.rows() {
                for j in 0..n {
                    let cur = unfused.get(i, j);
                    unfused.set(i, j, cur + bias.get(0, j));
                }
            }
            for threads in [1usize, 2, 8] {
                set_num_threads(threads);
                assert_eq!(
                    &bits(&gemm_at(mode, &a, &b, Some(&bias))),
                    &bits(&unfused),
                    "fused bias in {:?}, {} threads",
                    mode,
                    threads
                );
            }
            set_num_threads(1);
        }
    });
}

#[test]
fn attn_kernels_match_reference_in_both_modes() {
    check(48, |g| {
        let (q, k, m) = attn_inputs(g);
        let (b, dh) = q.shape();
        let scale = 1.0 / (dh as f32).sqrt();
        let want_scores = reference_attn_scores(&q, &k, m);
        let want_mix = reference_attn_mix(&want_scores, &k, m);
        let run = |mode: SimdMode, threads: usize| {
            set_num_threads(threads);
            let mut scores = Tensor::zeros(b, m);
            backend::attn_scores_fwd_with(
                mode,
                q.data(),
                k.data(),
                b,
                m,
                dh,
                scale,
                scores.data_mut(),
            );
            let mut mixed = Tensor::zeros(b, dh);
            backend::attn_mix_fwd_with(mode, scores.data(), k.data(), b, m, dh, mixed.data_mut());
            set_num_threads(1);
            (scores, mixed)
        };
        for threads in [1usize, 2, 8] {
            let (scores, mixed) = run(SimdMode::Scalar, threads);
            assert_eq!(
                &bits(&scores),
                &bits(&want_scores),
                "scalar attn_scores, {} threads",
                threads
            );
            assert_eq!(
                &bits(&mixed),
                &bits(&want_mix),
                "scalar attn_mix, {} threads",
                threads
            );
        }
        if simd_supported() {
            let (s1, m1) = run(SimdMode::Avx2Fma, 1);
            assert!(
                rel_excess(&want_scores, &s1) <= 1.0,
                "simd attn_scores drifted"
            );
            assert!(rel_excess(&want_mix, &m1) <= 1.0, "simd attn_mix drifted");
            for threads in [2usize, 8] {
                let (sp, mp) = run(SimdMode::Avx2Fma, threads);
                assert_eq!(
                    &bits(&sp),
                    &bits(&s1),
                    "simd attn_scores, {} threads",
                    threads
                );
                assert_eq!(&bits(&mp), &bits(&m1), "simd attn_mix, {} threads", threads);
            }
        }
    });
}

#[test]
fn attn_backward_is_thread_invariant_at_the_active_mode() {
    check(48, |g| {
        let (q, k, m) = attn_inputs(g);
        use apan_tensor::Graph;
        // The backward kernels are scalar-only by design; the forward runs
        // at the active mode. Gradients must be bitwise thread-invariant
        // either way.
        let mut grads_at_1 = None;
        for threads in [1usize, 2, 8] {
            set_num_threads(threads);
            let mut g = Graph::new();
            let qv = g.leaf(q.clone(), true);
            let kv = g.leaf(k.clone(), true);
            let s = g.attn_scores(qv, kv, m, 1.0 / (q.cols() as f32).sqrt());
            let mixed = g.attn_mix(s, kv, m);
            let loss = g.sum_all(mixed);
            g.backward(loss);
            let got = (bits(g.grad(qv).unwrap()), bits(g.grad(kv).unwrap()));
            match &grads_at_1 {
                None => grads_at_1 = Some(got),
                Some(want) => assert_eq!(&got, want, "attn grads, {} threads", threads),
            }
        }
        set_num_threads(1);
    });
}
