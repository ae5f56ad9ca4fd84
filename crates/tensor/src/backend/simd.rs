//! AVX2 + FMA implementations of the hot kernels (x86-64 only).
//!
//! Every function here is the vector twin of a scalar kernel in the
//! parent module and obeys the accumulation-order contract documented
//! there (`SimdMode`): the contraction index still advances in ascending
//! order; the numerical difference from the scalar chain is only that
//!
//! * multiply-add steps are *fused* (`vfmaddps`: one rounding per step
//!   instead of two), and
//! * plain dot products ([`dot`], used by `attn_scores`) split the sum
//!   across 8 lanes and tree-reduce at the end.
//!
//! Scalar remainder loops (column tails narrower than a vector) use the
//! unfused `mul` + `add` sequence, so those elements are bit-identical
//! to the scalar kernel — the contract's error bound covers them
//! trivially.
//!
//! # Safety
//! All functions are `#[target_feature(enable = "avx2", enable = "fma")]`
//! and must only be called after runtime detection succeeded.
//! [`super::SimdMode::sanitize`] is the single gate: every public
//! `*_with` entry point downgrades `Avx2Fma` to `Scalar` when the CPU
//! lacks the features, so these functions are unreachable otherwise.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;

/// SIMD microkernel row-block height (rows of A per register tile).
pub(super) const MR_V: usize = 4;

/// SIMD packed-strip width: 16 columns = two YMM vectors, giving a
/// `4×16` tile of 8 YMM accumulators — FMA-port bound on AVX2 cores.
pub(super) const NR_V: usize = 16;

/// `y[..] += av · x[..]`, fused, with an unfused scalar tail.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy(av: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let len = x.len();
    let av8 = _mm256_set1_ps(av);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let mut j = 0;
    while j + 8 <= len {
        let acc = _mm256_fmadd_ps(av8, _mm256_loadu_ps(xp.add(j)), _mm256_loadu_ps(yp.add(j)));
        _mm256_storeu_ps(yp.add(j), acc);
        j += 8;
    }
    while j < len {
        *yp.add(j) += av * *xp.add(j);
        j += 1;
    }
}

/// Horizontal sum of a YMM register's 8 lanes (tree reduction).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps(v, 1);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0b01));
    _mm_cvtss_f32(s)
}

/// Lane-split fused dot product: 8 partial sums advancing over the
/// contraction in ascending order, tree-reduced, scalar tail added last.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let len = x.len();
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut acc = _mm256_setzero_ps();
    let mut d = 0;
    while d + 8 <= len {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(d)), _mm256_loadu_ps(yp.add(d)), acc);
        d += 8;
    }
    let mut s = hsum(acc);
    while d < len {
        s += *xp.add(d) * *yp.add(d);
        d += 1;
    }
    s
}

// ----------------------------------------------------------------------
// Packed GEMM (strips of width NR_V)
// ----------------------------------------------------------------------

/// Rows `[r0, r1)` of `C = A · B (+ bias)` against B packed into
/// [`NR_V`]-wide zero-padded strips (see `pack_strips` in the parent).
/// `out` holds exactly those rows. Full `MR_V`-row blocks run the 4×16
/// register tile; leftover rows run a 1×16 kernel.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn gemm_packed(
    a: &[f32],
    packed: &[f32],
    bias: Option<&[f32]>,
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let strips = n.div_ceil(NR_V);
    // Strips outer, row blocks inner: one strip (`k·NR_V` floats) stays
    // L1-resident across every row block, while A streams sequentially.
    for s in 0..strips {
        let j0 = s * NR_V;
        let nr = NR_V.min(n - j0);
        let strip = &packed[s * k * NR_V..(s + 1) * k * NR_V];
        let mut i0 = r0;
        while i0 < r1 {
            let mr = MR_V.min(r1 - i0);
            if mr == MR_V {
                tile_4x16(a, strip, bias, i0, j0, nr, k, n, r0, out);
            } else {
                for mi in 0..mr {
                    tile_1x16(a, strip, bias, i0 + mi, j0, nr, k, n, r0, out);
                }
            }
            i0 += MR_V;
        }
    }
}

/// Full 4×16 register tile: 8 YMM accumulators, one fused multiply-add
/// per `kk` step per lane, ascending `kk` — the scalar chain with fused
/// rounding.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_4x16(
    a: &[f32],
    strip: &[f32],
    bias: Option<&[f32]>,
    i0: usize,
    j0: usize,
    nr: usize,
    k: usize,
    n: usize,
    r0: usize,
    out: &mut [f32],
) {
    let ap = a.as_ptr();
    let sp = strip.as_ptr();
    let mut acc = [_mm256_setzero_ps(); 8];
    for kk in 0..k {
        let b_lo = _mm256_loadu_ps(sp.add(kk * NR_V));
        let b_hi = _mm256_loadu_ps(sp.add(kk * NR_V + 8));
        for mi in 0..MR_V {
            let av = _mm256_set1_ps(*ap.add((i0 + mi) * k + kk));
            acc[2 * mi] = _mm256_fmadd_ps(av, b_lo, acc[2 * mi]);
            acc[2 * mi + 1] = _mm256_fmadd_ps(av, b_hi, acc[2 * mi + 1]);
        }
    }
    for mi in 0..MR_V {
        let mut buf = [0.0f32; NR_V];
        _mm256_storeu_ps(buf.as_mut_ptr(), acc[2 * mi]);
        _mm256_storeu_ps(buf.as_mut_ptr().add(8), acc[2 * mi + 1]);
        writeback(&buf, bias, i0 + mi, j0, nr, n, r0, out);
    }
}

/// Single-row edge tile (fewer than `MR_V` rows left).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_1x16(
    a: &[f32],
    strip: &[f32],
    bias: Option<&[f32]>,
    i: usize,
    j0: usize,
    nr: usize,
    k: usize,
    n: usize,
    r0: usize,
    out: &mut [f32],
) {
    let ap = a.as_ptr();
    let sp = strip.as_ptr();
    let mut lo = _mm256_setzero_ps();
    let mut hi = _mm256_setzero_ps();
    for kk in 0..k {
        let av = _mm256_set1_ps(*ap.add(i * k + kk));
        lo = _mm256_fmadd_ps(av, _mm256_loadu_ps(sp.add(kk * NR_V)), lo);
        hi = _mm256_fmadd_ps(av, _mm256_loadu_ps(sp.add(kk * NR_V + 8)), hi);
    }
    let mut buf = [0.0f32; NR_V];
    _mm256_storeu_ps(buf.as_mut_ptr(), lo);
    _mm256_storeu_ps(buf.as_mut_ptr().add(8), hi);
    writeback(&buf, bias, i, j0, nr, n, r0, out);
}

/// Copies the first `nr` accumulator lanes of one tile row into C,
/// adding the bias once after the full contraction (as the scalar
/// kernels do). Padded lanes beyond `nr` are dropped.
#[allow(clippy::too_many_arguments)]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn writeback(
    buf: &[f32; NR_V],
    bias: Option<&[f32]>,
    i: usize,
    j0: usize,
    nr: usize,
    n: usize,
    r0: usize,
    out: &mut [f32],
) {
    let o_row = &mut out[(i - r0) * n + j0..(i - r0) * n + j0 + nr];
    match bias {
        Some(bias) => {
            for ((o, &c), &bv) in o_row.iter_mut().zip(buf.iter()).zip(&bias[j0..j0 + nr]) {
                *o = c + bv;
            }
        }
        None => o_row.copy_from_slice(&buf[..nr]),
    }
}

// ----------------------------------------------------------------------
// Unpacked kernels (small problems, transposed orientations, attention)
// ----------------------------------------------------------------------

/// The small-problem GEMM (`out` pre-zeroed, unpacked row-major B):
/// 8-wide column blocks with a fused ascending-`kk` chain per element,
/// unfused scalar tail columns.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn gemm_small(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let bp = b.as_ptr();
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        let op = o_row.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = _mm256_setzero_ps();
            for (kk, &av) in a_row.iter().enumerate() {
                acc = _mm256_fmadd_ps(_mm256_set1_ps(av), _mm256_loadu_ps(bp.add(kk * n + j)), acc);
            }
            if let Some(bias) = bias {
                acc = _mm256_add_ps(acc, _mm256_loadu_ps(bias.as_ptr().add(j)));
            }
            _mm256_storeu_ps(op.add(j), acc);
            j += 8;
        }
        for jj in j..n {
            let mut c = 0.0f32;
            for (kk, &av) in a_row.iter().enumerate() {
                c += av * *bp.add(kk * n + jj);
            }
            if let Some(bias) = bias {
                c += bias[jj];
            }
            o_row[jj] = c;
        }
    }
}

/// The small-problem `A · Bᵀ` (B stored `[n×k]`): both operands are
/// `k`-contiguous, so each element is one lane-split fused dot.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn gemm_bt_small(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (o, b_row) in o_row.iter_mut().zip(b.chunks_exact(k)) {
            *o = dot(a_row, b_row);
        }
    }
}

/// Rows `[r0, r1)` of `out[k×n] = aᵀ · b` (`a` is `[m×k]`, read
/// column-wise). With `masked`, zero entries of A are skipped exactly as
/// the scalar masked kernel does (NaN/inf rows of `b` they select stay
/// untouched); without it, the dense no-skip semantics apply.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn gemm_tn_rows(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    r0: usize,
    r1: usize,
    masked: bool,
    out: &mut [f32],
) {
    out.fill(0.0);
    for p in r0..r1 {
        let o_row = &mut out[(p - r0) * n..(p - r0 + 1) * n];
        for i in 0..m {
            let av = a[i * k + p];
            if masked && av == 0.0 {
                continue;
            }
            axpy(av, &b[i * n..(i + 1) * n], o_row);
        }
    }
}

/// Rows `[r0, r1)` of the zero-skipping GEMM (`gemm_masked`): the old
/// `i-k-j` kernel with the skip retained, vectorized across columns.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn gemm_masked_rows(
    a: &[f32],
    b: &[f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    out.fill(0.0);
    for i in r0..r1 {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[(i - r0) * n..(i - r0 + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            axpy(av, &b[kk * n..(kk + 1) * n], o_row);
        }
    }
}

/// Batch rows `[r0, r1)` of the attention-scores forward kernel:
/// lane-split fused dot products over `dh`, scaled once at the end.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn attn_scores_rows(
    q: &[f32],
    k: &[f32],
    r0: usize,
    r1: usize,
    m: usize,
    dh: usize,
    scale: f32,
    out: &mut [f32],
) {
    for bi in r0..r1 {
        let q_row = &q[bi * dh..(bi + 1) * dh];
        for i in 0..m {
            let k_row = &k[(bi * m + i) * dh..(bi * m + i + 1) * dh];
            out[(bi - r0) * m + i] = dot(q_row, k_row) * scale;
        }
    }
}

/// Batch rows `[r0, r1)` of the attention-mix forward kernel: weighted
/// row accumulation, fused, ascending slot index per element.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn attn_mix_rows(
    attn: &[f32],
    v: &[f32],
    r0: usize,
    r1: usize,
    m: usize,
    dh: usize,
    out: &mut [f32],
) {
    out.fill(0.0);
    for bi in r0..r1 {
        let o_row = &mut out[(bi - r0) * dh..(bi - r0 + 1) * dh];
        for i in 0..m {
            let w = attn[bi * m + i];
            axpy(w, &v[(bi * m + i) * dh..(bi * m + i + 1) * dh], o_row);
        }
    }
}
