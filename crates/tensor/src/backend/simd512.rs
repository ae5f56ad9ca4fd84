//! AVX-512 widening of the packed GEMM microkernel (x86-64 only).
//!
//! This is the third [`super::SimdMode`] tier: the same per-element
//! contract as the AVX2+FMA kernels in [`super::simd`] — the contraction
//! index advances in ascending order and every multiply-add step is
//! fused — carried out on 16-lane ZMM vectors instead of 8-lane YMM.
//! Lane width is pure layout: which *elements* share a vector changes,
//! but each element's rounding chain is identical to the AVX2 tile's, so
//! the scalar-vs-SIMD tolerance bound documented on the parent module
//! covers this tier with no new analysis.
//!
//! Only the packed GEMM lives here. It is the serving hot spot (encoder
//! projections, MLP, mail batches) and the one kernel whose throughput
//! is FMA-bound rather than load-bound; the remaining kernels run their
//! AVX2 implementations under [`super::SimdMode::Avx512`] — see
//! [`super::SimdMode::sanitize`], which guarantees AVX2+FMA whenever
//! this tier is active.
//!
//! # Safety
//! Everything here is `#[target_feature(enable = "avx512f")]` and must
//! only run after `is_x86_feature_detected!("avx512f")` succeeded;
//! `sanitize` is the single gate, exactly as for the AVX2 module.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;

/// Row-block height: six rows of A per register tile gives the wide
/// tile 12 independent FMA chains — comfortably past the 8 that a
/// 4-cycle-latency, 2-port FMA unit needs, so load/frontend hiccups
/// don't starve the chains. 12 accumulators + 2 B vectors + a broadcast
/// fit the 32 ZMM registers with room to spare.
pub(super) const MR_Z: usize = 6;

/// Packed-strip width: 32 columns = two ZMM vectors, giving a `6×32`
/// tile of 12 ZMM accumulators.
pub(super) const NR_Z: usize = 32;

/// Half a strip: the narrow tile used when a tail strip has at most one
/// ZMM's worth of live columns, so ragged shapes don't pay for 32 lanes.
const HALF: usize = 16;

/// Rows `[r0, r1)` of `C = A · B (+ bias)` against B packed into
/// [`NR_Z`]-wide zero-padded strips (`pack_strips` in the parent, at
/// this tier's strip width). `out` holds exactly those rows. Strips with
/// more than [`HALF`] live columns run the full `6×32` tile; narrower
/// tail strips run a `6×16` tile over the strip's first half (the rest
/// is padding). Leftover rows run the 1-row kernel.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
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
    let strips = n.div_ceil(NR_Z);
    // Strips outer, row blocks inner: one strip (`k·NR_Z` floats) stays
    // L1-resident across every row block, while A streams sequentially —
    // the opposite nesting re-reads the whole packed panel per block.
    for s in 0..strips {
        let j0 = s * NR_Z;
        let nr = NR_Z.min(n - j0);
        let strip = &packed[s * k * NR_Z..(s + 1) * k * NR_Z];
        let mut i0 = r0;
        while i0 < r1 {
            let mr = MR_Z.min(r1 - i0);
            if mr == MR_Z {
                if nr > HALF {
                    tile_wide::<MR_Z>(a, strip, bias, i0, j0, nr, k, n, r0, out);
                } else {
                    tile_half::<MR_Z>(a, strip, bias, i0, j0, nr, k, n, r0, out);
                }
            } else {
                for mi in 0..mr {
                    tile_1x32(a, strip, bias, i0 + mi, j0, nr, k, n, r0, out);
                }
            }
            i0 += MR_Z;
        }
    }
}

/// Full `R`×32 register tile: `2R` ZMM accumulators, one fused
/// multiply-add per `kk` step per lane, ascending `kk`.
#[inline]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_wide<const R: usize>(
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
    let mut lo = [_mm512_setzero_ps(); R];
    let mut hi = [_mm512_setzero_ps(); R];
    for kk in 0..k {
        let b_lo = _mm512_loadu_ps(sp.add(kk * NR_Z));
        let b_hi = _mm512_loadu_ps(sp.add(kk * NR_Z + HALF));
        for mi in 0..R {
            let av = _mm512_set1_ps(*ap.add((i0 + mi) * k + kk));
            lo[mi] = _mm512_fmadd_ps(av, b_lo, lo[mi]);
            hi[mi] = _mm512_fmadd_ps(av, b_hi, hi[mi]);
        }
    }
    for mi in 0..R {
        let mut buf = [0.0f32; NR_Z];
        _mm512_storeu_ps(buf.as_mut_ptr(), lo[mi]);
        _mm512_storeu_ps(buf.as_mut_ptr().add(HALF), hi[mi]);
        writeback(&buf, bias, i0 + mi, j0, nr, n, r0, out);
    }
}

/// Narrow `R`×16 tile over the first half of a tail strip (at most
/// [`HALF`] live columns): one ZMM accumulator per row.
#[inline]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_half<const R: usize>(
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
    let mut acc = [_mm512_setzero_ps(); R];
    for kk in 0..k {
        let b_lo = _mm512_loadu_ps(sp.add(kk * NR_Z));
        for (mi, c) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ap.add((i0 + mi) * k + kk));
            *c = _mm512_fmadd_ps(av, b_lo, *c);
        }
    }
    for (mi, c) in acc.iter().enumerate() {
        let mut buf = [0.0f32; NR_Z];
        _mm512_storeu_ps(buf.as_mut_ptr(), *c);
        writeback(&buf, bias, i0 + mi, j0, nr, n, r0, out);
    }
}

/// Single-row edge tile (fewer than [`MR_Z`] rows left).
#[inline]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_1x32(
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
    let mut lo = _mm512_setzero_ps();
    let mut hi = _mm512_setzero_ps();
    for kk in 0..k {
        let av = _mm512_set1_ps(*ap.add(i * k + kk));
        lo = _mm512_fmadd_ps(av, _mm512_loadu_ps(sp.add(kk * NR_Z)), lo);
        if nr > HALF {
            hi = _mm512_fmadd_ps(av, _mm512_loadu_ps(sp.add(kk * NR_Z + HALF)), hi);
        }
    }
    let mut buf = [0.0f32; NR_Z];
    _mm512_storeu_ps(buf.as_mut_ptr(), lo);
    _mm512_storeu_ps(buf.as_mut_ptr().add(HALF), hi);
    writeback(&buf, bias, i, j0, nr, n, r0, out);
}

/// Copies the first `nr` accumulator lanes of one tile row into C,
/// adding the bias once after the full contraction (as every other
/// kernel does). Padded lanes beyond `nr` are dropped.
#[allow(clippy::too_many_arguments)]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn writeback(
    buf: &[f32; NR_Z],
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
