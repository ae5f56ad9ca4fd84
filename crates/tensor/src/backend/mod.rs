//! The compute backend: blocked, cache-tiled, row-parallel kernels, with
//! runtime-dispatched AVX2+FMA twins for the hot forward paths and an
//! AVX-512 widening of the packed GEMM on CPUs that have it.
//!
//! # The tiered determinism contract
//!
//! Every kernel here runs in one of three modes ([`SimdMode`]), selected
//! once per process by [`active_simd`] or explicitly via the `*_with`
//! entry points. The properties below are load-bearing; see the
//! determinism entry in `DESIGN.md` §5.
//!
//! 1. **Scalar mode is the bitwise reference.** Each output element is
//!    produced by one scalar multiply-add chain that walks the
//!    contraction index in ascending order, rounding after every step —
//!    exactly the chain the original naive `i-k-j` kernel produced.
//!    Blocking and B-panel packing only reorder *which* elements are
//!    computed when, never the chain inside an element; Rust never
//!    contracts `a*b + c` into an FMA on its own, and we never split the
//!    contraction dimension.
//! 2. **AVX2+FMA mode is deterministic but not scalar-bit-identical.**
//!    The contraction index still advances in ascending order, and the
//!    same inputs always produce the same bits (for any thread count),
//!    but the per-element chain differs from scalar in two documented
//!    ways: multiply-add steps are *fused* (`vfmaddps`: one rounding per
//!    step instead of two), and plain dot products split the sum across
//!    8 lanes and tree-reduce at the end. Both are re-roundings of the
//!    same ascending chain, so for a contraction of length `k` the
//!    divergence is bounded by the usual ~`k·ε·Σ|aᵢ·bᵢ|` term — a few
//!    ULPs at encoder sizes, and asserted to stay within `1e-4` relative
//!    by the kernel proptests.
//! 3. **AVX-512 mode is the same chain on wider lanes.** The
//!    [`simd512`] packed GEMM keeps property 2's per-element chain
//!    (ascending contraction, fused steps) on 16-lane ZMM vectors; lane
//!    width is layout, not arithmetic, so the AVX2 tolerance analysis
//!    covers it unchanged. Every kernel other than the packed GEMM runs
//!    its AVX2+FMA implementation under this mode.
//! 4. **Parallelism partitions output rows only.** Threads own disjoint
//!    row ranges of the output: [`pool::parallel_rows_mut`] (or its
//!    two-output form) hands each task its own rows as a `&mut` slice,
//!    so no kernel touches a raw pointer. The arithmetic per row is
//!    independent of the thread count and results are bit-identical to
//!    a serial run for any `APAN_THREADS`, *in either mode*.
//!
//! A kernel that panics in any task unwinds to its caller only after
//! every pool worker has finished its rows (see [`pool`]), so no worker
//! ever writes into, or reads from, a buffer the caller has dropped.
//!
//! The int8 serving kernels ([`quant`]) sit outside the tiers: they
//! accumulate in exact `i32` arithmetic, which is associative, so they
//! are bitwise deterministic across modes *and* thread counts — this
//! includes the AVX-512 VNNI kernel (see [`vnni_supported`]).
//!
//! Mode selection: [`active_simd`] picks the widest tier the CPU
//! reports ([`SimdMode::Avx512`] → [`SimdMode::Avx2Fma`] → scalar)
//! unless `APAN_SIMD=0` is set; anything a kernel receives is
//! [`SimdMode::sanitize`]d, so requesting SIMD on an unsupported
//! machine silently (and safely) runs scalar. Backward-pass
//! kernels with scatter-shaped writes (`attn_*_bwd`) are scalar-only:
//! they are off the serving path, and keeping them on the reference
//! chain keeps training runs bit-reproducible regardless of mode.
//!
//! One observable difference from the pre-backend kernel remains: the
//! per-element `a == 0.0` skip is gone from the dense paths (it cost a
//! branch per element and blocked vectorization). Adding `0.0 * b` to a
//! partial sum is exact for finite `b` — an accumulator that starts at
//! `+0.0` can never become `-0.0` under IEEE-754 round-to-nearest
//! addition, so the skipped add was always a no-op. Callers that
//! genuinely have sparse left-hand sides (graph adjacency, masked
//! attention) use the dedicated `*_masked` kernels, which keep the skip
//! in both modes.

pub mod pool;
pub mod quant;
mod simd;
mod simd512;

use pool::{parallel_rows_mut, parallel_rows_mut2};
use std::sync::OnceLock;

/// Which kernel implementation a call should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdMode {
    /// Portable reference path: one rounded multiply-add per step.
    Scalar,
    /// Explicit AVX2+FMA microkernels (x86-64 with runtime support).
    Avx2Fma,
    /// AVX-512 widening of the packed GEMM; every other kernel runs its
    /// AVX2+FMA implementation. Same per-element chain as `Avx2Fma`.
    Avx512,
}

impl SimdMode {
    /// Downgrades a vector mode to the widest tier the running CPU
    /// supports ([`SimdMode::Avx512`] → [`SimdMode::Avx2Fma`] →
    /// [`SimdMode::Scalar`]). Every kernel sanitizes its mode argument,
    /// so an explicit vector request is safe anywhere.
    pub fn sanitize(self) -> SimdMode {
        match self {
            SimdMode::Avx512 if avx512_supported() => SimdMode::Avx512,
            SimdMode::Avx512 | SimdMode::Avx2Fma if simd_supported() => SimdMode::Avx2Fma,
            _ => SimdMode::Scalar,
        }
    }
}

/// Whether the running CPU supports the AVX2+FMA kernel set.
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the running CPU supports the AVX-512 GEMM tier. AVX-512F
/// implies AVX2+FMA on every shipping CPU, but the tier falls back to
/// the AVX2 kernels for everything except the packed GEMM, so both
/// feature sets are checked explicitly.
pub fn avx512_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        simd_supported() && std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the int8 GEMM can use the AVX-512 VNNI kernel
/// (`vpdpbusd`). Only consulted when the active mode is
/// [`SimdMode::Avx512`]; without VNNI that mode keeps the AVX2 i8 dot.
pub fn vnni_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx512_supported() && std::arch::is_x86_feature_detected!("avx512vnni")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The process-wide kernel mode: the widest supported vector tier,
/// unless the `APAN_SIMD` environment variable disables vectorization
/// (`0`/`false`/`off`/`no`). Resolved once on first use; invalid values
/// warn once and keep the default (enabled), like `APAN_THREADS`.
pub fn active_simd() -> SimdMode {
    static MODE: OnceLock<SimdMode> = OnceLock::new();
    static WARN: std::sync::Once = std::sync::Once::new();
    *MODE.get_or_init(|| {
        if pool::parse_flag("APAN_SIMD", true, &WARN) {
            SimdMode::Avx512.sanitize()
        } else {
            SimdMode::Scalar
        }
    })
}

/// Scalar microkernel row-block height (rows of A per register tile).
const MR: usize = 4;

/// Scalar packed-strip width (columns of C per register tile). `MR × NR`
/// f32 accumulators fit the 16 SIMD registers of the x86-64 baseline.
const NR: usize = 8;

/// Below this many multiply-adds a GEMM runs the plain serial loop:
/// packing B would cost more than it saves.
const SMALL_GEMM: usize = 16 * 1024;

/// Minimum multiply-adds worth of rows per parallel chunk. Chunks below
/// this lose more to channel dispatch than they gain from a second core.
const PAR_CHUNK: usize = 64 * 1024;

/// Rows per chunk so that one chunk carries at least [`PAR_CHUNK`]
/// multiply-adds (`per_row` = mul-adds needed for one output row).
fn min_rows_for(per_row: usize) -> usize {
    (PAR_CHUNK / per_row.max(1)).max(MR)
}

/// The packed-strip width for a mode: the microkernel tile geometry and
/// the B-panel layout must agree, so packing is always done through the
/// mode the GEMM will run in.
fn strip_width(mode: SimdMode) -> usize {
    match mode {
        SimdMode::Scalar => NR,
        SimdMode::Avx2Fma => simd_width(),
        SimdMode::Avx512 => simd512_width(),
    }
}

#[cfg(target_arch = "x86_64")]
fn simd_width() -> usize {
    simd::NR_V
}

#[cfg(target_arch = "x86_64")]
fn simd512_width() -> usize {
    simd512::NR_Z
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_width() -> usize {
    NR // unreachable in practice: sanitize() never yields Avx2Fma here
}

#[cfg(not(target_arch = "x86_64"))]
fn simd512_width() -> usize {
    NR // unreachable in practice: sanitize() never yields Avx512 here
}

/// A zero-initialised buffer whose first element sits on a 64-byte
/// boundary: a plain `Vec` over-allocated by up to one cache line and
/// viewed from its first aligned element. Packed panels live in these so
/// a ZMM load of a packed strip never splits across cache lines (a
/// 4-byte-aligned `Vec` would split *every* 64-byte load, and half of
/// all 32-byte loads). Every SIMD load is unaligned (`loadu`), so the
/// alignment is a speed property only.
struct Aligned<T> {
    buf: Vec<T>,
    start: usize,
    len: usize,
}

impl<T: Copy + Default> Aligned<T> {
    fn zeroed(len: usize) -> Aligned<T> {
        let slack = 64 / std::mem::size_of::<T>() - 1;
        let buf = vec![T::default(); len + slack];
        // `align_offset` may decline to answer; an unaligned view is
        // slower, never wrong.
        let start = buf.as_ptr().align_offset(64).min(slack);
        Aligned { buf, start, len }
    }
}

impl<T> std::ops::Deref for Aligned<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl<T> std::ops::DerefMut for Aligned<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

/// Packs row-major `b[k×n]` into `w`-wide column strips, zero-padding the
/// tail strip, so a microkernel streams one strip contiguously.
fn pack_strips(b: &[f32], k: usize, n: usize, w: usize) -> Aligned<f32> {
    let strips = n.div_ceil(w);
    let mut packed = Aligned::zeroed(strips * k * w);
    for s in 0..strips {
        let j0 = s * w;
        let cols = w.min(n - j0);
        let strip = &mut packed[s * k * w..(s + 1) * k * w];
        for kk in 0..k {
            strip[kk * w..kk * w + cols].copy_from_slice(&b[kk * n + j0..kk * n + j0 + cols]);
        }
    }
    packed
}

/// Transpose-packs `b[n×k]` (i.e. Bᵀ stored row-major) into the same
/// strip layout [`pack_strips`] produces for B: strip lane `jj` at depth
/// `kk` holds `b[(j0+jj)·k + kk]`.
fn pack_strips_bt(b: &[f32], k: usize, n: usize, w: usize) -> Aligned<f32> {
    let strips = n.div_ceil(w);
    let mut packed = Aligned::zeroed(strips * k * w);
    for s in 0..strips {
        let j0 = s * w;
        let cols = w.min(n - j0);
        let strip = &mut packed[s * k * w..(s + 1) * k * w];
        for jj in 0..cols {
            let b_row = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
            for (kk, &bv) in b_row.iter().enumerate() {
                strip[kk * w + jj] = bv;
            }
        }
    }
    packed
}

// ----------------------------------------------------------------------
// GEMM: C = A · B (+ bias)
// ----------------------------------------------------------------------

/// `out[m×n] = a[m×k] · b[k×n]`, plus `bias[n]` broadcast over rows when
/// given, at the process-wide [`active_simd`] mode. The bias is added
/// *after* the full contraction of an element, so the result matches a
/// matmul followed by a broadcast add exactly (bitwise, per mode).
pub fn gemm(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    gemm_with(active_simd(), a, b, bias, m, k, n, out);
}

/// [`gemm`] at an explicit (sanitized) mode. `out` must be zeroed.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    mode: SimdMode,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let mode = mode.sanitize();
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if let Some(bias) = bias {
        debug_assert_eq!(bias.len(), n);
    }
    if m * k * n <= SMALL_GEMM {
        match mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `sanitize` verified AVX2+FMA support above.
            SimdMode::Avx2Fma | SimdMode::Avx512 => unsafe {
                simd::gemm_small(a, b, bias, m, k, n, out)
            },
            _ => gemm_naive(a, b, bias, 0, m, k, n, out),
        }
        return;
    }

    // Pack B once into mode-width column strips so the microkernel
    // streams it contiguously; zero-padded tail lanes are computed and
    // dropped.
    let packed = pack_strips(b, k, n, strip_width(mode));
    gemm_packed(mode, a, &packed, bias, k, n, out);
}

/// Row-parallel `out = a · B (+ bias)` against B packed into `mode`-width
/// strips ([`pack_strips`] or [`pack_strips_bt`]); `mode` is sanitized.
fn gemm_packed(
    mode: SimdMode,
    a: &[f32],
    packed: &[f32],
    bias: Option<&[f32]>,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    parallel_rows_mut(out, n, min_rows_for(k * n), |r0, r1, rows| match mode {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller's `sanitize` verified AVX-512F support.
        SimdMode::Avx512 => unsafe { simd512::gemm_packed(a, packed, bias, r0, r1, k, n, rows) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller's `sanitize` verified AVX2+FMA support.
        SimdMode::Avx2Fma => unsafe { simd::gemm_packed(a, packed, bias, r0, r1, k, n, rows) },
        _ => gemm_blocked(a, packed, bias, r0, r1, k, n, rows),
    });
}

/// The serial fallback: the original cache-friendly `i-k-j` loop, minus
/// the zero-skip branch. Writes rows `[r0, r1)` of C into `out` (which
/// holds exactly those rows) and must see them zero-initialised.
#[allow(clippy::too_many_arguments)]
fn gemm_naive(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    for i in r0..r1 {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[(i - r0) * n..(i - r0 + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        if let Some(bias) = bias {
            for (o, &bv) in o_row.iter_mut().zip(bias) {
                *o += bv;
            }
        }
    }
}

/// Blocked scalar kernel over rows `[r0, r1)`: MR-row blocks against
/// NR-wide packed strips of B, accumulating each `MR×NR` tile in
/// registers over the full contraction before touching memory.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    a: &[f32],
    packed: &[f32],
    bias: Option<&[f32]>,
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let strips = n.div_ceil(NR);
    // Strips outer, row blocks inner, like the vector kernels: the strip
    // stays cache-hot across blocks. Loop order never changes bits —
    // each element's chain is fixed by its own (row, strip) tile.
    for s in 0..strips {
        let j0 = s * NR;
        let nr = NR.min(n - j0);
        let strip = &packed[s * k * NR..(s + 1) * k * NR];
        let mut i0 = r0;
        while i0 < r1 {
            let mr = MR.min(r1 - i0);
            if mr == MR {
                micro_kernel(a, strip, bias, i0, j0, nr, k, n, r0, out);
            } else {
                edge_kernel(a, strip, bias, i0, mr, j0, nr, k, n, r0, out);
            }
            i0 += MR;
        }
    }
}

/// Full `MR×NR` register tile. The accumulator walks `kk` in ascending
/// order, one rounded add per step — the same chain as the naive loop.
/// Iterator zips (instead of indexing) keep bounds checks out of the
/// inner loop so it vectorizes.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_kernel(
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
    let a0 = &a[i0 * k..i0 * k + k];
    let a1 = &a[(i0 + 1) * k..(i0 + 1) * k + k];
    let a2 = &a[(i0 + 2) * k..(i0 + 2) * k + k];
    let a3 = &a[(i0 + 3) * k..(i0 + 3) * k + k];
    let mut acc = [[0.0f32; NR]; MR];
    let [acc0, acc1, acc2, acc3] = &mut acc; // MR == 4
    for (((&av0, &av1), (&av2, &av3)), b_row) in a0
        .iter()
        .zip(a1)
        .zip(a2.iter().zip(a3))
        .zip(strip.chunks_exact(NR))
    {
        for (jj, &bv) in b_row.iter().enumerate() {
            acc0[jj] += av0 * bv;
            acc1[jj] += av1 * bv;
            acc2[jj] += av2 * bv;
            acc3[jj] += av3 * bv;
        }
    }
    for (mi, acc_row) in acc.iter().enumerate() {
        let o_row = &mut out[(i0 + mi - r0) * n + j0..(i0 + mi - r0) * n + j0 + nr];
        match bias {
            Some(bias) => {
                for ((o, &c), &bv) in o_row.iter_mut().zip(acc_row).zip(&bias[j0..j0 + nr]) {
                    *o = c + bv;
                }
            }
            None => o_row.copy_from_slice(&acc_row[..nr]),
        }
    }
}

/// Ragged tail tile (fewer than MR rows). Same per-element chain.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn edge_kernel(
    a: &[f32],
    strip: &[f32],
    bias: Option<&[f32]>,
    i0: usize,
    mr: usize,
    j0: usize,
    nr: usize,
    k: usize,
    n: usize,
    r0: usize,
    out: &mut [f32],
) {
    for mi in 0..mr {
        let a_row = &a[(i0 + mi) * k..(i0 + mi + 1) * k];
        let mut acc = [0.0f32; NR];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &strip[kk * NR..kk * NR + NR];
            for (c, &bv) in acc.iter_mut().zip(b_row) {
                *c += av * bv;
            }
        }
        let o_row = &mut out[(i0 + mi - r0) * n + j0..(i0 + mi - r0) * n + j0 + nr];
        match bias {
            Some(bias) => {
                for ((o, &c), &bv) in o_row.iter_mut().zip(&acc).zip(&bias[j0..j0 + nr]) {
                    *o = c + bv;
                }
            }
            None => o_row.copy_from_slice(&acc[..nr]),
        }
    }
}

// ----------------------------------------------------------------------
// GEMM variants for the backward pass
// ----------------------------------------------------------------------

/// `out[m×n] = a[m×k] · b[n×k]ᵀ` at the process-wide mode — no transpose
/// of B is ever allocated at the tensor layer.
pub fn gemm_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    gemm_bt_with(active_simd(), a, b, m, k, n, out);
}

/// [`gemm_bt`] at an explicit (sanitized) mode. In scalar mode the
/// result is bit-identical to `a.matmul(&b.transpose())`: the
/// contraction still runs over `kk` ascending.
///
/// Large problems transpose-pack B's rows straight into the same strips
/// [`gemm_with`] uses and run the shared microkernel, fusing what used
/// to be a materialised transpose plus a matmul into one pass. Small
/// problems run plain per-element dot products (both operands are
/// already `k`-contiguous).
pub fn gemm_bt_with(
    mode: SimdMode,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let mode = mode.sanitize();
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if m * k * n <= SMALL_GEMM {
        match mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `sanitize` verified AVX2+FMA support above.
            SimdMode::Avx2Fma | SimdMode::Avx512 => unsafe {
                simd::gemm_bt_small(a, b, m, k, n, out)
            },
            _ => {
                for i in 0..m {
                    let a_row = &a[i * k..(i + 1) * k];
                    let o_row = &mut out[i * n..(i + 1) * n];
                    for (o, b_row) in o_row.iter_mut().zip(b.chunks_exact(k)) {
                        let mut c = 0.0f32;
                        for (&av, &bv) in a_row.iter().zip(b_row) {
                            c += av * bv;
                        }
                        *o = c;
                    }
                }
            }
        }
        return;
    }

    let packed = pack_strips_bt(b, k, n, strip_width(mode));
    gemm_packed(mode, a, &packed, None, k, n, out);
}

/// `out[k×n] = a[m×k]ᵀ · b[m×n]` at the process-wide mode — A read
/// column-wise in place.
pub fn gemm_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    gemm_tn_with(active_simd(), a, b, m, k, n, out);
}

/// [`gemm_tn`] at an explicit (sanitized) mode. In scalar mode the
/// result is bit-identical to `a.transpose().matmul(b)`: element
/// `(p, j)` sums `a[i,p]·b[i,j]` over `i` ascending, as the naive kernel
/// did.
pub fn gemm_tn_with(
    mode: SimdMode,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    gemm_tn_dispatch(mode, a, b, m, k, n, false, out);
}

/// `out[k×n] = a[m×k]ᵀ · b[m×n]`, skipping zero entries of A, at the
/// process-wide mode. The sparse-aware backward companion of
/// [`gemm_masked`]: `dB = Aᵀ·G` touches only the rows of G that A's
/// nonzeros select.
pub fn gemm_tn_masked(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    gemm_tn_masked_with(active_simd(), a, b, m, k, n, out);
}

/// [`gemm_tn_masked`] at an explicit (sanitized) mode. The zero-skip is
/// semantic (it keeps NaN/inf rows of `b` selected by exact zeros out of
/// the sum), so both modes retain it.
pub fn gemm_tn_masked_with(
    mode: SimdMode,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    gemm_tn_dispatch(mode, a, b, m, k, n, true, out);
}

#[allow(clippy::too_many_arguments)]
fn gemm_tn_dispatch(
    mode: SimdMode,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    masked: bool,
    out: &mut [f32],
) {
    let mode = mode.sanitize();
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(out.len(), k * n);
    parallel_rows_mut(out, n, min_rows_for(m * n), |r0, r1, rows| {
        match mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `sanitize` verified AVX2+FMA support above.
            SimdMode::Avx2Fma | SimdMode::Avx512 => unsafe {
                simd::gemm_tn_rows(a, b, m, k, n, r0, r1, masked, rows)
            },
            _ => gemm_tn_rows_scalar(a, b, m, k, n, r0, r1, masked, rows),
        }
    });
}

/// Scalar rows `[r0, r1)` of `aᵀ · b`, with or without the zero-skip.
#[allow(clippy::too_many_arguments)]
fn gemm_tn_rows_scalar(
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
            let b_row = &b[i * n..(i + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `out[m×n] = a[m×k] · b[k×n]` with the zero-skip retained, at the
/// process-wide mode: the old `i-k-j` kernel, row-parallel. For
/// genuinely sparse left-hand sides (normalised adjacency, masked
/// attention weights) the skip prunes the contraction down to the
/// nonzero pattern.
pub fn gemm_masked(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    gemm_masked_with(active_simd(), a, b, m, k, n, out);
}

/// [`gemm_masked`] at an explicit (sanitized) mode. Both modes keep the
/// `a == 0.0` skip (it is semantic, not just a fast path).
pub fn gemm_masked_with(
    mode: SimdMode,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let mode = mode.sanitize();
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    parallel_rows_mut(out, n, min_rows_for(k * n), |r0, r1, rows| {
        match mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `sanitize` verified AVX2+FMA support above.
            SimdMode::Avx2Fma | SimdMode::Avx512 => unsafe {
                simd::gemm_masked_rows(a, b, r0, r1, k, n, rows)
            },
            _ => {
                rows.fill(0.0);
                for i in r0..r1 {
                    let a_row = &a[i * k..(i + 1) * k];
                    let o_row = &mut rows[(i - r0) * n..(i - r0 + 1) * n];
                    for (kk, &av) in a_row.iter().enumerate() {
                        if av == 0.0 {
                            continue;
                        }
                        let b_row = &b[kk * n..(kk + 1) * n];
                        for (o, &bv) in o_row.iter_mut().zip(b_row) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }
    });
}

// ----------------------------------------------------------------------
// Fused attention kernels (batched, grouped-key layout)
// ----------------------------------------------------------------------

/// Scores forward: `out[b_i, i] = ⟨q[b_i], k[b_i·m + i]⟩ · scale` for
/// `q[b×dh]`, `k[b·m×dh]`, at the process-wide mode. Parallel over batch
/// rows.
pub fn attn_scores_fwd(
    q: &[f32],
    k: &[f32],
    b: usize,
    m: usize,
    dh: usize,
    scale: f32,
    out: &mut [f32],
) {
    attn_scores_fwd_with(active_simd(), q, k, b, m, dh, scale, out);
}

/// [`attn_scores_fwd`] at an explicit (sanitized) mode.
#[allow(clippy::too_many_arguments)]
pub fn attn_scores_fwd_with(
    mode: SimdMode,
    q: &[f32],
    k: &[f32],
    b: usize,
    m: usize,
    dh: usize,
    scale: f32,
    out: &mut [f32],
) {
    let mode = mode.sanitize();
    debug_assert_eq!(q.len(), b * dh);
    debug_assert_eq!(k.len(), b * m * dh);
    debug_assert_eq!(out.len(), b * m);
    parallel_rows_mut(out, m, min_rows_for(m * dh), |r0, r1, rows| {
        match mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `sanitize` verified AVX2+FMA support above.
            SimdMode::Avx2Fma | SimdMode::Avx512 => unsafe {
                simd::attn_scores_rows(q, k, r0, r1, m, dh, scale, rows)
            },
            _ => {
                for bi in r0..r1 {
                    let q_row = &q[bi * dh..(bi + 1) * dh];
                    for i in 0..m {
                        let k_row = &k[(bi * m + i) * dh..(bi * m + i + 1) * dh];
                        let mut s = 0.0f32;
                        for (&qx, &kx) in q_row.iter().zip(k_row) {
                            s += qx * kx;
                        }
                        rows[(bi - r0) * m + i] = s * scale;
                    }
                }
            }
        }
    });
}

/// Scores backward: `dq[b_i] += Σ_i g·k_row`, `dk[b_i·m+i] = g·q_row`
/// with `g = grad[b_i, i]·scale`. Batch row `b_i` owns `dq` row `b_i`
/// and `dk` rows `b_i·m..(b_i+1)·m`, so the batch split writes disjoint
/// rows of both outputs. Scalar-only (training path).
#[allow(clippy::too_many_arguments)]
pub fn attn_scores_bwd(
    grad: &[f32],
    q: &[f32],
    k: &[f32],
    b: usize,
    m: usize,
    dh: usize,
    scale: f32,
    dq: &mut [f32],
    dk: &mut [f32],
) {
    debug_assert_eq!(grad.len(), b * m);
    debug_assert_eq!(dq.len(), b * dh);
    debug_assert_eq!(dk.len(), b * m * dh);
    let min_rows = min_rows_for(2 * m * dh);
    parallel_rows_mut2(dq, dh, dk, m * dh, min_rows, |r0, r1, dq_rows, dk_rows| {
        dq_rows.fill(0.0);
        for bi in r0..r1 {
            let q_row = &q[bi * dh..(bi + 1) * dh];
            let dq_row = &mut dq_rows[(bi - r0) * dh..(bi - r0 + 1) * dh];
            for i in 0..m {
                let g = grad[bi * m + i] * scale;
                let k_row = &k[(bi * m + i) * dh..(bi * m + i + 1) * dh];
                for (d, &kx) in dq_row.iter_mut().zip(k_row) {
                    *d += g * kx;
                }
                let dk_row =
                    &mut dk_rows[(bi * m + i - r0 * m) * dh..(bi * m + i - r0 * m + 1) * dh];
                for (d, &qx) in dk_row.iter_mut().zip(q_row) {
                    *d = g * qx;
                }
            }
        }
    });
}

/// Mix forward: `out[b_i] = Σ_i attn[b_i, i] · v[b_i·m + i]` for
/// `attn[b×m]`, `v[b·m×dh]`, at the process-wide mode. Parallel over
/// batch rows.
pub fn attn_mix_fwd(attn: &[f32], v: &[f32], b: usize, m: usize, dh: usize, out: &mut [f32]) {
    attn_mix_fwd_with(active_simd(), attn, v, b, m, dh, out);
}

/// [`attn_mix_fwd`] at an explicit (sanitized) mode.
pub fn attn_mix_fwd_with(
    mode: SimdMode,
    attn: &[f32],
    v: &[f32],
    b: usize,
    m: usize,
    dh: usize,
    out: &mut [f32],
) {
    let mode = mode.sanitize();
    debug_assert_eq!(attn.len(), b * m);
    debug_assert_eq!(v.len(), b * m * dh);
    debug_assert_eq!(out.len(), b * dh);
    parallel_rows_mut(out, dh, min_rows_for(m * dh), |r0, r1, rows| {
        match mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `sanitize` verified AVX2+FMA support above.
            SimdMode::Avx2Fma | SimdMode::Avx512 => unsafe {
                simd::attn_mix_rows(attn, v, r0, r1, m, dh, rows)
            },
            _ => {
                rows.fill(0.0);
                for bi in r0..r1 {
                    let o_row = &mut rows[(bi - r0) * dh..(bi - r0 + 1) * dh];
                    for i in 0..m {
                        let w = attn[bi * m + i];
                        let v_row = &v[(bi * m + i) * dh..(bi * m + i + 1) * dh];
                        for (o, &vx) in o_row.iter_mut().zip(v_row) {
                            *o += w * vx;
                        }
                    }
                }
            }
        }
    });
}

/// Mix backward: `da[b_i, i] = ⟨grad[b_i], v_row⟩`,
/// `dv[b_i·m+i] = attn[b_i, i]·grad[b_i]`. Same disjoint-row argument as
/// [`attn_scores_bwd`]. Scalar-only (training path).
#[allow(clippy::too_many_arguments)]
pub fn attn_mix_bwd(
    grad: &[f32],
    attn: &[f32],
    v: &[f32],
    b: usize,
    m: usize,
    dh: usize,
    da: &mut [f32],
    dv: &mut [f32],
) {
    debug_assert_eq!(grad.len(), b * dh);
    debug_assert_eq!(da.len(), b * m);
    debug_assert_eq!(dv.len(), b * m * dh);
    let min_rows = min_rows_for(2 * m * dh);
    parallel_rows_mut2(da, m, dv, m * dh, min_rows, |r0, r1, da_rows, dv_rows| {
        for bi in r0..r1 {
            let g_row = &grad[bi * dh..(bi + 1) * dh];
            for i in 0..m {
                let v_row = &v[(bi * m + i) * dh..(bi * m + i + 1) * dh];
                let mut s = 0.0f32;
                for (&gx, &vx) in g_row.iter().zip(v_row) {
                    s += gx * vx;
                }
                da_rows[(bi - r0) * m + i] = s;
                let w = attn[bi * m + i];
                let dv_row =
                    &mut dv_rows[(bi * m + i - r0 * m) * dh..(bi * m + i - r0 * m + 1) * dh];
                for (d, &gx) in dv_row.iter_mut().zip(g_row) {
                    *d = w * gx;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-backend kernel, zero-skip and all: the reference every
    /// scalar-mode kernel must match bit-for-bit.
    fn reference_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[kk * n + j];
                }
            }
        }
        out
    }

    fn arange(len: usize, seed: f32) -> Vec<f32> {
        // A deterministic, sign-varying, non-trivial fill.
        (0..len)
            .map(|i| ((i as f32 * 0.37 + seed).sin() * 3.0) - 1.0)
            .collect()
    }

    fn assert_bits_eq(want: &[f32], got: &[f32], what: &str) {
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{what}"
        );
    }

    /// SIMD-vs-scalar tolerance: re-rounding an ascending chain of length
    /// `k` stays within a small relative bound at test sizes.
    fn assert_close(want: &[f32], got: &[f32], what: &str) {
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            let tol = 1e-4f32 * (1.0 + w.abs());
            assert!(
                (w - g).abs() <= tol,
                "{what}: element {i}: scalar {w} vs simd {g}"
            );
        }
    }

    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 1),
        (3, 5, 2),
        (4, 8, 8),
        (5, 9, 11),
        (17, 33, 9),
        (64, 64, 64),
    ];

    #[test]
    fn scalar_gemm_matches_reference_bitwise() {
        for &(m, k, n) in SHAPES {
            let a = arange(m * k, 0.1);
            let b = arange(k * n, 0.7);
            let want = reference_matmul(&a, &b, m, k, n);
            let mut got = vec![0.0f32; m * n];
            gemm_with(SimdMode::Scalar, &a, &b, None, m, k, n, &mut got);
            assert_bits_eq(&want, &got, &format!("scalar gemm at {m}x{k}x{n}"));
        }
    }

    #[test]
    fn simd_gemm_matches_scalar_within_tolerance() {
        if !simd_supported() {
            return;
        }
        for &(m, k, n) in SHAPES {
            let a = arange(m * k, 0.1);
            let b = arange(k * n, 0.7);
            let mut scalar = vec![0.0f32; m * n];
            gemm_with(SimdMode::Scalar, &a, &b, None, m, k, n, &mut scalar);
            for mode in [SimdMode::Avx2Fma, SimdMode::Avx512] {
                let mut simd = vec![0.0f32; m * n];
                gemm_with(mode, &a, &b, None, m, k, n, &mut simd);
                assert_close(&scalar, &simd, &format!("{mode:?} gemm at {m}x{k}x{n}"));
            }
        }
    }

    #[test]
    fn gemm_bias_equals_matmul_then_add() {
        let (m, k, n) = (7, 13, 10);
        let a = arange(m * k, 0.3);
        let b = arange(k * n, 0.9);
        let bias = arange(n, 2.0);
        for mode in [SimdMode::Scalar, SimdMode::Avx2Fma, SimdMode::Avx512] {
            let mut plain = vec![0.0f32; m * n];
            gemm_with(mode, &a, &b, None, m, k, n, &mut plain);
            for i in 0..m {
                for j in 0..n {
                    plain[i * n + j] += bias[j];
                }
            }
            let mut fused = vec![0.0f32; m * n];
            gemm_with(mode, &a, &b, Some(&bias), m, k, n, &mut fused);
            assert_bits_eq(&plain, &fused, &format!("bias fusion in {mode:?}"));
        }
    }

    #[test]
    fn gemm_bt_matches_explicit_transpose() {
        let (m, k, n) = (6, 11, 7);
        let a = arange(m * k, 0.2);
        let bt = arange(n * k, 0.8); // B stored [n×k]
                                     // Materialise B = btᵀ, run the reference.
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        let want = reference_matmul(&a, &b, m, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_bt_with(SimdMode::Scalar, &a, &bt, m, k, n, &mut got);
        assert_bits_eq(&want, &got, "scalar gemm_bt");
        if simd_supported() {
            for mode in [SimdMode::Avx2Fma, SimdMode::Avx512] {
                let mut simd = vec![0.0f32; m * n];
                gemm_bt_with(mode, &a, &bt, m, k, n, &mut simd);
                assert_close(&want, &simd, &format!("{mode:?} gemm_bt"));
            }
        }
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let (m, k, n) = (9, 5, 6); // a is [m×k], out is [k×n]
        let a = arange(m * k, 0.4);
        let b = arange(m * n, 0.6);
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let want = reference_matmul(&at, &b, k, m, n);
        let mut got = vec![0.0f32; k * n];
        gemm_tn_with(SimdMode::Scalar, &a, &b, m, k, n, &mut got);
        assert_bits_eq(&want, &got, "scalar gemm_tn");
        let mut masked = vec![0.0f32; k * n];
        gemm_tn_masked_with(SimdMode::Scalar, &a, &b, m, k, n, &mut masked);
        assert_bits_eq(&want, &masked, "scalar gemm_tn_masked");
        if simd_supported() {
            let mut simd = vec![0.0f32; k * n];
            gemm_tn_with(SimdMode::Avx2Fma, &a, &b, m, k, n, &mut simd);
            assert_close(&want, &simd, "simd gemm_tn");
            let mut simd_masked = vec![0.0f32; k * n];
            gemm_tn_masked_with(SimdMode::Avx2Fma, &a, &b, m, k, n, &mut simd_masked);
            assert_close(&want, &simd_masked, "simd gemm_tn_masked");
        }
    }

    #[test]
    fn masked_gemm_skips_zeros_but_matches_values() {
        let (m, k, n) = (8, 12, 5);
        let mut a = arange(m * k, 0.5);
        // Sparsify: ~2/3 exact zeros, like a normalised adjacency.
        for (i, v) in a.iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let b = arange(k * n, 0.1);
        let want = reference_matmul(&a, &b, m, k, n);
        let mut dense = vec![0.0f32; m * n];
        gemm_with(SimdMode::Scalar, &a, &b, None, m, k, n, &mut dense);
        let mut masked = vec![0.0f32; m * n];
        gemm_masked_with(SimdMode::Scalar, &a, &b, m, k, n, &mut masked);
        for (w, (d, s)) in want.iter().zip(dense.iter().zip(&masked)) {
            assert_eq!(w.to_bits(), d.to_bits());
            assert_eq!(w.to_bits(), s.to_bits());
        }
        if simd_supported() {
            let mut simd = vec![0.0f32; m * n];
            gemm_masked_with(SimdMode::Avx2Fma, &a, &b, m, k, n, &mut simd);
            assert_close(&want, &simd, "simd gemm_masked");
        }
    }

    #[test]
    fn masked_kernels_never_touch_nan_rows() {
        // Rows of B selected only by exact zeros of A may hold NaN; the
        // skip keeps them out of the sum in both modes.
        let (m, k, n) = (3, 4, 5);
        let mut a = arange(m * k, 0.6);
        for row in 0..m {
            a[row * k + 2] = 0.0; // column 2 of A is all zero
        }
        let mut b = arange(k * n, 0.2);
        for v in &mut b[2 * n..3 * n] {
            *v = f32::NAN; // row 2 of B is poison
        }
        for mode in [SimdMode::Scalar, SimdMode::Avx2Fma, SimdMode::Avx512] {
            let mut out = vec![0.0f32; m * n];
            gemm_masked_with(mode, &a, &b, m, k, n, &mut out);
            assert!(
                out.iter().all(|v| v.is_finite()),
                "gemm_masked leaked NaN in {mode:?}"
            );
            let mut tn = vec![0.0f32; k * n];
            // For gemm_tn_masked the skip is on a[i*k+p] == 0: make B's
            // NaN row selectable only through those zeros.
            let mut a_tn = arange(m * k, 0.9);
            a_tn[2 * k] = 0.0; // a[2, 0] = 0 → row 2 of B skipped for p=0
            let mut b_tn = arange(m * n, 0.3);
            for v in &mut b_tn[2 * n..3 * n] {
                *v = f32::NAN;
            }
            gemm_tn_masked_with(mode, &a_tn, &b_tn, m, k, n, &mut tn);
            assert!(
                tn[..n].iter().all(|v| v.is_finite()),
                "gemm_tn_masked leaked NaN into row 0 in {mode:?}"
            );
        }
    }

    #[test]
    fn attn_kernels_match_scalar() {
        if !simd_supported() {
            return;
        }
        let (b, m, dh) = (13, 9, 21);
        let q = arange(b * dh, 0.3);
        let kmat = arange(b * m * dh, 0.5);
        let attn = arange(b * m, 0.8);
        let v = arange(b * m * dh, 0.2);
        let scale = 0.25;
        let mut s_scalar = vec![0.0f32; b * m];
        attn_scores_fwd_with(SimdMode::Scalar, &q, &kmat, b, m, dh, scale, &mut s_scalar);
        let mut s_simd = vec![0.0f32; b * m];
        attn_scores_fwd_with(SimdMode::Avx2Fma, &q, &kmat, b, m, dh, scale, &mut s_simd);
        assert_close(&s_scalar, &s_simd, "attn_scores_fwd");
        let mut x_scalar = vec![0.0f32; b * dh];
        attn_mix_fwd_with(SimdMode::Scalar, &attn, &v, b, m, dh, &mut x_scalar);
        let mut x_simd = vec![0.0f32; b * dh];
        attn_mix_fwd_with(SimdMode::Avx2Fma, &attn, &v, b, m, dh, &mut x_simd);
        assert_close(&x_scalar, &x_simd, "attn_mix_fwd");
    }

    #[test]
    fn thread_count_does_not_change_bits_in_any_mode() {
        // Big enough that min_rows_for(k·n) allows several chunks.
        let (m, k, n) = (200, 64, 40);
        let a = arange(m * k, 1.1);
        let b = arange(k * n, 1.7);
        for mode in [SimdMode::Scalar, SimdMode::Avx2Fma, SimdMode::Avx512] {
            let mut serial = vec![0.0f32; m * n];
            pool::set_num_threads(1);
            gemm_with(mode, &a, &b, None, m, k, n, &mut serial);
            for threads in [2, 8] {
                pool::set_num_threads(threads);
                let mut par = vec![0.0f32; m * n];
                gemm_with(mode, &a, &b, None, m, k, n, &mut par);
                assert_bits_eq(
                    &serial,
                    &par,
                    &format!("{threads} threads changed gemm bits in {mode:?}"),
                );
            }
            pool::set_num_threads(1);
        }
    }

    #[test]
    fn sanitize_only_allows_supported_modes() {
        assert_eq!(SimdMode::Scalar.sanitize(), SimdMode::Scalar);
        let got = SimdMode::Avx2Fma.sanitize();
        if simd_supported() {
            assert_eq!(got, SimdMode::Avx2Fma);
        } else {
            assert_eq!(got, SimdMode::Scalar);
        }
        let wide = SimdMode::Avx512.sanitize();
        if avx512_supported() {
            assert_eq!(wide, SimdMode::Avx512);
        } else {
            assert_eq!(wide, got);
        }
    }

    #[test]
    fn avx512_gemm_matches_scalar_on_packed_shapes() {
        if !avx512_supported() {
            return;
        }
        // Shapes above SMALL_GEMM chosen to hit every tile of the wide
        // kernel: full 4x32 tiles, a half-strip tail (nr <= 16), a wide
        // tail (16 < nr < 32), and ragged row remainders.
        for &(m, k, n) in &[(9, 64, 100), (7, 100, 40), (6, 120, 33), (5, 200, 17)] {
            let a = arange(m * k, 0.2);
            let b = arange(k * n, 0.5);
            let bias = arange(n, 1.3);
            let mut scalar = vec![0.0f32; m * n];
            gemm_with(SimdMode::Scalar, &a, &b, Some(&bias), m, k, n, &mut scalar);
            let mut wide = vec![0.0f32; m * n];
            gemm_with(SimdMode::Avx512, &a, &b, Some(&bias), m, k, n, &mut wide);
            assert_close(&scalar, &wide, &format!("avx512 gemm at {m}x{k}x{n}"));
        }
    }

    #[test]
    fn public_entry_points_use_the_active_mode() {
        let (m, k, n) = (5, 9, 11);
        let a = arange(m * k, 0.1);
        let b = arange(k * n, 0.7);
        let mut via_public = vec![0.0f32; m * n];
        gemm(&a, &b, None, m, k, n, &mut via_public);
        let mut via_with = vec![0.0f32; m * n];
        gemm_with(active_simd(), &a, &b, None, m, k, n, &mut via_with);
        assert_bits_eq(&via_public, &via_with, "gemm vs gemm_with(active)");
    }
}
