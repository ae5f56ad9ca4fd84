//! Int8 quantized GEMM for the serving-only inference path.
//!
//! Scheme (symmetric, per-row scales):
//!
//! * Each row of a matrix is quantized independently: `scale = max|row| / 127`,
//!   `q = round(v / scale)` (ties to even) clamped to `[-127, 127]`. A zero
//!   row gets `scale = 0` and all-zero codes, so dequantization reproduces
//!   it exactly.
//! * Rows are zero-padded to a multiple of [`QK`] so the AVX2 inner loop
//!   ([`super::simd::dot_i8`]) needs no tail handling; padded lanes
//!   contribute exact zeros.
//! * Accumulation is **exact `i32` arithmetic** — integer addition is
//!   associative, so scalar and SIMD dots are *bit-identical*, and the
//!   whole int8 path is bitwise deterministic for any `SimdMode` and any
//!   thread count. (`i32` cannot overflow here: `127·127·k` stays below
//!   `2³¹` for every `k < 133 000`, far above any model width.)
//! * Under [`SimdMode::Avx512`] on CPUs with AVX-512 VNNI, full 16-column
//!   groups run a `vpdpbusd` kernel (`simd512::gemm_i8_rows`): activations
//!   are biased to `u8` (the instruction multiplies u8 × i8) and the bias
//!   removed by an exact per-channel integer correction, so the
//!   bitwise-determinism guarantee above still holds — see `VnniPrep`.
//! * Dequantization happens once, at the boundary:
//!   `out = (acc as f32) · (scale_x · scale_w) + bias`.
//!
//! The weight operand is stored transposed (`Wᵀ`, one quantized row per
//! output channel), so both operands of every dot product are contiguous
//! — the `QuantLinear` layout in `apan-nn` builds on exactly this.

use super::pool::parallel_rows_mut;
#[cfg(target_arch = "x86_64")]
use super::Aligned;
use super::{min_rows_for, SimdMode};

/// Quantized rows are padded to a multiple of this many elements.
pub const QK: usize = 32;

/// `cols` rounded up to the storage stride of a quantized row.
pub fn padded(cols: usize) -> usize {
    cols.div_ceil(QK) * QK
}

/// Quantizes each row of a row-major `[rows × cols]` matrix to i8 with a
/// per-row scale. Returns `(codes, scales)` where `codes` has stride
/// [`padded`]`(cols)` and `scales[r]` dequantizes row `r`.
///
/// Element-wise and branch-free per element, so the result is identical
/// whether the AVX2-compiled body or the baseline one runs — the
/// dispatch below only changes instruction selection, never arithmetic.
pub fn quantize_rows_i8(src: &[f32], rows: usize, cols: usize) -> (Vec<i8>, Vec<f32>) {
    debug_assert_eq!(src.len(), rows * cols);
    let stride = padded(cols);
    let mut codes = vec![0i8; rows * stride];
    let mut scales = vec![0.0f32; rows];
    // The crate targets baseline x86-64 (SSE2), where `round_ties_even`
    // and the saturating cast become per-element libcalls; recompiling
    // the same loop with AVX2 enabled lets LLVM vectorize it
    // (`vroundps`), which matters because activations are quantized on
    // every serving forward. Gated on the APAN_SIMD kill switch like
    // every other vector path.
    #[cfg(target_arch = "x86_64")]
    let fast = super::active_simd() != SimdMode::Scalar;
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        let out = &mut codes[r * stride..r * stride + cols];
        #[cfg(target_arch = "x86_64")]
        if fast {
            // SAFETY: a non-scalar active mode implies AVX2+FMA support
            // (`sanitize` checked the CPU).
            scales[r] = unsafe { quantize_row_avx2(row, out) };
            continue;
        }
        scales[r] = quantize_row(row, out);
    }
    (codes, scales)
}

/// [`quantize_row`] compiled with AVX2 available so the max scan and
/// the round/clamp/cast loop auto-vectorize. Same arithmetic, same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn quantize_row_avx2(row: &[f32], out: &mut [i8]) -> f32 {
    quantize_row(row, out)
}

/// Quantizes one row into `out` (len = `cols`, pre-zeroed) and returns
/// its scale.
#[inline(always)]
fn quantize_row(row: &[f32], out: &mut [i8]) -> f32 {
    // Eight independent max chains, folded at the end: same result as a
    // serial scan (max is associative; NaN is dropped by `f32::max`
    // either way) but vectorizable.
    let mut lanes = [0.0f32; 8];
    for chunk in row.chunks(8) {
        for (l, &v) in lanes.iter_mut().zip(chunk) {
            *l = l.max(v.abs());
        }
    }
    let amax = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
    if amax == 0.0 {
        return 0.0; // scale 0 + zero codes: exact
    }
    let inv = 127.0 / amax;
    for (c, &v) in out.iter_mut().zip(row) {
        // Ties-to-even rounding: same ≤ half-step error bound as
        // `round`, but a single vectorizable instruction where
        // ties-away needs a libm call per element.
        *c = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
    }
    amax / 127.0
}

/// Exact i32 dot product of two padded i8 rows (scalar reference).
fn dot_i8_scalar(x: &[i8], y: &[i8]) -> i32 {
    x.iter().zip(y).map(|(&a, &b)| a as i32 * b as i32).sum()
}

/// Operands precomputed once per [`gemm_i8_with`] call for the VNNI
/// kernel ([`super::simd512::gemm_i8_rows`]):
///
/// * `ua` — activation codes biased by +128 into `u8` (`vpdpbusd`
///   multiplies u8 × i8). Adding 128 mod 256 is a plain XOR of the sign
///   bit, and the bias is removed exactly by `corr` below.
/// * `packed` — weight codes for the full 16-channel groups of `j`,
///   interleaved as `[group][k/4][16 lanes][4 k-bytes]` so one
///   `vpdpbusd` covers four contraction steps for 16 output channels;
///   64-byte aligned so each ZMM load stays inside one cache line.
/// * `corr` — `corr[j] = 128 · Σ_k qb[j,k]`: the exact integer excess
///   the +128 bias adds to every dot against channel `j`.
#[cfg(target_arch = "x86_64")]
struct VnniPrep {
    ua: Vec<u8>,
    packed: Aligned<i8>,
    corr: Vec<i32>,
}

#[cfg(target_arch = "x86_64")]
fn vnni_prep(qa: &[i8], qb: &[i8], m: usize, n: usize, kp: usize) -> VnniPrep {
    let ua = qa[..m * kp].iter().map(|&c| (c as u8) ^ 0x80).collect();
    let groups = n / 16;
    let mut packed = Aligned::zeroed(groups * 16 * kp);
    // Layout comment on `VnniPrep`.
    for g in 0..groups {
        for s in 0..kp / 4 {
            for lane in 0..16 {
                let j = g * 16 + lane;
                let src = &qb[j * kp + s * 4..j * kp + s * 4 + 4];
                packed[g * 16 * kp + s * 64 + lane * 4..][..4].copy_from_slice(src);
            }
        }
    }
    let corr = (0..n)
        .map(|j| {
            128 * qb[j * kp..(j + 1) * kp]
                .iter()
                .map(|&c| c as i32)
                .sum::<i32>()
        })
        .collect();
    VnniPrep { ua, packed, corr }
}

/// `out[m×n] = dequant(qa[m×kp] · qb[n×kp]ᵀ) (+ bias)` — the quantized
/// serving GEMM. `qa` holds per-row-quantized activations, `qb` the
/// transposed weight (`n` output channels, one quantized row each), both
/// with row stride `kp` (a [`padded`] width). Row-parallel and bitwise
/// deterministic for every `mode` and thread count (see module docs).
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_with(
    mode: SimdMode,
    qa: &[i8],
    sa: &[f32],
    qb: &[i8],
    sb: &[f32],
    bias: Option<&[f32]>,
    m: usize,
    n: usize,
    kp: usize,
    out: &mut [f32],
) {
    let mode = mode.sanitize();
    debug_assert_eq!(qa.len(), m * kp);
    debug_assert_eq!(qb.len(), n * kp);
    debug_assert_eq!(sa.len(), m);
    debug_assert_eq!(sb.len(), n);
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(kp % QK, 0);
    if let Some(bias) = bias {
        debug_assert_eq!(bias.len(), n);
    }
    // Exact i32 dot of one activation/channel row pair at this mode.
    // Both AVX-512 (without VNNI) and AVX2 run the AVX2 dot; the VNNI
    // kernel below replaces it for full column groups when available.
    let dot = |a_row: &[i8], b_row: &[i8]| -> i32 {
        match mode {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `sanitize` verified AVX2 support above.
            SimdMode::Avx2Fma | SimdMode::Avx512 => unsafe { super::simd::dot_i8(a_row, b_row) },
            _ => dot_i8_scalar(a_row, b_row),
        }
    };
    // One packing pass per call; amortized over m·n dots it is noise,
    // and integer accumulation keeps the result bit-identical to the
    // dot path regardless (module docs).
    #[cfg(target_arch = "x86_64")]
    let prep = (mode == SimdMode::Avx512 && n >= 16 && super::vnni_supported())
        .then(|| vnni_prep(qa, qb, m, n, kp));
    parallel_rows_mut(out, n, min_rows_for(n * kp), |r0, r1, rows| {
        // Channels `0..j0` come from the VNNI kernel (its full 16-wide
        // groups); the dot loop below computes the rest.
        #[cfg(target_arch = "x86_64")]
        let j0 = match &prep {
            // SAFETY: `vnni_supported` verified AVX-512F + VNNI above.
            Some(p) => unsafe {
                super::simd512::gemm_i8_rows(
                    &p.ua, sa, &p.packed, &p.corr, sb, bias, r0, r1, n, kp, rows,
                );
                (n / 16) * 16
            },
            None => 0,
        };
        #[cfg(not(target_arch = "x86_64"))]
        let j0 = 0;
        for i in r0..r1 {
            let a_row = &qa[i * kp..(i + 1) * kp];
            let o_row = &mut rows[(i - r0) * n..(i - r0 + 1) * n];
            for (j, o) in o_row.iter_mut().enumerate().skip(j0) {
                let acc = dot(a_row, &qb[j * kp..(j + 1) * kp]);
                let v = acc as f32 * (sa[i] * sb[j]);
                *o = match bias {
                    Some(bias) => v + bias[j],
                    None => v,
                };
            }
        }
    });
}

/// [`gemm_i8_with`] at the process-wide [`super::active_simd`] mode.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8(
    qa: &[i8],
    sa: &[f32],
    qb: &[i8],
    sb: &[f32],
    bias: Option<&[f32]>,
    m: usize,
    n: usize,
    kp: usize,
    out: &mut [f32],
) {
    gemm_i8_with(super::active_simd(), qa, sa, qb, sb, bias, m, n, kp, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(len: usize, seed: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32 * 0.41 + seed).sin() * 2.0) - 0.3)
            .collect()
    }

    #[test]
    fn quantize_roundtrip_is_exact_for_representable_values() {
        // Values that are exact multiples of amax/127 survive the trip.
        let src: Vec<f32> = vec![127.0, -64.0, 0.0, 1.0, 33.0];
        let (codes, scales) = quantize_rows_i8(&src, 1, 5);
        assert_eq!(scales[0], 1.0);
        for (i, &v) in src.iter().enumerate() {
            assert_eq!(codes[i] as f32 * scales[0], v);
        }
        // Padding is zero-filled.
        assert!(codes[5..].iter().all(|&c| c == 0));
        assert_eq!(codes.len(), QK);
    }

    #[test]
    fn zero_row_gets_zero_scale_and_codes() {
        let (codes, scales) = quantize_rows_i8(&[0.0; 7], 1, 7);
        assert_eq!(scales[0], 0.0);
        assert!(codes.iter().all(|&c| c == 0));
    }

    #[test]
    fn quantization_error_is_within_half_step() {
        let src = wavy(100, 0.2);
        let (codes, scales) = quantize_rows_i8(&src, 4, 25);
        let stride = padded(25);
        for r in 0..4 {
            for c in 0..25 {
                let deq = codes[r * stride + c] as f32 * scales[r];
                assert!(
                    (deq - src[r * 25 + c]).abs() <= scales[r] * 0.5 + 1e-7,
                    "row {r} col {c}: {} vs {}",
                    deq,
                    src[r * 25 + c]
                );
            }
        }
    }

    #[test]
    fn simd_and_scalar_i8_gemm_are_bit_identical() {
        // n = 13 keeps Avx512 off the VNNI kernel (no full column
        // group); n = 37 runs two VNNI groups plus a 5-column dot tail.
        for (m, k, n) in [(9, 70, 13), (9, 70, 37), (5, 129, 64)] {
            let (qa, sa) = quantize_rows_i8(&wavy(m * k, 0.1), m, k);
            let (qb, sb) = quantize_rows_i8(&wavy(n * k, 0.8), n, k);
            let bias = wavy(n, 1.5);
            let kp = padded(k);
            let mut scalar = vec![0.0f32; m * n];
            gemm_i8_with(
                SimdMode::Scalar,
                &qa,
                &sa,
                &qb,
                &sb,
                Some(&bias),
                m,
                n,
                kp,
                &mut scalar,
            );
            for mode in [SimdMode::Avx2Fma, SimdMode::Avx512] {
                let mut simd = vec![0.0f32; m * n];
                gemm_i8_with(mode, &qa, &sa, &qb, &sb, Some(&bias), m, n, kp, &mut simd);
                assert_eq!(
                    scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    simd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{mode:?} changed i8 gemm bits at {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_i8_bits() {
        let (m, k, n) = (64, 96, 32);
        let (qa, sa) = quantize_rows_i8(&wavy(m * k, 0.3), m, k);
        let (qb, sb) = quantize_rows_i8(&wavy(n * k, 0.9), n, k);
        let kp = padded(k);
        super::super::pool::set_num_threads(1);
        let mut serial = vec![0.0f32; m * n];
        gemm_i8(&qa, &sa, &qb, &sb, None, m, n, kp, &mut serial);
        for threads in [2, 8] {
            super::super::pool::set_num_threads(threads);
            let mut par = vec![0.0f32; m * n];
            gemm_i8(&qa, &sa, &qb, &sb, None, m, n, kp, &mut par);
            assert_eq!(
                serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{threads} threads changed i8 gemm bits"
            );
        }
        super::super::pool::set_num_threads(1);
    }

    #[test]
    fn int8_gemm_approximates_f32_gemm() {
        // End-to-end dequantized result stays close to the f32 product.
        let (m, k, n) = (12, 80, 10);
        let a = wavy(m * k, 0.4);
        let wt = wavy(n * k, 0.6); // Wᵀ rows
        let (qa, sa) = quantize_rows_i8(&a, m, k);
        let (qb, sb) = quantize_rows_i8(&wt, n, k);
        let mut got = vec![0.0f32; m * n];
        gemm_i8(&qa, &sa, &qb, &sb, None, m, n, padded(k), &mut got);
        for i in 0..m {
            for j in 0..n {
                let want: f32 = (0..k).map(|d| a[i * k + d] * wt[j * k + d]).sum();
                // Error budget: each operand is off by ≤ half a step
                // (scale/2), so the dot error is ~O(k · scale_a · scale_b
                // · 127 / 2); use a generous multiple.
                let tol = (k as f32) * sa[i].max(sb[j]) * 127.0 * 0.02 + 1e-3;
                assert!(
                    (got[i * n + j] - want).abs() < tol,
                    "({i},{j}): int8 {} vs f32 {want}, tol {tol}",
                    got[i * n + j]
                );
            }
        }
    }
}
