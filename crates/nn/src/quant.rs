//! Int8 weight quantization for the serving-only forward path.
//!
//! A [`QuantMat`] is an int8 copy (per-output-channel scales, Wᵀ layout —
//! see [`apan_tensor::backend::quant`]) of one weight matrix. The serving
//! plan in `apan-core` builds one per encoder projection and MLP-head
//! layer when a pipeline serves at int8 precision, and routes those
//! matmuls through the exact-i32 int8 GEMM, dequantizing at the
//! boundary. Biases are never quantized — they are added in f32 after
//! dequantization, exactly as in the f32 path. Training never sees it.
//!
//! The master f32 parameters in the `ParamStore` are untouched:
//! quantization is a serving-time view, not a model transformation, so a
//! checkpoint round-trips bit-identically whether or not a `QuantMat`
//! was ever built from it.

use apan_tensor::backend::quant::{gemm_i8, padded, quantize_rows_i8};
use apan_tensor::Tensor;

/// One int8-quantized weight matrix, stored transposed (`Wᵀ`: one
/// quantized row per output channel) so both operands of every dot in
/// the serving GEMM are contiguous.
pub struct QuantMat {
    codes: Vec<i8>,
    scales: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl QuantMat {
    /// Quantizes a weight stored `[in × out]` (the [`crate::Linear`] /
    /// attention-projection layout, where `y = x·W`).
    pub fn from_weight(w: &Tensor) -> Self {
        let (in_dim, out_dim) = w.shape();
        let mut wt = vec![0.0f32; out_dim * in_dim];
        for i in 0..in_dim {
            for j in 0..out_dim {
                wt[j * in_dim + i] = w.get(i, j);
            }
        }
        let (codes, scales) = quantize_rows_i8(&wt, out_dim, in_dim);
        Self {
            codes,
            scales,
            in_dim,
            out_dim,
        }
    }

    /// `y = x·W (+ bias)` with `x [B × in]` quantized per row on the
    /// fly. Bitwise deterministic for any SIMD mode and thread count
    /// (exact i32 accumulation; one dequantized f32 rounding per
    /// element).
    pub fn forward(&self, x: &Tensor, bias: Option<&Tensor>) -> Tensor {
        let mut out = Tensor::zeros(x.rows(), self.out_dim);
        self.forward_into(x.data(), x.rows(), bias.map(Tensor::data), out.data_mut());
        out
    }

    /// [`QuantMat::forward`] on raw row-major slices: `x` is
    /// `[rows × in]`, `bias` `[out]`, and `out` `[rows × out]` is
    /// overwritten. Same bits as `forward`.
    pub fn forward_into(&self, x: &[f32], rows: usize, bias: Option<&[f32]>, out: &mut [f32]) {
        assert_eq!(
            x.len(),
            rows * self.in_dim,
            "quantized weight width mismatch"
        );
        if let Some(bias) = bias {
            debug_assert_eq!(bias.len(), self.out_dim);
        }
        let (qx, sx) = quantize_rows_i8(x, rows, self.in_dim);
        gemm_i8(
            &qx,
            &sx,
            &self.codes,
            &self.scales,
            bias,
            rows,
            self.out_dim,
            padded(self.in_dim),
            out,
        );
    }

    /// Input width the matrix expects.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width the matrix produces.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Bytes of int8 storage (codes + scales), for memory accounting.
    pub fn bytes(&self) -> usize {
        self.codes.len() + self.scales.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::param::{Fwd, ParamStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quant_mat_tracks_f32_affine() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "l", 40, 16, &mut rng);
        let x = Tensor::randn(6, 40, 0.8, &mut rng);

        let mut fwd = Fwd::new(&store, false);
        let xv = fwd.g.constant(x.clone());
        let y = layer.forward(&mut fwd, xv);
        let want = fwd.g.value(y).clone();

        let mat = QuantMat::from_weight(store.get(layer.weight()));
        assert_eq!((mat.in_dim(), mat.out_dim()), (40, 16));
        let got = mat.forward(&x, Some(store.get(layer.bias())));
        // 8-bit symmetric quantization of both operands over k=40:
        // comfortably inside 3% relative at these magnitudes.
        for (w, g) in want.data().iter().zip(got.data()) {
            assert!(
                (w - g).abs() <= 0.03 * (1.0 + w.abs()),
                "int8 {g} drifted from f32 {w}"
            );
        }
    }

    #[test]
    fn quant_mat_bytes_accounting() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "l", 64, 32, &mut rng);
        let mat = QuantMat::from_weight(store.get(layer.weight()));
        // 32 rows padded to 64 columns of i8 + 32 f32 scales.
        assert_eq!(mat.bytes(), 32 * 64 + 32 * 4);
    }
}
