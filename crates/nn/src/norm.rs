//! Layer normalization with learnable gain and bias (Eq. 5 of the paper).

use crate::param::{Fwd, ParamId, ParamStore};
use apan_tensor::{Tensor, Var};

/// Row-wise LayerNorm: `y = g ⊙ (x − μ)/√(σ² + ε) + b`.
///
/// The paper motivates LayerNorm over BatchNorm because attention outputs
/// vary per node and batch statistics would be disrupted (§3.3).
#[derive(Clone, Copy, Debug)]
pub struct LayerNorm {
    gain: ParamId,
    bias: ParamId,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Registers a LayerNorm over feature width `dim` (gain=1, bias=0).
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gain = store.add(format!("{name}.gain"), Tensor::ones(1, dim));
        let bias = store.add(format!("{name}.bias"), Tensor::zeros(1, dim));
        Self {
            gain,
            bias,
            dim,
            eps: 1e-5,
        }
    }

    /// Applies normalization to `x` of shape `[B × dim]`.
    pub fn forward(&self, fwd: &mut Fwd<'_>, x: Var) -> Var {
        debug_assert_eq!(fwd.g.value(x).cols(), self.dim);
        let g = fwd.p(self.gain);
        let b = fwd.p(self.bias);
        fwd.g.layer_norm(x, g, b, self.eps)
    }

    /// Feature width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `(gain, bias)` parameter handles, each `[1 × dim]`.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.gain, self.bias)
    }

    /// The variance floor `eps`.
    pub fn eps(&self) -> f32 {
        self.eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalizes_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 8);
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(5, 8, 3.0, &mut rng).add_scalar(10.0);
        let mut fwd = Fwd::new(&store, false);
        let xv = fwd.g.constant(x);
        let y = ln.forward(&mut fwd, xv);
        for i in 0..5 {
            let row = fwd.g.value(y).row_slice(i);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "row {i} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {i} var {var}");
        }
    }
}
