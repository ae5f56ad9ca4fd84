//! Weight initializers.

use apan_tensor::Tensor;
use rand::Rng;

/// Xavier/Glorot uniform initialization: `U[-a, a]` with
/// `a = sqrt(6 / (fan_in + fan_out))`. The right default for layers
/// followed by symmetric nonlinearities (tanh, attention projections).
pub fn xavier_uniform<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::uniform(fan_in, fan_out, -a, a, rng)
}

/// Small-scale normal initialization `N(0, std²)`, used for embedding
/// tables.
pub fn normal<R: Rng + ?Sized>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Tensor {
    Tensor::randn(rows, cols, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = xavier_uniform(100, 100, &mut rng);
        let a = (6.0f32 / 200.0).sqrt();
        assert!(t.data().iter().all(|&v| v.abs() <= a));
        // not degenerate
        assert!(t.data().iter().any(|&v| v.abs() > a / 10.0));
    }
}
