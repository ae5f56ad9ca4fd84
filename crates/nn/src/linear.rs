//! Fully connected (affine) layer.

use crate::init::xavier_uniform;
use crate::param::{Fwd, ParamId, ParamStore};
use apan_tensor::{Tensor, Var};
use rand::Rng;

/// An affine map `y = x·W + b` with `W ∈ R^{in×out}` and `b ∈ R^{1×out}`
/// (bias broadcast over rows).
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new Xavier-initialized layer in `store`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = store.add(format!("{name}.w"), xavier_uniform(in_dim, out_dim, rng));
        let b = store.add(format!("{name}.b"), Tensor::zeros(1, out_dim));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to `x` of shape `[B × in_dim]`.
    pub fn forward(&self, fwd: &mut Fwd<'_>, x: Var) -> Var {
        debug_assert_eq!(
            fwd.g.value(x).cols(),
            self.in_dim,
            "Linear expected input width {}, got {}",
            self.in_dim,
            fwd.g.value(x).cols()
        );
        let w = fwd.p(self.w);
        let b = fwd.p(self.b);
        fwd.g.affine(x, w, b)
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight parameter handle.
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// The bias parameter handle.
    pub fn bias(&self) -> ParamId {
        self.b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "l", 5, 3, &mut rng);
        let mut fwd = Fwd::new(&store, false);
        let x = fwd.g.constant(Tensor::ones(7, 5));
        let y = layer.forward(&mut fwd, x);
        assert_eq!(fwd.g.value(y).shape(), (7, 3));
    }

    #[test]
    fn bias_broadcasts() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(2, 2));
        let b = store.add("b", Tensor::row(&[1.0, 2.0]));
        let layer = Linear {
            w,
            b,
            in_dim: 2,
            out_dim: 2,
        };
        let mut fwd = Fwd::new(&store, false);
        let x = fwd.g.constant(Tensor::ones(3, 2));
        let y = layer.forward(&mut fwd, x);
        for i in 0..3 {
            assert_eq!(fwd.g.value(y).row_slice(i), &[1.0, 2.0]);
        }
    }

    #[test]
    fn learns_identity_on_toy_regression() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "l", 2, 2, &mut rng);
        let mut adam = Adam::new(0.05);
        let x = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[0.5, -0.5]]);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let mut fwd = Fwd::new(&store, true);
            let xv = fwd.g.constant(x.clone());
            let y = layer.forward(&mut fwd, xv);
            let loss = fwd.g.mse_mean(y, &x);
            last = fwd.g.value(loss).item();
            let grads = fwd.finish(loss);
            adam.step(&mut store, &grads);
        }
        assert!(last < 1e-3, "final loss {last}");
    }
}
