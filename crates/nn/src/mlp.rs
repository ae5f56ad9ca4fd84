//! Multi-layer perceptron with ReLU activations and optional dropout.

use crate::linear::Linear;
use crate::param::{Fwd, ParamStore};
use crate::quant::QuantSet;
use apan_tensor::Var;
use rand::rngs::StdRng;
use rand::Rng;

/// A feed-forward network: `Linear → ReLU → [dropout] → … → Linear`.
///
/// The paper uses two-layer MLPs with hidden size 80 for both the encoder
/// head and the decoder (§4.4). No activation follows the final layer; add
/// one downstream if needed.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    dropout: f32,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `&[172, 80, 1]` for
    /// a two-layer net from 172 features to one logit.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Self { layers, dropout }
    }

    /// Applies the network. `rng` drives dropout masks and is only used in
    /// training mode.
    pub fn forward(&self, fwd: &mut Fwd<'_>, x: Var, rng: &mut StdRng) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(fwd, h);
            if i < last {
                h = fwd.g.relu(h);
                if self.dropout > 0.0 {
                    let train = fwd.train;
                    h = fwd.g.dropout(h, self.dropout, train, rng);
                }
            }
        }
        h
    }

    /// The constituent layers (first → last).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Registers every layer's weight in `qs` as int8 (biases stay f32).
    pub fn quantize_into(&self, store: &ParamStore, qs: &mut QuantSet) {
        for layer in &self.layers {
            layer.quantize_into(store, qs);
        }
    }

    /// Output width of the final layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Input width of the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use apan_tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[6, 8, 2], 0.0, &mut rng);
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 2);
        let mut fwd = Fwd::new(&store, false);
        let x = fwd.g.constant(Tensor::ones(4, 6));
        let y = mlp.forward(&mut fwd, x, &mut rng);
        assert_eq!(fwd.g.value(y).shape(), (4, 2));
    }

    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "xor", &[2, 16, 1], 0.0, &mut rng);
        let mut adam = Adam::new(0.03);
        let x = Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let t = Tensor::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        let mut last = f32::INFINITY;
        for _ in 0..500 {
            let mut fwd = Fwd::new(&store, true);
            let xv = fwd.g.constant(x.clone());
            let logits = mlp.forward(&mut fwd, xv, &mut rng);
            let loss = fwd.g.bce_with_logits_mean(logits, &t);
            last = fwd.g.value(loss).item();
            let grads = fwd.finish(loss);
            adam.step(&mut store, &grads);
        }
        assert!(last < 0.1, "XOR loss {last}");
    }

    #[test]
    fn dropout_only_in_train_mode() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[4, 32, 4], 0.5, &mut rng);
        // eval passes are deterministic regardless of rng state
        let x = Tensor::ones(2, 4);
        let mut out = Vec::new();
        for _ in 0..2 {
            let mut fwd = Fwd::new(&store, false);
            let xv = fwd.g.constant(x.clone());
            let y = mlp.forward(&mut fwd, xv, &mut rng);
            out.push(fwd.g.value(y).clone());
        }
        assert!(out[0].allclose(&out[1], 0.0));
    }
}
