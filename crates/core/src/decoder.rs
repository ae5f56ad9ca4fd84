//! Task decoders (§3.4).
//!
//! The encoder and propagator are task-agnostic; only the MLP decoder
//! changes per downstream task:
//!
//! * link prediction — `(z_i(t) ‖ z_j(t)) → logit`;
//! * edge classification — `(z_i(t) ‖ e_ij(t) ‖ z_j(t)) → logit`;
//! * node classification — `z_i(t) → logit`.

use apan_nn::{Fwd, Mlp, ParamStore};
use apan_tensor::{Tensor, Var};
use rand::rngs::StdRng;
use rand::Rng;

/// Link-prediction decoder: does an interaction between two nodes exist?
pub struct LinkDecoder {
    pub(crate) mlp: Mlp,
    dim: usize,
}

impl LinkDecoder {
    /// Two-layer MLP over the concatenated pair of embeddings.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        dim: usize,
        hidden: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        Self {
            mlp: Mlp::new(store, "dec.link", &[2 * dim, hidden, 1], dropout, rng),
            dim,
        }
    }

    /// Scores node pairs: `z_i`, `z_j` are `[B × d]`; returns `[B × 1]`
    /// logits.
    pub fn forward(&self, fwd: &mut Fwd<'_>, z_i: Var, z_j: Var, rng: &mut StdRng) -> Var {
        debug_assert_eq!(fwd.g.value(z_i).cols(), self.dim);
        let cat = fwd.g.concat_cols(&[z_i, z_j]);
        self.mlp.forward(fwd, cat, rng)
    }
}

/// Edge classifier: is this interaction fraudulent? Consumes both
/// embeddings *and* the raw edge feature (the paper's fraud-detection
/// decoder).
pub struct EdgeClassifier {
    mlp: Mlp,
    dim: usize,
}

impl EdgeClassifier {
    /// Two-layer MLP over `(z_i ‖ e_ij ‖ z_j)`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        dim: usize,
        hidden: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        Self {
            mlp: Mlp::new(store, "dec.edge", &[3 * dim, hidden, 1], dropout, rng),
            dim,
        }
    }

    /// Scores interactions; `edge_feats` is the constant `[B × d]` feature
    /// matrix of the batch.
    pub fn forward(
        &self,
        fwd: &mut Fwd<'_>,
        z_i: Var,
        edge_feats: &Tensor,
        z_j: Var,
        rng: &mut StdRng,
    ) -> Var {
        debug_assert_eq!(edge_feats.cols(), self.dim);
        let e = fwd.g.constant(edge_feats.clone());
        let cat = fwd.g.concat_cols(&[z_i, e, z_j]);
        self.mlp.forward(fwd, cat, rng)
    }
}

/// Node classifier: did this node's state change (e.g. get banned) at
/// this interaction? Following JODIE's dynamic-state protocol, the state
/// is judged from the node's temporal embedding *and* the interaction
/// that just occurred — `(z_i(t) ‖ e_ij(t))` — since APAN's `z(t)` by
/// design excludes the current event (it is computed before the mail is
/// propagated).
pub struct NodeClassifier {
    mlp: Mlp,
    dim: usize,
}

impl NodeClassifier {
    /// Two-layer MLP over `(z ‖ e)`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        dim: usize,
        hidden: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        Self {
            mlp: Mlp::new(store, "dec.node", &[2 * dim, hidden, 1], dropout, rng),
            dim,
        }
    }

    /// Scores node states: `z` is `[B × d]` embeddings, `edge_feats` the
    /// constant `[B × d]` features of the triggering interactions.
    pub fn forward(&self, fwd: &mut Fwd<'_>, z: Var, edge_feats: &Tensor, rng: &mut StdRng) -> Var {
        debug_assert_eq!(fwd.g.value(z).cols(), self.dim);
        debug_assert_eq!(edge_feats.cols(), self.dim);
        let e = fwd.g.constant(edge_feats.clone());
        let cat = fwd.g.concat_cols(&[z, e]);
        self.mlp.forward(fwd, cat, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn link_decoder_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let dec = LinkDecoder::new(&mut store, 8, 16, 0.0, &mut rng);
        let mut fwd = Fwd::new(&store, false);
        let zi = fwd.g.constant(Tensor::ones(5, 8));
        let zj = fwd.g.constant(Tensor::zeros(5, 8));
        let logits = dec.forward(&mut fwd, zi, zj, &mut rng);
        assert_eq!(fwd.g.value(logits).shape(), (5, 1));
    }

    #[test]
    fn link_decoder_is_order_sensitive() {
        // (z_i ‖ z_j) ≠ (z_j ‖ z_i) through a generic MLP
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let dec = LinkDecoder::new(&mut store, 4, 8, 0.0, &mut rng);
        let a = Tensor::from_rows(&[&[1.0, 0.0, 0.0, 0.0]]);
        let b = Tensor::from_rows(&[&[0.0, 1.0, 0.0, 0.0]]);
        let mut fwd = Fwd::new(&store, false);
        let av = fwd.g.constant(a);
        let bv = fwd.g.constant(b);
        let ab = dec.forward(&mut fwd, av, bv, &mut rng);
        let ba = dec.forward(&mut fwd, bv, av, &mut rng);
        assert_ne!(fwd.g.value(ab).item(), fwd.g.value(ba).item());
    }

    #[test]
    fn edge_classifier_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let dec = EdgeClassifier::new(&mut store, 6, 12, 0.0, &mut rng);
        let feats = Tensor::ones(3, 6);
        let mut fwd = Fwd::new(&store, false);
        let zi = fwd.g.constant(Tensor::zeros(3, 6));
        let zj = fwd.g.constant(Tensor::zeros(3, 6));
        let logits = dec.forward(&mut fwd, zi, &feats, zj, &mut rng);
        assert_eq!(fwd.g.value(logits).shape(), (3, 1));
    }

    #[test]
    fn edge_classifier_uses_features() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let dec = EdgeClassifier::new(&mut store, 4, 8, 0.0, &mut rng);
        let mut fwd = Fwd::new(&store, false);
        let z = fwd.g.constant(Tensor::zeros(1, 4));
        let f1 = Tensor::ones(1, 4);
        let f2 = Tensor::zeros(1, 4);
        let l1 = dec.forward(&mut fwd, z, &f1, z, &mut rng);
        let l2 = dec.forward(&mut fwd, z, &f2, z, &mut rng);
        assert_ne!(fwd.g.value(l1).item(), fwd.g.value(l2).item());
    }

    #[test]
    fn node_classifier_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let dec = NodeClassifier::new(&mut store, 6, 12, 0.0, &mut rng);
        let mut fwd = Fwd::new(&store, false);
        let z = fwd.g.constant(Tensor::ones(7, 6));
        let feats = Tensor::zeros(7, 6);
        let logits = dec.forward(&mut fwd, z, &feats, &mut rng);
        assert_eq!(fwd.g.value(logits).shape(), (7, 1));
    }
}
