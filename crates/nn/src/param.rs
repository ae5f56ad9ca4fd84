//! Parameter storage and the forward-pass context.

use apan_tensor::{Graph, Tensor, Var};

/// A handle to a parameter tensor inside a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index (stable for the lifetime of the store).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Owns the master copies of all model parameters.
///
/// Layers register parameters at construction time and hold [`ParamId`]s.
/// Optimizers mutate the store in place after each backward pass.
#[derive(Default, Clone)]
pub struct ParamStore {
    params: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter tensor under `name` and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.params.len());
        self.params.push(value);
        self.names.push(name.into());
        id
    }

    /// The current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id.0]
    }

    /// Mutable access (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0]
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(Tensor::len).sum()
    }

    /// Iterates over `(id, name, tensor)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.params
            .iter()
            .enumerate()
            .map(|(i, t)| (ParamId(i), self.names[i].as_str(), t))
    }

    /// Copies all parameter values from `other` (shapes must match).
    /// Used for checkpoint restore / early stopping.
    pub fn copy_from(&mut self, other: &ParamStore) {
        assert_eq!(self.params.len(), other.params.len(), "store size mismatch");
        for (dst, src) in self.params.iter_mut().zip(&other.params) {
            assert_eq!(dst.shape(), src.shape(), "parameter shape mismatch");
            dst.data_mut().copy_from_slice(src.data());
        }
    }
}

/// One forward pass: a fresh autodiff graph plus parameter bindings.
///
/// Binding is cached per [`ParamId`], so using a parameter twice in one pass
/// produces a single tape leaf whose gradient accumulates both uses.
pub struct Fwd<'s> {
    /// The underlying autodiff tape; use it directly for non-parameter ops.
    pub g: Graph,
    /// Whether this pass is in training mode (enables gradients + dropout).
    pub train: bool,
    store: &'s ParamStore,
    bound: Vec<Option<Var>>,
}

impl<'s> Fwd<'s> {
    /// Starts a forward pass over `store`.
    pub fn new(store: &'s ParamStore, train: bool) -> Self {
        Self {
            g: Graph::new(),
            train,
            store,
            bound: vec![None; store.len()],
        }
    }

    /// Leases parameter `id` into the graph, returning its tape node.
    pub fn p(&mut self, id: ParamId) -> Var {
        if let Some(v) = self.bound[id.0] {
            return v;
        }
        let v = self.g.leaf(self.store.get(id).clone(), self.train);
        self.bound[id.0] = Some(v);
        v
    }

    /// Runs backward from `loss` and collects parameter gradients.
    ///
    /// In eval mode (`train == false`) this is a no-op returning an empty
    /// gradient set; calling it lets training and evaluation share code.
    pub fn finish(mut self, loss: Var) -> GradSet {
        if !self.train {
            return GradSet { grads: Vec::new() };
        }
        self.g.backward(loss);
        let mut grads = Vec::new();
        for (i, bound) in self.bound.iter().enumerate() {
            if let Some(v) = bound {
                if let Some(g) = self.g.take_grad(*v) {
                    grads.push((ParamId(i), g));
                }
            }
        }
        GradSet { grads }
    }
}

/// Gradients collected from one backward pass, keyed by parameter.
pub struct GradSet {
    /// `(parameter, gradient)` pairs; parameters not touched by the loss
    /// are absent.
    pub grads: Vec<(ParamId, Tensor)>,
}

impl GradSet {
    /// Global L2 norm over all gradients (useful for clipping/diagnostics).
    pub fn global_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|(_, g)| {
                let n = g.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for (_, g) in &mut self.grads {
                g.scale_assign(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_registration() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::zeros(2, 3));
        let b = s.add("b", Tensor::zeros(1, 3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 9);
        assert_eq!(s.name(a), "w");
        assert_eq!(s.get(b).shape(), (1, 3));
    }

    #[test]
    fn fwd_binds_once() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::ones(1, 1));
        let mut fwd = Fwd::new(&s, true);
        let v1 = fwd.p(w);
        let v2 = fwd.p(w);
        assert_eq!(v1, v2);
    }

    #[test]
    fn double_use_accumulates_gradient() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::scalar(3.0));
        let mut fwd = Fwd::new(&s, true);
        let v = fwd.p(w);
        let v2 = fwd.p(w);
        let sum = fwd.g.add(v, v2); // 2w
        let loss = fwd.g.sum_all(sum);
        let grads = fwd.finish(loss);
        assert_eq!(grads.grads.len(), 1);
        assert_eq!(grads.grads[0].1.item(), 2.0);
    }

    #[test]
    fn eval_mode_collects_nothing() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::scalar(3.0));
        let mut fwd = Fwd::new(&s, false);
        let v = fwd.p(w);
        let loss = fwd.g.sum_all(v);
        let grads = fwd.finish(loss);
        assert!(grads.grads.is_empty());
    }

    #[test]
    fn clip_global_norm() {
        let mut gs = GradSet {
            grads: vec![(ParamId(0), Tensor::from_rows(&[&[3.0, 4.0]]))],
        };
        assert!((gs.global_norm() - 5.0).abs() < 1e-6);
        gs.clip_global_norm(1.0);
        assert!((gs.global_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn copy_from_restores() {
        let mut a = ParamStore::new();
        a.add("w", Tensor::scalar(1.0));
        let mut b = a.clone();
        *b.get_mut(ParamId(0)) = Tensor::scalar(9.0);
        a.copy_from(&b);
        assert_eq!(a.get(ParamId(0)).item(), 9.0);
    }
}
