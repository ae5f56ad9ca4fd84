//! First-order optimizers.

use crate::param::{GradSet, ParamId, ParamStore};
use apan_tensor::Tensor;

/// Common interface for parameter optimizers.
pub trait Optimizer {
    /// Applies one update step for the given gradients.
    fn step(&mut self, store: &mut ParamStore, grads: &GradSet);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam (Kingma & Ba, 2015) with bias correction. The paper trains every
/// model with Adam at `lr = 1e-4` (§4.4).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// First/second moment estimates, lazily allocated per parameter.
    state: Vec<Option<(Tensor, Tensor)>>,
    t: i32,
}

impl Adam {
    /// Creates Adam with standard hyper-parameters (`β₁=0.9, β₂=0.999`).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            state: Vec::new(),
            t: 0,
        }
    }

    fn ensure_state(&mut self, id: ParamId, rows: usize, cols: usize) {
        if self.state.len() <= id.index() {
            self.state.resize_with(id.index() + 1, || None);
        }
        if self.state[id.index()].is_none() {
            self.state[id.index()] = Some((Tensor::zeros(rows, cols), Tensor::zeros(rows, cols)));
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &GradSet) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for (id, grad) in &grads.grads {
            let (rows, cols) = grad.shape();
            self.ensure_state(*id, rows, cols);
            let (m, v) = self.state[id.index()].as_mut().expect("state allocated");
            let p = store.get_mut(*id);
            debug_assert_eq!(p.shape(), grad.shape(), "optimizer shape mismatch");
            let pd = p.data_mut();
            #[allow(clippy::needless_range_loop)] // four parallel buffers
            for i in 0..pd.len() {
                let g = grad.data()[i];
                let md = &mut m.data_mut()[i];
                *md = self.beta1 * *md + (1.0 - self.beta1) * g;
                let vd = &mut v.data_mut()[i];
                *vd = self.beta2 * *vd + (1.0 - self.beta2) * g * g;
                let m_hat = *md / bc1;
                let v_hat = *vd / bc2;
                pd[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Fwd;

    fn quadratic_step<O: Optimizer>(opt: &mut O, store: &mut ParamStore, id: ParamId) -> f32 {
        // f(w) = mean((w - 3)^2); minimum at w = 3
        let target = Tensor::full(1, 1, 3.0);
        let mut fwd = Fwd::new(store, true);
        let w = fwd.p(id);
        let loss = fwd.g.mse_mean(w, &target);
        let v = fwd.g.value(loss).item();
        let grads = fwd.finish(loss);
        opt.step(store, &grads);
        v
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::scalar(0.0));
        let mut adam = Adam::new(0.1);
        let mut loss = f32::INFINITY;
        for _ in 0..300 {
            loss = quadratic_step(&mut adam, &mut store, id);
        }
        assert!(loss < 1e-4, "loss {loss}");
        assert!((store.get(id).item() - 3.0).abs() < 0.05);
    }

    #[test]
    fn lr_getters_setters() {
        let mut a = Adam::new(0.1);
        a.set_learning_rate(0.01);
        assert_eq!(a.learning_rate(), 0.01);
    }
}
