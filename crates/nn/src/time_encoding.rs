//! Functional time encoding (Bochner / TGAT-style).
//!
//! `Φ(Δt) = cos(Δt · ω + φ)` with learnable frequencies `ω` and phases
//! `φ`. The paper lists this as the drop-in alternative to APAN's
//! positional encoding (§3.6) and it is required by the TGAT/TGN baselines.

use crate::param::{Fwd, ParamId, ParamStore};
use apan_tensor::{Tensor, Var};

/// Learnable harmonic encoding of scalar time deltas into `R^d`.
#[derive(Clone, Copy, Debug)]
pub struct TimeEncoding {
    omega: ParamId,
    phase: ParamId,
    dim: usize,
}

impl TimeEncoding {
    /// Registers a time encoder of width `dim`. Frequencies are initialized
    /// to a geometric ladder `10^{-4·i/d}` as in TGAT, so different columns
    /// respond to different timescales from the start.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let freqs: Vec<f32> = (0..dim)
            .map(|i| 10f32.powf(-4.0 * i as f32 / dim as f32))
            .collect();
        let omega = store.add(format!("{name}.omega"), Tensor::row(&freqs));
        let phase = store.add(format!("{name}.phase"), Tensor::zeros(1, dim));
        Self { omega, phase, dim }
    }

    /// Encodes time deltas (one per row) into `[len(dts) × dim]`.
    pub fn forward(&self, fwd: &mut Fwd<'_>, dts: &[f32]) -> Var {
        let col = fwd.g.constant(Tensor::col(dts));
        let omega = fwd.p(self.omega);
        let phase = fwd.p(self.phase);
        // [r,1] ⊙ [1,d] broadcast → [r,d]
        let scaled = fwd.g.mul(col, omega);
        let shifted = fwd.g.add(scaled, phase);
        fwd.g.cos(shifted)
    }

    /// Encoding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `(omega, phase)` parameter handles, each `[1 × dim]`.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.omega, self.phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_delta_is_cos_phase() {
        let mut store = ParamStore::new();
        let te = TimeEncoding::new(&mut store, "t", 6);
        let mut fwd = Fwd::new(&store, false);
        let out = te.forward(&mut fwd, &[0.0]);
        // phase initialized to 0 ⇒ cos(0) = 1 everywhere
        assert!(fwd
            .g
            .value(out)
            .data()
            .iter()
            .all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn output_bounded() {
        let mut store = ParamStore::new();
        let te = TimeEncoding::new(&mut store, "t", 8);
        let mut fwd = Fwd::new(&store, false);
        let out = te.forward(&mut fwd, &[0.5, 100.0, 1e6]);
        assert_eq!(fwd.g.value(out).shape(), (3, 8));
        assert!(fwd.g.value(out).data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn frequencies_receive_gradient() {
        let mut store = ParamStore::new();
        let te = TimeEncoding::new(&mut store, "t", 4);
        let mut fwd = Fwd::new(&store, true);
        let out = te.forward(&mut fwd, &[1.0, 2.0]);
        let loss = fwd.g.mean_all(out);
        let grads = fwd.finish(loss);
        assert_eq!(grads.grads.len(), 2, "omega and phase");
    }

    #[test]
    fn distinguishes_timescales() {
        let mut store = ParamStore::new();
        let te = TimeEncoding::new(&mut store, "t", 8);
        let mut fwd = Fwd::new(&store, false);
        let out = te.forward(&mut fwd, &[1.0, 1000.0]);
        let t = fwd.g.value(out);
        assert_ne!(t.row_slice(0), t.row_slice(1));
    }
}
