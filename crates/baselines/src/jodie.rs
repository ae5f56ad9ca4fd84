//! JODIE (Kumar et al., KDD 2019), adapted to the shared CTDG protocol.
//!
//! JODIE keeps an RNN memory per node, updated mutually at each
//! interaction, and *projects* the memory forward in time for prediction:
//! `ẑ(t + Δ) = (1 + Δ·w) ⊙ h`. Crucially for Figure 6, the inference path
//! is entirely node-local — no graph queries — which is why JODIE sits on
//! the fast-but-less-accurate end of the latency/AP plane.

use crate::heads::TaskHeads;
use crate::memory::NodeMemory;
use apan_core::train::DynamicModel;
use apan_nn::{Fwd, ParamId, ParamStore};
use apan_tensor::{Tensor, Var};
use apan_tgraph::cost::QueryCost;
use apan_tgraph::{Event, NodeId, Time};
use rand::rngs::StdRng;
use rand::Rng;

/// The JODIE baseline.
pub struct Jodie {
    params: ParamStore,
    memory: NodeMemory,
    heads: TaskHeads,
    /// Time-projection weights `w` of `ẑ = (1 + Δ·w) ⊙ h`.
    projection: ParamId,
    dim: usize,
}

impl Jodie {
    /// Builds JODIE with memory width equal to the dataset's edge feature
    /// dimension `dim` (the convention every model in this repo follows).
    pub fn new<R: Rng + ?Sized>(dim: usize, hidden: usize, dropout: f32, rng: &mut R) -> Self {
        let mut params = ParamStore::new();
        // message = [partner memory ‖ edge features ‖ Φ(Δt)]
        let memory = NodeMemory::new(&mut params, "jodie.mem", dim, 3 * dim, rng);
        let heads = TaskHeads::new(&mut params, dim, hidden, dropout, rng);
        let projection = params.add("jodie.proj", Tensor::zeros(1, dim));
        Self {
            params,
            memory,
            heads,
            projection,
            dim,
        }
    }

    /// Builds the raw messages for a batch and stores them (last wins).
    fn store_batch_messages(&mut self, data: &apan_data::TemporalDataset, events: &[Event]) {
        // Φ(Δt) computed numerically at message-creation time.
        let dts_src: Vec<f32> = events
            .iter()
            .map(|e| {
                self.memory
                    .normalize_dt(e.time - self.memory.last_update(e.src))
            })
            .collect();
        let dts_dst: Vec<f32> = events
            .iter()
            .map(|e| {
                self.memory
                    .normalize_dt(e.time - self.memory.last_update(e.dst))
            })
            .collect();
        let (phi_src, phi_dst) = {
            let mut fwd = Fwd::new(&self.params, false);
            let s = self.memory.time_enc.forward(&mut fwd, &dts_src);
            let d = self.memory.time_enc.forward(&mut fwd, &dts_dst);
            (fwd.g.value(s).clone(), fwd.g.value(d).clone())
        };
        for (bi, e) in events.iter().enumerate() {
            let feat = data.feature(e.eid);
            let mut msg_src = Vec::with_capacity(3 * self.dim);
            msg_src.extend_from_slice(self.memory.memory_of(e.dst));
            msg_src.extend_from_slice(feat);
            msg_src.extend_from_slice(phi_src.row_slice(bi));
            self.memory.store_message(e.src, msg_src, e.time);

            let mut msg_dst = Vec::with_capacity(3 * self.dim);
            msg_dst.extend_from_slice(self.memory.memory_of(e.src));
            msg_dst.extend_from_slice(feat);
            msg_dst.extend_from_slice(phi_dst.row_slice(bi));
            self.memory.store_message(e.dst, msg_dst, e.time);
        }
    }
}

impl DynamicModel for Jodie {
    fn name(&self) -> String {
        "JODIE".into()
    }

    fn params(&self) -> &ParamStore {
        &self.params
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.params
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn reset(&mut self, data: &apan_data::TemporalDataset) {
        let span = data.graph.max_time().max(1.0);
        let mean_gap = span / data.num_events().max(1) as f64;
        self.memory.reset(data.num_nodes(), mean_gap * 100.0);
    }

    fn embed(
        &self,
        fwd: &mut Fwd<'_>,
        _data: &apan_data::TemporalDataset,
        nodes: &[NodeId],
        visible: Time,
        _now: Time,
        _rng: &mut StdRng,
        _cost: &mut QueryCost,
    ) -> Var {
        // no graph queries: memory + time projection only
        let mem = self.memory.current_memory(fwd, nodes);
        let dts = self.memory.delta_times(nodes, visible);
        let dt_col = fwd.g.constant(Tensor::col(&dts));
        let w = fwd.p(self.projection);
        let scale = fwd.g.mul(dt_col, w); // [B,1] ⊗ [1,d] → [B,d]
        let delta = fwd.g.mul(scale, mem);
        fwd.g.add(mem, delta)
    }

    fn post_step(
        &mut self,
        data: &apan_data::TemporalDataset,
        events: &[Event],
        unique: &[NodeId],
        _maps: &[Vec<usize>],
        _z: &Tensor,
        _cost: &mut QueryCost,
    ) {
        self.memory.persist(&self.params, unique);
        self.store_batch_messages(data, events);
    }

    fn score_links(&self, fwd: &mut Fwd<'_>, zi: Var, zj: Var, rng: &mut StdRng) -> Var {
        self.heads.link(fwd, zi, zj, rng)
    }

    fn classify_nodes(&self, fwd: &mut Fwd<'_>, z: Var, feats: &Tensor, rng: &mut StdRng) -> Var {
        self.heads.node(fwd, z, feats, rng)
    }

    fn classify_edges(
        &self,
        fwd: &mut Fwd<'_>,
        zi: Var,
        feats: &Tensor,
        zj: Var,
        rng: &mut StdRng,
    ) -> Var {
        self.heads.edge(fwd, zi, feats, zj, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apan_data::generators::GenConfig;
    use apan_data::LabelKind;
    use rand::SeedableRng;

    fn tiny_data() -> apan_data::TemporalDataset {
        let cfg = GenConfig {
            name: "tiny".into(),
            num_users: 20,
            num_items: 20,
            num_events: 300,
            feature_dim: 6,
            timespan: 500.0,
            latent_dim: 3,
            repeat_prob: 0.7,
            recency_window: 3,
            zipf_user: 0.8,
            zipf_item: 1.0,
            target_positives: 10,
            label_kind: LabelKind::NodeState,
            bipartite: true,
            feature_noise: 0.3,
            burstiness: 0.3,
            fraud_burst_len: 0,
            drift_magnitude: 2.0,
            drift_run: 2,
        };
        apan_data::generators::generate_seeded(&cfg, 0)
    }

    #[test]
    fn embed_makes_no_queries() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Jodie::new(6, 12, 0.0, &mut rng);
        model.reset(&data);
        let mut cost = QueryCost::new();
        let mut fwd = Fwd::new(model.params(), false);
        let z = model.embed(&mut fwd, &data, &[0, 1, 2], 10.0, 10.0, &mut rng, &mut cost);
        assert_eq!(fwd.g.value(z).shape(), (3, 6));
        assert_eq!(cost.queries, 0, "JODIE inference must be query-free");
    }

    #[test]
    fn memory_evolves_with_events() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Jodie::new(6, 12, 0.0, &mut rng);
        model.reset(&data);
        let events = &data.graph.events()[..10];
        let src: Vec<NodeId> = events.iter().map(|e| e.src).collect();
        let dst: Vec<NodeId> = events.iter().map(|e| e.dst).collect();
        let (unique, maps) = apan_core::model::dedup_nodes(&[&src, &dst]);
        let z = Tensor::zeros(unique.len(), 6);
        let mut cost = QueryCost::new();
        model.post_step(&data, events, &unique, &maps, &z, &mut cost);
        // messages pending: embedding of a touched node now differs from untouched
        let mut fwd = Fwd::new(model.params(), false);
        let touched = events[0].src;
        let out = model.embed(
            &mut fwd,
            &data,
            &[touched],
            events[9].time,
            events[9].time,
            &mut rng,
            &mut cost,
        );
        assert!(fwd.g.value(out).data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn time_projection_changes_embedding() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Jodie::new(6, 12, 0.0, &mut rng);
        model.reset(&data);
        // give w a nonzero value so the projection acts
        let w = model.projection;
        *model.params.get_mut(w) = Tensor::full(1, 6, 0.5);
        // evolve node 0 a bit so memory is nonzero
        let events = &data.graph.events()[..5];
        let src: Vec<NodeId> = events.iter().map(|e| e.src).collect();
        let dst: Vec<NodeId> = events.iter().map(|e| e.dst).collect();
        let (unique, maps) = apan_core::model::dedup_nodes(&[&src, &dst]);
        let z = Tensor::zeros(unique.len(), 6);
        let mut cost = QueryCost::new();
        model.post_step(&data, events, &unique, &maps, &z, &mut cost);
        model.memory.persist(&model.params.clone(), &unique);

        let node = unique[0];
        let mut fwd = Fwd::new(model.params(), false);
        let z1 = model.embed(&mut fwd, &data, &[node], 100.0, 100.0, &mut rng, &mut cost);
        let z2 = model.embed(
            &mut fwd,
            &data,
            &[node],
            10_000.0,
            10_000.0,
            &mut rng,
            &mut cost,
        );
        let (a, b) = (fwd.g.value(z1).clone(), fwd.g.value(z2).clone());
        assert!(!a.allclose(&b, 1e-9), "Δt should shift the projection");
    }
}
