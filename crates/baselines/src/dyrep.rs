//! DyRep (Trivedi et al., ICLR 2019), adapted to the shared CTDG protocol.
//!
//! DyRep's memory update ingests a *localized embedding* of the partner —
//! an aggregate over the partner's temporal neighbourhood — so the graph
//! is queried at **update** time, not at inference time. Embeddings are
//! the memory itself (the "id" readout in TGN's taxonomy), keeping the
//! inference path query-free like JODIE but with structure-aware updates.

use crate::heads::TaskHeads;
use crate::memory::NodeMemory;
use apan_core::train::DynamicModel;
use apan_nn::{Fwd, ParamStore};
use apan_tensor::{Tensor, Var};
use apan_tgraph::cost::QueryCost;
use apan_tgraph::sampling::{sample_neighbors, Strategy};
use apan_tgraph::{Event, NodeId, Time};
use rand::rngs::StdRng;
use rand::Rng;

/// The DyRep baseline.
pub struct DyRep {
    params: ParamStore,
    memory: NodeMemory,
    heads: TaskHeads,
    dim: usize,
    /// Neighbours aggregated per memory update.
    pub neighbors: usize,
}

impl DyRep {
    /// Builds DyRep with memory width `dim`.
    pub fn new<R: Rng + ?Sized>(dim: usize, hidden: usize, dropout: f32, rng: &mut R) -> Self {
        let mut params = ParamStore::new();
        // message = [partner memory ‖ partner-neighbourhood mean ‖ feat ‖ Φ(Δt)]
        let memory = NodeMemory::new(&mut params, "dyrep.mem", dim, 4 * dim, rng);
        let heads = TaskHeads::new(&mut params, dim, hidden, dropout, rng);
        Self {
            params,
            memory,
            heads,
            dim,
            neighbors: 10,
        }
    }

    /// Mean memory of `node`'s most-recent temporal neighbours before `t`.
    fn neighborhood_mean(
        &self,
        data: &apan_data::TemporalDataset,
        node: NodeId,
        t: Time,
        cost: &mut QueryCost,
    ) -> Vec<f32> {
        let sampled = sample_neighbors(
            &data.graph,
            node,
            t,
            self.neighbors,
            Strategy::MostRecent,
            None,
            cost,
        );
        let mut acc = vec![0.0f32; self.dim];
        if sampled.is_empty() {
            return acc;
        }
        for entry in &sampled {
            for (a, &m) in acc.iter_mut().zip(self.memory.memory_of(entry.neighbor)) {
                *a += m;
            }
        }
        let inv = 1.0 / sampled.len() as f32;
        for a in &mut acc {
            *a *= inv;
        }
        acc
    }
}

impl DynamicModel for DyRep {
    fn name(&self) -> String {
        "DyRep".into()
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
        _visible: Time,
        _now: Time,
        _rng: &mut StdRng,
        _cost: &mut QueryCost,
    ) -> Var {
        // identity readout of the memory; query-free inference
        self.memory.current_memory(fwd, nodes)
    }

    fn post_step(
        &mut self,
        data: &apan_data::TemporalDataset,
        events: &[Event],
        unique: &[NodeId],
        _maps: &[Vec<usize>],
        _z: &Tensor,
        cost: &mut QueryCost,
    ) {
        self.memory.persist(&self.params, unique);

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
            // DyRep's structural term: partner's neighbourhood aggregate
            let hood_dst = self.neighborhood_mean(data, e.dst, e.time, cost);
            let hood_src = self.neighborhood_mean(data, e.src, e.time, cost);

            let mut msg_src = Vec::with_capacity(4 * self.dim);
            msg_src.extend_from_slice(self.memory.memory_of(e.dst));
            msg_src.extend_from_slice(&hood_dst);
            msg_src.extend_from_slice(feat);
            msg_src.extend_from_slice(phi_src.row_slice(bi));
            self.memory.store_message(e.src, msg_src, e.time);

            let mut msg_dst = Vec::with_capacity(4 * self.dim);
            msg_dst.extend_from_slice(self.memory.memory_of(e.src));
            msg_dst.extend_from_slice(&hood_src);
            msg_dst.extend_from_slice(feat);
            msg_dst.extend_from_slice(phi_dst.row_slice(bi));
            self.memory.store_message(e.dst, msg_dst, e.time);
        }
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
    use apan_core::model::dedup_nodes;
    use rand::SeedableRng;

    fn tiny_data() -> apan_data::TemporalDataset {
        let cfg = apan_data::generators::GenConfig {
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
            label_kind: apan_data::LabelKind::NodeState,
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
    fn inference_is_query_free_updates_are_not() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = DyRep::new(6, 12, 0.0, &mut rng);
        model.reset(&data);

        let mut embed_cost = QueryCost::new();
        {
            let mut fwd = Fwd::new(model.params(), false);
            let z = model.embed(
                &mut fwd,
                &data,
                &[0, 1],
                5.0,
                5.0,
                &mut rng,
                &mut embed_cost,
            );
            assert_eq!(fwd.g.value(z).shape(), (2, 6));
        }
        assert_eq!(embed_cost.queries, 0);

        let events = &data.graph.events()[..20];
        let src: Vec<NodeId> = events.iter().map(|e| e.src).collect();
        let dst: Vec<NodeId> = events.iter().map(|e| e.dst).collect();
        let (unique, maps) = dedup_nodes(&[&src, &dst]);
        let z = Tensor::zeros(unique.len(), 6);
        let mut post_cost = QueryCost::new();
        model.post_step(&data, events, &unique, &maps, &z, &mut post_cost);
        assert!(post_cost.queries > 0, "DyRep updates must query the graph");
    }

    #[test]
    fn neighborhood_mean_is_zero_without_history() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = DyRep::new(6, 12, 0.0, &mut rng);
        model.reset(&data);
        let mut cost = QueryCost::new();
        let first_t = data.graph.events()[0].time;
        let mean = model.neighborhood_mean(&data, 0, first_t, &mut cost);
        assert!(mean.iter().all(|&v| v == 0.0));
    }
}
