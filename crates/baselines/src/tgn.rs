//! TGN (Rossi et al., 2020), adapted to the shared CTDG protocol.
//!
//! TGN combines JODIE's recurrent node memory with TGAT's temporal
//! attention: embeddings are computed by L attention layers whose base
//! representations are the (message-updated) memories. The memory makes
//! it accurate; the attention's inference-time k-hop queries make it
//! slow to serve — TGN is the model APAN's Figure 6 headline compares
//! against (8.7× at 2 layers).

use crate::heads::TaskHeads;
use crate::memory::NodeMemory;
use crate::temporal_attention::{sample_level, SampledLevel, TemporalAttentionLayer};
use crate::tgat::Tgat;
use apan_core::train::DynamicModel;
use apan_nn::{Fwd, ParamStore};
use apan_tensor::{Tensor, Var};
use apan_tgraph::cost::QueryCost;
use apan_tgraph::{Event, NodeId, Time};
use rand::rngs::StdRng;
use rand::Rng;

/// The TGN baseline.
pub struct Tgn {
    params: ParamStore,
    memory: NodeMemory,
    layers: Vec<TemporalAttentionLayer>,
    heads: TaskHeads,
    dim: usize,
    /// Temporal neighbours sampled per hop.
    pub neighbors: usize,
    time_scale: f64,
}

impl Tgn {
    /// Builds TGN with `num_layers` attention layers over memory width
    /// `dim` (== edge feature width).
    pub fn new<R: Rng + ?Sized>(
        dim: usize,
        num_layers: usize,
        attn_heads: usize,
        hidden: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        assert!(num_layers >= 1, "TGN needs at least one attention layer");
        let mut params = ParamStore::new();
        let memory = NodeMemory::new(&mut params, "tgn.mem", dim, 3 * dim, rng);
        let layers = (0..num_layers)
            .map(|l| {
                TemporalAttentionLayer::new(
                    &mut params,
                    &format!("tgn.layer{l}"),
                    dim,
                    dim,
                    attn_heads,
                    hidden,
                    rng,
                )
            })
            .collect();
        let heads = TaskHeads::new(&mut params, dim, hidden, dropout, rng);
        Self {
            params,
            memory,
            layers,
            heads,
            dim,
            neighbors: 10,
            time_scale: 1.0,
        }
    }

    /// Number of attention layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

impl DynamicModel for Tgn {
    fn name(&self) -> String {
        format!("TGN-{}layer", self.layers.len())
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
        self.time_scale = mean_gap * 100.0;
        self.memory.reset(data.num_nodes(), self.time_scale);
    }

    fn embed(
        &self,
        fwd: &mut Fwd<'_>,
        data: &apan_data::TemporalDataset,
        nodes: &[NodeId],
        visible: Time,
        _now: Time,
        rng: &mut StdRng,
        cost: &mut QueryCost,
    ) -> Var {
        // sampled tree, exactly as TGAT
        let mut node_levels: Vec<Vec<NodeId>> = vec![nodes.to_vec()];
        let mut time_levels: Vec<Vec<Time>> = vec![vec![visible; nodes.len()]];
        let mut sampled_levels: Vec<SampledLevel> = Vec::new();
        for _ in 0..self.layers.len() {
            let parents = node_levels.last().expect("non-empty");
            let ptimes = time_levels.last().expect("non-empty");
            let level = sample_level(
                &data.graph,
                parents,
                ptimes,
                visible,
                self.neighbors,
                self.time_scale,
                cost,
            );
            node_levels.push(level.nodes.clone());
            time_levels.push(level.times.clone());
            sampled_levels.push(level);
        }

        // Base representations are the node memories (message-updated,
        // differentiable through the GRU for nodes with pending messages).
        let mut rep = self
            .memory
            .current_memory(fwd, node_levels.last().expect("non-empty"));
        for l in (0..self.layers.len()).rev() {
            let level = &sampled_levels[l];
            let h_self = self.memory.current_memory(fwd, &node_levels[l]);
            let feats = Tgat::level_feats(data, level);
            rep =
                self.layers[l].forward(fwd, h_self, rep, &feats, level, &self.memory.time_enc, rng);
        }
        rep
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
    fn inference_queries_the_graph() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = Tgn::new(6, 1, 2, 12, 0.0, &mut rng);
        m.reset(&data);
        let mut cost = QueryCost::new();
        let mut fwd = Fwd::new(m.params(), false);
        let z = m.embed(
            &mut fwd,
            &data,
            &[0, 1, 2],
            data.graph.max_time(),
            data.graph.max_time(),
            &mut rng,
            &mut cost,
        );
        assert_eq!(fwd.g.value(z).shape(), (3, 6));
        assert!(cost.queries > 0, "TGN inference must query the graph");
    }

    #[test]
    fn memory_makes_embeddings_history_dependent() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = Tgn::new(6, 1, 2, 12, 0.0, &mut rng);
        m.reset(&data);
        let events = &data.graph.events()[..30];
        let node = events[0].src;
        let t = data.graph.max_time();
        let mut cost = QueryCost::new();

        let before = {
            let mut fwd = Fwd::new(m.params(), false);
            let z = m.embed(&mut fwd, &data, &[node], t, t, &mut rng, &mut cost);
            fwd.g.value(z).clone()
        };
        let src: Vec<NodeId> = events.iter().map(|e| e.src).collect();
        let dst: Vec<NodeId> = events.iter().map(|e| e.dst).collect();
        let (unique, maps) = dedup_nodes(&[&src, &dst]);
        let zeros = Tensor::zeros(unique.len(), 6);
        m.post_step(&data, events, &unique, &maps, &zeros, &mut cost);
        let after = {
            let mut fwd = Fwd::new(m.params(), false);
            let z = m.embed(&mut fwd, &data, &[node], t, t, &mut rng, &mut cost);
            fwd.g.value(z).clone()
        };
        assert!(
            !before.allclose(&after, 1e-7),
            "memory update should move the embedding"
        );
    }
}
