//! TGAT (Xu et al., ICLR 2020), adapted to the shared CTDG protocol.
//!
//! TGAT is memoryless: a node's embedding at time `t` is computed *from
//! scratch* by L layers of temporal graph attention over its sampled
//! temporal neighbourhood — which means the **k-hop queries run on the
//! inference path**. This is the cost profile Figure 6 punishes: latency
//! grows multiplicatively with layers, while APAN's stays flat.
//!
//! Following several reimplementations, each layer's query uses the
//! node's base representation plus time encoding (rather than the full
//! recursive lower-layer embedding of the node itself); the receptive
//! field and the query cost are identical to the original formulation.

use crate::heads::TaskHeads;
use crate::temporal_attention::{sample_level, SampledLevel, TemporalAttentionLayer};
use apan_core::train::DynamicModel;
use apan_nn::{Fwd, ParamStore, TimeEncoding};
use apan_tensor::{Tensor, Var};
use apan_tgraph::cost::QueryCost;
use apan_tgraph::{Event, NodeId, Time};
use rand::rngs::StdRng;
use rand::Rng;

/// The TGAT baseline.
pub struct Tgat {
    params: ParamStore,
    layers: Vec<TemporalAttentionLayer>,
    time_enc: TimeEncoding,
    heads: TaskHeads,
    dim: usize,
    /// Temporal neighbours sampled per hop.
    pub neighbors: usize,
    time_scale: f64,
}

impl Tgat {
    /// Builds an `num_layers`-layer TGAT over features of width `dim`.
    pub fn new<R: Rng + ?Sized>(
        dim: usize,
        num_layers: usize,
        attn_heads: usize,
        hidden: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        assert!(num_layers >= 1, "TGAT needs at least one layer");
        let mut params = ParamStore::new();
        let layers = (0..num_layers)
            .map(|l| {
                TemporalAttentionLayer::new(
                    &mut params,
                    &format!("tgat.layer{l}"),
                    dim,
                    dim,
                    attn_heads,
                    hidden,
                    rng,
                )
            })
            .collect();
        let time_enc = TimeEncoding::new(&mut params, "tgat.time", dim);
        let heads = TaskHeads::new(&mut params, dim, hidden, dropout, rng);
        Self {
            params,
            layers,
            time_enc,
            heads,
            dim,
            neighbors: 10,
            time_scale: 1.0,
        }
    }

    /// Number of attention layers (hops seen at inference).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Gathers the connecting-edge feature matrix for a sampled level
    /// (padding slots stay zero).
    pub(crate) fn level_feats(data: &apan_data::TemporalDataset, level: &SampledLevel) -> Tensor {
        let mut feats = Tensor::zeros(level.nodes.len(), data.feature_dim());
        for slot in 0..level.nodes.len() {
            let pi = slot / level.fanout;
            let si = slot % level.fanout;
            if si < level.lens[pi] {
                feats
                    .row_slice_mut(slot)
                    .copy_from_slice(data.feature(level.eids[slot]));
            }
        }
        feats
    }
}

impl DynamicModel for Tgat {
    fn name(&self) -> String {
        format!("TGAT-{}layer", self.layers.len())
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
        // memoryless: only the Δt normalization scale depends on the data
        let span = data.graph.max_time().max(1.0);
        self.time_scale = span / data.num_events().max(1) as f64 * 100.0;
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
        // Build the sampled tree level by level (level 0 = the seeds).
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

        // Bottom-up aggregation. Base representations are zeros (the
        // datasets carry no node features, as in the paper §4.1).
        let deepest = node_levels.last().expect("non-empty").len();
        let mut rep = fwd.g.constant(Tensor::zeros(deepest, self.dim));
        for l in (0..self.layers.len()).rev() {
            let level = &sampled_levels[l];
            let h_self = fwd
                .g
                .constant(Tensor::zeros(node_levels[l].len(), self.dim));
            let feats = Self::level_feats(data, level);
            rep = self.layers[l].forward(fwd, h_self, rep, &feats, level, &self.time_enc, rng);
        }
        rep
    }

    fn post_step(
        &mut self,
        _data: &apan_data::TemporalDataset,
        _events: &[Event],
        _unique: &[NodeId],
        _maps: &[Vec<usize>],
        _z: &Tensor,
        _cost: &mut QueryCost,
    ) {
        // memoryless: nothing to update
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
    fn embed_queries_grow_with_layers() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let t = data.graph.max_time();
        let mut cost1 = QueryCost::new();
        let mut cost2 = QueryCost::new();
        for (layers, cost) in [(1usize, &mut cost1), (2, &mut cost2)] {
            let mut m = Tgat::new(6, layers, 2, 12, 0.0, &mut rng);
            m.reset(&data);
            let mut fwd = Fwd::new(m.params(), false);
            let z = m.embed(&mut fwd, &data, &[0, 1, 2, 3], t, t, &mut rng, cost);
            assert_eq!(fwd.g.value(z).shape(), (4, 6));
        }
        assert!(
            cost2.rows_touched > cost1.rows_touched * 2,
            "2-layer must touch far more rows: {} vs {}",
            cost2.rows_touched,
            cost1.rows_touched
        );
        assert_eq!(cost1.hops, 1);
        assert_eq!(cost2.hops, 2);
    }

    #[test]
    fn embeddings_depend_on_history() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = Tgat::new(6, 1, 2, 12, 0.0, &mut rng);
        m.reset(&data);
        let mut cost = QueryCost::new();
        // embed the same nodes at an early and a late horizon
        let events = data.graph.events();
        let early = events[10].time;
        let late = data.graph.max_time();
        let node = events[5].src;
        let mut fwd = Fwd::new(m.params(), false);
        let z1 = m.embed(&mut fwd, &data, &[node], early, early, &mut rng, &mut cost);
        let z2 = m.embed(&mut fwd, &data, &[node], late, late, &mut rng, &mut cost);
        let a = fwd.g.value(z1).clone();
        let b = fwd.g.value(z2).clone();
        assert!(
            !a.allclose(&b, 1e-7),
            "history growth should move the embedding"
        );
    }

    #[test]
    fn post_step_is_noop() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = Tgat::new(6, 1, 2, 12, 0.0, &mut rng);
        m.reset(&data);
        let mut cost = QueryCost::new();
        m.post_step(&data, &[], &[], &[], &Tensor::zeros(0, 6), &mut cost);
        assert_eq!(cost.queries, 0);
    }
}
