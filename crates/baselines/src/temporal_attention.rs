//! The temporal graph attention layer used by TGAT and TGN.
//!
//! For a target node `v` queried at time `t`, the layer attends from
//! `[h_v ‖ Φ(0)]` over its sampled temporal neighbours' `[h_u ‖ e_uv ‖
//! Φ(t − t_uv)]`, where `Φ` is the functional time encoding. This is the
//! *synchronous* aggregation pattern whose inference-time graph queries
//! APAN eliminates — the sampling helper here tracks exactly that cost.

use apan_nn::attention::length_mask;
use apan_nn::{Fwd, Linear, Mlp, ParamStore, TimeEncoding};
use apan_tensor::{Tensor, Var};
use apan_tgraph::cost::QueryCost;
use apan_tgraph::sampling::{sample_neighbors, Strategy};
use apan_tgraph::{NodeId, TemporalGraph, Time};
use rand::rngs::StdRng;
use rand::Rng;

/// One sampled frontier level of a temporal k-hop expansion, padded to a
/// fixed fan-out of `n` slots per parent.
pub struct SampledLevel {
    /// Neighbour node per slot (`parents.len() · n` entries; padding = 0).
    pub nodes: Vec<NodeId>,
    /// Edge time per slot (these become the query times of the next
    /// level).
    pub times: Vec<Time>,
    /// Normalized `query_time − edge_time` per slot.
    pub dts: Vec<f32>,
    /// Edge (event) id per slot, for feature lookup (padding = 0, masked).
    pub eids: Vec<u32>,
    /// Valid slots per parent.
    pub lens: Vec<usize>,
    /// Fan-out `n`.
    pub fanout: usize,
}

/// Samples up to `n` most-recent temporal neighbours for every parent.
/// Each parent's cutoff is `min(parent_time, visible)` — `visible` models
/// the staleness of the graph store within a batch.
pub fn sample_level(
    graph: &TemporalGraph,
    parents: &[NodeId],
    parent_times: &[Time],
    visible: Time,
    n: usize,
    time_scale: f64,
    cost: &mut QueryCost,
) -> SampledLevel {
    cost.record_hop();
    let mut level = SampledLevel {
        nodes: vec![0; parents.len() * n],
        times: vec![0.0; parents.len() * n],
        dts: vec![0.0; parents.len() * n],
        eids: vec![0; parents.len() * n],
        lens: Vec::with_capacity(parents.len()),
        fanout: n,
    };
    let scale = time_scale.max(f64::MIN_POSITIVE);
    for (pi, (&p, &pt)) in parents.iter().zip(parent_times).enumerate() {
        let cutoff = pt.min(visible);
        let sampled = sample_neighbors(graph, p, cutoff, n, Strategy::MostRecent, None, cost);
        level.lens.push(sampled.len());
        for (si, entry) in sampled.iter().enumerate() {
            let slot = pi * n + si;
            level.nodes[slot] = entry.neighbor;
            level.times[slot] = entry.time;
            level.dts[slot] = ((pt - entry.time).max(0.0) / scale) as f32;
            level.eids[slot] = entry.eid;
        }
    }
    level
}

/// One attention layer (multi-head, masked, with a feed-forward head).
pub struct TemporalAttentionLayer {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    head: Mlp,
    heads: usize,
    dim: usize,
    feat_dim: usize,
}

impl TemporalAttentionLayer {
    /// Registers a layer over representations of width `dim`, edge
    /// features of width `feat_dim`, and time encodings of width `dim`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        feat_dim: usize,
        heads: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim must divide heads");
        Self {
            wq: Linear::new(store, &format!("{name}.wq"), 2 * dim, dim, rng),
            wk: Linear::new(store, &format!("{name}.wk"), 2 * dim + feat_dim, dim, rng),
            wv: Linear::new(store, &format!("{name}.wv"), 2 * dim + feat_dim, dim, rng),
            head: Mlp::new(
                store,
                &format!("{name}.ffn"),
                &[2 * dim, hidden, dim],
                0.0,
                rng,
            ),
            heads,
            dim,
            feat_dim,
        }
    }

    /// Aggregates one level. `h_self` is `[B × dim]`, `neigh_rep` is
    /// `[B·n × dim]`, `neigh_feats` is the constant `[B·n × feat_dim]`
    /// matrix of connecting-edge features, `level` supplies Δt and
    /// masking.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        fwd: &mut Fwd<'_>,
        h_self: Var,
        neigh_rep: Var,
        neigh_feats: &Tensor,
        level: &SampledLevel,
        time_enc: &TimeEncoding,
        rng: &mut StdRng,
    ) -> Var {
        let b = fwd.g.value(h_self).rows();
        let n = level.fanout;
        debug_assert_eq!(fwd.g.value(neigh_rep).shape(), (b * n, self.dim));
        debug_assert_eq!(neigh_feats.shape(), (b * n, self.feat_dim));

        // q = Wq [h_v ‖ Φ(0)]
        let zero_dt = vec![0.0f32; b];
        let phi0 = time_enc.forward(fwd, &zero_dt);
        let q_in = fwd.g.concat_cols(&[h_self, phi0]);
        let q = self.wq.forward(fwd, q_in);

        // k,v = W [h_u ‖ e ‖ Φ(Δt)]
        let phi = time_enc.forward(fwd, &level.dts);
        let feats = fwd.g.constant(neigh_feats.clone());
        let kv_in = fwd.g.concat_cols(&[neigh_rep, feats, phi]);
        let k = self.wk.forward(fwd, kv_in);
        let v = self.wv.forward(fwd, kv_in);

        // Nodes without any temporal neighbour keep slot 0 open so softmax
        // stays well-defined; its zero-padded key/value acts as a null
        // token.
        let effective: Vec<usize> = level.lens.iter().map(|&l| l.max(1)).collect();
        let mask = length_mask(&effective, n);
        let mask_v = fwd.g.constant(mask);

        let head_dim = self.dim / self.heads;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut mixed = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let off = h * head_dim;
            let qh = fwd.g.slice_cols(q, off, head_dim);
            let kh = fwd.g.slice_cols(k, off, head_dim);
            let vh = fwd.g.slice_cols(v, off, head_dim);
            let scores = fwd.g.attn_scores(qh, kh, n, scale);
            let masked = fwd.g.add(scores, mask_v);
            let attn = fwd.g.softmax_rows(masked);
            mixed.push(fwd.g.attn_mix(attn, vh, n));
        }
        let agg = fwd.g.concat_cols(&mixed);

        // FFN([agg ‖ h_v]) → new representation
        let ffn_in = fwd.g.concat_cols(&[agg, h_self]);
        self.head.forward(fwd, ffn_in, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn chain_graph() -> TemporalGraph {
        let mut g = TemporalGraph::new();
        g.insert(0, 1, 1.0);
        g.insert(1, 2, 2.0);
        g.insert(0, 2, 3.0);
        g
    }

    #[test]
    fn sample_level_layout() {
        let g = chain_graph();
        let mut cost = QueryCost::new();
        let level = sample_level(&g, &[0, 1], &[10.0, 10.0], 10.0, 3, 1.0, &mut cost);
        assert_eq!(level.lens, vec![2, 2]);
        assert_eq!(level.nodes.len(), 6);
        // node 0's neighbours: 1 (t=1) then 2 (t=3)
        assert_eq!(level.nodes[0], 1);
        assert_eq!(level.nodes[1], 2);
        assert!((level.dts[0] - 9.0).abs() < 1e-6);
        assert!(cost.queries == 2 && cost.hops == 1);
    }

    #[test]
    fn sample_level_respects_visibility() {
        let g = chain_graph();
        let mut cost = QueryCost::new();
        // visible horizon 1.5 hides events at t=2,3 even for query time 10
        let level = sample_level(&g, &[0], &[10.0], 1.5, 3, 1.0, &mut cost);
        assert_eq!(level.lens, vec![1]);
        assert_eq!(level.nodes[0], 1);
    }

    #[test]
    fn layer_output_shape_and_gradients() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = TemporalAttentionLayer::new(&mut store, "l", 8, 4, 2, 16, &mut rng);
        let te = TimeEncoding::new(&mut store, "te", 8);
        let g = chain_graph();
        let mut cost = QueryCost::new();
        let level = sample_level(&g, &[0, 1, 2], &[5.0; 3], 5.0, 2, 1.0, &mut cost);

        let mut fwd = Fwd::new(&store, true);
        let h_self = fwd.g.constant(Tensor::randn(3, 8, 1.0, &mut rng));
        let neigh = fwd.g.constant(Tensor::randn(6, 8, 1.0, &mut rng));
        let feats = Tensor::randn(6, 4, 1.0, &mut rng);
        let out = layer.forward(&mut fwd, h_self, neigh, &feats, &level, &te, &mut rng);
        assert_eq!(fwd.g.value(out).shape(), (3, 8));
        let loss = fwd.g.mean_all(out);
        let grads = fwd.finish(loss);
        assert!(grads.grads.len() > 5);
    }

    #[test]
    fn isolated_node_is_finite() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = TemporalAttentionLayer::new(&mut store, "l", 8, 4, 2, 16, &mut rng);
        let te = TimeEncoding::new(&mut store, "te", 8);
        let mut g = TemporalGraph::new();
        g.ensure_node(5);
        let mut cost = QueryCost::new();
        let level = sample_level(&g, &[5], &[1.0], 1.0, 2, 1.0, &mut cost);
        assert_eq!(level.lens, vec![0]);

        let mut fwd = Fwd::new(&store, false);
        let h_self = fwd.g.constant(Tensor::zeros(1, 8));
        let neigh = fwd.g.constant(Tensor::zeros(2, 8));
        let feats = Tensor::zeros(2, 4);
        let out = layer.forward(&mut fwd, h_self, neigh, &feats, &level, &te, &mut rng);
        assert!(fwd.g.value(out).data().iter().all(|v| v.is_finite()));
    }
}
