//! The complete APAN network (Fig. 3): encoder + decoders + propagator.

use crate::config::ApanConfig;
use crate::decoder::{EdgeClassifier, LinkDecoder, NodeClassifier};
use crate::encoder::{ApanEncoder, EncoderOutput};
use crate::mail::make_mails_with;
use crate::mailbox::{MailboxRead, MailboxStore};
use crate::propagator::{Interaction, Propagator};
use apan_nn::{Fwd, ParamStore};
use apan_tensor::Tensor;
use apan_tgraph::cost::QueryCost;
use apan_tgraph::{NodeId, TemporalGraph, Time};
use rand::rngs::StdRng;
use rand::Rng;

/// The APAN model: all learnable components plus the (parameter-free)
/// propagator configuration. Serving state (mailboxes, last embeddings)
/// lives in a separate [`MailboxStore`] so one trained model can drive
/// many independent streams.
pub struct Apan {
    /// Hyper-parameters.
    pub cfg: ApanConfig,
    /// All learnable parameters.
    pub params: ParamStore,
    /// The attention encoder (synchronous link).
    pub encoder: ApanEncoder,
    /// Link-prediction decoder.
    pub link_decoder: LinkDecoder,
    /// Edge-classification decoder.
    pub edge_classifier: EdgeClassifier,
    /// Node-classification decoder.
    pub node_classifier: NodeClassifier,
    /// The asynchronous mail propagator.
    pub propagator: Propagator,
}

impl Apan {
    /// Builds a freshly initialized model.
    pub fn new<R: Rng + ?Sized>(cfg: &ApanConfig, rng: &mut R) -> Self {
        cfg.validate().expect("invalid APAN config");
        let mut params = ParamStore::new();
        let encoder = ApanEncoder::new(&mut params, cfg, rng);
        let link_decoder = LinkDecoder::new(&mut params, cfg.dim, cfg.mlp_hidden, cfg.dropout, rng);
        let edge_classifier =
            EdgeClassifier::new(&mut params, cfg.dim, cfg.mlp_hidden, cfg.dropout, rng);
        let node_classifier =
            NodeClassifier::new(&mut params, cfg.dim, cfg.mlp_hidden, cfg.dropout, rng);
        let propagator = Propagator::from_config(cfg);
        Self {
            cfg: cfg.clone(),
            params,
            encoder,
            link_decoder,
            edge_classifier,
            node_classifier,
            propagator,
        }
    }

    /// Creates a serving-state store sized for `num_nodes`.
    pub fn new_store(&self, num_nodes: usize) -> MailboxStore {
        MailboxStore::new(
            num_nodes,
            self.cfg.mailbox_slots,
            self.cfg.dim,
            self.cfg.mailbox_update,
        )
    }

    /// Encodes `nodes` from their mailbox state as of `now`. This is the
    /// entire synchronous inference path up to the decoder — note the
    /// absence of any graph argument. Generic over the store's read
    /// surface so training (flat [`MailboxStore`]) and serving (sharded
    /// store) share one code path.
    pub fn encode<S: MailboxRead + ?Sized>(
        &self,
        fwd: &mut Fwd<'_>,
        store: &S,
        nodes: &[NodeId],
        now: Time,
        rng: &mut StdRng,
    ) -> EncoderOutput {
        let view = store.read_batch(nodes, now);
        let z_prev = store.embedding_batch(nodes);
        self.encoder.forward(fwd, &z_prev, &view, rng)
    }

    /// The post-inference state update (start of the asynchronous link):
    /// stores the new embeddings, generates one mail per interaction from
    /// the *new* embeddings (φ of Eq. 6), and propagates to the k-hop
    /// temporal neighbourhoods. `z` holds one row per entry of `nodes`;
    /// `src_rows[i]`/`dst_rows[i]` index the rows of `z` for interaction
    /// `i`. Returns the number of mailbox deliveries.
    #[allow(clippy::too_many_arguments)]
    pub fn post_step(
        &self,
        store: &mut MailboxStore,
        graph: &TemporalGraph,
        batch: &[Interaction],
        nodes: &[NodeId],
        z: &Tensor,
        src_rows: &[usize],
        dst_rows: &[usize],
        edge_feats: &Tensor,
        cost: &mut QueryCost,
    ) -> usize {
        debug_assert_eq!(z.rows(), nodes.len());
        debug_assert_eq!(batch.len(), src_rows.len());
        debug_assert_eq!(batch.len(), dst_rows.len());
        let now = batch.last().map(|i| i.time).unwrap_or(0.0);
        store.set_embeddings(nodes, z, now);

        let z_src = z.gather_rows(src_rows);
        let z_dst = z.gather_rows(dst_rows);
        let mails = make_mails_with(&z_src, &z_dst, edge_feats, self.cfg.mail_content);
        self.propagator
            .propagate_batch(graph, store, batch, &mails, cost)
    }

    /// Total trainable scalars (for reporting).
    pub fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }

    /// Saves all parameters to `path` (atomic write). The configuration is
    /// not stored; restoring requires constructing the model with the same
    /// [`ApanConfig`] first.
    pub fn save_checkpoint(&self, path: &std::path::Path) -> Result<(), apan_nn::CheckpointError> {
        apan_nn::save_params_file(&self.params, path)
    }

    /// Restores parameters from a checkpoint written by
    /// [`Apan::save_checkpoint`]; fails on any architecture mismatch.
    pub fn load_checkpoint(
        &mut self,
        path: &std::path::Path,
    ) -> Result<(), apan_nn::CheckpointError> {
        apan_nn::load_params_file(&mut self.params, path)
    }
}

/// Deduplicates node lists into a unique array plus per-list row maps.
/// `maps[l][i]` is the row (into the unique list) of `lists[l][i]`. The
/// paper notes that a node appearing several times in a batch gets a
/// single new embedding — this is that bookkeeping.
pub fn dedup_nodes(lists: &[&[NodeId]]) -> (Vec<NodeId>, Vec<Vec<usize>>) {
    use std::collections::HashMap;
    let mut unique = Vec::new();
    let mut index: HashMap<NodeId, usize> = HashMap::new();
    let mut maps = Vec::with_capacity(lists.len());
    for list in lists {
        let mut map = Vec::with_capacity(list.len());
        for &n in *list {
            let row = *index.entry(n).or_insert_with(|| {
                unique.push(n);
                unique.len() - 1
            });
            map.push(row);
        }
        maps.push(map);
    }
    (unique, maps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_model() -> (Apan, StdRng) {
        let mut cfg = ApanConfig::new(8);
        cfg.mailbox_slots = 4;
        cfg.mlp_hidden = 16;
        cfg.dropout = 0.0;
        let mut rng = StdRng::seed_from_u64(0);
        let model = Apan::new(&cfg, &mut rng);
        (model, rng)
    }

    #[test]
    fn construction_and_param_count() {
        let (model, _) = small_model();
        assert!(model.num_parameters() > 500);
        assert_eq!(model.encoder.dim(), 8);
    }

    #[test]
    fn dedup_nodes_basic() {
        let src = [1u32, 2, 1];
        let dst = [3u32, 1, 4];
        let (unique, maps) = dedup_nodes(&[&src, &dst]);
        assert_eq!(unique, vec![1, 2, 3, 4]);
        assert_eq!(maps[0], vec![0, 1, 0]);
        assert_eq!(maps[1], vec![2, 0, 3]);
    }

    #[test]
    fn dedup_nodes_empty() {
        let (unique, maps) = dedup_nodes(&[&[], &[]]);
        assert!(unique.is_empty());
        assert_eq!(maps.len(), 2);
    }

    #[test]
    fn encode_without_graph_argument() {
        // the signature itself is the architectural claim; exercise it
        let (model, mut rng) = small_model();
        let store = model.new_store(5);
        let mut fwd = Fwd::new(&model.params, false);
        let out = model.encode(&mut fwd, &store, &[0, 1, 2], 1.0, &mut rng);
        assert_eq!(fwd.g.value(out.z).shape(), (3, 8));
    }

    #[test]
    fn post_step_updates_state_and_delivers() {
        let (model, mut rng) = small_model();
        let mut store = model.new_store(4);
        let mut graph = TemporalGraph::new();
        graph.insert(0, 1, 1.0);
        graph.insert(1, 2, 2.0);

        // encode nodes 0,1 for an interaction 0→1 at t=3
        let nodes = vec![0u32, 1u32];
        let mut fwd = Fwd::new(&model.params, false);
        let out = model.encode(&mut fwd, &store, &nodes, 3.0, &mut rng);
        let z = fwd.g.value(out.z).clone();

        graph.insert(0, 1, 3.0);
        let batch = [Interaction {
            src: 0,
            dst: 1,
            time: 3.0,
            eid: 2,
        }];
        let feats = Tensor::ones(1, 8);
        let mut cost = QueryCost::new();
        let n = model.post_step(
            &mut store,
            &graph,
            &batch,
            &nodes,
            &z,
            &[0],
            &[1],
            &feats,
            &mut cost,
        );
        assert!(n >= 2, "self-delivery at least");
        assert_eq!(store.embedding(0), z.row_slice(0));
        assert_eq!(store.embedding(1), z.row_slice(1));
        assert_eq!(store.last_update(0), 3.0);
        assert!(!store.is_empty(0));
        // mail content = z0 + z1 + e
        let expected: Vec<f32> = z
            .row_slice(0)
            .iter()
            .zip(z.row_slice(1))
            .map(|(a, b)| a + b + 1.0)
            .collect();
        let got = store.mails_of(0)[0].0;
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-6);
        }
    }
}
