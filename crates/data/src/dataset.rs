//! The in-memory temporal dataset: graph + edge features + labels.

use apan_tensor::Tensor;
use apan_tgraph::{NodeId, TemporalGraph};

/// What the per-event labels mean for a dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelKind {
    /// Labels describe a state change of the *source* node at the event
    /// (Wikipedia "posting ban", Reddit "editing ban") — the node
    /// classification task of Table 3.
    NodeState,
    /// Labels describe the edge itself (Alipay "transaction ban") — the
    /// edge classification task of Table 3.
    Edge,
}

/// A complete continuous-time dynamic-graph dataset.
///
/// Events live in `graph` in time order; `edge_features` row `eid` is the
/// feature vector of event `eid`; `labels[eid]` is `Some(true/false)` for
/// labeled interactions and `None` for unlabeled ones (the vast majority —
/// the paper's datasets have 217–11,632 labels out of 157k–2.8M events).
#[derive(Debug)]
pub struct TemporalDataset {
    /// Dataset name, e.g. `"wikipedia-synthetic"`.
    pub name: String,
    /// The interaction graph.
    pub graph: TemporalGraph,
    /// `[num_events × feature_dim]` edge feature matrix.
    pub edge_features: Tensor,
    /// Per-event optional binary label.
    pub labels: Vec<Option<bool>>,
    /// For bipartite datasets, node ids `< num_users` are users and the
    /// rest are items; `0` for unipartite graphs.
    pub num_users: usize,
    /// Whether the graph is bipartite (user–item).
    pub bipartite: bool,
    /// Task semantics of `labels`.
    pub label_kind: LabelKind,
}

impl TemporalDataset {
    /// Number of interactions.
    pub fn num_events(&self) -> usize {
        self.graph.num_events()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Edge feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.edge_features.cols()
    }

    /// The feature row of event `eid`.
    pub fn feature(&self, eid: u32) -> &[f32] {
        self.edge_features.row_slice(eid as usize)
    }

    /// Gathers the feature rows for a batch of events into a matrix.
    pub fn feature_batch(&self, eids: &[u32]) -> Tensor {
        let idx: Vec<usize> = eids.iter().map(|&e| e as usize).collect();
        self.edge_features.gather_rows(&idx)
    }

    /// Count of positively labeled interactions.
    pub fn num_positive(&self) -> usize {
        self.labels.iter().filter(|l| **l == Some(true)).count()
    }

    /// Whether `node` is on the user side of a bipartite dataset.
    pub fn is_user(&self, node: NodeId) -> bool {
        !self.bipartite || (node as usize) < self.num_users
    }

    /// Validates internal consistency (shapes, label length, time order);
    /// used by tests and the loader.
    pub fn validate(&self) -> Result<(), String> {
        if self.edge_features.rows() != self.num_events() {
            return Err(format!(
                "feature rows {} != events {}",
                self.edge_features.rows(),
                self.num_events()
            ));
        }
        if self.labels.len() != self.num_events() {
            return Err(format!(
                "labels {} != events {}",
                self.labels.len(),
                self.num_events()
            ));
        }
        let events = self.graph.events();
        if events.windows(2).any(|w| w[0].time > w[1].time) {
            return Err("events out of time order".into());
        }
        if self.bipartite {
            for e in events {
                if (e.src as usize) >= self.num_users {
                    return Err(format!("bipartite src {} is not a user", e.src));
                }
                if (e.dst as usize) < self.num_users {
                    return Err(format!("bipartite dst {} is not an item", e.dst));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TemporalDataset {
        let mut g = TemporalGraph::new();
        g.insert(0, 2, 1.0);
        g.insert(1, 2, 2.0);
        TemporalDataset {
            name: "tiny".into(),
            graph: g,
            edge_features: Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
            labels: vec![None, Some(true)],
            num_users: 2,
            bipartite: true,
            label_kind: LabelKind::NodeState,
        }
    }

    #[test]
    fn accessors() {
        let d = tiny();
        assert_eq!(d.num_events(), 2);
        assert_eq!(d.num_nodes(), 3);
        assert_eq!(d.feature_dim(), 2);
        assert_eq!(d.feature(1), &[0.0, 1.0]);
        assert_eq!(d.num_positive(), 1);
        assert!(d.is_user(0));
        assert!(!d.is_user(2));
        d.validate().unwrap();
    }

    #[test]
    fn feature_batch_gathers() {
        let d = tiny();
        let b = d.feature_batch(&[1, 0]);
        assert_eq!(b.row_slice(0), &[0.0, 1.0]);
        assert_eq!(b.row_slice(1), &[1.0, 0.0]);
    }

    #[test]
    fn validate_catches_mismatch() {
        let mut d = tiny();
        d.labels.pop();
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_catches_bipartite_violation() {
        let mut d = tiny();
        d.num_users = 3; // dst 2 is now "a user" ⇒ invalid as destination
        assert!(d.validate().is_err());
    }
}
