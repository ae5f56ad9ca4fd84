//! Dataset statistics — the rows of Table 1.

use crate::dataset::{LabelKind, TemporalDataset};
use crate::split::ChronoSplit;

/// The statistics Table 1 reports for each dataset.
#[derive(Clone, Debug)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Total interactions.
    pub edges: usize,
    /// Total nodes.
    pub nodes: usize,
    /// Edge feature dimensionality.
    pub edge_feature_dim: usize,
    /// Nodes interacting during training.
    pub nodes_in_train: usize,
    /// Val/test nodes already seen in training.
    pub old_nodes_in_valtest: usize,
    /// Val/test nodes never seen in training.
    pub unseen_nodes_in_valtest: usize,
    /// Time span in days.
    pub timespan_days: f64,
    /// Positively labeled interactions ("interactions with labels").
    pub interactions_with_labels: usize,
    /// Label semantics.
    pub label_type: String,
}

impl DatasetStats {
    /// Computes statistics for a dataset under a given split.
    pub fn compute(ds: &TemporalDataset, split: &ChronoSplit) -> Self {
        let events = ds.graph.events();
        let timespan = if events.is_empty() {
            0.0
        } else {
            (events[events.len() - 1].time - events[0].time) / 86_400.0
        };
        Self {
            name: ds.name.clone(),
            edges: ds.num_events(),
            nodes: ds.num_nodes(),
            edge_feature_dim: ds.feature_dim(),
            nodes_in_train: split.train_nodes.len(),
            old_nodes_in_valtest: split.old_nodes.len(),
            unseen_nodes_in_valtest: split.unseen_nodes.len(),
            timespan_days: timespan,
            interactions_with_labels: ds.num_positive(),
            label_type: match ds.label_kind {
                LabelKind::NodeState => "state-change ban".into(),
                LabelKind::Edge => "transaction ban".into(),
            },
        }
    }

    /// Renders one column of Table 1 as aligned text lines.
    pub fn render(&self) -> String {
        format!(
            "{}\n  edges: {}\n  nodes: {}\n  edge feature dim: {}\n  nodes in train: {}\n  old nodes in val+test: {}\n  unseen nodes in val+test: {}\n  timespan: {:.1} days\n  interactions with labels: {}\n  label type: {}",
            self.name,
            self.edges,
            self.nodes,
            self.edge_feature_dim,
            self.nodes_in_train,
            self.old_nodes_in_valtest,
            self.unseen_nodes_in_valtest,
            self.timespan_days,
            self.interactions_with_labels,
            self.label_type
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::wikipedia;
    use crate::split::SplitFractions;

    #[test]
    fn stats_consistent_with_dataset() {
        let ds = wikipedia(0.01, 0);
        let split = ChronoSplit::new(&ds, SplitFractions::paper_default());
        let s = DatasetStats::compute(&ds, &split);
        assert_eq!(s.edges, ds.num_events());
        assert_eq!(s.nodes, ds.num_nodes());
        assert_eq!(s.edge_feature_dim, 172);
        assert!((s.timespan_days - 30.0).abs() < 0.5);
        assert_eq!(s.interactions_with_labels, ds.num_positive());
        assert!(s.nodes_in_train <= s.nodes);
        assert!(s.old_nodes_in_valtest + s.unseen_nodes_in_valtest >= split.old_nodes.len());
        let rendered = s.render();
        assert!(rendered.contains("edges"));
    }
}
