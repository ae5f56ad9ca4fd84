//! Inductive-evaluation plumbing: unseen-node pairs are flagged and the
//! subset metrics behave.

use apan_core::config::ApanConfig;
use apan_core::train::{train_link_prediction, ApanDyn, ScoreLog, TrainConfig};
use apan_data::generators::GenConfig;
use apan_data::{ChronoSplit, LabelKind, SplitFractions};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn score_log_subset_metrics() {
    let log = ScoreLog {
        scores: vec![0.9, 0.1, 0.8, 0.2],
        labels: vec![true, false, true, false],
        inductive: vec![false, false, true, true],
    };
    // both subsets perfectly ranked → AP 1.0 each
    assert_eq!(log.ap_transductive(), Some(1.0));
    assert_eq!(log.ap_inductive(), Some(1.0));
    // no flags collected → None
    let unflagged = ScoreLog {
        scores: vec![0.9],
        labels: vec![true],
        inductive: vec![],
    };
    assert_eq!(unflagged.ap_inductive(), None);
}

#[test]
fn score_log_empty_subset_is_none() {
    let log = ScoreLog {
        scores: vec![0.9, 0.1],
        labels: vec![true, false],
        inductive: vec![false, false],
    };
    assert!(log.ap_inductive().is_none());
    assert!(log.ap_transductive().is_some());
}

#[test]
fn training_reports_inductive_ap_when_unseen_nodes_exist() {
    // a Zipf-skewed stream at small scale reliably has nodes that first
    // appear after the training cut
    let cfg = GenConfig {
        name: "ind".into(),
        num_users: 200,
        num_items: 120,
        num_events: 1200,
        feature_dim: 8,
        timespan: 1000.0,
        latent_dim: 4,
        repeat_prob: 0.6,
        recency_window: 3,
        zipf_user: 0.7,
        zipf_item: 0.7,
        target_positives: 20,
        label_kind: LabelKind::NodeState,
        bipartite: true,
        feature_noise: 0.3,
        burstiness: 0.4,
        fraud_burst_len: 0,
        drift_magnitude: 2.0,
        drift_run: 2,
    };
    let data = apan_data::generators::generate_seeded(&cfg, 0);
    let split = ChronoSplit::new(&data, SplitFractions::paper_default());
    assert!(
        !split.unseen_nodes.is_empty(),
        "config should produce unseen val/test nodes"
    );

    let mut rng = StdRng::seed_from_u64(0);
    let mut mcfg = ApanConfig::new(8);
    mcfg.mailbox_slots = 4;
    mcfg.sampled_neighbors = 4;
    mcfg.mlp_hidden = 16;
    mcfg.dropout = 0.0;
    let mut model = ApanDyn::new(&mcfg, &mut rng);
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 50,
        lr: 3e-3,
        patience: 1,
        grad_clip: 5.0,
    };
    let out = train_link_prediction(&mut model, &data, &split, &tc, &mut rng);
    // transductive subset always exists; inductive exists when test events
    // touch unseen nodes (guaranteed by the assert above only for val+test
    // union, so allow None but require consistency if present)
    assert!(out.test_ap_transductive.is_some());
    if let (Some(ind), Some(tra)) = (out.test_ap_inductive, out.test_ap_transductive) {
        assert!((0.0..=1.0).contains(&ind));
        assert!((0.0..=1.0).contains(&tra));
    }
}
