//! Quickstart: generate a temporal interaction stream, train APAN for
//! link prediction, and inspect what the model learned.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use apan_repro::core::config::ApanConfig;
use apan_repro::core::train::{train_link_prediction, ApanDyn, TrainConfig};
use apan_repro::data::generators::GenConfig;
use apan_repro::data::{ChronoSplit, LabelKind, SplitFractions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A small synthetic user–item interaction stream (a scaled-down
    //    Wikipedia-editing analogue; see apan-data for the full presets).
    let gen = GenConfig {
        name: "quickstart".into(),
        num_users: 120,
        num_items: 60,
        num_events: 4000,
        feature_dim: 32,
        timespan: 7.0 * 86_400.0,
        latent_dim: 8,
        repeat_prob: 0.75,
        recency_window: 5,
        zipf_user: 0.9,
        zipf_item: 1.1,
        target_positives: 40,
        label_kind: LabelKind::NodeState,
        bipartite: true,
        feature_noise: 0.3,
        burstiness: 0.4,
        fraud_burst_len: 0,
        drift_magnitude: 3.0,
        drift_run: 3,
    };
    let data = apan_repro::data::generators::generate_seeded(&gen, 0);
    let split = ChronoSplit::new(&data, SplitFractions::paper_default());
    println!(
        "dataset: {} events / {} nodes / {}-d edge features",
        data.num_events(),
        data.num_nodes(),
        data.feature_dim()
    );
    println!(
        "split: {} train / {} val / {} test events",
        split.train.len(),
        split.val.len(),
        split.test.len()
    );

    // 2. Build APAN with the paper's defaults (embedding dim = feature
    //    dim; 10 mailbox slots; 2 attention heads; 2-hop propagation).
    let mut cfg = ApanConfig::for_dataset(&data);
    cfg.mailbox_slots = 10;
    cfg.sampled_neighbors = 10;
    let mut rng = StdRng::seed_from_u64(0);
    let mut apan = ApanDyn::new(&cfg, &mut rng);
    println!(
        "model: {} trainable parameters",
        apan.model.num_parameters()
    );

    // 3. Train for link prediction (self-supervised: real interactions vs
    //    time-varying negative destinations).
    let tc = TrainConfig {
        epochs: 10,
        batch_size: 100,
        lr: 3e-3,
        patience: 10,
        grad_clip: 5.0,
    };
    let report = train_link_prediction(&mut apan, &data, &split, &tc, &mut rng);
    println!(
        "training: best epoch {} of {}, val AP {:.4}",
        report.best_epoch + 1,
        report.epoch_losses.len(),
        report.val_ap
    );
    println!(
        "test: AP {:.4}, accuracy {:.4}",
        report.test_ap, report.test_acc
    );
    println!(
        "asynchronous-link work during the test replay: {} graph queries, {} rows touched — all off the inference path",
        report.test_cost.post.queries, report.test_cost.post.rows_touched
    );
}
