//! Head-to-head link prediction: APAN vs the synchronous CTDG baselines
//! (JODIE, DyRep, TGAT, TGN) under the exact same protocol, with the
//! sync/async query-cost split that drives the paper's Figure 6.
//!
//! ```sh
//! cargo run --release --example link_prediction
//! ```

use apan_repro::baselines::dyrep::DyRep;
use apan_repro::baselines::jodie::Jodie;
use apan_repro::baselines::tgat::Tgat;
use apan_repro::baselines::tgn::Tgn;
use apan_repro::core::config::ApanConfig;
use apan_repro::core::train::{train_link_prediction, ApanDyn, DynamicModel, TrainConfig};
use apan_repro::data::generators::GenConfig;
use apan_repro::data::{ChronoSplit, LabelKind, SplitFractions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let gen = GenConfig {
        name: "compare".into(),
        num_users: 120,
        num_items: 60,
        num_events: 4000,
        feature_dim: 24,
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
    let d = data.feature_dim();

    let mut rng = StdRng::seed_from_u64(0);
    let mut cfg = ApanConfig::new(d);
    cfg.mailbox_slots = 10;
    cfg.sampled_neighbors = 10;
    let mut models: Vec<Box<dyn DynamicModel>> = vec![
        Box::new(ApanDyn::new(&cfg, &mut rng)),
        Box::new(Jodie::new(d, 80, 0.1, &mut rng)),
        Box::new(DyRep::new(d, 80, 0.1, &mut rng)),
        Box::new(Tgat::new(d, 2, 2, 80, 0.1, &mut rng)),
        Box::new(Tgn::new(d, 1, 2, 80, 0.1, &mut rng)),
    ];

    let tc = TrainConfig {
        epochs: 8,
        batch_size: 100,
        lr: 3e-3,
        patience: 8,
        grad_clip: 5.0,
    };
    println!(
        "{:<10} {:>8} {:>8} {:>14} {:>14}",
        "model", "test-AP", "test-acc", "sync-queries", "async-queries"
    );
    for model in &mut models {
        let mut run_rng = StdRng::seed_from_u64(1);
        let out = train_link_prediction(model.as_mut(), &data, &split, &tc, &mut run_rng);
        println!(
            "{:<10} {:>8.4} {:>8.4} {:>14} {:>14}",
            model.name(),
            out.test_ap,
            out.test_acc,
            out.test_cost.sync.queries,
            out.test_cost.post.queries
        );
    }
    println!("\nsync-queries is what a user waits for; APAN's column is zero by construction.");
}
