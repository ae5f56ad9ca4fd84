//! Interpretability (§3.6): because each mail records *which interaction*
//! produced it, the encoder's attention weights attribute a node's
//! current embedding to concrete past events — who, when, how much.
//!
//! ```sh
//! cargo run --release --example interpretability
//! ```

use apan_repro::core::config::ApanConfig;
use apan_repro::core::interpret::explain_node;
use apan_repro::core::train::{train_link_prediction, ApanDyn, TrainConfig};
use apan_repro::data::generators::GenConfig;
use apan_repro::data::{ChronoSplit, LabelKind, SplitFractions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let gen = GenConfig {
        name: "explain".into(),
        num_users: 80,
        num_items: 40,
        num_events: 3000,
        feature_dim: 24,
        timespan: 7.0 * 86_400.0,
        latent_dim: 8,
        repeat_prob: 0.75,
        recency_window: 5,
        zipf_user: 0.9,
        zipf_item: 1.1,
        target_positives: 30,
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

    let cfg = ApanConfig::for_dataset(&data);
    let mut rng = StdRng::seed_from_u64(0);
    let mut apan = ApanDyn::new(&cfg, &mut rng);
    let tc = TrainConfig {
        epochs: 5,
        batch_size: 100,
        lr: 3e-3,
        patience: 5,
        grad_clip: 5.0,
    };
    train_link_prediction(&mut apan, &data, &split, &tc, &mut rng);
    let model = apan.model;

    // Roll the serving state through the full stream once, then explain
    // the most active node.
    let mut store = model.new_store(data.num_nodes());
    let mut cost = apan_repro::tgraph::cost::QueryCost::new();
    for chunk in data.graph.events().chunks(100) {
        let src: Vec<u32> = chunk.iter().map(|e| e.src).collect();
        let dst: Vec<u32> = chunk.iter().map(|e| e.dst).collect();
        let eids: Vec<u32> = chunk.iter().map(|e| e.eid).collect();
        let now = chunk.last().unwrap().time;
        let (unique, maps) = apan_repro::core::model::dedup_nodes(&[&src, &dst]);
        let z = {
            let mut fwd = apan_repro::nn::Fwd::new(&model.params, false);
            let out = model.encode(&mut fwd, &store, &unique, now, &mut rng);
            fwd.g.value(out.z).clone()
        };
        let feats = data.feature_batch(&eids);
        model.post_step(
            &mut store,
            &data.graph,
            chunk,
            &unique,
            &z,
            &maps[0],
            &maps[1],
            &feats,
            &mut cost,
        );
    }

    let busiest = (0..data.num_nodes() as u32)
        .max_by_key(|&n| data.graph.degree(n))
        .expect("non-empty graph");
    let now = data.graph.max_time();
    println!(
        "explaining node {busiest} (temporal degree {}), mailbox holds {} mails:\n",
        data.graph.degree(busiest),
        store.len(busiest)
    );
    let attributions = explain_node(&model, &store, busiest, now, &mut rng);
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>10}",
        "rank", "weight", "event", "interaction", "age(h)"
    );
    for (rank, a) in attributions.iter().enumerate() {
        println!(
            "{:>6} {:>10.4} {:>10} {:>5}→{:<6} {:>10.1}",
            rank + 1,
            a.weight,
            a.origin.eid,
            a.origin.src,
            a.origin.dst,
            (now - a.time) / 3600.0
        );
    }
    let total: f32 = attributions.iter().map(|a| a.weight).sum();
    println!("\nattention mass over the mailbox: {total:.4} (≈1 by construction)");
}
