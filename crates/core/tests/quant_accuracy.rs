//! Accuracy budget for the int8 serving encoder.
//!
//! Trains a small link-prediction model in f32, then replays the test
//! split twice through the serving plan — once compiled at f32, once at
//! int8 — letting each pass evolve its own serving state so
//! quantization drift compounds through the mails exactly as it would in
//! production. The int8 average precision must stay within a fixed
//! budget of the f32 one.

use apan_core::config::{ApanConfig, Precision};
use apan_core::model::{dedup_nodes, Apan};
use apan_core::pipeline::ServingPipeline;
use apan_core::plan::InferencePlan;
use apan_core::propagator::Interaction;
use apan_core::train::{train_link_prediction, ApanDyn, TrainConfig};
use apan_data::generators::{generate_seeded, GenConfig};
use apan_data::{ChronoSplit, LabelKind, SplitFractions, TemporalDataset};
use apan_metrics::average_precision;
use apan_tensor::Tensor;
use apan_tgraph::cost::QueryCost;
use apan_tgraph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset() -> TemporalDataset {
    let cfg = GenConfig {
        name: "quant-acc".into(),
        num_users: 160,
        num_items: 90,
        num_events: 2000,
        feature_dim: 8,
        timespan: 1000.0,
        latent_dim: 4,
        repeat_prob: 0.8,
        recency_window: 3,
        zipf_user: 0.8,
        zipf_item: 1.0,
        target_positives: 250,
        label_kind: LabelKind::NodeState,
        bipartite: true,
        feature_noise: 0.2,
        burstiness: 0.3,
        fraud_burst_len: 0,
        drift_magnitude: 5.0,
        drift_run: 3,
    };
    generate_seeded(&cfg, 0)
}

fn model_cfg() -> ApanConfig {
    let mut cfg = ApanConfig::new(8);
    cfg.mailbox_slots = 5;
    cfg.sampled_neighbors = 5;
    cfg.mlp_hidden = 24;
    cfg.dropout = 0.0;
    cfg
}

fn trained_model(data: &TemporalDataset, split: &ChronoSplit) -> Apan {
    let mut rng = StdRng::seed_from_u64(0);
    let mut apan = ApanDyn::new(&model_cfg(), &mut rng);
    let tc = TrainConfig {
        epochs: 6,
        batch_size: 30,
        lr: 1e-2,
        patience: 6,
        grad_clip: 5.0,
    };
    train_link_prediction(&mut apan, data, split, &tc, &mut rng);
    apan.model
}

/// Replays `range` of the event stream in eval mode, scoring each positive
/// interaction against one sampled negative, with the serving state rolled
/// forward from the produced embeddings. `precision` selects the plan's
/// encoder precision; the negative stream is seeded identically for
/// both, so the two passes score the same pairs.
fn replay_ap(
    model: &Apan,
    data: &TemporalDataset,
    range: std::ops::Range<usize>,
    precision: Precision,
) -> (f64, Vec<f32>) {
    let mut plan = InferencePlan::compile(model, precision);
    let mut store = model.new_store(data.num_nodes());
    let mut neg_rng = StdRng::seed_from_u64(99);
    let mut cost = QueryCost::new();
    let num_nodes = data.num_nodes() as u32;
    let mut scores = Vec::new();
    let mut labels = Vec::new();

    let events = data.graph.events();
    let mut at = range.start;
    while at < range.end {
        let hi = (at + 30).min(range.end);
        let batch = &events[at..hi];
        at = hi;

        let src: Vec<NodeId> = batch.iter().map(|e| e.src).collect();
        let dst: Vec<NodeId> = batch.iter().map(|e| e.dst).collect();
        let eids: Vec<u32> = batch.iter().map(|e| e.eid).collect();
        let neg: Vec<NodeId> = dst
            .iter()
            .map(|_| neg_rng.gen_range(0..num_nodes))
            .collect();
        let now = batch.last().expect("non-empty").time;
        let (unique, maps) = dedup_nodes(&[&src, &dst, &neg]);

        let z_val = plan.encode(&store, &unique, now);
        let pos = plan.score_links(&z_val, &maps[0], &maps[1]);
        let neg = plan.score_links(&z_val, &maps[0], &maps[2]);
        labels.extend(pos.iter().map(|_| true));
        labels.extend(neg.iter().map(|_| false));
        scores.extend(pos);
        scores.extend(neg);

        let feats = data.feature_batch(&eids);
        model.post_step(
            &mut store,
            &data.graph,
            batch,
            &unique,
            &z_val,
            &maps[0],
            &maps[1],
            &feats,
            &mut cost,
        );
    }
    (average_precision(&scores, &labels), scores)
}

#[test]
fn int8_encoder_stays_within_accuracy_budget() {
    let data = dataset();
    let split = ChronoSplit::new(&data, SplitFractions::paper_default());
    let model = trained_model(&data, &split);

    let (ap_f32, s_f32) = replay_ap(&model, &data, split.test.clone(), Precision::F32);
    let (ap_int8, s_int8) = replay_ap(&model, &data, split.test.clone(), Precision::Int8);

    assert!(
        ap_f32 > 0.55,
        "f32 baseline should beat chance, got {ap_f32}"
    );
    // The budget: int8 may cost a little AP, never a collapse. (Measured
    // drift on this setup is well under a point.)
    assert!(
        (ap_f32 - ap_int8).abs() <= 0.05,
        "int8 AP {ap_int8} strayed more than 0.05 from f32 AP {ap_f32}"
    );
    // And the quantized pass must actually be the quantized pass.
    assert!(
        s_f32 != s_int8,
        "int8 scores bitwise equal to f32 — quantized path not taken"
    );
}

#[test]
fn pipeline_precision_switch_serves_end_to_end() {
    let cfg = model_cfg();
    let build = || Apan::new(&cfg, &mut StdRng::seed_from_u64(5));
    let mut f32_pipe = ServingPipeline::new(build(), 64, 16);
    let mut i8_pipe = ServingPipeline::new(build(), 64, 16);
    assert_eq!(i8_pipe.precision(), Precision::F32);
    i8_pipe.set_precision(Precision::Int8);
    assert_eq!(i8_pipe.precision(), Precision::Int8);

    let mut rng = StdRng::seed_from_u64(2);
    let mut all_f32 = Vec::new();
    let mut all_i8 = Vec::new();
    for b in 0..4 {
        let interactions: Vec<Interaction> = (0..8)
            .map(|i| {
                let src = rng.gen_range(0..64u32);
                let dst = (src + 1 + rng.gen_range(0..62u32)) % 64;
                Interaction {
                    src,
                    dst,
                    time: b as f64 + i as f64 * 0.01,
                    eid: b * 8 + i,
                }
            })
            .collect();
        let feats = Tensor::randn(8, 8, 0.5, &mut rng);
        all_f32.extend(f32_pipe.infer_batch(&interactions, &feats).scores);
        all_i8.extend(i8_pipe.infer_batch(&interactions, &feats).scores);
    }
    f32_pipe.flush();
    i8_pipe.flush();

    // Identical weights and stream: int8 tracks f32 closely but not
    // bitwise (the quantized encoder really ran).
    assert!(all_f32 != all_i8, "int8 pipeline produced f32 bits");
    for (a, b) in all_f32.iter().zip(&all_i8) {
        assert!((a - b).abs() < 0.05, "score drift {a} vs {b}");
    }

    // Switching back restores the f32 path.
    i8_pipe.set_precision(Precision::F32);
    assert_eq!(i8_pipe.precision(), Precision::F32);
}
