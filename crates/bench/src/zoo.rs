//! Dataset builders and the dynamic-model zoo used by the experiment
//! binaries.

use crate::env::BenchEnv;
use apan_baselines::dyrep::DyRep;
use apan_baselines::jodie::Jodie;
use apan_baselines::tgat::Tgat;
use apan_baselines::tgn::Tgn;
use apan_core::config::ApanConfig;
use apan_core::train::{ApanDyn, DynamicModel};
use apan_data::generators::{generate_seeded, GenConfig};
use apan_data::{LabelKind, TemporalDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scaled(n: usize, scale: f64, min: usize) -> usize {
    ((n as f64 * scale).round() as usize).max(min)
}

/// Wikipedia-analogue at bench dimensions (`env.feat_dim` instead of 172;
/// set `APAN_FEAT_DIM=172 APAN_SCALE=1.0` for paper shape).
pub fn wiki_like(env: &BenchEnv, seed: u64) -> TemporalDataset {
    let cfg = GenConfig {
        name: format!("wikipedia(x{},d{})", env.scale, env.feat_dim),
        num_users: scaled(8227, env.scale, 40),
        num_items: scaled(1000, env.scale, 20),
        num_events: scaled(157_474, env.scale, 800),
        feature_dim: env.feat_dim,
        timespan: 30.0 * 86_400.0,
        latent_dim: 8,
        repeat_prob: 0.7,
        recency_window: 5,
        zipf_user: 0.9,
        zipf_item: 1.1,
        target_positives: scaled(217, env.scale, 30),
        label_kind: LabelKind::NodeState,
        bipartite: true,
        feature_noise: 0.5,
        burstiness: 0.5,
        fraud_burst_len: 0,
        drift_magnitude: 1.2,
        drift_run: 4,
    };
    generate_seeded(&cfg, seed)
}

/// Reddit-analogue at bench dimensions. The event count is capped at
/// 1.5× the Wikipedia analogue's so single-core suite runs stay
/// tractable; `APAN_SCALE` still controls the overall size.
pub fn reddit_like(env: &BenchEnv, seed: u64) -> TemporalDataset {
    let wiki_events = scaled(157_474, env.scale, 800);
    let cfg = GenConfig {
        name: format!("reddit(x{},d{})", env.scale, env.feat_dim),
        num_users: scaled(10_000, env.scale, 40),
        num_items: scaled(984, env.scale, 20),
        num_events: scaled(672_447, env.scale, 800).min(wiki_events * 3 / 2),
        feature_dim: env.feat_dim,
        timespan: 30.0 * 86_400.0,
        latent_dim: 8,
        repeat_prob: 0.8,
        recency_window: 8,
        zipf_user: 1.0,
        zipf_item: 1.2,
        target_positives: scaled(366, env.scale, 30),
        label_kind: LabelKind::NodeState,
        bipartite: true,
        feature_noise: 0.5,
        burstiness: 0.6,
        fraud_burst_len: 0,
        drift_magnitude: 1.2,
        drift_run: 4,
    };
    generate_seeded(&cfg, seed)
}

/// Alipay-analogue at bench dimensions (unipartite, fraud edge labels).
/// Event count capped at 2× the Wikipedia analogue's (see
/// [`reddit_like`]); node count scales with the events to keep the
/// paper's sparse payment-network shape.
pub fn alipay_like(env: &BenchEnv, seed: u64) -> TemporalDataset {
    let wiki_events = scaled(157_474, env.scale, 800);
    let events = scaled(2_776_009, env.scale, 1200).min(wiki_events * 2);
    let users = (events as f64 * 761_750.0 / 2_776_009.0).round() as usize;
    let cfg = GenConfig {
        name: format!("alipay(x{},d{})", env.scale, env.feat_dim),
        num_users: users.max(120),
        num_items: 0,
        num_events: events,
        feature_dim: env.feat_dim,
        timespan: 14.0 * 86_400.0,
        latent_dim: 8,
        repeat_prob: 0.35,
        recency_window: 4,
        zipf_user: 0.8,
        zipf_item: 0.8,
        target_positives: (events as f64 * 11_632.0 / 2_776_009.0).round().max(60.0) as usize,
        label_kind: LabelKind::Edge,
        bipartite: false,
        feature_noise: 0.6,
        burstiness: 0.8,
        fraud_burst_len: 5,
        drift_magnitude: 1.2,
        drift_run: 1,
    };
    generate_seeded(&cfg, seed)
}

/// A named dynamic model ready for the shared harness.
pub struct ZooModel {
    /// Display name (Table 2/3 row label).
    pub name: String,
    /// The model.
    pub model: Box<dyn DynamicModel>,
}

/// Builds the dynamic-model zoo: APAN, JODIE, DyRep, TGAT-1/2, TGN-1/2.
/// `layer_variants` controls whether the 1-layer and 2-layer TGAT/TGN
/// variants both appear (Figure 6) or just the 2-layer ones (Tables 2–3).
pub fn dynamic_zoo(env: &BenchEnv, seed: u64, layer_variants: bool) -> Vec<ZooModel> {
    let d = env.feat_dim;
    let n = env.neighbors;
    let hidden = 80;
    let dropout = 0.1;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7919));
    let mut zoo: Vec<ZooModel> = Vec::new();

    let mut apan_cfg = ApanConfig::new(d);
    apan_cfg.mailbox_slots = n.max(2);
    apan_cfg.sampled_neighbors = n.max(2);
    apan_cfg.mlp_hidden = hidden;
    apan_cfg.dropout = dropout;
    zoo.push(ZooModel {
        name: "APAN".into(),
        model: Box::new(ApanDyn::new(&apan_cfg, &mut rng)),
    });
    zoo.push(ZooModel {
        name: "JODIE".into(),
        model: Box::new(Jodie::new(d, hidden, dropout, &mut rng)),
    });
    let mut dyrep = DyRep::new(d, hidden, dropout, &mut rng);
    dyrep.neighbors = n;
    zoo.push(ZooModel {
        name: "DyRep".into(),
        model: Box::new(dyrep),
    });
    let layer_counts: &[usize] = if layer_variants { &[1, 2] } else { &[2] };
    for &layers in layer_counts {
        let mut tgat = Tgat::new(d, layers, 2, hidden, dropout, &mut rng);
        tgat.neighbors = n;
        zoo.push(ZooModel {
            name: format!("TGAT-{layers}l"),
            model: Box::new(tgat),
        });
        let mut tgn = Tgn::new(d, layers, 2, hidden, dropout, &mut rng);
        tgn.neighbors = n;
        zoo.push(ZooModel {
            name: format!("TGN-{layers}l"),
            model: Box::new(tgn),
        });
    }
    zoo
}

/// Model-name filter from `APAN_MODELS` (comma-separated substrings).
pub fn model_filter() -> Option<Vec<String>> {
    std::env::var("APAN_MODELS").ok().map(|v| {
        v.split(',')
            .map(|s| s.trim().to_lowercase())
            .filter(|s| !s.is_empty())
            .collect()
    })
}

/// Whether `name` passes the `APAN_MODELS` filter.
pub fn model_enabled(filter: &Option<Vec<String>>, name: &str) -> bool {
    match filter {
        None => true,
        Some(list) => list.iter().any(|f| name.to_lowercase().contains(f)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_env() -> BenchEnv {
        BenchEnv {
            scale: 0.002,
            feat_dim: 8,
            seeds: 1,
            epochs: 1,
            lr: 1e-3,
            batch: 50,
            neighbors: 3,
            out_dir: std::env::temp_dir(),
        }
    }

    #[test]
    fn datasets_build_and_validate() {
        let env = tiny_env();
        for ds in [
            wiki_like(&env, 0),
            reddit_like(&env, 0),
            alipay_like(&env, 0),
        ] {
            ds.validate().unwrap();
            assert_eq!(ds.feature_dim(), 8);
        }
    }

    #[test]
    fn zoo_contains_expected_models() {
        let env = tiny_env();
        let zoo = dynamic_zoo(&env, 0, true);
        let names: Vec<String> = zoo.iter().map(|m| m.name.clone()).collect();
        for expect in [
            "APAN", "JODIE", "DyRep", "TGAT-1l", "TGAT-2l", "TGN-1l", "TGN-2l",
        ] {
            assert!(names.iter().any(|n| n == expect), "missing {expect}");
        }
        let zoo_small = dynamic_zoo(&env, 0, false);
        assert!(zoo_small.iter().all(|m| m.name != "TGAT-1l"));
    }

    #[test]
    fn filter_logic() {
        let f = Some(vec!["apan".to_string(), "tgn".to_string()]);
        assert!(model_enabled(&f, "APAN"));
        assert!(model_enabled(&f, "TGN-2l"));
        assert!(!model_enabled(&f, "JODIE"));
        assert!(model_enabled(&None, "anything"));
    }
}
