//! Property-based tests for the dataset layer: generator invariants,
//! splits, and the negative sampler.

use apan_check::{check, Gen};
use apan_data::generators::{generate_seeded, GenConfig};
use apan_data::{ChronoSplit, LabelKind, NegativeSampler, SplitFractions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(g: &mut Gen) -> GenConfig {
    let users = g.range(10usize..60);
    let items = g.range(10usize..40);
    let events = g.range(100usize..600);
    let dim = g.range(2usize..12); // feature dim
    let repeat = g.range(0.0f64..0.95); // repeat prob
    let bipartite = g.bool();
    GenConfig {
        name: "prop".into(),
        num_users: users,
        num_items: items,
        num_events: events,
        feature_dim: dim,
        timespan: 500.0,
        latent_dim: 3,
        repeat_prob: repeat,
        recency_window: 3,
        zipf_user: 0.9,
        zipf_item: 1.0,
        target_positives: 20,
        label_kind: if bipartite {
            LabelKind::NodeState
        } else {
            LabelKind::Edge
        },
        bipartite,
        feature_noise: 0.3,
        burstiness: 0.4,
        fraud_burst_len: 3,
        drift_magnitude: 2.0,
        drift_run: 2,
    }
}

#[test]
fn generated_datasets_always_validate() {
    check(32, |g| {
        let cfg = config(g);
        let ds = generate_seeded(&cfg, g.range(0u64..20));
        assert!(ds.validate().is_ok());
        assert_eq!(ds.num_events(), cfg.num_events);
        assert_eq!(ds.feature_dim(), cfg.feature_dim);
        // positives never exceed target by more than a fraud burst
        assert!(ds.num_positive() <= cfg.target_positives + cfg.fraud_burst_len);
        // all features finite
        assert!(ds.edge_features.data().iter().all(|v| v.is_finite()));
    });
}

#[test]
fn generator_deterministic() {
    check(32, |g| {
        let cfg = config(g);
        let seed = g.range(0u64..10);
        let a = generate_seeded(&cfg, seed);
        let b = generate_seeded(&cfg, seed);
        assert_eq!(a.graph.events(), b.graph.events());
        assert_eq!(a.labels, b.labels);
    });
}

#[test]
fn splits_partition_and_respect_time() {
    check(32, |g| {
        let ds = generate_seeded(&config(g), 0);
        let split = ChronoSplit::new(&ds, SplitFractions::paper_default());
        assert_eq!(split.train.end, split.val.start);
        assert_eq!(split.val.end, split.test.start);
        assert_eq!(split.test.end, ds.num_events());
        let events = ds.graph.events();
        if !split.train.is_empty() && !split.val.is_empty() {
            assert!(events[split.train.end - 1].time <= events[split.val.start].time);
        }
        // old/unseen nodes partition the val+test node set
        assert!(split.old_nodes.is_disjoint(&split.unseen_nodes));
    });
}

#[test]
fn negative_sampler_pool_semantics() {
    check(32, |g| {
        let seed = g.range(0u64..20);
        let observed = g.vec(1..80, |g| g.range(0u32..50));
        let mut sampler = NegativeSampler::new();
        sampler.observe_batch(&observed);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..30 {
            let s = sampler.sample(999, &mut rng).unwrap();
            assert!(observed.contains(&s));
        }
        // pool size equals distinct observations
        let mut distinct = observed.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(sampler.pool_size(), distinct.len());
    });
}
