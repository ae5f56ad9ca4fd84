//! Table 3 — dynamic node classification (Wikipedia, Reddit analogues)
//! and edge classification (Alipay analogue), ROC AUC, mean (std) over
//! seeds. Protocol: link-prediction pre-training, then a task decoder on
//! replayed embeddings (the TGAT/TGN protocol the paper follows).

use apan_baselines::deepwalk::{ctdne_embeddings, WalkConfig};
use apan_baselines::static_harness::static_classification_auc;
use apan_bench::zoo::{model_enabled, model_filter};
use apan_bench::{alipay_like, dynamic_zoo, reddit_like, wiki_like, write_json, BenchEnv, Table};
use apan_core::train::{self, TrainConfig};
use apan_data::{ChronoSplit, SplitFractions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let env = BenchEnv::from_env();
    let filter = model_filter();
    println!("Table 3 reproduction — {}\n", env.describe());

    let dynamic_names: Vec<String> = dynamic_zoo(&env, 0, false)
        .into_iter()
        .map(|m| m.name)
        .collect();
    let mut row_labels: Vec<String> = vec!["CTDNE".into()];
    row_labels.extend(dynamic_names.iter().cloned());
    let rows: Vec<&str> = row_labels.iter().map(String::as_str).collect();

    let mut table = Table::new(
        "Table 3: node/edge classification AUC (%)",
        &["wiki-node", "reddit-node", "alipay-edge"],
        &rows,
    );

    let decoder_steps = 300;
    for seed in 0..env.seeds {
        let datasets = [
            (
                wiki_like(&env, seed),
                SplitFractions::paper_default(),
                0usize,
            ),
            (reddit_like(&env, seed), SplitFractions::paper_default(), 1),
            (alipay_like(&env, seed), SplitFractions::alipay(), 2),
        ];
        for (data, fractions, col) in datasets {
            let split = ChronoSplit::new(&data, fractions);

            // CTDNE static row (node tasks only; the paper leaves Alipay
            // blank for the walk/AE baselines as well)
            if col < 2 && model_enabled(&filter, "CTDNE") {
                let mut rng = StdRng::seed_from_u64(seed + 7);
                let cfg = WalkConfig::default();
                let z = ctdne_embeddings(&data, &split.train, &cfg, &mut rng);
                let auc = static_classification_auc(&z, &data, &split, 300, &mut rng);
                table.push(0, col, auc);
                println!("[seed {seed}] {:>9} {}: auc {:.4}", "CTDNE", data.name, auc);
            }

            let tc = TrainConfig {
                epochs: env.epochs,
                batch_size: env.batch,
                lr: env.lr,
                patience: env.epochs,
                grad_clip: 5.0,
            };
            for (k, mut zm) in dynamic_zoo(&env, seed, false).into_iter().enumerate() {
                if !model_enabled(&filter, &zm.name) {
                    continue;
                }
                let mut rng = StdRng::seed_from_u64(seed * 311 + k as u64);
                train::train_link_prediction(zm.model.as_mut(), &data, &split, &tc, &mut rng);
                let out = train::train_classification(
                    zm.model.as_mut(),
                    &data,
                    &split,
                    &tc,
                    decoder_steps,
                    &mut rng,
                );
                table.push(1 + k, col, out.test_auc);
                println!(
                    "[seed {seed}] {:>9} {}: auc {:.4}",
                    zm.name, data.name, out.test_auc
                );
            }
        }
    }

    println!("\n{}", table.render());
    let path = env.out_dir.join("table3.json");
    write_json(&path, &table).expect("write results");
    println!("wrote {}", path.display());
}
