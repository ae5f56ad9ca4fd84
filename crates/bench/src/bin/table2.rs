//! Table 2 — transductive link prediction: accuracy and AP on the
//! Wikipedia- and Reddit-analogue datasets, dynamic models (APAN, JODIE,
//! DyRep, TGAT, TGN) plus static baselines (GAE, VGAE, DeepWalk, Node2Vec,
//! GAT, SAGE, CTDNE), mean (std) over `APAN_SEEDS` seeds.

use apan_baselines::deepwalk::{
    ctdne_embeddings, deepwalk_embeddings, node2vec_embeddings, WalkConfig,
};
use apan_baselines::gat::Gat;
use apan_baselines::gcn::Gae;
use apan_baselines::sage::Sage;
use apan_baselines::static_harness::{
    evaluate_frozen_embeddings, train_static_link, StaticOutcome,
};
use apan_bench::zoo::{model_enabled, model_filter};
use apan_bench::{dynamic_zoo, reddit_like, wiki_like, write_json, BenchEnv, Table};
use apan_core::train::{self, TrainConfig};
use apan_data::{ChronoSplit, SplitFractions, TemporalDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn static_rows(
    name: &str,
    data: &TemporalDataset,
    split: &ChronoSplit,
    env: &BenchEnv,
    seed: u64,
) -> Option<StaticOutcome> {
    let d = data.feature_dim();
    let mut rng = StdRng::seed_from_u64(seed);
    let epochs = (env.epochs * 15).max(40);
    let out = match name {
        "GAE" => {
            let mut m = Gae::new(d, 32, 32, false, &mut rng);
            train_static_link(&mut m, data, split, epochs, 1e-2, &mut rng)
        }
        "VGAE" => {
            let mut m = Gae::new(d, 32, 32, true, &mut rng);
            train_static_link(&mut m, data, split, epochs, 1e-2, &mut rng)
        }
        "GAT" => {
            let mut m = Gat::new(d, 32, 32, &mut rng);
            train_static_link(&mut m, data, split, epochs, 1e-2, &mut rng)
        }
        "SAGE" => {
            let mut m = Sage::new(d, 32, 32, &mut rng);
            train_static_link(&mut m, data, split, epochs, 1e-2, &mut rng)
        }
        "DeepWalk" => {
            let cfg = WalkConfig::default();
            let z = deepwalk_embeddings(data, &split.train, &cfg, &mut rng);
            evaluate_frozen_embeddings(&z, data, split, &mut rng)
        }
        "Node2Vec" => {
            let cfg = WalkConfig::default();
            let z = node2vec_embeddings(data, &split.train, &cfg, 1.0, 2.0, &mut rng);
            evaluate_frozen_embeddings(&z, data, split, &mut rng)
        }
        "CTDNE" => {
            let cfg = WalkConfig::default();
            let z = ctdne_embeddings(data, &split.train, &cfg, &mut rng);
            evaluate_frozen_embeddings(&z, data, split, &mut rng)
        }
        _ => return None,
    };
    Some(out)
}

fn main() {
    let env = BenchEnv::from_env();
    let filter = model_filter();
    println!("Table 2 reproduction — {}\n", env.describe());

    let static_names = [
        "GAE", "VGAE", "DeepWalk", "Node2Vec", "GAT", "SAGE", "CTDNE",
    ];
    let dynamic_names: Vec<String> = dynamic_zoo(&env, 0, false)
        .into_iter()
        .map(|m| m.name)
        .collect();
    let mut row_labels: Vec<String> = static_names.iter().map(|s| s.to_string()).collect();
    row_labels.extend(dynamic_names.iter().cloned());
    let rows: Vec<&str> = row_labels.iter().map(String::as_str).collect();

    let mut table = Table::new(
        "Table 2: link prediction (Accuracy / AP, %)",
        &["wiki-Acc", "wiki-AP", "reddit-Acc", "reddit-AP"],
        &rows,
    );

    for seed in 0..env.seeds {
        for (di, make_data) in [wiki_like, reddit_like].iter().enumerate() {
            let data = make_data(&env, seed);
            let split = ChronoSplit::new(&data, SplitFractions::paper_default());
            let acc_col = di * 2;
            let ap_col = di * 2 + 1;

            for (ri, name) in static_names.iter().enumerate() {
                if !model_enabled(&filter, name) {
                    continue;
                }
                let out = static_rows(name, &data, &split, &env, seed).expect("known model");
                table.push(ri, acc_col, out.test_acc);
                table.push(ri, ap_col, out.test_ap);
                println!(
                    "[seed {seed}] {name:>9} {}: acc {:.4} ap {:.4}",
                    data.name, out.test_acc, out.test_ap
                );
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
                let mut rng = StdRng::seed_from_u64(seed * 101 + k as u64);
                let out =
                    train::train_link_prediction(zm.model.as_mut(), &data, &split, &tc, &mut rng);
                let ri = static_names.len() + k;
                table.push(ri, acc_col, out.test_acc);
                table.push(ri, ap_col, out.test_ap);
                let inductive = out
                    .test_ap_inductive
                    .map(|v| format!(" ap-inductive {v:.4}"))
                    .unwrap_or_default();
                println!(
                    "[seed {seed}] {:>9} {}: acc {:.4} ap {:.4}{inductive}",
                    zm.name, data.name, out.test_acc, out.test_ap
                );
            }
        }
    }

    println!("\n{}", table.render());
    let path = env.out_dir.join("table2.json");
    write_json(&path, &table).expect("write results");
    println!("wrote {}", path.display());
}
