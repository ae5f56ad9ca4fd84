//! Figure 7 — training batch-size sensitivity on the Wikipedia-analogue
//! dataset: test AP for APAN / TGN / TGAT across batch sizes.
//!
//! The paper's shape: all synchronous CTDG models degrade as the batch
//! grows (within-batch events are invisible to each other), while APAN —
//! which never relies on up-to-the-instant state — degrades far less.
//! Batch sizes are scaled to the dataset: the paper uses 100–2000 on the
//! full 157k-event stream.

use apan_bench::zoo::{model_enabled, model_filter};
use apan_bench::{dynamic_zoo, wiki_like, write_json, BenchEnv, Table};
use apan_core::train::{self, TrainConfig};
use apan_data::{ChronoSplit, SplitFractions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let env = BenchEnv::from_env();
    let filter = model_filter();
    println!("Figure 7 reproduction — {}\n", env.describe());

    // scale the paper's {100..2000} sweep to the generated stream length
    let batch_sizes: Vec<usize> = {
        let base = env.batch.max(25);
        vec![base / 4, base / 2, base, base * 2, base * 4]
    };
    println!("batch sizes: {batch_sizes:?}\n");

    let wanted = ["APAN", "TGN-2l", "TGAT-2l"];
    let cols: Vec<String> = batch_sizes.iter().map(|b| format!("bs={b}")).collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Figure 7: AP vs training batch size (%)",
        &col_refs,
        &wanted,
    );

    for seed in 0..env.seeds {
        let data = wiki_like(&env, seed);
        let split = ChronoSplit::new(&data, SplitFractions::paper_default());
        for (ci, &bs) in batch_sizes.iter().enumerate() {
            let tc = TrainConfig {
                epochs: env.epochs,
                batch_size: bs,
                lr: env.lr,
                patience: env.epochs,
                grad_clip: 5.0,
            };
            for (k, mut zm) in dynamic_zoo(&env, seed, false).into_iter().enumerate() {
                let Some(ri) = wanted.iter().position(|w| *w == zm.name) else {
                    continue;
                };
                if !model_enabled(&filter, &zm.name) {
                    continue;
                }
                let mut rng = StdRng::seed_from_u64(seed * 613 + k as u64);
                let out =
                    train::train_link_prediction(zm.model.as_mut(), &data, &split, &tc, &mut rng);
                table.push(ri, ci, out.test_ap);
                println!(
                    "[seed {seed}] {:>8} bs={bs}: AP {:.4}",
                    zm.name, out.test_ap
                );
            }
        }
    }

    println!("\n{}", table.render());
    let path = env.out_dir.join("fig7.json");
    write_json(&path, &table).expect("write results");
    println!("wrote {}", path.display());
}
