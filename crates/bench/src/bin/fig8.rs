//! Figure 8 — APAN's robustness to its two structural hyper-parameters:
//! a grid over {5, 10, 15, 20} sampled neighbours × {5, 10, 15, 20}
//! mailbox slots on the Wikipedia-analogue dataset, reporting test AP.
//!
//! The paper's claim: across the 16 cells the best and worst APs differ
//! by only ~0.6% — APAN barely cares, because the mailbox only needs
//! recent history (small slots suffice) and most-recent sampling already
//! captures the time-variant signal.

use apan_bench::{wiki_like, write_json, BenchEnv, Table};
use apan_core::config::ApanConfig;
use apan_core::train::{self, ApanDyn, TrainConfig};
use apan_data::{ChronoSplit, SplitFractions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let env = BenchEnv::from_env();
    println!("Figure 8 reproduction — {}\n", env.describe());

    let grid = [5usize, 10, 15, 20];
    let cols: Vec<String> = grid.iter().map(|m| format!("slots={m}")).collect();
    let rows: Vec<String> = grid.iter().map(|n| format!("neigh={n}")).collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let row_refs: Vec<&str> = rows.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Figure 8: APAN AP across (sampled neighbours × mailbox slots) (%)",
        &col_refs,
        &row_refs,
    );

    let tc = TrainConfig {
        epochs: env.epochs,
        batch_size: env.batch,
        lr: env.lr,
        patience: env.epochs,
        grad_clip: 5.0,
    };
    for seed in 0..env.seeds {
        let data = wiki_like(&env, seed);
        let split = ChronoSplit::new(&data, SplitFractions::paper_default());
        for (ri, &neighbors) in grid.iter().enumerate() {
            for (ci, &slots) in grid.iter().enumerate() {
                let mut cfg = ApanConfig::new(env.feat_dim);
                cfg.mailbox_slots = slots;
                cfg.sampled_neighbors = neighbors;
                cfg.mlp_hidden = 80;
                cfg.dropout = 0.1;
                let mut rng = StdRng::seed_from_u64(seed * 1009 + (ri * 4 + ci) as u64);
                let mut model = ApanDyn::new(&cfg, &mut rng);
                let out = train::train_link_prediction(&mut model, &data, &split, &tc, &mut rng);
                table.push(ri, ci, out.test_ap);
                println!(
                    "[seed {seed}] neigh={neighbors} slots={slots}: AP {:.4}",
                    out.test_ap
                );
            }
        }
    }

    println!("\n{}", table.render());
    // fluctuation summary, the paper's headline for this figure
    let means: Vec<f64> = table
        .cells
        .iter()
        .flatten()
        .map(|c| c.stat.mean())
        .collect();
    let best = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let worst = means.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "fluctuation across the 16 cells: {:.2}% (paper: ~0.6%)",
        (best - worst) * 100.0
    );

    let path = env.out_dir.join("fig8.json");
    write_json(&path, &table).expect("write results");
    println!("wrote {}", path.display());
}
