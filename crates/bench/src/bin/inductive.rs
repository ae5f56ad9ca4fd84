//! Supplementary experiment (TGN-style): transductive vs inductive link
//! prediction. The paper highlights Wikipedia's 19% unseen val/test nodes
//! (Table 1) as the inductive stressor; this binary reports each dynamic
//! model's test AP over fully-seen pairs vs pairs touching a
//! training-unseen node.
//!
//! Expected shape: memoryless models (TGAT) degrade least on unseen nodes
//! (nothing node-specific to miss), memory/mailbox models lose more (a
//! fresh node has empty state), and every model drops relative to its
//! transductive figure.

use apan_bench::zoo::{model_enabled, model_filter};
use apan_bench::{dynamic_zoo, json_fields, wiki_like, write_json, BenchEnv, Json, ToJson};
use apan_core::train::{self, TrainConfig};
use apan_data::{ChronoSplit, SplitFractions};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct InductivePoint {
    model: String,
    test_ap: f64,
    transductive_ap: Option<f64>,
    inductive_ap: Option<f64>,
}

impl ToJson for InductivePoint {
    fn to_json(&self) -> Json {
        json_fields!(self; model, test_ap, transductive_ap, inductive_ap)
    }
}

fn main() {
    let env = BenchEnv::from_env();
    let filter = model_filter();
    println!(
        "Inductive evaluation (supplementary) — {}\n",
        env.describe()
    );

    let data = wiki_like(&env, 0);
    let split = ChronoSplit::new(&data, SplitFractions::paper_default());
    println!(
        "unseen nodes in val/test: {} ({} train nodes)\n",
        split.unseen_nodes.len(),
        split.train_nodes.len()
    );
    let tc = TrainConfig {
        epochs: env.epochs,
        batch_size: env.batch,
        lr: env.lr,
        patience: env.epochs,
        grad_clip: 5.0,
    };

    let mut points = Vec::new();
    for (k, mut zm) in dynamic_zoo(&env, 0, false).into_iter().enumerate() {
        if !model_enabled(&filter, &zm.name) {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(k as u64);
        let out = train::train_link_prediction(zm.model.as_mut(), &data, &split, &tc, &mut rng);
        println!(
            "{:>9}: AP {:.4} | transductive {} | inductive {}",
            zm.name,
            out.test_ap,
            out.test_ap_transductive
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "—".into()),
            out.test_ap_inductive
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "—".into()),
        );
        points.push(InductivePoint {
            model: zm.name,
            test_ap: out.test_ap,
            transductive_ap: out.test_ap_transductive,
            inductive_ap: out.test_ap_inductive,
        });
    }
    let path = env.out_dir.join("inductive.json");
    write_json(&path, &points).expect("write results");
    println!("\nwrote {}", path.display());
}
