//! Figure 6 — test AP vs per-batch inference latency on the
//! Wikipedia-analogue dataset.
//!
//! For each model, we train briefly, then replay the test stream and time
//! the *synchronous path only* (embed + decode), adding the modelled
//! graph-database latency for whatever k-hop queries that path issued.
//! The paper's shape to reproduce: JODIE/DyRep fast but weaker; TGAT/TGN
//! accurate but slow, latency growing with layer count; APAN in the top
//! left — accuracy near TGN at a fraction of the latency (8.7× vs TGN-2l
//! on their testbed).

use apan_bench::zoo::{model_enabled, model_filter};
use apan_bench::{dynamic_zoo, json_fields, wiki_like, write_json, BenchEnv, Json, ToJson};
use apan_core::train::{self, TrainConfig};
use apan_data::{ChronoSplit, SplitFractions};
use apan_tgraph::cost::LatencyModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fig6Point {
    model: String,
    test_ap: f64,
    compute_ms_per_batch: f64,
    modelled_ms_per_batch: f64,
    sync_queries: u64,
    sync_rows: u64,
}

impl ToJson for Fig6Point {
    fn to_json(&self) -> Json {
        json_fields!(self; model, test_ap, compute_ms_per_batch, modelled_ms_per_batch,
            sync_queries, sync_rows)
    }
}

fn main() {
    let env = BenchEnv::from_env();
    let filter = model_filter();
    let latency_model = LatencyModel::default();
    println!("Figure 6 reproduction — {}\n", env.describe());
    println!("latency model: {latency_model:?}\n");

    let data = wiki_like(&env, 0);
    let split = ChronoSplit::new(&data, SplitFractions::paper_default());
    let tc = TrainConfig {
        epochs: env.epochs,
        batch_size: env.batch,
        lr: env.lr,
        patience: env.epochs,
        grad_clip: 5.0,
    };

    let mut points = Vec::new();
    for (k, mut zm) in dynamic_zoo(&env, 0, true).into_iter().enumerate() {
        if !model_enabled(&filter, &zm.name) {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(k as u64);
        train::train_link_prediction(zm.model.as_mut(), &data, &split, &tc, &mut rng);

        // compute-only timing
        let free = LatencyModel::free();
        let (_, rec_free, _) =
            train::measure_inference(zm.model.as_mut(), &data, &split, env.batch, &free, &mut rng);
        // modelled graph-store latency added
        let (ap, rec_model, cost) = train::measure_inference(
            zm.model.as_mut(),
            &data,
            &split,
            env.batch,
            &latency_model,
            &mut rng,
        );
        let point = Fig6Point {
            model: zm.name.clone(),
            test_ap: ap,
            compute_ms_per_batch: rec_free.mean_ms(),
            modelled_ms_per_batch: rec_model.mean_ms(),
            sync_queries: cost.sync.queries,
            sync_rows: cost.sync.rows_touched,
        };
        println!(
            "{:>9}: AP {:.4} | compute {:.3} ms/batch | with graph-store model {:.3} ms/batch | sync queries {} rows {}",
            point.model,
            point.test_ap,
            point.compute_ms_per_batch,
            point.modelled_ms_per_batch,
            point.sync_queries,
            point.sync_rows
        );
        points.push(point);
    }

    // headline ratio: TGN-2l vs APAN on the modelled latency
    let apan = points.iter().find(|p| p.model == "APAN");
    let tgn2 = points.iter().find(|p| p.model == "TGN-2l");
    if let (Some(a), Some(t)) = (apan, tgn2) {
        println!(
            "\nspeedup (TGN-2l / APAN): {:.1}x modelled, {:.1}x compute-only (paper: 8.7x)",
            t.modelled_ms_per_batch / a.modelled_ms_per_batch.max(1e-9),
            t.compute_ms_per_batch / a.compute_ms_per_batch.max(1e-9),
        );
    }

    let path = env.out_dir.join("fig6.json");
    write_json(&path, &points).expect("write results");
    println!("wrote {}", path.display());
}
