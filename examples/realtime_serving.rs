//! Real-time serving: deploy a trained APAN behind the `apan-serve`
//! daemon — synchronous inference behind a TCP protocol, asynchronous
//! mail propagation on the daemon's background worker — and drive it
//! through the client API, including a snapshot + warm restart.
//!
//! ```sh
//! cargo run --release --example realtime_serving
//! ```

use apan_repro::core::config::ApanConfig;
use apan_repro::core::model::Apan;
use apan_repro::core::train::{train_link_prediction, ApanDyn, TrainConfig};
use apan_repro::data::generators::GenConfig;
use apan_repro::data::{ChronoSplit, LabelKind, SplitFractions};
use apan_repro::serve::client::json_u64_field;
use apan_repro::serve::{Client, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let gen = GenConfig {
        name: "serving-demo".into(),
        num_users: 150,
        num_items: 80,
        num_events: 5000,
        feature_dim: 32,
        timespan: 7.0 * 86_400.0,
        latent_dim: 8,
        repeat_prob: 0.7,
        recency_window: 5,
        zipf_user: 0.9,
        zipf_item: 1.1,
        target_positives: 40,
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

    // Offline: train the model.
    let cfg = ApanConfig::for_dataset(&data);
    let mut rng = StdRng::seed_from_u64(0);
    let mut apan = ApanDyn::new(&cfg, &mut rng);
    let tc = TrainConfig {
        epochs: 6,
        batch_size: 100,
        lr: 3e-3,
        patience: 6,
        grad_clip: 5.0,
    };
    let report = train_link_prediction(&mut apan, &data, &split, &tc, &mut rng);
    println!("trained: test AP {:.4}\n", report.test_ap);

    // Online: boot the daemon on an ephemeral port with a snapshot
    // configured, and stream the test range through the wire protocol.
    let snap = std::env::temp_dir().join("realtime_serving_demo.snap");
    let _ = std::fs::remove_file(&snap);
    let serve_cfg = ServeConfig {
        num_nodes: data.num_nodes(),
        snapshot_path: Some(snap.clone()),
        ..ServeConfig::default()
    };
    let handle = apan_repro::serve::start(apan.model, serve_cfg.clone()).expect("start daemon");
    println!("daemon listening on {}", handle.addr());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let test_events = &data.graph.events()[split.test.clone()];
    let cut = test_events.len() / 2;
    let serve_chunks = |client: &mut Client, events: &[apan_repro::tgraph::Event]| -> usize {
        let mut served = 0usize;
        for chunk in events.chunks(200) {
            let eids: Vec<u32> = chunk.iter().map(|e| e.eid).collect();
            let feats = data.feature_batch(&eids);
            served += client.infer(chunk, &feats).expect("infer").len();
        }
        served
    };

    let first_half = serve_chunks(&mut client, &test_events[..cut]);
    println!("served {first_half} interactions over TCP");
    let stats = client.stats().expect("stats");
    println!("daemon stats: {stats}");

    // Stop mid-stream: shutdown writes the snapshot configured above.
    client.shutdown_server().expect("shutdown");
    handle.join();
    println!("\ndaemon stopped; snapshot at {}", snap.display());

    // Warm restart: a freshly seeded model goes in, but the snapshot's
    // parameters and serving state win — the stream just continues.
    let mut rng2 = StdRng::seed_from_u64(999);
    let blank = Apan::new(&ApanConfig::for_dataset(&data), &mut rng2);
    let handle = apan_repro::serve::start(blank, serve_cfg).expect("warm restart");
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let second_half = serve_chunks(&mut client, &test_events[cut..]);
    println!("warm-restarted daemon served the remaining {second_half} interactions");

    let stats = client.stats().expect("stats");
    println!(
        "post-restart stats: {} requests, {} interactions",
        json_u64_field(&stats, "requests").unwrap_or(0),
        json_u64_field(&stats, "interactions").unwrap_or(0),
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&snap);
    println!("done");
}
