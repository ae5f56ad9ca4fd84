//! `apan` — command-line interface to the APAN reproduction.
//!
//! ```text
//! apan stats    --dataset wikipedia --scale 0.01
//! apan generate --dataset wikipedia --scale 0.01 --out wiki.csv
//! apan train    [--csv wiki.csv | --dataset wikipedia --scale 0.01]
//!               [--epochs 8 --lr 3e-3 --batch 100 --slots 10 --neighbors 10]
//!               [--checkpoint model.ckpt]
//! apan eval     (same data flags) --checkpoint model.ckpt
//! apan serve    (same data flags) [--checkpoint model.ckpt]
//! ```
//!
//! Hand-rolled argument parsing keeps the dependency set at the workspace
//! baseline.

use apan_repro::core::config::ApanConfig;
use apan_repro::core::pipeline::ServingPipeline;
use apan_repro::core::train::{replay, train_link_prediction, ApanDyn, TrainConfig};
use apan_repro::data::generators::{alipay, reddit, wikipedia};
use apan_repro::data::loader::{load_jodie_csv, write_jodie_csv};
use apan_repro::data::stats::DatasetStats;
use apan_repro::data::{ChronoSplit, SplitFractions, TemporalDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument '{a}'"));
            };
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Self { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{name}")),
        }
    }
}

fn usage() -> &'static str {
    "usage: apan <stats|generate|train|eval|serve> [flags]\n\
     data:   --csv FILE.csv | --dataset wikipedia|reddit|alipay --scale S (default 0.01)\n\
     train:  --epochs N --lr F --batch N --slots N --neighbors N --seed N --checkpoint FILE\n\
     eval:   --checkpoint FILE (required)\n\
     serve:  --checkpoint FILE (optional) --serve-batch N\n\
     generate: --out FILE.csv (required)"
}

fn load_data(args: &Args) -> Result<(TemporalDataset, SplitFractions), String> {
    let seed: u64 = args.get_parsed("seed", 0)?;
    if let Some(path) = args.get("csv") {
        let ds = load_jodie_csv("csv", &PathBuf::from(path)).map_err(|e| e.to_string())?;
        return Ok((ds, SplitFractions::paper_default()));
    }
    let scale: f64 = args.get_parsed("scale", 0.01)?;
    match args.get("dataset").unwrap_or("wikipedia") {
        "wikipedia" => Ok((wikipedia(scale, seed), SplitFractions::paper_default())),
        "reddit" => Ok((reddit(scale, seed), SplitFractions::paper_default())),
        "alipay" => Ok((alipay(scale, seed), SplitFractions::alipay())),
        other => Err(format!("unknown dataset '{other}'")),
    }
}

fn build_model(args: &Args, ds: &TemporalDataset) -> Result<(ApanDyn, StdRng), String> {
    let seed: u64 = args.get_parsed("seed", 0)?;
    let mut cfg = ApanConfig::for_dataset(ds);
    cfg.mailbox_slots = args.get_parsed("slots", cfg.mailbox_slots)?;
    cfg.sampled_neighbors = args.get_parsed("neighbors", cfg.sampled_neighbors)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let apan = ApanDyn::new(&cfg, &mut rng);
    Ok((apan, rng))
}

fn train_config(args: &Args) -> Result<TrainConfig, String> {
    Ok(TrainConfig {
        epochs: args.get_parsed("epochs", 8)?,
        batch_size: args.get_parsed("batch", 100)?,
        lr: args.get_parsed("lr", 3e-3)?,
        patience: args.get_parsed("patience", 5)?,
        grad_clip: args.get_parsed("grad-clip", 5.0)?,
    })
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let (ds, fractions) = load_data(args)?;
    let split = ChronoSplit::new(&ds, fractions);
    println!("{}", DatasetStats::compute(&ds, &split).render());
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let out = args.get("out").ok_or("generate requires --out FILE.csv")?;
    let (ds, _) = load_data(args)?;
    if !ds.bipartite {
        return Err("JODIE CSV export requires a bipartite dataset (wikipedia/reddit)".into());
    }
    write_jodie_csv(&ds, &PathBuf::from(out)).map_err(|e| e.to_string())?;
    println!("wrote {} events to {out}", ds.num_events());
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let (ds, fractions) = load_data(args)?;
    let split = ChronoSplit::new(&ds, fractions);
    let (mut apan, mut rng) = build_model(args, &ds)?;
    let tc = train_config(args)?;
    println!(
        "training on {} ({} events, {} parameters)…",
        ds.name,
        ds.num_events(),
        apan.model.num_parameters()
    );
    let report = train_link_prediction(&mut apan, &ds, &split, &tc, &mut rng);
    println!(
        "best epoch {}: val AP {:.4} | test AP {:.4} acc {:.4}",
        report.best_epoch + 1,
        report.val_ap,
        report.test_ap,
        report.test_acc
    );
    if let Some(path) = args.get("checkpoint") {
        apan.model
            .save_checkpoint(&PathBuf::from(path))
            .map_err(|e| e.to_string())?;
        println!("checkpoint saved to {path}");
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let ckpt = args.get("checkpoint").ok_or("eval requires --checkpoint")?;
    let (ds, fractions) = load_data(args)?;
    let split = ChronoSplit::new(&ds, fractions);
    let (mut apan, mut rng) = build_model(args, &ds)?;
    apan.model
        .load_checkpoint(&PathBuf::from(ckpt))
        .map_err(|e| e.to_string())?;
    let batch = train_config(args)?.batch_size;
    let run = replay(&mut apan, &ds, &split, batch, None, &mut rng);
    println!(
        "eval on {}: test AP {:.4} acc {:.4}",
        ds.name,
        run.test.ap(),
        run.test.accuracy()
    );
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let (ds, fractions) = load_data(args)?;
    let split = ChronoSplit::new(&ds, fractions);
    let (mut apan, mut rng) = build_model(args, &ds)?;
    if let Some(ckpt) = args.get("checkpoint") {
        apan.model
            .load_checkpoint(&PathBuf::from(ckpt))
            .map_err(|e| e.to_string())?;
    } else {
        let tc = train_config(args)?;
        println!("no checkpoint given; training first…");
        train_link_prediction(&mut apan, &ds, &split, &tc, &mut rng);
    }
    let batch: usize = args.get_parsed("serve-batch", 200)?;
    let mut pipeline = ServingPipeline::new(apan.model, ds.num_nodes(), 64);
    let events = &ds.graph.events()[split.test.clone()];
    for chunk in events.chunks(batch) {
        let eids: Vec<u32> = chunk.iter().map(|e| e.eid).collect();
        let feats = ds.feature_batch(&eids);
        pipeline.infer_batch(chunk, &feats);
    }
    println!(
        "served {} events in batches of {batch}: sync latency mean {:?} p50 {:?} p95 {:?}",
        events.len(),
        pipeline.sync_latency.mean(),
        pipeline.sync_latency.p50(),
        pipeline.sync_latency.p95()
    );
    let stats = pipeline.shutdown();
    println!(
        "async link: {} jobs, {} deliveries, {} graph queries",
        stats.jobs, stats.deliveries, stats.cost.queries
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "stats" => cmd_stats(&args),
        "generate" => cmd_generate(&args),
        "train" => cmd_train(&args),
        "eval" => cmd_eval(&args),
        "serve" => cmd_serve(&args),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
