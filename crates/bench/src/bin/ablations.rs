//! Ablations over APAN's design choices (§3.5–§3.6): mail reduction
//! operator, mailbox update rule, slot-order encoding, propagation depth,
//! and self-delivery. Each variant trains on the Wikipedia-analogue
//! dataset and reports test AP.

use apan_bench::{wiki_like, write_json, BenchEnv, Table};
use apan_core::config::{ApanConfig, MailReduce, MailboxUpdate, SlotEncoding};
use apan_core::train::{self, ApanDyn, TrainConfig};
use apan_data::{ChronoSplit, SplitFractions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn variants(env: &BenchEnv) -> Vec<(String, ApanConfig)> {
    let base = {
        let mut c = ApanConfig::new(env.feat_dim);
        c.mailbox_slots = env.neighbors.max(2);
        c.sampled_neighbors = env.neighbors.max(2);
        c.mlp_hidden = 80;
        c.dropout = 0.1;
        c
    };
    let mut out = vec![("default (mean,fifo,pos,k=2,self)".to_string(), base.clone())];
    for (name, reduce) in [
        ("reduce=sum", MailReduce::Sum),
        ("reduce=last", MailReduce::Last),
    ] {
        let mut c = base.clone();
        c.mail_reduce = reduce;
        out.push((name.to_string(), c));
    }
    {
        let mut c = base.clone();
        c.mailbox_update = MailboxUpdate::Overwrite;
        out.push(("mailbox=overwrite".to_string(), c));
    }
    {
        let mut c = base.clone();
        c.mailbox_update = MailboxUpdate::ContentAddressed;
        out.push(("mailbox=content-addr (§3.6)".to_string(), c));
    }
    for (name, enc) in [
        ("slot-enc=temporal", SlotEncoding::Temporal),
        ("slot-enc=none", SlotEncoding::None),
    ] {
        let mut c = base.clone();
        c.slot_encoding = enc;
        out.push((name.to_string(), c));
    }
    {
        let mut c = base.clone();
        c.hops = 1;
        out.push(("hops=1".to_string(), c));
    }
    {
        let mut c = base.clone();
        c.deliver_to_self = false;
        out.push(("no-self-delivery".to_string(), c));
    }
    out
}

fn main() {
    let env = BenchEnv::from_env();
    println!("APAN design ablations — {}\n", env.describe());

    let vs = variants(&env);
    let labels: Vec<&str> = vs.iter().map(|(n, _)| n.as_str()).collect();
    let mut table = Table::new("Ablations: APAN test AP (%)", &["test-AP"], &labels);

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
        for (ri, (name, cfg)) in vs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed * 41 + ri as u64);
            let mut model = ApanDyn::new(cfg, &mut rng);
            let out = train::train_link_prediction(&mut model, &data, &split, &tc, &mut rng);
            table.push(ri, 0, out.test_ap);
            println!("[seed {seed}] {name:<34} AP {:.4}", out.test_ap);
        }
    }

    println!("\n{}", table.render());
    let path = env.out_dir.join("ablations.json");
    write_json(&path, &table).expect("write results");
    println!("wrote {}", path.display());
}
