//! Micro-ablations of APAN's design choices at the operation level:
//! mail-reduce operators, mailbox update rules, and slot encodings — the
//! knobs DESIGN.md calls out, measured in isolation from training.
//!
//! No `apan-perf` row covers these costs. Each variant prints one
//! `group/variant: N ns/iter` line (`cargo bench -p apan-bench --bench
//! ablation`).

use apan_bench::time_ns;
use apan_core::config::{ApanConfig, MailReduce, MailboxUpdate, SlotEncoding};
use apan_core::encoder::ApanEncoder;
use apan_core::mail::reduce_mails;
use apan_core::mailbox::{MailOrigin, MailboxStore};
use apan_nn::{Fwd, ParamStore};
use apan_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::hint::black_box;

fn print_row(group: &str, variant: impl Debug, ns: f64) {
    println!("{group}/{variant:?}: {ns:.0} ns/iter");
}

fn reduce_ops() {
    let mails = Tensor::ones(64, 48);
    let rows: Vec<usize> = (0..64).collect();
    for mode in [MailReduce::Mean, MailReduce::Sum, MailReduce::Last] {
        let ns = time_ns(20_000, || {
            black_box(reduce_mails(&mails, &rows, mode));
        });
        print_row("mail_reduce_64x48", mode, ns);
    }
}

fn update_rules() {
    for mode in [
        MailboxUpdate::Fifo,
        MailboxUpdate::Overwrite,
        MailboxUpdate::ContentAddressed,
    ] {
        let mut store = MailboxStore::new(1000, 10, 48, mode);
        let mail = vec![1.0f32; 48];
        let mut t = 0.0;
        let ns = time_ns(100_000, || {
            t += 1.0;
            store.deliver(black_box(7), &mail, t, MailOrigin::default());
        });
        print_row("mailbox_update_rule", mode, ns);
    }
}

fn slot_encodings() {
    for enc in [
        SlotEncoding::Positional,
        SlotEncoding::Temporal,
        SlotEncoding::None,
    ] {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cfg = ApanConfig::new(48);
        cfg.mailbox_slots = 10;
        cfg.slot_encoding = enc;
        cfg.dropout = 0.0;
        let mut store = ParamStore::new();
        let encoder = ApanEncoder::new(&mut store, &cfg, &mut rng);
        let mut mb = MailboxStore::new(200, 10, 48, MailboxUpdate::Fifo);
        let mail = vec![0.3f32; 48];
        for i in 0..2000u32 {
            mb.deliver(i % 200, &mail, i as f64, MailOrigin::default());
        }
        let nodes: Vec<u32> = (0..200).collect();
        let view = mb.read_batch(&nodes, 5000.0);
        let z_prev = mb.embedding_batch(&nodes);
        let ns = time_ns(50, || {
            let mut fwd = Fwd::new(&store, false);
            let out = encoder.forward(&mut fwd, &z_prev, &view, &mut rng);
            black_box(fwd.g.value(out.z).sum());
        });
        print_row("encoder_slot_encoding_B200", enc, ns);
    }
}

fn main() {
    reduce_ops();
    update_rules();
    slot_encodings();
}
