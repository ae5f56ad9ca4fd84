//! Differential test: the compiled serving plan against the autodiff tape.
//!
//! `InferencePlan` replaces the tape on the synchronous path and claims
//! to compute the same bits. This test holds it to that, in whatever
//! SIMD mode the process runs (CI runs it again under `APAN_SIMD=0`):
//! - `InferencePlan::encode` + `score_links` against `Apan::encode`
//!   + `LinkDecoder::forward` + `stable_sigmoid`;
//! - every batch size 0–64, mailboxes empty, partial and full, all three
//!   slot encodings, widths on both sides of the small-GEMM cutoff;
//! - through `ServingPipeline`, batches with dropped events: scores and
//!   embeddings match the tape, and only admitted endpoints are written
//!   back.

use apan_check::{check, Gen};
use apan_core::config::{ApanConfig, SlotEncoding};
use apan_core::mailbox::{MailOrigin, MailboxRead, MailboxStore};
use apan_core::model::{dedup_nodes, Apan};
use apan_core::pipeline::ServingPipeline;
use apan_core::plan::InferencePlan;
use apan_core::propagator::Interaction;
use apan_core::AdmitKind;
use apan_nn::Fwd;
use apan_tensor::ops::stable_sigmoid;
use apan_tensor::Tensor;
use apan_tgraph::{NodeId, TemporalGraph, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Nodes in every store; batches draw their endpoints from these.
const NODES: u32 = 40;
const ENCODINGS: [SlotEncoding; 3] = [
    SlotEncoding::Positional,
    SlotEncoding::Temporal,
    SlotEncoding::None,
];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A model whose every parameter (biases, LayerNorm gain and bias
/// included) is random, so no term of the forward is trivially zero or
/// one. Deterministic in its arguments.
fn model(encoding: SlotEncoding, dim: usize, seed: u64) -> Apan {
    let mut cfg = ApanConfig::new(dim);
    cfg.mailbox_slots = 5;
    cfg.mlp_hidden = 12;
    cfg.heads = 2;
    cfg.dropout = 0.1; // eval mode must ignore it
    cfg.slot_encoding = encoding;
    let mut model = Apan::new(&cfg, &mut StdRng::seed_from_u64(seed));
    let mut g = Gen::new(seed, usize::MAX);
    let ids: Vec<_> = model.params.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        for v in model.params.get_mut(id).data_mut() {
            *v += g.range(-0.5f32..0.5);
        }
    }
    model
}

/// A flat store whose nodes hold no mail, some, exactly `m`, or more
/// than `m` (the ring wrapped), at random times before `t = 100`, plus
/// random last embeddings for about half of them.
fn store(model: &Apan, g: &mut Gen) -> MailboxStore {
    let (m, d) = (model.cfg.mailbox_slots, model.cfg.dim);
    let mut store = model.new_store(NODES as usize);
    for node in 0..NODES {
        let mails = match g.range(0..4) {
            0 => 0,
            1 => g.range(1..m),
            2 => m,
            _ => g.range(m + 1..3 * m),
        };
        let mut t = g.range(0.0..10.0);
        for _ in 0..mails {
            let mail: Vec<f32> = (0..d).map(|_| g.range(-2.0f32..2.0)).collect();
            store.deliver(node, &mail, t, MailOrigin::default());
            t += g.range(0.0..20.0);
        }
        if g.bool() {
            let z: Vec<f32> = (0..d).map(|_| g.range(-1.0f32..1.0)).collect();
            store.set_embeddings(&[node], &Tensor::from_rows(&[&z]), t);
        }
    }
    store
}

/// A batch of `len` interactions over the store's nodes.
fn endpoints(g: &mut Gen, len: usize) -> (Vec<NodeId>, Vec<NodeId>) {
    (0..len)
        .map(|_| (g.range(0..NODES), g.range(0..NODES)))
        .unzip()
}

/// The tape's embeddings and link scores for one batch.
fn tape<S: MailboxRead>(
    model: &Apan,
    store: &S,
    nodes: &[NodeId],
    maps: &[Vec<usize>],
    now: Time,
) -> (Tensor, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut fwd = Fwd::new(&model.params, false);
    let enc = model.encode(&mut fwd, store, nodes, now, &mut rng);
    let z = fwd.g.value(enc.z).clone();
    let zv = fwd.g.constant(z.clone());
    let zi = fwd.g.gather_rows(zv, &maps[0]);
    let zj = fwd.g.gather_rows(zv, &maps[1]);
    let logits = model.link_decoder.forward(&mut fwd, zi, zj, &mut rng);
    let scores = fwd
        .g
        .value(logits)
        .data()
        .iter()
        .map(|&x| stable_sigmoid(x))
        .collect();
    (z, scores)
}

#[test]
fn plan_matches_the_tape_bitwise_for_every_batch_size() {
    for encoding in ENCODINGS {
        check(4, |g| {
            // 8 keeps every GEMM under the small-problem cutoff; 48
            // sends the projections through the packed kernels
            let dim = g.pick(&[8, 48]);
            let model = model(encoding, dim, g.next_u64());
            let store = store(&model, g);
            let mut plan = InferencePlan::compile(&model);
            for len in 0..=64 {
                let (src, dst) = endpoints(g, len);
                let (unique, maps) = dedup_nodes(&[&src, &dst]);
                let now = g.range(100.0..200.0);
                let z = plan.encode(&store, &unique, now);
                let scores = plan.score_links(&z, &maps[0], &maps[1]);
                let (want_z, want_scores) = tape(&model, &store, &unique, &maps, now);
                let what = format!("{encoding:?} d={dim} batch {len}");
                assert_eq!(z.shape(), (unique.len(), dim), "{what}");
                assert_eq!(bits(z.data()), bits(want_z.data()), "{what}: embeddings");
                assert_eq!(bits(&scores), bits(&want_scores), "{what}: scores");
            }
        });
    }
}

#[test]
fn plan_reuses_its_scratch_across_shrinking_and_growing_batches() {
    // the same batch, encoded after a bigger and a smaller one, gives the
    // same bits: no stale scratch row leaks into a later batch
    let model = model(SlotEncoding::Positional, 48, 7);
    let mut g = Gen::new(7, usize::MAX);
    let store = store(&model, &mut g);
    let (src, dst) = endpoints(&mut g, 9);
    let (unique, maps) = dedup_nodes(&[&src, &dst]);
    let mut fresh = InferencePlan::compile(&model);
    let z = fresh.encode(&store, &unique, 150.0);
    let want = (
        bits(z.data()),
        bits(&fresh.score_links(&z, &maps[0], &maps[1])),
    );
    let mut plan = InferencePlan::compile(&model);
    for len in [64, 1, 0, 9] {
        let (s, d) = endpoints(&mut g, len);
        let (u, mp) = dedup_nodes(&[&s, &d]);
        let z = plan.encode(&store, &u, 150.0);
        plan.score_links(&z, &mp[0], &mp[1]);
    }
    let z = plan.encode(&store, &unique, 150.0);
    assert_eq!(
        (
            bits(z.data()),
            bits(&plan.score_links(&z, &maps[0], &maps[1]))
        ),
        want
    );
}

#[test]
fn pipeline_with_dropped_events_matches_the_tape() {
    for encoding in ENCODINGS {
        check(6, |g| {
            let dim = g.pick(&[8, 48]);
            let seed = g.next_u64();
            let reference = model(encoding, dim, seed);
            let flat = store(&reference, g);
            let mut pipeline = ServingPipeline::with_state(
                model(encoding, dim, seed),
                flat.clone(),
                TemporalGraph::new(),
                4,
            );
            let len = g.range(1..=64);
            let (src, dst) = endpoints(g, len);
            let mut time = 100.0;
            let interactions: Vec<Interaction> = src
                .iter()
                .zip(&dst)
                .enumerate()
                .map(|(i, (&src, &dst))| {
                    time += g.range(0.0..3.0);
                    Interaction {
                        src,
                        dst,
                        time,
                        eid: i as u32,
                    }
                })
                .collect();
            let kinds: Vec<AdmitKind> = (0..len)
                .map(|_| match g.range(0..3) {
                    0 => AdmitKind::Dropped,
                    _ => AdmitKind::InOrder,
                })
                .collect();
            let feats = Tensor::full(len, dim, 0.25);
            let got = pipeline.infer_batch_admitted(&interactions, &feats, &kinds, 0, None);

            // the reference instant: newest admitted event, else the last
            let admitted = |i: &usize| !matches!(kinds[*i], AdmitKind::Dropped);
            let now = (0..len)
                .filter(admitted)
                .map(|i| interactions[i].time)
                .reduce(f64::max)
                .unwrap_or(interactions[len - 1].time);
            let (unique, maps) = dedup_nodes(&[&src, &dst]);
            let (z, scores) = tape(&reference, &flat, &unique, &maps, now);
            let what = format!("{encoding:?} d={dim} batch {len}");
            assert_eq!(got.nodes, unique, "{what}");
            assert_eq!(
                bits(got.embeddings.data()),
                bits(z.data()),
                "{what}: embeddings"
            );
            assert_eq!(bits(&got.scores), bits(&scores), "{what}: scores");

            // write-back: admitted endpoints carry their row of z at
            // `now`; every other node keeps its old embedding
            let (after, _) = pipeline.export_state();
            let written: Vec<NodeId> = (0..len)
                .filter(admitted)
                .flat_map(|i| [src[i], dst[i]])
                .collect();
            for (row, &node) in unique.iter().enumerate() {
                let (want, at) = if written.contains(&node) {
                    (z.row_slice(row), now)
                } else {
                    (flat.embedding(node), flat.last_update(node))
                };
                assert_eq!(
                    bits(after.embedding(node)),
                    bits(want),
                    "{what}: node {node}"
                );
                assert_eq!(after.last_update(node), at, "{what}: node {node} stamp");
            }
        });
    }
}
