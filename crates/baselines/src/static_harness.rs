//! Shared training/evaluation protocol for the static baselines.
//!
//! Static models embed every node once from the collapsed training graph
//! and score val/test interactions with those frozen vectors. Nodes that
//! never appear in training are isolated in the static graph — their
//! near-constant embeddings are what makes the static rows of Table 2
//! trail the CTDG models, especially on inductive datasets.

use crate::static_graph::StaticGraph;
use apan_data::{ChronoSplit, NegativeSampler, TemporalDataset};
use apan_metrics::{accuracy, average_precision, roc_auc};
use apan_nn::{Adam, Fwd, Optimizer, ParamStore};
use apan_tensor::ops::stable_sigmoid;
use apan_tensor::{Tensor, Var};
use apan_tgraph::NodeId;
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;

/// A model that embeds all nodes of a static graph at once.
pub trait StaticEmbedder {
    /// Display name.
    fn name(&self) -> String;
    /// Parameter store access.
    fn params(&self) -> &ParamStore;
    /// Mutable parameter store access.
    fn params_mut(&mut self) -> &mut ParamStore;
    /// Embedding width.
    fn dim(&self) -> usize;
    /// `[N × dim]` embeddings of every node.
    fn embed_all(&self, fwd: &mut Fwd<'_>, sg: &StaticGraph, rng: &mut StdRng) -> Var;
    /// Optional extra loss (e.g. the VGAE KL term), given the embedding.
    fn regularizer(&self, _fwd: &mut Fwd<'_>, _z: Var) -> Option<Var> {
        None
    }
}

/// Outcome of static link-prediction training.
#[derive(Clone, Debug)]
pub struct StaticOutcome {
    /// Test average precision.
    pub test_ap: f64,
    /// Test accuracy.
    pub test_acc: f64,
    /// Final training loss.
    pub final_loss: f32,
}

/// Samples `k` negative pairs for training: sources from the positive
/// sources, destinations uniform over nodes with train degree > 0.
fn negative_pairs(
    sg: &StaticGraph,
    positives: &[(u32, u32)],
    k: usize,
    rng: &mut StdRng,
) -> Vec<(u32, u32)> {
    let active: Vec<u32> = (0..sg.num_nodes as u32)
        .filter(|&n| !sg.adj_list[n as usize].is_empty())
        .collect();
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let src = positives[i % positives.len()].0;
        let dst = active[rng.gen_range(0..active.len())];
        out.push((src, dst));
    }
    out
}

/// Trains a static embedder with dot-product link scores (plus learned
/// scale/bias calibration) on the training edges, then evaluates on the
/// test stream with the same rolling negative sampler the dynamic
/// protocol uses.
pub fn train_static_link<M: StaticEmbedder + ?Sized>(
    model: &mut M,
    data: &TemporalDataset,
    split: &ChronoSplit,
    epochs: usize,
    lr: f32,
    rng: &mut StdRng,
) -> StaticOutcome {
    let sg = StaticGraph::build(data, &split.train);
    let scale_id = model
        .params_mut()
        .add("static.cal.scale", Tensor::scalar(1.0));
    let bias_id = model
        .params_mut()
        .add("static.cal.bias", Tensor::scalar(0.0));
    let mut opt = Adam::new(lr);
    let mut final_loss = 0.0;

    for _ in 0..epochs {
        let pos: Vec<(u32, u32)> = sg.edges.clone();
        if pos.is_empty() {
            break;
        }
        let neg = negative_pairs(&sg, &pos, pos.len(), rng);
        let mut targets = Tensor::zeros(2 * pos.len(), 1);
        for i in 0..pos.len() {
            targets.set(i, 0, 1.0);
        }
        let grads = {
            let mut fwd = Fwd::new(model.params(), true);
            let z = model.embed_all(&mut fwd, &sg, rng);
            let idx_u: Vec<usize> = pos.iter().chain(&neg).map(|&(u, _)| u as usize).collect();
            let idx_v: Vec<usize> = pos.iter().chain(&neg).map(|&(_, v)| v as usize).collect();
            let zu = fwd.g.gather_rows(z, &idx_u);
            let zv = fwd.g.gather_rows(z, &idx_v);
            let dots = fwd.g.rows_dot(zu, zv);
            let scale = fwd.p(scale_id);
            let bias = fwd.p(bias_id);
            let scaled = fwd.g.mul(dots, scale);
            let logits = fwd.g.add(scaled, bias);
            let mut loss = fwd.g.bce_with_logits_mean(logits, &targets);
            if let Some(reg) = model.regularizer(&mut fwd, z) {
                loss = fwd.g.add(loss, reg);
            }
            final_loss = fwd.g.value(loss).item();
            fwd.finish(loss)
        };
        opt.step(model.params_mut(), &grads);
    }

    // Frozen embeddings for evaluation.
    let (z_val, scale, bias) = {
        let mut fwd = Fwd::new(model.params(), false);
        let z = model.embed_all(&mut fwd, &sg, rng);
        (
            fwd.g.value(z).clone(),
            model.params().get(scale_id).item(),
            model.params().get(bias_id).item(),
        )
    };
    let (scores, labels) = score_stream(&z_val, data, &split.test, scale, bias, rng);
    StaticOutcome {
        test_ap: average_precision(&scores, &labels),
        test_acc: accuracy(&scores, &labels),
        final_loss,
    }
}

/// Scores the events of `range` (one positive + one sampled negative per
/// event) from frozen per-node embeddings.
fn score_stream(
    z: &Tensor,
    data: &TemporalDataset,
    range: &Range<usize>,
    scale: f32,
    bias: f32,
    rng: &mut StdRng,
) -> (Vec<f32>, Vec<bool>) {
    let mut sampler = NegativeSampler::new();
    // warm the pool with everything before the evaluation range, as the
    // dynamic protocol does implicitly by replaying the stream
    for e in &data.graph.events()[..range.start] {
        sampler.observe(e.dst);
    }
    let dot = |a: NodeId, b: NodeId| -> f32 {
        z.row_slice(a as usize)
            .iter()
            .zip(z.row_slice(b as usize))
            .map(|(x, y)| x * y)
            .sum()
    };
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for e in &data.graph.events()[range.clone()] {
        let neg = sampler.sample(e.dst, rng).unwrap_or(e.dst);
        scores.push(stable_sigmoid(scale * dot(e.src, e.dst) + bias));
        labels.push(true);
        scores.push(stable_sigmoid(scale * dot(e.src, neg) + bias));
        labels.push(false);
        sampler.observe(e.dst);
    }
    (scores, labels)
}

/// Evaluates frozen embeddings for link prediction without any training
/// (used by the walk-based models, whose embeddings come out of SGNS).
/// Calibrates a 1-D logistic (scale/bias over the dot product) on the
/// training edges first.
pub fn evaluate_frozen_embeddings(
    z: &Tensor,
    data: &TemporalDataset,
    split: &ChronoSplit,
    rng: &mut StdRng,
) -> StaticOutcome {
    let sg = StaticGraph::build(data, &split.train);
    // calibrate scale/bias with a few hundred plain gradient steps
    let (mut scale, mut bias) = (1.0f32, 0.0f32);
    if !sg.edges.is_empty() {
        let pos = &sg.edges;
        let neg = negative_pairs(&sg, pos, pos.len(), rng);
        let dots: Vec<(f32, f32)> = pos
            .iter()
            .map(|&(u, v)| (dot_rows(z, u, v), 1.0))
            .chain(neg.iter().map(|&(u, v)| (dot_rows(z, u, v), 0.0)))
            .collect();
        let lr = 0.05;
        for _ in 0..300 {
            let (mut gs, mut gb) = (0.0f32, 0.0f32);
            for &(d, t) in &dots {
                let p = stable_sigmoid(scale * d + bias);
                gs += (p - t) * d;
                gb += p - t;
            }
            let n = dots.len() as f32;
            scale -= lr * gs / n;
            bias -= lr * gb / n;
        }
    }
    let (scores, labels) = score_stream(z, data, &split.test, scale, bias, rng);
    StaticOutcome {
        test_ap: average_precision(&scores, &labels),
        test_acc: accuracy(&scores, &labels),
        final_loss: 0.0,
    }
}

fn dot_rows(z: &Tensor, a: u32, b: u32) -> f32 {
    z.row_slice(a as usize)
        .iter()
        .zip(z.row_slice(b as usize))
        .map(|(x, y)| x * y)
        .sum()
}

/// Node-classification AUC from frozen per-node embeddings: trains a
/// logistic regression on the (balanced-resampled) train-range labels and
/// scores the test range. Inputs are `(z_src ‖ e)` — the same
/// JODIE-style dynamic-state protocol the dynamic models use — so the
/// comparison isolates embedding quality rather than input access.
pub fn static_classification_auc(
    z: &Tensor,
    data: &TemporalDataset,
    split: &ChronoSplit,
    steps: usize,
    rng: &mut StdRng,
) -> f64 {
    let zd = z.cols();
    let fd = data.feature_dim();
    let d = zd + fd;
    let collect = |r: &Range<usize>| -> (Vec<u32>, Vec<bool>) {
        let mut nodes = Vec::new();
        let mut labels = Vec::new();
        for eid in r.clone() {
            if let Some(l) = data.labels[eid] {
                nodes.push(eid as u32);
                labels.push(l);
            }
        }
        (nodes, labels)
    };
    // inputs are keyed by event id: row = [z[src] ‖ feature(eid)]
    let input_row = |eid: u32| -> Vec<f32> {
        let src = data.graph.event(eid).src;
        let mut row = Vec::with_capacity(d);
        row.extend_from_slice(z.row_slice(src as usize));
        row.extend_from_slice(data.feature(eid));
        row
    };
    let (train_nodes, train_lab) = collect(&split.train);
    let (test_nodes, test_lab) = collect(&split.test);
    let pos: Vec<u32> = train_nodes
        .iter()
        .zip(&train_lab)
        .filter_map(|(&n, &l)| l.then_some(n))
        .collect();
    let neg: Vec<u32> = train_nodes
        .iter()
        .zip(&train_lab)
        .filter_map(|(&n, &l)| (!l).then_some(n))
        .collect();
    if pos.is_empty() || neg.is_empty() || test_nodes.is_empty() {
        return 0.5;
    }
    // plain logistic regression with balanced minibatches
    let mut w = vec![0.0f32; d];
    let mut b = 0.0f32;
    let lr = 0.05;
    for _ in 0..steps {
        let half = 32;
        let (mut gw, mut gb) = (vec![0.0f32; d], 0.0f32);
        for i in 0..2 * half {
            let (eid, t) = if i < half {
                (pos[rng.gen_range(0..pos.len())], 1.0)
            } else {
                (neg[rng.gen_range(0..neg.len())], 0.0)
            };
            let x = input_row(eid);
            let logit: f32 = w.iter().zip(&x).map(|(wi, xi)| wi * xi).sum::<f32>() + b;
            let p = stable_sigmoid(logit);
            for (g, &xi) in gw.iter_mut().zip(&x) {
                *g += (p - t) * xi;
            }
            gb += p - t;
        }
        let n = (2 * half) as f32;
        for (wi, g) in w.iter_mut().zip(&gw) {
            *wi -= lr * g / n;
        }
        b -= lr * gb / n;
    }
    let scores: Vec<f32> = test_nodes
        .iter()
        .map(|&eid| {
            let x = input_row(eid);
            stable_sigmoid(w.iter().zip(&x).map(|(wi, xi)| wi * xi).sum::<f32>() + b)
        })
        .collect();
    roc_auc(&scores, &test_lab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn frozen_random_embeddings_are_chance_level() {
        let cfg = apan_data::generators::GenConfig {
            name: "tiny".into(),
            num_users: 20,
            num_items: 20,
            num_events: 400,
            feature_dim: 4,
            timespan: 100.0,
            latent_dim: 3,
            repeat_prob: 0.6,
            recency_window: 3,
            zipf_user: 0.8,
            zipf_item: 1.0,
            target_positives: 10,
            label_kind: apan_data::LabelKind::NodeState,
            bipartite: true,
            feature_noise: 0.3,
            burstiness: 0.2,
            fraud_burst_len: 0,
            drift_magnitude: 2.0,
            drift_run: 2,
        };
        let data = apan_data::generators::generate_seeded(&cfg, 0);
        let split = apan_data::ChronoSplit::new(&data, apan_data::SplitFractions::paper_default());
        let mut rng = StdRng::seed_from_u64(0);
        let z = Tensor::randn(data.num_nodes(), 8, 1.0, &mut rng);
        let out = evaluate_frozen_embeddings(&z, &data, &split, &mut rng);
        assert!(
            (out.test_ap - 0.5).abs() < 0.15,
            "random embeddings should be ~chance, got {}",
            out.test_ap
        );
    }
}
