//! The one training / evaluation / latency protocol (§4.2–§4.5) for
//! every CTDG model in the workspace, APAN included.
//!
//! A model implements [`DynamicModel`] ([`ApanDyn`] here, the baselines in
//! `apan-baselines`); the protocol then provides:
//!
//! * [`train_link_prediction`] — Table 2's protocol, self-supervised:
//!   every interaction is a positive, paired with a time-varying negative
//!   destination (Eq. 7's sampling constraint: only nodes that have
//!   already interacted are in the pool); chronological replay, early
//!   stopping with patience (default 5, as in §4.4) on validation AP, the
//!   best parameters restored before the final pass;
//! * [`replay`] — that final pass on its own: roll the serving state
//!   through the train range, score val and test, touch no parameter;
//! * [`train_classification`] — Table 3's protocol: a task decoder on
//!   embeddings replayed over the stream, ROC AUC (labels are heavily
//!   skewed);
//! * [`measure_inference`] — Figure 6's protocol: wall-clock of the
//!   synchronous path plus the modelled graph-store latency for whatever
//!   queries the model issued *on that path*.
//!
//! Each epoch replays the stream from scratch with reset serving state
//! (temporal models cannot shuffle events).
//!
//! Two instants describe a batch. `visible`, its *first* event's time, is
//! the staleness horizon: a graph query may only see events strictly
//! before it — the information loss Figure 7 attributes batch-size
//! sensitivity to. `now`, its *newest* event's time, is the clock: the
//! instant mail ages are read at, which is the rule
//! [`crate::pipeline::ServingPipeline`] serves with.

use crate::config::ApanConfig;
use crate::mailbox::MailboxStore;
use crate::model::{dedup_nodes, Apan};
use apan_data::{ChronoSplit, NegativeSampler, TemporalDataset};
use apan_metrics::{accuracy, average_precision, roc_auc, LatencyRecorder};
use apan_nn::{Adam, Fwd, Optimizer, ParamStore};
use apan_tensor::ops::stable_sigmoid;
use apan_tensor::{Tensor, Var};
use apan_tgraph::batch::BatchIter;
use apan_tgraph::cost::{LatencyModel, QueryCost};
use apan_tgraph::{Event, NodeId, Time};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::ops::Range;
use std::time::Instant;

/// A continuous-time dynamic-graph model under the shared protocol.
pub trait DynamicModel {
    /// Display name (for tables).
    fn name(&self) -> String;
    /// Immutable access to the parameter store.
    fn params(&self) -> &ParamStore;
    /// Mutable access (optimizer steps).
    fn params_mut(&mut self) -> &mut ParamStore;
    /// Embedding dimensionality.
    fn dim(&self) -> usize;
    /// Clears all per-node serving state for a fresh replay of `data`.
    fn reset(&mut self, data: &TemporalDataset);
    /// Computes embeddings for `nodes`. `visible` is the staleness
    /// horizon: any graph query must only see events strictly before it.
    /// `now` is the batch's newest event time, the instant a model that
    /// reads timestamped node-local state (APAN's mail ages) reads it at.
    /// Query work goes into `cost` — the protocol charges it to the
    /// synchronous path (this is the Figure 6 distinction).
    #[allow(clippy::too_many_arguments)]
    fn embed(
        &self,
        fwd: &mut Fwd<'_>,
        data: &TemporalDataset,
        nodes: &[NodeId],
        visible: Time,
        now: Time,
        rng: &mut StdRng,
        cost: &mut QueryCost,
    ) -> Var;
    /// Post-inference state update (memory write, message/mail delivery).
    /// Query work goes into `cost` — charged to the asynchronous side.
    fn post_step(
        &mut self,
        data: &TemporalDataset,
        events: &[Event],
        unique: &[NodeId],
        maps: &[Vec<usize>],
        z: &Tensor,
        cost: &mut QueryCost,
    );
    /// Link score logits for embedded pairs.
    fn score_links(&self, fwd: &mut Fwd<'_>, zi: Var, zj: Var, rng: &mut StdRng) -> Var;
    /// Node-classification logits from embeddings plus the triggering
    /// interaction's features (JODIE-style dynamic-state protocol).
    fn classify_nodes(&self, fwd: &mut Fwd<'_>, z: Var, feats: &Tensor, rng: &mut StdRng) -> Var;
    /// Edge-classification logits from embeddings + edge features.
    fn classify_edges(
        &self,
        fwd: &mut Fwd<'_>,
        zi: Var,
        feats: &Tensor,
        zj: Var,
        rng: &mut StdRng,
    ) -> Var;
}

/// APAN plus its serving state: the model under the shared protocol.
/// Deploy a trained one with `ServingPipeline::new(apan.model, ..)`.
pub struct ApanDyn {
    /// The underlying model.
    pub model: Apan,
    store: MailboxStore,
}

impl ApanDyn {
    /// Builds APAN with the given config.
    pub fn new<R: Rng + ?Sized>(cfg: &ApanConfig, rng: &mut R) -> Self {
        let model = Apan::new(cfg, rng);
        let store = model.new_store(0);
        Self { model, store }
    }
}

impl DynamicModel for ApanDyn {
    fn name(&self) -> String {
        "APAN".into()
    }

    fn params(&self) -> &ParamStore {
        &self.model.params
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.model.params
    }

    fn dim(&self) -> usize {
        self.model.cfg.dim
    }

    fn reset(&mut self, data: &TemporalDataset) {
        self.store = self.model.new_store(data.num_nodes());
    }

    fn embed(
        &self,
        fwd: &mut Fwd<'_>,
        _data: &TemporalDataset,
        nodes: &[NodeId],
        _visible: Time,
        now: Time,
        rng: &mut StdRng,
        _cost: &mut QueryCost,
    ) -> Var {
        // the synchronous link never touches the graph — cost stays zero
        // and there is no query for `visible` to bound; mail ages are
        // read at `now`, as the serving pipeline's sync path reads them
        self.model.encode(fwd, &self.store, nodes, now, rng).z
    }

    fn post_step(
        &mut self,
        data: &TemporalDataset,
        events: &[Event],
        unique: &[NodeId],
        maps: &[Vec<usize>],
        z: &Tensor,
        cost: &mut QueryCost,
    ) {
        let eids: Vec<u32> = events.iter().map(|e| e.eid).collect();
        let feats = data.feature_batch(&eids);
        self.model.post_step(
            &mut self.store,
            &data.graph,
            events,
            unique,
            z,
            &maps[0],
            &maps[1],
            &feats,
            cost,
        );
    }

    fn score_links(&self, fwd: &mut Fwd<'_>, zi: Var, zj: Var, rng: &mut StdRng) -> Var {
        self.model.link_decoder.forward(fwd, zi, zj, rng)
    }

    fn classify_nodes(&self, fwd: &mut Fwd<'_>, z: Var, feats: &Tensor, rng: &mut StdRng) -> Var {
        self.model.node_classifier.forward(fwd, z, feats, rng)
    }

    fn classify_edges(
        &self,
        fwd: &mut Fwd<'_>,
        zi: Var,
        feats: &Tensor,
        zj: Var,
        rng: &mut StdRng,
    ) -> Var {
        self.model.edge_classifier.forward(fwd, zi, feats, zj, rng)
    }
}

/// Training hyper-parameters. Defaults follow §4.4 where applicable.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Interactions per batch (the paper uses 200).
    pub batch_size: usize,
    /// Adam learning rate (the paper uses 1e-4; the synthetic datasets at
    /// laptop scale train well at 1e-3).
    pub lr: f32,
    /// Early-stopping patience in epochs.
    pub patience: usize,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 200,
            lr: 1e-3,
            patience: 5,
            grad_clip: 5.0,
        }
    }
}

/// Collected scores for metric computation.
#[derive(Clone, Debug, Default)]
pub struct ScoreLog {
    /// Sigmoid scores, positives then negatives per batch.
    pub scores: Vec<f32>,
    /// Ground-truth labels aligned with `scores`.
    pub labels: Vec<bool>,
    /// Whether the scored pair involves a node unseen during training
    /// (aligned with `scores`; empty when no split was provided).
    pub inductive: Vec<bool>,
}

impl ScoreLog {
    /// Average precision.
    pub fn ap(&self) -> f64 {
        average_precision(&self.scores, &self.labels)
    }
    /// Accuracy at 0.5.
    pub fn accuracy(&self) -> f64 {
        accuracy(&self.scores, &self.labels)
    }
    /// AP restricted to pairs that involve a training-unseen node (the
    /// inductive subset the paper's Wikipedia column stresses). `None`
    /// when the subset is empty or flags were not collected.
    pub fn ap_inductive(&self) -> Option<f64> {
        self.subset_ap(true)
    }
    /// AP restricted to pairs whose endpoints were all seen in training.
    pub fn ap_transductive(&self) -> Option<f64> {
        self.subset_ap(false)
    }
    fn subset_ap(&self, want_inductive: bool) -> Option<f64> {
        if self.inductive.len() != self.scores.len() {
            return None;
        }
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for ((&s, &l), &ind) in self.scores.iter().zip(&self.labels).zip(&self.inductive) {
            if ind == want_inductive {
                scores.push(s);
                labels.push(l);
            }
        }
        if scores.is_empty() || !labels.iter().any(|&l| l) {
            return None;
        }
        Some(average_precision(&scores, &labels))
    }
}

/// Per-batch costs split by which link pays them.
#[derive(Clone, Copy, Debug, Default)]
pub struct SplitCost {
    /// Queries issued on the synchronous (inference) path.
    pub sync: QueryCost,
    /// Queries issued post-inference (asynchronous link).
    pub post: QueryCost,
}

/// Runs one batch through the synchronous path (+ optional optimizer
/// step) and then the model's post-inference update. Returns the batch
/// loss; with `log`, appends pos/neg scores to it; with `latency`, records
/// the sync path's wall-clock plus the modelled latency of its queries.
#[allow(clippy::too_many_arguments)]
fn link_batch<M: DynamicModel + ?Sized>(
    model: &mut M,
    opt: Option<&mut Adam>,
    data: &TemporalDataset,
    range: Range<usize>,
    sampler: &mut NegativeSampler,
    grad_clip: f32,
    rng: &mut StdRng,
    log: Option<&mut ScoreLog>,
    train_nodes: Option<&HashSet<NodeId>>,
    cost: &mut SplitCost,
    latency: Option<(&mut LatencyRecorder, &LatencyModel)>,
) -> f32 {
    let events = &data.graph.events()[range];
    if events.is_empty() {
        return 0.0;
    }
    let src: Vec<NodeId> = events.iter().map(|e| e.src).collect();
    let dst: Vec<NodeId> = events.iter().map(|e| e.dst).collect();
    let visible = events.first().expect("non-empty").time;
    let now = events.last().expect("non-empty").time;
    let neg: Vec<NodeId> = sampler.sample_batch(&dst, rng);
    let (unique, maps) = dedup_nodes(&[&src, &dst, &neg]);
    let train = opt.is_some();

    let b = events.len();
    let mut targets = Tensor::zeros(2 * b, 1);
    for i in 0..b {
        targets.set(i, 0, 1.0);
    }

    let started = Instant::now();
    let mut sync_cost = QueryCost::new();
    let (loss_val, z_val, pos_scores, neg_scores, grads, sync_elapsed) = {
        let mut fwd = Fwd::new(model.params(), train);
        let z = model.embed(&mut fwd, data, &unique, visible, now, rng, &mut sync_cost);
        let zi = fwd.g.gather_rows(z, &maps[0]);
        let zj = fwd.g.gather_rows(z, &maps[1]);
        let zn = fwd.g.gather_rows(z, &maps[2]);
        let pos_logits = model.score_links(&mut fwd, zi, zj, rng);
        let neg_logits = model.score_links(&mut fwd, zi, zn, rng);
        // ---- end of the synchronous path: scores are available ----
        let sync_elapsed = started.elapsed();

        let logits = fwd.g.concat_rows(&[pos_logits, neg_logits]);
        let loss = fwd.g.bce_with_logits_mean(logits, &targets);
        let loss_val = fwd.g.value(loss).item();
        let z_val = fwd.g.value(z).clone();
        let pos_scores: Vec<f32> = fwd
            .g
            .value(pos_logits)
            .data()
            .iter()
            .map(|&x| stable_sigmoid(x))
            .collect();
        let neg_scores: Vec<f32> = fwd
            .g
            .value(neg_logits)
            .data()
            .iter()
            .map(|&x| stable_sigmoid(x))
            .collect();
        let grads = if train {
            let mut g = fwd.finish(loss);
            if grad_clip > 0.0 {
                g.clip_global_norm(grad_clip);
            }
            Some(g)
        } else {
            None
        };
        (loss_val, z_val, pos_scores, neg_scores, grads, sync_elapsed)
    };
    cost.sync += sync_cost;
    if let Some((rec, latency_model)) = latency {
        rec.record(sync_elapsed + latency_model.latency(&sync_cost));
    }

    if let (Some(opt), Some(grads)) = (opt, grads.as_ref()) {
        opt.step(model.params_mut(), grads);
    }
    if let Some(log) = log {
        log.scores.extend_from_slice(&pos_scores);
        log.labels.extend(std::iter::repeat_n(true, b));
        log.scores.extend_from_slice(&neg_scores);
        log.labels.extend(std::iter::repeat_n(false, b));
        if let Some(known) = train_nodes {
            // positives: (src, dst); negatives: (src, neg)
            for (s, d) in src.iter().zip(&dst) {
                log.inductive.push(!known.contains(s) || !known.contains(d));
            }
            for (s, n) in src.iter().zip(&neg) {
                log.inductive.push(!known.contains(s) || !known.contains(n));
            }
        }
    }

    let mut post_cost = QueryCost::new();
    model.post_step(data, events, &unique, &maps, &z_val, &mut post_cost);
    cost.post += post_cost;
    sampler.observe_batch(&dst);
    loss_val
}

/// Streams the events of `range` through the model. With `opt` the pass
/// trains; otherwise it only rolls the serving state forward (and scores
/// into `log` when provided). Returns the mean batch loss.
#[allow(clippy::too_many_arguments)]
fn run_range<M: DynamicModel + ?Sized>(
    model: &mut M,
    mut opt: Option<&mut Adam>,
    data: &TemporalDataset,
    range: Range<usize>,
    batch_size: usize,
    sampler: &mut NegativeSampler,
    grad_clip: f32,
    rng: &mut StdRng,
    mut log: Option<&mut ScoreLog>,
    train_nodes: Option<&HashSet<NodeId>>,
    cost: &mut SplitCost,
    mut latency: Option<(&mut LatencyRecorder, &LatencyModel)>,
) -> f32 {
    let mut total = 0.0;
    let mut batches = 0;
    for rel in BatchIter::new(range.len(), batch_size) {
        let abs = range.start + rel.start..range.start + rel.end;
        total += link_batch(
            model,
            opt.as_deref_mut(),
            data,
            abs,
            sampler,
            grad_clip,
            rng,
            log.as_deref_mut(),
            train_nodes,
            cost,
            latency.as_mut().map(|(rec, lm)| (&mut **rec, *lm)),
        );
        batches += 1;
    }
    if batches > 0 {
        total / batches as f32
    } else {
        0.0
    }
}

/// What one [`replay`] scored.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Validation-range scores.
    pub val: ScoreLog,
    /// Test-range scores.
    pub test: ScoreLog,
    /// Sync/async query cost over the test range.
    pub test_cost: SplitCost,
}

/// The replay-only pass: from reset serving state, rolls `model` through
/// the train range in eval mode, then scores the validation and test
/// ranges. No parameter is touched. With `latency`, every test batch
/// records the wall-clock of its synchronous path plus the given model
/// applied to the queries that path issued.
pub fn replay<M: DynamicModel + ?Sized>(
    model: &mut M,
    data: &TemporalDataset,
    split: &ChronoSplit,
    batch_size: usize,
    latency: Option<(&mut LatencyRecorder, &LatencyModel)>,
    rng: &mut StdRng,
) -> Replay {
    model.reset(data);
    let mut sampler = NegativeSampler::new();
    let mut cost = SplitCost::default();
    run_range(
        model,
        None,
        data,
        split.train.clone(),
        batch_size,
        &mut sampler,
        0.0,
        rng,
        None,
        None,
        &mut cost,
        None,
    );
    let mut val = ScoreLog::default();
    run_range(
        model,
        None,
        data,
        split.val.clone(),
        batch_size,
        &mut sampler,
        0.0,
        rng,
        Some(&mut val),
        Some(&split.train_nodes),
        &mut cost,
        None,
    );
    let mut test_cost = SplitCost::default();
    let mut test = ScoreLog::default();
    run_range(
        model,
        None,
        data,
        split.test.clone(),
        batch_size,
        &mut sampler,
        0.0,
        rng,
        Some(&mut test),
        Some(&split.train_nodes),
        &mut test_cost,
        latency,
    );
    Replay {
        val,
        test,
        test_cost,
    }
}

/// Link-prediction training outcome.
#[derive(Clone, Debug)]
pub struct LinkOutcome {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation AP per epoch.
    pub val_aps: Vec<f64>,
    /// Epoch whose parameters were kept.
    pub best_epoch: usize,
    /// Final validation AP (best parameters).
    pub val_ap: f64,
    /// Final test AP.
    pub test_ap: f64,
    /// Final test accuracy.
    pub test_acc: f64,
    /// Test AP over pairs involving a training-unseen node (inductive),
    /// when such pairs exist.
    pub test_ap_inductive: Option<f64>,
    /// Test AP over fully-seen pairs (transductive).
    pub test_ap_transductive: Option<f64>,
    /// Sync/async query cost over the final test replay (`post` is the
    /// asynchronous link's work, for the efficiency analysis).
    pub test_cost: SplitCost,
}

/// Trains `model` for link prediction with the Table 2 protocol — train
/// on the first 70% of the stream, select on the next 15%, report on the
/// last 15% — and returns test metrics under the best-validation
/// parameters.
pub fn train_link_prediction<M: DynamicModel + ?Sized>(
    model: &mut M,
    data: &TemporalDataset,
    split: &ChronoSplit,
    tc: &TrainConfig,
    rng: &mut StdRng,
) -> LinkOutcome {
    let mut opt = Adam::new(tc.lr);
    let mut epoch_losses = Vec::new();
    let mut val_aps = Vec::new();
    let mut best: Option<(f64, ParamStore, usize)> = None;
    let mut since_best = 0usize;

    for epoch in 0..tc.epochs {
        model.reset(data);
        let mut sampler = NegativeSampler::new();
        let mut cost = SplitCost::default();
        let loss = run_range(
            model,
            Some(&mut opt),
            data,
            split.train.clone(),
            tc.batch_size,
            &mut sampler,
            tc.grad_clip,
            rng,
            None,
            None,
            &mut cost,
            None,
        );
        epoch_losses.push(loss);
        // validation: continue the same stream in eval mode
        let mut val_log = ScoreLog::default();
        run_range(
            model,
            None,
            data,
            split.val.clone(),
            tc.batch_size,
            &mut sampler,
            0.0,
            rng,
            Some(&mut val_log),
            None,
            &mut cost,
            None,
        );
        let val_ap = val_log.ap();
        val_aps.push(val_ap);
        let improved = best.as_ref().map(|(b, _, _)| val_ap > *b).unwrap_or(true);
        if improved {
            best = Some((val_ap, model.params().clone(), epoch));
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= tc.patience {
                break;
            }
        }
    }
    let (_, best_params, best_epoch) = best.expect("at least one epoch");
    model.params_mut().copy_from(&best_params);

    let last = replay(model, data, split, tc.batch_size, None, rng);
    LinkOutcome {
        epoch_losses,
        val_aps,
        best_epoch,
        val_ap: last.val.ap(),
        test_ap: last.test.ap(),
        test_acc: last.test.accuracy(),
        test_ap_inductive: last.test.ap_inductive(),
        test_ap_transductive: last.test.ap_transductive(),
        test_cost: last.test_cost,
    }
}

/// Inference-latency measurement (Figure 6): one [`replay`] with a
/// recorder on the test range. Returns `(test AP, recorder, test cost)`;
/// the recorded time per batch is wall-clock of the synchronous path plus
/// `latency_model` applied to the queries that path issued.
pub fn measure_inference<M: DynamicModel + ?Sized>(
    model: &mut M,
    data: &TemporalDataset,
    split: &ChronoSplit,
    batch_size: usize,
    latency_model: &LatencyModel,
    rng: &mut StdRng,
) -> (f64, LatencyRecorder, SplitCost) {
    let mut rec = LatencyRecorder::new();
    let run = replay(
        model,
        data,
        split,
        batch_size,
        Some((&mut rec, latency_model)),
        rng,
    );
    (run.test.ap(), rec, run.test_cost)
}

// ---------------------------------------------------------------------
// Classification (Table 3)
// ---------------------------------------------------------------------

/// Classification outcome (Table 3).
#[derive(Clone, Debug)]
pub struct ClassOutcome {
    /// Validation ROC AUC.
    pub val_auc: f64,
    /// Test ROC AUC.
    pub test_auc: f64,
}

/// Replays the full stream in eval mode from reset serving state,
/// recording one decoder-input row per event (indexed by event id):
/// `z_src ‖ e` for node classification, `z_src ‖ e ‖ z_dst` for edge
/// classification.
fn collect_embeddings<M: DynamicModel + ?Sized>(
    model: &mut M,
    data: &TemporalDataset,
    batch_size: usize,
    rng: &mut StdRng,
) -> Tensor {
    let d = model.dim();
    let edge_task = data.label_kind == apan_data::LabelKind::Edge;
    let width = if edge_task { 3 * d } else { 2 * d };
    let n = data.num_events();
    let mut inputs = Tensor::zeros(n, width);

    model.reset(data);
    let mut cost = SplitCost::default();
    for rel in BatchIter::new(n, batch_size) {
        let events = &data.graph.events()[rel.clone()];
        let src: Vec<NodeId> = events.iter().map(|e| e.src).collect();
        let dst: Vec<NodeId> = events.iter().map(|e| e.dst).collect();
        let visible = events.first().expect("non-empty").time;
        let now = events.last().expect("non-empty").time;
        let (unique, maps) = dedup_nodes(&[&src, &dst]);
        let z_val = {
            let mut fwd = Fwd::new(model.params(), false);
            let z = model.embed(&mut fwd, data, &unique, visible, now, rng, &mut cost.sync);
            fwd.g.value(z).clone()
        };
        for (bi, e) in events.iter().enumerate() {
            let row = inputs.row_slice_mut(e.eid as usize);
            let zs = z_val.row_slice(maps[0][bi]);
            if edge_task {
                row[..d].copy_from_slice(zs);
                row[d..2 * d].copy_from_slice(data.feature(e.eid));
                row[2 * d..].copy_from_slice(z_val.row_slice(maps[1][bi]));
            } else {
                row[..d].copy_from_slice(zs);
                row[d..].copy_from_slice(data.feature(e.eid));
            }
        }
        model.post_step(data, events, &unique, &maps, &z_val, &mut cost.post);
    }
    inputs
}

/// Trains the model's task decoder on replayed embeddings with balanced
/// minibatches (the labels are heavily skewed) and reports val/test ROC
/// AUC.
///
/// Call after [`train_link_prediction`] so the encoder is meaningful;
/// that ordering is the protocol TGAT/TGN (and Table 3) use.
pub fn train_classification<M: DynamicModel + ?Sized>(
    model: &mut M,
    data: &TemporalDataset,
    split: &ChronoSplit,
    tc: &TrainConfig,
    decoder_steps: usize,
    rng: &mut StdRng,
) -> ClassOutcome {
    let d = model.dim();
    let edge_task = data.label_kind == apan_data::LabelKind::Edge;
    let inputs = collect_embeddings(model, data, tc.batch_size, rng);

    let collect = |r: &Range<usize>| -> (Vec<usize>, Vec<bool>) {
        let mut idx = Vec::new();
        let mut lab = Vec::new();
        for eid in r.clone() {
            if let Some(l) = data.labels[eid] {
                idx.push(eid);
                lab.push(l);
            }
        }
        (idx, lab)
    };
    let (train_idx, train_lab) = collect(&split.train);
    let (val_idx, val_lab) = collect(&split.val);
    let (test_idx, test_lab) = collect(&split.test);
    let pos: Vec<usize> = train_idx
        .iter()
        .zip(&train_lab)
        .filter_map(|(&i, &l)| l.then_some(i))
        .collect();
    let negs: Vec<usize> = train_idx
        .iter()
        .zip(&train_lab)
        .filter_map(|(&i, &l)| (!l).then_some(i))
        .collect();

    let mut opt = Adam::new(tc.lr);
    if !pos.is_empty() && !negs.is_empty() {
        let half = 64usize;
        for _ in 0..decoder_steps {
            let mut rows = Vec::with_capacity(2 * half);
            let mut targets = Tensor::zeros(2 * half, 1);
            for i in 0..half {
                rows.push(pos[rng.gen_range(0..pos.len())]);
                targets.set(i, 0, 1.0);
            }
            for _ in 0..half {
                rows.push(negs[rng.gen_range(0..negs.len())]);
            }
            let x = inputs.gather_rows(&rows);
            let grads = {
                let mut fwd = Fwd::new(model.params(), true);
                let xv = fwd.g.constant(x);
                let logits = if edge_task {
                    let zi = fwd.g.slice_cols(xv, 0, d);
                    let ef = fwd.g.slice_cols(xv, d, d);
                    let zj = fwd.g.slice_cols(xv, 2 * d, d);
                    let ef_t = fwd.g.value(ef).clone();
                    model.classify_edges(&mut fwd, zi, &ef_t, zj, rng)
                } else {
                    let zi = fwd.g.slice_cols(xv, 0, d);
                    let ef = fwd.g.slice_cols(xv, d, d);
                    let ef_t = fwd.g.value(ef).clone();
                    model.classify_nodes(&mut fwd, zi, &ef_t, rng)
                };
                let loss = fwd.g.bce_with_logits_mean(logits, &targets);
                fwd.finish(loss)
            };
            opt.step(model.params_mut(), &grads);
        }
    }

    let mut score = |idx: &[usize]| -> Vec<f32> {
        if idx.is_empty() {
            return Vec::new();
        }
        let x = inputs.gather_rows(idx);
        let mut fwd = Fwd::new(model.params(), false);
        let xv = fwd.g.constant(x);
        let logits = if edge_task {
            let zi = fwd.g.slice_cols(xv, 0, d);
            let ef = fwd.g.slice_cols(xv, d, d);
            let zj = fwd.g.slice_cols(xv, 2 * d, d);
            let ef_t = fwd.g.value(ef).clone();
            model.classify_edges(&mut fwd, zi, &ef_t, zj, rng)
        } else {
            let zi = fwd.g.slice_cols(xv, 0, d);
            let ef = fwd.g.slice_cols(xv, d, d);
            let ef_t = fwd.g.value(ef).clone();
            model.classify_nodes(&mut fwd, zi, &ef_t, rng)
        };
        fwd.g
            .value(logits)
            .data()
            .iter()
            .map(|&x| stable_sigmoid(x))
            .collect()
    };
    let val_scores = score(&val_idx);
    let test_scores = score(&test_idx);
    ClassOutcome {
        val_auc: roc_auc(&val_scores, &val_lab),
        test_auc: roc_auc(&test_scores, &test_lab),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlotEncoding;
    use crate::pipeline::ServingPipeline;
    use apan_data::generators::GenConfig;
    use apan_data::{LabelKind, SplitFractions};
    use rand::SeedableRng;

    /// A tiny, strongly structured dataset the model can learn quickly.
    fn tiny_dataset(seed: u64) -> TemporalDataset {
        let cfg = GenConfig {
            name: "tiny".into(),
            num_users: 160,
            num_items: 90,
            num_events: 2000,
            feature_dim: 8,
            timespan: 1000.0,
            latent_dim: 4,
            repeat_prob: 0.8,
            recency_window: 3,
            zipf_user: 0.8,
            zipf_item: 1.0,
            target_positives: 250,
            label_kind: LabelKind::NodeState,
            bipartite: true,
            feature_noise: 0.2,
            burstiness: 0.3,
            fraud_burst_len: 0,
            drift_magnitude: 5.0,
            drift_run: 3,
        };
        apan_data::generators::generate_seeded(&cfg, seed)
    }

    fn tiny_config() -> ApanConfig {
        let mut cfg = ApanConfig::new(8);
        cfg.mailbox_slots = 5;
        cfg.sampled_neighbors = 5;
        cfg.mlp_hidden = 24;
        cfg.dropout = 0.0;
        cfg
    }

    fn tiny_model(rng: &mut StdRng) -> ApanDyn {
        ApanDyn::new(&tiny_config(), rng)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn link_training_beats_chance() {
        let data = tiny_dataset(0);
        let split = ChronoSplit::new(&data, SplitFractions::paper_default());
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = tiny_model(&mut rng);
        let tc = TrainConfig {
            epochs: 8,
            batch_size: 30,
            lr: 1e-2,
            patience: 8,
            grad_clip: 5.0,
        };
        let out = train_link_prediction(&mut model, &data, &split, &tc, &mut rng);
        // random scoring gives AP = 0.5 (half the eval pairs are positive)
        assert!(
            out.test_ap > 0.58,
            "test AP {} should beat chance",
            out.test_ap
        );
        assert!(out.test_acc > 0.52, "test acc {}", out.test_acc);
        assert!(!out.epoch_losses.is_empty());
        assert!(out.best_epoch < out.val_aps.len());
    }

    #[test]
    fn apan_trains_through_the_shared_harness() {
        let data = tiny_dataset(0);
        let split = ChronoSplit::new(&data, SplitFractions::paper_default());
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = tiny_model(&mut rng);
        let tc = TrainConfig {
            epochs: 6,
            batch_size: 50,
            lr: 5e-3,
            patience: 6,
            grad_clip: 5.0,
        };
        let out = train_link_prediction(&mut model, &data, &split, &tc, &mut rng);
        assert!(out.test_ap > 0.55, "test AP {}", out.test_ap);
        // the defining property: zero queries on the synchronous path
        assert_eq!(out.test_cost.sync.queries, 0);
        assert!(out.test_cost.post.queries > 0);
    }

    #[test]
    fn training_reduces_loss() {
        let data = tiny_dataset(1);
        let split = ChronoSplit::new(&data, SplitFractions::paper_default());
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = tiny_model(&mut rng);
        let tc = TrainConfig {
            epochs: 6,
            batch_size: 30,
            lr: 1e-2,
            patience: 6,
            grad_clip: 5.0,
        };
        let out = train_link_prediction(&mut model, &data, &split, &tc, &mut rng);
        let first = out.epoch_losses[0];
        let min_later = out.epoch_losses[1..]
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min);
        assert!(
            min_later < first,
            "loss did not decrease: first {first}, best later {min_later}"
        );
    }

    #[test]
    fn classification_beats_chance() {
        let data = tiny_dataset(2);
        let split = ChronoSplit::new(&data, SplitFractions::paper_default());
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = tiny_model(&mut rng);
        let tc = TrainConfig {
            epochs: 2,
            batch_size: 30,
            lr: 5e-3,
            patience: 2,
            grad_clip: 5.0,
        };
        train_link_prediction(&mut model, &data, &split, &tc, &mut rng);
        let out = train_classification(&mut model, &data, &split, &tc, 300, &mut rng);
        // positives are drift-marked, so anything learning should clear 0.5
        assert!(
            out.test_auc > 0.65,
            "test AUC {} should beat chance",
            out.test_auc
        );
    }

    #[test]
    fn eval_pass_is_deterministic() {
        let data = tiny_dataset(3);
        let split = ChronoSplit::new(&data, SplitFractions::paper_default());
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = tiny_model(&mut rng);

        let run = |model: &mut ApanDyn| {
            model.reset(&data);
            let mut sampler = NegativeSampler::new();
            let mut log = ScoreLog::default();
            // fixed rng ⇒ identical negatives ⇒ identical scores
            let mut rng2 = StdRng::seed_from_u64(99);
            run_range(
                model,
                None,
                &data,
                split.train.clone(),
                50,
                &mut sampler,
                0.0,
                &mut rng2,
                Some(&mut log),
                None,
                &mut SplitCost::default(),
                None,
            );
            log.scores
        };
        let a = run(&mut model);
        let b = run(&mut model);
        assert_eq!(a, b);
    }

    /// What `apan eval` relies on: a replay is evaluation only. Dropout
    /// is configured on, so a pass that trained (or merely ran the
    /// forward in training mode) would show up in both assertions.
    #[test]
    fn replay_touches_no_parameter_and_repeats() {
        let data = tiny_dataset(3);
        let split = ChronoSplit::new(&data, SplitFractions::paper_default());
        let mut cfg = tiny_config();
        cfg.dropout = 0.1;
        let mut model = ApanDyn::new(&cfg, &mut StdRng::seed_from_u64(3));
        let before = model.model.params.clone();

        let mut run = || {
            let mut rng = StdRng::seed_from_u64(99);
            let r = replay(&mut model, &data, &split, 50, None, &mut rng);
            (r.test.ap().to_bits(), r.test.accuracy().to_bits())
        };
        let a = run();
        assert_eq!(a, run());
        for (id, name, t) in before.iter() {
            let after = model.model.params.get(id);
            assert_eq!(bits(t.data()), bits(after.data()), "replay moved {name}");
        }
    }

    /// Training and serving read mail ages on one clock: under the
    /// temporal slot encoding (the only consumer of mail ages), the
    /// embeddings the eval replay computes for every batch are, bit for
    /// bit, the ones the serving pipeline returns for the same batches
    /// once each batch's propagation has settled.
    #[test]
    fn eval_replay_embeds_on_the_serving_clock() {
        let data = tiny_dataset(4);
        let mut cfg = tiny_config();
        cfg.slot_encoding = SlotEncoding::Temporal;
        let d = cfg.dim;
        let batch_size = 40;
        let mut offline = ApanDyn::new(&cfg, &mut StdRng::seed_from_u64(4));
        // identical seed ⇒ identical weights
        let served = ApanDyn::new(&cfg, &mut StdRng::seed_from_u64(4)).model;

        let mut rng = StdRng::seed_from_u64(0);
        let inputs = collect_embeddings(&mut offline, &data, batch_size, &mut rng);

        let mut pipeline = ServingPipeline::new(served, data.num_nodes(), 16);
        for chunk in data.graph.events().chunks(batch_size) {
            let eids: Vec<u32> = chunk.iter().map(|e| e.eid).collect();
            let r = pipeline.infer_batch(chunk, &data.feature_batch(&eids));
            pipeline.flush();
            for e in chunk {
                let row = r.nodes.iter().position(|&n| n == e.src).expect("embedded");
                assert_eq!(
                    bits(r.embeddings.row_slice(row)),
                    bits(&inputs.row_slice(e.eid as usize)[..d]),
                    "event {} (t = {})",
                    e.eid,
                    e.time
                );
            }
        }
        pipeline.shutdown();
    }
}
