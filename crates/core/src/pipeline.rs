//! The real-time serving pipeline (Fig. 2b).
//!
//! This is the deployment architecture the paper builds APAN for:
//!
//! * the **synchronous path** ([`ServingPipeline::infer_batch`]) takes a
//!   batch of arriving interactions, reads only mailbox state, runs the
//!   encoder + decoder, stores the fresh embeddings, and returns scores —
//!   its wall-clock time is what Figure 6 reports as "inference speed";
//! * the **asynchronous link** (`link.rs`) is one background worker fed
//!   through a bounded channel; it inserts the events into the temporal
//!   graph and runs the k-hop mail propagation, off the user-facing
//!   path, one job at a time in submission order. The hand-off is an
//!   owned job — the batch's embedding rows and edge features move
//!   across the channel as tensors. Only a cluster owner forwarding a job to its peer
//!   replicas serializes it ([`wire`]), and
//!   [`ServingPipeline::submit_remote`] is where those bytes come back
//!   in and are validated.
//!
//! The two links are the pipeline's parallelism: each runs its kernels
//! inline on its own thread ([`pool::inline`]) instead of forking onto
//! the shared tensor pool (`DESIGN.md` §6.24).
//!
//! Backpressure is real: if propagation falls behind, the bounded channel
//! blocks the producer, surfacing exactly the overload scenario the paper
//! discusses (Black-Friday bursts), instead of letting the mailbox lag
//! grow without bound.

use crate::link::{propagation_worker, Link, PropagateJob};
use crate::mailbox::MailboxStore;
use crate::model::{dedup_nodes, Apan};
use crate::plan::InferencePlan;
use crate::propagator::Interaction;
use crate::shard::{shards_from_env, ShardedMailboxStore};
use apan_metrics::{Clock, LatencyRecorder, ObsHub, Stage};
use apan_tensor::backend::pool;
use apan_tensor::Tensor;
use apan_tgraph::{NodeId, TemporalGraph};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

pub use crate::lateness::AdmitKind;
pub use crate::link::{PropLink, PropStats};
pub use crate::wire;

/// Result of one synchronous inference call.
pub struct InferResult {
    /// Link score (sigmoid) per interaction.
    pub scores: Vec<f32>,
    /// Fresh embeddings, one row per entry of `nodes`.
    pub embeddings: Tensor,
    /// The unique nodes that were (re-)embedded.
    pub nodes: Vec<NodeId>,
    /// Wall-clock time of the synchronous path only.
    pub sync_time: Duration,
}

/// Latency samples a serving recorder retains — the pipeline's
/// [`ServingPipeline::sync_latency`] and the daemon's `STATS` window
/// alike: enough for stable tails, small enough that a long-lived
/// process's recorder memory and percentile sort stay constant.
pub const LATENCY_WINDOW: usize = 8192;

/// Checks a peer's decoded job for internal consistency and returns its
/// distinct endpoints, the rows of `z` in order. The row maps must be
/// exactly the deduplication of the endpoints (which an owner computes
/// the same way), `z` must hold one `dim`-wide row per distinct
/// endpoint and `feats` one per interaction, and late indices must be
/// strictly increasing, in range and at finite event times.
fn remote_job_nodes(
    job: &wire::WireJob,
    z: &Tensor,
    feats: &Tensor,
    dim: usize,
) -> Option<Vec<NodeId>> {
    let src: Vec<NodeId> = job.interactions.iter().map(|i| i.src).collect();
    let dst: Vec<NodeId> = job.interactions.iter().map(|i| i.dst).collect();
    let (unique, maps) = dedup_nodes(&[&src, &dst]);
    let shapes_ok = z.shape() == (unique.len(), dim)
        && feats.shape() == (job.interactions.len(), dim)
        && maps[0] == job.src_rows
        && maps[1] == job.dst_rows;
    let late_ok = job.late.windows(2).all(|w| w[0] < w[1])
        && job.late.iter().all(|&l| {
            job.interactions
                .get(l as usize)
                .is_some_and(|i| i.time.is_finite())
        });
    (shapes_ok && late_ok).then_some(unique)
}

/// A deployed APAN model: synchronous inference plus one propagation
/// worker draining its jobs in submission order.
pub struct ServingPipeline {
    model: Arc<Apan>,
    /// Serving state, counters and the observability hub, shared with
    /// the propagation worker.
    link: Arc<Link>,
    /// Feeds the worker; dropping it stops the worker once the queue
    /// has drained.
    tx: Option<SyncSender<Box<PropagateJob>>>,
    worker: Option<JoinHandle<()>>,
    /// The synchronous forward, compiled once from `model`.
    plan: InferencePlan,
    /// Latency of every synchronous inference call: `len()` counts them
    /// all, percentiles cover the most recent window.
    pub sync_latency: LatencyRecorder,
}

impl ServingPipeline {
    /// Deploys `model` with serving state for `num_nodes` nodes and a
    /// propagation queue of `capacity` jobs, drained by one worker.
    pub fn new(model: Apan, num_nodes: usize, capacity: usize) -> Self {
        let store = model.new_store(num_nodes);
        let graph = TemporalGraph::with_capacity(num_nodes, 1024);
        Self::with_state(model, store, graph, capacity)
    }

    /// Deploys `model` resuming from existing serving state — the
    /// warm-restart path: a snapshotted mailbox store and temporal graph
    /// go back in and serving continues exactly where it left off.
    ///
    /// # Panics
    /// Panics if `store`'s mail width differs from the model dimension.
    pub fn with_state(
        model: Apan,
        store: MailboxStore,
        graph: TemporalGraph,
        capacity: usize,
    ) -> Self {
        assert_eq!(
            store.dim(),
            model.cfg.dim,
            "mailbox store width does not match model dimension"
        );
        // A configured mailbox budget turns on tiered residency: hot
        // pools bounded to the budget, the rest spilled to the cold
        // tier. Served bits are identical either way.
        let store = Arc::new(
            ShardedMailboxStore::from_flat_tiered(
                &store,
                shards_from_env(),
                model.cfg.mailbox_budget,
                model.cfg.mailbox_spill.as_deref(),
            )
            .expect("failed to open the mailbox cold tier spill directory"),
        );
        let obs = ObsHub::new();
        // Tier events (evict / promote / cold read) span through the
        // same hub; a store with no tier never fires them.
        store.tier_stats().install_obs(obs.clone());
        let link = Arc::new(Link::new(
            store,
            graph,
            model.propagator,
            model.cfg.mail_content,
            obs,
        ));
        let (tx, rx) = sync_channel(capacity.max(1));
        let worker = {
            let link = Arc::clone(&link);
            std::thread::Builder::new()
                .name("apan-propagate".into())
                .spawn(move || propagation_worker(rx, link))
                .expect("spawn the propagation worker")
        };

        Self {
            plan: InferencePlan::compile(&model),
            model: Arc::new(model),
            link,
            tx: Some(tx),
            worker: Some(worker),
            sync_latency: LatencyRecorder::bounded(LATENCY_WINDOW),
        }
    }

    /// Replaces the time source behind `sync_time` stamps and every
    /// stage span — including the propagation worker's, which shares
    /// the hub. The deterministic simulation harness injects the scenario's
    /// virtual clock here so the pipeline's latency numbers move on
    /// simulated time along with the rest of the serving stack.
    pub fn set_clock(&mut self, clock: Clock) {
        self.link.obs.set_clock(clock);
    }

    /// The pipeline's observability hub: stage histograms, `prop_lag`,
    /// the injectable clock, and the optional trace sink. Clones share
    /// state with the pipeline and its worker, so a serving daemon can
    /// render METRICS from its own handle.
    pub fn obs(&self) -> ObsHub {
        self.link.obs.clone()
    }

    /// The synchronous inference path: encodes the batch's unique nodes
    /// from mailbox state, scores each interaction with the link decoder,
    /// stores the new embeddings, and hands mail propagation to the
    /// background worker. Only the part before the hand-off is timed.
    /// Every interaction is admitted in order, untraced.
    pub fn infer_batch(&mut self, interactions: &[Interaction], feats: &Tensor) -> InferResult {
        let kinds = vec![AdmitKind::InOrder; interactions.len()];
        self.infer_batch_admitted(interactions, feats, &kinds, 0, None)
    }

    /// The full form of [`ServingPipeline::infer_batch`]: one
    /// [`AdmitKind`] per interaction from bounded-lateness admission,
    /// plus trace context — `trace_id` tags the batch's
    /// `encode`/`decode_score` spans (and the propagation worker's spans
    /// downstream), and `admitted` anchors the `prop_lag` age
    /// measurement at the request's admission stamp instead of at the
    /// start of the synchronous path. Every interaction is scored (a
    /// dropped event still gets a read-only prediction), but dropped
    /// events are excluded from the embedding write-back, from the
    /// batch's reference time, and from the propagation job; late
    /// events ride the job flagged for the reorder buffer.
    pub fn infer_batch_admitted(
        &mut self,
        interactions: &[Interaction],
        feats: &Tensor,
        kinds: &[AdmitKind],
        trace_id: u64,
        admitted: Option<Duration>,
    ) -> InferResult {
        let (result, job) = self.sync_path(interactions, feats, kinds, trace_id, admitted);
        self.submit_job(job);
        result
    }

    /// [`ServingPipeline::infer_batch_admitted`] for a cluster replica:
    /// besides running the local synchronous path and queueing the local
    /// propagation job, returns the job's wire encoding for forwarding to
    /// peer replicas ([`wire::encode_job`] framing). The forwarded job
    /// carries only admitted interactions, their late flags and their
    /// endpoints' embedding rows (peers have no encoder output of their
    /// own to write back), so a peer that feeds those bytes to
    /// [`ServingPipeline::submit_remote`] in the same order replays this
    /// replica's state transitions bitwise.
    pub fn infer_batch_cluster_admitted(
        &mut self,
        interactions: &[Interaction],
        feats: &Tensor,
        kinds: &[AdmitKind],
        trace_id: u64,
        admitted: Option<Duration>,
    ) -> (InferResult, bytes::Bytes) {
        let (result, job) = self.sync_path(interactions, feats, kinds, trace_id, admitted);
        let encoded = wire::encode_job(&wire::WireJob {
            interactions: job.interactions.clone(),
            src_rows: job.src_rows.clone(),
            dst_rows: job.dst_rows.clone(),
            late: job.late.clone(),
            z_wire: wire::encode_tensor(&job.z),
            feats_wire: wire::encode_tensor(&job.feats),
        });
        self.submit_job(job);
        (result, encoded)
    }

    /// Applies a propagation job replicated from a peer: replays the
    /// sync path's embedding write-back from the job's embedding rows,
    /// then queues the job on the asynchronous link. Feeding every
    /// replica the same job stream in the same order keeps their serving
    /// state bitwise identical to one process serving the merged stream.
    ///
    /// This is where outside bytes enter the link, and the only place
    /// they are checked: a job that fails to decode or is inconsistent
    /// (see `remote_job_nodes`) is dropped whole — counted in
    /// [`PropStats::decode_errors`], no state touched, nothing queued.
    /// Empty jobs (cluster hole-fillers for a failed owner) are no-ops.
    pub fn submit_remote(&mut self, job: wire::WireJob, trace_id: u64) {
        if job.interactions.is_empty() {
            return;
        }
        let decoded = wire::decode_tensor(job.z_wire.clone())
            .ok()
            .zip(wire::decode_tensor(job.feats_wire.clone()).ok())
            .and_then(|(z, feats)| {
                let unique = remote_job_nodes(&job, &z, &feats, self.link.store.dim())?;
                Some((z, feats, unique))
            });
        let Some((z, feats, unique)) = decoded else {
            self.link.state.stats().decode_errors += 1;
            return;
        };
        // Reference time = the batch's max event time: with late events
        // aboard the last interaction is not necessarily the newest one,
        // and the write-back stamp must match the owner's.
        let now = job
            .interactions
            .iter()
            .map(|i| i.time)
            .fold(f64::NEG_INFINITY, f64::max);
        {
            let view = self.link.store.sync_view();
            view.set_trace(trace_id);
            view.set_embeddings(&unique, &z, now);
        }
        let admitted = self.link.obs.now();
        self.submit_job(Box::new(PropagateJob {
            interactions: job.interactions,
            src_rows: job.src_rows,
            dst_rows: job.dst_rows,
            late: job.late,
            z,
            feats,
            trace_id,
            admitted,
        }));
    }

    /// Queues a job on the asynchronous link.
    fn submit_job(&mut self, job: Box<PropagateJob>) {
        self.link.state.pending.increment();
        self.tx
            .as_ref()
            .and_then(|tx| tx.send(job).ok())
            .expect("propagation worker alive");
    }

    /// The synchronous path plus construction (not submission) of the
    /// batch's propagation job. The encoder and decoder run inline on
    /// the calling thread: the propagation worker holds the other core.
    fn sync_path(
        &mut self,
        interactions: &[Interaction],
        feats: &Tensor,
        kinds: &[AdmitKind],
        trace_id: u64,
        admitted: Option<Duration>,
    ) -> (InferResult, Box<PropagateJob>) {
        assert_eq!(
            feats.rows(),
            interactions.len(),
            "one feature row per interaction"
        );
        assert_eq!(
            kinds.len(),
            interactions.len(),
            "one admission kind per interaction"
        );
        let obs = &self.link.obs;
        let start = obs.now();

        let is_admitted = |i: usize| !matches!(kinds[i], AdmitKind::Dropped);
        let src: Vec<NodeId> = interactions.iter().map(|i| i.src).collect();
        let dst: Vec<NodeId> = interactions.iter().map(|i| i.dst).collect();
        // The batch's reference instant (mail ages read by the encoder,
        // embedding write-back stamp): the newest admitted event time.
        // Dropped events must not move time and a late event is never
        // the newest. With every event dropped, score read-only at the
        // last request's time, moving nothing.
        let now = (0..interactions.len())
            .filter(|&i| is_admitted(i))
            .map(|i| interactions[i].time)
            .fold(f64::NEG_INFINITY, f64::max);
        let now = if now.is_finite() {
            now
        } else {
            interactions.last().map(|i| i.time).unwrap_or(0.0)
        };
        let (unique, maps) = dedup_nodes(&[&src, &dst]);

        // The `encode` span is the sync path's one hold of the store
        // lock: mailbox read, encoder forward and embedding write-back,
        // with the tier traffic they cause tagged as this request's.
        // The decoder reads no mailbox and runs after the lock is gone.
        let view = self.link.store.sync_view();
        view.set_trace(trace_id);
        let t_encode0 = obs.stamp();
        let z_val = pool::inline(|| self.plan.encode(&view, &unique, now));
        // Dropped events are scored below but are excluded from the
        // write-back and the propagation job. When any were, `partial`
        // is the admitted view: kept indices, their distinct endpoints,
        // row maps into those, and the endpoints' rows of `z_val`
        // (admitted row `a_maps[l][j]` is batch row `maps[l][keep[j]]`).
        let partial = (0..kinds.len()).any(|i| !is_admitted(i)).then(|| {
            let keep: Vec<usize> = (0..kinds.len()).filter(|&i| is_admitted(i)).collect();
            let a_src: Vec<NodeId> = keep.iter().map(|&i| src[i]).collect();
            let a_dst: Vec<NodeId> = keep.iter().map(|&i| dst[i]).collect();
            let (a_unique, a_maps) = dedup_nodes(&[&a_src, &a_dst]);
            let mut rows = vec![0; a_unique.len()];
            for (a_map, map) in a_maps.iter().zip(&maps) {
                for (&a_row, &i) in a_map.iter().zip(&keep) {
                    rows[a_row] = map[i];
                }
            }
            (keep, a_unique, a_maps, z_val.gather_rows(&rows))
        });
        match &partial {
            None => view.set_embeddings(&unique, &z_val, now),
            Some((_, a_unique, _, a_z)) => view.set_embeddings(a_unique, a_z, now),
        }
        let t_encode1 = obs.stamp();
        drop(view);
        let scores = pool::inline(|| self.plan.score_links(&z_val, &maps[0], &maps[1]));
        let t_decode1 = obs.stamp();
        obs.stage_record(Stage::Encode, trace_id, t_encode0, t_encode1);
        obs.stage_record(Stage::DecodeScore, trace_id, t_encode1, t_decode1);
        let sync_time = obs.now().saturating_sub(start);
        self.sync_latency.record(sync_time);

        // Asynchronous hand-off (not timed: the user already has scores).
        // `dedup_nodes` returns only referenced nodes, so the job's
        // embedding rows are exactly the admitted endpoints' rows.
        let (job_interactions, job_feats, maps, z) = match partial {
            None => (interactions.to_vec(), feats.clone(), maps, z_val.clone()),
            Some((keep, _, a_maps, a_z)) => (
                keep.iter().map(|&i| interactions[i]).collect(),
                feats.gather_rows(&keep),
                a_maps,
                a_z,
            ),
        };
        let [src_rows, dst_rows]: [Vec<usize>; 2] = maps
            .try_into()
            .expect("two node lists in, two row maps out");
        // late flags index the admitted (job) interaction list
        let late: Vec<u32> = kinds
            .iter()
            .filter(|k| !matches!(k, AdmitKind::Dropped))
            .enumerate()
            .filter(|(_, k)| matches!(k, AdmitKind::Late))
            .map(|(ai, _)| ai as u32)
            .collect();
        let job = Box::new(PropagateJob {
            interactions: job_interactions,
            src_rows,
            dst_rows,
            late,
            z,
            feats: job_feats,
            trace_id,
            admitted: admitted.unwrap_or(start),
        });
        let result = InferResult {
            scores,
            embeddings: z_val,
            nodes: unique,
            sync_time,
        };
        (result, job)
    }

    /// Jobs queued or in flight on the asynchronous link.
    pub fn pending_jobs(&self) -> usize {
        self.link.state.pending.current()
    }

    /// Blocks until the asynchronous link has drained. Sleeps on a
    /// condvar signalled by the worker, so a draining pipeline costs no
    /// CPU the propagation worker could use.
    pub fn flush(&self) {
        self.link.state.pending.wait_drained();
    }

    /// The deployed model (parameters, config, decoders).
    pub fn model(&self) -> &Apan {
        &self.model
    }

    /// Sets the bounded-lateness window the reorder buffer releases
    /// against. Must equal the admission window: releasing earlier than
    /// admission can still admit would let a not-yet-arrived event
    /// precede an already-released one. `None` (and the default)
    /// behaves as a zero window; with no late-flagged jobs the value is
    /// never consulted.
    pub fn set_lateness(&mut self, lateness: Option<f64>) {
        self.link
            .state
            .late()
            .set_lateness(lateness.unwrap_or(0.0).max(0.0));
    }

    /// Late events currently parked in the reorder buffer.
    pub fn reorder_buffered(&self) -> usize {
        self.link.state.late().buffered()
    }

    /// Drains the asynchronous link, then forces every still-buffered
    /// late event through planning and patch-apply in `(time, arrival)`
    /// order — the snapshot-cut flush. Without it, a snapshot taken
    /// inside the lateness window would silently lose buffered events
    /// across a warm restart. Returns the number of entries released.
    pub fn release_reorder_buffer(&self) -> usize {
        self.flush();
        self.link.release_reorder_buffer()
    }

    /// Flushes the asynchronous link and hands back consistent flat
    /// copies of the serving state — the export half of
    /// snapshot/warm-restart. The single flush is what makes the pair
    /// consistent: no mail is in flight between the store and the graph
    /// when they are read. The reorder buffer is force-released first
    /// ([`ServingPipeline::release_reorder_buffer`]), so a snapshot cut
    /// inside the lateness window carries the buffered events' mailbox
    /// effects instead of dropping them. The flat store's snapshot
    /// bytes are identical for every shard count.
    pub fn export_state(&self) -> (MailboxStore, TemporalGraph) {
        self.release_reorder_buffer();
        let store = self.link.store.to_flat();
        let graph = self.link.graph.read().expect("graph lock poisoned").clone();
        (store, graph)
    }

    /// Shared handle to the sharded serving state (for inspection/tests).
    pub fn store(&self) -> Arc<ShardedMailboxStore> {
        Arc::clone(&self.link.store)
    }

    /// Live mailbox-tier counters (residency, evictions, promotions,
    /// cold bytes) — all zeros when no `mailbox_budget` is configured.
    pub fn tier_stats(&self) -> Arc<crate::tier::TierStats> {
        self.link.store.tier_stats()
    }

    /// Shared handle to the growing temporal graph.
    pub fn graph(&self) -> Arc<RwLock<TemporalGraph>> {
        Arc::clone(&self.link.graph)
    }

    /// Live counters for the propagation link (worker stats + queue
    /// depth), detached from the pipeline's lifetime.
    pub fn prop_link(&self) -> PropLink {
        PropLink(Arc::clone(&self.link.state))
    }

    /// Stops the worker and returns its accumulated statistics.
    pub fn shutdown(mut self) -> PropStats {
        self.flush();
        self.stop_worker();
        self.prop_link().stats()
    }

    fn stop_worker(&mut self) {
        self.tx = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for ServingPipeline {
    fn drop(&mut self) {
        self.stop_worker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ApanConfig, MailContent};
    use apan_nn::Fwd;
    use apan_tensor::backend::pool::set_num_threads;
    use apan_tgraph::cost::QueryCost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> Apan {
        model_dim(8)
    }

    fn model_dim(dim: usize) -> Apan {
        let mut cfg = ApanConfig::new(dim);
        cfg.mailbox_slots = 4;
        cfg.mlp_hidden = 16;
        cfg.dropout = 0.0;
        let mut rng = StdRng::seed_from_u64(0);
        Apan::new(&cfg, &mut rng)
    }

    fn batch(k: u64) -> (Vec<Interaction>, Tensor) {
        let interactions = vec![
            Interaction {
                src: 0,
                dst: 1,
                time: k as f64 * 10.0 + 1.0,
                eid: (2 * k) as u32,
            },
            Interaction {
                src: 2,
                dst: 3,
                time: k as f64 * 10.0 + 2.0,
                eid: (2 * k + 1) as u32,
            },
        ];
        let feats = Tensor::full(2, 8, 0.5);
        (interactions, feats)
    }

    /// The exported serving state: mailbox-store snapshot bytes and the
    /// graph's event count.
    fn snapshot(p: &ServingPipeline) -> (Vec<u8>, usize) {
        let (store, graph) = p.export_state();
        let mut buf = Vec::new();
        store.write_snapshot(&mut buf).unwrap();
        (buf, graph.num_events())
    }

    #[test]
    fn scores_and_shapes() {
        let mut p = ServingPipeline::new(model(), 8, 16);
        let (b, f) = batch(0);
        let r = p.infer_batch(&b, &f);
        assert_eq!(r.scores.len(), 2);
        assert!(r.scores.iter().all(|s| (0.0..=1.0).contains(s)));
        assert_eq!(r.embeddings.cols(), 8);
        assert!(r.sync_time > Duration::ZERO);
        p.flush();
        let stats = p.shutdown();
        assert_eq!(stats.jobs, 1);
        assert!(stats.deliveries >= 4);
    }

    #[test]
    fn async_link_fills_mailboxes() {
        let mut p = ServingPipeline::new(model(), 8, 16);
        for k in 0..5 {
            let (b, f) = batch(k);
            p.infer_batch(&b, &f);
        }
        p.flush();
        {
            let s = p.link.store.sync_view();
            assert!(!s.is_empty(0));
            assert!(!s.is_empty(1));
        }
        {
            let g = p.link.graph.read().unwrap();
            assert_eq!(g.num_events(), 10);
        }
        let stats = p.shutdown();
        assert_eq!(stats.jobs, 5);
        assert!(stats.cost.queries > 0);
    }

    /// Serves `batches` through a pipeline, flushing after each one,
    /// against a sequential offline replay of `m_ref` on the tape and a
    /// flat store: embeddings, scores, mailboxes and the graph agree bit
    /// for bit after every batch.
    fn assert_matches_offline_replay(
        m_pipe: Apan,
        m_ref: Apan,
        num_nodes: usize,
        batches: &[(Vec<Interaction>, Tensor)],
    ) {
        use apan_tensor::ops::stable_sigmoid;
        let mut p = ServingPipeline::new(m_pipe, num_nodes, 16);
        let mut ref_store = m_ref.new_store(num_nodes);
        let mut ref_graph = TemporalGraph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut cost = QueryCost::new();
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();

        for (k, (b, f)) in batches.iter().enumerate() {
            let r = p.infer_batch(b, f);
            p.flush();

            // offline reference
            let src: Vec<NodeId> = b.iter().map(|i| i.src).collect();
            let dst: Vec<NodeId> = b.iter().map(|i| i.dst).collect();
            let (unique, maps) = dedup_nodes(&[&src, &dst]);
            let now = b.last().unwrap().time;
            let (z, scores) = {
                let mut fwd = Fwd::new(&m_ref.params, false);
                let enc = m_ref.encode(&mut fwd, &ref_store, &unique, now, &mut rng);
                let zi = fwd.g.gather_rows(enc.z, &maps[0]);
                let zj = fwd.g.gather_rows(enc.z, &maps[1]);
                let logits = m_ref.link_decoder.forward(&mut fwd, zi, zj, &mut rng);
                let scores: Vec<f32> = fwd
                    .g
                    .value(logits)
                    .data()
                    .iter()
                    .map(|&x| stable_sigmoid(x))
                    .collect();
                (fwd.g.value(enc.z).clone(), scores)
            };
            for i in b {
                ref_graph.insert(i.src, i.dst, i.time);
            }
            m_ref.post_step(
                &mut ref_store,
                &ref_graph,
                b,
                &unique,
                &z,
                &maps[0],
                &maps[1],
                f,
                &mut cost,
            );
            let what =
                |part: &str| format!("pipeline diverged from offline replay at batch {k}: {part}");
            assert_eq!(
                bits(r.embeddings.data()),
                bits(z.data()),
                "{}",
                what("embeddings")
            );
            assert_eq!(bits(&r.scores), bits(&scores), "{}", what("scores"));
            let (store, graph) = p.export_state();
            let (mut served, mut offline) = (Vec::new(), Vec::new());
            store.write_snapshot(&mut served).unwrap();
            ref_store.write_snapshot(&mut offline).unwrap();
            assert!(served == offline, "{}", what("mailboxes"));
            assert_eq!(graph.events(), ref_graph.events(), "{}", what("graph"));
        }
    }

    #[test]
    fn matches_offline_replay_when_flushed() {
        // identical seed ⇒ identical weights
        let batches: Vec<_> = (0..4).map(batch).collect();
        assert_matches_offline_replay(model(), model(), 8, &batches);
    }

    #[test]
    fn inline_serving_matches_a_forking_offline_replay() {
        // The served side runs every kernel inline; the offline side
        // forks at width 2 (even on a one-CPU runner): 32 events over
        // 96 nodes embed 53 or 54 distinct nodes per batch, past the
        // 28-row split of a 48×48 GEMM, and deliver to well over the
        // 16 destinations at which the plan's per-node reduction splits.
        set_num_threads(2);
        let (d, nodes, len) = (48, 96u32, 32);
        let batches: Vec<_> = (0..4u32)
            .map(|k| {
                let interactions: Vec<Interaction> = (0..len)
                    .map(|i| {
                        let src = (7 * i + 13 * k) % nodes;
                        let dst = (11 * i + 5 * k + 1) % nodes;
                        Interaction {
                            src,
                            dst: if dst == src { (dst + 1) % nodes } else { dst },
                            time: f64::from(100 * k + i + 1),
                            eid: k * len + i,
                        }
                    })
                    .collect();
                let feats: Vec<f32> = (0..len as usize * d)
                    .map(|j| (j * 37 % 101) as f32 / 101.0 - 0.5)
                    .collect();
                (interactions, Tensor::from_vec(len as usize, d, feats))
            })
            .collect();
        assert_matches_offline_replay(model_dim(d), model_dim(d), nodes as usize, &batches);
    }

    #[test]
    fn pending_counter_drains() {
        let mut p = ServingPipeline::new(model(), 8, 64);
        for k in 0..8 {
            let (b, f) = batch(k);
            p.infer_batch(&b, &f);
        }
        p.flush();
        assert_eq!(p.pending_jobs(), 0);
        assert_eq!(p.sync_latency.len(), 8);
    }

    #[test]
    fn sync_latency_is_a_bounded_window() {
        let mut p = ServingPipeline::new(model(), 8, 64);
        let (b, f) = batch(0);
        p.infer_batch(&b, &f);
        // two windows of slow samples, then one window of fast ones: a
        // recorder retaining at most one window has forgotten every
        // slow sample (and the real one above), yet counted them all
        for _ in 1..2 * LATENCY_WINDOW {
            p.sync_latency.record(Duration::from_secs(1));
        }
        for _ in 0..LATENCY_WINDOW {
            p.sync_latency.record(Duration::from_millis(1));
        }
        assert_eq!(p.sync_latency.len(), 3 * LATENCY_WINDOW);
        assert_eq!(p.sync_latency.max(), Duration::from_millis(1));
    }

    #[cfg(not(feature = "trace-off"))]
    #[test]
    fn stage_histograms_and_trace_events_flow_through_the_pool() {
        use apan_metrics::TraceSink;
        let mut p = ServingPipeline::new(model(), 8, 16);
        let obs = p.obs();
        obs.install_sink(TraceSink::with_shards(256, 2));
        for k in 0..3u64 {
            let (b, f) = batch(k);
            p.infer_batch_admitted(&b, &f, &[AdmitKind::InOrder; 2], 100 + k, None);
            p.flush();
        }
        // every stage histogram saw one record per batch
        for stage in [
            Stage::Encode,
            Stage::DecodeScore,
            Stage::Commit,
            Stage::Plan,
            Stage::Deliver,
        ] {
            assert_eq!(obs.stage_snapshot(stage).count(), 3, "{}", stage.name());
        }
        assert!(obs.prop_lag_snapshot().count() >= 3 * 4, "one lag per mail");
        // trace events correlate by id and cover both links
        let events = obs.drain_events();
        for k in 0..3u64 {
            let stages: Vec<Stage> = events
                .iter()
                .filter(|e| e.trace_id == 100 + k)
                .map(|e| e.stage)
                .collect();
            for stage in [
                Stage::Encode,
                Stage::DecodeScore,
                Stage::Commit,
                Stage::Plan,
                Stage::Deliver,
            ] {
                assert!(
                    stages.contains(&stage),
                    "batch {k} missing {}",
                    stage.name()
                );
            }
        }
        assert!(obs.drain_events().is_empty(), "drain empties the sink");
    }

    #[cfg(not(feature = "trace-off"))]
    #[test]
    fn untraced_callers_pay_no_trace_events() {
        let mut p = ServingPipeline::new(model(), 8, 16);
        let (b, f) = batch(0);
        p.infer_batch(&b, &f);
        p.flush();
        let obs = p.obs();
        // histograms still record (METRICS is always live)…
        assert_eq!(obs.stage_snapshot(Stage::Encode).count(), 1);
        // …but with no sink installed nothing is buffered anywhere
        assert!(obs.sink().is_none());
        assert!(obs.drain_events().is_empty());
    }

    #[cfg(not(feature = "trace-off"))]
    #[test]
    fn tier_spans_carry_the_trace_of_the_store_lock_holder() {
        use apan_metrics::{TraceEvent, TraceSink};
        use rand::Rng;
        // budget 0: one resident mailbox per shard, so the sync path's
        // reads and write-backs and the worker's deliveries all spill
        // and promote, racing for the store lock on two threads
        let mut cfg = ApanConfig::new(8);
        cfg.mailbox_slots = 4;
        cfg.mlp_hidden = 16;
        cfg.dropout = 0.0;
        cfg.mailbox_budget = Some(0);
        let model = Apan::new(&cfg, &mut StdRng::seed_from_u64(0));
        let mut p = ServingPipeline::new(model, 64, 4);
        let obs = p.obs();
        obs.install_sink(TraceSink::with_shards(1 << 20, 4));
        const BATCHES: u64 = 500;
        let mut rng = StdRng::seed_from_u64(9);
        for k in 0..BATCHES {
            let ints: Vec<Interaction> = (0..4)
                .map(|i| Interaction {
                    src: rng.gen_range(0..64),
                    dst: rng.gen_range(0..64),
                    time: k as f64 + 0.1 * i as f64,
                    eid: (4 * k + i) as u32,
                })
                .collect();
            let feats = Tensor::full(4, 8, 0.5);
            p.infer_batch_admitted(&ints, &feats, &[AdmitKind::InOrder; 4], k + 1, None);
        }
        p.flush();
        assert_eq!(obs.dropped_events(), 0, "the sink kept every span");
        let events = obs.drain_events();
        let spans = |stage: Stage| -> Vec<&TraceEvent> {
            events.iter().filter(|e| e.stage == stage).collect()
        };
        let (encodes, delivers) = (spans(Stage::Encode), spans(Stage::Deliver));
        assert_eq!(encodes.len() as u64, BATCHES);
        assert_eq!(delivers.len() as u64, BATCHES);
        let mut tier = 0;
        for t in events.iter().filter(|e| {
            matches!(
                e.stage,
                Stage::TierEvict | Stage::TierPromote | Stage::ColdRead
            )
        }) {
            tier += 1;
            // an encode span lies wholly inside the sync path's lock
            // hold, so no worker tier traffic can fall within one; a
            // deliver span may overlap an encode while its worker waits
            // for the lock, so encodes are asked first
            let holder = encodes
                .iter()
                .chain(&delivers)
                .find(|e| e.start_ns <= t.start_ns && t.end_ns <= e.end_ns)
                .expect("every tier span lies inside an encode or deliver span");
            assert_eq!(
                t.trace_id,
                holder.trace_id,
                "{} span attributed to the wrong request",
                t.stage.name()
            );
        }
        assert!(
            tier > 1000,
            "only {tier} tier spans: the store barely spilled"
        );
    }

    #[test]
    fn replicated_jobs_keep_replicas_bitwise_identical() {
        // two replicas alternating ownership, each forwarding its jobs to
        // the other, must both track a single reference pipeline exactly
        let mut reference = ServingPipeline::new(model(), 8, 16);
        let mut a = ServingPipeline::new(model(), 8, 16);
        let mut b = ServingPipeline::new(model(), 8, 16);
        for k in 0..6 {
            let (ints, f) = batch(k);
            let want = reference.infer_batch(&ints, &f);
            reference.flush();
            let (owner, peer) = if k % 2 == 0 {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            let (got, bytes) =
                owner.infer_batch_cluster_admitted(&ints, &f, &[AdmitKind::InOrder; 2], 0, None);
            peer.submit_remote(wire::decode_job(bytes).unwrap(), 0);
            owner.flush();
            peer.flush();
            let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(&got.scores), bits(&want.scores), "batch {k}");
        }
        let want = snapshot(&reference);
        assert_eq!(snapshot(&a), want, "replica a diverged");
        assert_eq!(snapshot(&b), want, "replica b diverged");
    }

    #[test]
    fn empty_remote_job_is_a_noop() {
        let mut p = ServingPipeline::new(model(), 8, 16);
        p.submit_remote(
            wire::WireJob {
                interactions: Vec::new(),
                src_rows: Vec::new(),
                dst_rows: Vec::new(),
                late: Vec::new(),
                z_wire: bytes::Bytes::new(),
                feats_wire: bytes::Bytes::new(),
            },
            0,
        );
        p.flush();
        assert_eq!(p.prop_link().stats().jobs, 0);
        assert_eq!(p.pending_jobs(), 0);
    }

    #[test]
    fn drop_without_shutdown_is_clean() {
        let mut p = ServingPipeline::new(model(), 8, 16);
        let (b, f) = batch(0);
        p.infer_batch(&b, &f);
        drop(p); // must not hang or panic
    }

    #[test]
    fn pipelined_commits_are_deterministic_without_flush() {
        // FeatureOnly mails depend only on the event stream, not on the
        // (timing-sensitive) synchronous embeddings — so a backlog of
        // unflushed jobs must end in the same mailbox and graph state as
        // the same stream flushed after every batch.
        let run = |flush_each: bool| {
            let mut p = ServingPipeline::new(fmodel(), 8, 4);
            for k in 0..30 {
                let (b, f) = batch(k);
                p.infer_batch(&b, &f);
                if flush_each {
                    p.flush();
                }
            }
            let state = prop_state(&p);
            assert_eq!(p.prop_link().stats().jobs, 30);
            state
        };
        assert_eq!(run(false), run(true));
    }

    fn fmodel() -> Apan {
        let mut cfg = ApanConfig::new(8);
        cfg.mailbox_slots = 4;
        cfg.mlp_hidden = 16;
        cfg.dropout = 0.0;
        cfg.mail_content = MailContent::FeatureOnly;
        let mut rng = StdRng::seed_from_u64(0);
        Apan::new(&cfg, &mut rng)
    }

    fn one(src: NodeId, dst: NodeId, time: f64, eid: u32) -> (Vec<Interaction>, Tensor) {
        (
            vec![Interaction {
                src,
                dst,
                time,
                eid,
            }],
            Tensor::full(1, 8, time as f32),
        )
    }

    type MailBits = Vec<Vec<(Vec<u32>, u64, crate::mailbox::MailOrigin)>>;
    type AdjBits = Vec<Vec<(NodeId, u64)>>;

    /// Propagation-visible state: mailbox contents (bitwise) and the
    /// graph's time-sorted adjacency, eids and sync embeddings excluded
    /// (the former are arrival-ordered internals, the latter are
    /// served-at-arrival by design).
    fn prop_state(p: &ServingPipeline) -> (MailBits, AdjBits) {
        let (store, graph) = p.export_state();
        let mails = (0..store.num_nodes() as NodeId)
            .map(|n| {
                store
                    .mails_of(n)
                    .into_iter()
                    .map(|(m, t, o)| {
                        (
                            m.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
                            t.to_bits(),
                            o,
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let adj = (0..graph.num_nodes() as NodeId)
            .map(|n| {
                graph
                    .neighbors(n)
                    .iter()
                    .map(|e| (e.neighbor, e.time.to_bits()))
                    .collect::<Vec<_>>()
            })
            .collect();
        (mails, adj)
    }

    #[test]
    fn late_events_release_bitwise_like_the_sorted_replay() {
        // messy pipeline: in-order 1, 2, then {3 + late 1.5}, then 6
        // (which pushes the watermark past 1.5 + L and releases it)
        let mut p = ServingPipeline::new(fmodel(), 8, 16);
        p.set_lateness(Some(2.0));
        let feed = |p: &mut ServingPipeline, b: &(Vec<Interaction>, Tensor)| {
            p.infer_batch(&b.0, &b.1);
            p.flush();
        };
        feed(&mut p, &one(0, 1, 1.0, 0));
        feed(&mut p, &one(2, 3, 2.0, 2));
        {
            let ints = vec![
                Interaction {
                    src: 0,
                    dst: 2,
                    time: 3.0,
                    eid: 3,
                },
                Interaction {
                    src: 4,
                    dst: 5,
                    time: 1.5,
                    eid: 1,
                },
            ];
            let feats = Tensor::from_rows(&[&[3.0f32; 8], &[1.5f32; 8]]);
            let kinds = [AdmitKind::InOrder, AdmitKind::Late];
            p.infer_batch_admitted(&ints, &feats, &kinds, 0, None);
            p.flush();
        }
        assert_eq!(p.reorder_buffered(), 1, "1.5 is inside the window");
        feed(&mut p, &one(1, 3, 6.0, 4));
        assert_eq!(p.reorder_buffered(), 0, "watermark 6 released 1.5");
        assert_eq!(p.prop_link().late_released(), 1);

        // reference: the same events fed strictly time-sorted
        let mut r = ServingPipeline::new(fmodel(), 8, 16);
        for b in [
            one(0, 1, 1.0, 0),
            one(4, 5, 1.5, 1),
            one(2, 3, 2.0, 2),
            one(0, 2, 3.0, 3),
            one(1, 3, 6.0, 4),
        ] {
            feed(&mut r, &b);
        }
        assert_eq!(prop_state(&p), prop_state(&r));
    }

    #[test]
    fn snapshot_cut_inside_the_window_flushes_the_reorder_buffer() {
        let mut p = ServingPipeline::new(fmodel(), 8, 16);
        p.set_lateness(Some(10.0));
        let feed = |p: &mut ServingPipeline, b: &(Vec<Interaction>, Tensor)| {
            p.infer_batch(&b.0, &b.1);
            p.flush();
        };
        feed(&mut p, &one(0, 1, 1.0, 0));
        feed(&mut p, &one(2, 3, 2.0, 1));
        {
            let ints = vec![
                Interaction {
                    src: 0,
                    dst: 3,
                    time: 3.0,
                    eid: 3,
                },
                Interaction {
                    src: 4,
                    dst: 5,
                    time: 2.5,
                    eid: 2,
                },
            ];
            let feats = Tensor::from_rows(&[&[3.0f32; 8], &[2.5f32; 8]]);
            let kinds = [AdmitKind::InOrder, AdmitKind::Late];
            p.infer_batch_admitted(&ints, &feats, &kinds, 0, None);
            p.flush();
        }
        // the window is wide open: nothing released the late event yet
        assert_eq!(p.reorder_buffered(), 1);
        // export_state (the snapshot cut) must not lose it
        let (mails, adj) = prop_state(&p);
        assert_eq!(p.reorder_buffered(), 0, "cut force-released the buffer");
        assert_eq!(p.prop_link().late_released(), 1);

        let mut r = ServingPipeline::new(fmodel(), 8, 16);
        for b in [
            one(0, 1, 1.0, 0),
            one(2, 3, 2.0, 1),
            one(4, 5, 2.5, 2),
            one(0, 3, 3.0, 3),
        ] {
            feed(&mut r, &b);
        }
        assert_eq!((mails, adj), prop_state(&r));
    }

    #[test]
    fn dropped_events_are_scored_but_never_admitted() {
        let mut p = ServingPipeline::new(fmodel(), 8, 16);
        p.set_lateness(Some(1.0));
        let (b, f) = one(0, 1, 5.0, 0);
        p.infer_batch(&b, &f);
        p.flush();
        let ints = vec![
            Interaction {
                src: 2,
                dst: 3,
                time: 0.5,
                eid: 1,
            },
            Interaction {
                src: 0,
                dst: 2,
                time: 6.0,
                eid: 2,
            },
        ];
        let feats = Tensor::from_rows(&[&[0.5f32; 8], &[6.0f32; 8]]);
        let kinds = [AdmitKind::Dropped, AdmitKind::InOrder];
        let r = p.infer_batch_admitted(&ints, &feats, &kinds, 0, None);
        assert_eq!(r.scores.len(), 2, "dropped events still get scores");
        p.flush();
        let (store, graph) = p.export_state();
        assert_eq!(graph.num_events(), 2, "the dropped event never landed");
        assert!(store.is_empty(3), "no mail reached the dropped endpoints");
        assert!(graph.neighbors(3).is_empty());
    }

    #[test]
    fn late_jobs_are_deterministic_without_flush() {
        // the backlog test above with a late event in every job: the
        // reorder buffer must park and release the same entries whether
        // or not the link drains between batches
        let run = |flush_each: bool| {
            let mut p = ServingPipeline::new(fmodel(), 16, 4);
            p.set_lateness(Some(5.0));
            for k in 0..30u64 {
                let t = k as f64 + 10.0;
                let ints = vec![
                    Interaction {
                        src: (k % 8) as NodeId,
                        dst: (k % 8 + 1) as NodeId,
                        time: t,
                        eid: (2 * k) as u32,
                    },
                    Interaction {
                        src: (k % 4 + 8) as NodeId,
                        dst: (k % 4 + 12) as NodeId,
                        time: t - 4.0,
                        eid: (2 * k + 1) as u32,
                    },
                ];
                let feats = Tensor::from_rows(&[&[t as f32; 8], &[(t - 4.0) as f32; 8]]);
                let kinds = [AdmitKind::InOrder, AdmitKind::Late];
                p.infer_batch_admitted(&ints, &feats, &kinds, 0, None);
                if flush_each {
                    p.flush();
                }
            }
            let state = prop_state(&p);
            let stats = p.shutdown();
            (state, stats.jobs, stats.deliveries)
        };
        assert_eq!(run(false), run(true));
    }

    /// A valid forwarded job for `batch(k)`, as a peer receives it.
    fn remote_job(owner: &mut ServingPipeline, k: u64) -> wire::WireJob {
        let (ints, f) = batch(k);
        let kinds = [AdmitKind::InOrder; 2];
        let (_, bytes) = owner.infer_batch_cluster_admitted(&ints, &f, &kinds, 0, None);
        owner.flush();
        wire::decode_job(bytes).unwrap()
    }

    #[test]
    fn malformed_remote_jobs_are_counted_and_change_nothing() {
        let mut owner = ServingPipeline::new(model(), 8, 16);
        let mut peer = ServingPipeline::new(model(), 8, 16);
        let mut reference = ServingPipeline::new(model(), 8, 16);
        let first = remote_job(&mut owner, 0);
        let good = remote_job(&mut owner, 1);
        peer.submit_remote(first.clone(), 0);
        reference.submit_remote(first, 0);
        let before = snapshot(&peer);

        let z = wire::decode_tensor(good.z_wire.clone()).unwrap();
        let feats = wire::decode_tensor(good.feats_wire.clone()).unwrap();
        let wide_z = wire::encode_tensor(&Tensor::zeros(z.rows(), z.cols() + 1));
        let tall_z = wire::encode_tensor(&Tensor::zeros(z.rows() + 1, z.cols()));
        let short_feats = wire::encode_tensor(&feats.gather_rows(&[0]));
        type Edit<'a> = &'a dyn Fn(&mut wire::WireJob);
        let malformed: [(&str, Edit); 9] = [
            ("row index out of range", &|j| j.src_rows[0] = z.rows()),
            ("late indices not increasing", &|j| j.late = vec![1, 1]),
            ("late index out of range", &|j| j.late = vec![2]),
            ("non-finite late time", &|j| {
                j.late = vec![0];
                j.interactions[0].time = f64::NAN;
            }),
            ("feats rows != interactions", &|j| {
                j.feats_wire = short_feats.clone()
            }),
            ("z width != feats width", &|j| j.z_wire = wide_z.clone()),
            ("z rows != distinct endpoints", &|j| {
                j.z_wire = tall_z.clone()
            }),
            ("row map shorter than the batch", &|j| {
                j.dst_rows.pop();
            }),
            ("truncated feats bytes", &|j| {
                j.feats_wire = j.feats_wire.slice(0..j.feats_wire.len() - 1)
            }),
        ];
        for (n, (what, edit)) in malformed.into_iter().enumerate() {
            let mut job = good.clone();
            edit(&mut job);
            peer.submit_remote(job, 0);
            assert_eq!(peer.pending_jobs(), 0, "{what}: nothing was queued");
            let stats = peer.prop_link().stats();
            assert_eq!(stats.decode_errors, n + 1, "{what}");
            assert_eq!(stats.jobs, 1, "{what}");
            assert_eq!(snapshot(&peer), before, "{what}: state moved");
        }
        // nothing was queued: the next valid job commits and lands
        // bitwise where it does on a peer that never saw the malformed
        // ones
        peer.submit_remote(good.clone(), 0);
        reference.submit_remote(good, 0);
        assert_eq!(snapshot(&peer), snapshot(&reference));
        assert_eq!(peer.prop_link().stats().jobs, 2);
        assert_eq!(reference.prop_link().stats().decode_errors, 0);
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a-64 of the job a cluster owner forwards for one fixed
    /// batch (in-order, late, dropped, in-order; node 1 seen three
    /// times). The embedding rows are encoder output — they vary with
    /// the rng crate and the GEMM kernel in use — so they are checked
    /// against this run's own embeddings and blanked before hashing;
    /// every other byte of the DELIVER job is pinned.
    fn forwarded_job_hash(model: Apan) -> u64 {
        let mut p = ServingPipeline::new(model, 8, 16);
        let edge = |src, dst, time, eid| Interaction {
            src,
            dst,
            time,
            eid,
        };
        let ints = [
            edge(0, 1, 10.0, 0),
            edge(2, 3, 7.5, 1),
            edge(4, 1, 1.0, 2),
            edge(1, 2, 11.0, 3),
        ];
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..8).map(|j| i as f32 + 0.25 * j as f32).collect())
            .collect();
        let feats = Tensor::from_rows(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let kinds = [
            AdmitKind::InOrder,
            AdmitKind::Late,
            AdmitKind::Dropped,
            AdmitKind::InOrder,
        ];
        let (result, bytes) = p.infer_batch_cluster_admitted(&ints, &feats, &kinds, 0, None);
        let mut job = wire::decode_job(bytes.clone()).unwrap();
        assert_eq!(
            wire::encode_job(&job),
            bytes,
            "forwarded bytes re-encode exactly"
        );
        // the admitted endpoints in first-appearance order: 0, 2, 1, 3
        let admitted_rows: Vec<usize> = [0, 2, 1, 3]
            .iter()
            .map(|n| result.nodes.iter().position(|m| m == n).unwrap())
            .collect();
        let z = wire::decode_tensor(job.z_wire.clone()).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(z.shape(), (4, 8));
        assert_eq!(
            bits(&z),
            bits(&result.embeddings.gather_rows(&admitted_rows))
        );
        job.z_wire = wire::encode_tensor(&Tensor::zeros(4, 8));
        fnv1a64(&wire::encode_job(&job))
    }

    /// Pinned from the parent of the commit that stopped wire-encoding
    /// local jobs. Both mail contents forward the same bytes: peers need
    /// the embedding rows for the write-back either way.
    const GOLDEN_JOB: u64 = 0xfce0_e8d1_4ba9_de81;

    #[test]
    fn forwarded_job_bytes_are_golden() {
        assert_eq!(forwarded_job_hash(model()), GOLDEN_JOB, "MailContent::Sum");
        assert_eq!(
            forwarded_job_hash(fmodel()),
            GOLDEN_JOB,
            "MailContent::FeatureOnly"
        );
    }
}
