//! The asynchronous link (Fig. 2b): owned propagation jobs handed from
//! the synchronous path to one propagation worker.
//!
//! A job is one admitted batch's asynchronous effects — graph inserts
//! and the k-hop mail propagation — carried as owned tensors, so the
//! hand-off is a channel send. The worker drains the channel in FIFO
//! order, so graph inserts and mailbox commits happen in submission
//! order. The link's parallelism is the worker thread itself, running
//! beside the synchronous link's batcher: every kernel of a job (φ,
//! planning, the apply) runs inline on the worker
//! (`apan_tensor::backend::pool::inline`), never on the tensor pool,
//! whose forks would queue behind the other link's work
//! (`DESIGN.md` §6.24). `APAN_THREADS` does not reach it.
//!
//! Locks are `std::sync` and a poisoned one is fatal: a panic under a
//! lock is a bug, so the next `lock()` panics too instead of serving
//! from half-updated state.

use crate::config::MailContent;
use crate::lateness::LateState;
use crate::mail::make_mails_with;
use crate::mailbox::MailOrigin;
use crate::propagator::{DeliveryPlan, Interaction, PropScratch, Propagator};
use crate::shard::ShardedMailboxStore;
use crate::tier::TierShard;
use apan_metrics::{ObsHub, Stage};
use apan_tensor::backend::pool;
use apan_tensor::Tensor;
use apan_tgraph::cost::QueryCost;
use apan_tgraph::{NodeId, TemporalGraph, Time};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// One admitted batch's asynchronous work. Built by the synchronous
/// path, or by `ServingPipeline::submit_remote` from a peer's validated
/// bytes; the worker trusts every field.
pub(crate) struct PropagateJob {
    pub(crate) interactions: Vec<Interaction>,
    /// Row of `z` holding each interaction's source embedding.
    pub(crate) src_rows: Vec<usize>,
    /// Row of `z` holding each interaction's destination embedding.
    pub(crate) dst_rows: Vec<usize>,
    /// Indices (into `interactions`, strictly increasing) of events
    /// admitted late; see [`crate::wire::WireJob::late`].
    pub(crate) late: Vec<u32>,
    /// Fresh embeddings of the batch's admitted endpoints, deduplicated.
    pub(crate) z: Tensor,
    /// One edge-feature row per interaction.
    pub(crate) feats: Tensor,
    /// Trace correlation id for the worker's stage spans.
    pub(crate) trace_id: u64,
    /// When the triggering request was admitted (hub-clock time); the
    /// `prop_lag` histogram measures mail age from here to mailbox
    /// commit.
    pub(crate) admitted: Duration,
}

/// Statistics accumulated by the propagation worker.
#[derive(Clone, Copy, Debug, Default)]
pub struct PropStats {
    /// Propagation jobs processed.
    pub jobs: usize,
    /// Total mailbox deliveries performed.
    pub deliveries: usize,
    /// Jobs from a peer replica that failed validation on arrival and
    /// were dropped before touching any state. Always zero for a
    /// single daemon: local jobs never cross a byte format.
    pub decode_errors: usize,
    /// Total graph-query cost paid on the asynchronous link.
    pub cost: QueryCost,
}

/// Jobs queued or in flight on the asynchronous link, with a condvar so
/// waiters can sleep until it drains instead of spinning.
pub(crate) struct PendingJobs {
    count: Mutex<usize>,
    drained: Condvar,
}

impl PendingJobs {
    fn new() -> Self {
        Self {
            count: Mutex::new(0),
            drained: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, usize> {
        self.count.lock().expect("pending-jobs lock poisoned")
    }

    pub(crate) fn increment(&self) {
        *self.lock() += 1;
    }

    fn decrement(&self) {
        let mut count = self.lock();
        *count -= 1;
        if *count == 0 {
            self.drained.notify_all();
        }
    }

    pub(crate) fn current(&self) -> usize {
        *self.lock()
    }

    pub(crate) fn wait_drained(&self) {
        let _drained = self
            .drained
            .wait_while(self.lock(), |c| *c > 0)
            .expect("pending-jobs lock poisoned");
    }
}

/// The link's counters and reorder buffer: what outlives the pipeline's
/// move into a serving loop, kept apart from the serving state so a
/// [`PropLink`] does not keep the mailbox store alive.
pub(crate) struct LinkState {
    stats: Mutex<PropStats>,
    pub(crate) pending: PendingJobs,
    late: Mutex<LateState>,
}

impl LinkState {
    pub(crate) fn stats(&self) -> MutexGuard<'_, PropStats> {
        self.stats.lock().expect("link stats lock poisoned")
    }

    pub(crate) fn late(&self) -> MutexGuard<'_, LateState> {
        self.late.lock().expect("reorder buffer lock poisoned")
    }
}

/// Live handles onto the propagation link's health counters. Cheap to
/// clone and usable after the pipeline itself has been moved into a
/// serving loop — this is what a stats endpoint holds.
#[derive(Clone)]
pub struct PropLink(pub(crate) Arc<LinkState>);

impl PropLink {
    /// Snapshot of the link's accumulated statistics.
    pub fn stats(&self) -> PropStats {
        *self.0.stats()
    }

    /// Jobs queued or in flight right now.
    pub fn pending(&self) -> usize {
        self.0.pending.current()
    }

    /// Late events currently parked in the reorder buffer.
    pub fn reorder_buffered(&self) -> usize {
        self.0.late().buffered()
    }

    /// Total late events released from the reorder buffer so far.
    pub fn late_released(&self) -> u64 {
        self.0.late().released()
    }
}

/// Everything the asynchronous link shares: the serving state it
/// mutates, its counters, and the propagation config. The pipeline and
/// the propagation worker each hold one `Arc` of it.
pub(crate) struct Link {
    pub(crate) state: Arc<LinkState>,
    pub(crate) store: Arc<ShardedMailboxStore>,
    pub(crate) graph: Arc<RwLock<TemporalGraph>>,
    propagator: Propagator,
    mail_content: MailContent,
    /// The injectable clock behind every stamp, the per-stage
    /// histograms, and the optional trace sink.
    pub(crate) obs: ObsHub,
}

/// The worker's reusable planning buffers, plus the deliveries and query
/// cost of the job (or snapshot-cut release) it is serving.
#[derive(Default)]
struct Work {
    scratch: PropScratch,
    plan: DeliveryPlan,
    cost: QueryCost,
    deliveries: usize,
}

impl Link {
    pub(crate) fn new(
        store: Arc<ShardedMailboxStore>,
        graph: TemporalGraph,
        propagator: Propagator,
        mail_content: MailContent,
        obs: ObsHub,
    ) -> Self {
        Self {
            state: Arc::new(LinkState {
                stats: Mutex::new(PropStats::default()),
                pending: PendingJobs::new(),
                late: Mutex::new(LateState::new(graph.max_time())),
            }),
            store,
            graph: Arc::new(RwLock::new(graph)),
            propagator,
            mail_content,
            obs,
        }
    }

    /// Plans the deliveries of `batch` into `work.plan` against the
    /// current graph.
    fn plan(&self, work: &mut Work, batch: &[Interaction], mails: &Tensor) {
        let g = self.graph.read().expect("graph lock poisoned");
        self.propagator.plan_batch(
            &g,
            batch,
            mails,
            &mut work.cost,
            &mut work.scratch,
            &mut work.plan,
        );
    }

    /// Applies `work.plan` with `write` (`deliver` for a job, `patch_late`
    /// for a released late event) under one hold of the store lock, its
    /// tier traffic tagged with `trace_id`.
    fn apply(
        &self,
        work: &mut Work,
        trace_id: u64,
        write: fn(&mut TierShard, NodeId, &[f32], Time, MailOrigin),
    ) {
        let mut store = self.store.sync_view();
        store.set_trace(trace_id);
        work.deliveries += work.plan.apply_locked(&mut store, write);
    }

    /// Releases the reorder-buffer entries whose window has closed
    /// (every entry when `force`): each is planned alone and
    /// patch-applied at its time-sorted mailbox position. Runs on the
    /// worker after a job's deliveries, or with the link drained.
    /// Returns the number of entries released.
    fn release_late(&self, ls: &mut LateState, force: bool, work: &mut Work) -> usize {
        let due = ls.take_due(force);
        let released = due.len();
        for entry in due {
            let mail = Tensor::from_vec(1, entry.mail.len(), entry.mail);
            self.plan(work, std::slice::from_ref(&entry.inter), &mail);
            self.apply(work, entry.trace_id, TierShard::patch_late);
            // The release span covers the entry's full park residency,
            // so its histogram is the park-time distribution
            // (`apan_reorder_park_ns`).
            let t_rel = self.obs.stamp();
            self.obs.stage_record(
                Stage::ReorderRelease,
                entry.trace_id,
                entry.parked_at,
                t_rel,
            );
        }
        released
    }

    /// Folds `work`'s deliveries and cost into the link statistics.
    fn account(&self, jobs: usize, work: &mut Work) {
        let mut st = self.state.stats();
        st.jobs += jobs;
        st.deliveries += std::mem::take(&mut work.deliveries);
        st.cost += std::mem::take(&mut work.cost);
    }

    /// With the link drained, forces every still-buffered late event
    /// through [`Link::release_late`]; returns how many were released.
    pub(crate) fn release_reorder_buffer(&self) -> usize {
        pool::inline(|| {
            let mut work = Work::default();
            let released = self.release_late(&mut self.state.late(), true, &mut work);
            self.account(0, &mut work);
            released
        })
    }

    /// One job: graph insert → plan → deliver, in submission order.
    fn run_job(&self, job: &PropagateJob, work: &mut Work) {
        let obs = &self.obs;
        // φ runs here, off the synchronous path.
        let built;
        let mails = match self.mail_content {
            MailContent::FeatureOnly => &job.feats,
            content => {
                built = make_mails_with(
                    &job.z.gather_rows(&job.src_rows),
                    &job.z.gather_rows(&job.dst_rows),
                    &job.feats,
                    content,
                );
                &built
            }
        };
        let is_late = |idx: usize| job.late.binary_search(&(idx as u32)).is_ok();
        // `commit` span: the temporal-graph event commit. Late events
        // splice into the time-sorted log here, at arrival, after every
        // earlier job has fully delivered, so every later plan sees them.
        let t_commit0 = obs.stamp();
        {
            let mut g = self.graph.write().expect("graph lock poisoned");
            for (idx, i) in job.interactions.iter().enumerate() {
                if is_late(idx) {
                    g.insert_late(i.src, i.dst, i.time);
                } else {
                    g.insert(i.src, i.dst, i.time);
                }
            }
        }
        let t_commit1 = obs.stamp();
        obs.stage_record(Stage::Commit, job.trace_id, t_commit0, t_commit1);
        // Sampling is the expensive part. Only the in-order subset is
        // planned now; late events wait in the reorder buffer until no
        // earlier-timed event can still arrive.
        let inorder: Option<(Vec<Interaction>, Tensor)> = (!job.late.is_empty()).then(|| {
            let keep: Vec<usize> = (0..job.interactions.len())
                .filter(|&i| !is_late(i))
                .collect();
            let ints: Vec<Interaction> = keep.iter().map(|&i| job.interactions[i]).collect();
            (ints, mails.gather_rows(&keep))
        });
        let (batch, batch_mails): (&[Interaction], &Tensor) = match &inorder {
            Some((ints, m)) => (ints, m),
            None => (&job.interactions, mails),
        };
        self.plan(work, batch, batch_mails);
        let t_plan1 = obs.stamp();
        obs.stage_record(Stage::Plan, job.trace_id, t_commit1, t_plan1);
        // `deliver` span: applying the plan to the sharded mailbox.
        let t_deliver0 = obs.stamp();
        self.apply(work, job.trace_id, TierShard::deliver);
        // Reorder-buffer maintenance follows the job's deliveries, so
        // entries enqueue and release in one deterministic global order.
        {
            let mut ls = self.state.late();
            let dim = mails.cols();
            for &li in &job.late {
                let li = li as usize;
                let t_park0 = obs.stamp();
                ls.park(
                    job.interactions[li],
                    mails.data()[li * dim..(li + 1) * dim].to_vec(),
                    job.trace_id,
                    t_park0,
                );
                let t_park1 = obs.stamp();
                obs.stage_record(Stage::ReorderPark, job.trace_id, t_park0, t_park1);
            }
            for i in batch {
                ls.advance(i.time);
            }
            self.release_late(&mut ls, false, work);
        }
        let t_deliver1 = obs.stamp();
        obs.stage_record(Stage::Deliver, job.trace_id, t_deliver0, t_deliver1);
        // Every mail in this plan committed at the same instant; its age
        // is the time since the triggering request was admitted.
        obs.prop_lag_record(t_deliver1.saturating_sub(job.admitted), work.deliveries);
        self.account(1, work);
        self.state.pending.decrement();
    }
}

/// The propagation worker: runs jobs in channel (submission) order
/// until every sender is dropped and the queue is empty, every kernel
/// inline on this thread. Its planning buffers live for the whole
/// thread, so steady-state jobs allocate almost nothing.
pub(crate) fn propagation_worker(rx: Receiver<Box<PropagateJob>>, link: Arc<Link>) {
    pool::inline(|| {
        let mut work = Work::default();
        while let Ok(job) = rx.recv() {
            link.run_job(&job, &mut work);
        }
    })
}
