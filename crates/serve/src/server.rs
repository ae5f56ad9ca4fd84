//! The serving daemon: TCP ingress, micro-batched inference, stats, and
//! snapshot lifecycle, wired around one [`ServingPipeline`].
//!
//! Thread layout:
//!
//! * one **accept** thread hands each connection a dedicated **reader**
//!   thread and a dedicated **writer** thread ([`crate::conn`]);
//! * readers decode frames, answer cheap verbs (`STATS`, `INFO`, `PING`)
//!   inline, and push `INFER`/`SNAPSHOT`/`SHUTDOWN` work into the shared
//!   [`IngressQueue`] (`verbs.rs`; admission control sheds here, with an
//!   explicit `OVERLOADED` reply — overload degrades throughput, never
//!   latency honesty);
//! * one **batcher** thread owns the pipeline, drains the queue into
//!   micro-batches, runs the synchronous path once per batch, and hands
//!   each requester its slice of the scores;
//! * an optional **tick** thread enqueues periodic snapshot work.
//!
//! This file owns configuration, boot, the batcher loop and the
//! snapshot tick; the stats surface lives in [`crate::stats`].

use crate::batcher::{
    assemble, BatchPolicy, Control, Drained, InferItem, InferOutcome, IngressQueue,
};
use crate::cluster_link::{ClusterMembership, DeliveryOrder, PeerSet};
use crate::conn::{serve_conn, Connections};
use crate::snapshot;
use crate::stats::register_scrape_views;
use apan_core::model::Apan;
use apan_core::pipeline::{PropLink, ServingPipeline};
use apan_core::tier::TierStats;
use apan_metrics::{Clock, ObsHub, Registry, Stage, TraceSink};
use apan_tgraph::TemporalGraph;
use std::net::{Shutdown, SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub use crate::stats::{ServeStats, BATCH_BUCKETS, LATENCY_WINDOW};

/// What every request caught by a stopping daemon is told.
pub(crate) const SHUTTING_DOWN: &str = "daemon shutting down";

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Initial mailbox-store sizing (grows on demand up to `max_node`).
    pub num_nodes: usize,
    /// Largest admissible node id — the cap that stops a hostile request
    /// from growing serving state without bound.
    pub max_node: u32,
    /// Propagation-channel capacity in jobs (backpressure on the async
    /// link). It bounds the backlog's memory: the largest job is one
    /// full micro-batch, 64 interactions with their features plus up to
    /// 128 embedding rows, ≈ 130 KB at d = 172, so the default 32 jobs
    /// hold at most ≈ 4 MB. A fast synchronous link fills the channel;
    /// once full, the batcher waits for the worker instead of queueing
    /// more.
    pub capacity: usize,
    /// Micro-batch closing policy.
    pub policy: BatchPolicy,
    /// Admission-control high-water mark (pending inference requests).
    pub high_water: usize,
    /// Bounded-lateness window, in event-time units. `None` (the
    /// default) keeps the legacy clamp-forward admission: any timestamp
    /// behind the watermark is rewritten to it. `Some(l)` instead
    /// admits an out-of-order timestamp `t` unchanged when
    /// `t >= watermark - l` (it is buffered in the pipeline's reorder
    /// buffer and spliced into the graph in event-time order) and
    /// **drops** it from serving state when it is older than the window
    /// (the request is still scored read-only). Must be finite and
    /// non-negative.
    pub lateness: Option<f64>,
    /// Where snapshots go; `None` disables the snapshot subsystem.
    pub snapshot_path: Option<PathBuf>,
    /// Periodic snapshot interval; `None` means only explicit `SNAPSHOT`
    /// verbs and shutdown write one.
    pub snapshot_every: Option<Duration>,
    /// Artificial per-batch service delay — a chaos/test knob that makes
    /// overload reproducible on fast machines. Zero in production.
    pub infer_delay: Duration,
    /// The time source batch deadlines, latency stamps, snapshot ticks,
    /// and the service delay run on. [`Clock::real`] in production; the
    /// deterministic simulation harness injects [`Clock::virtual_clock`]
    /// so all of those move only when the scenario driver advances time.
    pub clock: Clock,
    /// Fault-injection knob: while set, every snapshot write is torn
    /// after this many bytes — the temp file is abandoned mid-write and
    /// the write reported failed, as if the process died there. Models a
    /// crash during snapshotting; `None` (production) writes normally.
    pub snapshot_tear_after: Option<u64>,
    /// Total capacity of the trace ring buffer behind the `TRACE` verb
    /// (events, spread across per-thread rings; oldest are evicted when
    /// full). `0` installs no sink: stage histograms still fill, but no
    /// per-request spans are retained.
    pub trace_buffer: usize,
    /// Cluster membership when this daemon is one shard of a sharded
    /// deployment; `None` (the default) serves single-process exactly
    /// as before. Peer addresses may be installed after boot via
    /// [`ServerHandle::set_cluster_peers`] (the ephemeral-port
    /// bootstrap).
    pub cluster: Option<ClusterMembership>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            num_nodes: 1024,
            max_node: 1 << 20,
            capacity: 32,
            policy: BatchPolicy::default(),
            high_water: 1024,
            lateness: None,
            snapshot_path: None,
            snapshot_every: None,
            infer_delay: Duration::ZERO,
            clock: Clock::real(),
            snapshot_tear_after: None,
            trace_buffer: 8192,
            cluster: None,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) queue: Arc<IngressQueue>,
    pub(crate) stats: ServeStats,
    /// Every metric the daemon exposes, rendered by the `METRICS` verb.
    pub(crate) registry: Registry,
    /// The pipeline's observability hub: stage histograms, `prop_lag`,
    /// and the trace sink drained by the `TRACE` verb.
    pub(crate) obs: ObsHub,
    pub(crate) running: AtomicBool,
    /// Set by [`ServerHandle::crash`]: stop *without* the final
    /// snapshot, modelling a hard kill for the fault-injection harness.
    crashed: AtomicBool,
    /// Live connections and the reader/writer threads serving them.
    pub(crate) conns: Arc<Connections>,
    /// Parks the snapshot tick thread between ticks; notified on
    /// shutdown (and by virtual-clock advances via the waker registry).
    tick_mutex: Mutex<()>,
    tick_cv: Arc<Condvar>,
    pub(crate) cfg: ServeConfig,
    pub(crate) dim: usize,
    pub(crate) mailbox_slots: usize,
    /// Live counters of the propagation link, valid after the pipeline
    /// moves into the batcher thread.
    pub(crate) prop: PropLink,
    /// Mailbox tier counters (residency, evictions, promotions, cold
    /// bytes). All zeros when no `mailbox_budget` is configured.
    pub(crate) tier: Arc<TierStats>,
    /// Daemon boot instant on the daemon clock (for deliveries/sec).
    pub(crate) started: Duration,
    /// The global-sequence turnstile serializing cluster work (`ROUTE`
    /// and `DELIVER`) onto the ingress FIFO in gateway admission order.
    /// Idle in single-process mode.
    pub(crate) order: Arc<DeliveryOrder>,
    /// Forwarders replicating this shard's propagation jobs to its
    /// peers. Empty (every forward a no-op) in single-process mode.
    pub(crate) peers: Arc<PeerSet>,
    /// `(shard_id, cluster_size)`; single-process serving is shard 0 of 1.
    pub(crate) shard_identity: (usize, usize),
}

/// A started daemon. Stop it with [`ServerHandle::shutdown`] (initiates
/// a graceful stop) or [`ServerHandle::join`] (waits for a client's
/// `SHUTDOWN` verb or a signal-driven stop).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The daemon's bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the daemon is still accepting work.
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Number of currently-connected peers (dead connections are pruned
    /// as their readers exit).
    pub fn active_connections(&self) -> usize {
        self.shared.conns.active()
    }

    /// Installs the peer shard addresses this daemon replicates its
    /// propagation jobs to. Called once all shards in a cluster are
    /// listening (their ephemeral ports are unknowable before boot);
    /// a no-op concern for single-process daemons.
    pub fn set_cluster_peers(&self, addrs: &[SocketAddr]) {
        self.shared.peers.set_peers(addrs);
    }

    /// Initiates a graceful stop — equivalent to a client `SHUTDOWN`
    /// verb: pending work completes, a final snapshot is written if
    /// configured — and waits for every thread to exit.
    pub fn shutdown(self) {
        let _ = self
            .shared
            .queue
            .submit_control(Control::Shutdown(Box::new(|| {})));
        self.join();
    }

    /// Stops the daemon as if it were killed: **no final snapshot** is
    /// written, so everything since the last snapshot on disk is lost —
    /// exactly the state a `kill -9` leaves behind. Work already queued
    /// may still be answered on the way down (a real crash can also
    /// have replies in flight). The fault-injection harness uses this
    /// for its crash + warm-restart kill points; production code wants
    /// [`ServerHandle::shutdown`].
    pub fn crash(self) {
        self.shared.crashed.store(true, Ordering::SeqCst);
        self.shutdown();
    }

    /// Waits for the daemon to stop (via `SHUTDOWN` verb or
    /// [`ServerHandle::shutdown`] from another handle's thread).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        self.shared.conns.join();
    }
}

/// Boots the daemon: restores a snapshot if one exists at the configured
/// path, binds the listener, and spawns the serving threads.
pub fn start(mut model: Apan, cfg: ServeConfig) -> Result<ServerHandle, StartError> {
    // Warm restart: an existing snapshot wins over the passed-in weights.
    let (store, graph) = match &cfg.snapshot_path {
        Some(path) if path.exists() => {
            let (store, graph) = snapshot::read_snapshot(path, &mut model)?;
            eprintln!(
                "apan-serve: warm restart from {} ({} nodes, {} events)",
                path.display(),
                store.num_nodes(),
                graph.num_events()
            );
            (store, graph)
        }
        _ => (
            model.new_store(cfg.num_nodes),
            TemporalGraph::with_capacity(cfg.num_nodes, 1024),
        ),
    };
    let mut pipeline = ServingPipeline::with_state(model, store, graph, cfg.capacity);
    // sync-path latency stamps and stage spans run on the daemon clock
    pipeline.set_clock(cfg.clock.clone());
    // The pipeline's release threshold must equal the admission window:
    // a smaller pipeline window could release a buffered event while a
    // later-admitted (but older) in-window event is still to come.
    pipeline.set_lateness(cfg.lateness);
    let obs = pipeline.obs();
    if cfg.trace_buffer > 0 {
        obs.install_sink(TraceSink::new(cfg.trace_buffer));
    }

    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    // Seed admission with the restored stream position: after a warm
    // restart the watermark must start at the snapshot's newest event
    // time, or unset/stale request times would be admitted behind the
    // restored graph and panic the propagation worker's insert.
    let watermark = pipeline.graph().read().unwrap().max_time();

    let tick_cv = Arc::new(Condvar::new());
    // a virtual clock must wake the tick thread when time advances
    cfg.clock.register_waker(Arc::clone(&tick_cv));
    let prop = pipeline.prop_link();
    let started = cfg.clock.now();
    let queue = Arc::new(IngressQueue::with_clock(
        cfg.high_water,
        watermark,
        cfg.clock.clone(),
    ));
    queue.set_lateness(cfg.lateness);
    let registry = Registry::new();
    let stats = ServeStats::new(&registry);
    // single-process serving is a cluster of one: no peers, every
    // forward a no-op
    let member = cfg
        .cluster
        .clone()
        .unwrap_or_else(|| ClusterMembership::new(0, 1));
    let peers = Arc::new(PeerSet::new(member.deliver_retry, obs.clone()));
    if !member.peers.is_empty() {
        peers.set_peers(&member.peers);
    }
    let shared = Arc::new(Shared {
        queue,
        stats,
        registry,
        obs,
        running: AtomicBool::new(true),
        crashed: AtomicBool::new(false),
        conns: Arc::default(),
        tick_mutex: Mutex::new(()),
        tick_cv,
        dim: pipeline.model().cfg.dim,
        mailbox_slots: pipeline.model().cfg.mailbox_slots,
        prop,
        tier: pipeline.tier_stats(),
        started,
        order: Arc::new(DeliveryOrder::new()),
        peers,
        shard_identity: (member.shard_id, member.cluster_size),
        cfg,
    });
    register_scrape_views(&shared);

    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("apan-batcher".into())
                .spawn(move || batcher_loop(pipeline, &shared))
                .expect("spawn batcher"),
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("apan-accept".into())
                .spawn(move || {
                    let serving = Arc::clone(&shared);
                    // Only the read half is shut down on the way out:
                    // writers still drain queued replies (e.g. the
                    // SHUTDOWN ack) before exiting.
                    shared.conns.accept_loop(
                        listener,
                        &shared.running,
                        "apan-conn",
                        Shutdown::Read,
                        move |id, stream, raw| serve_conn(id, stream, raw, &serving),
                    )
                })
                .expect("spawn accept"),
        );
    }
    if let (Some(_), Some(every)) = (&shared.cfg.snapshot_path, shared.cfg.snapshot_every) {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("apan-snapshot-tick".into())
                .spawn(move || tick_loop(every, &shared))
                .expect("spawn tick"),
        );
    }

    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// Why the daemon failed to boot.
#[derive(Debug)]
pub enum StartError {
    /// Could not bind / configure the listener.
    Io(std::io::Error),
    /// A snapshot exists but cannot be restored.
    Snapshot(snapshot::SnapshotError),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Io(e) => write!(f, "bind: {e}"),
            StartError::Snapshot(e) => write!(f, "restore: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

impl From<std::io::Error> for StartError {
    fn from(e: std::io::Error) -> Self {
        StartError::Io(e)
    }
}

impl From<snapshot::SnapshotError> for StartError {
    fn from(e: snapshot::SnapshotError) -> Self {
        StartError::Snapshot(e)
    }
}

fn write_snapshot_now(pipeline: &ServingPipeline, shared: &Shared) -> Result<(), String> {
    let Some(path) = &shared.cfg.snapshot_path else {
        return Err("no snapshot path configured".into());
    };
    // The single flush inside export_state is what makes the snapshot a
    // consistent cut: no mail is in flight when state is read.
    let (store, graph) = pipeline.export_state();
    match snapshot::write_snapshot_opts(
        path,
        pipeline.model(),
        &store,
        &graph,
        shared.cfg.snapshot_tear_after,
    ) {
        Ok(()) => {
            shared.stats.snapshots.inc();
            Ok(())
        }
        Err(e) => {
            shared.stats.snapshot_failures.inc();
            Err(e.to_string())
        }
    }
}

/// Replies to every request of one served batch — `scores` holds the
/// requests' scores back to back, in batch order — and records each
/// request's service latency, admission to now.
fn reply_and_record(shared: &Shared, batch: Vec<InferItem>, scores: &[f32]) {
    let now = shared.cfg.clock.now();
    let mut offset = 0usize;
    let mut latency = Vec::with_capacity(batch.len());
    for item in batch {
        let n = item.interactions.len();
        latency.push((now.saturating_sub(item.enqueued), item.trace_id));
        (item.respond)(InferOutcome::Scores(scores[offset..offset + n].to_vec()));
        offset += n;
    }
    let mut rec = shared.stats.latency.lock().unwrap();
    for (d, trace_id) in latency {
        rec.record(d);
        shared
            .stats
            .service_hist
            .record_tagged(d.as_nanos() as u64, trace_id);
    }
}

fn batcher_loop(mut pipeline: ServingPipeline, shared: &Shared) {
    while let Some(drained) = shared.queue.drain(shared.cfg.policy) {
        match drained {
            Drained::Batch(batch) => {
                // The batch-wait span closes the moment the batch does —
                // before any injected service delay, so the histogram
                // reports pure queueing time.
                let t_closed = shared.obs.stamp();
                for item in &batch {
                    shared.obs.stage_record(
                        Stage::BatchWait,
                        item.trace_id,
                        item.enqueued,
                        t_closed,
                    );
                }
                let (interactions, feats, kinds) = assemble(&batch);
                if !shared.cfg.infer_delay.is_zero() {
                    shared.cfg.clock.sleep(shared.cfg.infer_delay);
                }
                // The encode/decode spans and downstream propagation
                // spans carry the batch's lead trace id; prop_lag ages
                // mails from the oldest (first-admitted) request.
                let result = pipeline.infer_batch_admitted(
                    &interactions,
                    &feats,
                    &kinds,
                    batch[0].trace_id,
                    Some(batch[0].enqueued),
                );
                shared.stats.record_batch(batch.len(), interactions.len());
                reply_and_record(shared, batch, &result.scores);
            }
            Drained::Control(Control::Snapshot(done)) => {
                done(write_snapshot_now(&pipeline, shared).err());
            }
            Drained::Control(Control::Flush(ack)) => {
                pipeline.flush();
                ack();
            }
            Drained::Control(Control::RoutedInfer { gseq, item }) => {
                // A gateway-routed request this shard owns: one request,
                // one batch — cluster batches are never coalesced, so
                // every replica applies the identical job stream.
                if !shared.cfg.infer_delay.is_zero() {
                    shared.cfg.clock.sleep(shared.cfg.infer_delay);
                }
                let (result, job) = pipeline.infer_batch_cluster_admitted(
                    &item.interactions,
                    &item.feats,
                    &item.kinds,
                    item.trace_id,
                    Some(item.enqueued),
                );
                shared.peers.forward(gseq, &job[..], item.trace_id);
                shared.stats.record_batch(1, item.interactions.len());
                reply_and_record(shared, vec![item], &result.scores);
            }
            Drained::Control(Control::RemoteDeliver {
                job,
                trace_id,
                done,
            }) => {
                let t_apply0 = shared.obs.stamp();
                pipeline.submit_remote(job, trace_id);
                let t_apply1 = shared.obs.stamp();
                shared
                    .obs
                    .stage_record(Stage::ReplicaApply, trace_id, t_apply0, t_apply1);
                done();
            }
            Drained::Control(Control::Shutdown(ack)) => {
                // a crash (hard kill) dies without the final snapshot:
                // everything since the last snapshot on disk is lost
                if shared.cfg.snapshot_path.is_some() && !shared.crashed.load(Ordering::SeqCst) {
                    let _ = write_snapshot_now(&pipeline, shared);
                }
                ack();
                shared.running.store(false, Ordering::SeqCst);
                // wake connection threads blocked on a global-sequence
                // turn that will never come
                shared.order.abort();
                shared.queue.close();
                shared.tick_cv.notify_all();
                break;
            }
        }
    }
    // Reject whatever was admitted behind the shutdown marker.
    while let Some(drained) = shared.queue.drain(BatchPolicy {
        max_batch: usize::MAX,
        batch_deadline: Duration::ZERO,
    }) {
        match drained {
            Drained::Batch(batch) => {
                for item in batch {
                    (item.respond)(InferOutcome::Failed(SHUTTING_DOWN.into()));
                }
            }
            Drained::Control(Control::Snapshot(done)) => {
                done(Some(SHUTTING_DOWN.into()));
            }
            Drained::Control(Control::Flush(ack)) => ack(),
            Drained::Control(Control::RoutedInfer { item, .. }) => {
                (item.respond)(InferOutcome::Failed(SHUTTING_DOWN.into()));
            }
            // dropped WITHOUT the ack: a dying shard must not claim a
            // delivery it will never apply (the peer's forwarder keeps
            // retransmitting, which is moot — the whole cluster restarts
            // together from per-shard snapshots)
            Drained::Control(Control::RemoteDeliver { .. }) => {}
            Drained::Control(Control::Shutdown(ack)) => ack(),
        }
    }
    shared.running.store(false, Ordering::SeqCst);
    shared.order.abort();
    shared.peers.stop();
    let stats = pipeline.shutdown();
    eprintln!(
        "apan-serve: propagation worker retired ({} jobs, {} deliveries)",
        stats.jobs, stats.deliveries
    );
}

/// Enqueues periodic snapshot work on the daemon clock. Parks on a
/// condvar between ticks (no polling): a real clock arms a kernel
/// timeout, a virtual clock wakes this thread whenever the simulation
/// driver advances time, and shutdown notifies it to exit promptly.
fn tick_loop(every: Duration, shared: &Arc<Shared>) {
    let clock = &shared.cfg.clock;
    let mut next = clock.now() + every;
    let mut guard = shared.tick_mutex.lock().unwrap();
    while shared.running.load(Ordering::SeqCst) {
        let now = clock.now();
        if now >= next {
            // skip missed intervals rather than bursting snapshots
            while next <= now {
                next += every;
            }
            let _ = shared
                .queue
                .submit_control(Control::Snapshot(Box::new(|err| {
                    if let Some(msg) = err {
                        eprintln!("apan-serve: periodic snapshot failed: {msg}");
                    }
                })));
            continue;
        }
        let (g, _) = clock.wait_timeout(&shared.tick_cv, guard, next - now);
        guard = g;
    }
}
