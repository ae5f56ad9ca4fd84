//! The serving daemon: TCP ingress, micro-batched inference, stats, and
//! snapshot lifecycle, wired around one [`ServingPipeline`].
//!
//! Thread layout:
//!
//! * one **accept** thread hands each connection a dedicated **reader**
//!   thread and a dedicated **writer** thread;
//! * readers decode frames, answer cheap verbs (`STATS`, `INFO`, `PING`)
//!   inline, and push `INFER`/`SNAPSHOT`/`SHUTDOWN` work into the shared
//!   [`IngressQueue`] (admission control sheds here, with an explicit
//!   `OVERLOADED` reply — overload degrades throughput, never latency
//!   honesty);
//! * one **batcher** thread owns the pipeline, drains the queue into
//!   micro-batches, runs the synchronous path once per batch, and hands
//!   each requester its slice of the scores;
//! * an optional **tick** thread enqueues periodic snapshot work.
//!
//! Replies go through a bounded per-connection queue drained by that
//! connection's writer thread: frames never interleave, and a peer that
//! stops reading fills only its own queue (and is then disconnected)
//! instead of head-of-line blocking the batcher for everyone else.
//! Connection state is reclaimed as peers disconnect, so a long-running
//! daemon serving many short-lived connections holds no more sockets or
//! threads than it has live peers.

use crate::batcher::{
    assemble, AdmitError, BatchPolicy, Control, Drained, InferItem, InferOutcome, IngressQueue,
};
use crate::cluster_link::{Begin, ClusterMembership, DeliveryOrder, PeerSet};
use crate::proto::{self, reply, verb, Frame, ProtoError};
use crate::snapshot;
use apan_core::config::Precision;
use apan_core::model::Apan;
use apan_core::pipeline::{PropLink, ServingPipeline};
use apan_core::tier::TierStats;
use apan_metrics::{
    Clock, Counter, Histogram, LatencyRecorder, ObsHub, Registry, Stage, TraceSink, STAGES,
};
use apan_tgraph::TemporalGraph;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Batch-size histogram buckets: 1, 2, ≤4, ≤8, …, ≤64, >64.
pub const BATCH_BUCKETS: usize = 8;

/// Service-latency samples retained for `STATS` percentiles: enough for
/// stable tails, small enough that a long-running daemon's stats memory
/// and per-`STATS` sort cost stay constant.
pub const LATENCY_WINDOW: usize = 8192;

/// Per-connection reply-queue depth. A peer that stops reading fills its
/// own queue and is disconnected, never stalling the batcher.
const REPLY_QUEUE: usize = 1024;

/// How long a cluster `FLUSH` barrier waits for the shard to admit
/// every sequence number below it. Generous: a chaos-injected link
/// retransmits dropped deliveries on a sub-second timer, so hitting
/// this means a peer is down, not slow.
const BARRIER_TIMEOUT: Duration = Duration::from_secs(30);

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
    /// Propagation-channel capacity (backpressure on the async link).
    pub capacity: usize,
    /// Propagation pool width; `0` defers to `APAN_PROP_THREADS`
    /// (default 1). Any width serves bit-identical state — the pool
    /// changes throughput, never results.
    pub prop_threads: usize,
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
    /// Numeric precision of the serving encoder's weight matmuls:
    /// [`Precision::Int8`] quantizes the attention projections and MLP
    /// head once at boot (training checkpoints are always f32). Exposed
    /// as the `apan_precision_bits` gauge.
    pub precision: Precision,
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
            capacity: 256,
            prop_threads: 0,
            policy: BatchPolicy::default(),
            high_water: 1024,
            lateness: None,
            snapshot_path: None,
            snapshot_every: None,
            infer_delay: Duration::ZERO,
            clock: Clock::real(),
            snapshot_tear_after: None,
            trace_buffer: 8192,
            precision: Precision::F32,
            cluster: None,
        }
    }
}

/// Counters behind the `STATS` verb. Every counter and histogram here
/// is also registered in the daemon's metric [`Registry`], so the JSON
/// `STATS` document and the Prometheus `METRICS` exposition read the
/// same underlying state and can never disagree.
pub struct ServeStats {
    /// Service latency (admission → reply) per request, over a bounded
    /// sliding window of [`LATENCY_WINDOW`] samples.
    pub latency: Mutex<LatencyRecorder>,
    /// Inference batches run.
    pub batches: Counter,
    /// Requests served (excluding shed).
    pub requests: Counter,
    /// Interactions scored.
    pub interactions: Counter,
    /// Batch-size histogram. The `STATS` document renders its first
    /// [`BATCH_BUCKETS`] log₂ buckets (overflow folded into the last),
    /// which is bit-identical to the legacy fixed-width histogram.
    pub batch_hist: Arc<Histogram>,
    /// Unwindowed service-latency histogram (nanoseconds), for the
    /// `METRICS` exposition.
    pub service_hist: Arc<Histogram>,
    /// Largest batch seen.
    pub batch_max: Arc<AtomicU64>,
    /// Snapshots written.
    pub snapshots: Counter,
    /// Snapshot attempts that failed.
    pub snapshot_failures: Counter,
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::new(&Registry::new())
    }
}

impl ServeStats {
    /// Fresh stats with every counter and histogram registered in `reg`.
    pub fn new(reg: &Registry) -> Self {
        let batch_hist = Arc::new(Histogram::new());
        let service_hist = Arc::new(Histogram::new());
        let stats = Self {
            latency: Mutex::new(LatencyRecorder::bounded(LATENCY_WINDOW)),
            requests: reg.counter("apan_requests_total", "Requests served (excluding shed)"),
            batches: reg.counter("apan_batches_total", "Inference batches run"),
            interactions: reg.counter("apan_interactions_total", "Interactions scored"),
            snapshots: reg.counter("apan_snapshots_total", "Snapshots written"),
            snapshot_failures: reg.counter(
                "apan_snapshot_failures_total",
                "Snapshot attempts that failed",
            ),
            batch_max: Arc::new(AtomicU64::new(0)),
            batch_hist: Arc::clone(&batch_hist),
            service_hist: Arc::clone(&service_hist),
        };
        let bm = Arc::clone(&stats.batch_max);
        reg.gauge_fn("apan_batch_max", "Largest batch seen", move || {
            bm.load(Ordering::Relaxed) as f64
        });
        reg.histogram(
            "apan_batch_size",
            "Interactions per inference batch",
            1.0,
            batch_hist,
        );
        reg.histogram(
            "apan_service_seconds",
            "Service latency, admission to reply",
            1e-9,
            service_hist,
        );
        stats
    }

    fn record_batch(&self, requests: usize, interactions: usize) {
        self.batches.inc();
        self.requests.add(requests as u64);
        self.interactions.add(interactions as u64);
        self.batch_max
            .fetch_max(interactions as u64, Ordering::Relaxed);
        self.batch_hist.record(interactions as u64);
    }
}

/// Registers scrape-time views over state owned by other subsystems —
/// the ingress queue, the propagation link, and the observability hub —
/// so `METRICS` reads them fresh instead of mirroring them.
fn register_scrape_views(
    reg: &Registry,
    queue: &Arc<IngressQueue>,
    prop: &PropLink,
    obs: &ObsHub,
    clock: Clock,
    started: Duration,
) {
    let q = Arc::clone(queue);
    reg.counter_fn(
        "apan_shed_total",
        "Requests shed by admission control",
        move || q.stats().shed,
    );
    let q = Arc::clone(queue);
    reg.counter_fn(
        "apan_clamped_total",
        "Interaction timestamps clamped forward to the monotone watermark",
        move || q.stats().clamped,
    );
    let q = Arc::clone(queue);
    reg.counter_fn(
        "apan_late_admitted_total",
        "Out-of-order interactions admitted inside the lateness window",
        move || q.stats().late_admitted,
    );
    let q = Arc::clone(queue);
    reg.counter_fn(
        "apan_late_dropped_total",
        "Out-of-order interactions older than the lateness window (scored read-only, not admitted)",
        move || q.stats().late_dropped,
    );
    let q = Arc::clone(queue);
    reg.gauge_fn(
        "apan_queue_depth",
        "Inference requests currently queued",
        move || q.stats().depth as f64,
    );
    let q = Arc::clone(queue);
    reg.gauge_fn(
        "apan_watermark",
        "Current event-time watermark",
        move || q.stats().watermark,
    );
    let p = prop.clone();
    reg.counter_fn(
        "apan_prop_jobs_total",
        "Propagation jobs executed",
        move || p.stats().jobs as u64,
    );
    let p = prop.clone();
    reg.counter_fn(
        "apan_prop_deliveries_total",
        "Mails delivered to mailbox slots",
        move || p.stats().deliveries as u64,
    );
    let p = prop.clone();
    reg.counter_fn(
        "apan_prop_decode_errors_total",
        "Propagation payloads that failed to decode",
        move || p.stats().decode_errors as u64,
    );
    let p = prop.clone();
    reg.gauge_fn(
        "apan_prop_pending",
        "Propagation jobs queued or in flight",
        move || p.pending() as f64,
    );
    let p = prop.clone();
    reg.gauge_fn(
        "apan_reorder_buffered",
        "Late-admitted interactions buffered awaiting event-time release",
        move || p.reorder_buffered() as f64,
    );
    let p = prop.clone();
    reg.counter_fn(
        "apan_late_released_total",
        "Buffered late interactions released into committed mailbox state",
        move || p.late_released(),
    );
    let p = prop.clone();
    reg.gauge_fn(
        "apan_prop_deliveries_per_sec",
        "Mail delivery rate since daemon start",
        move || {
            let elapsed = clock.now().saturating_sub(started).as_secs_f64();
            if elapsed > 0.0 {
                p.stats().deliveries as f64 / elapsed
            } else {
                0.0
            }
        },
    );
    let o = obs.clone();
    reg.counter_fn(
        "apan_trace_dropped_total",
        "Trace events evicted from the ring buffer before a TRACE drain",
        move || o.dropped_events(),
    );
    for stage in STAGES {
        let o = obs.clone();
        reg.histogram_fn(
            &format!("apan_stage_{}_seconds", stage.name()),
            &format!("Time spent in the {} stage", stage.name()),
            1e-9,
            move || o.stage_snapshot(stage),
        );
    }
    // Cluster-hop spans (zero outside a cluster), same seconds rendering
    // as the legacy sync/async stages.
    for (stage, help) in [
        (
            Stage::Forward,
            "Peer DELIVER forwarding, first send to ack (retransmits included)",
        ),
        (
            Stage::ReplicaApply,
            "Applying a peer-forwarded propagation job on this replica",
        ),
    ] {
        let o = obs.clone();
        reg.histogram_fn(
            &format!("apan_stage_{}_seconds", stage.name()),
            help,
            1e-9,
            move || o.stage_snapshot(stage),
        );
    }
    // Raw-nanosecond views over the storage-side spans (these are short
    // enough that seconds-scaled log₂ buckets would collapse them).
    for (name, stage, help) in [
        (
            "apan_reorder_park_ns",
            Stage::ReorderRelease,
            "Reorder-buffer residency of late-admitted events, park to event-time release",
        ),
        (
            "apan_tier_cold_read_ns",
            Stage::ColdRead,
            "Cold-tier segment reads on mailbox access",
        ),
        (
            "apan_tier_evict_ns",
            Stage::TierEvict,
            "Hot-tier mailbox evictions to the cold tier",
        ),
        (
            "apan_tier_promote_ns",
            Stage::TierPromote,
            "Mailbox promotions from the cold tier back into RAM",
        ),
    ] {
        let o = obs.clone();
        reg.histogram_fn(name, help, 1.0, move || o.stage_snapshot(stage));
    }
    let o = obs.clone();
    reg.histogram_fn(
        "apan_prop_lag_seconds",
        "Mail age (admission to mailbox commit) on the asynchronous link",
        1e-9,
        move || o.prop_lag_snapshot(),
    );
}

struct Conn {
    /// Connection id, mixed into derived trace ids so spans from
    /// different peers reusing the same `req_id` stay distinguishable.
    id: u64,
    /// Bounded reply queue drained by this connection's writer thread.
    /// Frames never interleave (single drainer), and the batcher never
    /// blocks on a peer's socket.
    tx: SyncSender<(u8, u64, Vec<u8>)>,
    /// Handle used to force-close the socket (shutdown, slow consumer).
    raw: TcpStream,
}

impl Conn {
    fn send(&self, verb: u8, req_id: u64, payload: &[u8]) {
        match self.tx.try_send((verb, req_id, payload.to_vec())) {
            Ok(()) => {}
            // A full queue means the peer stopped reading: disconnect it
            // rather than let it head-of-line block everyone's replies.
            Err(TrySendError::Full(_)) => {
                let _ = self.raw.shutdown(Shutdown::Both);
            }
            // writer already gone — a dead peer is their problem
            Err(TrySendError::Disconnected(_)) => {}
        }
    }
}

struct Shared {
    queue: Arc<IngressQueue>,
    stats: ServeStats,
    /// Every metric the daemon exposes, rendered by the `METRICS` verb.
    registry: Registry,
    /// The pipeline's observability hub: stage histograms, `prop_lag`,
    /// and the trace sink drained by the `TRACE` verb.
    obs: ObsHub,
    running: AtomicBool,
    /// Set by [`ServerHandle::crash`]: stop *without* the final
    /// snapshot, modelling a hard kill for the fault-injection harness.
    crashed: AtomicBool,
    /// Live connections only: each entry is removed when its reader
    /// exits, so the daemon never accumulates dead peers' sockets.
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    /// Reader/writer threads; finished handles are reaped on accept.
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    /// Parks the snapshot tick thread between ticks; notified on
    /// shutdown (and by virtual-clock advances via the waker registry).
    tick_mutex: Mutex<()>,
    tick_cv: Arc<Condvar>,
    cfg: ServeConfig,
    dim: usize,
    mailbox_slots: usize,
    /// Live counters of the propagation pool, valid after the pipeline
    /// moves into the batcher thread.
    prop: PropLink,
    /// Mailbox tier counters (residency, evictions, promotions, cold
    /// bytes). All zeros when no `mailbox_budget` is configured.
    tier: Arc<TierStats>,
    /// Daemon boot instant on the daemon clock (for deliveries/sec).
    started: Duration,
    /// The global-sequence turnstile serializing cluster work (`ROUTE`
    /// and `DELIVER`) onto the ingress FIFO in gateway admission order.
    /// Idle in single-process mode.
    order: Arc<DeliveryOrder>,
    /// Forwarders replicating this shard's propagation jobs to its
    /// peers. Empty (every forward a no-op) in single-process mode.
    peers: Arc<PeerSet>,
}

impl Shared {
    /// `(shard_id, cluster_size)` — `(0, 1)` when serving single-process.
    fn shard_identity(&self) -> (usize, usize) {
        self.cfg
            .cluster
            .as_ref()
            .map_or((0, 1), |m| (m.shard_id, m.cluster_size))
    }

    fn stats_json(&self) -> String {
        let q = self.queue.stats();
        let latency = self.stats.latency.lock().unwrap().summary();
        let hist = self.stats.batch_hist.counts_clamped(BATCH_BUCKETS);
        let hist_json: Vec<String> = hist.iter().map(|c| c.to_string()).collect();
        let prop = self.prop.stats();
        // guard against a zero (or virtual, non-advancing) clock: the
        // rate must be a finite JSON number, never inf/NaN
        let elapsed = self
            .cfg
            .clock
            .now()
            .saturating_sub(self.started)
            .as_secs_f64();
        let rate = if elapsed > 0.0 {
            prop.deliveries as f64 / elapsed
        } else {
            0.0
        };
        let (shard_id, cluster_size) = self.shard_identity();
        format!(
            "{{\"latency\":{},\"queue_depth\":{},\"shed\":{},\"clamped\":{},\
             \"late_admitted\":{},\"late_dropped\":{},\"reorder_buffered\":{},\
             \"watermark\":{:.6},\
             \"batches\":{},\"requests\":{},\"interactions\":{},\"batch_hist\":[{}],\
             \"batch_max\":{},\"snapshots\":{},\"snapshot_failures\":{},\
             \"prop_pending\":{},\"prop_jobs\":{},\"prop_deliveries\":{},\
             \"prop_deliveries_per_sec\":{:.6},\"prop_decode_errors\":{},\
             \"tier_resident\":{},\"tier_evictions\":{},\"tier_promotions\":{},\
             \"tier_cold_bytes\":{},\
             \"trace_dropped\":{},\"slow_exemplar\":{},\
             \"shard_id\":{shard_id},\"cluster_size\":{cluster_size}}}",
            latency.to_json(),
            q.depth,
            q.shed,
            q.clamped,
            q.late_admitted,
            q.late_dropped,
            self.prop.reorder_buffered(),
            q.watermark,
            self.stats.batches.get(),
            self.stats.requests.get(),
            self.stats.interactions.get(),
            hist_json.join(","),
            self.stats.batch_max.load(Ordering::Relaxed),
            self.stats.snapshots.get(),
            self.stats.snapshot_failures.get(),
            self.prop.pending(),
            prop.jobs,
            prop.deliveries,
            rate,
            prop.decode_errors,
            self.tier.resident.load(Ordering::Relaxed),
            self.tier.evictions.load(Ordering::Relaxed),
            self.tier.promotions.load(Ordering::Relaxed),
            self.tier.cold_bytes.load(Ordering::Relaxed),
            self.obs.dropped_events(),
            self.stats.service_hist.slowest_exemplar(),
        )
    }

    fn info_json(&self) -> String {
        format!(
            "{{\"dim\":{},\"mailbox_slots\":{},\"max_batch\":{},\"high_water\":{},\"max_node\":{}}}",
            self.dim, self.mailbox_slots, self.cfg.policy.max_batch, self.cfg.high_water,
            self.cfg.max_node
        )
    }
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
        self.shared.conns.lock().unwrap().len()
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
        let _ = self
            .shared
            .queue
            .submit_control(Control::Shutdown(Box::new(|| {})));
        self.join();
    }

    /// Waits for the daemon to stop (via `SHUTDOWN` verb or
    /// [`ServerHandle::shutdown`] from another handle's thread).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        let workers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.shared.workers.lock().unwrap());
        for t in workers {
            let _ = t.join();
        }
    }
}

/// Boots the daemon: restores a snapshot if one exists at the configured
/// path, binds the listener, and spawns the serving threads.
pub fn start(mut model: Apan, cfg: ServeConfig) -> Result<ServerHandle, StartError> {
    // Warm restart: an existing snapshot wins over the passed-in weights.
    let mut pipeline = match &cfg.snapshot_path {
        Some(path) if path.exists() => {
            let (store, graph) = snapshot::read_snapshot(path, &mut model)?;
            eprintln!(
                "apan-serve: warm restart from {} ({} nodes, {} events)",
                path.display(),
                store.num_nodes(),
                graph.num_events()
            );
            ServingPipeline::with_options(model, store, graph, cfg.capacity, cfg.prop_threads)
        }
        _ => {
            let store = model.new_store(cfg.num_nodes);
            let graph = TemporalGraph::with_capacity(cfg.num_nodes, 1024);
            ServingPipeline::with_options(model, store, graph, cfg.capacity, cfg.prop_threads)
        }
    };
    // sync-path latency stamps and stage spans run on the daemon clock
    pipeline.set_clock(cfg.clock.clone());
    pipeline.set_precision(cfg.precision);
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
    let watermark = pipeline.graph().read().max_time();

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
    register_scrape_views(&registry, &queue, &prop, &obs, cfg.clock.clone(), started);
    {
        let bits = pipeline.precision().bits();
        registry.gauge_fn(
            "apan_precision_bits",
            "Bits per stored weight on the serving encoder path (32 = f32, 8 = int8)",
            move || f64::from(bits),
        );
    }
    let tier = pipeline.tier_stats();
    {
        let t = Arc::clone(&tier);
        registry.gauge_fn(
            "apan_tier_resident",
            "Node mailboxes currently resident in the hot in-RAM tier (0 when tiering is off)",
            move || t.resident.load(Ordering::Relaxed) as f64,
        );
        let t = Arc::clone(&tier);
        registry.counter_fn(
            "apan_tier_evictions_total",
            "Mailboxes evicted from the hot tier to the on-disk cold tier",
            move || t.evictions.load(Ordering::Relaxed),
        );
        let t = Arc::clone(&tier);
        registry.counter_fn(
            "apan_tier_promotions_total",
            "Mailboxes promoted from the cold tier back into RAM on touch",
            move || t.promotions.load(Ordering::Relaxed),
        );
        let t = Arc::clone(&tier);
        registry.gauge_fn(
            "apan_tier_cold_bytes",
            "Live (non-superseded) record bytes in the cold tier's segment files",
            move || t.cold_bytes.load(Ordering::Relaxed) as f64,
        );
    }
    let (shard_id, cluster_size) = cfg
        .cluster
        .as_ref()
        .map_or((0, 1), |m| (m.shard_id, m.cluster_size));
    registry.gauge_fn(
        "apan_shard_id",
        "This daemon's shard index in the serving cluster (0 when single-process)",
        move || shard_id as f64,
    );
    registry.gauge_fn(
        "apan_cluster_size",
        "Number of shards in the serving cluster (1 when single-process)",
        move || cluster_size as f64,
    );
    let peers = Arc::new(PeerSet::new(
        cfg.cluster
            .as_ref()
            .map_or(Duration::from_millis(200), |m| m.deliver_retry),
        obs.clone(),
    ));
    if let Some(m) = &cfg.cluster {
        if !m.peers.is_empty() {
            peers.set_peers(&m.peers);
        }
    }
    let shared = Arc::new(Shared {
        queue,
        stats,
        registry,
        obs,
        running: AtomicBool::new(true),
        crashed: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        workers: Mutex::new(Vec::new()),
        next_conn: AtomicU64::new(0),
        tick_mutex: Mutex::new(()),
        tick_cv,
        dim: pipeline.model().cfg.dim,
        mailbox_slots: pipeline.model().cfg.mailbox_slots,
        prop,
        tier,
        started,
        order: Arc::new(DeliveryOrder::new()),
        peers,
        cfg,
    });

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
                .spawn(move || accept_loop(listener, &shared))
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
                    (item.respond)(InferOutcome::Failed("daemon shutting down".into()));
                }
            }
            Drained::Control(Control::Snapshot(done)) => {
                done(Some("daemon shutting down".into()));
            }
            Drained::Control(Control::Flush(ack)) => ack(),
            Drained::Control(Control::RoutedInfer { item, .. }) => {
                (item.respond)(InferOutcome::Failed("daemon shutting down".into()));
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
        "apan-serve: propagation pool retired ({} jobs, {} deliveries)",
        stats.jobs, stats.deliveries
    );
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    while shared.running.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                reap_workers(shared);
                let _ = stream.set_nodelay(true);
                // bounds how long a dead peer's writer thread lingers
                let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                let Ok(raw) = stream.try_clone() else {
                    continue;
                };
                let (tx, rx) = mpsc::sync_channel(REPLY_QUEUE);
                let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                let conn = Arc::new(Conn { id, tx, raw });
                shared.conns.lock().unwrap().insert(id, Arc::clone(&conn));
                let writer = std::thread::Builder::new()
                    .name("apan-conn-writer".into())
                    .spawn(move || writer_loop(write_half, rx))
                    .expect("spawn writer");
                let shared2 = Arc::clone(shared);
                let reader = std::thread::Builder::new()
                    .name("apan-conn".into())
                    .spawn(move || {
                        reader_loop(stream, &conn, &shared2);
                        // Peer gone: free the connection slot. Dropping
                        // the map's Conn lets the writer exit once every
                        // in-flight responder has delivered its reply.
                        shared2.conns.lock().unwrap().remove(&id);
                    })
                    .expect("spawn reader");
                let mut workers = shared.workers.lock().unwrap();
                workers.push(writer);
                workers.push(reader);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    // Wake blocked readers so their threads exit. Only the read half is
    // shut down: writers still drain queued replies (e.g. the SHUTDOWN
    // ack) before exiting.
    for conn in shared.conns.lock().unwrap().values() {
        let _ = conn.raw.shutdown(Shutdown::Read);
    }
}

/// Joins reader/writer threads whose connections have ended, so a
/// long-running daemon taking many short-lived connections does not
/// accumulate thread handles without bound.
fn reap_workers(shared: &Shared) {
    let mut finished = Vec::new();
    {
        let mut workers = shared.workers.lock().unwrap();
        let mut alive = Vec::with_capacity(workers.len());
        for h in workers.drain(..) {
            if h.is_finished() {
                finished.push(h);
            } else {
                alive.push(h);
            }
        }
        *workers = alive;
    }
    for h in finished {
        let _ = h.join();
    }
}

/// Drains one connection's reply queue onto its socket. Exits when the
/// peer dies (write failure) or every sender — the conns-map entry plus
/// all in-flight responders — has dropped.
fn writer_loop(stream: TcpStream, rx: Receiver<(u8, u64, Vec<u8>)>) {
    use std::io::Write;
    let mut w = BufWriter::new(stream);
    while let Ok((verb, req_id, payload)) = rx.recv() {
        // a dead peer is their problem, not the daemon's
        if proto::write_frame(&mut w, verb, req_id, &payload).is_err() || w.flush().is_err() {
            break;
        }
    }
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

fn reader_loop(stream: TcpStream, conn: &Arc<Conn>, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(stream);
    loop {
        let frame = match proto::read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // clean EOF, dead socket, or lost framing: drop the
            // connection; the daemon itself never goes down with it
            Ok(None) | Err(ProtoError::Io(_)) => break,
            Err(e) => {
                conn.send(reply::ERROR, 0, e.to_string().as_bytes());
                break;
            }
        };
        handle_frame(frame, conn, shared);
        if !shared.running.load(Ordering::SeqCst) {
            break;
        }
    }
}

fn handle_frame(frame: Frame, conn: &Arc<Conn>, shared: &Arc<Shared>) {
    let req_id = frame.req_id;
    match frame.verb {
        verb::INFER => {
            let t_admit = shared.obs.stamp();
            let (interactions, feats, tag) = match proto::decode_infer_traced(frame.payload) {
                Ok(x) => x,
                Err(e) => {
                    conn.send(reply::ERROR, req_id, e.to_string().as_bytes());
                    return;
                }
            };
            // client-chosen trace id, or one derived from (conn, req):
            // unique per request, recoverable from the client's req_id
            let trace_id = tag.unwrap_or((conn.id << 32) ^ req_id);
            if interactions.is_empty() {
                conn.send(reply::SCORES, req_id, &proto::encode_scores(&[]));
                return;
            }
            if feats.cols() != shared.dim {
                conn.send(
                    reply::ERROR,
                    req_id,
                    format!("feature width {} != model dim {}", feats.cols(), shared.dim)
                        .as_bytes(),
                );
                return;
            }
            if let Some(i) = interactions
                .iter()
                .find(|i| i.src > shared.cfg.max_node || i.dst > shared.cfg.max_node)
            {
                conn.send(
                    reply::ERROR,
                    req_id,
                    format!(
                        "node id {} exceeds max_node {}",
                        i.src.max(i.dst),
                        shared.cfg.max_node
                    )
                    .as_bytes(),
                );
                return;
            }
            let respond_conn = Arc::clone(conn);
            let responder = Box::new(move |outcome: InferOutcome| match outcome {
                InferOutcome::Scores(scores) => {
                    respond_conn.send(reply::SCORES, req_id, &proto::encode_scores(&scores));
                }
                InferOutcome::Failed(msg) => {
                    respond_conn.send(reply::ERROR, req_id, msg.as_bytes());
                }
            });
            match shared
                .queue
                .submit_infer(interactions, feats, trace_id, responder)
            {
                Ok(()) => {
                    // decode + validation + admission, on the reader thread
                    let t_admitted = shared.obs.stamp();
                    shared
                        .obs
                        .stage_record(Stage::Admit, trace_id, t_admit, t_admitted);
                }
                Err((AdmitError::Overloaded, _)) => {
                    conn.send(reply::OVERLOADED, req_id, b"");
                }
                Err((AdmitError::Closed, _)) => {
                    conn.send(reply::ERROR, req_id, b"daemon shutting down");
                }
            }
        }
        verb::STATS => {
            conn.send(reply::JSON, req_id, shared.stats_json().as_bytes());
        }
        verb::METRICS => {
            conn.send(reply::TEXT, req_id, shared.registry.render().as_bytes());
        }
        verb::TRACE => {
            let events = shared.obs.drain_events();
            let mut out = String::with_capacity(events.len() * 72);
            for ev in &events {
                out.push_str(&ev.to_json_line());
                out.push('\n');
            }
            conn.send(reply::TEXT, req_id, out.as_bytes());
        }
        verb::INFO => {
            conn.send(reply::JSON, req_id, shared.info_json().as_bytes());
        }
        verb::PING => {
            conn.send(reply::OK, req_id, b"");
        }
        verb::FLUSH => {
            let barrier = match proto::decode_flush_barrier(&frame.payload) {
                Ok(b) => b,
                Err(e) => {
                    conn.send(reply::ERROR, req_id, e.to_string().as_bytes());
                    return;
                }
            };
            if let Some(g) = barrier {
                // Cluster barrier: every sequence number below `g` must
                // be admitted locally first, or "flushed" would not mean
                // the same state on every replica.
                if !shared.order.wait_reached(g, BARRIER_TIMEOUT) {
                    conn.send(reply::ERROR, req_id, b"flush barrier timed out");
                    return;
                }
            }
            let respond_conn = Arc::clone(conn);
            let ack = Box::new(move || {
                respond_conn.send(reply::OK, req_id, b"");
            });
            if let Err(Control::Flush(ack)) = shared.queue.submit_control(Control::Flush(ack)) {
                ack();
            }
        }
        verb::DELIVER => {
            let (gseq, job, tag) = match proto::decode_deliver_traced(frame.payload) {
                Ok(x) => x,
                Err(e) => {
                    conn.send(reply::ERROR, req_id, e.to_string().as_bytes());
                    return;
                }
            };
            match shared.order.begin(gseq) {
                // already admitted — a retransmit; ack so the sender
                // stops resending (this dedup is what makes dropped and
                // reordered DELIVER frames safe)
                Begin::Duplicate => conn.send(reply::OK, req_id, b""),
                Begin::Aborted => conn.send(reply::ERROR, req_id, b"daemon shutting down"),
                Begin::Turn => {
                    // Replicate the owner's post-admission watermark
                    // inside the turn, so every replica's admission
                    // decisions match serial admission bit for bit.
                    let max_time = job
                        .interactions
                        .iter()
                        .map(|i| i.time)
                        .fold(f64::NEG_INFINITY, f64::max);
                    shared.queue.advance_watermark(max_time);
                    let respond_conn = Arc::clone(conn);
                    let done = Box::new(move || respond_conn.send(reply::OK, req_id, b""));
                    match shared.queue.submit_control(Control::RemoteDeliver {
                        job,
                        trace_id: tag.unwrap_or(0),
                        done,
                    }) {
                        Ok(()) => shared.order.complete(),
                        // closed mid-shutdown: not committed, so no ack
                        // and no complete — the order aborts on the way
                        // down and the cluster restarts together
                        Err(_) => conn.send(reply::ERROR, req_id, b"daemon shutting down"),
                    }
                }
            }
        }
        verb::ROUTE => {
            let (gseq, inner) = match proto::decode_route(frame.payload) {
                Ok(x) => x,
                Err(e) => {
                    conn.send(reply::ERROR, req_id, e.to_string().as_bytes());
                    return;
                }
            };
            let t_admit = shared.obs.stamp();
            let decoded = proto::decode_infer_traced(inner);
            match shared.order.begin(gseq) {
                Begin::Duplicate => {
                    conn.send(reply::ERROR, req_id, b"sequence number already admitted");
                }
                Begin::Aborted => {
                    conn.send(reply::ERROR, req_id, b"daemon shutting down");
                }
                Begin::Turn => {
                    // Once the turn is claimed, `gseq` MUST be consumed:
                    // a rejection still broadcasts an empty hole-filler
                    // job so no replica waits on this number forever.
                    let reject = |msg: &str| {
                        conn.send(reply::ERROR, req_id, msg.as_bytes());
                        // a rejection has no request to attribute: the
                        // hole-filler goes out untraced
                        shared.peers.forward(gseq, &proto::empty_job_bytes(), 0);
                        shared.order.complete();
                    };
                    let (mut interactions, feats, tag) = match decoded {
                        Ok(x) => x,
                        Err(e) => return reject(&e.to_string()),
                    };
                    if interactions.is_empty() {
                        conn.send(reply::SCORES, req_id, &proto::encode_scores(&[]));
                        shared.peers.forward(gseq, &proto::empty_job_bytes(), 0);
                        shared.order.complete();
                        return;
                    }
                    if feats.cols() != shared.dim {
                        return reject(&format!(
                            "feature width {} != model dim {}",
                            feats.cols(),
                            shared.dim
                        ));
                    }
                    if let Some(i) = interactions
                        .iter()
                        .find(|i| i.src > shared.cfg.max_node || i.dst > shared.cfg.max_node)
                    {
                        return reject(&format!(
                            "node id {} exceeds max_node {}",
                            i.src.max(i.dst),
                            shared.cfg.max_node
                        ));
                    }
                    // Admission inside the turn: the shared watermark
                    // advances in global-sequence order, exactly as a
                    // single serial daemon would have admitted.
                    let adm = match shared.queue.admit_routed(&mut interactions) {
                        Ok(adm) => adm,
                        Err(_) => {
                            conn.send(reply::ERROR, req_id, b"daemon shutting down");
                            return;
                        }
                    };
                    let trace_id = tag.unwrap_or((conn.id << 32) ^ req_id);
                    let respond_conn = Arc::clone(conn);
                    let responder = Box::new(move |outcome: InferOutcome| match outcome {
                        InferOutcome::Scores(scores) => {
                            respond_conn.send(
                                reply::SCORES,
                                req_id,
                                &proto::encode_scores(&scores),
                            );
                        }
                        InferOutcome::Failed(msg) => {
                            respond_conn.send(reply::ERROR, req_id, msg.as_bytes());
                        }
                    });
                    let item = InferItem {
                        interactions,
                        feats,
                        kinds: adm.kinds,
                        enqueued: shared.queue.clock().now(),
                        trace_id,
                        respond: responder,
                    };
                    match shared
                        .queue
                        .submit_control(Control::RoutedInfer { gseq, item })
                    {
                        Ok(()) => {
                            shared.order.complete();
                            let t_admitted = shared.obs.stamp();
                            shared
                                .obs
                                .stage_record(Stage::Admit, trace_id, t_admit, t_admitted);
                        }
                        Err(Control::RoutedInfer { item, .. }) => {
                            (item.respond)(InferOutcome::Failed("daemon shutting down".into()));
                        }
                        Err(_) => unreachable!("submit_control returns what it was given"),
                    }
                }
            }
        }
        verb::SNAPSHOT => {
            let respond_conn = Arc::clone(conn);
            let done = Box::new(move |err: Option<String>| match err {
                None => respond_conn.send(reply::OK, req_id, b""),
                Some(msg) => respond_conn.send(reply::ERROR, req_id, msg.as_bytes()),
            });
            if let Err(Control::Snapshot(done)) =
                shared.queue.submit_control(Control::Snapshot(done))
            {
                done(Some("daemon shutting down".into()));
            }
        }
        verb::SHUTDOWN => {
            let respond_conn = Arc::clone(conn);
            let ack = Box::new(move || {
                respond_conn.send(reply::OK, req_id, b"");
            });
            if let Err(Control::Shutdown(ack)) = shared.queue.submit_control(Control::Shutdown(ack))
            {
                // already shutting down — still acknowledge
                ack();
            }
        }
        v => {
            conn.send(
                reply::ERROR,
                req_id,
                format!("unknown verb {v:#04x}").as_bytes(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared log₂ [`Histogram`], clamped to [`BATCH_BUCKETS`]
    /// buckets, reproduces the legacy bespoke batch-size histogram
    /// exactly: same boundaries (≤1, ≤2, ≤4, …, ≤64, >64), same counts.
    #[test]
    fn batch_histogram_matches_the_legacy_bucket_boundaries() {
        let hist = Histogram::new();
        let mut legacy = vec![0u64; BATCH_BUCKETS];
        for interactions in 1..=2000usize {
            hist.record(interactions as u64);
            // the replaced algorithm, verbatim
            let mut idx = 0usize;
            let mut cap = 1usize;
            while interactions > cap && idx < BATCH_BUCKETS - 1 {
                cap *= 2;
                idx += 1;
            }
            legacy[idx] += 1;
        }
        assert_eq!(hist.counts_clamped(BATCH_BUCKETS), legacy);
    }
}
