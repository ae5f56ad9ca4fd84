//! The daemon's stats surface: the counters behind `STATS`, every
//! metric registered for `METRICS`, and the two JSON documents. Both
//! surfaces read the same underlying state, so they can never disagree.

use crate::server::Shared;
use apan_metrics::{Clock, Counter, Histogram, LatencyRecorder, Registry, Stage, STAGES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Batch-size histogram buckets: 1, 2, ≤4, ≤8, …, ≤64, >64.
pub const BATCH_BUCKETS: usize = 8;

/// Service-latency samples retained for `STATS` percentiles.
pub use apan_core::pipeline::LATENCY_WINDOW;

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

    pub(crate) fn record_batch(&self, requests: usize, interactions: usize) {
        self.batches.inc();
        self.requests.add(requests as u64);
        self.interactions.add(interactions as u64);
        self.batch_max
            .fetch_max(interactions as u64, Ordering::Relaxed);
        self.batch_hist.record(interactions as u64);
    }
}

/// `deliveries` as a rate per second since `started`. Guards against a zero
/// (or virtual, non-advancing) clock: the rate must be a finite number,
/// never inf/NaN.
fn deliveries_per_sec(deliveries: usize, clock: &Clock, started: Duration) -> f64 {
    let elapsed = clock.now().saturating_sub(started).as_secs_f64();
    if elapsed > 0.0 {
        deliveries as f64 / elapsed
    } else {
        0.0
    }
}

/// Registers scrape-time views over state owned by other subsystems —
/// the ingress queue, the propagation link, the observability hub, the
/// mailbox tier — and the daemon's fixed identity (its shard),
/// so `METRICS` reads them fresh instead of mirroring them.
pub(crate) fn register_scrape_views(shared: &Shared) {
    let (reg, queue, prop, obs) = (&shared.registry, &shared.queue, &shared.prop, &shared.obs);
    let (clock, started) = (shared.cfg.clock.clone(), shared.started);
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
        move || deliveries_per_sec(p.stats().deliveries, &clock, started),
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
            "Cold-tier record reads on mailbox access",
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
    let t = Arc::clone(&shared.tier);
    reg.gauge_fn(
        "apan_tier_resident",
        "Node mailboxes currently resident in the hot in-RAM tier (0 when tiering is off)",
        move || t.resident.load(Ordering::Relaxed) as f64,
    );
    let t = Arc::clone(&shared.tier);
    reg.counter_fn(
        "apan_tier_evictions_total",
        "Mailboxes evicted from the hot tier to the on-disk cold tier",
        move || t.evictions.load(Ordering::Relaxed),
    );
    let t = Arc::clone(&shared.tier);
    reg.counter_fn(
        "apan_tier_promotions_total",
        "Mailboxes promoted from the cold tier back into RAM on touch",
        move || t.promotions.load(Ordering::Relaxed),
    );
    let t = Arc::clone(&shared.tier);
    reg.gauge_fn(
        "apan_tier_cold_bytes",
        "Bytes of live cold records: mailboxes currently spilled x record length",
        move || t.cold_bytes.load(Ordering::Relaxed) as f64,
    );
    let (shard_id, cluster_size) = shared.shard_identity;
    reg.gauge_fn(
        "apan_shard_id",
        "This daemon's shard index in the serving cluster (0 when single-process)",
        move || shard_id as f64,
    );
    reg.gauge_fn(
        "apan_cluster_size",
        "Number of shards in the serving cluster (1 when single-process)",
        move || cluster_size as f64,
    );
}

impl Shared {
    pub(crate) fn stats_json(&self) -> String {
        let q = self.queue.stats();
        let latency = self.stats.latency.lock().unwrap().summary();
        let hist = self.stats.batch_hist.counts_clamped(BATCH_BUCKETS);
        let hist_json: Vec<String> = hist.iter().map(|c| c.to_string()).collect();
        let prop = self.prop.stats();
        let rate = deliveries_per_sec(prop.deliveries, &self.cfg.clock, self.started);
        let (shard_id, cluster_size) = self.shard_identity;
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

    pub(crate) fn info_json(&self) -> String {
        format!(
            "{{\"dim\":{},\"mailbox_slots\":{},\"max_batch\":{},\"high_water\":{},\"max_node\":{}}}",
            self.dim, self.mailbox_slots, self.cfg.policy.max_batch, self.cfg.high_water,
            self.cfg.max_node
        )
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
