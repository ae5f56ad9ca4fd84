//! Tracing primitives for the serving stack: a lock-free log₂
//! [`Histogram`], per-stage [`Span`]s recorded against the injectable
//! [`Clock`], and a bounded ring [`TraceSink`] that the `TRACE` verb
//! drains as JSON lines.
//!
//! Design constraints, in order:
//!
//! * **Cheap on the hot path.** Recording a stage is two clock reads
//!   plus two relaxed atomic adds; emitting a trace event adds one
//!   short mutex hold on a thread-sharded ring. When no [`TraceSink`]
//!   is installed the emit is a single `Option` check, and the
//!   `trace-off` cargo feature compiles the entire layer — clock reads
//!   included — down to nothing, which is the baseline the
//!   `trace_overhead` bench measures against.
//! * **Deterministic under virtual time.** Every stamp goes through the
//!   hub's [`Clock`], so the simtest harness can assert that a
//!   `batch_wait` histogram contains *exactly* the scheduled virtual
//!   durations.
//! * **Mergeable and exact.** A histogram is a fixed array of
//!   power-of-two buckets; merging is element-wise addition and the
//!   total count is always exactly the number of records (nothing is
//!   sampled or decayed).

use crate::clock::Clock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Number of log₂ buckets in a [`Histogram`]. Bucket `i` holds values
/// in `(2^(i-1), 2^i]` (bucket 0 holds `0..=1`); the last bucket also
/// absorbs everything larger, so it renders as `+Inf` in exposition.
pub const HIST_BUCKETS: usize = 64;

/// A fixed-bucket log₂ histogram over `u64` values (typically
/// nanoseconds), safe to record into from any number of threads.
///
/// All mutation is relaxed `fetch_add` on per-bucket [`AtomicU64`]s:
/// no locks, no allocation, and the sum of bucket counts is exactly
/// the number of values recorded (the exact-count invariant — tested).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    /// Sum of all recorded values (for `_sum` in exposition).
    sum: AtomicU64,
    /// Tail-latency exemplars: per bucket, the trace id of the most
    /// recent *tagged* sample that landed there (0 = none). Written
    /// only by [`Histogram::record_tagged`]; plain [`Histogram::record`]
    /// never touches this array, so untagged hot paths pay nothing.
    exemplars: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The bucket a value lands in: 0 for `v <= 1`, otherwise the
    /// smallest `i` with `v <= 2^i`, clamped to the last bucket.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last,
    /// which is an overflow bucket).
    #[inline]
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records the same value `n` times in one shot (one delivery batch
    /// worth of identical `prop_lag` ages, say).
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
    }

    /// Records one value and, if `trace_id` is non-zero (0 means
    /// "untraced" throughout the stack), retains it as the bucket's
    /// exemplar. Last writer wins: the exemplar is always the *most
    /// recent* tagged sample to land in that bucket, so a p99 bucket
    /// points at a still-warm trace id.
    #[inline]
    pub fn record_tagged(&self, v: u64, trace_id: u64) {
        self.record(v);
        if trace_id != 0 {
            self.exemplars[Self::bucket_index(v)].store(trace_id, Ordering::Relaxed);
        }
    }

    /// The exemplar trace id stored for bucket `i` (0 = none).
    pub fn exemplar(&self, i: usize) -> u64 {
        self.exemplars[i].load(Ordering::Relaxed)
    }

    /// The exemplar of the highest occupied bucket — the trace id of
    /// the most recent sample seen near the tail (0 if no tagged sample
    /// has landed in the top occupied bucket).
    pub fn slowest_exemplar(&self) -> u64 {
        let snap = self.snapshot();
        for i in (0..HIST_BUCKETS).rev() {
            if snap.buckets[i] > 0 {
                return snap.exemplars[i];
            }
        }
        0
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Adds every bucket of `other` into `self`. Associative and
    /// commutative, so shard-local histograms can merge in any order.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        let s = other.sum.load(Ordering::Relaxed);
        if s > 0 {
            self.sum.fetch_add(s, Ordering::Relaxed);
        }
        // Exemplars are "most recent tagged sample"; on merge the other
        // side's exemplar (if any) is taken as newer.
        for (mine, theirs) in self.exemplars.iter().zip(&other.exemplars) {
            let id = theirs.load(Ordering::Relaxed);
            if id != 0 {
                mine.store(id, Ordering::Relaxed);
            }
        }
    }

    /// Nearest-rank `q`-quantile estimate: the upper bound of the
    /// bucket containing the rank-`q` value. For any sample stream the
    /// estimate is in the same bucket as the exact nearest-rank
    /// quantile — i.e. off by at most one bucket width (tested against
    /// [`crate::LatencyRecorder`]).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let snap = self.snapshot();
        let count = snap.count();
        if count == 0 {
            return 0;
        }
        let rank = ((count as f64 - 1.0) * q).round() as u64;
        let mut cum = 0u64;
        for (i, &n) in snap.buckets.iter().enumerate() {
            cum += n;
            if cum > rank {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(HIST_BUCKETS - 1)
    }

    /// A point-in-time copy of the buckets, sum and exemplars.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            exemplars: std::array::from_fn(|i| self.exemplars[i].load(Ordering::Relaxed)),
        }
    }

    /// The first `n` buckets with every higher bucket folded into the
    /// last — exactly the serving daemon's legacy fixed-width batch
    /// histogram (`n = 8`: `≤1, ≤2, ≤4, …, ≤64, >64`).
    pub fn counts_clamped(&self, n: usize) -> Vec<u64> {
        assert!((1..=HIST_BUCKETS).contains(&n));
        let snap = self.snapshot();
        let mut out: Vec<u64> = snap.buckets[..n].to_vec();
        let overflow: u64 = snap.buckets[n..].iter().sum();
        out[n - 1] += overflow;
        out
    }
}

/// Point-in-time copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts.
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Per-bucket exemplar trace ids (0 = none).
    pub exemplars: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

// ----------------------------------------------------------------------
// Stages and trace events
// ----------------------------------------------------------------------

/// The span kinds a request can accumulate, across every hop of the
/// cluster. The single-daemon pipeline stages come first, in causal
/// order: the synchronous link (`Admit → BatchWait → Encode →
/// DecodeScore`) then the asynchronous propagation link (`Commit →
/// Plan → Deliver`, where `Commit` is the ordered graph-event commit
/// and `Deliver` the sharded mailbox delivery). The cluster and
/// subsystem kinds (gateway routing, peer forwarding, replica apply,
/// reorder-buffer park/release, tier traffic) only fire when their
/// subsystem is active, so a lone default daemon still records exactly
/// the original seven kinds per request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Frame decode + admission control on the serving thread.
    Admit,
    /// Time a request sat in the ingress queue before its batch closed.
    BatchWait,
    /// Mailbox read + attention encoder forward.
    Encode,
    /// Link-decoder forward + sigmoid scoring.
    DecodeScore,
    /// k-hop sampling + delivery planning (propagation worker).
    Plan,
    /// Applying the delivery plan to the sharded mailbox store.
    Deliver,
    /// Ordered temporal-graph event commit (propagation worker).
    Commit,
    /// Gateway: owner-shard call, from ROUTE dispatch to reply.
    Route,
    /// Peer forwarder: DELIVER send until the replica's ack.
    Forward,
    /// Replica: decoding + replaying a remote job into the local store.
    ReplicaApply,
    /// Reorder buffer: inserting a late event (bounded-lateness mode).
    ReorderPark,
    /// Reorder buffer: releasing a parked event; the span covers the
    /// full park residency, so its histogram is the park-time
    /// distribution (`apan_reorder_park_ns`).
    ReorderRelease,
    /// Tier store: exporting a cold record to the spill file.
    TierEvict,
    /// Tier store: re-importing a cold record into the hot tier.
    TierPromote,
    /// Tier store: one cold record read
    /// (`apan_tier_cold_read_ns`).
    ColdRead,
}

/// The original seven single-daemon stages, in the order spans are
/// expected to appear for one request (`Commit` precedes `Plan` in
/// wall time: the worker commits graph events before sampling against
/// them). Metric names and the per-request e2e span contract are
/// pinned to this list; cluster/subsystem kinds live in
/// [`SPAN_KINDS`].
pub const STAGES: [Stage; 7] = [
    Stage::Admit,
    Stage::BatchWait,
    Stage::Encode,
    Stage::DecodeScore,
    Stage::Commit,
    Stage::Plan,
    Stage::Deliver,
];

/// Every span kind, legacy stages first (their positions — and hence
/// drain sort order — are unchanged from when `STAGES` was the whole
/// list), cluster/subsystem kinds after.
pub const SPAN_KINDS: [Stage; 15] = [
    Stage::Admit,
    Stage::BatchWait,
    Stage::Encode,
    Stage::DecodeScore,
    Stage::Commit,
    Stage::Plan,
    Stage::Deliver,
    Stage::Route,
    Stage::Forward,
    Stage::ReplicaApply,
    Stage::ReorderPark,
    Stage::ReorderRelease,
    Stage::TierEvict,
    Stage::TierPromote,
    Stage::ColdRead,
];

impl Stage {
    /// Stable snake_case name used in metric names and TRACE output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admit => "admit",
            Stage::BatchWait => "batch_wait",
            Stage::Encode => "encode",
            Stage::DecodeScore => "decode_score",
            Stage::Plan => "plan",
            Stage::Deliver => "deliver",
            Stage::Commit => "commit",
            Stage::Route => "route",
            Stage::Forward => "forward",
            Stage::ReplicaApply => "replica_apply",
            Stage::ReorderPark => "reorder_park",
            Stage::ReorderRelease => "reorder_release",
            Stage::TierEvict => "tier_evict",
            Stage::TierPromote => "tier_promote",
            Stage::ColdRead => "cold_read",
        }
    }

    /// Parses a stable name back into a stage (the TRACE merge path).
    pub fn from_name(name: &str) -> Option<Stage> {
        SPAN_KINDS.iter().copied().find(|s| s.name() == name)
    }

    fn order(self) -> usize {
        SPAN_KINDS
            .iter()
            .position(|s| *s == self)
            .expect("span kind listed")
    }
}

/// One completed stage span: enter/exit stamps on the hub's clock,
/// tagged with the request's trace id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Request-derived correlation id (client-chosen or derived from
    /// the wire `req_id`).
    pub trace_id: u64,
    /// Which pipeline stage this span covers.
    pub stage: Stage,
    /// Stage entry, nanoseconds since the clock epoch.
    pub start_ns: u64,
    /// Stage exit, nanoseconds since the clock epoch.
    pub end_ns: u64,
}

impl TraceEvent {
    /// Renders the event as one JSON line (the `TRACE` verb's format).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"trace_id\":{},\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.trace_id,
            self.stage.name(),
            self.start_ns,
            self.end_ns
        )
    }
}

/// An open stage span: [`ObsHub::enter`] stamps entry, [`ObsHub::exit`]
/// stamps exit and records it. Deliberately not RAII — exit is an
/// explicit call so the borrow of the hub is not held across the stage
/// body.
#[must_use = "a span records nothing until exited"]
#[derive(Debug)]
pub struct Span {
    trace_id: u64,
    stage: Stage,
    start: Duration,
}

// ----------------------------------------------------------------------
// Trace sink: thread-sharded bounded rings
// ----------------------------------------------------------------------

/// A bounded ring of [`TraceEvent`]s. Full rings drop the *oldest*
/// event (and count the drop) so a sink that is never drained degrades
/// to "most recent window" rather than blocking the pipeline.
#[derive(Debug)]
pub struct TraceBuffer {
    ring: Mutex<VecDeque<TraceEvent>>,
    cap: usize,
    dropped: AtomicU64,
}

impl TraceBuffer {
    /// An empty ring holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "trace buffer needs a positive capacity");
        Self {
            ring: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends one event, evicting the oldest if the ring is full.
    pub fn push(&self, ev: TraceEvent) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }

    /// Removes and returns every buffered event, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.ring.lock().unwrap().drain(..).collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Process-wide slot counter backing the per-thread shard choice.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn thread_slot() -> usize {
    THREAD_SLOT.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

/// A set of per-thread [`TraceBuffer`] rings. Each recording thread
/// sticks to one ring (so pushes contend only with the drainer), and
/// [`TraceSink::drain`] merges all rings into one stream sorted by
/// start time.
#[derive(Debug)]
pub struct TraceSink {
    shards: Vec<TraceBuffer>,
}

impl TraceSink {
    /// A sink with `total_capacity` events spread over one ring per
    /// available core (capped at 16 rings).
    pub fn new(total_capacity: usize) -> Arc<Self> {
        let shards = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(16);
        Self::with_shards(total_capacity, shards)
    }

    /// A sink with an explicit ring count (tests).
    pub fn with_shards(total_capacity: usize, shards: usize) -> Arc<Self> {
        assert!(shards > 0, "trace sink needs at least one shard");
        let per = (total_capacity / shards).max(1);
        Arc::new(Self {
            shards: (0..shards).map(|_| TraceBuffer::new(per)).collect(),
        })
    }

    /// Appends one event to the calling thread's ring.
    pub fn emit(&self, ev: TraceEvent) {
        self.shards[thread_slot() % self.shards.len()].push(ev);
    }

    /// Drains every ring, returning one stream sorted by
    /// `(start_ns, end_ns, stage order, trace_id)` — a stable,
    /// deterministic order for any fixed set of events.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self.shards.iter().flat_map(|s| s.drain()).collect();
        out.sort_by_key(|e| (e.start_ns, e.end_ns, e.stage.order(), e.trace_id));
        out
    }

    /// Total events evicted across all rings.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped()).sum()
    }
}

// ----------------------------------------------------------------------
// The observability hub
// ----------------------------------------------------------------------

struct ObsInner {
    clock: RwLock<Clock>,
    stages: [Histogram; SPAN_KINDS.len()],
    prop_lag: Histogram,
    sink: RwLock<Option<Arc<TraceSink>>>,
}

/// One cheaply-clonable handle bundling everything a pipeline stage
/// needs to observe itself: the injectable clock, the seven per-stage
/// histograms plus `prop_lag`, and an optional [`TraceSink`].
///
/// The clock and sink are swappable after construction (behind
/// `RwLock`s), so the serving daemon can hand workers their hub at
/// spawn time and install a virtual clock or a sink later.
#[derive(Clone)]
pub struct ObsHub {
    inner: Arc<ObsInner>,
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHub")
            .field("clock", &*self.inner.clock.read().unwrap())
            .field("sink_installed", &self.sink().is_some())
            .finish()
    }
}

impl ObsHub {
    /// A hub on the real clock, with no sink installed.
    pub fn new() -> Self {
        Self::with_clock(Clock::real())
    }

    /// A hub on an explicit clock.
    pub fn with_clock(clock: Clock) -> Self {
        Self {
            inner: Arc::new(ObsInner {
                clock: RwLock::new(clock),
                stages: std::array::from_fn(|_| Histogram::new()),
                prop_lag: Histogram::new(),
                sink: RwLock::new(None),
            }),
        }
    }

    /// Swaps the clock every subsequent stamp reads. Existing recorded
    /// durations are untouched.
    pub fn set_clock(&self, clock: Clock) {
        *self.inner.clock.write().unwrap() = clock;
    }

    /// A clone of the current clock.
    pub fn clock(&self) -> Clock {
        self.inner.clock.read().unwrap().clone()
    }

    /// Current time on the hub's clock. Always live (used for latency
    /// stamps the serving stats contract depends on), even under
    /// `trace-off`.
    pub fn now(&self) -> Duration {
        self.inner.clock.read().unwrap().now()
    }

    /// Installs (or replaces) the trace sink; stage records start
    /// emitting [`TraceEvent`]s immediately.
    pub fn install_sink(&self, sink: Arc<TraceSink>) {
        *self.inner.sink.write().unwrap() = Some(sink);
    }

    /// The installed sink, if any.
    pub fn sink(&self) -> Option<Arc<TraceSink>> {
        self.inner.sink.read().unwrap().clone()
    }

    /// Drains the installed sink (empty if none is installed).
    pub fn drain_events(&self) -> Vec<TraceEvent> {
        self.sink().map(|s| s.drain()).unwrap_or_default()
    }

    /// Events dropped by the installed sink's rings.
    pub fn dropped_events(&self) -> u64 {
        self.sink().map(|s| s.dropped()).unwrap_or(0)
    }

    /// The histogram behind one stage.
    pub fn stage_hist(&self, stage: Stage) -> &Histogram {
        &self.inner.stages[stage.order()]
    }

    /// Snapshot of one stage's histogram.
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stage_hist(stage).snapshot()
    }

    /// Snapshot of the `prop_lag` histogram.
    pub fn prop_lag_snapshot(&self) -> HistogramSnapshot {
        self.inner.prop_lag.snapshot()
    }

    /// A stage-timing stamp. Identical to [`ObsHub::now`] normally;
    /// compiled to a constant zero under `trace-off` so the baseline
    /// build pays no clock reads.
    #[cfg(not(feature = "trace-off"))]
    #[inline]
    pub fn stamp(&self) -> Duration {
        self.now()
    }

    /// `trace-off`: stage stamps cost nothing.
    #[cfg(feature = "trace-off")]
    #[inline(always)]
    pub fn stamp(&self) -> Duration {
        Duration::ZERO
    }

    /// Records one completed stage span: bumps the stage histogram and,
    /// if a sink is installed, emits a [`TraceEvent`].
    #[cfg(not(feature = "trace-off"))]
    pub fn stage_record(&self, stage: Stage, trace_id: u64, start: Duration, end: Duration) {
        let ns = end.saturating_sub(start).as_nanos() as u64;
        self.stage_hist(stage).record_tagged(ns, trace_id);
        if let Some(sink) = self.inner.sink.read().unwrap().as_ref() {
            sink.emit(TraceEvent {
                trace_id,
                stage,
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
            });
        }
    }

    /// `trace-off`: stage records cost nothing.
    #[cfg(feature = "trace-off")]
    #[inline(always)]
    pub fn stage_record(&self, _stage: Stage, _trace_id: u64, _start: Duration, _end: Duration) {}

    /// Opens a span at the current stamp.
    pub fn enter(&self, trace_id: u64, stage: Stage) -> Span {
        Span {
            trace_id,
            stage,
            start: self.stamp(),
        }
    }

    /// Closes a span: stamps the exit and records it.
    pub fn exit(&self, span: Span) {
        let end = self.stamp();
        self.stage_record(span.stage, span.trace_id, span.start, end);
    }

    /// Records `mails` deliveries all aged `age` into the `prop_lag`
    /// histogram (every mail in one delivery plan commits at the same
    /// instant, so their ages are identical by construction).
    #[cfg(not(feature = "trace-off"))]
    pub fn prop_lag_record(&self, age: Duration, mails: usize) {
        self.inner
            .prop_lag
            .record_n(age.as_nanos() as u64, mails as u64);
    }

    /// `trace-off`: lag records cost nothing.
    #[cfg(feature = "trace-off")]
    #[inline(always)]
    pub fn prop_lag_record(&self, _age: Duration, _mails: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        for i in 1..HIST_BUCKETS - 1 {
            let bound = 1u64 << i;
            assert_eq!(Histogram::bucket_index(bound), i, "at bound 2^{i}");
            assert_eq!(
                Histogram::bucket_index(bound + 1),
                i + 1,
                "above bound 2^{i}"
            );
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn exact_count_invariant() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1 << 40, u64::MAX] {
            h.record(v);
        }
        h.record_n(7, 5);
        assert_eq!(h.count(), 12);
        assert_eq!(h.snapshot().count(), 12);
    }

    #[test]
    fn quantile_walks_buckets() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 7, bound 128
        }
        for _ in 0..10 {
            h.record(100_000); // bucket 17, bound 131072
        }
        assert_eq!(h.quantile(0.5), 128);
        assert_eq!(h.quantile(0.99), 131_072);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn counts_clamped_folds_overflow() {
        let h = Histogram::new();
        h.record(1); // bucket 0
        h.record(64); // bucket 6
        h.record(65); // bucket 7
        h.record(1000); // bucket 10 → folded
        let c = h.counts_clamped(8);
        assert_eq!(c, vec![1, 0, 0, 0, 0, 0, 1, 2]);
        assert_eq!(c.iter().sum::<u64>(), h.count());
    }

    #[test]
    fn merge_adds_buckets_and_sums() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(3);
        b.record(3);
        b.record(1 << 30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 3 + 3 + (1 << 30));
        assert_eq!(a.snapshot().buckets[2], 2);
    }

    #[test]
    fn trace_buffer_is_a_bounded_ring() {
        let b = TraceBuffer::new(2);
        let ev = |id| TraceEvent {
            trace_id: id,
            stage: Stage::Encode,
            start_ns: id,
            end_ns: id + 1,
        };
        b.push(ev(1));
        b.push(ev(2));
        b.push(ev(3)); // evicts 1
        assert_eq!(b.dropped(), 1);
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].trace_id, 2);
        assert_eq!(drained[1].trace_id, 3);
        assert!(b.is_empty());
    }

    #[test]
    fn sink_drain_is_sorted_and_emptying() {
        let sink = TraceSink::with_shards(64, 4);
        for id in (0..10u64).rev() {
            sink.emit(TraceEvent {
                trace_id: id,
                stage: Stage::Plan,
                start_ns: id * 10,
                end_ns: id * 10 + 1,
            });
        }
        let drained = sink.drain();
        assert_eq!(drained.len(), 10);
        assert!(drained.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(sink.drain().is_empty());
    }

    #[cfg(not(feature = "trace-off"))]
    #[test]
    fn hub_records_stages_and_emits_when_sink_installed() {
        let hub = ObsHub::with_clock(Clock::virtual_clock());
        let vt = hub.clock().virtual_handle().unwrap();
        let span = hub.enter(42, Stage::Encode);
        vt.advance(Duration::from_millis(3));
        hub.exit(span);
        // histogram sees the duration even with no sink
        let snap = hub.stage_snapshot(Stage::Encode);
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.sum, 3_000_000);
        assert!(hub.drain_events().is_empty());

        hub.install_sink(TraceSink::with_shards(16, 1));
        let span = hub.enter(43, Stage::Plan);
        vt.advance(Duration::from_millis(1));
        hub.exit(span);
        let events = hub.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace_id, 43);
        assert_eq!(events[0].start_ns, 3_000_000);
        assert_eq!(events[0].end_ns, 4_000_000);
        assert_eq!(
            events[0].to_json_line(),
            "{\"trace_id\":43,\"stage\":\"plan\",\"start_ns\":3000000,\"end_ns\":4000000}"
        );
    }

    #[test]
    fn exemplars_track_the_most_recent_tagged_sample_per_bucket() {
        let h = Histogram::new();
        h.record(100); // untagged: bucket fills, no exemplar
        assert_eq!(h.exemplar(Histogram::bucket_index(100)), 0);
        h.record_tagged(100, 7);
        h.record_tagged(100, 9); // same bucket: last writer wins
        assert_eq!(h.exemplar(Histogram::bucket_index(100)), 9);
        h.record_tagged(100_000, 11);
        assert_eq!(h.slowest_exemplar(), 11); // highest occupied bucket
        h.record_tagged(1 << 40, 0); // tag 0 = untraced: never retained
        assert_eq!(h.slowest_exemplar(), 0);
        let snap = h.snapshot();
        assert_eq!(snap.exemplars[Histogram::bucket_index(100)], 9);

        // merge carries exemplars across (other side wins where set)
        let m = Histogram::new();
        m.merge(&h);
        assert_eq!(m.exemplar(Histogram::bucket_index(100_000)), 11);
    }

    #[test]
    fn span_kind_names_are_stable_and_roundtrip() {
        let names: Vec<&str> = SPAN_KINDS.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "admit",
                "batch_wait",
                "encode",
                "decode_score",
                "commit",
                "plan",
                "deliver",
                "route",
                "forward",
                "replica_apply",
                "reorder_park",
                "reorder_release",
                "tier_evict",
                "tier_promote",
                "cold_read"
            ]
        );
        // SPAN_KINDS keeps the legacy stages first, in STAGES order, so
        // drain sort keys for old traffic are bit-for-bit unchanged.
        assert_eq!(&SPAN_KINDS[..STAGES.len()], &STAGES[..]);
        for kind in SPAN_KINDS {
            assert_eq!(Stage::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Stage::from_name("no_such_stage"), None);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "admit",
                "batch_wait",
                "encode",
                "decode_score",
                "commit",
                "plan",
                "deliver"
            ]
        );
    }
}
