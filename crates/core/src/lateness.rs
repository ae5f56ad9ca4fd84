//! Bounded-lateness state of the asynchronous link: how admission
//! classified an interaction ([`AdmitKind`]) and the reorder buffer that
//! parks late events until their window closes.

use crate::propagator::Interaction;
use std::time::Duration;

/// How bounded-lateness admission classified one interaction of a batch.
///
/// Admission keeps a watermark `W` (the max event time admitted in
/// order) and a lateness bound `L`. An arriving event at time `t` is
/// `InOrder` when `t >= W` (and advances `W`), `Late` when
/// `W - L <= t < W` (kept at its original time, reorder-buffered), and
/// `Dropped` when it is older than the window (`t < W - L`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitKind {
    /// At or past the watermark: advances it and propagates normally.
    InOrder,
    /// Behind the watermark but inside the lateness window: spliced
    /// into the temporal graph at arrival, mailbox effects parked in
    /// the reorder buffer until the watermark passes `t + L`.
    Late,
    /// Older than the lateness window: scored read-only, excluded from
    /// the embedding write-back and the asynchronous link entirely.
    Dropped,
}

/// One reorder-buffered late event: already spliced into the temporal
/// graph, waiting for the watermark to pass its release point before
/// its mailbox effects are planned and patch-applied.
pub(crate) struct LateEntry {
    pub(crate) inter: Interaction,
    /// The event's mail row (φ already applied), kept so release does
    /// not need the job's tensors again.
    pub(crate) mail: Vec<f32>,
    /// Trace id of the request that admitted the event, so the release
    /// span lands on the same timeline.
    pub(crate) trace_id: u64,
    /// Hub-clock stamp at park. The `reorder_release` span runs from
    /// here to release, making its histogram the park-time distribution.
    pub(crate) parked_at: Duration,
}

/// The reorder buffer shared by the pipeline and its propagation
/// worker. All mutation happens on the worker, after a job's deliveries
/// (or with the link drained), so the buffer evolves in one
/// deterministic global order.
pub(crate) struct LateState {
    /// Lateness bound `L` in event-time units. Must match the admission
    /// window: an entry is released once `watermark - lateness` passes
    /// its event time, the earliest instant no not-yet-arrived admissible
    /// event can still precede it.
    lateness: f64,
    /// Max in-order event time committed by the link so far.
    watermark: f64,
    /// Buffered entries, sorted by event time; equal times stay in
    /// arrival order, matching the serial replay's tie rule.
    buf: Vec<LateEntry>,
    /// Total late events released (planned + patch-applied) so far.
    released: u64,
}

impl LateState {
    pub(crate) fn new(watermark: f64) -> Self {
        Self {
            lateness: 0.0,
            watermark,
            buf: Vec::new(),
            released: 0,
        }
    }

    pub(crate) fn set_lateness(&mut self, lateness: f64) {
        self.lateness = lateness;
    }

    /// Late events currently parked.
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Total late events released so far.
    pub(crate) fn released(&self) -> u64 {
        self.released
    }

    /// Parks one late event behind every buffered entry at or before
    /// its time.
    pub(crate) fn park(
        &mut self,
        inter: Interaction,
        mail: Vec<f32>,
        trace_id: u64,
        parked_at: Duration,
    ) {
        let pos = self.buf.partition_point(|e| e.inter.time <= inter.time);
        self.buf.insert(
            pos,
            LateEntry {
                inter,
                mail,
                trace_id,
                parked_at,
            },
        );
    }

    /// Raises the watermark to `t` if it is newer.
    pub(crate) fn advance(&mut self, t: f64) {
        if t > self.watermark {
            self.watermark = t;
        }
    }

    /// Removes, in `(time, arrival)` order, every entry whose lateness
    /// window has closed — or every entry when `force` is set (the
    /// snapshot cut). No admissible event earlier than a closed entry
    /// can still arrive, so its k-hop plan is final: sampling is
    /// strictly-before-t, which makes any event inserted after it (all
    /// at later times) invisible — the plan equals the time-sorted
    /// serial replay's.
    pub(crate) fn take_due(&mut self, force: bool) -> Vec<LateEntry> {
        let due = if force {
            self.buf.len()
        } else {
            let threshold = self.watermark - self.lateness;
            self.buf.partition_point(|e| e.inter.time <= threshold)
        };
        self.released += due as u64;
        self.buf.drain(..due).collect()
    }
}
