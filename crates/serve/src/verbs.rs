//! Verb dispatch: what the daemon does with each decoded frame.
//!
//! Cheap verbs (`STATS`, `METRICS`, `TRACE`, `INFO`, `PING`) are answered
//! inline on the reader thread; everything else becomes work on the
//! shared ingress queue and is answered by a responder once the batcher
//! gets to it. `INFER` and `ROUTE` put a request through the same
//! [`checked_infer`] before admission; `ROUTE` additionally claims its
//! global-sequence turn and hole-fills the number when the request is
//! rejected.

use crate::batcher::{AdmitError, Control, InferItem, InferOutcome, Responder};
use crate::cluster_link::Begin;
use crate::conn::Conn;
use crate::proto::{self, reply, verb, Frame};
use crate::server::{Shared, SHUTTING_DOWN};
use apan_core::propagator::Interaction;
use apan_metrics::Stage;
use apan_tensor::Tensor;
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

/// How long a cluster `FLUSH` barrier waits for the shard to admit
/// every sequence number below it. Generous: a chaos-injected link
/// retransmits dropped deliveries on a sub-second timer, so hitting
/// this means a peer is down, not slow.
const BARRIER_TIMEOUT: Duration = Duration::from_secs(30);

/// An inference request that passed every pre-admission check.
struct CheckedInfer {
    interactions: Vec<Interaction>,
    feats: Tensor,
    /// Client-chosen trace id, or one derived from (conn, req): unique
    /// per request, recoverable from the client's `req_id`.
    trace_id: u64,
}

/// Why a request stops before admission — and what its sender is told.
enum Rejected {
    /// Nothing to score: answered with an empty `SCORES`.
    Empty,
    /// Malformed, over-wide or out-of-range: answered with `ERROR`.
    Invalid(String),
}

impl Rejected {
    fn reply(&self, conn: &Conn, req_id: u64) {
        match self {
            Rejected::Empty => conn.send(reply::SCORES, req_id, &proto::encode_scores(&[])),
            Rejected::Invalid(msg) => conn.send(reply::ERROR, req_id, msg.as_bytes()),
        }
    }
}

/// The one request check behind both `INFER` and `ROUTE`: decodes the
/// payload and refuses an empty batch, a feature matrix not as wide as the
/// model's, and any node id above `max_node` (the cap that stops a
/// hostile request from growing serving state without bound).
fn checked_infer(
    payload: Bytes,
    conn: &Conn,
    req_id: u64,
    shared: &Shared,
) -> Result<CheckedInfer, Rejected> {
    let (interactions, feats, tag) =
        proto::decode_infer_traced(payload).map_err(|e| Rejected::Invalid(e.to_string()))?;
    if interactions.is_empty() {
        return Err(Rejected::Empty);
    }
    if feats.cols() != shared.dim {
        return Err(Rejected::Invalid(format!(
            "feature width {} != model dim {}",
            feats.cols(),
            shared.dim
        )));
    }
    let max_node = shared.cfg.max_node;
    if let Some(i) = interactions
        .iter()
        .find(|i| i.src > max_node || i.dst > max_node)
    {
        return Err(Rejected::Invalid(format!(
            "node id {} exceeds max_node {max_node}",
            i.src.max(i.dst)
        )));
    }
    Ok(CheckedInfer {
        interactions,
        feats,
        trace_id: tag.unwrap_or((conn.id << 32) ^ req_id),
    })
}

/// The responder carried by an admitted request: scores or the failure
/// message, back on the requesting connection.
fn score_responder(conn: &Arc<Conn>, req_id: u64) -> Responder {
    let conn = Arc::clone(conn);
    Box::new(move |outcome: InferOutcome| match outcome {
        InferOutcome::Scores(scores) => {
            conn.send(reply::SCORES, req_id, &proto::encode_scores(&scores));
        }
        InferOutcome::Failed(msg) => conn.send(reply::ERROR, req_id, msg.as_bytes()),
    })
}

/// An acknowledgement callback: `OK` on the requesting connection.
fn ok_responder(conn: &Arc<Conn>, req_id: u64) -> Box<dyn FnOnce() + Send> {
    let conn = Arc::clone(conn);
    Box::new(move || conn.send(reply::OK, req_id, b""))
}

pub(crate) fn handle_frame(frame: Frame, conn: &Arc<Conn>, shared: &Arc<Shared>) {
    let req_id = frame.req_id;
    let error = |msg: &str| conn.send(reply::ERROR, req_id, msg.as_bytes());
    match frame.verb {
        verb::INFER => {
            let t_admit = shared.obs.stamp();
            let req = match checked_infer(frame.payload, conn, req_id, shared) {
                Ok(req) => req,
                Err(rejected) => return rejected.reply(conn, req_id),
            };
            match shared.queue.submit_infer(
                req.interactions,
                req.feats,
                req.trace_id,
                score_responder(conn, req_id),
            ) {
                Ok(()) => {
                    // decode + validation + admission, on the reader thread
                    let t_admitted = shared.obs.stamp();
                    shared
                        .obs
                        .stage_record(Stage::Admit, req.trace_id, t_admit, t_admitted);
                }
                Err((AdmitError::Overloaded, _)) => conn.send(reply::OVERLOADED, req_id, b""),
                Err((AdmitError::Closed, _)) => error(SHUTTING_DOWN),
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
                Err(e) => return error(&e.to_string()),
            };
            if let Some(g) = barrier {
                // Cluster barrier: every sequence number below `g` must
                // be admitted locally first, or "flushed" would not mean
                // the same state on every replica.
                if !shared.order.wait_reached(g, BARRIER_TIMEOUT) {
                    return error("flush barrier timed out");
                }
            }
            let ack = ok_responder(conn, req_id);
            if let Err(Control::Flush(ack)) = shared.queue.submit_control(Control::Flush(ack)) {
                ack();
            }
        }
        verb::DELIVER => {
            let (gseq, job, tag) = match proto::decode_deliver_traced(frame.payload) {
                Ok(x) => x,
                Err(e) => return error(&e.to_string()),
            };
            match shared.order.begin(gseq) {
                // already admitted — a retransmit; ack so the sender
                // stops resending (this dedup is what makes dropped and
                // reordered DELIVER frames safe)
                Begin::Duplicate => conn.send(reply::OK, req_id, b""),
                Begin::Aborted => error(SHUTTING_DOWN),
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
                    match shared.queue.submit_control(Control::RemoteDeliver {
                        job,
                        trace_id: tag.unwrap_or(0),
                        done: ok_responder(conn, req_id),
                    }) {
                        Ok(()) => shared.order.complete(),
                        // closed mid-shutdown: not committed, so no ack
                        // and no complete — the order aborts on the way
                        // down and the cluster restarts together
                        Err(_) => error(SHUTTING_DOWN),
                    }
                }
            }
        }
        verb::ROUTE => {
            let (gseq, inner) = match proto::decode_route(frame.payload) {
                Ok(x) => x,
                Err(e) => return error(&e.to_string()),
            };
            let t_admit = shared.obs.stamp();
            // checked before the turn is claimed: the wait for earlier
            // sequence numbers overlaps the decode
            let checked = checked_infer(inner, conn, req_id, shared);
            match shared.order.begin(gseq) {
                Begin::Duplicate => error("sequence number already admitted"),
                Begin::Aborted => error(SHUTTING_DOWN),
                Begin::Turn => {
                    // Once the turn is claimed, `gseq` MUST be consumed:
                    // a rejection still broadcasts an empty hole-filler
                    // job so no replica waits on this number forever.
                    let mut req = match checked {
                        Ok(req) => req,
                        Err(rejected) => {
                            rejected.reply(conn, req_id);
                            // a rejection has no request to attribute:
                            // the hole-filler goes out untraced
                            shared.peers.forward(gseq, &proto::empty_job_bytes(), 0);
                            shared.order.complete();
                            return;
                        }
                    };
                    // Admission inside the turn: the shared watermark
                    // advances in global-sequence order, exactly as a
                    // single serial daemon would have admitted.
                    let Ok(adm) = shared.queue.admit_routed(&mut req.interactions) else {
                        return error(SHUTTING_DOWN);
                    };
                    let item = InferItem {
                        interactions: req.interactions,
                        feats: req.feats,
                        kinds: adm.kinds,
                        enqueued: shared.queue.clock().now(),
                        trace_id: req.trace_id,
                        respond: score_responder(conn, req_id),
                    };
                    match shared
                        .queue
                        .submit_control(Control::RoutedInfer { gseq, item })
                    {
                        Ok(()) => {
                            shared.order.complete();
                            let t_admitted = shared.obs.stamp();
                            shared.obs.stage_record(
                                Stage::Admit,
                                req.trace_id,
                                t_admit,
                                t_admitted,
                            );
                        }
                        Err(Control::RoutedInfer { item, .. }) => {
                            (item.respond)(InferOutcome::Failed(SHUTTING_DOWN.into()));
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
                done(Some(SHUTTING_DOWN.into()));
            }
        }
        verb::SHUTDOWN => {
            let ack = ok_responder(conn, req_id);
            if let Err(Control::Shutdown(ack)) = shared.queue.submit_control(Control::Shutdown(ack))
            {
                // already shutting down — still acknowledge
                ack();
            }
        }
        v => error(&format!("unknown verb {v:#04x}")),
    }
}
