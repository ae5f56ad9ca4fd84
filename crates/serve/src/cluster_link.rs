//! Cross-shard plumbing for the multi-daemon cluster.
//!
//! A cluster of N `apand` shards replicates serving state everywhere
//! and partitions *compute* by node ownership
//! ([`apan_core::shard::owner_shard`] on a request's first source
//! node): the owning shard runs the synchronous path and then forwards
//! the batch's propagation job to every peer as a `DELIVER` frame, so
//! all replicas apply the same job stream and stay bitwise identical.
//!
//! Determinism across shards hangs on one invariant: every replica
//! applies cluster work in the gateway's global admission order. Three
//! pieces enforce it:
//!
//! * [`DeliveryOrder`] — a sequence-ticket turnstile. Each routed
//!   inference and each incoming delivery blocks until its global
//!   sequence number is next, claims the turn, enqueues onto the
//!   shard's single ingress FIFO, and retires the ticket. Retransmits
//!   of an already-retired number are detected (and acked) as
//!   duplicates, which is what makes dropped/reordered `DELIVER`
//!   frames safe.
//! * [`PeerSet`] — one stop-and-wait forwarder thread per peer. A
//!   delivery is retransmitted on a fresh connection until the peer
//!   acks it; combined with receiver-side dedup, the channel is
//!   effectively exactly-once, in order, over a lossy transport.
//! * the `FLUSH` barrier (see [`crate::proto::decode_flush_barrier`]) —
//!   a flush fanned out by the gateway waits until the shard has
//!   admitted every sequence number below the barrier before draining,
//!   so "flushed" means the same state on every replica.

use crate::proto::{self, reply, verb, Frame};
use apan_metrics::{ObsHub, Stage};
use std::collections::VecDeque;
use std::io::BufReader;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// This shard's place in the cluster.
#[derive(Clone, Debug)]
pub struct ClusterMembership {
    /// This shard's index in `0..cluster_size`.
    pub shard_id: usize,
    /// Total number of shards.
    pub cluster_size: usize,
    /// Peer shard addresses (everyone but this shard). May start empty
    /// and be installed later via `ServerHandle::set_cluster_peers` —
    /// the ephemeral-port bootstrap: shards must be listening before
    /// anyone can know everyone's address.
    pub peers: Vec<SocketAddr>,
    /// Ack timeout per forwarded delivery; on expiry the forwarder
    /// reconnects and retransmits.
    pub deliver_retry: Duration,
}

impl ClusterMembership {
    /// Membership for shard `shard_id` of `cluster_size`, peers to be
    /// installed later, with a default retransmit timeout.
    pub fn new(shard_id: usize, cluster_size: usize) -> Self {
        assert!(cluster_size >= 1, "a cluster has at least one shard");
        assert!(shard_id < cluster_size, "shard id out of range");
        Self {
            shard_id,
            cluster_size,
            peers: Vec::new(),
            deliver_retry: Duration::from_millis(200),
        }
    }
}

/// Outcome of claiming a global-sequence turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Begin {
    /// The caller owns the turn and must call [`DeliveryOrder::complete`].
    Turn,
    /// This sequence number was already admitted (a retransmit): ack it
    /// and do nothing.
    Duplicate,
    /// The order was aborted (shutdown/crash); give up.
    Aborted,
}

struct OrderState {
    /// Next sequence number to admit.
    next: u64,
    /// Whether `next`'s turn is currently claimed by a thread.
    claimed: bool,
    aborted: bool,
}

/// The sequence-ticket turnstile serializing cluster work onto a
/// shard's ingress FIFO in global admission order.
pub struct DeliveryOrder {
    state: Mutex<OrderState>,
    turned: Condvar,
}

impl Default for DeliveryOrder {
    fn default() -> Self {
        Self::new()
    }
}

impl DeliveryOrder {
    /// An order expecting sequence number 0 first.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(OrderState {
                next: 0,
                claimed: false,
                aborted: false,
            }),
            turned: Condvar::new(),
        }
    }

    /// Blocks until sequence number `g` is next and unclaimed, then
    /// claims its turn. With several threads holding the same `g` (a
    /// retransmit racing its original), exactly one gets
    /// [`Begin::Turn`]; the rest resolve to [`Begin::Duplicate`] once
    /// the turn retires.
    pub fn begin(&self, g: u64) -> Begin {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.aborted {
                return Begin::Aborted;
            }
            if g < st.next {
                return Begin::Duplicate;
            }
            if g == st.next && !st.claimed {
                st.claimed = true;
                return Begin::Turn;
            }
            st = self.turned.wait(st).unwrap();
        }
    }

    /// Retires the claimed turn and admits the next sequence number.
    pub fn complete(&self) {
        let mut st = self.state.lock().unwrap();
        debug_assert!(st.claimed, "complete without a claimed turn");
        st.claimed = false;
        st.next += 1;
        drop(st);
        self.turned.notify_all();
    }

    /// The next sequence number this order will admit (= how many have
    /// been admitted so far).
    pub fn next(&self) -> u64 {
        self.state.lock().unwrap().next
    }

    /// Blocks until at least `g` sequence numbers have been admitted,
    /// the order aborts, or `timeout` elapses. Returns whether the
    /// barrier was reached — the shard half of the cluster `FLUSH`
    /// barrier.
    pub fn wait_reached(&self, g: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap();
        while st.next < g && !st.aborted {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self.turned.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
        st.next >= g
    }

    /// Wakes every waiter with [`Begin::Aborted`] — must be called on
    /// shutdown and on crash, or connection threads blocked on a turn
    /// that will never come would wedge the process.
    pub fn abort(&self) {
        self.state.lock().unwrap().aborted = true;
        self.turned.notify_all();
    }
}

/// One queued cross-shard delivery: the already-encoded `DELIVER`
/// payload (shared across all peer queues) plus the trace id stamped on
/// its forward span (0 = untraced).
#[derive(Clone)]
struct Outgoing {
    payload: Arc<Vec<u8>>,
    trace_id: u64,
}

struct PeerQueue {
    queue: Mutex<VecDeque<Outgoing>>,
    nonempty: Condvar,
}

struct PeerLink {
    queue: Arc<PeerQueue>,
    worker: Option<JoinHandle<()>>,
}

/// Forwarders replicating this shard's propagation jobs to its peers:
/// one background stop-and-wait thread per peer, retransmitting each
/// delivery on a fresh connection until it is acked.
///
/// The forwarder deliberately tears down its connection on every ack
/// timeout instead of reusing it — the peer's reader prunes the dead
/// connection when its reader thread exits, which is exactly the
/// connection-map hygiene the short-lived-reconnect regression test
/// pins down.
pub struct PeerSet {
    peers: Mutex<Vec<PeerLink>>,
    stop: Arc<AtomicBool>,
    retry: Duration,
    obs: ObsHub,
}

impl PeerSet {
    /// An empty set: [`PeerSet::forward`] is a no-op until peers are
    /// installed. Each acked delivery records a `forward` span
    /// (first-send → ack, so retransmits are inside the span) on `obs`.
    pub fn new(retry: Duration, obs: ObsHub) -> Self {
        Self {
            peers: Mutex::new(Vec::new()),
            stop: Arc::new(AtomicBool::new(false)),
            retry: retry.max(Duration::from_millis(1)),
            obs,
        }
    }

    /// Installs the peer addresses and spawns one forwarder per peer.
    /// Meant to be called once, after every shard's listen address is
    /// known; calling again replaces the set (pending deliveries on the
    /// old forwarders are abandoned).
    pub fn set_peers(&self, addrs: &[SocketAddr]) {
        let mut links: Vec<PeerLink> = addrs
            .iter()
            .map(|&addr| {
                let queue = Arc::new(PeerQueue {
                    queue: Mutex::new(VecDeque::new()),
                    nonempty: Condvar::new(),
                });
                let worker = {
                    let queue = Arc::clone(&queue);
                    let stop = Arc::clone(&self.stop);
                    let retry = self.retry;
                    let obs = self.obs.clone();
                    Some(
                        std::thread::Builder::new()
                            .name(format!("apan-peer-{addr}"))
                            .spawn(move || forwarder(addr, queue, stop, retry, obs))
                            .expect("spawn peer forwarder"),
                    )
                };
                PeerLink { queue, worker }
            })
            .collect();
        std::mem::swap(&mut *self.peers.lock().unwrap(), &mut links);
        // old forwarders (if any) stop when the set is stopped; nothing
        // references their queues any more
        for link in &links {
            link.queue.nonempty.notify_all();
        }
    }

    /// Queues one delivery (sequence `gseq`, encoded job bytes) to every
    /// peer. Returns immediately; the forwarders own retransmission. A
    /// non-zero `trace_id` rides the frame as a trace-tag trailer and
    /// stamps each peer's forward span; zero encodes byte-identically to
    /// the pre-tracing wire format.
    pub fn forward(&self, gseq: u64, job: &[u8], trace_id: u64) {
        let out = Outgoing {
            payload: Arc::new(proto::encode_deliver_traced(
                gseq,
                job,
                (trace_id != 0).then_some(trace_id),
            )),
            trace_id,
        };
        for link in self.peers.lock().unwrap().iter() {
            link.queue.queue.lock().unwrap().push_back(out.clone());
            link.queue.nonempty.notify_one();
        }
    }

    /// Stops and joins every forwarder. Pending deliveries are dropped —
    /// callers stop the set only on shutdown/crash, where the whole
    /// cluster is going down (a half-alive cluster cannot make
    /// progress anyway; see the coordinated-restart discipline).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut peers = self.peers.lock().unwrap();
        for link in peers.iter() {
            link.queue.nonempty.notify_all();
        }
        for link in peers.iter_mut() {
            if let Some(w) = link.worker.take() {
                let _ = w.join();
            }
        }
    }
}

impl Drop for PeerSet {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The per-peer forwarder loop: pop the oldest unacked delivery, send
/// it, await the ack within the retry window, and on any failure drop
/// the connection and retransmit on a fresh one. Exits when stopped.
fn forwarder(
    addr: SocketAddr,
    queue: Arc<PeerQueue>,
    stop: Arc<AtomicBool>,
    retry: Duration,
    obs: ObsHub,
) {
    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
    let mut req_id: u64 = 1;
    loop {
        // wait for the oldest unacked delivery (keep it queued: it is
        // only popped once acked)
        let out = {
            let mut q = queue.queue.lock().unwrap();
            loop {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(front) = q.front() {
                    break front.clone();
                }
                let (guard, _) = queue
                    .nonempty
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap();
                q = guard;
            }
        };
        let payload = Arc::clone(&out.payload);
        let t_fwd0 = obs.stamp();
        loop {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let (mut stream, mut reader) = match conn.take() {
                Some(c) => c,
                None => match TcpStream::connect(addr) {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        let _ = s.set_read_timeout(Some(retry));
                        let _ = s.set_write_timeout(Some(retry));
                        match s.try_clone() {
                            Ok(r) => (s, BufReader::new(r)),
                            Err(_) => continue,
                        }
                    }
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                },
            };
            req_id = req_id.wrapping_add(1);
            let sent = stream
                .write_all(&frame_bytes(verb::DELIVER, req_id, &payload))
                .and_then(|()| stream.flush());
            if sent.is_err() {
                continue; // reconnect and retransmit
            }
            // Await *this* send's ack. A chaos link can duplicate a
            // DELIVER frame, and the receiver acks the duplicate too —
            // matching on `req_id` keeps a stale ack from being read as
            // the next delivery's, which would pop a delivery the peer
            // may never have admitted.
            let acked = loop {
                match proto::read_frame(&mut reader) {
                    Ok(Some(f)) if f.req_id != req_id => continue,
                    Ok(Some(Frame {
                        verb: reply::OK, ..
                    })) => break true,
                    // an error reply, a torn stream, or an ack timeout —
                    // tear the connection down and retransmit; the
                    // receiver dedups by sequence number
                    _ => break false,
                }
            };
            if acked {
                queue.queue.lock().unwrap().pop_front();
                let t_fwd1 = obs.stamp();
                obs.stage_record(Stage::Forward, out.trace_id, t_fwd0, t_fwd1);
                conn = Some((stream, reader));
                break;
            }
        }
    }
}

/// A raw frame as it goes on the wire.
fn frame_bytes(verb: u8, req_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(13 + payload.len());
    proto::write_frame(&mut buf, verb, req_id, payload).expect("writing to a Vec cannot fail");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn order_admits_in_sequence_and_dedups() {
        let order = Arc::new(DeliveryOrder::new());
        assert_eq!(order.begin(0), Begin::Turn);
        order.complete();
        assert_eq!(order.begin(0), Begin::Duplicate, "retired turn dedups");
        // out-of-order claims block until their turn
        let o2 = Arc::clone(&order);
        let t = std::thread::spawn(move || {
            assert_eq!(o2.begin(2), Begin::Turn);
            o2.complete();
        });
        assert_eq!(order.begin(1), Begin::Turn);
        order.complete();
        t.join().unwrap();
        assert_eq!(order.next(), 3);
    }

    #[test]
    fn concurrent_same_sequence_resolves_to_one_turn() {
        let order = Arc::new(DeliveryOrder::new());
        let turns = Arc::new(AtomicU64::new(0));
        let dups = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let order = Arc::clone(&order);
                let turns = Arc::clone(&turns);
                let dups = Arc::clone(&dups);
                std::thread::spawn(move || match order.begin(0) {
                    Begin::Turn => {
                        turns.fetch_add(1, Ordering::SeqCst);
                        order.complete();
                    }
                    Begin::Duplicate => {
                        dups.fetch_add(1, Ordering::SeqCst);
                    }
                    Begin::Aborted => panic!("not aborted"),
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(turns.load(Ordering::SeqCst), 1, "exactly one claims");
        assert_eq!(dups.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn wait_reached_observes_progress_and_times_out() {
        let order = Arc::new(DeliveryOrder::new());
        assert!(order.wait_reached(0, Duration::from_millis(1)));
        assert!(!order.wait_reached(2, Duration::from_millis(10)));
        let o2 = Arc::clone(&order);
        let t = std::thread::spawn(move || {
            for _ in 0..2 {
                assert_eq!(o2.begin(o2.next()), Begin::Turn);
                o2.complete();
            }
        });
        assert!(order.wait_reached(2, Duration::from_secs(5)));
        t.join().unwrap();
    }

    #[test]
    fn abort_wakes_blocked_claimants() {
        let order = Arc::new(DeliveryOrder::new());
        let o2 = Arc::clone(&order);
        let t = std::thread::spawn(move || o2.begin(5));
        std::thread::sleep(Duration::from_millis(10));
        order.abort();
        assert_eq!(t.join().unwrap(), Begin::Aborted);
        assert!(!order.wait_reached(5, Duration::from_millis(1)));
    }

    #[test]
    fn empty_peer_set_forwarding_is_a_noop() {
        let peers = PeerSet::new(Duration::from_millis(50), ObsHub::new());
        peers.forward(0, b"job", 0);
        peers.stop();
    }
}
