//! A seeded chaos TCP proxy for `DELIVER` traffic.
//!
//! The simulation harness points each shard's *peer list* at one of
//! these proxies instead of the real shard address. The proxy forwards
//! length-prefixed protocol frames and, with seeded probabilities,
//! **drops**, **duplicates**, or **delays** the `DELIVER` frames
//! flowing through it — exactly the faults the stop-and-wait
//! retransmission in [`apan_serve::cluster_link::PeerSet`] plus the
//! receiver-side sequence dedup must absorb without a single replica
//! diverging.
//!
//! Replies (shard → sender acks) are pumped back verbatim: ack loss is
//! exercised implicitly, because dropping a `DELIVER` also starves its
//! ack and forces the sender's ack timeout, reconnect, and retransmit
//! path — which in turn exercises the receiving daemon's reader-exit
//! connection pruning with a stream of short-lived connections.

use apan_serve::conn::Connections;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Fault probabilities, applied independently per `DELIVER` frame.
#[derive(Clone, Copy, Debug)]
pub struct ChaosProfile {
    /// Probability a `DELIVER` frame vanishes (the sender's ack times
    /// out and it retransmits on a fresh connection).
    pub drop: f64,
    /// Probability a `DELIVER` frame is forwarded twice (the receiver
    /// must dedup by sequence number and ack both).
    pub duplicate: f64,
    /// Probability a `DELIVER` frame is held for `delay` first.
    pub delay_prob: f64,
    /// How long a delayed frame is held.
    pub delay: Duration,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        Self {
            drop: 0.2,
            duplicate: 0.2,
            delay_prob: 0.2,
            delay: Duration::from_millis(10),
        }
    }
}

/// A running chaos proxy: connections to [`ChaosProxy::addr`] are
/// forwarded to the upstream address with faults injected on `DELIVER`
/// frames only.
pub struct ChaosProxy {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    /// Proxied connections and their pump threads — the daemon's own
    /// connection lifecycle.
    conns: Arc<Connections>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy in front of `upstream`, binding an ephemeral
    /// local port. `seed` makes the fault pattern reproducible (each
    /// proxied connection derives its own stream from the seed and a
    /// connection counter).
    pub fn start(upstream: SocketAddr, seed: u64, profile: ChaosProfile) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let conns = Arc::<Connections>::default();
        let accept = {
            let (running, conns) = (Arc::clone(&running), Arc::clone(&conns));
            // counts connections that reached the upstream, so a refused
            // one does not shift the fault streams of those after it
            let proxied = AtomicU64::new(0);
            std::thread::Builder::new()
                .name("apan-chaos-proxy".into())
                .spawn(move || {
                    let pumps = Arc::clone(&conns);
                    conns.accept_loop(
                        listener,
                        &running,
                        "apan-chaos-fwd",
                        Shutdown::Both,
                        move |_, inbound, _| {
                            let Ok(outbound) = TcpStream::connect(upstream) else {
                                return;
                            };
                            let _ = outbound.set_nodelay(true);
                            let k = proxied.fetch_add(1, Ordering::Relaxed);
                            let rng =
                                StdRng::seed_from_u64(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                            let (Ok(in_read), Ok(out_read)) =
                                (inbound.try_clone(), outbound.try_clone())
                            else {
                                return;
                            };
                            // shard → sender: acks pass through verbatim
                            pumps.track(
                                std::thread::Builder::new()
                                    .name("apan-chaos-back".into())
                                    .spawn(move || verbatim_pump(out_read, inbound))
                                    .expect("spawn pump"),
                            );
                            // sender → shard: frame-aware, faults injected
                            chaos_pump(in_read, outbound, rng, profile);
                        },
                    )
                })
                .expect("spawn proxy accept")
        };
        Ok(Self {
            addr,
            running,
            conns,
            accept: Some(accept),
        })
    }

    /// The address shards should use as the peer address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and severs the proxied connections; their pump
    /// threads die with their sockets.
    pub fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        self.conns.join();
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads whole frames from `src` and forwards them to `dst` with
/// seeded faults on `DELIVER` frames. Exits on any socket error.
fn chaos_pump(mut src: TcpStream, mut dst: TcpStream, mut rng: StdRng, profile: ChaosProfile) {
    loop {
        let Some(frame) = read_raw_frame(&mut src) else {
            let _ = dst.shutdown(Shutdown::Both);
            return;
        };
        // byte 4 of the raw frame is the verb (after the length prefix)
        let is_deliver = frame.get(4) == Some(&apan_serve::proto::verb::DELIVER);
        if is_deliver {
            if rng.gen::<f64>() < profile.drop {
                continue; // vanished: the sender's ack timeout handles it
            }
            if rng.gen::<f64>() < profile.delay_prob {
                std::thread::sleep(profile.delay);
            }
            let dup = rng.gen::<f64>() < profile.duplicate;
            if dst.write_all(&frame).is_err() {
                let _ = src.shutdown(Shutdown::Both);
                return;
            }
            if dup && dst.write_all(&frame).is_err() {
                let _ = src.shutdown(Shutdown::Both);
                return;
            }
        } else if dst.write_all(&frame).is_err() {
            let _ = src.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// One raw length-prefixed frame (`len:u32 LE | body`), or `None` on
/// EOF/error. Bounded by the protocol's frame cap so a corrupt prefix
/// cannot drive an unbounded allocation here either.
fn read_raw_frame(src: &mut TcpStream) -> Option<Vec<u8>> {
    let mut head = [0u8; 4];
    read_exact_or_none(src, &mut head)?;
    let len = u32::from_le_bytes(head) as usize;
    if len == 0 || len > apan_serve::proto::MAX_FRAME {
        return None; // lost framing: kill the connection
    }
    let mut frame = vec![0u8; 4 + len];
    frame[0..4].copy_from_slice(&head);
    read_exact_or_none(src, &mut frame[4..])?;
    Some(frame)
}

fn read_exact_or_none(src: &mut TcpStream, buf: &mut [u8]) -> Option<()> {
    src.read_exact(buf).ok()
}

/// Copies bytes verbatim until either side closes.
fn verbatim_pump(mut src: TcpStream, mut dst: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match src.read(&mut buf) {
            Ok(0) | Err(_) => {
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
            Ok(n) => {
                if dst.write_all(&buf[..n]).is_err() {
                    let _ = src.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
    }
}
