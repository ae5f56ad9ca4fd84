//! Connection lifecycle, written once for every listener in the system.
//!
//! [`Connections`] is the part the daemon, the cluster gateway and the
//! chaos proxy share: accept on a non-blocking listener while the owner
//! is running, register each peer's socket, spawn its thread, reap
//! finished thread handles, force-close, and join. A long-running
//! process serving many short-lived connections therefore holds no more
//! sockets or threads than it has live peers, whichever front it is.
//!
//! The rest of the file is the daemon's own connection: a reader thread
//! decoding frames into [`crate::verbs::handle_frame`] and a writer
//! thread draining a bounded reply queue, so frames never interleave and
//! a peer that stops reading fills only its own queue (and is then
//! disconnected) instead of head-of-line blocking the batcher.

use crate::proto::{self, reply, ProtoError};
use crate::server::Shared;
use crate::verbs::handle_frame;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection reply-queue depth. A peer that stops reading fills its
/// own queue and is disconnected, never stalling the batcher.
const REPLY_QUEUE: usize = 1024;

/// The live connections of one listener and the threads serving them.
#[derive(Default)]
pub struct Connections {
    /// Live connections only: each entry is removed when its thread
    /// exits, so dead peers' sockets never accumulate.
    live: Mutex<HashMap<u64, Arc<TcpStream>>>,
    /// Connection threads; finished handles are reaped on accept.
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
}

impl Connections {
    /// Number of currently-connected peers.
    pub fn active(&self) -> usize {
        self.live.lock().unwrap().len()
    }

    /// Accepts until `running` clears (or the listener fails), serving
    /// each connection on its own thread named `thread_name`:
    /// `serve(id, stream, raw)` runs there until the peer is done, `raw`
    /// being a second handle to the socket for force-closing it. On the
    /// way out every live connection is shut down `on_stop` to wake its
    /// blocked reader.
    pub fn accept_loop(
        self: &Arc<Self>,
        listener: TcpListener,
        running: &AtomicBool,
        thread_name: &str,
        on_stop: Shutdown,
        serve: impl Fn(u64, TcpStream, &Arc<TcpStream>) + Send + Sync + 'static,
    ) {
        let serve = Arc::new(serve);
        while running.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.reap_workers();
                    let _ = stream.set_nodelay(true);
                    let Ok(raw) = stream.try_clone().map(Arc::new) else {
                        continue;
                    };
                    let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                    self.live.lock().unwrap().insert(id, Arc::clone(&raw));
                    let (me, serve) = (Arc::clone(self), Arc::clone(&serve));
                    let worker = std::thread::Builder::new()
                        .name(thread_name.into())
                        .spawn(move || {
                            serve(id, stream, &raw);
                            // Peer gone: free the connection slot.
                            me.live.lock().unwrap().remove(&id);
                        })
                        .expect("spawn connection thread");
                    self.track(worker);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
        self.close_all(on_stop);
    }

    /// Adds a thread that serves a connection alongside the one
    /// [`Connections::accept_loop`] spawned (the daemon's writers), so
    /// it is reaped and joined with the rest.
    pub fn track(&self, worker: JoinHandle<()>) {
        self.workers.lock().unwrap().push(worker);
    }

    /// Shuts down every live connection's socket.
    pub fn close_all(&self, how: Shutdown) {
        for raw in self.live.lock().unwrap().values() {
            let _ = raw.shutdown(how);
        }
    }

    /// Joins connection threads whose connections have ended, so many
    /// short-lived connections do not accumulate thread handles without
    /// bound.
    fn reap_workers(&self) {
        let finished: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().unwrap();
            let (done, alive) = workers.drain(..).partition(|h| h.is_finished());
            *workers = alive;
            done
        };
        for h in finished {
            let _ = h.join();
        }
    }

    /// Waits for every connection thread to exit. Call once the accept
    /// loop has returned; loops because a connection thread may
    /// [`track`](Self::track) a companion while it is being joined.
    pub fn join(&self) {
        loop {
            let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock().unwrap());
            if workers.is_empty() {
                return;
            }
            for t in workers {
                let _ = t.join();
            }
        }
    }
}

/// The daemon's sending side of one connection.
pub(crate) struct Conn {
    /// Connection id, mixed into derived trace ids so spans from
    /// different peers reusing the same `req_id` stay distinguishable.
    pub(crate) id: u64,
    /// Bounded reply queue drained by this connection's writer thread.
    /// Frames never interleave (single drainer), and the batcher never
    /// blocks on a peer's socket.
    tx: SyncSender<(u8, u64, Vec<u8>)>,
    /// Handle used to force-close the socket (slow consumer).
    raw: Arc<TcpStream>,
}

impl Conn {
    pub(crate) fn send(&self, verb: u8, req_id: u64, payload: &[u8]) {
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

/// Serves one daemon connection on the calling thread: starts its
/// writer, then reads frames until the peer leaves or the daemon stops.
/// Dropping the [`Conn`] on return lets the writer exit once every
/// in-flight responder has delivered its reply.
pub(crate) fn serve_conn(id: u64, stream: TcpStream, raw: &Arc<TcpStream>, shared: &Arc<Shared>) {
    // bounds how long a dead peer's writer thread lingers
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::sync_channel(REPLY_QUEUE);
    let writer = std::thread::Builder::new()
        .name("apan-conn-writer".into())
        .spawn(move || writer_loop(write_half, rx))
        .expect("spawn writer");
    shared.conns.track(writer);
    let conn = Arc::new(Conn {
        id,
        tx,
        raw: Arc::clone(raw),
    });
    reader_loop(stream, &conn, shared);
}

/// Drains one connection's reply queue onto its socket. Exits when the
/// peer dies (write failure) or every sender — the reader's [`Conn`]
/// plus all in-flight responders — has dropped.
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
