//! The cluster gateway: one thin process fronting N `apand` shards.
//!
//! The gateway is deliberately stateless about *serving* — it holds no
//! model, no mailbox, no graph. Its one piece of authority is the
//! cluster-global sequence counter: every `INFER` is stamped with the
//! next dense sequence number and routed (verbatim, never re-encoded)
//! to the shard that owns the request's first source node. Everything
//! else is fan-out:
//!
//! * `FLUSH` becomes a **barrier flush** — every shard first waits
//!   until it has admitted all sequence numbers below the counter, so
//!   "flushed" means the same replicated state everywhere;
//! * `SNAPSHOT` is a **coordinated cut** — barrier-flush all shards,
//!   then snapshot all shards: the per-shard snapshot files are a
//!   consistent cluster checkpoint by construction;
//! * `STATS` aggregates every shard's JSON document; `METRICS` and
//!   `TRACE` concatenate per-shard sections.
//!
//! If the owning shard cannot be reached *after* a sequence number was
//! assigned, the gateway broadcasts that number with an **empty
//! hole-filler job** to every shard — the stream stays dense and no
//! replica waits forever on a number that died with its owner. The
//! client sees an explicit `ERROR` for that request.

use crate::timeline;
use apan_core::shard::owner_shard;
use apan_metrics::{Clock, ObsHub, Stage, TraceSink};
use apan_serve::client::json_u64_field;
use apan_serve::conn::Connections;
use apan_serve::proto::{self, reply, verb, Frame, ProtoError};
use apan_serve::Client;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long one relayed shard call may block. Generous: a routed
/// inference can legitimately wait out chaos-retransmitted deliveries
/// for earlier sequence numbers; hitting this means a shard is down.
const SHARD_CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Gateway configuration.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard addresses; index in this list **is** the shard id, so it
    /// must match each daemon's `--shard-id` and be identical on every
    /// shard's view of the cluster.
    pub shards: Vec<SocketAddr>,
    /// The time source the gateway's route spans are stamped on.
    /// [`Clock::real`] in production; the deterministic simulation
    /// harness injects the scenario's virtual clock so gateway spans
    /// replay bit-for-bit.
    pub clock: Clock,
    /// Capacity of the gateway's own trace ring (route spans), drained
    /// and merged with the shards' by the `TRACE` verb. `0` installs no
    /// sink: routing is untraced but shard drains still merge.
    pub trace_buffer: usize,
}

struct Shared {
    cfg: GatewayConfig,
    /// Route spans (client edge → owner reply) and the trace ring the
    /// gateway's own `TRACE` contribution drains from.
    obs: ObsHub,
    /// The cluster-global sequence counter: one dense number per
    /// routed inference, cluster-wide.
    gseq: AtomicU64,
    running: AtomicBool,
    /// Live client connections and their threads — the same lifecycle
    /// (register, prune on exit, reap, join) the shard daemons run.
    conns: Arc<Connections>,
}

/// A started gateway.
pub struct GatewayHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl GatewayHandle {
    /// The gateway's bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the gateway is still accepting work.
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Number of currently-connected clients (dead connections are
    /// pruned as their readers exit).
    pub fn active_connections(&self) -> usize {
        self.shared.conns.active()
    }

    /// Stops the whole cluster gracefully: fans `SHUTDOWN` out to every
    /// shard, then stops the gateway itself.
    pub fn shutdown(self) {
        for &addr in &self.shared.cfg.shards {
            if let Ok(mut c) = Client::connect(addr) {
                let _ = c.shutdown_server();
            }
        }
        self.stop();
    }

    /// Stops the gateway **without** touching the shards — the
    /// crash/fault-injection path (and the right move when the shards
    /// are being killed externally).
    pub fn stop(self) {
        self.shared.running.store(false, Ordering::SeqCst);
        self.shared.conns.close_all(Shutdown::Both);
        self.join();
    }

    /// Waits for the gateway to stop.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        self.shared.conns.join();
    }
}

/// Boots the gateway: binds the listener and spawns the accept thread.
/// The shards must already be listening (the gateway connects lazily,
/// per client connection).
pub fn start_gateway(cfg: GatewayConfig) -> io::Result<GatewayHandle> {
    if cfg.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a gateway needs at least one shard",
        ));
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let obs = ObsHub::with_clock(cfg.clock.clone());
    if cfg.trace_buffer > 0 {
        obs.install_sink(TraceSink::new(cfg.trace_buffer));
    }
    let shared = Arc::new(Shared {
        cfg,
        obs,
        gseq: AtomicU64::new(0),
        running: AtomicBool::new(true),
        conns: Arc::default(),
    });
    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("apan-gateway-accept".into())
                .spawn(move || {
                    let serving = Arc::clone(&shared);
                    shared.conns.accept_loop(
                        listener,
                        &shared.running,
                        "apan-gateway-conn",
                        Shutdown::Both,
                        move |id, stream, _raw| conn_loop(stream, id, &serving),
                    )
                })
                .expect("spawn accept"),
        );
    }
    Ok(GatewayHandle {
        addr,
        shared,
        threads,
    })
}

/// One lazily-connected, automatically-reconnecting link to a shard.
/// Each client connection owns its own set — shard sockets are never
/// shared across gateway connections, so relays need no locking and a
/// slow client stalls only its own links.
struct ShardLink {
    addr: SocketAddr,
    conn: Option<(BufWriter<TcpStream>, BufReader<TcpStream>)>,
    next_id: u64,
}

impl ShardLink {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            next_id: 1,
        }
    }

    /// One request/reply roundtrip, reconnecting once on a stale
    /// connection. An error after the retry means the shard is down.
    fn call(&mut self, verb: u8, payload: &[u8]) -> io::Result<Frame> {
        for attempt in 0..2 {
            if self.conn.is_none() {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(SHARD_CALL_TIMEOUT))?;
                let read_half = stream.try_clone()?;
                self.conn = Some((BufWriter::new(stream), BufReader::new(read_half)));
            }
            match self.try_call(verb, payload) {
                Ok(frame) => return Ok(frame),
                Err(e) => {
                    self.conn = None;
                    if attempt == 1 {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("loop returns on success or second failure")
    }

    fn try_call(&mut self, verb: u8, payload: &[u8]) -> io::Result<Frame> {
        let req_id = self.next_id;
        self.next_id += 1;
        let (w, r) = self.conn.as_mut().expect("connected above");
        proto::write_frame(w, verb, req_id, payload)?;
        w.flush()?;
        loop {
            match proto::read_frame(r).map_err(proto_io)? {
                Some(f) if f.req_id == req_id => return Ok(f),
                Some(_) => continue, // stale reply from a torn earlier call
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "shard closed the connection",
                    ))
                }
            }
        }
    }
}

fn proto_io(e: ProtoError) -> io::Error {
    match e {
        ProtoError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// The first source node of an `INFER` payload (`n:u32 | n × (src:u32,
/// …)`), or 0 when the payload is too short to say — routing a
/// malformed payload anywhere is fine: the shard rejects it under its
/// turn and hole-fills the sequence number.
fn first_src(payload: &[u8]) -> u32 {
    if payload.len() >= 8 && u32::from_le_bytes(payload[0..4].try_into().unwrap()) >= 1 {
        u32::from_le_bytes(payload[4..8].try_into().unwrap())
    } else {
        0
    }
}

fn send(w: &mut BufWriter<TcpStream>, verb: u8, req_id: u64, payload: &[u8]) -> io::Result<()> {
    proto::write_frame(w, verb, req_id, payload)?;
    w.flush()
}

fn conn_loop(stream: TcpStream, conn_id: u64, shared: &Arc<Shared>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut links: Vec<ShardLink> = shared
        .cfg
        .shards
        .iter()
        .map(|&a| ShardLink::new(a))
        .collect();
    loop {
        let frame = match proto::read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(ProtoError::Io(_)) => break,
            Err(e) => {
                let _ = send(&mut writer, reply::ERROR, 0, e.to_string().as_bytes());
                break;
            }
        };
        if handle_frame(frame, conn_id, &mut links, &mut writer, shared).is_err() {
            break;
        }
        if !shared.running.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Dispatches one client frame. `Err` means the client socket died.
fn handle_frame(
    frame: Frame,
    conn_id: u64,
    links: &mut [ShardLink],
    w: &mut BufWriter<TcpStream>,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    let req_id = frame.req_id;
    match frame.verb {
        verb::INFER => {
            // The route span opens at the gateway's edge and covers the
            // whole shard roundtrip. One trace id follows the request
            // everywhere: the client's tag when present, otherwise an
            // id derived here and *appended to the routed payload* so
            // the owner shard (and every span downstream of it) stamps
            // the same id the gateway does. A payload the skim finds
            // torn is routed untouched: the owner's rejection must read
            // exactly as a direct `INFER`'s would.
            let t_route0 = shared.obs.stamp();
            let trailer = proto::peek_infer_trailer(&frame.payload);
            let trace_id = trailer.flatten().unwrap_or((conn_id << 32) ^ req_id);
            // The sequence number is assigned *before* anything can
            // fail, and is consumed on every path below — by the owner
            // under its turn, or by the hole-filler broadcast.
            let g = shared.gseq.fetch_add(1, Ordering::SeqCst);
            let owner = owner_shard(first_src(&frame.payload), links.len());
            let route = proto::encode_route_traced(
                g,
                &frame.payload,
                (trailer == Some(None)).then_some(trace_id),
            );
            let (reply_verb, payload) = match links[owner].call(verb::ROUTE, &route) {
                Ok(f) => (f.verb, f.payload),
                Err(e) => {
                    // Owner unreachable: keep the stream dense so no
                    // replica waits forever on `g`, then tell the
                    // client the truth.
                    let filler = proto::encode_deliver(g, &proto::empty_job_bytes());
                    for link in links.iter_mut() {
                        let _ = link.call(verb::DELIVER, &filler);
                    }
                    let msg = format!("shard {owner} unreachable: {e}");
                    (reply::ERROR, msg.into_bytes().into())
                }
            };
            let t_route1 = shared.obs.stamp();
            shared
                .obs
                .stage_record(Stage::Route, trace_id, t_route0, t_route1);
            send(w, reply_verb, req_id, &payload)
        }
        verb::FLUSH => {
            let barrier = proto::encode_flush_barrier(shared.gseq.load(Ordering::SeqCst));
            reply_ok(w, req_id, fan_out(links, verb::FLUSH, &barrier, ""))
        }
        verb::SNAPSHOT => {
            // Coordinated consistent cut: barrier-flush everyone (all
            // sequence numbers assigned so far are admitted and all
            // mail has landed), *then* snapshot everyone. The per-shard
            // files now describe the same cluster-wide prefix.
            let barrier = proto::encode_flush_barrier(shared.gseq.load(Ordering::SeqCst));
            let cut = fan_out(links, verb::FLUSH, &barrier, " flush")
                .and_then(|()| fan_out(links, verb::SNAPSHOT, b"", ""));
            reply_ok(w, req_id, cut)
        }
        verb::STATS => {
            let mut docs = Vec::with_capacity(links.len());
            for (i, link) in links.iter_mut().enumerate() {
                match link.call(verb::STATS, b"") {
                    Ok(f) if f.verb == reply::JSON => {
                        docs.push(String::from_utf8_lossy(&f.payload).into_owned());
                    }
                    Ok(_) | Err(_) => {
                        return send(
                            w,
                            reply::ERROR,
                            req_id,
                            format!("shard {i} stats unavailable").as_bytes(),
                        )
                    }
                }
            }
            // Sum the per-shard trace-drop counters into one top-level
            // number: "did any ring overflow before a drain" is a
            // cluster-level question, and hunting it through N nested
            // shard documents invites missing a shard.
            let trace_dropped: u64 = docs
                .iter()
                .map(|d| {
                    json_u64_field(d, "trace_dropped").unwrap_or(0)
                })
                .sum();
            let doc = format!(
                "{{\"cluster_size\":{},\"gseq\":{},\"trace_dropped\":{},\"shards\":[{}]}}",
                links.len(),
                shared.gseq.load(Ordering::SeqCst),
                trace_dropped,
                docs.join(",")
            );
            send(w, reply::JSON, req_id, doc.as_bytes())
        }
        verb::METRICS => {
            let mut out = String::new();
            for (i, link) in links.iter_mut().enumerate() {
                match link.call(frame.verb, b"") {
                    Ok(f) if f.verb == reply::TEXT => {
                        out.push_str(&format!("# apan-gateway: shard {i} {}\n", link.addr));
                        out.push_str(&String::from_utf8_lossy(&f.payload));
                    }
                    Ok(_) | Err(_) => {
                        out.push_str(&format!(
                            "# apan-gateway: shard {i} {} unavailable\n",
                            link.addr
                        ));
                    }
                }
            }
            send(w, reply::TEXT, req_id, out.as_bytes())
        }
        verb::TRACE => {
            // Merge every process's drain — the gateway's own route
            // spans plus each shard's — into one causal timeline per
            // trace id. Draining stays destructive on every ring, so
            // each span appears in exactly one merged document.
            let mut drains = Vec::with_capacity(links.len() + 1);
            let mut own = String::new();
            for ev in shared.obs.drain_events() {
                own.push_str(&ev.to_json_line());
                own.push('\n');
            }
            drains.push(("gateway".to_string(), own));
            for (i, link) in links.iter_mut().enumerate() {
                match link.call(verb::TRACE, b"") {
                    Ok(f) if f.verb == reply::TEXT => {
                        drains
                            .push((format!("shard{i}"), String::from_utf8_lossy(&f.payload).into_owned()));
                    }
                    // an unreachable shard's spans are simply absent
                    // from this merge; they surface on a later drain
                    Ok(_) | Err(_) => {}
                }
            }
            send(w, reply::TEXT, req_id, timeline::merge_timeline(&drains).as_bytes())
        }
        verb::INFO => match links[0].call(verb::INFO, b"") {
            Ok(f) => send(w, f.verb, req_id, &f.payload),
            Err(e) => send(
                w,
                reply::ERROR,
                req_id,
                format!("shard 0 unreachable: {e}").as_bytes(),
            ),
        },
        verb::PING => send(w, reply::OK, req_id, b""),
        verb::SHUTDOWN => {
            let res = reply_ok(w, req_id, fan_out(links, verb::SHUTDOWN, b"", ""));
            shared.running.store(false, Ordering::SeqCst);
            res
        }
        v => send(
            w,
            reply::ERROR,
            req_id,
            format!("unknown verb {v:#04x} (the gateway fronts shards; DELIVER/ROUTE go shard-to-shard)")
                .as_bytes(),
        ),
    }
}

/// Fans `verb` out to every shard in order, stopping at the first
/// that does not answer `OK`; the error names that shard (`step` names
/// the phase when a verb has more than one).
fn fan_out(links: &mut [ShardLink], verb: u8, payload: &[u8], step: &str) -> Result<(), String> {
    for (i, link) in links.iter_mut().enumerate() {
        match link.call(verb, payload) {
            Ok(f) if f.verb == reply::OK => {}
            Ok(f) => {
                return Err(format!(
                    "shard {i}{step}: {}",
                    String::from_utf8_lossy(&f.payload)
                ))
            }
            Err(e) => return Err(format!("shard {i} unreachable: {e}")),
        }
    }
    Ok(())
}

/// Replies `OK`, or `ERROR` with the failed fan-out's message.
fn reply_ok(
    w: &mut BufWriter<TcpStream>,
    req_id: u64,
    outcome: Result<(), String>,
) -> io::Result<()> {
    match outcome {
        Ok(()) => send(w, reply::OK, req_id, b""),
        Err(msg) => send(w, reply::ERROR, req_id, msg.as_bytes()),
    }
}
