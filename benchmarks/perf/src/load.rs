//! Load generation over one pipelined connection: an open loop on a
//! fixed schedule, and a closed loop holding a window of outstanding
//! requests.

use apan_serve::proto::{self, reply, verb};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a reply may take before the phase gives up on the rest.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-phase request accounting. A request that is shed, errors, times
/// out or answers with malformed scores is a failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    /// Failures that were explicit `OVERLOADED` replies.
    pub shed: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.shed += other.shed;
    }

    /// Classifies one reply to a request of `expect` interactions.
    fn record(&mut self, frame: &proto::Frame, expect: usize) {
        let ok = match frame.verb {
            reply::SCORES => proto::decode_scores(frame.payload.clone()).is_ok_and(|s| {
                s.len() == expect && s.iter().all(|v| v.is_finite() && (0.0..=1.0).contains(v))
            }),
            reply::OVERLOADED => {
                self.shed += 1;
                false
            }
            _ => false,
        };
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// Opens the two halves of one pipelined connection.
pub fn connect(addr: SocketAddr) -> std::io::Result<(BufWriter<TcpStream>, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let read_half = stream.try_clone()?;
    Ok((BufWriter::new(stream), BufReader::new(read_half)))
}

pub struct OpenLoop {
    /// Client latency per request in send order, measured from the
    /// *intended* send time; `None` where no valid reply arrived.
    pub latency_ms: Vec<Option<f64>>,
    /// How late each request actually left, against the schedule.
    pub lag_ms: Vec<f64>,
    pub counts: Counts,
}

/// Sends `n` requests at `rate` per second on a fixed schedule, whatever
/// the replies do, and times each reply from when its request was *due*
/// — so a stall anywhere (generator, socket, daemon) is charged to every
/// request that was scheduled during it, not only to the one that hit it.
///
/// `payload(k)` is built before request `k` is due; `expect` is the
/// score count a valid reply carries.
pub fn open_loop<W, R, F>(
    mut w: W,
    mut r: R,
    n: usize,
    rate: f64,
    expect: usize,
    payload: F,
) -> OpenLoop
where
    W: Write + Send,
    R: Read + Send,
    F: Fn(usize) -> Vec<u8> + Send,
{
    let interval = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = move |k: usize| t0 + interval.mul_f64(k as f64);
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut lag_ms = Vec::with_capacity(n);
            for k in 0..n {
                let bytes = payload(k);
                let wait = due(k).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                if proto::write_frame(&mut w, verb::INFER, k as u64, &bytes).is_err()
                    || w.flush().is_err()
                {
                    break;
                }
                lag_ms.push(due(k).elapsed().as_secs_f64() * 1e3);
            }
            lag_ms
        });
        let mut latency_ms = vec![None; n];
        let mut counts = Counts {
            attempted: n as u64,
            ..Counts::default()
        };
        for _ in 0..n {
            // a timeout or a dead socket fails every request still out
            let Ok(Some(frame)) = proto::read_frame(&mut r) else {
                break;
            };
            let k = frame.req_id as usize;
            if k >= n || latency_ms[k].is_some() {
                continue;
            }
            let before = counts.succeeded;
            counts.record(&frame, expect);
            if counts.succeeded > before {
                latency_ms[k] = Some(due(k).elapsed().as_secs_f64() * 1e3);
            }
        }
        counts.failed = counts.attempted - counts.succeeded;
        let lag_ms = sender.join().expect("open-loop sender panicked");
        OpenLoop {
            latency_ms,
            lag_ms,
            counts,
        }
    })
}

pub struct ClosedLoop {
    pub counts: Counts,
    /// When each valid reply arrived, in seconds since the first send.
    pub reply_at: Vec<f64>,
}

/// Keeps `window` requests outstanding until `duration` has passed or
/// `max_requests` have been sent, then collects what is still out. One
/// thread: the daemon answers through its own writer thread, so it
/// never blocks on this client reading late.
pub fn closed_loop<F>(
    w: &mut BufWriter<TcpStream>,
    r: &mut BufReader<TcpStream>,
    window: usize,
    duration: Duration,
    max_requests: usize,
    expect: usize,
    payload: F,
) -> ClosedLoop
where
    F: Fn(usize) -> Vec<u8>,
{
    let started = Instant::now();
    let mut counts = Counts::default();
    let mut sent = 0usize;
    let mut send = |k: usize| -> bool {
        proto::write_frame(w, verb::INFER, k as u64, &payload(k)).is_ok() && w.flush().is_ok()
    };
    let mut alive = true;
    while alive && sent < window.min(max_requests) {
        alive = send(sent);
        sent += 1;
    }
    let mut reply_at = Vec::new();
    let mut outstanding = sent;
    while alive && outstanding > 0 {
        let Ok(Some(frame)) = proto::read_frame(r) else {
            break;
        };
        outstanding -= 1;
        let at = started.elapsed();
        let before = counts.succeeded;
        counts.record(&frame, expect);
        if counts.succeeded > before {
            reply_at.push(at.as_secs_f64());
        }
        if sent < max_requests && at < duration {
            alive = send(sent);
            sent += 1;
            outstanding += 1;
        }
    }
    counts.attempted = sent as u64;
    counts.failed = counts.attempted - counts.succeeded;
    ClosedLoop { counts, reply_at }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that answers every frame at once with one valid score.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let mut w = BufWriter::new(stream);
            while let Ok(Some(f)) = proto::read_frame(&mut r) {
                proto::write_frame(
                    &mut w,
                    reply::SCORES,
                    f.req_id,
                    &proto::encode_scores(&[0.5]),
                )
                .unwrap();
                w.flush().unwrap();
            }
        });
        (addr, handle)
    }

    /// Blocks for `stall` before passing frame number `at` on.
    struct StallingWriter<W> {
        inner: W,
        frames: usize,
        at: usize,
        stall: Duration,
    }

    impl<W: Write> Write for StallingWriter<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            if self.frames == self.at {
                std::thread::sleep(self.stall);
            }
            self.frames += 1;
            self.inner.flush()
        }
    }

    #[test]
    fn open_loop_times_from_intended_send_so_queued_requests_inherit_a_stall() {
        let (addr, server) = echo_server();
        let (w, r) = connect(addr).unwrap();
        let stall = Duration::from_millis(200);
        let w = StallingWriter {
            inner: w,
            frames: 0,
            at: 10,
            stall,
        };
        // 100 requests/s: ~20 requests fall due while request 10 is stuck
        let out = open_loop(w, r, 40, 100.0, 1, |_| Vec::new());
        server.join().unwrap();
        assert_eq!(out.counts.attempted, 40);
        assert_eq!(out.counts.succeeded, 40);
        let lat = |k: usize| out.latency_ms[k].unwrap();
        // before the stall: a loopback echo, far below the stall
        assert!(lat(5) < 100.0, "{}", lat(5));
        // the stalled request and those due during the stall carry it,
        // shrinking by one schedule step (10 ms) each
        assert!(lat(10) >= 200.0, "{}", lat(10));
        assert!(lat(15) >= 140.0, "{}", lat(15));
        assert!(lat(20) >= 90.0, "{}", lat(20));
        // measured from the actual send they would all read ~0; the
        // sender's lag shows the same delay from the generator's side
        assert!(out.lag_ms[15] >= 140.0, "{}", out.lag_ms[15]);
        // once the schedule has caught up the echo is fast again
        assert!(lat(39) < 100.0, "{}", lat(39));
    }

    #[test]
    fn closed_loop_counts_every_request_it_sent() {
        let (addr, server) = echo_server();
        let (mut w, mut r) = connect(addr).unwrap();
        let out = closed_loop(
            &mut w,
            &mut r,
            8,
            Duration::from_millis(50),
            usize::MAX,
            1,
            |_| Vec::new(),
        );
        assert!(out.counts.attempted >= 8);
        assert_eq!(out.counts.succeeded, out.counts.attempted);
        assert_eq!(out.counts.failed, 0);
        assert_eq!(out.reply_at.len() as u64, out.counts.succeeded);
        assert!(out.reply_at.windows(2).all(|p| p[0] <= p[1]));
        assert!(*out.reply_at.last().unwrap() >= 0.050);
        // bounded by count instead of time
        let out = closed_loop(&mut w, &mut r, 8, Duration::MAX, 20, 1, |_| Vec::new());
        assert_eq!((out.counts.attempted, out.counts.succeeded), (20, 20));
        drop((w, r));
        server.join().unwrap();
    }

    #[test]
    fn bad_replies_count_as_failures() {
        let frame = |verb: u8, payload: Vec<u8>| proto::Frame {
            verb,
            req_id: 0,
            payload: payload.into(),
        };
        let mut c = Counts::default();
        c.record(&frame(reply::SCORES, proto::encode_scores(&[0.1, 0.9])), 2);
        assert_eq!((c.succeeded, c.failed), (1, 0));
        // wrong count, out of range, not finite, shed, error
        c.record(&frame(reply::SCORES, proto::encode_scores(&[0.1])), 2);
        c.record(&frame(reply::SCORES, proto::encode_scores(&[0.1, 1.5])), 2);
        c.record(
            &frame(reply::SCORES, proto::encode_scores(&[f32::NAN, 0.5])),
            2,
        );
        c.record(&frame(reply::OVERLOADED, Vec::new()), 2);
        c.record(&frame(reply::ERROR, b"boom".to_vec()), 2);
        assert_eq!((c.succeeded, c.failed, c.shed), (1, 5, 1));
    }
}
