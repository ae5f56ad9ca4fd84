//! The `apan-serve` wire protocol: length-prefixed binary frames over
//! TCP, reusing [`apan_core::pipeline::wire`] for tensor payloads.
//!
//! ```text
//! frame    := len:u32 LE | body            (len = body length in bytes)
//! body     := verb:u8 | req_id:u64 LE | payload
//! INFER    := n:u32 | n × (src:u32, dst:u32, time:f64, eid:u32) | tensor
//! tensor   := rows:u32 | cols:u32 | [f32 LE]      (pipeline::wire format)
//! SCORES   := n:u32 | [f32 LE]
//! ```
//!
//! `req_id` is chosen by the client and echoed verbatim in the reply, so
//! a client may pipeline requests and match replies out of order.
//! Decoding is total: malformed bytes produce a [`ProtoError`], never a
//! panic — a daemon must survive any byte stream a socket can deliver.

use apan_core::pipeline::wire::{self, WireError};
use apan_core::propagator::Interaction;
use apan_tensor::Tensor;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{self, Read, Write};

/// Hard ceiling on one frame's body (64 MiB): a corrupt length prefix
/// cannot drive an unbounded allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Request verbs (client → daemon).
pub mod verb {
    /// Score a group of interactions.
    pub const INFER: u8 = 0x01;
    /// Fetch the serving statistics JSON document.
    pub const STATS: u8 = 0x02;
    /// Force a snapshot to disk now.
    pub const SNAPSHOT: u8 = 0x03;
    /// Snapshot (if configured) and stop the daemon.
    pub const SHUTDOWN: u8 = 0x04;
    /// Liveness probe.
    pub const PING: u8 = 0x05;
    /// Fetch the model/daemon geometry JSON (dim, slots, limits).
    pub const INFO: u8 = 0x06;
    /// Block until all asynchronous propagation handed off before this
    /// verb's queue position has landed in the mailbox store. Serving
    /// never needs this; deterministic tests and consistent reads do.
    pub const FLUSH: u8 = 0x07;
    /// Fetch the metric registry as Prometheus text exposition.
    pub const METRICS: u8 = 0x08;
    /// Drain the daemon's trace ring buffer as JSON lines (one
    /// completed stage span per line). Draining is destructive: each
    /// span is reported exactly once across all `TRACE` calls.
    pub const TRACE: u8 = 0x09;
    /// Cross-shard mail delivery (shard → shard): a propagation job
    /// replicated under a cluster-global sequence number. Payload is
    /// `gseq:u64 LE | job` ([`apan_core::pipeline::wire::encode_job`]).
    /// Acked with `OK` once the job is admitted locally; retransmits of
    /// an already-admitted `gseq` are acked and dropped.
    pub const DELIVER: u8 = 0x0A;
    /// Gateway-routed inference (gateway → owning shard): an `INFER`
    /// payload carried verbatim under a cluster-global sequence number.
    /// Payload is `gseq:u64 LE | infer payload`; the reply is exactly an
    /// `INFER` reply (`SCORES` / `OVERLOADED` / `ERROR`).
    pub const ROUTE: u8 = 0x0B;
}

/// Reply verbs (daemon → client).
pub mod reply {
    /// Per-interaction link scores.
    pub const SCORES: u8 = 0x81;
    /// Admission control shed this request; retry with backoff.
    pub const OVERLOADED: u8 = 0x82;
    /// UTF-8 JSON document (`STATS` / `INFO` replies).
    pub const JSON: u8 = 0x83;
    /// Verb acknowledged (`SNAPSHOT` / `SHUTDOWN` / `PING`).
    pub const OK: u8 = 0x84;
    /// UTF-8 plain text document (`METRICS` exposition, `TRACE` JSON
    /// lines).
    pub const TEXT: u8 = 0x85;
    /// Request failed; payload is a UTF-8 message.
    pub const ERROR: u8 = 0x7F;
}

/// Protocol-level failures.
#[derive(Debug)]
pub enum ProtoError {
    /// Socket-level failure.
    Io(io::Error),
    /// A tensor payload failed to decode.
    Wire(WireError),
    /// Structurally invalid frame or payload.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "io error: {e}"),
            ProtoError::Wire(e) => write!(f, "wire error: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError::Wire(e)
    }
}

/// One decoded frame: verb, correlation id, and the raw payload.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Request or reply verb.
    pub verb: u8,
    /// Client-chosen correlation id, echoed in replies.
    pub req_id: u64,
    /// Verb-specific payload bytes.
    pub payload: Bytes,
}

/// Writes one frame. The caller is responsible for flushing if `w` is
/// buffered.
pub fn write_frame<W: Write>(w: &mut W, verb: u8, req_id: u64, payload: &[u8]) -> io::Result<()> {
    let body_len = 1 + 8 + payload.len();
    debug_assert!(body_len <= MAX_FRAME, "oversized outgoing frame");
    let mut head = [0u8; 13];
    head[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    head[4] = verb;
    head[5..13].copy_from_slice(&req_id.to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed its connection); any mid-frame EOF or a
/// length prefix beyond [`MAX_FRAME`] is an error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, ProtoError> {
    let mut len_buf = [0u8; 4];
    // Read the first byte alone: zero bytes before it is a clean close,
    // while EOF anywhere after it means the peer tore a frame.
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if !(9..=MAX_FRAME).contains(&len) {
        return Err(ProtoError::Malformed(format!("frame length {len}")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let verb = body[0];
    let req_id = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
    Ok(Some(Frame {
        verb,
        req_id,
        payload: Bytes::from(body).slice(9..len),
    }))
}

/// Encodes an `INFER` payload: interactions plus one feature row each.
///
/// # Panics
/// Panics if `feats.rows() != interactions.len()` — that is a caller
/// bug, not a network condition.
pub fn encode_infer(interactions: &[Interaction], feats: &Tensor) -> Vec<u8> {
    encode_infer_traced(interactions, feats, None)
}

/// [`encode_infer`] with an optional client-chosen trace id appended as
/// a [`wire::encode_trace_tag`] trailer. Daemons predating the tag
/// decode such payloads unchanged (they ignore trailing bytes), so a
/// tracing client can talk to an old daemon and merely lose the tag.
pub fn encode_infer_traced(
    interactions: &[Interaction],
    feats: &Tensor,
    trace_id: Option<u64>,
) -> Vec<u8> {
    assert_eq!(
        feats.rows(),
        interactions.len(),
        "one feature row per interaction"
    );
    let mut buf = BytesMut::with_capacity(4 + interactions.len() * 20 + 8 + feats.len() * 4 + 9);
    buf.put_u32_le(interactions.len() as u32);
    for i in interactions {
        buf.put_u32_le(i.src);
        buf.put_u32_le(i.dst);
        buf.put_u64_le(i.time.to_bits());
        buf.put_u32_le(i.eid);
    }
    buf.extend_from_slice(&wire::encode_tensor(feats));
    if let Some(id) = trace_id {
        buf.extend_from_slice(&wire::encode_trace_tag(id));
    }
    buf.freeze().to_vec()
}

/// Decodes an `INFER` payload into interactions and the feature matrix,
/// tolerating (and discarding) a well-formed trace-tag trailer.
pub fn decode_infer(payload: Bytes) -> Result<(Vec<Interaction>, Tensor), ProtoError> {
    decode_infer_traced(payload).map(|(i, f, _)| (i, f))
}

/// Decodes an `INFER` payload plus its optional trace-tag trailer.
/// Payloads from pre-tracing clients (no trailer) yield `None`; a
/// trailer that starts with the tag byte but is torn short is an error.
pub fn decode_infer_traced(
    payload: Bytes,
) -> Result<(Vec<Interaction>, Tensor, Option<u64>), ProtoError> {
    let mut b = payload;
    if b.remaining() < 4 {
        return Err(ProtoError::Malformed(
            "infer payload shorter than count".into(),
        ));
    }
    let n = b.get_u32_le() as usize;
    if n > 1 << 20 {
        return Err(ProtoError::Malformed(format!("implausible batch of {n}")));
    }
    if b.remaining() < n * 20 {
        return Err(ProtoError::Malformed(format!(
            "infer payload truncated: {} interactions promised, {} bytes left",
            n,
            b.remaining()
        )));
    }
    let mut interactions = Vec::with_capacity(n);
    for _ in 0..n {
        let src = b.get_u32_le();
        let dst = b.get_u32_le();
        let time = f64::from_bits(b.get_u64_le());
        let eid = b.get_u32_le();
        interactions.push(Interaction {
            src,
            dst,
            time,
            eid,
        });
    }
    let feats = wire::decode_tensor_from(&mut b)?;
    if feats.rows() != n {
        return Err(ProtoError::Malformed(format!(
            "{} interactions but {} feature rows",
            n,
            feats.rows()
        )));
    }
    let trace_id = wire::decode_trace_tag(&mut b)?;
    Ok((interactions, feats, trace_id))
}

/// Encodes a `DELIVER` payload: the cluster-global sequence number
/// followed by the job's [`wire::encode_job`] bytes.
pub fn encode_deliver(gseq: u64, job: &[u8]) -> Vec<u8> {
    encode_deliver_traced(gseq, job, None)
}

/// Decodes a `DELIVER` payload. Total: the sequence header and the full
/// job are validated ([`wire::decode_job`] caps every declared count),
/// so arbitrary bytes yield an error, never a panic.
pub fn decode_deliver(payload: Bytes) -> Result<(u64, wire::WireJob), ProtoError> {
    decode_deliver_traced(payload).map(|(g, j, _)| (g, j))
}

/// [`encode_deliver`] with an optional trace id appended as a
/// [`wire::encode_trace_tag`] trailer — the same discipline as the
/// `INFER` tag: `None` produces bytes identical to the untagged
/// encoding, so pre-tracing peers interoperate unchanged.
pub fn encode_deliver_traced(gseq: u64, job: &[u8], trace_id: Option<u64>) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(8 + job.len() + 9);
    buf.put_u64_le(gseq);
    buf.extend_from_slice(job);
    if let Some(id) = trace_id {
        buf.extend_from_slice(&wire::encode_trace_tag(id));
    }
    buf.freeze().to_vec()
}

/// Decodes a `DELIVER` payload plus its optional trace-tag trailer.
/// The job encoding is self-delimiting, so an untagged payload yields
/// `None`; a trailer that is neither absent nor a complete tag is an
/// error (a torn tag must not pass silently).
pub fn decode_deliver_traced(
    payload: Bytes,
) -> Result<(u64, wire::WireJob, Option<u64>), ProtoError> {
    let mut b = payload;
    if b.remaining() < 8 {
        return Err(ProtoError::Malformed(
            "deliver payload shorter than sequence header".into(),
        ));
    }
    let gseq = b.get_u64_le();
    let job = wire::decode_job_from(&mut b)?;
    let trace_id = wire::decode_trace_tag(&mut b)?;
    if b.remaining() != 0 {
        return Err(ProtoError::Malformed(format!(
            "{} bytes after the deliver trailer",
            b.remaining()
        )));
    }
    Ok((gseq, job, trace_id))
}

/// Encodes a `ROUTE` payload: the cluster-global sequence number
/// followed by an `INFER` payload carried verbatim — the gateway never
/// re-encodes what the client sent, so routing cannot perturb bits.
pub fn encode_route(gseq: u64, infer_payload: &[u8]) -> Vec<u8> {
    encode_route_traced(gseq, infer_payload, None)
}

/// Decodes a `ROUTE` payload into the sequence number and the inner
/// `INFER` payload bytes. The inner payload is *not* validated here —
/// it goes through [`decode_infer_traced`] exactly as a direct `INFER`
/// would, so both paths reject malformed batches identically.
pub fn decode_route(payload: Bytes) -> Result<(u64, Bytes), ProtoError> {
    let mut b = payload;
    if b.remaining() < 8 {
        return Err(ProtoError::Malformed(
            "route payload shorter than sequence header".into(),
        ));
    }
    let gseq = b.get_u64_le();
    Ok((gseq, b))
}

/// [`encode_route`] with an optional gateway-derived trace id appended
/// as a trace-tag trailer *after* the inner `INFER` payload. Because
/// the inner payload is self-delimiting and [`decode_infer_traced`]
/// reads the first tag after the tensor, the shard sees this tag
/// exactly as if the client had sent it — the gateway only appends one
/// when the client did not tag the request itself. `None` produces
/// bytes identical to [`encode_route`].
pub fn encode_route_traced(gseq: u64, infer_payload: &[u8], trace_id: Option<u64>) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(8 + infer_payload.len() + 9);
    buf.put_u64_le(gseq);
    buf.extend_from_slice(infer_payload);
    if let Some(id) = trace_id {
        buf.extend_from_slice(&wire::encode_trace_tag(id));
    }
    buf.freeze().to_vec()
}

/// [`peek_infer_trailer`] with untagged and malformed payloads folded
/// into one `None`.
pub fn peek_infer_trace_tag(payload: &[u8]) -> Option<u64> {
    peek_infer_trailer(payload).flatten()
}

/// Structurally skims an `INFER` payload for its trace-tag trailer
/// without validating the batch: skips `n` interactions and the tensor
/// by their declared sizes, then reads the tag. The outer `None` means
/// the payload is torn somewhere (the shard's full decode will reject
/// it); the inner value is the tag a well-formed payload carries. The
/// gateway appends a trace id of its own only to `Some(None)` — a
/// malformed payload is routed byte for byte, so the owner rejects it
/// with exactly the message a direct `INFER` gets.
pub fn peek_infer_trailer(payload: &[u8]) -> Option<Option<u64>> {
    let mut b = Bytes::copy_from_slice(payload);
    if b.remaining() < 4 {
        return None;
    }
    let n = b.get_u32_le() as usize;
    if n > 1 << 20 || b.remaining() < n * 20 {
        return None;
    }
    b.advance(n * 20);
    if b.remaining() < 8 {
        return None;
    }
    let rows = b.get_u32_le() as usize;
    let cols = b.get_u32_le() as usize;
    let elems = rows.checked_mul(cols)?.checked_mul(4)?;
    if b.remaining() < elems {
        return None;
    }
    b.advance(elems);
    wire::decode_trace_tag(&mut b).ok()
}

/// Encodes a cluster `FLUSH` barrier payload: flush only once every
/// delivery below `gseq` has been admitted locally. A legacy empty
/// payload means "flush now" (single-process behaviour).
pub fn encode_flush_barrier(gseq: u64) -> [u8; 8] {
    gseq.to_le_bytes()
}

/// Decodes a `FLUSH` payload: `None` for the legacy empty payload,
/// `Some(gseq)` for an 8-byte barrier; anything else is malformed.
pub fn decode_flush_barrier(payload: &[u8]) -> Result<Option<u64>, ProtoError> {
    match payload.len() {
        0 => Ok(None),
        8 => Ok(Some(u64::from_le_bytes(
            payload.try_into().expect("8 bytes"),
        ))),
        n => Err(ProtoError::Malformed(format!("flush payload of {n} bytes"))),
    }
}

/// The wire encoding of an **empty** propagation job — the hole-filler
/// broadcast under a sequence number that produced no work (an owner
/// shard unreachable after the gateway assigned the number, or a routed
/// request rejected by validation). Replicas admit it as a no-op, which
/// keeps the global sequence dense instead of wedging every shard on a
/// number that will never arrive.
pub fn empty_job_bytes() -> Vec<u8> {
    wire::encode_job(&wire::WireJob {
        interactions: Vec::new(),
        src_rows: Vec::new(),
        dst_rows: Vec::new(),
        late: Vec::new(),
        z_wire: Bytes::from(Vec::new()),
        feats_wire: Bytes::from(Vec::new()),
    })
    .to_vec()
}

/// Encodes a `SCORES` reply payload.
pub fn encode_scores(scores: &[f32]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4 + scores.len() * 4);
    buf.put_u32_le(scores.len() as u32);
    for &s in scores {
        buf.put_f32_le(s);
    }
    buf.freeze().to_vec()
}

/// Decodes a `SCORES` reply payload.
pub fn decode_scores(payload: Bytes) -> Result<Vec<f32>, ProtoError> {
    let mut b = payload;
    if b.remaining() < 4 {
        return Err(ProtoError::Malformed(
            "scores payload shorter than count".into(),
        ));
    }
    let n = b.get_u32_le() as usize;
    if b.remaining() < n * 4 {
        return Err(ProtoError::Malformed(format!(
            "scores payload truncated: {n} promised"
        )));
    }
    Ok((0..n).map(|_| b.get_f32_le()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inter(k: u32) -> Interaction {
        Interaction {
            src: k,
            dst: k + 1,
            time: k as f64 * 1.5,
            eid: k,
        }
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, verb::INFER, 42, b"hello").unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(frame.verb, verb::INFER);
        assert_eq!(frame.req_id, 42);
        assert_eq!(&frame.payload[..], b"hello");
    }

    #[test]
    fn eof_at_boundary_is_none_mid_frame_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, verb::PING, 1, b"").unwrap();
        assert!(read_frame(&mut &buf[..0]).unwrap().is_none());
        for cut in 1..buf.len() {
            assert!(read_frame(&mut &buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        assert!(read_frame(&mut buf.as_slice()).is_err());
        // below the 9-byte body minimum
        let buf = 4u32.to_le_bytes().to_vec();
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn infer_round_trip_is_bitwise() {
        let interactions: Vec<Interaction> = (0..3).map(inter).collect();
        let feats = Tensor::from_rows(&[&[1.0, -2.0], &[0.5, 1e-8], &[3.0, 4.0]]);
        let payload = encode_infer(&interactions, &feats);
        let (di, df) = decode_infer(Bytes::from(payload)).unwrap();
        assert_eq!(di.len(), 3);
        for (a, b) in di.iter().zip(&interactions) {
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.eid, b.eid);
        }
        assert!(df.allclose(&feats, 0.0));
    }

    #[test]
    fn traced_infer_round_trips_and_old_payloads_decode() {
        let interactions: Vec<Interaction> = (0..3).map(inter).collect();
        let feats = Tensor::full(3, 2, 0.25);
        // tagged payload: the id survives the round trip
        let tagged = encode_infer_traced(&interactions, &feats, Some(0xFEED_BEEF));
        let (di, df, id) = decode_infer_traced(Bytes::from(tagged.clone())).unwrap();
        assert_eq!(di.len(), 3);
        assert!(df.allclose(&feats, 0.0));
        assert_eq!(id, Some(0xFEED_BEEF));
        // the untagged decoder tolerates the tag (old daemon, new client)
        let (di, _) = decode_infer(Bytes::from(tagged)).unwrap();
        assert_eq!(di.len(), 3);
        // an untagged payload is byte-identical to the legacy encoding
        // and decodes with no trace id (new daemon, old client)
        let untagged = encode_infer_traced(&interactions, &feats, None);
        assert_eq!(untagged, encode_infer(&interactions, &feats));
        let (_, _, id) = decode_infer_traced(Bytes::from(untagged)).unwrap();
        assert_eq!(id, None);
    }

    #[test]
    fn traced_infer_decode_is_total_under_truncation() {
        let interactions: Vec<Interaction> = (0..2).map(inter).collect();
        let feats = Tensor::full(2, 3, 0.5);
        let tagged = encode_infer_traced(&interactions, &feats, Some(7));
        let untagged_len = tagged.len() - 9;
        for cut in 0..=tagged.len() {
            let b = Bytes::copy_from_slice(&tagged[..cut]);
            let got = decode_infer_traced(b);
            if cut < untagged_len {
                assert!(got.is_err(), "cut {cut}: truncated body must error");
            } else if cut == untagged_len {
                // the whole tag is gone: a valid legacy payload remains
                assert_eq!(got.unwrap().2, None, "cut {cut}");
            } else if cut < tagged.len() {
                assert!(got.is_err(), "cut {cut}: torn trace tag must error");
            } else {
                assert_eq!(got.unwrap().2, Some(7));
            }
        }
    }

    #[test]
    fn infer_decode_survives_any_truncation() {
        let interactions: Vec<Interaction> = (0..2).map(inter).collect();
        let feats = Tensor::full(2, 3, 0.5);
        let payload = encode_infer(&interactions, &feats);
        for cut in 0..payload.len() {
            let b = Bytes::copy_from_slice(&payload[..cut]);
            assert!(decode_infer(b).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn infer_decode_rejects_row_count_mismatch() {
        let interactions: Vec<Interaction> = (0..2).map(inter).collect();
        let feats = Tensor::full(3, 3, 0.5); // 3 rows for 2 interactions
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        for i in &interactions {
            buf.put_u32_le(i.src);
            buf.put_u32_le(i.dst);
            buf.put_u64_le(i.time.to_bits());
            buf.put_u32_le(i.eid);
        }
        buf.extend_from_slice(&wire::encode_tensor(&feats));
        assert!(decode_infer(buf.freeze()).is_err());
    }

    fn sample_job_bytes() -> Vec<u8> {
        let interactions: Vec<Interaction> = (0..2).map(inter).collect();
        let job = wire::WireJob {
            interactions,
            src_rows: vec![0, 1],
            dst_rows: vec![1, 2],
            late: Vec::new(),
            z_wire: wire::encode_tensor(&Tensor::full(3, 2, 0.5)),
            feats_wire: wire::encode_tensor(&Tensor::full(2, 2, 0.25)),
        };
        wire::encode_job(&job).to_vec()
    }

    #[test]
    fn deliver_round_trips_and_truncations_error() {
        let job = sample_job_bytes();
        let payload = encode_deliver(77, &job);
        let (gseq, decoded) = decode_deliver(Bytes::from(payload.clone())).unwrap();
        assert_eq!(gseq, 77);
        assert_eq!(wire::encode_job(&decoded).to_vec(), job);
        for cut in 0..payload.len() {
            let b = Bytes::copy_from_slice(&payload[..cut]);
            assert!(decode_deliver(b).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn traced_deliver_round_trips_and_untagged_is_byte_identical() {
        let job = sample_job_bytes();
        // None → byte-identical to the legacy encoding (old peers
        // interoperate unchanged)
        assert_eq!(
            encode_deliver_traced(77, &job, None),
            encode_deliver(77, &job)
        );
        let tagged = encode_deliver_traced(77, &job, Some(0xAB));
        let (gseq, decoded, id) = decode_deliver_traced(Bytes::from(tagged.clone())).unwrap();
        assert_eq!(gseq, 77);
        assert_eq!(wire::encode_job(&decoded).to_vec(), job);
        assert_eq!(id, Some(0xAB));
        // the untraced decoder tolerates the tag (it delegates)
        let (gseq, _) = decode_deliver(Bytes::from(tagged.clone())).unwrap();
        assert_eq!(gseq, 77);
        // totality under truncation: everything between the untagged
        // boundary and the full tag is a torn trailer and must error
        let untagged_len = tagged.len() - 9;
        for cut in 0..tagged.len() {
            if cut == untagged_len {
                let b = Bytes::copy_from_slice(&tagged[..cut]);
                assert_eq!(decode_deliver_traced(b).unwrap().2, None, "cut {cut}");
            } else {
                let b = Bytes::copy_from_slice(&tagged[..cut]);
                assert!(decode_deliver_traced(b).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn traced_route_tag_is_peekable_and_reaches_the_shard_decoder() {
        let interactions: Vec<Interaction> = (0..3).map(inter).collect();
        let inner = encode_infer(&interactions, &Tensor::full(3, 2, 0.5));
        // untagged inner payload: nothing to peek
        assert_eq!(peek_infer_trace_tag(&inner), None);
        // client-tagged inner payload: the peek sees the client's id
        let client_tagged = encode_infer_traced(&interactions, &Tensor::full(3, 2, 0.5), Some(11));
        assert_eq!(peek_infer_trace_tag(&client_tagged), Some(11));
        // gateway-tagged ROUTE: None is byte-identical to encode_route,
        // Some appends a tag the shard-side INFER decoder picks up with
        // no ROUTE-specific decode changes
        assert_eq!(encode_route_traced(9, &inner, None), encode_route(9, &inner));
        let routed = encode_route_traced(9, &inner, Some(0xC0FFEE));
        let (gseq, carried) = decode_route(Bytes::from(routed)).unwrap();
        assert_eq!(gseq, 9);
        let (di, _, id) = decode_infer_traced(carried).unwrap();
        assert_eq!(di.len(), 3);
        assert_eq!(id, Some(0xC0FFEE));
        // the peek is total over arbitrary truncation — never panics,
        // never invents an id
        for cut in 0..client_tagged.len() {
            assert_eq!(peek_infer_trace_tag(&client_tagged[..cut]), None, "cut {cut}");
        }
    }

    #[test]
    fn route_carries_the_infer_payload_verbatim() {
        let interactions: Vec<Interaction> = (0..3).map(inter).collect();
        let inner = encode_infer(&interactions, &Tensor::full(3, 2, 0.5));
        let payload = encode_route(9, &inner);
        let (gseq, carried) = decode_route(Bytes::from(payload)).unwrap();
        assert_eq!(gseq, 9);
        assert_eq!(&carried[..], &inner[..], "byte passthrough");
        // the inner payload decodes exactly as a direct INFER would
        let (di, _) = decode_infer(carried).unwrap();
        assert_eq!(di.len(), 3);
        // short header is an error
        assert!(decode_route(Bytes::copy_from_slice(&[0u8; 7])).is_err());
    }

    #[test]
    fn flush_barrier_round_trips_and_junk_is_rejected() {
        assert_eq!(decode_flush_barrier(&[]).unwrap(), None);
        assert_eq!(
            decode_flush_barrier(&encode_flush_barrier(123)).unwrap(),
            Some(123)
        );
        assert!(decode_flush_barrier(&[1, 2, 3]).is_err());
    }

    #[test]
    fn scores_round_trip() {
        let scores = vec![0.25f32, 0.75, 1.0e-9];
        let decoded = decode_scores(Bytes::from(encode_scores(&scores))).unwrap();
        assert_eq!(
            decoded.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }
}
