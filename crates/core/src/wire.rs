//! Wire (de)serialization of propagation jobs: the byte format a
//! cluster owner forwards to its peer replicas. Local jobs never take
//! this detour — they cross the asynchronous link as owned tensors.
//!
//! Decoding is total: malformed bytes come back as a [`WireError`],
//! never a panic — network input must not be able to abort a daemon
//! built on this module.

use crate::propagator::Interaction;
use apan_tensor::Tensor;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Upper bound on decoded tensor elements (256 Mi f32 = 1 GiB); a
/// corrupt or hostile header cannot make us allocate unboundedly.
pub const MAX_ELEMS: usize = 1 << 28;

/// Upper bound on any list length inside a propagation job
/// (interactions, row maps); same role as [`MAX_ELEMS`] for tensors.
pub const MAX_JOB_ITEMS: usize = 1 << 20;

/// Why a buffer failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the declared payload did.
    Truncated {
        /// Bytes the header promised.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The header declares more than [`MAX_ELEMS`] elements.
    Oversized {
        /// Declared row count.
        rows: usize,
        /// Declared column count.
        cols: usize,
    },
    /// A job header declares more than [`MAX_JOB_ITEMS`] list items.
    TooManyItems {
        /// Declared item count.
        count: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated tensor: need {needed} bytes, have {got}")
            }
            WireError::Oversized { rows, cols } => {
                write!(f, "implausible tensor header: {rows}x{cols}")
            }
            WireError::TooManyItems { count } => {
                write!(f, "implausible job list length: {count}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Serializes a tensor as `rows:u32, cols:u32, data:[f32 LE]`.
pub fn encode_tensor(t: &Tensor) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + t.len() * 4);
    buf.put_u32_le(t.rows() as u32);
    buf.put_u32_le(t.cols() as u32);
    for &v in t.data() {
        buf.put_f32_le(v);
    }
    buf.freeze()
}

/// Deserializes a tensor encoded by [`encode_tensor`]. Trailing bytes
/// are ignored; see [`decode_tensor_from`] to consume from a stream.
pub fn decode_tensor(mut b: Bytes) -> Result<Tensor, WireError> {
    decode_tensor_from(&mut b)
}

/// Decodes one tensor from the front of `b`, advancing it past the
/// consumed bytes so several tensors can be unpacked from one frame.
pub fn decode_tensor_from(b: &mut Bytes) -> Result<Tensor, WireError> {
    if b.remaining() < 8 {
        return Err(WireError::Truncated {
            needed: 8,
            got: b.remaining(),
        });
    }
    let rows = b.get_u32_le() as usize;
    let cols = b.get_u32_le() as usize;
    let elems = rows
        .checked_mul(cols)
        .filter(|&n| n <= MAX_ELEMS)
        .ok_or(WireError::Oversized { rows, cols })?;
    if b.remaining() < elems * 4 {
        return Err(WireError::Truncated {
            needed: 8 + elems * 4,
            got: 8 + b.remaining(),
        });
    }
    // bulk decode: one pre-sized vec filled from 4-byte chunks beats
    // per-element cursor reads by a wide margin on large payloads
    let mut data = Vec::with_capacity(elems);
    data.extend(
        b[..elems * 4]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
    b.advance(elems * 4);
    Ok(Tensor::from_vec(rows, cols, data))
}

/// Marker byte introducing an optional trailing trace tag. Chosen
/// outside the value range a truncated little-endian tensor header
/// would start with in practice, but nothing depends on that: the
/// tag is only looked for *after* a complete payload has been
/// consumed, where old-format producers left zero bytes.
pub const TRACE_TAG: u8 = 0x54;

/// Encodes a trace-id tag: `TRACE_TAG | trace_id:u64 LE`. Appended
/// to `INFER` payloads by tracing-aware clients; old decoders
/// ignore trailing bytes, so tagged frames stay backward-compatible.
pub fn encode_trace_tag(trace_id: u64) -> [u8; 9] {
    let mut out = [0u8; 9];
    out[0] = TRACE_TAG;
    out[1..].copy_from_slice(&trace_id.to_le_bytes());
    out
}

/// Decodes an optional trace tag from the front of `b`. `Ok(None)`
/// when `b` is empty or starts with anything else (an old-format
/// producer); an error only when the tag byte is present but its id
/// is cut short — a torn tag must not pass silently.
pub fn decode_trace_tag(b: &mut Bytes) -> Result<Option<u64>, WireError> {
    if b.remaining() == 0 || b[0] != TRACE_TAG {
        return Ok(None);
    }
    if b.remaining() < 9 {
        return Err(WireError::Truncated {
            needed: 9,
            got: b.remaining(),
        });
    }
    b.advance(1);
    Ok(Some(b.get_u64_le()))
}

/// A propagation job as it crosses process boundaries: everything a
/// replica needs to apply one admitted batch's asynchronous effects
/// (graph inserts, k-hop mail propagation, and the sync path's
/// embedding write-back) without re-running the encoder.
///
/// `z_wire`/`feats_wire` stay in their [`encode_tensor`] framing;
/// [`crate::pipeline::ServingPipeline::submit_remote`] decodes them and
/// checks the whole job for consistency, so a well-framed but
/// inconsistent job is dropped there (counted as a decode error) and
/// never panics.
#[derive(Clone, Debug, PartialEq)]
pub struct WireJob {
    /// The admitted batch, times already clamped by admission.
    pub interactions: Vec<Interaction>,
    /// Row of `z_wire` holding each interaction's source embedding.
    pub src_rows: Vec<usize>,
    /// Row of `z_wire` holding each interaction's destination embedding.
    pub dst_rows: Vec<usize>,
    /// Indices (into `interactions`, strictly increasing) of events
    /// admitted *late* — behind the watermark but inside the
    /// bounded-lateness window. The worker splices them into the
    /// temporal graph at arrival and parks their mailbox effects in
    /// the reorder buffer until the watermark passes their release
    /// point. Empty everywhere lateness admission is off.
    pub late: Vec<u32>,
    /// Encoded embedding rows (empty when mails ignore embeddings).
    pub z_wire: Bytes,
    /// Encoded per-interaction edge features.
    pub feats_wire: Bytes,
}

/// Serializes a job:
/// `n:u32 | n×(src:u32, dst:u32, time:f64 bits, eid:u32) |
///  ns:u32 | ns×u32 | nd:u32 | nd×u32 | nl:u32 | nl×u32 |
///  zlen:u32 | z bytes | flen:u32 | feats bytes` (all LE).
pub fn encode_job(job: &WireJob) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        20 * job.interactions.len()
            + 4 * (job.src_rows.len() + job.dst_rows.len() + job.late.len())
            + job.z_wire.len()
            + job.feats_wire.len()
            + 24,
    );
    buf.put_u32_le(job.interactions.len() as u32);
    for i in &job.interactions {
        buf.put_u32_le(i.src);
        buf.put_u32_le(i.dst);
        buf.put_f64_le(i.time);
        buf.put_u32_le(i.eid);
    }
    for rows in [&job.src_rows, &job.dst_rows] {
        buf.put_u32_le(rows.len() as u32);
        for &r in rows.iter() {
            buf.put_u32_le(r as u32);
        }
    }
    buf.put_u32_le(job.late.len() as u32);
    for &l in &job.late {
        buf.put_u32_le(l);
    }
    for blob in [&job.z_wire, &job.feats_wire] {
        buf.put_u32_le(blob.len() as u32);
        buf.extend_from_slice(blob);
    }
    buf.freeze()
}

fn get_count(b: &mut Bytes) -> Result<usize, WireError> {
    if b.remaining() < 4 {
        return Err(WireError::Truncated {
            needed: 4,
            got: b.remaining(),
        });
    }
    let n = b.get_u32_le() as usize;
    if n > MAX_JOB_ITEMS {
        return Err(WireError::TooManyItems { count: n });
    }
    Ok(n)
}

/// Deserializes a job encoded by [`encode_job`]. Total: any byte
/// string decodes to a job or an error, never a panic, and declared
/// counts are capped before allocation. Trailing bytes are rejected
/// as they would mean a framing bug upstream.
pub fn decode_job(mut b: Bytes) -> Result<WireJob, WireError> {
    let job = decode_job_from(&mut b)?;
    if b.remaining() != 0 {
        return Err(WireError::Truncated {
            needed: 0,
            got: b.remaining(),
        });
    }
    Ok(job)
}

/// Decodes exactly one job from the front of `b`, advancing past the
/// consumed bytes. The job encoding is self-delimiting, so callers
/// with a legitimate trailer (the `DELIVER` verb's optional trace
/// tag) use this and then interpret what remains.
pub fn decode_job_from(b: &mut Bytes) -> Result<WireJob, WireError> {
    let n = get_count(b)?;
    if b.remaining() < n * 20 {
        return Err(WireError::Truncated {
            needed: n * 20,
            got: b.remaining(),
        });
    }
    let mut interactions = Vec::with_capacity(n);
    for _ in 0..n {
        interactions.push(Interaction {
            src: b.get_u32_le(),
            dst: b.get_u32_le(),
            time: b.get_f64_le(),
            eid: b.get_u32_le(),
        });
    }
    let mut maps: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for map in &mut maps {
        let k = get_count(b)?;
        if b.remaining() < k * 4 {
            return Err(WireError::Truncated {
                needed: k * 4,
                got: b.remaining(),
            });
        }
        map.reserve(k);
        for _ in 0..k {
            map.push(b.get_u32_le() as usize);
        }
    }
    let [src_rows, dst_rows] = maps;
    let nl = get_count(b)?;
    if b.remaining() < nl * 4 {
        return Err(WireError::Truncated {
            needed: nl * 4,
            got: b.remaining(),
        });
    }
    let mut late = Vec::with_capacity(nl);
    for _ in 0..nl {
        late.push(b.get_u32_le());
    }
    let mut blobs: [Bytes; 2] = [Bytes::new(), Bytes::new()];
    for blob in &mut blobs {
        if b.remaining() < 4 {
            return Err(WireError::Truncated {
                needed: 4,
                got: b.remaining(),
            });
        }
        let len = b.get_u32_le() as usize;
        if b.remaining() < len {
            return Err(WireError::Truncated {
                needed: len,
                got: b.remaining(),
            });
        }
        *blob = b.slice(0..len);
        b.advance(len);
    }
    let [z_wire, feats_wire] = blobs;
    Ok(WireJob {
        interactions,
        src_rows,
        dst_rows,
        late,
        z_wire,
        feats_wire,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let t = Tensor::from_rows(&[&[1.5, -2.25], &[0.0, 1e-7]]);
        let decoded = decode_tensor(encode_tensor(&t)).unwrap();
        assert!(decoded.allclose(&t, 0.0));
    }

    #[test]
    fn empty_rows() {
        let t = Tensor::zeros(3, 2);
        assert!(decode_tensor(encode_tensor(&t)).unwrap().allclose(&t, 0.0));
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let full = encode_tensor(&Tensor::full(4, 4, 1.0));
        for cut in 0..full.len() {
            let err = decode_tensor(full.slice(0..cut)).unwrap_err();
            assert!(matches!(err, WireError::Truncated { .. }), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_header_rejected_without_allocating() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(u32::MAX);
        let err = decode_tensor(buf.freeze()).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));
    }

    #[test]
    fn trace_tag_round_trips_and_tolerates_absence() {
        let mut tagged = Bytes::copy_from_slice(&encode_trace_tag(0xDEAD_BEEF_0BAD_CAFE));
        assert_eq!(
            decode_trace_tag(&mut tagged).unwrap(),
            Some(0xDEAD_BEEF_0BAD_CAFE)
        );
        assert_eq!(tagged.remaining(), 0);
        // absent tag: empty trailer and non-tag bytes both read as None
        let mut empty = Bytes::new();
        assert_eq!(decode_trace_tag(&mut empty).unwrap(), None);
        let mut other = Bytes::copy_from_slice(&[0x00, 1, 2]);
        assert_eq!(decode_trace_tag(&mut other).unwrap(), None);
        assert_eq!(other.remaining(), 3, "non-tag trailer left untouched");
    }

    #[test]
    fn torn_trace_tag_is_an_error() {
        let full = encode_trace_tag(42);
        for cut in 1..full.len() {
            let mut b = Bytes::copy_from_slice(&full[..cut]);
            assert!(
                matches!(decode_trace_tag(&mut b), Err(WireError::Truncated { .. })),
                "cut at {cut}"
            );
        }
    }

    fn sample_job() -> WireJob {
        WireJob {
            interactions: vec![
                Interaction {
                    src: 1,
                    dst: 2,
                    time: 3.5,
                    eid: 7,
                },
                Interaction {
                    src: 2,
                    dst: 9,
                    time: 4.25,
                    eid: 8,
                },
            ],
            src_rows: vec![0, 1],
            dst_rows: vec![1, 2],
            late: Vec::new(),
            z_wire: encode_tensor(&Tensor::from_rows(&[
                &[1.0, -2.0],
                &[0.5, 0.0],
                &[3.0, 4.0],
            ])),
            feats_wire: encode_tensor(&Tensor::from_rows(&[&[9.0, 9.0], &[8.0, 8.0]])),
        }
    }

    #[test]
    fn job_round_trips_bitwise() {
        let job = sample_job();
        assert_eq!(decode_job(encode_job(&job)).unwrap(), job);
        // empty z (FeatureOnly) round-trips too
        let mut job = sample_job();
        job.z_wire = Bytes::new();
        assert_eq!(decode_job(encode_job(&job)).unwrap(), job);
        // late-event indices ride the job
        let mut job = sample_job();
        job.late = vec![1];
        assert_eq!(decode_job(encode_job(&job)).unwrap(), job);
    }

    #[test]
    fn truncated_late_job_is_an_error_not_a_panic() {
        let mut job = sample_job();
        job.late = vec![0, 1];
        let full = encode_job(&job);
        for cut in 0..full.len() {
            assert!(decode_job(full.slice(0..cut)).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn truncated_job_is_an_error_not_a_panic() {
        let full = encode_job(&sample_job());
        for cut in 0..full.len() {
            assert!(decode_job(full.slice(0..cut)).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_job_bytes_are_rejected() {
        let mut bytes = encode_job(&sample_job()).to_vec();
        bytes.push(0);
        assert!(decode_job(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn streaming_job_decode_leaves_the_trailer() {
        let job = sample_job();
        let mut bytes = encode_job(&job).to_vec();
        bytes.extend_from_slice(&encode_trace_tag(99));
        let mut b = Bytes::from(bytes);
        assert_eq!(decode_job_from(&mut b).unwrap(), job);
        assert_eq!(decode_trace_tag(&mut b).unwrap(), Some(99));
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn oversized_job_counts_rejected_without_allocating() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        let err = decode_job(buf.freeze()).unwrap_err();
        assert!(matches!(err, WireError::TooManyItems { .. }));
        // an oversized row-map count behind a valid batch header
        let mut buf = BytesMut::new();
        buf.put_u32_le(0); // no interactions
        buf.put_u32_le(u32::MAX); // absurd src_rows count
        let err = decode_job(buf.freeze()).unwrap_err();
        assert!(matches!(err, WireError::TooManyItems { .. }));
    }

    #[test]
    fn streaming_decode_consumes_exactly_one_tensor() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0], &[4.0]]);
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encode_tensor(&a));
        buf.extend_from_slice(&encode_tensor(&b));
        let mut bytes = buf.freeze();
        let da = decode_tensor_from(&mut bytes).unwrap();
        let db = decode_tensor_from(&mut bytes).unwrap();
        assert!(da.allclose(&a, 0.0));
        assert!(db.allclose(&b, 0.0));
        assert_eq!(bytes.remaining(), 0);
    }
}
