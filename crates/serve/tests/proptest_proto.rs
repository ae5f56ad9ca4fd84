//! Property tests for the wire protocol: hostile bytes must never
//! panic the decoder, and declared counts beyond the protocol ceilings
//! must be rejected before any allocation happens.

use apan_check::{check, Gen};
use apan_core::propagator::Interaction;
use apan_serve::proto::{
    self, decode_infer, decode_scores, encode_infer, encode_scores, read_frame, write_frame,
    MAX_FRAME,
};
use apan_tensor::Tensor;
use bytes::Bytes;
use std::io::Cursor;

fn arbitrary_bytes(g: &mut Gen, max_len: usize) -> Vec<u8> {
    g.vec(0..max_len, |g| g.range(0u8..=255))
}

/// Arbitrary bytes into the frame reader: every outcome is a value,
/// never a panic, and a frame is only ever produced from a buffer
/// long enough to contain it.
#[test]
fn read_frame_total_on_arbitrary_bytes() {
    check(256, |g| {
        let bytes = arbitrary_bytes(g, 128);
        let mut cursor = Cursor::new(bytes.clone());
        match read_frame(&mut cursor) {
            Ok(Some(frame)) => {
                assert!(bytes.len() >= 13 + frame.payload.len());
            }
            Ok(None) => assert!(bytes.is_empty()),
            Err(_) => {}
        }
    });
}

/// A length prefix beyond `MAX_FRAME` is rejected without the
/// decoder attempting the allocation the prefix asks for.
#[test]
fn read_frame_rejects_oversized_length() {
    check(256, |g| {
        let excess = g.range(1u64..1 << 30);
        let len = (MAX_FRAME as u64 + excess).min(u32::MAX as u64) as u32;
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let mut cursor = Cursor::new(bytes);
        assert!(read_frame(&mut cursor).is_err());
    });
}

/// Arbitrary bytes into the INFER payload decoder: total, no panic.
#[test]
fn decode_infer_total_on_arbitrary_bytes() {
    check(256, |g| {
        let bytes = arbitrary_bytes(g, 256);
        let _ = decode_infer(Bytes::from(bytes));
    });
}

/// A declared interaction count far beyond what the payload can
/// hold must be an error, not an attempted allocation.
#[test]
fn decode_infer_rejects_oversized_count() {
    check(256, |g| {
        let count = g.range((1u32 << 20)..u32::MAX);
        let mut payload = count.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0u8; 64]);
        assert!(decode_infer(Bytes::from(payload)).is_err());
    });
}

/// Arbitrary bytes into the SCORES decoder: total, no panic.
#[test]
fn decode_scores_total_on_arbitrary_bytes() {
    check(256, |g| {
        let bytes = arbitrary_bytes(g, 256);
        let _ = decode_scores(Bytes::from(bytes));
    });
}

/// A SCORES count that promises more floats than the payload holds
/// is rejected.
#[test]
fn decode_scores_rejects_overlong_count() {
    check(256, |g| {
        let count = g.range(64u32..u32::MAX);
        let mut payload = count.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0u8; 32]); // 8 floats, far fewer than count
        assert!(decode_scores(Bytes::from(payload)).is_err());
    });
}

/// Well-formed INFER payloads survive an encode → decode roundtrip
/// bitwise (times and features included).
#[test]
fn infer_roundtrips() {
    check(256, |g| {
        let dim = g.range(1usize..8);
        let rows = g.vec(1..16, |g| {
            let (src, dst) = (g.range(0u32..1000), g.range(0u32..1000));
            let (time, eid) = (g.range(0.0f64..1e6), g.range(0u32..u32::MAX));
            (src, dst, time, eid, g.range(-10.0f32..10.0))
        });
        let interactions: Vec<Interaction> = rows
            .iter()
            .map(|&(src, dst, time, eid, _)| Interaction {
                src,
                dst,
                time,
                eid,
            })
            .collect();
        let data: Vec<f32> = rows
            .iter()
            .flat_map(|&(_, _, _, _, f)| std::iter::repeat_n(f, dim))
            .collect();
        let feats = Tensor::from_vec(interactions.len(), dim, data);
        let (got_i, got_f) = decode_infer(Bytes::from(encode_infer(&interactions, &feats)))
            .expect("roundtrip must decode");
        assert_eq!(got_i.len(), interactions.len());
        for (a, b) in interactions.iter().zip(&got_i) {
            assert_eq!((a.src, a.dst, a.eid), (b.src, b.dst, b.eid));
            assert_eq!(a.time.to_bits(), b.time.to_bits());
        }
        assert!(feats.allclose(&got_f, 0.0));
    });
}

/// Arbitrary bytes into the DELIVER decoder (cluster cross-shard
/// deliveries): total, no panic.
#[test]
fn decode_deliver_total_on_arbitrary_bytes() {
    check(256, |g| {
        let bytes = arbitrary_bytes(g, 256);
        let _ = proto::decode_deliver(Bytes::from(bytes));
    });
}

/// A DELIVER whose inner job header declares more list items than
/// the propagation-job ceiling is rejected before any allocation.
#[test]
fn decode_deliver_rejects_oversized_job_count() {
    check(256, |g| {
        let (gseq, excess) = (g.range(0u64..u64::MAX), g.range(1u32..1 << 10));
        let count = apan_core::pipeline::wire::MAX_JOB_ITEMS as u32 + excess;
        let mut payload = gseq.to_le_bytes().to_vec();
        payload.extend_from_slice(&count.to_le_bytes());
        payload.extend_from_slice(&[0u8; 64]);
        assert!(proto::decode_deliver(Bytes::from(payload)).is_err());
    });
}

/// DELIVER roundtrips: sequence number and the embedded propagation
/// job both survive encode → decode bitwise.
#[test]
fn deliver_roundtrips() {
    check(256, |g| {
        let gseq = g.range(0u64..u64::MAX);
        let rows = g.vec(0..8, |g| {
            let (src, dst) = (g.range(0u32..1000), g.range(0u32..1000));
            (src, dst, g.range(0.0f64..1e6), g.range(0u32..u32::MAX))
        });
        use apan_core::pipeline::wire;
        let job = wire::WireJob {
            interactions: rows
                .iter()
                .map(|&(src, dst, time, eid)| Interaction {
                    src,
                    dst,
                    time,
                    eid,
                })
                .collect(),
            src_rows: (0..rows.len()).collect(),
            dst_rows: (0..rows.len()).rev().collect(),
            late: Vec::new(),
            z_wire: Bytes::from(Vec::new()),
            feats_wire: Bytes::from(Vec::new()),
        };
        let bytes = wire::encode_job(&job);
        let (got_g, got_job) =
            proto::decode_deliver(Bytes::from(proto::encode_deliver(gseq, &bytes)))
                .expect("roundtrip must decode");
        assert_eq!(got_g, gseq);
        assert_eq!(got_job.interactions.len(), job.interactions.len());
        for (a, b) in job.interactions.iter().zip(&got_job.interactions) {
            assert_eq!((a.src, a.dst, a.eid), (b.src, b.dst, b.eid));
            assert_eq!(a.time.to_bits(), b.time.to_bits());
        }
        assert_eq!(got_job.src_rows, job.src_rows);
        assert_eq!(got_job.dst_rows, job.dst_rows);
    });
}

/// Arbitrary bytes into the ROUTE decoder (gateway-routed INFER):
/// total, no panic — and any successful decode carved its inner
/// payload out of the input, so the inner bytes can never exceed
/// what arrived.
#[test]
fn decode_route_total_on_arbitrary_bytes() {
    check(256, |g| {
        let bytes = arbitrary_bytes(g, 256);
        let n = bytes.len();
        if let Ok((_, inner)) = proto::decode_route(Bytes::from(bytes)) {
            assert!(inner.len() + 8 == n);
        }
    });
}

/// ROUTE roundtrips: sequence number and inner INFER payload
/// survive verbatim.
#[test]
fn route_roundtrips() {
    check(256, |g| {
        let gseq = g.range(0u64..u64::MAX);
        let inner = arbitrary_bytes(g, 128);
        let (got_g, got_inner) =
            proto::decode_route(Bytes::from(proto::encode_route(gseq, &inner)))
                .expect("roundtrip must decode");
        assert_eq!(got_g, gseq);
        assert_eq!(&got_inner[..], &inner[..]);
    });
}

/// Flush-barrier payloads: empty means legacy flush, exactly 8
/// bytes roundtrip the barrier sequence, anything else is rejected
/// — never a panic.
#[test]
fn flush_barrier_total_and_roundtrips() {
    check(256, |g| {
        let gseq = g.range(0u64..u64::MAX);
        let junk = arbitrary_bytes(g, 32);
        assert_eq!(
            proto::decode_flush_barrier(&proto::encode_flush_barrier(gseq)).unwrap(),
            Some(gseq)
        );
        assert_eq!(proto::decode_flush_barrier(b"").unwrap(), None);
        match proto::decode_flush_barrier(&junk) {
            Ok(None) => assert!(junk.is_empty()),
            Ok(Some(_)) => assert_eq!(junk.len(), 8),
            Err(_) => assert!(!junk.is_empty() && junk.len() != 8),
        }
    });
}

/// Frames survive a write → read roundtrip, and the reader leaves
/// the stream positioned at the next frame.
#[test]
fn frame_roundtrips() {
    check(256, |g| {
        let (verb, req_id) = (g.range(0u8..=255), g.range(0u64..u64::MAX));
        let payload = arbitrary_bytes(g, 64);
        let mut wire = Vec::new();
        write_frame(&mut wire, verb, req_id, &payload).unwrap();
        write_frame(&mut wire, proto::verb::PING, req_id + 1, b"").unwrap();
        let mut cursor = Cursor::new(wire);
        let frame = read_frame(&mut cursor).unwrap().expect("first frame");
        assert_eq!(frame.verb, verb);
        assert_eq!(frame.req_id, req_id);
        assert_eq!(&frame.payload[..], &payload[..]);
        let next = read_frame(&mut cursor).unwrap().expect("second frame");
        assert_eq!(next.verb, proto::verb::PING);
        assert!(
            read_frame(&mut cursor).unwrap().is_none(),
            "clean EOF after"
        );
    });
}

/// Scores roundtrip at full f32 bit fidelity (encode_scores is the
/// reply path the chaos oracle compares bitwise).
#[test]
fn scores_roundtrip_bitwise() {
    let scores = vec![0.0f32, -0.0, 1.5e-30, f32::MIN_POSITIVE, 7.25, -3.5e30];
    let got = decode_scores(Bytes::from(encode_scores(&scores))).unwrap();
    assert_eq!(
        scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        got.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
    );
}
