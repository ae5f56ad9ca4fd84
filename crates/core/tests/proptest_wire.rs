//! Property tests for the tensor wire codec: decoding is total over
//! arbitrary bytes, and a hostile header can never drive an unbounded
//! allocation.

use apan_check::check;
use apan_core::pipeline::wire::{
    decode_tensor, decode_tensor_from, encode_tensor, WireError, MAX_ELEMS,
};
use apan_tensor::Tensor;
use bytes::{BufMut, Bytes, BytesMut};

/// Arbitrary bytes: every outcome is `Ok` or a typed error, never a
/// panic, and `Ok` only when the buffer really held the payload.
#[test]
fn decode_total_on_arbitrary_bytes() {
    check(256, |g| {
        let bytes = g.vec(0..256, |g| g.range(0u8..=255));
        let len = bytes.len();
        match decode_tensor(Bytes::from(bytes)) {
            Ok(t) => assert!(len >= 8 + t.len() * 4),
            Err(WireError::Truncated { needed, got }) => assert!(needed > got),
            Err(WireError::Oversized { rows, cols }) => {
                assert!(rows.checked_mul(cols).is_none_or(|n| n > MAX_ELEMS));
            }
            Err(WireError::TooManyItems { .. }) => {
                panic!("tensor decode never sees job counts");
            }
        }
    });
}

/// Headers whose `rows * cols` exceeds `MAX_ELEMS` (or overflows)
/// are rejected as `Oversized` before any data is read.
#[test]
fn oversized_headers_rejected() {
    check(256, |g| {
        let (rows, cols) = (g.range(1u32..u32::MAX), g.range(1u32..u32::MAX));
        if (rows as u64)
            .checked_mul(cols as u64)
            .is_some_and(|n| n <= MAX_ELEMS as u64)
        {
            return; // a header this small is almost never drawn
        }
        let mut buf = BytesMut::new();
        buf.put_u32_le(rows);
        buf.put_u32_le(cols);
        buf.put_slice(&[0u8; 64]);
        assert_eq!(
            decode_tensor(buf.freeze()),
            Err(WireError::Oversized {
                rows: rows as usize,
                cols: cols as usize
            })
        );
    });
}

/// Truncating a valid encoding anywhere yields `Truncated`, with the
/// shortfall accounted exactly.
#[test]
fn truncations_are_typed_errors() {
    check(256, |g| {
        let (rows, cols) = (g.range(1usize..6), g.range(1usize..6));
        let frac = g.range(0.0f64..1.0);
        let t = Tensor::from_vec(rows, cols, vec![1.0; rows * cols]);
        let full = encode_tensor(&t);
        let cut = ((full.len() as f64) * frac) as usize; // strictly short of full
        match decode_tensor(full.slice(0..cut)) {
            Err(WireError::Truncated { needed, got }) => {
                assert_eq!(got, cut, "got counts all bytes seen, header included");
                assert!(needed > got);
            }
            other => panic!("cut at {cut} gave {other:?}"),
        }
    });
}

/// Encode → decode roundtrips bitwise, and the streaming variant
/// leaves the buffer positioned after the consumed tensor.
#[test]
fn roundtrip_is_bitwise_and_positions_the_stream() {
    check(256, |g| {
        let (rows, cols) = (g.range(1usize..5), g.range(1usize..5));
        let fill = g.range(-1.0e30f32..1.0e30);
        let trailer = g.vec(0..16, |g| g.range(0u8..=255));
        let t = Tensor::from_vec(rows, cols, vec![fill; rows * cols]);
        let mut wire = encode_tensor(&t).to_vec();
        wire.extend_from_slice(&trailer);
        let mut b = Bytes::from(wire);
        let got = decode_tensor_from(&mut b).expect("roundtrip must decode");
        assert_eq!(got.rows(), rows);
        assert_eq!(got.cols(), cols);
        for (a, b) in t.data().iter().zip(got.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(&b[..], &trailer[..], "stream must stop at the trailer");
    });
}
