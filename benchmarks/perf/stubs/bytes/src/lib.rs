//! Offline stand-in for `bytes`: the subset the APAN wire codecs use.
//! [`Bytes`] is a cheaply cloneable, sliceable view of shared immutable
//! bytes; [`BytesMut`] is a growable buffer that freezes into one.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A reference-counted immutable byte slice; `clone` and `slice` are O(1).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn copy_from_slice(src: &[u8]) -> Self {
        Self::from(src.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A view of `range` (relative to this view) sharing the same storage.
    ///
    /// # Panics
    /// Panics when `range` is out of bounds, as the real crate does.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of {}", self.len());
        Self {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", &**self)
    }
}

/// A growable byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self(Vec::with_capacity(cap))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

macro_rules! buf_get {
    ($($name:ident -> $ty:ty),* $(,)?) => {$(
        /// Reads one little-endian value and advances past it.
        ///
        /// # Panics
        /// Panics when fewer bytes remain than the value needs.
        fn $name(&mut self) -> $ty {
            const N: usize = std::mem::size_of::<$ty>();
            let mut raw = [0u8; N];
            raw.copy_from_slice(&self.chunk()[..N]);
            self.advance(N);
            <$ty>::from_le_bytes(raw)
        }
    )*};
}

/// Read cursor over contiguous bytes.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    buf_get!(
        get_u32_le -> u32,
        get_u64_le -> u64,
        get_f32_le -> f32,
        get_f64_le -> f64,
    );
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance {cnt} past {}", self.len());
        self.start += cnt;
    }
}

macro_rules! buf_put {
    ($($name:ident($ty:ty)),* $(,)?) => {$(
        /// Appends one little-endian value.
        fn $name(&mut self, v: $ty) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Append-only writer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    buf_put!(
        put_u32_le(u32),
        put_u64_le(u64),
        put_f32_le(f32),
        put_f64_le(f64),
    );
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}
