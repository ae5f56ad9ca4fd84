//! Batching of the time-ordered event stream.
//!
//! CTDG models consume interactions in fixed-size batches (the paper uses
//! batch size 200; Figure 7 sweeps it). A [`BatchIter`] yields contiguous
//! index ranges over an event log, preserving time order.

use std::ops::Range;

/// Iterator over contiguous `Range<usize>` batches of an event slice.
#[derive(Clone, Debug)]
pub struct BatchIter {
    len: usize,
    batch_size: usize,
    pos: usize,
}

impl BatchIter {
    /// Batches `len` events into chunks of `batch_size` (last chunk may be
    /// smaller).
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    pub fn new(len: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            len,
            batch_size,
            pos: 0,
        }
    }
}

impl Iterator for BatchIter {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        if self.pos >= self.len {
            return None;
        }
        let start = self.pos;
        let end = (start + self.batch_size).min(self.len);
        self.pos = end;
        Some(start..end)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.len - self.pos).div_ceil(self.batch_size);
        (left, Some(left))
    }
}

impl ExactSizeIterator for BatchIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_everything_once() {
        let batches: Vec<_> = BatchIter::new(10, 3).collect();
        assert_eq!(batches, vec![0..3, 3..6, 6..9, 9..10]);
    }

    #[test]
    fn exact_division() {
        let it = BatchIter::new(9, 3);
        assert_eq!(it.len(), 3);
        assert_eq!(it.count(), 3);
    }

    #[test]
    fn empty_input() {
        assert_eq!(BatchIter::new(0, 5).count(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_size_rejected() {
        let _ = BatchIter::new(10, 0);
    }

    #[test]
    fn size_hint_is_exact() {
        let mut it = BatchIter::new(10, 4);
        assert_eq!(it.len(), 3);
        it.next();
        assert_eq!(it.len(), 2);
    }
}
