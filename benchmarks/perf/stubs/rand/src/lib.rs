//! Offline stand-in for `rand` 0.8. `StdRng` is splitmix64, so streams
//! differ from the real crate's ChaCha12 — seeded determinism holds,
//! absolute draws do not carry over.

pub mod distributions;
pub mod rngs;

use distributions::uniform::{SampleRange, SampleUniform};
use distributions::{Distribution, Standard};

/// Source of raw random words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Typed draws on top of [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the [`Standard`] distribution (floats in `[0, 1)`).
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// A value uniform over `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    /// Panics on an empty range.
    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}
