//! `Standard`, `Uniform` and the range sampling behind `Rng::gen_range`.

use crate::Rng;

/// Something that can produce values of `T` from a generator.
pub trait Distribution<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// Floats uniform in `[0, 1)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Standard;

impl Distribution<f64> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 53 random mantissa bits
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution<f32> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        // 24 random mantissa bits
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Uniform over the half-open interval `lo..hi`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Uniform<T> {
    lo: T,
    hi: T,
}

impl<T: uniform::SampleUniform> Uniform<T> {
    pub fn new(lo: T, hi: T) -> Self {
        Self { lo, hi }
    }
}

impl<T: uniform::SampleUniform> Distribution<T> for Uniform<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        T::sample_between(self.lo, self.hi, false, rng)
    }
}

pub mod uniform {
    //! Range sampling for the numeric types.

    use crate::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Types `gen_range` and `Uniform` can draw.
    pub trait SampleUniform: Copy + PartialOrd {
        /// Uniform in `lo..hi`, or `lo..=hi` when `inclusive`.
        ///
        /// # Panics
        /// Panics on an empty interval.
        fn sample_between<R: Rng + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R)
            -> Self;
    }

    /// Range arguments of `gen_range`.
    pub trait SampleRange<T> {
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
    }

    impl<T: SampleUniform> SampleRange<T> for Range<T> {
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
            T::sample_between(self.start, self.end, false, rng)
        }
    }

    impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
            T::sample_between(*self.start(), *self.end(), true, rng)
        }
    }

    macro_rules! uniform_int {
        ($($ty:ty => $wide:ty),*) => {$(
            impl SampleUniform for $ty {
                fn sample_between<R: Rng + ?Sized>(
                    lo: Self,
                    hi: Self,
                    inclusive: bool,
                    rng: &mut R,
                ) -> Self {
                    assert!(if inclusive { lo <= hi } else { lo < hi }, "empty range");
                    // span of 0 means the whole 64-bit domain
                    let span = (hi as $wide).wrapping_sub(lo as $wide) as u64
                        + u64::from(inclusive);
                    let draw = rng.next_u64();
                    let off = if span == 0 {
                        draw
                    } else {
                        // multiply-shift maps 64 random bits onto 0..span
                        ((u128::from(draw) * u128::from(span)) >> 64) as u64
                    };
                    (lo as $wide).wrapping_add(off as $wide) as $ty
                }
            }
        )*};
    }
    uniform_int!(u32 => u64, u64 => u64, usize => u64, i32 => i64, i64 => i64);

    macro_rules! uniform_float {
        ($($ty:ty),*) => {$(
            impl SampleUniform for $ty {
                fn sample_between<R: Rng + ?Sized>(
                    lo: Self,
                    hi: Self,
                    inclusive: bool,
                    rng: &mut R,
                ) -> Self {
                    assert!(if inclusive { lo <= hi } else { lo < hi }, "empty range");
                    let unit: $ty = rng.gen();
                    let v = lo + (hi - lo) * unit;
                    // rounding can land exactly on an excluded upper end
                    if !inclusive && v >= hi { lo } else { v }
                }
            }
        )*};
    }
    uniform_float!(f32, f64);
}
