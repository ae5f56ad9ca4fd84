//! # apan-check
//!
//! Seeded property tests with no dependencies. [`check`] runs a property
//! (a closure over a [`Gen`]) once per case, case `c` on a seed derived
//! from `c` alone: every run draws the same inputs, so a failure
//! reproduces by re-running the test. There is no base seed, environment
//! variable, regression file or macro.
//!
//! Shrinking is halving. The generator's size caps every [`Gen::vec`]
//! length (never below the range's lower bound), and a failing case is
//! re-run on its seed with the cap halved until it passes. A capped
//! vector is a prefix of the uncapped one, so a property that draws its
//! scalars first keeps them while its first vector shrinks.

#![forbid(unsafe_code)]

use std::any::Any;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed case `case` runs on: output `case` of a splitmix64 stream
/// started at zero.
fn case_seed(case: usize) -> u64 {
    mix((case as u64).wrapping_add(1).wrapping_mul(GOLDEN))
}

/// A splitmix64 stream plus the size cap on vector lengths.
#[derive(Clone, Debug)]
pub struct Gen {
    state: u64,
    size: usize,
    /// The longest vector drawn so far.
    longest: usize,
}

impl Gen {
    /// A generator on `seed` whose vectors are at most `size` long,
    /// unless a length range's lower bound asks for more.
    pub fn new(seed: u64, size: usize) -> Self {
        Self {
            state: seed,
            size,
            longest: 0,
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }

    /// A uniform draw from `a..b` or `a..=b` (integers or floats); an
    /// empty range panics.
    pub fn range<T: Uniform>(&mut self, range: impl Bounds<T>) -> T {
        let (lo, hi, inclusive) = range.bounds();
        T::draw(self, lo, hi, inclusive)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// One of `items`, uniformly.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.range(0..items.len())].clone()
    }

    /// A vector of `item` draws, its length drawn from `len` and capped
    /// at the size (but not below `len`'s lower bound).
    pub fn vec<T>(
        &mut self,
        len: impl Bounds<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let (lo, hi, inclusive) = len.bounds();
        let n = usize::draw(self, lo, hi, inclusive).min(self.size.max(lo));
        self.longest = self.longest.max(n);
        (0..n).map(|_| item(self)).collect()
    }
}

/// A range [`Gen::range`] and [`Gen::vec`] draw from: `a..b` or `a..=b`.
pub trait Bounds<T> {
    /// `(low, high, whether high is included)`.
    fn bounds(&self) -> (T, T, bool);
}

impl<T: Copy> Bounds<T> for Range<T> {
    fn bounds(&self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T: Copy> Bounds<T> for RangeInclusive<T> {
    fn bounds(&self) -> (T, T, bool) {
        (*self.start(), *self.end(), true)
    }
}

/// A type [`Gen::range`] draws uniformly.
pub trait Uniform: Copy {
    /// A draw from `lo..hi`, or from `lo..=hi` when `inclusive`.
    fn draw(g: &mut Gen, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn draw(g: &mut Gen, lo: Self, hi: Self, inclusive: bool) -> Self {
                let span = hi as i128 - lo as i128 + i128::from(inclusive);
                assert!(span > 0, "empty range {lo}..{hi}");
                // multiply-shift maps 64 random bits onto [0, span)
                let offset = (u128::from(g.next_u64()) * span as u128) >> 64;
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i32, i64);

impl Uniform for f64 {
    fn draw(g: &mut Gen, lo: Self, hi: Self, inclusive: bool) -> Self {
        assert!(lo < hi || (inclusive && lo == hi), "empty range {lo}..{hi}");
        // 53 random bits over 2^53 (or 2^53 - 1 to reach `hi`)
        let unit = (g.next_u64() >> 11) as f64 / ((1u64 << 53) - u64::from(inclusive)) as f64;
        let v = (lo + (hi - lo) * unit).min(hi);
        // rounding can land on an excluded upper bound
        if v == hi && !inclusive {
            lo
        } else {
            v
        }
    }
}

impl Uniform for f32 {
    fn draw(g: &mut Gen, lo: Self, hi: Self, inclusive: bool) -> Self {
        let v = f64::draw(g, lo.into(), hi.into(), inclusive) as f32;
        if v >= hi && !inclusive {
            lo
        } else {
            v.min(hi)
        }
    }
}

/// Runs `prop` on `cases` fixed seeds. A panicking case is re-run with
/// the size cap halved until it passes; `check` then panics with the
/// case, the seed, the smallest size that still failed, the first
/// failing size (the longest vector the uncapped run drew) and the
/// smallest failing run's message. `Gen::new(seed, size)` replays it.
pub fn check(cases: usize, prop: impl Fn(&mut Gen)) {
    for case in 0..cases {
        let seed = case_seed(case);
        let Err((first, mut message)) = run(&prop, seed, usize::MAX) else {
            continue;
        };
        let mut size = first;
        while size > 0 {
            match run(&prop, seed, size / 2) {
                Ok(()) => break,
                Err((_, m)) => {
                    size /= 2;
                    message = m;
                }
            }
        }
        panic!(
            "case {case} failed (seed {seed:#018x}, size {size}, first failing size {first}): {message}"
        );
    }
}

/// One run of `prop`; a panic returns the longest vector drawn and its message.
fn run(prop: &impl Fn(&mut Gen), seed: u64, size: usize) -> Result<(), (usize, String)> {
    let mut g = Gen::new(seed, size);
    catch_unwind(AssertUnwindSafe(|| prop(&mut g))).map_err(|payload| (g.longest, message(payload)))
}

fn message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return s.to_string();
    }
    payload
        .downcast::<String>()
        .map_or_else(|_| "non-string panic".into(), |s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        message(catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic"))
    }

    /// The number written right after `key` in `message` (`0x…` = hex).
    fn number_after(message: &str, key: &str) -> u64 {
        let at = message
            .find(key)
            .unwrap_or_else(|| panic!("no {key:?} in {message:?}"));
        let text: String = message[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect();
        match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).unwrap(),
            None => text.parse().unwrap(),
        }
    }

    #[test]
    fn check_runs_exactly_n_cases_on_the_same_seeds_every_call() {
        let first_draws = |cases| {
            let seen = RefCell::new(Vec::new());
            check(cases, |g| seen.borrow_mut().push(g.next_u64()));
            seen.into_inner()
        };
        let draws = first_draws(40);
        assert_eq!(draws.len(), 40);
        assert_eq!(first_draws(40), draws);
        assert_eq!(
            first_draws(7),
            draws[..7],
            "a case's seed does not depend on n"
        );
        let mut distinct = draws.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 40);
    }

    fn fails_on_long_vectors(g: &mut Gen) {
        let v = g.vec(0..200, |g| g.range(0u8..=255));
        assert!(v.len() < 10, "vector of length {}", v.len());
    }

    #[test]
    fn halving_reports_a_smaller_size_that_still_fails() {
        let message = panic_message(|| check(16, fails_on_long_vectors));
        let seed = number_after(&message, "seed ");
        let size = number_after(&message, ", size ") as usize;
        let first = number_after(&message, "first failing size ") as usize;
        assert!(size < first, "{message}");
        for size in [size, first] {
            let replay = catch_unwind(|| fails_on_long_vectors(&mut Gen::new(seed, size)));
            assert!(replay.is_err(), "seed {seed:#x} passes at size {size}");
        }
        let half = catch_unwind(|| fails_on_long_vectors(&mut Gen::new(seed, size / 2)));
        assert!(half.is_ok(), "halving stops at the first passing size");
    }

    #[test]
    fn the_panic_message_names_the_case_and_the_seed() {
        let calls = Cell::new(0);
        let message = panic_message(|| {
            check(10, |_| {
                calls.set(calls.get() + 1);
                assert!(calls.get() <= 3, "boom");
            })
        });
        assert!(message.starts_with("case 3 failed"), "{message}");
        assert_eq!(number_after(&message, "seed "), case_seed(3), "{message}");
        assert!(message.ends_with("boom"), "{message}");
    }

    #[test]
    fn draws_stay_in_range_and_vec_keeps_its_lower_bound() {
        let mut g = Gen::new(7, 2);
        for _ in 0..1000 {
            assert!((3..9).contains(&g.range(3u8..9)));
            assert!((-2..=2).contains(&g.range(-2i32..=2)));
            let x = g.range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&x));
            assert!((0.0..=1.0).contains(&g.range(0.0f64..=1.0)));
        }
        assert_eq!(g.range(u64::MAX..=u64::MAX), u64::MAX);
        assert_eq!(g.vec(24..25, |g| g.bool()).len(), 24);
        assert!(g.vec(0..100, |g| g.bool()).len() <= 2);
    }
}
