//! The one generator the APAN crates name.

use crate::{RngCore, SeedableRng};

/// splitmix64 (Steele, Lea & Flood): one 64-bit state word, full period.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StdRng(u64);

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        Self(seed)
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}
