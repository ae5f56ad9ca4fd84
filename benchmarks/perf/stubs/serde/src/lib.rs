//! Offline stand-in for `serde`: the two trait names and, under the
//! `derive` feature, derives that expand to nothing (see `serde_derive`).

/// Marker for the real crate's `Serialize`.
pub trait Serialize {}

/// Marker for the real crate's `Deserialize`.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
