//! Offline stand-in for `crossbeam`: only `channel`, the part the APAN
//! crates use.

pub mod channel;
