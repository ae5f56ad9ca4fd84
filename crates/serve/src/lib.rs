//! `apan-serve` — the networked serving layer for APAN.
//!
//! The APAN paper's central claim is architectural: putting the heavy
//! graph work (k-hop mail propagation) on an **asynchronous** path
//! leaves the **synchronous** serving path doing only a mailbox read and
//! a small attention stack, so online inference stays fast and flat.
//! This crate is where that claim meets a socket: a daemon (`apand`)
//! owning one [`apan_core::pipeline::ServingPipeline`] behind a
//! length-prefixed binary TCP protocol, with
//!
//! * **admission control** — bounded ingress that sheds with an explicit
//!   `OVERLOADED` reply instead of queueing into unbounded latency
//!   ([`batcher`]);
//! * **adaptive micro-batching** — bursts amortize encoder GEMMs across
//!   one forward pass, lone requests wait at most one configurable
//!   deadline ([`batcher::BatchPolicy`]);
//! * **warm-restart snapshots** — model parameters, mailbox state, and
//!   the event log in one atomically-written file; a restarted daemon
//!   produces bitwise-identical scores to one that never stopped
//!   ([`snapshot`]);
//! * **an honest stats surface** — p50/p95/p99/max service latency,
//!   queue depth, shed counts, and a batch-size histogram over the
//!   `STATS` verb ([`stats`]);
//! * **first-class observability** — a `METRICS` verb rendering every
//!   counter, gauge, and per-stage latency histogram as Prometheus text
//!   exposition, and a `TRACE` verb draining per-request stage spans
//!   (admit → batch_wait → encode → decode_score → commit → plan →
//!   deliver) as JSON lines, correlated by trace id across the
//!   synchronous and asynchronous links.
//!
//! [`client::Client`] is the matching blocking client; `apan-loadgen`
//! drives a daemon with concurrent connections and prints what the
//! stats surface reports.

pub mod batcher;
pub mod client;
pub mod cluster_link;
pub mod conn;
pub mod proto;
pub mod server;
pub mod snapshot;
pub mod stats;
mod verbs;

pub use client::{Client, ClientError};
pub use cluster_link::ClusterMembership;
pub use server::{start, ServeConfig, ServerHandle, StartError};
