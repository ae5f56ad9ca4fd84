//! `apan-cluster` — sharded multi-daemon serving for APAN.
//!
//! A cluster is N `apand` shard processes plus one thin `apan-gateway`
//! front. Every shard holds a **complete replica** of serving state
//! (mailbox store + temporal graph), seeded from the same weights;
//! what is partitioned is *compute*: each inference request is owned by
//! exactly one shard ([`owner_shard`] on the request's first source
//! node), which runs the synchronous path and then replicates the
//! batch's propagation job to every peer as a `DELIVER` frame.
//!
//! The gateway assigns every `INFER` a dense cluster-global sequence
//! number and wraps it in a `ROUTE` frame to the owning shard; shards
//! admit cluster work strictly in that order (a sequence-ticket
//! turnstile, [`apan_serve::cluster_link::DeliveryOrder`]), so all
//! replicas apply the identical admission/job stream and stay
//! **bitwise identical** — the same discipline the in-process
//! propagation worker gets from draining one FIFO of jobs, lifted
//! across processes.
//!
//! Module map:
//!
//! * [`gateway`] — the routing/fan-out front ([`start_gateway`]);
//! * [`proxy`] — a seeded chaos TCP proxy that drops, duplicates, and
//!   delays `DELIVER` frames for the fault-injection harness;
//! * [`timeline`] — merges per-process `TRACE` drains into one causal
//!   timeline per request with a critical-path breakdown.

#![forbid(unsafe_code)]

pub mod gateway;
pub mod proxy;
pub mod timeline;

pub use apan_core::shard::owner_shard;
pub use gateway::{start_gateway, GatewayConfig, GatewayHandle};
pub use proxy::{ChaosProfile, ChaosProxy};
