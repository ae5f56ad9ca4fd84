//! # apan-baselines
//!
//! Full Rust reimplementations of every baseline the APAN paper compares
//! against (Tables 2–3, Figures 6–7), sharing the `apan-tensor`/`apan-nn`
//! substrate so comparisons are apples-to-apples.
//!
//! ## Dynamic (CTDG) models — [`apan_core::train::DynamicModel`] implementations
//!
//! * [`jodie::Jodie`] — per-node RNN memory with time-projected
//!   embeddings; no graph queries at inference.
//! * [`dyrep::DyRep`] — RNN memory whose updates aggregate the partner's
//!   temporal neighbourhood; identity embeddings at inference.
//! * [`tgat::Tgat`] — L-layer temporal graph attention with functional
//!   time encoding; queries the k-hop temporal neighbourhood *at
//!   inference* (the latency pattern APAN is built to avoid).
//! * [`tgn::Tgn`] — TGAT-style one-layer attention on top of a GRU
//!   node memory; also queries the graph at inference.
//!
//! APAN itself implements the same trait next to its definition
//! (`apan_core::train::ApanDyn`).
//!
//! ## Static models (on the collapsed training graph)
//!
//! * [`gcn`] — GCN encoder, plus GAE and VGAE (inner-product decoders).
//! * [`gat`] — graph attention network.
//! * [`sage`] — GraphSAGE with mean aggregation.
//! * [`walks`]/[`skipgram`]/[`deepwalk`] — DeepWalk, Node2Vec and the
//!   temporal-walk CTDNE, trained with skip-gram negative sampling.
//!
//! [`apan_core::train`] trains and evaluates any `DynamicModel` — these
//! and APAN alike — under one protocol (same splits, same negative
//! sampler, same metrics, same cost accounting), which is what the
//! table/figure benches build on.

#![forbid(unsafe_code)]

pub mod deepwalk;
pub mod dyrep;
pub mod gat;
pub mod gcn;
pub mod heads;
pub mod jodie;
pub mod memory;
pub mod sage;
pub mod skipgram;
pub mod static_graph;
pub mod static_harness;
pub mod temporal_attention;
pub mod tgat;
pub mod tgn;
pub mod walks;
