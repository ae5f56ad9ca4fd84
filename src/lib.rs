//! # apan-repro
//!
//! Umbrella crate for the APAN reproduction (Wang et al., *APAN:
//! Asynchronous Propagation Attention Network for Real-time Temporal
//! Graph Embedding*, SIGMOD 2021). Re-exports the workspace crates so the
//! examples and integration tests have a single import surface:
//!
//! * [`tensor`] — dense tensors + tape autodiff
//! * [`nn`] — layers, optimizers
//! * [`tgraph`] — temporal graph store, sampling, query-cost accounting
//! * [`data`] — synthetic datasets, JODIE CSV loader, splits
//! * [`core`] — APAN itself (mailbox, propagator, encoder, pipeline)
//! * [`baselines`] — JODIE, DyRep, TGAT, TGN + static baselines
//! * [`metrics`] — AP, AUC, accuracy, latency statistics
//! * [`serve`] — networked serving daemon (`apand`), protocol, client
//!
//! See `examples/quickstart.rs` for the five-minute tour and DESIGN.md /
//! EXPERIMENTS.md for the paper-reproduction map.

#![forbid(unsafe_code)]

pub use apan_baselines as baselines;
pub use apan_core as core;
pub use apan_data as data;
pub use apan_metrics as metrics;
pub use apan_nn as nn;
pub use apan_serve as serve;
pub use apan_tensor as tensor;
pub use apan_tgraph as tgraph;
