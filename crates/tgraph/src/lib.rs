//! # apan-tgraph
//!
//! The temporal graph substrate for the APAN reproduction: an append-only
//! continuous-time interaction store with time-respecting neighbour
//! queries, the sampling strategies used by temporal GNNs, and explicit
//! per-query cost accounting.
//!
//! The APAN paper's central systems claim is about *who pays for k-hop
//! temporal neighbourhood queries at inference time*: synchronous CTDG
//! models (TGAT, TGN) must run them on the serving path, APAN moves them to
//! an asynchronous link. This crate therefore makes the cost of every query
//! explicit — [`cost::QueryCost`] counts rows touched and queries issued,
//! and [`cost::LatencyModel`] converts those counts into a simulated graph
//! database latency so benches can report both raw-compute and modelled
//! serving times.
//!
//! ## Example
//!
//! ```
//! use apan_tgraph::{TemporalGraph, cost::QueryCost, sampling::{Strategy, sample_neighbors}};
//!
//! let mut g = TemporalGraph::new();
//! g.insert(0, 1, 1.0);
//! g.insert(0, 2, 2.0);
//! g.insert(1, 2, 3.0);
//!
//! let mut cost = QueryCost::default();
//! let recent = sample_neighbors(&g, 0, 2.5, 10, Strategy::MostRecent, None, &mut cost);
//! assert_eq!(recent.len(), 2); // both interactions of node 0 precede t=2.5
//! assert!(cost.rows_touched > 0);
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod cost;
pub mod event;
pub mod sampling;
pub mod store;

pub use event::{Event, EventId, NodeId, Time};
pub use store::{AdjEntry, TemporalGraph};
