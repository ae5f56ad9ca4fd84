//! # apan-metrics
//!
//! Evaluation metrics and latency statistics for the APAN reproduction.
//!
//! The paper reports: accuracy and average precision (AP) for link
//! prediction (Table 2, §4.2), ROC AUC for the label-skewed node/edge
//! classification tasks (Table 3), and per-batch inference latency
//! (Figure 6). This crate implements all of them plus the summary
//! statistics (mean / stddev over seeds) used in every table.
//!
//! It also hosts [`clock::Clock`], the injectable time source every
//! latency stamp and deadline in the serving stack runs on — real in
//! production, simulated under the deterministic test harness — and the
//! observability layer built on it: [`trace`] (lock-free log₂
//! histograms, stage spans, bounded trace rings) and [`registry`] (the
//! Prometheus-style exposition surface behind the daemon's `METRICS`
//! verb). Building with the `trace-off` feature compiles the span and
//! histogram recording paths down to nothing; the `trace_overhead`
//! bench uses that build as its baseline.

#![forbid(unsafe_code)]

pub mod classification;
pub mod clock;
pub mod latency;
pub mod registry;
pub mod summary;
pub mod threshold;
pub mod trace;

pub use classification::{accuracy, average_precision, roc_auc};
pub use clock::{Clock, VirtualClock};
pub use latency::{LatencyRecorder, LatencySummary};
pub use registry::{Counter, Registry};
pub use summary::MeanStd;
pub use threshold::{precision_at_k, Confusion};
pub use trace::{
    Histogram, HistogramSnapshot, ObsHub, Stage, TraceBuffer, TraceEvent, TraceSink, SPAN_KINDS,
    STAGES,
};
