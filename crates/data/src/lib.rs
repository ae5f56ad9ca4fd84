//! # apan-data
//!
//! Datasets for the APAN reproduction: synthetic temporal-interaction
//! generators calibrated to the statistics of the paper's three datasets
//! (Table 1), a loader for the real JODIE CSV format so downloaded
//! Wikipedia/Reddit data drops in unchanged, chronological train/val/test
//! splitting, dynamic negative sampling for link prediction, and dataset
//! statistics reporting.
//!
//! ## Why synthetic generators
//!
//! The public Wikipedia/Reddit datasets are not redistributable inside this
//! repository and the Alipay dataset is proprietary. The generators in
//! [`generators`] reproduce the structural properties the evaluated models
//! actually exploit:
//!
//! * **recency** — a user's next interaction partner is frequently one of
//!   its recent partners (`repeat_prob`), which is what mailbox/memory
//!   models capitalize on;
//! * **activity skew** — Zipf-distributed user/item activity, so some
//!   mailboxes churn fast and others are stale;
//! * **feature signal** — edge features are noisy projections of latent
//!   user/item affinity, so embeddings carry predictive information;
//! * **dynamic labels** — rare "state change" events (posting bans, fraud
//!   bursts) preceded by detectable behavioral drift, giving the
//!   node/edge classification tasks learnable but skewed labels.
//!
//! Every generator accepts a `scale` factor so benches run at laptop scale
//! while `--scale 1.0` approximates the paper's row counts.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod generators;
pub mod loader;
pub mod negative;
pub mod split;
pub mod stats;

pub use dataset::{LabelKind, TemporalDataset};
pub use generators::{alipay, reddit, wikipedia, GenConfig};
pub use negative::NegativeSampler;
pub use split::{ChronoSplit, SplitFractions};
pub use stats::DatasetStats;
