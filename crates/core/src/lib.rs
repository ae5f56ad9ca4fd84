//! # apan-core
//!
//! The paper's contribution: **APAN — Asynchronous Propagation Attention
//! Network** for real-time temporal graph embedding (Wang et al., SIGMOD
//! 2021).
//!
//! APAN splits a continuous-time dynamic-graph model into two links:
//!
//! * the **synchronous inference link** ([`encoder`], [`decoder`]): when an
//!   interaction arrives, an attention encoder reads only node-local state
//!   — the last updated embedding `z(t−)` and a fixed-size [`mailbox`] —
//!   and produces the new embedding; an MLP decoder serves the downstream
//!   prediction. *No graph query happens on this path*, which is why
//!   inference latency is flat in the number of message-passing layers
//!   (Fig. 6).
//! * the **asynchronous propagation link** ([`propagator`], [`pipeline`]):
//!   after inference, a *mail* summarizing the interaction
//!   (`z_i(t) + e_ij(t) + z_j(t)`, Eq. 6) is delivered to the k-hop
//!   temporal neighbours' mailboxes (most-recent sampling), mean-reduced
//!   per receiving node, and enqueued FIFO.
//!
//! [`model`] ties the pieces into the full [`model::Apan`] network,
//! [`train`] is the one training/evaluation protocol APAN and every
//! baseline run under (link prediction with time-varying negative
//! sampling, node/edge classification, inference latency), and
//! [`pipeline`] is the real-time serving deployment:
//! a synchronous inference path plus a background propagation worker
//! connected by a channel, exactly the architecture of Fig. 2(b). Its
//! synchronous path runs the encoder and decoder through a compiled
//! [`plan::InferencePlan`] instead of the autodiff tape; the tape serves
//! training and replay and is the plan's bitwise oracle.
//!
//! ## Quick start
//!
//! ```no_run
//! use apan_core::{config::ApanConfig, train};
//! use apan_data::{generators::wikipedia, split::{ChronoSplit, SplitFractions}};
//! use rand::SeedableRng;
//!
//! let data = wikipedia(0.01, 0);
//! let split = ChronoSplit::new(&data, SplitFractions::paper_default());
//! let cfg = ApanConfig::for_dataset(&data);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut apan = train::ApanDyn::new(&cfg, &mut rng);
//! let out = train::train_link_prediction(
//!     &mut apan, &data, &split, &train::TrainConfig::default(), &mut rng);
//! println!("test AP = {:.4}", out.test_ap);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod decoder;
pub mod encoder;
pub mod interpret;
mod lateness;
mod link;
pub mod mail;
pub mod mailbox;
pub mod model;
pub mod pipeline;
pub mod plan;
pub mod propagator;
pub mod shard;
pub mod tier;
pub mod train;
pub mod wire;

pub use config::ApanConfig;
pub use lateness::AdmitKind;
pub use mailbox::MailboxStore;
pub use model::Apan;
