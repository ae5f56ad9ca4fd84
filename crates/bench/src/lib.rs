//! # apan-bench
//!
//! Harnesses that regenerate every table and figure of the APAN paper.
//!
//! | Target | Paper artifact | Binary |
//! |---|---|---|
//! | Table 1 | dataset statistics | `cargo run -p apan-bench --release --bin table1` |
//! | Table 2 | link-prediction Acc/AP | `… --bin table2` |
//! | Table 3 | node/edge classification AUC | `… --bin table3` |
//! | Figure 6 | AP vs inference latency | `… --bin fig6` |
//! | Figure 7 | batch-size sensitivity | `… --bin fig7` |
//! | Figure 8 | neighbours × mailbox-slots grid | `… --bin fig8` |
//! | §3.6 ablations | design-choice ablations | `… --bin ablations` |
//! | supplementary | transductive vs inductive AP | `… --bin inductive` |
//!
//! `benches/` holds three guards, plain timed mains whose reports gate on
//! a correctness check: `tensor_ops` (`BENCH_tensor.json`),
//! `trace_overhead` (`BENCH_trace.json`) and `mailbox_tier`
//! (`BENCH_tier.json`). Beside them, `ablation` prints the operation-level
//! cost of each reduce / update / slot-encoding variant. Serving-layer
//! timings come from `apan-perf` (`benchmarks/perf/`).
//!
//! ## Scaling knobs (environment variables)
//!
//! The defaults are sized so every binary finishes in minutes on a laptop;
//! the paper's shapes (who wins, by what factor, where crossovers fall)
//! are stable under them. To push toward paper scale:
//!
//! * `APAN_SCALE` — dataset scale factor (default 0.01; 1.0 ≈ paper rows)
//! * `APAN_FEAT_DIM` — edge-feature width (default 48; paper: 172/101)
//! * `APAN_SEEDS` — random seeds per cell (default 2; paper: 10)
//! * `APAN_EPOCHS` — training epochs (default 4)
//! * `APAN_BATCH` — batch size (default 100; paper: 200)
//! * `APAN_NEIGHBORS` — sampled neighbours / mailbox slots (default 5)
//! * `APAN_OUT` — directory for JSON result dumps (default `bench-results`)

#![forbid(unsafe_code)]

pub mod env;
pub mod report;
pub mod zoo;

pub use env::BenchEnv;
pub use report::{time_ns, write_json, Cell, Json, Table, ToJson};
pub use zoo::{alipay_like, dynamic_zoo, reddit_like, wiki_like, ZooModel};
