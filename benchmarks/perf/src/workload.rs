//! The four workloads, the shared model, and the daemon configuration.

use apan_core::config::ApanConfig;
use apan_core::model::Apan;
use apan_core::MailboxStore;
use apan_serve::{ClusterMembership, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// Node-id universe of every workload.
pub const NODES: u32 = 10_000;
/// Edge-feature / embedding width (the paper's Wikipedia/Reddit shape).
pub const DIM: usize = 172;
/// Model weights never depend on `--seed`.
pub const WEIGHT_SEED: u64 = 42;
/// Events replayed into a fresh system before anything is measured.
pub const WARMUP_EVENTS: usize = 10_000;
/// Interactions per warm-up request.
pub const WARMUP_BATCH: usize = 32;
/// Lockstep requests the verify phase checks against the serial oracle.
pub const VERIFY_REQUESTS: usize = 256;
/// Outstanding requests held by the closed-loop saturation phase, so
/// the micro-batcher can form batches.
pub const SATURATION_WINDOW: usize = 64;
/// Trace ring capacity in traced runs (`ServeConfig::default()`'s).
pub const TRACE_BUFFER: usize = 8192;

/// Out-of-order event times at the source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LateProfile {
    /// The daemon's bounded-lateness window, in event-time units (one
    /// unit per generated event).
    pub lateness: f64,
    /// Percent of events skewed back but still inside the window.
    pub late_pct: u64,
    /// Percent of events skewed back beyond the window (scored
    /// read-only, dropped from serving state).
    pub drop_pct: u64,
}

/// What the request generator needs. Two workloads with equal shapes
/// get byte-identical request streams for a given seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shape {
    /// Interactions per request.
    pub per_request: usize,
    /// `Some((s, n))`: endpoints drawn Zipf(s) over an `n`-node working
    /// set; `None`: uniform over all [`NODES`].
    pub zipf: Option<(f64, u32)>,
    /// Explicit, partly out-of-order event times; `None` leaves times
    /// unset so the daemon assigns them from arrival order.
    pub late: Option<LateProfile>,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One-line reason the workload exists (`BENCHMARK.json`'s `why`).
    pub why: &'static str,
    pub shape: Shape,
    /// 1 = one daemon; n > 1 = gateway in front of n full-replica shards.
    pub shards: usize,
    /// Resident mailbox budget as a share of the all-resident state.
    pub budget_fraction: Option<f64>,
    /// Open-loop request rate `R`: a third to a half of the rate at
    /// which the seed commit saturates (its propagation backlog starts
    /// to grow or its closed-loop throughput is reached, whichever comes
    /// first), two significant digits, never recalibrated (see README).
    pub rate_rps: f64,
}

const UNIFORM_SINGLE: Shape = Shape {
    per_request: 1,
    zipf: None,
    late: None,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-uniform",
        why: "1 event/request, uniform nodes: socket, batcher, mailbox read and encoder GEMMs dominate; propagation is light",
        shape: UNIFORM_SINGLE,
        shards: 1,
        budget_fraction: None,
        rate_rps: 850.0,
    },
    Workload {
        name: "prop-zipf",
        why: "32 events/request, Zipf(1.1) over 2000 nodes: hub fan-outs make sampling, plan and deliver dominate; sync cost is amortised by node dedup",
        shape: Shape {
            per_request: 32,
            zipf: Some((1.1, 2_000)),
            late: None,
        },
        shards: 1,
        budget_fraction: None,
        rate_rps: 250.0,
    },
    Workload {
        name: "cluster-3shard",
        why: "serve-uniform's exact stream through a gateway and 3 full-replica shards: adds route hop, gseq turnstile, DELIVER replication, 3x apply",
        shape: UNIFORM_SINGLE,
        shards: 3,
        budget_fraction: None,
        rate_rps: 850.0,
    },
    Workload {
        name: "tiered-late",
        why: "8 events/request, Zipf(1.1) over all nodes, 10% mailbox budget, 10% late and 2% too-late events: promote/cold-read, eviction and patch_late paths",
        shape: Shape {
            per_request: 8,
            zipf: Some((1.1, NODES)),
            late: Some(LateProfile {
                lateness: 64.0,
                late_pct: 10,
                drop_pct: 2,
            }),
        },
        shards: 1,
        budget_fraction: Some(0.10),
        rate_rps: 100.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The paper-shape model — 10 mailbox slots, 10 sampled neighbours,
    /// 2 hops, 2 heads, MLP 80, f32, no dropout — with weights from the
    /// fixed seed. `spill` is where a budgeted store keeps its cold
    /// segments.
    pub fn model(&self, spill: Option<&Path>) -> Apan {
        let mut cfg = ApanConfig::new(DIM);
        cfg.dropout = 0.0;
        if let Some(fraction) = self.budget_fraction {
            let all = MailboxStore::node_payload_bytes(cfg.mailbox_slots, DIM) * NODES as usize;
            cfg.mailbox_budget = Some((all as f64 * fraction) as u64);
            cfg.mailbox_spill = spill.map(Path::to_path_buf);
        }
        Apan::new(&cfg, &mut StdRng::seed_from_u64(WEIGHT_SEED))
    }

    /// `ServeConfig::default()` sized to the node universe. `shard` is
    /// `Some((id, n))` for a cluster member.
    pub fn serve_config(
        &self,
        traced: bool,
        snapshot: Option<&Path>,
        shard: Option<(usize, usize)>,
    ) -> ServeConfig {
        ServeConfig {
            num_nodes: NODES as usize,
            max_node: NODES - 1,
            lateness: self.shape.late.map(|l| l.lateness),
            trace_buffer: if traced { TRACE_BUFFER } else { 0 },
            snapshot_path: snapshot.map(Path::to_path_buf),
            cluster: shard.map(|(id, n)| ClusterMembership::new(id, n)),
            ..ServeConfig::default()
        }
    }
}
