//! Tiered mailbox store under memory pressure: delivery throughput and
//! residency when the hot-RAM budget covers only a fraction of the
//! working set.
//!
//! A Zipf-skewed delivery stream (rank 0 hottest — the access pattern
//! tiering is designed for) runs through [`ShardedMailboxStore`] at
//! three budgets: **all-resident** (no tiering), **50%** and **10%** of
//! the working set's tier-codec bytes. Before any timing counts, every
//! budgeted run is gated on being **bitwise identical** to the
//! all-resident store — tiering may move bytes, never change them — and
//! on the store-accounted residency staying within the budget's
//! hot-pool capacity. Running the bench writes `BENCH_tier.json` (to
//! `APAN_OUT`, default `bench-results/`) with ops/sec, residency,
//! cold-tier counters, and the process RSS high-water mark per phase.

use apan_bench::{json_fields, write_json, BenchEnv, Json, ToJson};
use apan_core::config::MailboxUpdate;
use apan_core::mailbox::{MailOrigin, MailboxStore};
use apan_core::shard::ShardedMailboxStore;
use std::hint::black_box;

// Geometry sized so the working set (~4.5 MB) dwarfs every hot-pool
// budget under test; skew 2.0 concentrates ~99.7% of deliveries on the
// hottest ~200 ranks (so a 10% budget serves almost every op from RAM)
// while 2M draws still touch well past half the node range (so both
// budgeted phases genuinely evict).
const NODES: usize = 2_048;
const SLOTS: usize = 10;
const DIM: usize = 48;
const SHARDS: usize = 8;
const OPS: usize = 2_000_000;
const ZIPF_S: f64 = 2.0;

/// splitmix64 — deterministic stream without an RNG dependency here.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// One delivery op of the skewed stream: target node + payload seed.
struct DeliverOp {
    node: u32,
    value: f32,
}

/// The full workload, precomputed once so every phase (and the oracle)
/// replays the identical stream.
fn skewed_stream() -> Vec<DeliverOp> {
    // Zipf(S) cumulative weights over NODES ranks, inverted by binary
    // search on 53 uniform bits
    let mut acc = 0.0f64;
    let mut cdf: Vec<f64> = (0..NODES)
        .map(|rank| {
            acc += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    let mut mix = Mix(0x7157);
    (0..OPS)
        .map(|_| {
            let u = (mix.next() >> 11) as f64 / (1u64 << 53) as f64;
            let rank = cdf.partition_point(|&c| c <= u).min(NODES - 1);
            DeliverOp {
                node: rank as u32,
                value: (mix.next() % 1000) as f32 / 1000.0 - 0.5,
            }
        })
        .collect()
}

fn run_stream(store: &ShardedMailboxStore, ops: &[DeliverOp]) -> usize {
    let mut mail = [0.0f32; DIM];
    for (i, op) in ops.iter().enumerate() {
        for (j, m) in mail.iter_mut().enumerate() {
            *m = op.value + j as f32 * 0.01;
        }
        let origin = MailOrigin {
            src: op.node,
            dst: op.node.wrapping_add(1),
            eid: i as u32,
        };
        store
            .sync_view()
            .deliver(op.node, &mail, (i + 1) as f64, origin);
    }
    ops.len()
}

fn fresh_tiered(budget: Option<u64>) -> ShardedMailboxStore {
    ShardedMailboxStore::from_flat_tiered(
        &MailboxStore::new(NODES, SLOTS, DIM, MailboxUpdate::Fifo),
        SHARDS,
        budget,
        None,
    )
    .expect("open cold tier")
}

fn per_node_bytes() -> u64 {
    MailboxStore::node_payload_bytes(SLOTS, DIM) as u64
}

fn working_set_bytes() -> u64 {
    per_node_bytes() * NODES as u64
}

/// The hot-pool mailbox capacity a budget buys across all shards —
/// the same arithmetic the store applies per shard.
fn hot_capacity(budget: u64) -> u64 {
    ((budget / per_node_bytes()) / SHARDS as u64).max(1) * SHARDS as u64
}

/// A `Vm…` field (kB) from `/proc/self/status`; 0 where unavailable.
fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .strip_prefix(':')?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

fn snapshot_bytes(store: &MailboxStore) -> Vec<u8> {
    let mut out = Vec::new();
    store.write_snapshot(&mut out).expect("snapshot to memory");
    out
}

/// The budget axis: label + bytes (`None` = tiering off).
fn phases() -> [(&'static str, Option<u64>); 3] {
    let ws = working_set_bytes();
    [
        ("all_resident", None),
        ("budget_50pct", Some(ws / 2)),
        ("budget_10pct", Some(ws / 10)),
    ]
}

struct TierPhase {
    phase: String,
    budget_bytes: Option<u64>,
    /// Hot mailboxes the budget admits (= NODES when unbudgeted).
    hot_capacity: u64,
    ops_per_sec: f64,
    /// Throughput relative to the all-resident phase (1.0 for it).
    throughput_vs_resident: f64,
    /// Store-accounted mailboxes resident after the stream.
    resident_mailboxes: u64,
    /// Exact hot-tier bytes those mailboxes occupy (`resident ×
    /// per_node_bytes`) — the store-level number the budget bounds,
    /// independent of allocator/process noise.
    resident_bytes: u64,
    evictions: u64,
    promotions: u64,
    cold_bytes: u64,
    /// Current process RSS (kB) sampled while this phase's store is
    /// still alive — phases run largest-budget-first, so each sample
    /// reflects its own store plus the fixed harness overhead (stream
    /// buffer, binary), not a bigger earlier phase.
    vm_rss_kb: u64,
    /// Process peak RSS (kB) after this phase — cumulative (the kernel
    /// high-water mark never falls), informational only.
    max_rss_kb: u64,
}

impl ToJson for TierPhase {
    fn to_json(&self) -> Json {
        json_fields!(self; phase, budget_bytes, hot_capacity, ops_per_sec,
            throughput_vs_resident, resident_mailboxes, resident_bytes, evictions,
            promotions, cold_bytes, vm_rss_kb, max_rss_kb)
    }
}

struct TierReport {
    bench: &'static str,
    nodes: usize,
    slots: usize,
    dim: usize,
    shards: usize,
    ops: usize,
    zipf_s: f64,
    per_node_bytes: u64,
    working_set_bytes: u64,
    /// Nodes the stream actually touches — every budgeted phase's hot
    /// capacity is asserted below this, so "must evict" is meaningful.
    distinct_nodes_touched: u64,
    phases: Vec<TierPhase>,
}

impl ToJson for TierReport {
    fn to_json(&self) -> Json {
        json_fields!(self; bench, nodes, slots, dim, shards, ops, zipf_s, per_node_bytes,
            working_set_bytes, distinct_nodes_touched, phases)
    }
}

fn write_report() {
    let ops = skewed_stream();
    let distinct = {
        let mut seen = vec![false; NODES];
        for op in &ops {
            seen[op.node as usize] = true;
        }
        seen.iter().filter(|&&b| b).count() as u64
    };

    // the all-resident oracle: one pass, frozen snapshot
    let ref_snap = {
        let oracle = fresh_tiered(None);
        run_stream(&oracle, &ops);
        snapshot_bytes(&oracle.to_flat())
    };

    // Timing first, with the phases' iterations *interleaved* — every
    // round times each budget back-to-back, so machine noise (frequency
    // shifts, sibling load) lands on all phases alike instead of biasing
    // whichever phase owned that stretch of wall-clock. Best-of-rounds
    // per phase.
    let rounds = 5usize;
    let mut best_ns = [f64::INFINITY; 3];
    for _ in 0..rounds {
        for (i, (_, budget)) in phases().into_iter().enumerate() {
            let store = fresh_tiered(budget);
            let start = std::time::Instant::now();
            black_box(run_stream(&store, &ops));
            best_ns[i] = best_ns[i].min(start.elapsed().as_nanos() as f64);
        }
    }
    let resident_ops_per_sec = OPS as f64 / (best_ns[0] * 1e-9);

    let mut phases_out = Vec::new();
    for (i, (label, budget)) in phases().into_iter().enumerate() {
        // correctness gates: the budgeted stream must land on the
        // all-resident bits, and residency must respect the budget
        let store = fresh_tiered(budget);
        run_stream(&store, &ops);
        assert_eq!(
            snapshot_bytes(&store.to_flat()),
            ref_snap,
            "{label}: tiered stream diverged from the all-resident store"
        );
        let stats = store.tier_stats();
        let resident = stats.resident.load(std::sync::atomic::Ordering::Relaxed);
        let cap = budget.map_or(NODES as u64, hot_capacity);
        if let Some(b) = budget {
            assert!(
                cap < distinct,
                "{label}: hot capacity {cap} admits the whole touched set \
                 ({distinct} nodes) — the workload no longer exercises eviction"
            );
            assert!(
                resident <= cap,
                "{label}: {resident} resident mailboxes exceed the budget's \
                 hot capacity {cap} (budget {b} bytes)"
            );
            assert!(
                stats.evictions.load(std::sync::atomic::Ordering::Relaxed) > 0,
                "{label}: a sub-working-set budget must evict"
            );
        }

        let ops_per_sec = OPS as f64 / (best_ns[i] * 1e-9);
        phases_out.push(TierPhase {
            phase: label.into(),
            budget_bytes: budget,
            hot_capacity: cap,
            ops_per_sec,
            throughput_vs_resident: ops_per_sec / resident_ops_per_sec,
            resident_mailboxes: resident,
            resident_bytes: resident * per_node_bytes(),
            evictions: stats.evictions.load(std::sync::atomic::Ordering::Relaxed),
            promotions: stats.promotions.load(std::sync::atomic::Ordering::Relaxed),
            cold_bytes: stats.cold_bytes.load(std::sync::atomic::Ordering::Relaxed),
            // sampled while `store` (this phase's residency) is live
            vm_rss_kb: proc_status_kb("VmRSS"),
            max_rss_kb: proc_status_kb("VmHWM"),
        });
    }

    let report = TierReport {
        bench: "mailbox_tier",
        nodes: NODES,
        slots: SLOTS,
        dim: DIM,
        shards: SHARDS,
        ops: OPS,
        zipf_s: ZIPF_S,
        per_node_bytes: per_node_bytes(),
        working_set_bytes: working_set_bytes(),
        distinct_nodes_touched: distinct,
        phases: phases_out,
    };
    let path = BenchEnv::from_env().out_dir.join("BENCH_tier.json");
    if let Err(e) = write_json(&path, &report) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

fn main() {
    write_report();
}
