//! Property-based determinism gate for the tiered mailbox store: under
//! arbitrary operation sequences × mailbox update modes × hot-tier
//! budgets × shard counts, the tiered [`ShardedMailboxStore`] must stay
//! **bitwise identical** to a serial all-resident [`MailboxStore`]
//! oracle — both in every read surface and in the exported snapshot.
//! Tiering is a pure residency transform; budget `Some(0)` (everything
//! spills through the cold tier) and a huge budget (nothing ever
//! evicts) must be indistinguishable from today's in-RAM store.

use apan_check::{check, Gen};
use apan_core::config::MailboxUpdate;
use apan_core::mailbox::{MailOrigin, MailboxStore};
use apan_core::shard::ShardedMailboxStore;
use apan_tensor::Tensor;

const NODES: u32 = 24;
const SLOTS: usize = 3;
const DIM: usize = 4;

enum Op {
    /// Commit-path delivery (grows the store like `ensure_node`).
    Deliver { node: u32, value: f32 },
    /// Late splice into an already-committed mailbox.
    PatchLate { node: u32, value: f32, back: u8 },
    /// Synchronous-path embedding write-back.
    SetEmbedding { node: u32, value: f32 },
    /// Mid-stream read: views must match the oracle *and* leave the
    /// subsequent stream unchanged (reads may migrate residency but
    /// never bits).
    Read { node: u32 },
}

fn op(g: &mut Gen) -> Op {
    let node = g.range(0..NODES);
    match g.range(0u8..4) {
        0 => Op::Deliver {
            node,
            value: g.range(-8.0f32..8.0),
        },
        1 => Op::PatchLate {
            node,
            value: g.range(-8.0f32..8.0),
            back: g.range(0u8..4),
        },
        2 => Op::SetEmbedding {
            node,
            value: g.range(-8.0f32..8.0),
        },
        _ => Op::Read { node },
    }
}

const UPDATES: [MailboxUpdate; 3] = [
    MailboxUpdate::Fifo,
    MailboxUpdate::Overwrite,
    MailboxUpdate::ContentAddressed,
];

/// The budget axis: `None` disables tiering entirely (pure delegation),
/// `Some(0)` clamps every shard's hot pool to one mailbox (maximum
/// churn through the cold tier), the small budget forces partial
/// residency, and the huge budget admits the whole working set.
const BUDGETS: [Option<u64>; 4] = [None, Some(0), Some(2_048), Some(1 << 30)];

fn mail(value: f32) -> [f32; DIM] {
    [value, -value, 0.5 * value, 1.0]
}

fn origin(node: u32, tick: u32) -> MailOrigin {
    MailOrigin {
        src: node,
        dst: node.wrapping_add(1),
        eid: tick,
    }
}

fn snapshot_bytes(s: &MailboxStore) -> Vec<u8> {
    let mut buf = Vec::new();
    s.write_snapshot(&mut buf).unwrap();
    buf
}

#[test]
fn tiered_store_is_bitwise_equal_to_the_all_resident_oracle() {
    check(96, |g| {
        let update = g.pick(&UPDATES);
        let budget = g.pick(&BUDGETS);
        let num_shards = g.range(1usize..5);
        let ops = g.vec(1..120, op);
        let mut oracle = MailboxStore::new(1, SLOTS, DIM, update);
        let tiered = ShardedMailboxStore::from_flat_tiered(
            &MailboxStore::new(1, SLOTS, DIM, update),
            num_shards,
            budget,
            None,
        )
        .expect("open cold tier");

        let mut t = 0.0f64;
        for (tick, op) in ops.iter().enumerate() {
            let tick = tick as u32;
            match op {
                Op::Deliver { node, value } => {
                    t += 1.0;
                    let m = mail(*value);
                    let o = origin(*node, tick);
                    oracle.deliver(*node, &m, t, o);
                    tiered.sync_view().deliver(*node, &m, t, o);
                }
                Op::PatchLate { node, value, back } => {
                    // a late time inside the already-committed range
                    let late_t = (t - f64::from(*back)).max(0.0);
                    let m = mail(*value);
                    let o = origin(*node, tick);
                    oracle.patch_late(*node, &m, late_t, o);
                    tiered.sync_view().patch_late(*node, &m, late_t, o);
                }
                Op::SetEmbedding { node, value } => {
                    t += 1.0;
                    let row: Vec<f32> = (0..DIM).map(|i| value + i as f32).collect();
                    let z = Tensor::from_rows(&[&row]);
                    oracle.set_embeddings(&[*node], &z, t);
                    tiered.sync_view().set_embeddings(&[*node], &z, t);
                }
                Op::Read { node } => {
                    // batch views (the serving encoder's read surface)
                    let guard = tiered.sync_view();
                    let want = oracle.read_batch(&[*node], t + 1.0);
                    let got = guard.read_batch(&[*node], t + 1.0);
                    assert_eq!(&got.lens, &want.lens);
                    assert_eq!(got.mails.data(), want.mails.data());
                    assert_eq!(&got.ages, &want.ages);
                    let ze = guard.embedding_batch(&[*node]);
                    let zw = oracle.embedding_batch(&[*node]);
                    assert_eq!(ze.data(), zw.data());
                    // inspection views (must not disturb the stream);
                    // an ungrown node reads as empty on both stores,
                    // but the flat accessors only accept grown ids
                    if (*node as usize) < oracle.num_nodes() {
                        assert_eq!(guard.len(*node), oracle.len(*node));
                        assert_eq!(guard.last_update(*node), oracle.last_update(*node));
                        let got = guard.mails_of(*node);
                        let want = oracle.mails_of(*node);
                        assert_eq!(got.len(), want.len());
                        for ((gp, gt, go), (wp, wt, wo)) in got.iter().zip(want.iter()) {
                            assert_eq!(&gp[..], &wp[..]);
                            assert_eq!(gt, wt);
                            assert_eq!(go, wo);
                        }
                    } else {
                        assert_eq!(guard.len(*node), 0);
                        assert_eq!(guard.last_update(*node), 0.0);
                        assert!(guard.mails_of(*node).is_empty());
                    }
                }
            }
        }

        // the exported checkpoint is bitwise the oracle's, twice over —
        // exporting force-flushes the cold tier but must not change bits
        // or observable state
        let want = snapshot_bytes(&oracle);
        assert_eq!(&snapshot_bytes(&tiered.to_flat()), &want);
        assert_eq!(&snapshot_bytes(&tiered.to_flat()), &want);

        // re-opening the exported state under a *different* budget and
        // shard count still reproduces the same snapshot (warm-restart
        // determinism does not depend on the tier geometry)
        let reopened = ShardedMailboxStore::from_flat_tiered(
            &tiered.to_flat(),
            num_shards % 4 + 1,
            Some(0),
            None,
        )
        .expect("reopen cold tier");
        assert_eq!(&snapshot_bytes(&reopened.to_flat()), &want);
    });
}
