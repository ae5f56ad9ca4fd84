//! Property-based tests for the mailbox store: the FIFO ring buffer is
//! checked against a plain `VecDeque` reference model under arbitrary
//! operation sequences.

use apan_check::{check, Gen};
use apan_core::config::MailboxUpdate;
use apan_core::mailbox::{MailOrigin, MailboxStore};
use std::collections::VecDeque;

enum Op {
    Deliver { node: u8, value: f32 },
    Read { node: u8 },
}

fn op(g: &mut Gen) -> Op {
    let node = g.range(0u8..6);
    if g.bool() {
        Op::Deliver {
            node,
            value: g.range(-10.0f32..10.0),
        }
    } else {
        Op::Read { node }
    }
}

#[test]
fn fifo_matches_vecdeque_model() {
    check(128, |g| {
        let slots = g.range(1usize..6);
        let ops = g.vec(1..200, op);
        let dim = 3;
        let mut store = MailboxStore::new(6, slots, dim, MailboxUpdate::Fifo);
        let mut model: Vec<VecDeque<(f32, f64)>> = vec![VecDeque::new(); 6];
        let mut t = 0.0f64;

        for op in &ops {
            match op {
                Op::Deliver { node, value } => {
                    t += 1.0;
                    store.deliver(*node as u32, &[*value; 3], t, MailOrigin::default());
                    let q = &mut model[*node as usize];
                    if q.len() == slots {
                        q.pop_front();
                    }
                    q.push_back((*value, t));
                }
                Op::Read { node } => {
                    let got = store.mails_of(*node as u32);
                    let expect = &model[*node as usize];
                    assert_eq!(got.len(), expect.len());
                    for ((payload, time, _), (ev, et)) in got.iter().zip(expect.iter()) {
                        assert_eq!(payload[0], *ev);
                        assert_eq!(*time, *et);
                    }
                }
            }
        }

        // final invariants
        for node in 0..6u32 {
            assert!(store.len(node) <= slots);
            let mails = store.mails_of(node);
            // timestamps monotone oldest → newest
            assert!(mails.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    });
}

#[test]
fn read_batch_consistent_with_mails_of() {
    check(128, |g| {
        let deliveries = g.vec(0..60, |g| (g.range(0u8..4), g.range(-5.0f32..5.0)));
        let slots = 3;
        let mut store = MailboxStore::new(4, slots, 2, MailboxUpdate::Fifo);
        let mut t = 0.0;
        for (node, v) in &deliveries {
            t += 1.0;
            store.deliver(*node as u32, &[*v; 2], t, MailOrigin::default());
        }
        let nodes: Vec<u32> = (0..4).collect();
        let view = store.read_batch(&nodes, t + 1.0);
        for (bi, &node) in nodes.iter().enumerate() {
            let mails = store.mails_of(node);
            assert_eq!(view.lens[bi], mails.len());
            for (slot, (payload, time, _)) in mails.iter().enumerate() {
                let row = view.mails.row_slice(bi * slots + slot);
                assert_eq!(row, *payload);
                let age = view.ages[bi * slots + slot];
                assert!((age as f64 - (t + 1.0 - time)).abs() < 1e-6);
            }
            // padding rows are zero
            for slot in mails.len()..slots {
                assert!(view
                    .mails
                    .row_slice(bi * slots + slot)
                    .iter()
                    .all(|&v| v == 0.0));
            }
        }
    });
}

#[test]
fn overwrite_mode_keeps_exactly_last() {
    check(128, |g| {
        let deliveries = g.vec(1..30, |g| g.range(-5.0f32..5.0));
        let mut store = MailboxStore::new(1, 4, 2, MailboxUpdate::Overwrite);
        let mut t = 0.0;
        for v in &deliveries {
            t += 1.0;
            store.deliver(0, &[*v; 2], t, MailOrigin::default());
        }
        let mails = store.mails_of(0);
        assert_eq!(mails.len(), 1);
        assert_eq!(mails[0].0[0], *deliveries.last().unwrap());
    });
}
