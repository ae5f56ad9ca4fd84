//! Time-respecting neighbour sampling.
//!
//! The paper adopts *most-recent* neighbour sampling for mail delivery
//! (§3.5, "Mail Delivery"), following TGN's finding that recency best
//! preserves time-variant information; uniform sampling is provided for
//! the baselines and for ablations.

use crate::cost::QueryCost;
use crate::event::{NodeId, Time};
use crate::store::{AdjEntry, TemporalGraph};
use rand::rngs::StdRng;
use rand::Rng;

/// Which temporal neighbours to keep when a node's history exceeds the
/// sampling budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The `n` interactions closest to (and strictly before) the query
    /// time. APAN's default.
    MostRecent,
    /// `n` interactions drawn uniformly without replacement from the full
    /// pre-`t` history.
    Uniform,
}

/// Samples up to `n` time-respecting neighbours of `node` strictly before
/// `t`. `rng` is required only for [`Strategy::Uniform`].
///
/// Cost accounting: the binary search over the node's history plus every
/// returned row counts toward `cost.rows_touched` (a database pays at
/// least the index probe and the transfer of returned rows).
pub fn sample_neighbors(
    graph: &TemporalGraph,
    node: NodeId,
    t: Time,
    n: usize,
    strategy: Strategy,
    rng: Option<&mut StdRng>,
    cost: &mut QueryCost,
) -> Vec<AdjEntry> {
    let end = graph.history_end(node, t);
    let history = &graph.neighbors(node)[..end];
    let probe = (history.len().max(1)).ilog2() as u64 + 1;
    let out: Vec<AdjEntry> = match strategy {
        Strategy::MostRecent => {
            let start = end.saturating_sub(n);
            history[start..].to_vec()
        }
        Strategy::Uniform => {
            if history.len() <= n {
                history.to_vec()
            } else {
                let rng = rng.expect("uniform sampling requires an rng");
                // Floyd's algorithm: sample n distinct indices.
                let mut chosen = Vec::with_capacity(n);
                let len = history.len();
                for j in len - n..len {
                    let idx = rng.gen_range(0..=j);
                    if chosen.contains(&idx) {
                        chosen.push(j);
                    } else {
                        chosen.push(idx);
                    }
                }
                chosen.sort_unstable();
                chosen.into_iter().map(|i| history[i]).collect()
            }
        }
    };
    cost.record_query(probe + out.len() as u64);
    out
}

/// One sampled edge within a k-hop expansion: `center` is the frontier
/// node whose neighbourhood produced it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampledEdge {
    /// The node whose history was queried.
    pub center: NodeId,
    /// The sampled temporal neighbour.
    pub entry: AdjEntry,
}

/// Expands `seeds` outward for `hops` levels, sampling up to `n_per_hop`
/// temporal neighbours (strictly before `t`) of every frontier node at each
/// level. Returns one `Vec<SampledEdge>` per hop level.
///
/// This is exactly the query pattern a synchronous CTDG model runs *before*
/// inference and APAN runs *after* it, so the same function (and the same
/// [`QueryCost`]) serves both sides of the comparison.
#[allow(clippy::too_many_arguments)]
pub fn sample_khop(
    graph: &TemporalGraph,
    seeds: &[NodeId],
    t: Time,
    n_per_hop: usize,
    hops: usize,
    strategy: Strategy,
    mut rng: Option<&mut StdRng>,
    cost: &mut QueryCost,
) -> Vec<Vec<SampledEdge>> {
    let mut layers = Vec::with_capacity(hops);
    let mut frontier: Vec<NodeId> = seeds.to_vec();
    for _ in 0..hops {
        cost.record_hop();
        let mut layer = Vec::new();
        let mut next_frontier = Vec::new();
        for &node in &frontier {
            let sampled = sample_neighbors(
                graph,
                node,
                t,
                n_per_hop,
                strategy,
                rng.as_deref_mut(),
                cost,
            );
            for entry in sampled {
                next_frontier.push(entry.neighbor);
                layer.push(SampledEdge {
                    center: node,
                    entry,
                });
            }
        }
        layers.push(layer);
        frontier = next_frontier;
        if frontier.is_empty() {
            // still emit (empty) remaining layers so callers can index by hop
            while layers.len() < hops {
                cost.record_hop();
                layers.push(Vec::new());
            }
            break;
        }
    }
    layers
}

/// Allocation-light k-hop expansion for mail *delivery*: appends every
/// sampled neighbour id (all hop levels, duplicates included, in the
/// same order [`sample_khop`] flattens to) onto `out`, using `out`
/// itself as the frontier between hops — no per-hop or per-query
/// allocation.
///
/// Restricted to [`Strategy::MostRecent`] (APAN's delivery strategy),
/// which needs no rng, so the call is reentrant: propagation planning
/// fans these out across threads against a read-locked graph.
/// `QueryCost` accounting is identical to `sample_khop`, so per-call
/// costs merged across a batch sum to exactly the serial totals.
pub fn sample_khop_targets(
    graph: &TemporalGraph,
    seeds: &[NodeId],
    t: Time,
    n_per_hop: usize,
    hops: usize,
    cost: &mut QueryCost,
    out: &mut Vec<NodeId>,
) {
    let mut prev_start = out.len();
    for hop in 0..hops {
        cost.record_hop();
        let prev_end = out.len();
        let frontier_len = if hop == 0 {
            seeds.len()
        } else {
            prev_end - prev_start
        };
        for f in 0..frontier_len {
            let node = if hop == 0 {
                seeds[f]
            } else {
                out[prev_start + f]
            };
            let end = graph.history_end(node, t);
            let probe = (end.max(1)).ilog2() as u64 + 1;
            let start = end.saturating_sub(n_per_hop);
            for entry in &graph.neighbors(node)[start..end] {
                out.push(entry.neighbor);
            }
            cost.record_query(probe + (end - start) as u64);
        }
        if out.len() == prev_end {
            // frontier went empty: account the remaining hop levels,
            // mirroring sample_khop's trailing empty layers
            for _ in hop + 1..hops {
                cost.record_hop();
            }
            break;
        }
        prev_start = prev_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn chain_graph() -> TemporalGraph {
        // 0-1 @1, 1-2 @2, 2-3 @3, 0-1 @4, 0-1 @5
        let mut g = TemporalGraph::new();
        g.insert(0, 1, 1.0);
        g.insert(1, 2, 2.0);
        g.insert(2, 3, 3.0);
        g.insert(0, 1, 4.0);
        g.insert(0, 1, 5.0);
        g
    }

    #[test]
    fn most_recent_takes_latest() {
        let g = chain_graph();
        let mut cost = QueryCost::new();
        let s = sample_neighbors(&g, 0, 10.0, 2, Strategy::MostRecent, None, &mut cost);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].time, 4.0);
        assert_eq!(s[1].time, 5.0);
    }

    #[test]
    fn never_returns_future_edges() {
        let g = chain_graph();
        let mut cost = QueryCost::new();
        for t in [0.5, 1.0, 2.5, 4.0, 100.0] {
            let s = sample_neighbors(&g, 1, t, 10, Strategy::MostRecent, None, &mut cost);
            assert!(s.iter().all(|e| e.time < t), "future edge at query t={t}");
        }
    }

    #[test]
    fn strictly_before_excludes_simultaneous() {
        let g = chain_graph();
        let mut cost = QueryCost::new();
        let s = sample_neighbors(&g, 0, 1.0, 10, Strategy::MostRecent, None, &mut cost);
        assert!(s.is_empty(), "t=1.0 event must not be visible at t=1.0");
    }

    #[test]
    fn uniform_subsamples_without_replacement() {
        let g = chain_graph();
        let mut rng = StdRng::seed_from_u64(0);
        let mut cost = QueryCost::new();
        let s = sample_neighbors(&g, 0, 10.0, 2, Strategy::Uniform, Some(&mut rng), &mut cost);
        assert_eq!(s.len(), 2);
        assert_ne!(s[0].eid, s[1].eid);
    }

    #[test]
    fn uniform_returns_all_when_budget_exceeds_history() {
        let g = chain_graph();
        let mut rng = StdRng::seed_from_u64(0);
        let mut cost = QueryCost::new();
        let s = sample_neighbors(
            &g,
            2,
            10.0,
            10,
            Strategy::Uniform,
            Some(&mut rng),
            &mut cost,
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn khop_layers_and_cost() {
        let g = chain_graph();
        let mut cost = QueryCost::new();
        let layers = sample_khop(&g, &[0], 10.0, 2, 2, Strategy::MostRecent, None, &mut cost);
        assert_eq!(layers.len(), 2);
        // hop 1: node 0's two most recent events (both to node 1)
        assert_eq!(layers[0].len(), 2);
        assert!(layers[0].iter().all(|e| e.center == 0));
        // hop 2: node 1's history queried twice (once per frontier copy)
        assert!(!layers[1].is_empty());
        assert_eq!(cost.hops, 2);
        assert!(cost.queries >= 3);
    }

    #[test]
    fn khop_two_hops_cost_more_than_one() {
        let g = chain_graph();
        let mut c1 = QueryCost::new();
        let mut c2 = QueryCost::new();
        sample_khop(
            &g,
            &[0, 1, 2],
            10.0,
            2,
            1,
            Strategy::MostRecent,
            None,
            &mut c1,
        );
        sample_khop(
            &g,
            &[0, 1, 2],
            10.0,
            2,
            2,
            Strategy::MostRecent,
            None,
            &mut c2,
        );
        assert!(c2.rows_touched > c1.rows_touched);
        assert!(c2.queries > c1.queries);
    }

    #[test]
    fn khop_targets_match_khop_flatten_and_cost() {
        let g = chain_graph();
        for (seeds, hops, n) in [
            (vec![0u32], 2usize, 2usize),
            (vec![0, 1], 3, 1),
            (vec![9, 0], 2, 10), // 9 has no history
            (vec![], 2, 2),
            (vec![3], 1, 0),
        ] {
            let mut c_ref = QueryCost::new();
            let layers = sample_khop(
                &g,
                &seeds,
                10.0,
                n,
                hops,
                Strategy::MostRecent,
                None,
                &mut c_ref,
            );
            let flat: Vec<NodeId> = layers
                .iter()
                .flat_map(|l| l.iter().map(|e| e.entry.neighbor))
                .collect();
            let mut c_new = QueryCost::new();
            let mut out = vec![7u32]; // pre-existing content must survive
            sample_khop_targets(&g, &seeds, 10.0, n, hops, &mut c_new, &mut out);
            assert_eq!(&out[..1], &[7]);
            assert_eq!(&out[1..], &flat[..], "seeds {seeds:?}");
            assert_eq!(c_new, c_ref, "seeds {seeds:?}");
        }
    }

    #[test]
    fn khop_handles_isolated_seed() {
        let mut g = chain_graph();
        g.ensure_node(9);
        let mut cost = QueryCost::new();
        let layers = sample_khop(&g, &[9], 10.0, 3, 2, Strategy::MostRecent, None, &mut cost);
        assert_eq!(layers.len(), 2);
        assert!(layers.iter().all(Vec::is_empty));
    }
}
