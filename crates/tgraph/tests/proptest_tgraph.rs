//! Property-based tests for the temporal graph store and sampling:
//! time-respecting invariants that every CTDG component relies on.

use apan_check::{check, Gen};
use apan_tgraph::cost::QueryCost;
use apan_tgraph::sampling::{sample_khop, sample_neighbors, Strategy as SamplingStrategy};
use apan_tgraph::TemporalGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random time-ordered event streams.
fn stream(g: &mut Gen) -> Vec<(u32, u32, f64)> {
    // cumulative times keep the stream ordered
    let mut t = 0.0;
    g.vec(1..120, |g| {
        let (src, dst) = (g.range(0u32..20), g.range(0u32..20));
        t += g.range(0.0f64..1.0) + 1e-6;
        (src, dst, t)
    })
}

fn build(stream: &[(u32, u32, f64)]) -> TemporalGraph {
    let mut g = TemporalGraph::new();
    for &(a, b, t) in stream {
        g.insert(a, b, t);
    }
    g
}

#[test]
fn adjacency_always_time_sorted() {
    check(64, |g| {
        let g = build(&stream(g));
        for n in 0..g.num_nodes() as u32 {
            let adj = g.neighbors(n);
            assert!(adj.windows(2).all(|w| w[0].time <= w[1].time));
        }
    });
}

#[test]
fn every_event_indexed_from_both_sides() {
    check(64, |g| {
        let g = build(&stream(g));
        for e in g.events() {
            assert!(g.neighbors(e.src).iter().any(|a| a.eid == e.eid));
            assert!(g.neighbors(e.dst).iter().any(|a| a.eid == e.eid));
        }
    });
}

#[test]
fn sampler_never_returns_future() {
    check(64, |g| {
        let (tq, n) = (g.range(0.0f64..200.0), g.range(1usize..8));
        let g = build(&stream(g));
        let mut cost = QueryCost::new();
        for node in 0..g.num_nodes() as u32 {
            let s = sample_neighbors(
                &g,
                node,
                tq,
                n,
                SamplingStrategy::MostRecent,
                None,
                &mut cost,
            );
            assert!(s.iter().all(|e| e.time < tq));
            assert!(s.len() <= n);
        }
    });
}

#[test]
fn most_recent_takes_suffix() {
    check(64, |g| {
        let n = g.range(1usize..6);
        let g = build(&stream(g));
        let mut cost = QueryCost::new();
        let t = g.max_time() + 1.0;
        for node in 0..g.num_nodes() as u32 {
            let s = sample_neighbors(
                &g,
                node,
                t,
                n,
                SamplingStrategy::MostRecent,
                None,
                &mut cost,
            );
            let full = g.history_before(node, t);
            let expect = &full[full.len().saturating_sub(n)..];
            assert_eq!(s.as_slice(), expect);
        }
    });
}

#[test]
fn uniform_is_subset_of_history() {
    check(64, |g| {
        let mut rng = StdRng::seed_from_u64(g.range(0u64..50));
        let g = build(&stream(g));
        let mut cost = QueryCost::new();
        let t = g.max_time() + 1.0;
        for node in (0..g.num_nodes() as u32).take(5) {
            let s = sample_neighbors(
                &g,
                node,
                t,
                3,
                SamplingStrategy::Uniform,
                Some(&mut rng),
                &mut cost,
            );
            let full = g.history_before(node, t);
            // every sampled entry appears in the true history, and ids unique
            for e in &s {
                assert!(full.contains(e));
            }
            let mut eids: Vec<u32> = s.iter().map(|e| e.eid).collect();
            eids.sort_unstable();
            eids.dedup();
            assert_eq!(eids.len(), s.len());
        }
    });
}

#[test]
fn khop_cost_monotone_in_hops() {
    check(64, |g| {
        let g = build(&stream(g));
        let seeds: Vec<u32> = (0..g.num_nodes().min(4) as u32).collect();
        let t = g.max_time() + 1.0;
        let mut prev_rows = 0;
        for hops in 1..=3 {
            let mut cost = QueryCost::new();
            sample_khop(
                &g,
                &seeds,
                t,
                3,
                hops,
                SamplingStrategy::MostRecent,
                None,
                &mut cost,
            );
            assert!(cost.rows_touched >= prev_rows);
            assert_eq!(cost.hops, hops as u64);
            prev_rows = cost.rows_touched;
        }
    });
}

#[test]
fn history_end_is_partition_point() {
    check(64, |g| {
        let tq = g.range(0.0f64..200.0);
        let g = build(&stream(g));
        for node in 0..g.num_nodes() as u32 {
            let end = g.history_end(node, tq);
            let adj = g.neighbors(node);
            assert!(adj[..end].iter().all(|e| e.time < tq));
            assert!(adj[end..].iter().all(|e| e.time >= tq));
        }
    });
}
