//! Query cost accounting and the graph-database latency model.
//!
//! The paper's Figure 6 measures "the time from the interaction occurring
//! to the model inference" — for synchronous CTDG models that interval is
//! dominated by k-hop temporal neighbourhood queries against a production
//! graph database. We cannot ship Alipay's graph database, so we do the
//! honest equivalent: count exactly what each model asks of the store
//! ([`QueryCost`]) and convert counts to time with a configurable
//! [`LatencyModel`]. Benches report both raw compute time and modelled
//! database time so the reader can separate the two effects.

use std::ops::AddAssign;
use std::time::Duration;

/// Counters describing the work one or more temporal queries performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Number of distinct neighbour-list queries issued.
    pub queries: u64,
    /// Adjacency rows read (scanned or returned) across all queries.
    pub rows_touched: u64,
    /// Graph hops traversed (a 2-hop expansion of one seed counts 2).
    pub hops: u64,
}

impl QueryCost {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one neighbour-list query that touched `rows` rows.
    pub fn record_query(&mut self, rows: u64) {
        self.queries += 1;
        self.rows_touched += rows;
    }

    /// Records the traversal of one hop level.
    pub fn record_hop(&mut self) {
        self.hops += 1;
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl AddAssign for QueryCost {
    fn add_assign(&mut self, rhs: Self) {
        self.queries += rhs.queries;
        self.rows_touched += rhs.rows_touched;
        self.hops += rhs.hops;
    }
}

/// Converts [`QueryCost`] counters into a simulated graph-database latency.
///
/// Defaults are calibrated to a remote graph store of the kind the paper
/// describes (Alipay's production deployment): every query pays a fixed
/// lookup overhead, every row a transfer cost, and every additional hop a
/// round-trip, because hop `k+1`'s seeds depend on hop `k`'s results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Fixed cost per neighbour-list query (index lookup), in nanoseconds.
    pub per_query_ns: u64,
    /// Cost per adjacency row touched, in nanoseconds.
    pub per_row_ns: u64,
    /// Round-trip cost per hop level, in nanoseconds.
    pub per_hop_ns: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // ~20µs per indexed lookup, ~1µs per row, ~100µs per dependent
        // round trip: mid-range numbers for a networked graph store.
        Self {
            per_query_ns: 20_000,
            per_row_ns: 1_000,
            per_hop_ns: 100_000,
        }
    }
}

impl LatencyModel {
    /// A model that charges nothing — used to report raw compute times.
    pub fn free() -> Self {
        Self {
            per_query_ns: 0,
            per_row_ns: 0,
            per_hop_ns: 0,
        }
    }

    /// The simulated latency for `cost`.
    pub fn latency(&self, cost: &QueryCost) -> Duration {
        Duration::from_nanos(
            self.per_query_ns * cost.queries
                + self.per_row_ns * cost.rows_touched
                + self.per_hop_ns * cost.hops,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut c = QueryCost::new();
        c.record_query(5);
        c.record_query(3);
        c.record_hop();
        assert_eq!(c.queries, 2);
        assert_eq!(c.rows_touched, 8);
        assert_eq!(c.hops, 1);
        c.reset();
        assert_eq!(c, QueryCost::default());
    }

    #[test]
    fn add_assign_merges() {
        let mut a = QueryCost {
            queries: 1,
            rows_touched: 10,
            hops: 1,
        };
        a += QueryCost {
            queries: 2,
            rows_touched: 5,
            hops: 1,
        };
        assert_eq!(a.queries, 3);
        assert_eq!(a.rows_touched, 15);
        assert_eq!(a.hops, 2);
    }

    #[test]
    fn latency_model_math() {
        let m = LatencyModel {
            per_query_ns: 10,
            per_row_ns: 1,
            per_hop_ns: 100,
        };
        let c = QueryCost {
            queries: 2,
            rows_touched: 30,
            hops: 2,
        };
        assert_eq!(m.latency(&c), Duration::from_nanos(20 + 30 + 200));
    }

    #[test]
    fn free_model_charges_nothing() {
        let c = QueryCost {
            queries: 100,
            rows_touched: 100,
            hops: 100,
        };
        assert_eq!(LatencyModel::free().latency(&c), Duration::ZERO);
    }

    #[test]
    fn more_hops_cost_more() {
        let m = LatencyModel::default();
        let one = QueryCost {
            queries: 10,
            rows_touched: 100,
            hops: 1,
        };
        let two = QueryCost {
            queries: 110,
            rows_touched: 1100,
            hops: 2,
        };
        assert!(m.latency(&two) > m.latency(&one));
    }
}
