//! The append-only temporal graph store.

use crate::event::{Event, EventId, NodeId, Time};

/// One adjacency entry: an interaction seen from one endpoint.
///
/// Entries are appended in event order, so each node's adjacency list is
/// sorted by `time` — time-respecting queries are binary searches plus a
/// contiguous scan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdjEntry {
    /// The other endpoint of the interaction.
    pub neighbor: NodeId,
    /// The interaction's event id (keys external edge features).
    pub eid: EventId,
    /// The interaction timestamp.
    pub time: Time,
}

/// An in-memory continuous-time dynamic graph.
///
/// The store expects events in non-decreasing time order, which is how
/// CTDG streams arrive (§3.1 of the paper: a CTDG *is* the time-ordered
/// event sequence). Bounded-lateness ingestion may additionally splice
/// late events via [`TemporalGraph::insert_late`]; all per-node histories
/// and the event log stay time-sorted either way. Node ids may be sparse;
/// the store grows to cover the largest id seen.
#[derive(Clone, Debug, Default)]
pub struct TemporalGraph {
    events: Vec<Event>,
    adj: Vec<Vec<AdjEntry>>,
    max_time: Time,
}

impl TemporalGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph preallocated for `nodes` nodes and `events`
    /// events.
    pub fn with_capacity(nodes: usize, events: usize) -> Self {
        let mut g = Self::new();
        g.adj = Vec::with_capacity(nodes);
        g.events = Vec::with_capacity(events);
        g
    }

    /// Appends an interaction and indexes it from both endpoints.
    /// Returns the new event's id.
    ///
    /// # Panics
    /// Panics if `time` precedes the newest event already stored (CTDG
    /// streams are time-ordered) or the event-id space is exhausted.
    pub fn insert(&mut self, src: NodeId, dst: NodeId, time: Time) -> EventId {
        assert!(
            time >= self.max_time,
            "out-of-order event: t={time} after t={}",
            self.max_time
        );
        assert!(
            self.events.len() < u32::MAX as usize,
            "event-id space exhausted"
        );
        self.max_time = time;
        let eid = self.events.len() as EventId;
        self.events.push(Event {
            src,
            dst,
            time,
            eid,
        });
        self.ensure_node(src.max(dst));
        self.adj[src as usize].push(AdjEntry {
            neighbor: dst,
            eid,
            time,
        });
        if src != dst {
            self.adj[dst as usize].push(AdjEntry {
                neighbor: src,
                eid,
                time,
            });
        }
        eid
    }

    /// Splices an interaction whose timestamp precedes the newest stored
    /// event (a *late* arrival admitted inside the lateness window).
    /// The event log and both endpoints' adjacency lists stay time-sorted:
    /// the event lands after every already-stored event with an equal or
    /// earlier timestamp (arrival order breaks timestamp ties, matching
    /// the order a fully time-sorted replay would process them in).
    /// `max_time` is unchanged. Delegates to [`TemporalGraph::insert`]
    /// when `time` is actually in order. Returns the new event's id —
    /// ids are assigned in *arrival* order, so after a splice event ids
    /// no longer equal event-log positions.
    pub fn insert_late(&mut self, src: NodeId, dst: NodeId, time: Time) -> EventId {
        if time >= self.max_time {
            return self.insert(src, dst, time);
        }
        assert!(
            self.events.len() < u32::MAX as usize,
            "event-id space exhausted"
        );
        let eid = self.events.len() as EventId;
        let pos = self.events.partition_point(|e| e.time <= time);
        self.events.insert(
            pos,
            Event {
                src,
                dst,
                time,
                eid,
            },
        );
        self.ensure_node(src.max(dst));
        let apos = self.adj[src as usize].partition_point(|e| e.time <= time);
        self.adj[src as usize].insert(
            apos,
            AdjEntry {
                neighbor: dst,
                eid,
                time,
            },
        );
        if src != dst {
            let apos = self.adj[dst as usize].partition_point(|e| e.time <= time);
            self.adj[dst as usize].insert(
                apos,
                AdjEntry {
                    neighbor: src,
                    eid,
                    time,
                },
            );
        }
        eid
    }

    /// Grows the node table to cover `id`.
    pub fn ensure_node(&mut self, id: NodeId) {
        if self.adj.len() <= id as usize {
            self.adj.resize_with(id as usize + 1, Vec::new);
        }
    }

    /// Number of nodes (1 + the largest node id seen).
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of interactions stored.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Timestamp of the newest event (0 when empty).
    pub fn max_time(&self) -> Time {
        self.max_time
    }

    /// The full, time-ordered event log.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Looks up one event. For append-only graphs event ids equal log
    /// positions and this is an index; after [`TemporalGraph::insert_late`]
    /// splices the two can diverge and the lookup falls back to a scan.
    pub fn event(&self, eid: EventId) -> &Event {
        if let Some(e) = self.events.get(eid as usize) {
            if e.eid == eid {
                return e;
            }
        }
        self.events
            .iter()
            .find(|e| e.eid == eid)
            .expect("unknown event id")
    }

    /// The full (time-ordered) adjacency list of `node`; empty for unseen
    /// ids within range.
    pub fn neighbors(&self, node: NodeId) -> &[AdjEntry] {
        self.adj
            .get(node as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Interaction count (temporal degree) of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// The index of the first adjacency entry of `node` with `time >= t`
    /// — i.e. `node`'s history strictly before `t` is `[0, idx)`.
    pub fn history_end(&self, node: NodeId, t: Time) -> usize {
        let adj = self.neighbors(node);
        adj.partition_point(|e| e.time < t)
    }

    /// The entries of `node`'s history strictly before `t`.
    pub fn history_before(&self, node: NodeId, t: Time) -> &[AdjEntry] {
        let end = self.history_end(node, t);
        &self.neighbors(node)[..end]
    }

    /// Drops all adjacency entries older than `horizon`, bounding the
    /// store's memory for long-running serving deployments. Most-recent
    /// sampling (the only strategy APAN's propagation uses online) is
    /// unaffected as long as `horizon` trails the mailbox's effective
    /// history window. The event log itself is kept (event ids must stay
    /// stable); returns the number of adjacency entries dropped.
    pub fn prune_adjacency_before(&mut self, horizon: Time) -> usize {
        let mut dropped = 0;
        for adj in &mut self.adj {
            let cut = adj.partition_point(|e| e.time < horizon);
            if cut > 0 {
                adj.drain(..cut);
                dropped += cut;
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_graph() -> TemporalGraph {
        let mut g = TemporalGraph::new();
        g.insert(0, 1, 1.0);
        g.insert(0, 2, 2.0);
        g.insert(1, 2, 3.0);
        g.insert(0, 1, 4.0);
        g
    }

    #[test]
    fn insert_indexes_both_endpoints() {
        let g = demo_graph();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_events(), 4);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn adjacency_is_time_sorted() {
        let g = demo_graph();
        for n in 0..3 {
            let adj = g.neighbors(n);
            assert!(adj.windows(2).all(|w| w[0].time <= w[1].time));
        }
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn rejects_time_travel() {
        let mut g = demo_graph();
        g.insert(0, 1, 0.5);
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut g = TemporalGraph::new();
        g.insert(0, 1, 1.0);
        g.insert(2, 3, 1.0);
        assert_eq!(g.num_events(), 2);
    }

    #[test]
    fn history_before_is_strict() {
        let g = demo_graph();
        // node 0 events at t = 1, 2, 4
        assert_eq!(g.history_before(0, 1.0).len(), 0);
        assert_eq!(g.history_before(0, 2.0).len(), 1);
        assert_eq!(g.history_before(0, 4.5).len(), 3);
        assert_eq!(g.history_before(0, f64::INFINITY).len(), 3);
    }

    #[test]
    fn self_loop_indexed_once() {
        let mut g = TemporalGraph::new();
        g.insert(5, 5, 1.0);
        assert_eq!(g.degree(5), 1);
        assert_eq!(g.num_nodes(), 6);
    }

    #[test]
    fn unseen_node_has_empty_history() {
        let g = demo_graph();
        assert!(g.neighbors(99).is_empty());
        assert_eq!(g.history_before(99, 10.0).len(), 0);
    }

    #[test]
    fn prune_drops_only_old_entries() {
        let mut g = demo_graph(); // events at t = 1, 2, 3, 4
        let dropped = g.prune_adjacency_before(2.5);
        // events at t=1 (both sides) and t=2 (both sides) pruned
        assert_eq!(dropped, 4);
        // node 0 keeps its t=4 entry only
        assert_eq!(g.neighbors(0).len(), 1);
        assert_eq!(g.neighbors(0)[0].time, 4.0);
        // the event log is untouched: ids remain addressable
        assert_eq!(g.num_events(), 4);
        assert_eq!(g.event(0).time, 1.0);
        // recency queries still behave
        assert_eq!(g.history_before(0, 10.0).len(), 1);
    }

    #[test]
    fn prune_is_idempotent() {
        let mut g = demo_graph();
        let first = g.prune_adjacency_before(3.0);
        let second = g.prune_adjacency_before(3.0);
        assert!(first > 0);
        assert_eq!(second, 0);
    }

    #[test]
    fn event_lookup_matches_log() {
        let g = demo_graph();
        let e = g.event(2);
        assert_eq!((e.src, e.dst, e.time), (1, 2, 3.0));
        assert_eq!(e.eid, 2);
    }

    #[test]
    fn insert_late_splices_time_sorted() {
        let mut g = demo_graph(); // events at t = 1, 2, 3, 4
        let eid = g.insert_late(1, 2, 2.5);
        assert_eq!(eid, 4); // ids keep arrival order
        assert_eq!(g.max_time(), 4.0); // unchanged by a late splice
                                       // the event log is still time-sorted
        let times: Vec<f64> = g.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 2.0, 2.5, 3.0, 4.0]);
        // both endpoints' adjacency lists are still time-sorted
        for n in 0..3 {
            let adj = g.neighbors(n);
            assert!(adj.windows(2).all(|w| w[0].time <= w[1].time));
        }
        // the spliced entry is strictly-before visible at t just above it
        assert_eq!(g.history_before(1, 2.6).len(), 2);
        // id lookup still resolves the spliced event and the shifted ones
        assert_eq!(g.event(4).time, 2.5);
        assert_eq!(g.event(2).time, 3.0);
    }

    #[test]
    fn insert_late_ties_land_after_equal_times() {
        let mut g = TemporalGraph::new();
        g.insert(0, 1, 1.0);
        g.insert(0, 2, 2.0);
        g.insert_late(0, 3, 1.0); // ties broken by arrival order
        let adj = g.neighbors(0);
        assert_eq!(adj[0].neighbor, 1);
        assert_eq!(adj[1].neighbor, 3);
        assert_eq!(adj[2].neighbor, 2);
    }

    #[test]
    fn insert_late_in_order_delegates_to_insert() {
        let mut g = demo_graph();
        g.insert_late(0, 2, 5.0);
        assert_eq!(g.max_time(), 5.0);
        assert_eq!(g.events().last().unwrap().eid, 4);
    }
}
