//! Core identifiers and the interaction event record.

/// Node identifier. `u32` keeps adjacency entries compact (the Alipay-scale
/// dataset has < 2³² nodes by a wide margin).
pub type NodeId = u32;

/// Event (temporal edge) identifier; indexes the event log and any external
/// edge-feature matrix.
pub type EventId = u32;

/// Continuous timestamp. The public JODIE datasets use seconds-since-start
/// as `f64`.
pub type Time = f64;

/// One temporal interaction `(v_i, v_j, e_ij, t)` — the CTDG unit of the
/// paper (§3.1). Edge features are stored externally (e.g. in
/// `apan-data`), keyed by [`EventId`], so the graph core stays compact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Source node (the "user" side in bipartite datasets).
    pub src: NodeId,
    /// Destination node (the "item" side in bipartite datasets).
    pub dst: NodeId,
    /// Interaction timestamp.
    pub time: Time,
    /// This event's id (== its index in the event log).
    pub eid: EventId,
}

impl Event {
    /// The endpoint other than `node`.
    ///
    /// # Panics
    /// Panics if `node` is not an endpoint of this event.
    pub fn other(&self, node: NodeId) -> NodeId {
        if node == self.src {
            self.dst
        } else if node == self.dst {
            self.src
        } else {
            panic!("node {node} is not an endpoint of event {}", self.eid)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_endpoint() {
        let e = Event {
            src: 1,
            dst: 2,
            time: 0.5,
            eid: 0,
        };
        assert_eq!(e.other(1), 2);
        assert_eq!(e.other(2), 1);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_rejects_non_endpoint() {
        let e = Event {
            src: 1,
            dst: 2,
            time: 0.5,
            eid: 0,
        };
        let _ = e.other(3);
    }
}
