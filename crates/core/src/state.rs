//! The packed global state of the cluster model.

use std::fmt;
use tta_guardian::BufferedFrame;
use tta_protocol::Controller;
use tta_types::NodeId;

/// One global state of the Section 4 model: every node's controller
/// state, both couplers' frame buffers, the replay budget already spent,
/// and the property monitor.
///
/// States are hashed billions of times during exploration; all components
/// are small `Copy`-friendly values and semantically-unused fields are
/// canonicalized by `tta-protocol`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClusterState {
    nodes: Vec<Controller>,
    coupler_buffers: [BufferedFrame; 2],
    out_of_slot_used: u8,
    frozen_victim: Option<NodeId>,
}

impl ClusterState {
    /// A state with every given controller, empty coupler buffers, no
    /// replays spent, and a clear monitor.
    #[must_use]
    pub fn new(nodes: Vec<Controller>) -> Self {
        ClusterState {
            nodes,
            coupler_buffers: [BufferedFrame::empty(); 2],
            out_of_slot_used: 0,
            frozen_victim: None,
        }
    }

    /// Assembles a state from all four components. Public so external
    /// oracles (the conformance crate) can lift simulator observations
    /// into the model's vocabulary; the model itself only ever produces
    /// states through the transition relation.
    #[must_use]
    pub fn with_parts(
        nodes: Vec<Controller>,
        coupler_buffers: [BufferedFrame; 2],
        out_of_slot_used: u8,
        frozen_victim: Option<NodeId>,
    ) -> Self {
        ClusterState {
            nodes,
            coupler_buffers,
            out_of_slot_used,
            frozen_victim,
        }
    }

    /// Per-node controller states, indexed by node.
    #[must_use]
    pub fn nodes(&self) -> &[Controller] {
        &self.nodes
    }

    /// The controller of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the cluster.
    #[must_use]
    pub fn node(&self, node: NodeId) -> &Controller {
        &self.nodes[node.as_usize()]
    }

    /// The two couplers' frame buffers (always empty below full-shifting
    /// authority).
    #[must_use]
    pub fn coupler_buffers(&self) -> [BufferedFrame; 2] {
        self.coupler_buffers
    }

    /// Out-of-slot errors committed so far along this execution.
    #[must_use]
    pub fn out_of_slot_used(&self) -> u8 {
        self.out_of_slot_used
    }

    /// The property monitor: the first integrated node that was forced by
    /// the protocol into `freeze`, if any. The checked invariant is that
    /// this stays `None`.
    #[must_use]
    pub fn frozen_victim(&self) -> Option<NodeId> {
        self.frozen_victim
    }

    /// Whether the paper's property holds in this state.
    #[must_use]
    pub fn property_holds(&self) -> bool {
        self.frozen_victim.is_none()
    }
}

impl fmt::Display for ClusterState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, node) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{node}")?;
        }
        write!(
            f,
            " | buffers [{}, {}], replays {}",
            self.coupler_buffers[0], self.coupler_buffers[1], self.out_of_slot_used
        )?;
        if let Some(victim) = self.frozen_victim {
            write!(f, " | VIOLATION: {victim} froze while integrated")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> ClusterState {
        ClusterState::new(NodeId::first(4).map(|id| Controller::new(id, 4)).collect())
    }

    #[test]
    fn fresh_state_satisfies_property() {
        let s = fresh();
        assert!(s.property_holds());
        assert_eq!(s.out_of_slot_used(), 0);
        assert_eq!(s.coupler_buffers(), [BufferedFrame::empty(); 2]);
        assert_eq!(s.nodes().len(), 4);
    }

    #[test]
    fn victim_breaks_property() {
        let s = ClusterState::with_parts(
            fresh().nodes().to_vec(),
            [BufferedFrame::empty(); 2],
            1,
            Some(NodeId::new(1)),
        );
        assert!(!s.property_holds());
        assert!(s.to_string().contains("VIOLATION"));
        assert!(s.to_string().contains('B'));
    }

    #[test]
    fn node_accessor_indexes_by_id() {
        let s = fresh();
        assert_eq!(s.node(NodeId::new(2)).node_id(), NodeId::new(2));
    }

    #[test]
    fn equal_states_hash_equal() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(fresh());
        set.insert(fresh());
        assert_eq!(set.len(), 1);
    }
}
