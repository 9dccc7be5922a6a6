//! Structured per-slot capture of the simulator's protocol-visible state.
//!
//! The conformance oracle (`tta-conformance`) replays these snapshots
//! through the formal model's transition relation; everything it needs —
//! controller vectors, coupler replay buffers, the effective replay count
//! and the healthy-freeze monitor — is captured here at slot boundaries
//! by [`crate::Simulation::run_traced`].

use tta_guardian::BufferedFrame;
use tta_protocol::Controller;
use tta_types::NodeId;

/// The simulator's protocol-visible state at one slot boundary.
///
/// `controllers`, `buffers`, `replays_delivered` and `healthy_frozen`
/// correspond one-to-one to the components of the formal model's global
/// state; the richer simulator state (membership vectors, receiver
/// tolerances, start-delay counters) is deliberately absent — the model
/// abstracts it away, so a conformance oracle must too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSnapshot {
    /// Absolute slot this snapshot precedes (snapshot `k` is the state
    /// *before* slot `k` executes; the final snapshot of a run follows
    /// the last slot).
    pub slot: u64,
    /// Per-node controller states, indexed by node.
    pub controllers: Vec<Controller>,
    /// The two couplers' replay buffers (always empty below full-shifting
    /// authority).
    pub buffers: [BufferedFrame; 2],
    /// Out-of-slot replays that actually delivered a buffered frame so
    /// far. Replays hitting an empty buffer produce silence and are not
    /// counted: the model folds them into the silence fault.
    pub replays_delivered: u8,
    /// Healthy (non-fault-injected) nodes frozen so far, in freeze order.
    pub healthy_frozen: Vec<NodeId>,
}

impl ClusterSnapshot {
    /// Whether any healthy node has frozen by this snapshot — the
    /// simulator-side mirror of the model's property monitor.
    #[must_use]
    pub fn property_holds(&self) -> bool {
        self.healthy_frozen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_types::FrameKind;

    #[test]
    fn property_tracks_the_freeze_monitor() {
        let clean = ClusterSnapshot {
            slot: 0,
            controllers: Vec::new(),
            buffers: [BufferedFrame::empty(); 2],
            replays_delivered: 0,
            healthy_frozen: Vec::new(),
        };
        assert!(clean.property_holds());
        let frozen = ClusterSnapshot {
            healthy_frozen: vec![NodeId::new(1)],
            buffers: [
                BufferedFrame {
                    id: 2,
                    kind: FrameKind::ColdStart,
                },
                BufferedFrame::empty(),
            ],
            ..clean
        };
        assert!(!frozen.property_holds());
    }
}
