//! Decentralized (per-node) bus guardians — the bus-topology alternative
//! the paper compares the central design against.
//!
//! A local guardian sits between one node and the bus and opens the
//! transmission path only during that node's slot, enforcing fail-silence
//! in the time domain. Crucially, a local guardian cannot repair SOS
//! defects or check frame semantics — and a *fault* in one local guardian
//! affects only its own node, whereas a faulty central guardian affects a
//! whole channel (the asymmetry the paper examines).

use crate::window::{TimeWindow, WindowVerdict};
use std::fmt;
use tta_types::{NodeId, SlotIndex};

/// Fault modes of a local guardian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum LocalGuardianFault {
    /// Working correctly.
    #[default]
    None,
    /// Stuck closed: the guarded node is muted in every slot.
    StuckClosed,
    /// Stuck open: the guarded node can babble into any slot.
    StuckOpen,
}

impl fmt::Display for LocalGuardianFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LocalGuardianFault::None => "none",
            LocalGuardianFault::StuckClosed => "stuck_closed",
            LocalGuardianFault::StuckOpen => "stuck_open",
        })
    }
}

/// A per-node bus guardian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalBusGuardian {
    node: NodeId,
    slot: SlotIndex,
    fault: LocalGuardianFault,
}

impl LocalBusGuardian {
    /// Creates a guardian for `node`, which owns `slot`.
    #[must_use]
    pub fn new(node: NodeId, slot: SlotIndex) -> Self {
        LocalBusGuardian {
            node,
            slot,
            fault: LocalGuardianFault::None,
        }
    }

    /// The guarded node.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The guarded node's slot.
    #[must_use]
    pub fn slot(&self) -> SlotIndex {
        self.slot
    }

    /// Current fault mode.
    #[must_use]
    pub fn fault(&self) -> LocalGuardianFault {
        self.fault
    }

    /// Injects (or clears) a fault.
    pub fn set_fault(&mut self, fault: LocalGuardianFault) {
        self.fault = fault;
    }

    /// Whether a transmission attempt by the guarded node in
    /// `current_slot` passes onto the bus.
    ///
    /// A healthy guardian opens exactly in the node's own slot; a
    /// stuck-closed one never opens; a stuck-open one always does — which
    /// is precisely what lets a faulty *node* behind a faulty guardian
    /// babble or masquerade.
    #[must_use]
    pub fn admits(&self, current_slot: SlotIndex) -> bool {
        match self.fault {
            LocalGuardianFault::None => current_slot == self.slot,
            LocalGuardianFault::StuckClosed => false,
            LocalGuardianFault::StuckOpen => true,
        }
    }

    /// Fine-grained time-domain check used by the simulator: a healthy
    /// guardian admits a transmission iff it fits its window. Local
    /// guardians cannot reshape, so slightly-off transmissions *pass
    /// through unrepaired* — the verdict is reported so receivers can
    /// disagree about them.
    #[must_use]
    pub fn admit_timed(&self, window: &TimeWindow, start: f64, end: f64) -> WindowVerdict {
        match self.fault {
            LocalGuardianFault::StuckClosed => WindowVerdict::Outside,
            LocalGuardianFault::StuckOpen => WindowVerdict::Inside,
            LocalGuardianFault::None => match window.classify(start, end) {
                // A local guardian's own clock is also marginal in the SOS
                // region, so it lets slightly-off frames through.
                WindowVerdict::SlightlyOff => WindowVerdict::SlightlyOff,
                v => v,
            },
        }
    }
}

impl fmt::Display for LocalBusGuardian {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "guardian[{} @ {}, fault {}]",
            self.node, self.slot, self.fault
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guardian() -> LocalBusGuardian {
        LocalBusGuardian::new(NodeId::new(1), SlotIndex::new(2))
    }

    #[test]
    fn healthy_guardian_opens_only_in_own_slot() {
        let g = guardian();
        assert!(g.admits(SlotIndex::new(2)));
        assert!(!g.admits(SlotIndex::new(1)));
        assert!(!g.admits(SlotIndex::new(3)));
    }

    #[test]
    fn stuck_closed_mutes_the_node() {
        let mut g = guardian();
        g.set_fault(LocalGuardianFault::StuckClosed);
        for s in 1..=4 {
            assert!(!g.admits(SlotIndex::new(s)));
        }
    }

    #[test]
    fn stuck_open_enables_babbling() {
        let mut g = guardian();
        g.set_fault(LocalGuardianFault::StuckOpen);
        for s in 1..=4 {
            assert!(g.admits(SlotIndex::new(s)));
        }
    }

    #[test]
    fn timed_check_passes_sos_frames_through() {
        let g = guardian();
        let w = TimeWindow::new(0.0, 100.0, 10.0);
        assert_eq!(g.admit_timed(&w, 10.0, 90.0), WindowVerdict::Inside);
        assert_eq!(g.admit_timed(&w, -5.0, 50.0), WindowVerdict::SlightlyOff);
        assert_eq!(g.admit_timed(&w, 200.0, 260.0), WindowVerdict::Outside);
    }

    #[test]
    fn faults_override_timed_check() {
        let mut g = guardian();
        let w = TimeWindow::new(0.0, 100.0, 10.0);
        g.set_fault(LocalGuardianFault::StuckClosed);
        assert_eq!(g.admit_timed(&w, 10.0, 90.0), WindowVerdict::Outside);
        g.set_fault(LocalGuardianFault::StuckOpen);
        assert_eq!(g.admit_timed(&w, 500.0, 600.0), WindowVerdict::Inside);
    }

    #[test]
    fn display_names_node_and_fault() {
        let mut g = guardian();
        g.set_fault(LocalGuardianFault::StuckOpen);
        let s = g.to_string();
        assert!(s.contains('B') && s.contains("stuck_open"));
    }
}
