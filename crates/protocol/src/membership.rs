//! Membership service bookkeeping.
//!
//! Every node maintains a membership vector recording which peers sent
//! correct frames recently. The service exists so host applications can
//! monitor peer health; the paper cares about it because *disagreement*
//! about membership — seeded, e.g., by an SOS frame that only some
//! receivers accept — is what the clique-avoidance mechanism turns into
//! node shutdowns. The simulator uses this module; the formal model
//! abstracts membership into the slot-position check.

use crate::Judgment;
use std::fmt;
use tta_types::{MembershipVector, NodeId};

/// Per-node membership bookkeeping.
///
/// A sender is (re)admitted on a correct frame and expelled after
/// `expel_after` consecutive failed slots of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipService {
    members: MembershipVector,
    consecutive_failures: Vec<u8>,
    expel_after: u8,
}

impl MembershipService {
    /// Creates a service for a cluster of `nodes` nodes; every node starts
    /// outside the membership until it is heard from, and is expelled
    /// after `expel_after` consecutive failures (TTP/C expels after the
    /// first failed own slot; pass 1 for that behavior).
    ///
    /// # Panics
    ///
    /// Panics if `expel_after == 0` or `nodes > 64`.
    #[must_use]
    pub fn new(nodes: usize, expel_after: u8) -> Self {
        assert!(expel_after > 0, "expel_after must be at least one slot");
        assert!(nodes <= 64, "cluster size {nodes} exceeds membership width");
        MembershipService {
            members: MembershipVector::new(),
            consecutive_failures: vec![0; nodes],
            expel_after,
        }
    }

    /// Current membership view.
    #[must_use]
    pub fn members(&self) -> MembershipVector {
        self.members
    }

    /// Records the judgment of `sender`'s slot.
    pub fn record(&mut self, sender: NodeId, judgment: Judgment) {
        let i = sender.as_usize();
        if i >= self.consecutive_failures.len() {
            return;
        }
        match judgment {
            Judgment::Correct => {
                self.consecutive_failures[i] = 0;
                self.members.insert(sender);
            }
            Judgment::Invalid | Judgment::Incorrect => {
                self.consecutive_failures[i] = self.consecutive_failures[i].saturating_add(1);
                if self.consecutive_failures[i] >= self.expel_after {
                    self.members.remove(sender);
                }
            }
            Judgment::Null => {
                // Silence in a sender's slot also counts against it once
                // the sender was a member (a member is expected to send).
                if self.members.contains(sender) {
                    self.consecutive_failures[i] = self.consecutive_failures[i].saturating_add(1);
                    if self.consecutive_failures[i] >= self.expel_after {
                        self.members.remove(sender);
                    }
                }
            }
        }
    }

    /// Whether two nodes' membership views agree — the condition whose
    /// violation clique detection exists to resolve.
    #[must_use]
    pub fn agrees_with(&self, other: &MembershipService) -> bool {
        self.members == other.members
    }
}

impl fmt::Display for MembershipService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "members {}", self.members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: u8) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn correct_frames_admit_members() {
        let mut m = MembershipService::new(4, 1);
        m.record(node(2), Judgment::Correct);
        assert!(m.members().contains(node(2)));
        assert_eq!(m.members().len(), 1);
    }

    #[test]
    fn failures_expel_after_threshold() {
        let mut m = MembershipService::new(4, 2);
        m.record(node(1), Judgment::Correct);
        m.record(node(1), Judgment::Incorrect);
        assert!(m.members().contains(node(1)), "one failure below threshold");
        m.record(node(1), Judgment::Invalid);
        assert!(!m.members().contains(node(1)), "expelled at threshold");
    }

    #[test]
    fn correct_frame_resets_failure_streak() {
        let mut m = MembershipService::new(4, 2);
        m.record(node(0), Judgment::Correct);
        m.record(node(0), Judgment::Incorrect);
        m.record(node(0), Judgment::Correct);
        m.record(node(0), Judgment::Incorrect);
        assert!(m.members().contains(node(0)));
    }

    #[test]
    fn silence_counts_against_members_only() {
        let mut m = MembershipService::new(4, 1);
        m.record(node(3), Judgment::Null);
        assert!(
            !m.members().contains(node(3)),
            "non-member unaffected by silence"
        );
        m.record(node(3), Judgment::Correct);
        m.record(node(3), Judgment::Null);
        assert!(
            !m.members().contains(node(3)),
            "member expelled after silent slot"
        );
    }

    #[test]
    fn disagreement_is_detectable() {
        let mut a = MembershipService::new(4, 1);
        let mut b = MembershipService::new(4, 1);
        a.record(node(0), Judgment::Correct);
        b.record(node(0), Judgment::Correct);
        assert!(a.agrees_with(&b));
        // An SOS frame: A judges it correct, B judges it incorrect.
        a.record(node(1), Judgment::Correct);
        b.record(node(1), Judgment::Incorrect);
        assert!(!a.agrees_with(&b));
    }

    #[test]
    fn out_of_range_senders_are_ignored() {
        let mut m = MembershipService::new(2, 1);
        m.record(node(7), Judgment::Correct);
        assert!(!m.members().contains(node(7)));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_threshold_is_rejected() {
        let _ = MembershipService::new(4, 0);
    }
}
