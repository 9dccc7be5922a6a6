//! Implicit acknowledgment (the first/second-successor algorithm).
//!
//! TTP/C senders get no explicit acknowledgments. Instead, after sending,
//! a node watches the membership bit *about itself* in the frames of the
//! next senders (its *successors*): a successor whose frame shows the
//! sender in its membership received the frame correctly. Because the
//! first successor may itself be faulty, a negative or missing first
//! verdict defers to the *second* successor, which arbitrates:
//!
//! * first successor acknowledges → **acknowledged**;
//! * first denies/missing but second acknowledges (and shows the first as
//!   failed) → the first successor was the faulty one — **acknowledged**;
//! * both deny → the sender's own transmission failed — the node must
//!   assume a send fault and freeze (fail-silence enforcement).
//!
//! This is the membership mechanism whose divergence under SOS faults
//! feeds the clique-avoidance shutdowns the paper studies; the simulator
//! models the divergence at the frame level, while this module gives the
//! sender-side state machine a downstream user would expect in a TTP/C
//! library.

use std::fmt;
use tta_types::{MembershipVector, NodeId};

/// Verdict of the acknowledgment algorithm for one sent frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AckOutcome {
    /// The first successor saw the frame correctly.
    Acknowledged,
    /// The first successor denied/missed it, but the second successor
    /// acknowledged — the first successor is judged faulty.
    AcknowledgedBySecond,
    /// Both successors deny: the node's own transmission failed.
    SendFault,
}

impl AckOutcome {
    /// Whether the frame is considered delivered.
    #[must_use]
    pub fn is_acknowledged(self) -> bool {
        !matches!(self, AckOutcome::SendFault)
    }
}

impl fmt::Display for AckOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AckOutcome::Acknowledged => "acknowledged by first successor",
            AckOutcome::AcknowledgedBySecond => "acknowledged by second successor",
            AckOutcome::SendFault => "send fault (both successors deny)",
        })
    }
}

/// One successor observation: whether a valid frame arrived in the
/// successor's slot and, if so, the membership it carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuccessorFrame {
    /// No valid frame in the successor's slot.
    Missing,
    /// A valid frame carrying this membership view.
    Valid(MembershipVector),
}

/// Tracks acknowledgment of one sent frame across up to two successors.
///
/// # Example
///
/// ```
/// use tta_protocol::ack::{AckOutcome, AckTracker, SuccessorFrame};
/// use tta_types::{MembershipVector, NodeId};
///
/// let me = NodeId::new(1);
/// let mut tracker = AckTracker::new(me);
/// // The next sender's frame includes me in its membership: delivered.
/// let sees_me = MembershipVector::with_members([0, 1, 2]);
/// assert_eq!(tracker.observe(SuccessorFrame::Valid(sees_me)), Some(AckOutcome::Acknowledged));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckTracker {
    me: NodeId,
    first_verdict: Option<bool>,
    outcome: Option<AckOutcome>,
}

impl AckTracker {
    /// Starts tracking acknowledgment for a frame just sent by `me`.
    #[must_use]
    pub fn new(me: NodeId) -> Self {
        AckTracker {
            me,
            first_verdict: None,
            outcome: None,
        }
    }

    /// Feeds the next successor observation. Returns the final outcome
    /// once it is decided (and keeps returning it thereafter).
    pub fn observe(&mut self, frame: SuccessorFrame) -> Option<AckOutcome> {
        if self.outcome.is_some() {
            return self.outcome;
        }
        let acked = match frame {
            SuccessorFrame::Missing => false,
            SuccessorFrame::Valid(members) => members.contains(self.me),
        };
        match self.first_verdict {
            None if acked => {
                self.outcome = Some(AckOutcome::Acknowledged);
            }
            None => {
                // Defer to the second successor.
                self.first_verdict = Some(false);
            }
            Some(_) => {
                self.outcome = Some(if acked {
                    AckOutcome::AcknowledgedBySecond
                } else {
                    AckOutcome::SendFault
                });
            }
        }
        self.outcome
    }

    /// The decided outcome, if any.
    #[must_use]
    pub fn outcome(&self) -> Option<AckOutcome> {
        self.outcome
    }

    /// Whether the algorithm still waits for successor frames.
    #[must_use]
    pub fn is_pending(&self) -> bool {
        self.outcome.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(ids: &[u8]) -> SuccessorFrame {
        SuccessorFrame::Valid(MembershipVector::with_members(ids.iter().copied()))
    }

    #[test]
    fn first_successor_acknowledges() {
        let mut t = AckTracker::new(NodeId::new(1));
        assert!(t.is_pending());
        assert_eq!(t.observe(members(&[0, 1])), Some(AckOutcome::Acknowledged));
        assert!(!t.is_pending());
    }

    #[test]
    fn second_successor_overrules_a_faulty_first() {
        let mut t = AckTracker::new(NodeId::new(1));
        // First successor's frame does not list me (it missed my frame —
        // or it is faulty).
        assert_eq!(t.observe(members(&[0, 2])), None);
        assert!(t.is_pending());
        // Second successor saw me: the first was the odd one out.
        assert_eq!(
            t.observe(members(&[0, 1, 3])),
            Some(AckOutcome::AcknowledgedBySecond)
        );
    }

    #[test]
    fn missing_first_frame_defers_to_second() {
        let mut t = AckTracker::new(NodeId::new(2));
        assert_eq!(t.observe(SuccessorFrame::Missing), None);
        assert_eq!(
            t.observe(members(&[2])),
            Some(AckOutcome::AcknowledgedBySecond)
        );
    }

    #[test]
    fn double_denial_is_a_send_fault() {
        let mut t = AckTracker::new(NodeId::new(3));
        assert_eq!(t.observe(members(&[0, 1])), None);
        assert_eq!(
            t.observe(SuccessorFrame::Missing),
            Some(AckOutcome::SendFault)
        );
        assert!(!t.outcome().unwrap().is_acknowledged());
    }

    #[test]
    fn outcome_is_sticky() {
        let mut t = AckTracker::new(NodeId::new(0));
        assert_eq!(t.observe(members(&[0])), Some(AckOutcome::Acknowledged));
        // Further observations cannot change a decided outcome.
        assert_eq!(
            t.observe(SuccessorFrame::Missing),
            Some(AckOutcome::Acknowledged)
        );
        assert_eq!(t.outcome(), Some(AckOutcome::Acknowledged));
    }

    #[test]
    fn outcomes_classify_delivery() {
        assert!(AckOutcome::Acknowledged.is_acknowledged());
        assert!(AckOutcome::AcknowledgedBySecond.is_acknowledged());
        assert!(!AckOutcome::SendFault.is_acknowledged());
    }

    #[test]
    fn display_is_informative() {
        assert!(AckOutcome::SendFault.to_string().contains("send fault"));
    }
}
