//! Enhanced central-guardian functions — and why they are dangerous.
//!
//! Section 6 of the paper lists reasons a system architect "might be
//! tempted to buffer an entire frame" in the central guardian:
//!
//! 1. **Mailboxes**: "an active central guardian that keeps 'mailboxes'
//!    with recent data values could help provide data continuity if
//!    frames are corrupted by providing slightly stale values instead of
//!    no value."
//! 2. **Prioritized message service (CAN emulation)**: "a central
//!    guardian could also provide prioritized message service … if it
//!    were allowed to buffer frames and send them in a specially reserved
//!    time slice, in priority order."
//!
//! "Both of these enhanced functions would require buffering full
//! frames." This module implements both functions *and* their buffer
//! accounting, so the conflict with the fault-tolerance bound
//! `B_max = f_min − 1` (eq. 3) is checkable rather than rhetorical:
//! [`BufferedFunction::violates_fault_tolerance_bound`] is true for every
//! useful configuration of either service.

use crate::CouplerFaultMode;
use std::collections::HashMap;
use std::fmt;
use tta_types::{Frame, NodeId};

/// A guardian value-added function that holds frame bits.
///
/// Implementors report how many bits of a frame they must hold; the
/// trait supplies the comparison against the paper's eq. (3) bound.
pub trait BufferedFunction {
    /// Bits of the longest frame this function must hold to operate.
    fn required_buffer_bits(&self) -> u32;

    /// Whether operating this function forces the guardian past the
    /// largest buffer a fault-tolerant design permits
    /// (`B_max = f_min − 1`, eq. 3).
    fn violates_fault_tolerance_bound(&self, min_frame_bits: u32) -> bool {
        self.required_buffer_bits() > min_frame_bits.saturating_sub(1)
    }

    /// The fault mode this function's buffer enables in a faulty
    /// guardian. Holding complete frames always enables replay.
    fn enabled_fault_mode(&self) -> CouplerFaultMode {
        CouplerFaultMode::OutOfSlot
    }
}

/// A stale-value mailbox service: the guardian remembers each sender's
/// last complete frame and can serve it when the live slot is corrupted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MailboxService {
    boxes: HashMap<u8, Frame>,
    longest_seen_bits: u32,
}

impl MailboxService {
    /// Creates an empty mailbox service.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `frame` as `sender`'s most recent value. This is the
    /// operation that requires holding the *entire* frame.
    pub fn store(&mut self, sender: NodeId, frame: Frame) {
        self.longest_seen_bits = self.longest_seen_bits.max(frame.bit_len() as u32);
        self.boxes.insert(sender.index(), frame);
    }

    /// The slightly stale value for `sender`, if any — what the guardian
    /// would substitute for a corrupted slot.
    #[must_use]
    pub fn stale_value(&self, sender: NodeId) -> Option<&Frame> {
        self.boxes.get(&sender.index())
    }

    /// Number of mailboxes currently populated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether no mailbox is populated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }
}

impl BufferedFunction for MailboxService {
    fn required_buffer_bits(&self) -> u32 {
        // A mailbox is only useful if it can hold the frames that flow
        // through it, i.e. complete frames up to the longest seen.
        self.longest_seen_bits
    }
}

/// A CAN-style prioritized relay: frames wait in the guardian, lowest
/// arbitration id first, to be transmitted in a reserved time slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PriorityRelay {
    queue: Vec<(u32, Frame)>,
}

impl PriorityRelay {
    /// Creates an empty relay.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues `frame` with a CAN-style arbitration id (lower id = higher
    /// priority).
    pub fn enqueue(&mut self, arbitration_id: u32, frame: Frame) {
        self.queue.push((arbitration_id, frame));
        // Stable insertion order for equal ids, CAN arbitration otherwise.
        self.queue.sort_by_key(|(id, _)| *id);
    }

    /// Dequeues the highest-priority frame for the reserved time slice.
    pub fn transmit_next(&mut self) -> Option<(u32, Frame)> {
        if self.queue.is_empty() {
            None
        } else {
            Some(self.queue.remove(0))
        }
    }

    /// Frames currently waiting.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }
}

impl BufferedFunction for PriorityRelay {
    fn required_buffer_bits(&self) -> u32 {
        // Every queued frame is held in full until its slice arrives.
        self.queue.iter().map(|(_, f)| f.bit_len() as u32).sum()
    }
}

/// Summary row for design reviews: function, buffer need, bound, verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionAudit {
    /// Function name.
    pub function: String,
    /// Bits the function must buffer.
    pub required_bits: u32,
    /// The fault-tolerance bound `f_min − 1`.
    pub permitted_bits: u32,
    /// Whether the function is compatible with the bound.
    pub fault_tolerant: bool,
}

impl fmt::Display for FunctionAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: needs {} bits, permitted {} → {}",
            self.function,
            self.required_bits,
            self.permitted_bits,
            if self.fault_tolerant {
                "OK"
            } else {
                "VIOLATES eq. (3)"
            }
        )
    }
}

/// Audits a buffered function against the eq. (3) bound.
#[must_use]
pub fn audit<F: BufferedFunction>(name: &str, function: &F, min_frame_bits: u32) -> FunctionAudit {
    FunctionAudit {
        function: name.to_string(),
        required_bits: function.required_buffer_bits(),
        permitted_bits: min_frame_bits.saturating_sub(1),
        fault_tolerant: !function.violates_fault_tolerance_bound(min_frame_bits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_types::constants::N_FRAME_MIN_BITS;
    use tta_types::{CState, FrameBuilder, FrameClass, MembershipVector};

    fn frame(sender: u8, data: &[u8]) -> Frame {
        FrameBuilder::new(FrameClass::XFrame, NodeId::new(sender))
            .cstate(CState::new(
                10,
                u16::from(sender) + 1,
                0,
                MembershipVector::full(4),
            ))
            .data_bits(data)
            .build()
            .expect("valid frame")
    }

    #[test]
    fn mailboxes_serve_stale_values() {
        let mut service = MailboxService::new();
        assert!(service.is_empty());
        let f1 = frame(0, &[1, 2, 3]);
        let f2 = frame(0, &[4, 5, 6]);
        service.store(NodeId::new(0), f1);
        service.store(NodeId::new(0), f2.clone());
        assert_eq!(service.stale_value(NodeId::new(0)), Some(&f2));
        assert_eq!(service.stale_value(NodeId::new(1)), None);
        assert_eq!(service.len(), 1);
    }

    #[test]
    fn mailboxes_require_full_frames() {
        let mut service = MailboxService::new();
        service.store(NodeId::new(0), frame(0, &[0; 64]));
        // Holding a 64-byte X-frame cannot fit inside f_min − 1 = 27 bits.
        assert!(service.required_buffer_bits() > 500);
        assert!(service.violates_fault_tolerance_bound(N_FRAME_MIN_BITS));
        assert_eq!(service.enabled_fault_mode(), CouplerFaultMode::OutOfSlot);
    }

    #[test]
    fn empty_mailbox_is_trivially_compliant() {
        // The only fault-tolerant mailbox service is one that never stored
        // anything — i.e. the feature is unusable under eq. (3).
        let service = MailboxService::new();
        assert!(!service.violates_fault_tolerance_bound(N_FRAME_MIN_BITS));
    }

    #[test]
    fn priority_relay_implements_can_arbitration() {
        let mut relay = PriorityRelay::new();
        relay.enqueue(0x300, frame(2, &[3]));
        relay.enqueue(0x100, frame(0, &[1]));
        relay.enqueue(0x200, frame(1, &[2]));
        let order: Vec<u32> =
            std::iter::from_fn(|| relay.transmit_next().map(|(id, _)| id)).collect();
        assert_eq!(order, [0x100, 0x200, 0x300]);
        assert_eq!(relay.backlog(), 0);
    }

    #[test]
    fn priority_relay_buffer_grows_with_backlog() {
        let mut relay = PriorityRelay::new();
        relay.enqueue(1, frame(0, &[0; 8]));
        let single = relay.required_buffer_bits();
        relay.enqueue(2, frame(1, &[0; 8]));
        assert_eq!(relay.required_buffer_bits(), 2 * single);
        assert!(relay.violates_fault_tolerance_bound(N_FRAME_MIN_BITS));
    }

    #[test]
    fn audit_reports_the_conflict() {
        let mut relay = PriorityRelay::new();
        relay.enqueue(7, frame(3, &[9, 9]));
        let audit = audit("CAN emulation", &relay, N_FRAME_MIN_BITS);
        assert!(!audit.fault_tolerant);
        assert_eq!(audit.permitted_bits, 27);
        assert!(audit.to_string().contains("VIOLATES"));
    }

    #[test]
    fn any_single_stored_frame_violates_the_bound() {
        // Even the shortest legal frame cannot be stored: every frame is
        // at least f_min bits, the buffer may hold at most f_min − 1.
        let mut service = MailboxService::new();
        let minimal = FrameBuilder::new(FrameClass::IFrame, NodeId::new(0))
            .cstate(CState::new(0, 1, 0, MembershipVector::new()))
            .build()
            .expect("valid frame");
        let bits = minimal.bit_len() as u32;
        service.store(NodeId::new(0), minimal);
        assert!(service.violates_fault_tolerance_bound(bits));
    }
}
