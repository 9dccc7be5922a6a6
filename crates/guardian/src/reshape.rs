//! Central-guardian protections: active signal reshaping and semantic
//! analysis (Bauer/Kopetz/Steiner, ISADS'03; paper Sections 1–2).
//!
//! A central guardian in the star topology may be authorized to
//!
//! 1. **reshape** frames — boost value-domain SOS signals and re-time
//!    time-domain SOS signals so all receivers see a clean frame,
//! 2. **enforce windows** — block any transmission outside the sender's
//!    slot (babbling-idiot and masquerading protection), and
//! 3. **semantically analyze** frames — drop cold-start frames whose
//!    claimed round-slot position does not match their slot of arrival and
//!    frames whose C-state the guardian knows to be wrong.
//!
//! These protections require the guardian to buffer `B_min` bits of each
//! frame (Section 6, eq. 1); [`crate::buffer`] quantifies that cost.

use crate::sos::{SosDefect, SosDomain};
use crate::CouplerAuthority;
use std::fmt;
use tta_types::{Frame, FrameClass, NodeId, SlotIndex};

/// What a central guardian did with a frame that passed through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardianAction {
    /// Forwarded unchanged.
    Forwarded,
    /// Forwarded after repairing an SOS defect (reshaping).
    Reshaped(SosDomain),
    /// Blocked: transmission outside the sender's window.
    BlockedOffSlot,
    /// Blocked: frame claims an identity inconsistent with its slot
    /// (masquerading).
    BlockedMasquerade {
        /// Identity the frame claimed.
        claimed: NodeId,
        /// Sender the schedule assigns to the slot.
        scheduled: NodeId,
    },
    /// Blocked: cold-start frame whose round-slot position is inconsistent
    /// with the guardian's own startup observation.
    BlockedBadColdStart,
}

impl GuardianAction {
    /// Whether the frame reached the receivers.
    #[must_use]
    pub fn passed(self) -> bool {
        matches!(
            self,
            GuardianAction::Forwarded | GuardianAction::Reshaped(_)
        )
    }
}

impl fmt::Display for GuardianAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardianAction::Forwarded => write!(f, "forwarded"),
            GuardianAction::Reshaped(d) => write!(f, "reshaped ({d} domain)"),
            GuardianAction::BlockedOffSlot => write!(f, "blocked (off slot)"),
            GuardianAction::BlockedMasquerade { claimed, scheduled } => {
                write!(f, "blocked (masquerade: {claimed} in {scheduled}'s slot)")
            }
            GuardianAction::BlockedBadColdStart => write!(f, "blocked (bad cold-start)"),
        }
    }
}

/// The protective filter of a central guardian, parameterized by the
/// coupler's authority: only authorities that can block may block; only
/// authorities that can shift may reshape time-domain defects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SemanticFilter {
    authority: CouplerAuthority,
}

impl SemanticFilter {
    /// Creates a filter for a guardian of the given authority.
    #[must_use]
    pub fn new(authority: CouplerAuthority) -> Self {
        SemanticFilter { authority }
    }

    /// The guardian's authority.
    #[must_use]
    pub fn authority(&self) -> CouplerAuthority {
        self.authority
    }

    /// Filters one wire frame arriving in `slot`, which the MEDL assigns
    /// to `scheduled_sender`. `in_window` reports whether the transmission
    /// respected its time window, `defect` any SOS defect it carries, and
    /// `expected_round_slot` the guardian's own belief about the current
    /// round-slot position during startup (None before it has one).
    ///
    /// Returns the action taken and, when the frame passes, the (possibly
    /// repaired) defect status.
    #[must_use]
    pub fn filter(
        &self,
        frame: &Frame,
        slot: SlotIndex,
        scheduled_sender: NodeId,
        in_window: bool,
        defect: Option<SosDefect>,
        expected_round_slot: Option<u16>,
    ) -> (GuardianAction, Option<SosDefect>) {
        let can_block = self.authority.can_block();

        // 1. Window enforcement (babbling idiot / off-slot).
        if !in_window && can_block {
            return (GuardianAction::BlockedOffSlot, None);
        }

        // 2. Masquerading: claimed sender vs scheduled sender. Requires
        //    inspecting header bits, which any blocking guardian buffers.
        if can_block && frame.sender() != scheduled_sender {
            return (
                GuardianAction::BlockedMasquerade {
                    claimed: frame.sender(),
                    scheduled: scheduled_sender,
                },
                None,
            );
        }

        // 3. Cold-start semantic analysis: the claimed round-slot position
        //    must match the guardian's expectation. This is the check
        //    that stops masquerading during startup (frames arrive before
        //    a global time exists, so arrival time proves nothing).
        if can_block && frame.class() == FrameClass::ColdStart {
            if let (Some(expected), Some(cs)) = (expected_round_slot, frame.cstate()) {
                if cs.round_slot().get() != expected {
                    return (GuardianAction::BlockedBadColdStart, None);
                }
            }
            // Cold-start frames must also claim the slot they arrive in
            // under the identity schedule.
            if let Some(cs) = frame.cstate() {
                if cs.round_slot().get() != slot.get() {
                    return (GuardianAction::BlockedBadColdStart, None);
                }
            }
        }

        // 4. Signal reshaping of SOS defects.
        match defect {
            Some(d) if d.magnitude() > 0.0 => {
                let can_fix = match d.domain() {
                    SosDomain::Value => can_block, // amplitude boost: any active hub
                    SosDomain::Time => self.authority.can_shift_small(),
                };
                if can_fix {
                    (GuardianAction::Reshaped(d.domain()), None)
                } else {
                    (GuardianAction::Forwarded, Some(d))
                }
            }
            other => (GuardianAction::Forwarded, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_types::{CState, FrameBuilder, MembershipVector};

    fn cold_start_frame(sender: u8, round_slot: u16) -> Frame {
        FrameBuilder::new(FrameClass::ColdStart, NodeId::new(sender))
            .cold_start(0, round_slot)
            .build()
            .unwrap()
    }

    fn iframe(sender: u8) -> Frame {
        FrameBuilder::new(FrameClass::IFrame, NodeId::new(sender))
            .cstate(CState::new(5, 1, 0, MembershipVector::full(4)))
            .build()
            .unwrap()
    }

    fn filter(auth: CouplerAuthority) -> SemanticFilter {
        SemanticFilter::new(auth)
    }

    #[test]
    fn passive_hub_forwards_everything() {
        let f = filter(CouplerAuthority::Passive);
        let frame = iframe(3); // masquerading: slot 1 belongs to node 0
        let (action, _) = f.filter(&frame, SlotIndex::new(1), NodeId::new(0), false, None, None);
        assert_eq!(action, GuardianAction::Forwarded);
    }

    #[test]
    fn blocking_hub_stops_off_slot_transmissions() {
        let f = filter(CouplerAuthority::TimeWindows);
        let frame = iframe(0);
        let (action, _) = f.filter(&frame, SlotIndex::new(1), NodeId::new(0), false, None, None);
        assert_eq!(action, GuardianAction::BlockedOffSlot);
        assert!(!action.passed());
    }

    #[test]
    fn blocking_hub_stops_masquerading() {
        let f = filter(CouplerAuthority::TimeWindows);
        let frame = iframe(3);
        let (action, _) = f.filter(&frame, SlotIndex::new(1), NodeId::new(0), true, None, None);
        assert_eq!(
            action,
            GuardianAction::BlockedMasquerade {
                claimed: NodeId::new(3),
                scheduled: NodeId::new(0),
            }
        );
    }

    #[test]
    fn cold_start_round_slot_is_checked_against_expectation() {
        let f = filter(CouplerAuthority::SmallShifting);
        let frame = cold_start_frame(0, 1);
        // Guardian expects round-slot 1: passes.
        let (ok, _) = f.filter(
            &frame,
            SlotIndex::new(1),
            NodeId::new(0),
            true,
            None,
            Some(1),
        );
        assert_eq!(ok, GuardianAction::Forwarded);
        // Guardian expects round-slot 3: blocked.
        let (bad, _) = f.filter(
            &frame,
            SlotIndex::new(1),
            NodeId::new(0),
            true,
            None,
            Some(3),
        );
        assert_eq!(bad, GuardianAction::BlockedBadColdStart);
    }

    #[test]
    fn cold_start_must_claim_its_arrival_slot() {
        let f = filter(CouplerAuthority::TimeWindows);
        let frame = cold_start_frame(0, 2); // claims slot 2, arrives in slot 1
        let (action, _) = f.filter(&frame, SlotIndex::new(1), NodeId::new(0), true, None, None);
        assert_eq!(action, GuardianAction::BlockedBadColdStart);
    }

    #[test]
    fn value_sos_is_reshaped_by_any_active_hub() {
        let f = filter(CouplerAuthority::TimeWindows);
        let frame = iframe(0);
        let defect = SosDefect::new(SosDomain::Value, 0.5);
        let (action, residual) = f.filter(
            &frame,
            SlotIndex::new(1),
            NodeId::new(0),
            true,
            Some(defect),
            None,
        );
        assert_eq!(action, GuardianAction::Reshaped(SosDomain::Value));
        assert_eq!(residual, None);
    }

    #[test]
    fn time_sos_needs_shifting_authority() {
        let frame = iframe(0);
        let defect = SosDefect::new(SosDomain::Time, 0.5);
        // Time-windows hub cannot re-time: the defect passes through.
        let (action, residual) = filter(CouplerAuthority::TimeWindows).filter(
            &frame,
            SlotIndex::new(1),
            NodeId::new(0),
            true,
            Some(defect),
            None,
        );
        assert_eq!(action, GuardianAction::Forwarded);
        assert_eq!(residual, Some(defect));
        // Small-shifting hub repairs it.
        let (action, residual) = filter(CouplerAuthority::SmallShifting).filter(
            &frame,
            SlotIndex::new(1),
            NodeId::new(0),
            true,
            Some(defect),
            None,
        );
        assert_eq!(action, GuardianAction::Reshaped(SosDomain::Time));
        assert_eq!(residual, None);
    }

    #[test]
    fn clean_frames_pass_all_authorities() {
        for auth in CouplerAuthority::all() {
            let frame = iframe(0);
            let (action, residual) =
                filter(auth).filter(&frame, SlotIndex::new(1), NodeId::new(0), true, None, None);
            assert_eq!(action, GuardianAction::Forwarded, "{auth}");
            assert_eq!(residual, None);
        }
    }

    #[test]
    fn action_display_is_informative() {
        let action = GuardianAction::BlockedMasquerade {
            claimed: NodeId::new(3),
            scheduled: NodeId::new(0),
        };
        assert!(action.to_string().contains("masquerade"));
    }
}
