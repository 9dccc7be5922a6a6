//! Coupler fault modes (paper Section 4.4).

use std::fmt;

/// The error state of one star coupler during one TDMA slot.
///
/// The fault hypothesis requires that at most one of the two redundant
/// couplers is faulty at a time (`couplerA.fault = none ∨
/// couplerB.fault = none`); the cluster model enforces that constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum CouplerFaultMode {
    /// Error-free operation.
    #[default]
    None,
    /// Replaces whatever is sent on the coupler's channel by silence.
    Silence,
    /// Places a bad frame or noise on the bus, regardless of whether a
    /// frame was sent.
    BadFrame,
    /// Re-sends the last frame the coupler received — only possible for a
    /// coupler authorized to buffer entire frames.
    OutOfSlot,
}

impl CouplerFaultMode {
    /// All four modes.
    #[must_use]
    pub fn all() -> [CouplerFaultMode; 4] {
        [
            CouplerFaultMode::None,
            CouplerFaultMode::Silence,
            CouplerFaultMode::BadFrame,
            CouplerFaultMode::OutOfSlot,
        ]
    }

    /// Whether this mode stays within TTP/C's passive-channel fault
    /// hypothesis (corrupting or dropping frames, never generating them).
    #[must_use]
    pub fn is_passive(self) -> bool {
        !matches!(self, CouplerFaultMode::OutOfSlot)
    }

    /// Whether the coupler is faulty at all this slot.
    #[must_use]
    pub fn is_faulty(self) -> bool {
        self != CouplerFaultMode::None
    }

    /// The mode whose `Display` spelling (`bad_frame`, also the scenario
    /// DSL's and the campaign wire format's) is `token`, if any.
    #[must_use]
    pub fn from_token(token: &str) -> Option<CouplerFaultMode> {
        Self::all().into_iter().find(|m| m.to_string() == token)
    }
}

impl fmt::Display for CouplerFaultMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CouplerFaultMode::None => "none",
            CouplerFaultMode::Silence => "silence",
            CouplerFaultMode::BadFrame => "bad_frame",
            CouplerFaultMode::OutOfSlot => "out_of_slot",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_slot_is_the_only_active_fault() {
        for mode in CouplerFaultMode::all() {
            assert_eq!(mode.is_passive(), mode != CouplerFaultMode::OutOfSlot);
        }
    }

    #[test]
    fn none_is_not_faulty() {
        assert!(!CouplerFaultMode::None.is_faulty());
        assert!(CouplerFaultMode::Silence.is_faulty());
        assert!(CouplerFaultMode::BadFrame.is_faulty());
        assert!(CouplerFaultMode::OutOfSlot.is_faulty());
    }

    #[test]
    fn display_matches_paper_naming() {
        assert_eq!(CouplerFaultMode::OutOfSlot.to_string(), "out_of_slot");
        assert_eq!(CouplerFaultMode::BadFrame.to_string(), "bad_frame");
    }

    #[test]
    fn display_round_trips_through_from_token() {
        for mode in CouplerFaultMode::all() {
            assert_eq!(CouplerFaultMode::from_token(&mode.to_string()), Some(mode));
        }
        assert_eq!(CouplerFaultMode::from_token("bad frame"), None);
    }
}
