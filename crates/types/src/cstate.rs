//! Controller state (C-state).
//!
//! The C-state is the protocol-relevant state a TTP/C controller carries:
//! global time, position in the cluster cycle, the active cluster mode and
//! the membership vector. Receivers judge a frame *correct* only if the
//! sender's C-state matches their own — either compared explicitly
//! (I-/X-frames) or implicitly through the CRC (N-frames). A replayed
//! frame carries a *stale* C-state, which is why the paper's out-of-slot
//! coupler fault is harmless to integrated nodes but fatal to integrating
//! ones: the latter have no C-state of their own to compare against.

use crate::{Crc24, GlobalTime, MembershipVector, RoundSlot};
use std::fmt;

/// Cluster operating mode, carried in the C-state (3 bits in this model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClusterMode(u8);

impl ClusterMode {
    /// Width of the mode field on the wire.
    pub const WIRE_BITS: u32 = 3;

    /// Creates a cluster mode.
    ///
    /// # Panics
    ///
    /// Panics if `mode` does not fit the 3-bit field.
    #[must_use]
    pub fn new(mode: u8) -> Self {
        assert!(mode < 8, "cluster mode {mode} exceeds 3-bit field");
        ClusterMode(mode)
    }

    /// Returns the numeric mode.
    #[must_use]
    pub fn get(self) -> u8 {
        self.0
    }
}

/// The controller state compared by receivers to judge frame correctness.
///
/// # Example
///
/// ```
/// use tta_types::{CState, MembershipVector};
///
/// let mine = CState::new(100, 3, 0, MembershipVector::full(4));
/// let replayed = mine.stale_copy();
/// assert!(!mine.matches(&replayed)); // a replay is always detectably stale
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct CState {
    global_time: GlobalTime,
    round_slot: RoundSlot,
    mode: ClusterMode,
    membership: MembershipVector,
}

impl CState {
    /// Number of C-state bits in the explicit X-frame layout the paper
    /// cites (96 bits).
    pub const WIRE_BITS: u32 = 96;

    /// Creates a C-state.
    ///
    /// # Panics
    ///
    /// Panics if `round_slot` exceeds its 9-bit field or `mode` its 3-bit
    /// field.
    #[must_use]
    pub fn new(global_time: u16, round_slot: u16, mode: u8, membership: MembershipVector) -> Self {
        CState {
            global_time: GlobalTime::new(global_time),
            round_slot: RoundSlot::new(round_slot),
            mode: ClusterMode::new(mode),
            membership,
        }
    }

    /// Global time component.
    #[must_use]
    pub fn global_time(&self) -> GlobalTime {
        self.global_time
    }

    /// Round-slot position component.
    #[must_use]
    pub fn round_slot(&self) -> RoundSlot {
        self.round_slot
    }

    /// Cluster mode component.
    #[must_use]
    pub fn mode(&self) -> ClusterMode {
        self.mode
    }

    /// Membership component.
    #[must_use]
    pub fn membership(&self) -> MembershipVector {
        self.membership
    }

    /// Replaces the membership component.
    #[must_use]
    pub fn with_membership(mut self, membership: MembershipVector) -> Self {
        self.membership = membership;
        self
    }

    /// Advances time and position by one TDMA slot.
    #[must_use]
    pub fn advance_slot(mut self) -> Self {
        self.global_time = self.global_time.advance();
        self.round_slot = self.round_slot.advance();
        self
    }

    /// Whether two C-states agree — the receiver-side correctness check.
    #[must_use]
    pub fn matches(&self, other: &CState) -> bool {
        self == other
    }

    /// Produces the C-state a one-slot-old replay of a frame would carry:
    /// identical except that time and position lag by one slot.
    ///
    /// Used in tests and examples to show why integrated receivers reject
    /// replays while integrating ones cannot.
    #[must_use]
    pub fn stale_copy(&self) -> Self {
        CState {
            global_time: GlobalTime::new(self.global_time.ticks().wrapping_sub(1)),
            round_slot: RoundSlot::new(
                (self.round_slot.get() + (1 << RoundSlot::WIRE_BITS) - 1)
                    % (1 << RoundSlot::WIRE_BITS),
            ),
            mode: self.mode,
            membership: self.membership,
        }
    }

    /// Mixes this C-state into a CRC accumulator — the implicit C-state
    /// scheme of N-frames.
    #[must_use]
    pub fn seed_crc(&self, crc: Crc24) -> Crc24 {
        crc.digest(u64::from(self.global_time.ticks()), GlobalTime::WIRE_BITS)
            .digest(u64::from(self.round_slot.get()), RoundSlot::WIRE_BITS)
            .digest(u64::from(self.mode.get()), ClusterMode::WIRE_BITS)
            .digest(self.membership.bits(), 64)
    }
}

impl fmt::Display for CState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "C-state({}, {}, mode {}, members {})",
            self.global_time,
            self.round_slot,
            self.mode.get(),
            self.membership
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_is_structural_equality() {
        let m = MembershipVector::full(4);
        let a = CState::new(10, 2, 1, m);
        let b = CState::new(10, 2, 1, m);
        assert!(a.matches(&b));
        assert!(!a.matches(&CState::new(11, 2, 1, m)));
        assert!(!a.matches(&CState::new(10, 3, 1, m)));
        assert!(!a.matches(&CState::new(10, 2, 0, m)));
        assert!(!a.matches(&a.with_membership(MembershipVector::full(3))));
    }

    #[test]
    fn advance_slot_moves_time_and_position() {
        let c = CState::new(10, 2, 0, MembershipVector::new()).advance_slot();
        assert_eq!(c.global_time().ticks(), 11);
        assert_eq!(c.round_slot().get(), 3);
    }

    #[test]
    fn stale_copy_is_detectable_and_inverse_of_advance() {
        let c = CState::new(10, 2, 0, MembershipVector::full(4));
        let stale = c.stale_copy();
        assert!(!c.matches(&stale));
        assert!(stale.advance_slot().matches(&c));
    }

    #[test]
    fn stale_copy_wraps_at_field_boundaries() {
        let c = CState::new(0, 0, 0, MembershipVector::new());
        let stale = c.stale_copy();
        assert_eq!(stale.global_time().ticks(), u16::MAX);
        assert_eq!(stale.round_slot().get(), 511);
        assert!(stale.advance_slot().matches(&c));
    }

    #[test]
    fn crc_seed_differs_for_different_cstates() {
        let a = CState::new(10, 2, 0, MembershipVector::full(4));
        let b = a.advance_slot();
        assert_ne!(
            a.seed_crc(Crc24::new()).finish(),
            b.seed_crc(Crc24::new()).finish()
        );
    }

    #[test]
    #[should_panic(expected = "3-bit")]
    fn cluster_mode_is_range_checked() {
        let _ = ClusterMode::new(8);
    }

    #[test]
    fn display_mentions_all_components() {
        let c = CState::new(7, 1, 2, MembershipVector::with_members([0]));
        let s = c.to_string();
        assert!(s.contains("t=7") && s.contains("round-slot 1") && s.contains("mode 2"));
    }
}
