//! TDMA slot arithmetic and the protocol time base.
//!
//! TTP/C divides time into rounds of statically scheduled slots. The
//! paper's formal model advances one TDMA slot per transition, so slot
//! arithmetic (successor with wrap-around, distance, ownership) is the
//! time base of everything above this crate.

use crate::NodeId;
use std::fmt;

/// One-based index of a slot within a TDMA round.
///
/// The paper follows the TTP/C convention of numbering slots `1..=slots`;
/// the successor of the last slot wraps to `1` (the paper's `next_slot`).
///
/// # Example
///
/// ```
/// use tta_types::SlotIndex;
///
/// let last = SlotIndex::new(4);
/// assert_eq!(last.next(4), SlotIndex::new(1));
/// assert_eq!(SlotIndex::new(2).next(4), SlotIndex::new(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotIndex(u16);

impl SlotIndex {
    /// Creates a slot index.
    ///
    /// # Panics
    ///
    /// Panics if `index == 0`; TTP/C slot numbering is one-based and the
    /// model reserves 0 for "no id observed on the bus".
    #[must_use]
    pub fn new(index: u16) -> Self {
        assert!(index != 0, "slot indices are one-based");
        SlotIndex(index)
    }

    /// Returns the one-based numeric index.
    #[must_use]
    pub fn get(self) -> u16 {
        self.0
    }

    /// Returns the zero-based position, convenient for slice indexing.
    #[must_use]
    pub fn as_offset(self) -> usize {
        usize::from(self.0 - 1)
    }

    /// The paper's `next_slot`: `slot + 1`, wrapping to 1 after
    /// `slots_per_round`.
    ///
    /// # Panics
    ///
    /// Panics if `self` lies outside `1..=slots_per_round`.
    #[must_use]
    pub fn next(self, slots_per_round: u16) -> Self {
        assert!(
            self.0 <= slots_per_round,
            "slot {} outside round of {} slots",
            self.0,
            slots_per_round
        );
        if self.0 == slots_per_round {
            SlotIndex(1)
        } else {
            SlotIndex(self.0 + 1)
        }
    }

    /// Slot that a newly integrating node adopts after observing `self` on
    /// the bus: the paper's `if id_on_bus = slots then 1 else id_on_bus+1`.
    #[must_use]
    pub fn integration_successor(self, slots_per_round: u16) -> Self {
        self.next(slots_per_round)
    }

    /// The slot statically owned by `node` under the identity schedule used
    /// throughout the paper (node *i* sends in slot *i+1*).
    #[must_use]
    pub fn owned_by(node: NodeId) -> Self {
        SlotIndex(u16::from(node.index()) + 1)
    }

    /// Number of slots from `self` to `other` moving forward with
    /// wrap-around.
    ///
    /// # Example
    ///
    /// ```
    /// use tta_types::SlotIndex;
    /// assert_eq!(SlotIndex::new(3).forward_distance(SlotIndex::new(1), 4), 2);
    /// assert_eq!(SlotIndex::new(1).forward_distance(SlotIndex::new(1), 4), 0);
    /// ```
    #[must_use]
    pub fn forward_distance(self, other: SlotIndex, slots_per_round: u16) -> u16 {
        let a = self.0 - 1;
        let b = other.0 - 1;
        (b + slots_per_round - a) % slots_per_round
    }
}

impl fmt::Display for SlotIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}", self.0)
    }
}

/// Round-slot position: the monotone slot counter spanning rounds that
/// cold-start frames carry (9 bits on the wire, per the TTP/C
/// Bus-Compatibility Specification).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RoundSlot(u16);

impl RoundSlot {
    /// Width of the round-slot field in cold-start frames.
    pub const WIRE_BITS: u32 = 9;

    /// Creates a round-slot position.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in the 9-bit wire field.
    #[must_use]
    pub fn new(value: u16) -> Self {
        assert!(
            value < (1 << Self::WIRE_BITS),
            "round-slot {value} exceeds 9-bit wire field"
        );
        RoundSlot(value)
    }

    /// Returns the numeric position.
    #[must_use]
    pub fn get(self) -> u16 {
        self.0
    }

    /// Advances by one slot, wrapping within the 9-bit field.
    #[must_use]
    pub fn advance(self) -> Self {
        RoundSlot((self.0 + 1) % (1 << Self::WIRE_BITS))
    }
}

impl fmt::Display for RoundSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round-slot {}", self.0)
    }
}

/// Global time as carried in explicit C-states and cold-start frames
/// (16 bits on the wire).
///
/// The formal model counts global time in whole TDMA slots; the simulator
/// keeps the same convention so that model and simulation states are
/// directly comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GlobalTime(u16);

impl GlobalTime {
    /// Width of the global-time field on the wire.
    pub const WIRE_BITS: u32 = 16;

    /// Creates a global time value (macroticks = slots in this model).
    #[must_use]
    pub fn new(ticks: u16) -> Self {
        GlobalTime(ticks)
    }

    /// Returns the tick count.
    #[must_use]
    pub fn ticks(self) -> u16 {
        self.0
    }

    /// Advances by one slot, wrapping on field overflow.
    #[must_use]
    pub fn advance(self) -> Self {
        GlobalTime(self.0.wrapping_add(1))
    }

    /// Signed difference `self - other` in ticks, interpreted on the
    /// shortest wrap-around arc. This is the quantity a clock
    /// synchronization service averages.
    #[must_use]
    pub fn difference(self, other: GlobalTime) -> i32 {
        let raw = i32::from(self.0) - i32::from(other.0);
        if raw > i32::from(u16::MAX / 2) {
            raw - i32::from(u16::MAX) - 1
        } else if raw < -i32::from(u16::MAX / 2) {
            raw + i32::from(u16::MAX) + 1
        } else {
            raw
        }
    }
}

impl fmt::Display for GlobalTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_successor_wraps() {
        assert_eq!(SlotIndex::new(1).next(4), SlotIndex::new(2));
        assert_eq!(SlotIndex::new(4).next(4), SlotIndex::new(1));
    }

    #[test]
    #[should_panic(expected = "one-based")]
    fn slot_zero_is_rejected() {
        let _ = SlotIndex::new(0);
    }

    #[test]
    #[should_panic(expected = "outside round")]
    fn next_checks_round_bound() {
        let _ = SlotIndex::new(5).next(4);
    }

    #[test]
    fn ownership_is_identity_schedule() {
        assert_eq!(SlotIndex::owned_by(NodeId::new(0)), SlotIndex::new(1));
        assert_eq!(SlotIndex::owned_by(NodeId::new(3)), SlotIndex::new(4));
    }

    #[test]
    fn forward_distance_wraps() {
        let n = 6;
        assert_eq!(SlotIndex::new(5).forward_distance(SlotIndex::new(2), n), 3);
        assert_eq!(SlotIndex::new(2).forward_distance(SlotIndex::new(5), n), 3);
        assert_eq!(SlotIndex::new(4).forward_distance(SlotIndex::new(4), n), 0);
    }

    #[test]
    fn round_slot_wraps_in_nine_bits() {
        let top = RoundSlot::new(511);
        assert_eq!(top.advance(), RoundSlot::new(0));
    }

    #[test]
    #[should_panic(expected = "9-bit")]
    fn round_slot_rejects_wide_values() {
        let _ = RoundSlot::new(512);
    }

    #[test]
    fn global_time_difference_uses_shortest_arc() {
        let a = GlobalTime::new(5);
        let b = GlobalTime::new(u16::MAX - 2);
        assert_eq!(a.difference(b), 8);
        assert_eq!(b.difference(a), -8);
        assert_eq!(a.difference(a), 0);
    }

    #[test]
    fn global_time_advance_wraps() {
        assert_eq!(GlobalTime::new(u16::MAX).advance(), GlobalTime::new(0));
    }
}
