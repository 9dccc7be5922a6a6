//! TDMA slot arithmetic, the protocol time base.
//!
//! TTP/C divides time into rounds of statically scheduled slots. The
//! paper's formal model advances one TDMA slot per transition, so slot
//! succession with wrap-around is the time base of everything above this
//! crate.

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
}

impl fmt::Display for SlotIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}", self.0)
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
}
