//! Message Descriptor List (MEDL): the static TDMA schedule.
//!
//! TTP/C assigns every slot to a sender *prior to system startup* in the
//! MEDL; a node decides when to transmit purely from its own slot counter
//! and the MEDL. The MEDL also records each slot's frame length, which is
//! what couples the Section 6 buffer analysis to the schedule: the
//! guardian's buffer bound depends on the longest and shortest frames the
//! MEDL admits.

use crate::constants::N_FRAME_MIN_BITS;
use crate::{FrameClass, MedlError, NodeId, SlotIndex};
use std::fmt;

/// Description of a single TDMA slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotDescriptor {
    sender: NodeId,
    frame_class: FrameClass,
    frame_bits: u32,
}

impl SlotDescriptor {
    /// Creates a slot descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`MedlError::FrameTooShort`] if `frame_bits` is below the
    /// 28-bit protocol minimum.
    pub fn new(
        sender: NodeId,
        frame_class: FrameClass,
        frame_bits: u32,
    ) -> Result<Self, MedlError> {
        if frame_bits < N_FRAME_MIN_BITS {
            return Err(MedlError::FrameTooShort {
                bits: frame_bits,
                min_bits: N_FRAME_MIN_BITS,
            });
        }
        Ok(SlotDescriptor {
            sender,
            frame_class,
            frame_bits,
        })
    }

    /// Node assigned to send in this slot.
    #[must_use]
    pub fn sender(&self) -> NodeId {
        self.sender
    }

    /// Frame class scheduled for this slot.
    #[must_use]
    pub fn frame_class(&self) -> FrameClass {
        self.frame_class
    }

    /// Scheduled frame length in bits.
    #[must_use]
    pub fn frame_bits(&self) -> u32 {
        self.frame_bits
    }
}

/// The static TDMA schedule shared by all nodes and guardians.
///
/// # Example
///
/// ```
/// use tta_types::{Medl, NodeId, SlotIndex};
///
/// # fn main() -> Result<(), tta_types::MedlError> {
/// let medl = Medl::identity(4)?;
/// assert_eq!(medl.slots_per_round(), 4);
/// assert_eq!(medl.sender_of(SlotIndex::new(3))?, NodeId::new(2));
/// assert_eq!(medl.slot_of(NodeId::new(0)), Some(SlotIndex::new(1)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Medl {
    slots: Vec<SlotDescriptor>,
}

impl Medl {
    /// Builds the identity schedule the paper uses: node *i* owns slot
    /// *i + 1*, every slot carries an explicit-C-state I-frame of the
    /// protocol minimum size.
    ///
    /// # Errors
    ///
    /// Returns [`MedlError::EmptySchedule`] if `nodes == 0`.
    pub fn identity(nodes: usize) -> Result<Self, MedlError> {
        let mut builder = MedlBuilder::new();
        for node in NodeId::first(nodes) {
            builder = builder.slot(
                node,
                FrameClass::IFrame,
                crate::constants::I_FRAME_PROTOCOL_BITS,
            )?;
        }
        builder.build()
    }

    /// Number of slots in one TDMA round.
    #[must_use]
    pub fn slots_per_round(&self) -> u16 {
        self.slots.len() as u16
    }

    /// Descriptor of a slot.
    ///
    /// # Errors
    ///
    /// Returns [`MedlError::SlotOutOfRange`] for slots past the round.
    pub fn descriptor(&self, slot: SlotIndex) -> Result<&SlotDescriptor, MedlError> {
        self.slots
            .get(slot.as_offset())
            .ok_or(MedlError::SlotOutOfRange {
                slot,
                slots_per_round: self.slots_per_round(),
            })
    }

    /// Sender assigned to `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`MedlError::SlotOutOfRange`] for slots past the round.
    pub fn sender_of(&self, slot: SlotIndex) -> Result<NodeId, MedlError> {
        Ok(self.descriptor(slot)?.sender())
    }

    /// The slot owned by `node`, if any.
    #[must_use]
    pub fn slot_of(&self, node: NodeId) -> Option<SlotIndex> {
        self.slots
            .iter()
            .position(|d| d.sender() == node)
            .map(|i| SlotIndex::new(i as u16 + 1))
    }

    /// Longest scheduled frame in bits (the analysis' f_max as configured).
    #[must_use]
    pub fn max_frame_bits(&self) -> u32 {
        self.slots
            .iter()
            .map(SlotDescriptor::frame_bits)
            .max()
            .unwrap_or(0)
    }

    /// Shortest scheduled frame in bits (the analysis' f_min as
    /// configured).
    #[must_use]
    pub fn min_frame_bits(&self) -> u32 {
        self.slots
            .iter()
            .map(SlotDescriptor::frame_bits)
            .min()
            .unwrap_or(0)
    }

    /// Iterates over `(slot, descriptor)` pairs in schedule order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotIndex, &SlotDescriptor)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, d)| (SlotIndex::new(i as u16 + 1), d))
    }
}

impl fmt::Display for Medl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "MEDL ({} slots/round):", self.slots_per_round())?;
        for (slot, d) in self.iter() {
            writeln!(
                f,
                "  {slot}: {} sends {} ({} bits)",
                d.sender(),
                d.frame_class(),
                d.frame_bits()
            )?;
        }
        Ok(())
    }
}

/// Builder for [`Medl`].
#[derive(Debug, Clone, Default)]
pub struct MedlBuilder {
    slots: Vec<SlotDescriptor>,
}

impl MedlBuilder {
    /// Starts an empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a slot for `sender`.
    ///
    /// # Errors
    ///
    /// Returns [`MedlError::DuplicateSender`] if `sender` already owns a
    /// slot, or [`MedlError::FrameTooShort`] for sub-minimum frames.
    pub fn slot(
        mut self,
        sender: NodeId,
        frame_class: FrameClass,
        frame_bits: u32,
    ) -> Result<Self, MedlError> {
        if self.slots.iter().any(|d| d.sender() == sender) {
            return Err(MedlError::DuplicateSender(sender));
        }
        self.slots
            .push(SlotDescriptor::new(sender, frame_class, frame_bits)?);
        Ok(self)
    }

    /// Finalizes the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`MedlError::EmptySchedule`] if no slot was added.
    pub fn build(self) -> Result<Medl, MedlError> {
        if self.slots.is_empty() {
            return Err(MedlError::EmptySchedule);
        }
        Ok(Medl { slots: self.slots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::{I_FRAME_PROTOCOL_BITS, X_FRAME_MAX_BITS};

    #[test]
    fn identity_schedule_matches_paper_convention() {
        let medl = Medl::identity(4).unwrap();
        for node in NodeId::first(4) {
            assert_eq!(medl.slot_of(node), Some(SlotIndex::owned_by(node)));
            assert_eq!(medl.sender_of(SlotIndex::owned_by(node)).unwrap(), node);
        }
    }

    #[test]
    fn empty_schedule_is_rejected() {
        assert_eq!(
            MedlBuilder::new().build().unwrap_err(),
            MedlError::EmptySchedule
        );
        assert_eq!(Medl::identity(0).unwrap_err(), MedlError::EmptySchedule);
    }

    #[test]
    fn duplicate_sender_is_rejected() {
        let err = MedlBuilder::new()
            .slot(NodeId::new(0), FrameClass::IFrame, 76)
            .unwrap()
            .slot(NodeId::new(0), FrameClass::NFrame, 28)
            .unwrap_err();
        assert_eq!(err, MedlError::DuplicateSender(NodeId::new(0)));
    }

    #[test]
    fn sub_minimum_frames_are_rejected() {
        let err = SlotDescriptor::new(NodeId::new(0), FrameClass::NFrame, 27).unwrap_err();
        assert!(matches!(
            err,
            MedlError::FrameTooShort {
                bits: 27,
                min_bits: 28
            }
        ));
    }

    #[test]
    fn out_of_range_slot_is_reported() {
        let medl = Medl::identity(2).unwrap();
        let err = medl.sender_of(SlotIndex::new(3)).unwrap_err();
        assert!(matches!(err, MedlError::SlotOutOfRange { .. }));
    }

    #[test]
    fn frame_extremes_track_configuration() {
        let medl = MedlBuilder::new()
            .slot(NodeId::new(0), FrameClass::NFrame, 28)
            .unwrap()
            .slot(NodeId::new(1), FrameClass::XFrame, X_FRAME_MAX_BITS)
            .unwrap()
            .slot(NodeId::new(2), FrameClass::IFrame, I_FRAME_PROTOCOL_BITS)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(medl.min_frame_bits(), 28);
        assert_eq!(medl.max_frame_bits(), X_FRAME_MAX_BITS);
    }

    #[test]
    fn display_lists_every_slot() {
        let medl = Medl::identity(3).unwrap();
        let s = medl.to_string();
        assert!(s.contains("slot 1") && s.contains("slot 3"));
    }

    #[test]
    fn iter_covers_round_in_order() {
        let medl = Medl::identity(4).unwrap();
        let slots: Vec<u16> = medl.iter().map(|(s, _)| s.get()).collect();
        assert_eq!(slots, [1, 2, 3, 4]);
    }
}
