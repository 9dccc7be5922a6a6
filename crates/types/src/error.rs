//! Crate-level error types.

use crate::{NodeId, SlotIndex};
use std::error::Error;
use std::fmt;

/// Errors constructing or consulting a MEDL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MedlError {
    /// The schedule has no slots at all.
    EmptySchedule,
    /// Two slots were assigned to the same sender, which the single-sender
    /// TDMA discipline forbids in this model (multiplexed slots are out of
    /// scope).
    DuplicateSender(NodeId),
    /// A slot index was queried that lies outside the round.
    SlotOutOfRange {
        /// The offending slot.
        slot: SlotIndex,
        /// Slots per round in this MEDL.
        slots_per_round: u16,
    },
    /// A frame length below the minimum protocol frame was configured.
    FrameTooShort {
        /// Configured length in bits.
        bits: u32,
        /// Minimum allowed length in bits.
        min_bits: u32,
    },
}

impl fmt::Display for MedlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MedlError::EmptySchedule => write!(f, "schedule contains no slots"),
            MedlError::DuplicateSender(node) => {
                write!(f, "node {node} is assigned more than one slot")
            }
            MedlError::SlotOutOfRange {
                slot,
                slots_per_round,
            } => {
                write!(f, "{slot} outside round of {slots_per_round} slots")
            }
            MedlError::FrameTooShort { bits, min_bits } => {
                write!(
                    f,
                    "frame length {bits} bits is below the minimum of {min_bits} bits"
                )
            }
        }
    }
}

impl Error for MedlError {}

/// General validation errors for value types in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeError {
    /// A field value exceeded its wire width.
    FieldOverflow {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: u64,
        /// Field width in bits.
        width: u32,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::FieldOverflow {
                field,
                value,
                width,
            } => {
                write!(
                    f,
                    "value {value} does not fit the {width}-bit field `{field}`"
                )
            }
        }
    }
}

impl Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medl_errors_display() {
        assert!(MedlError::EmptySchedule.to_string().contains("no slots"));
        assert!(MedlError::DuplicateSender(NodeId::new(1))
            .to_string()
            .contains('B'));
        let s = MedlError::SlotOutOfRange {
            slot: SlotIndex::new(9),
            slots_per_round: 4,
        }
        .to_string();
        assert!(s.contains("slot 9") && s.contains('4'));
        assert!(MedlError::FrameTooShort {
            bits: 10,
            min_bits: 28
        }
        .to_string()
        .contains("28"));
    }

    #[test]
    fn type_error_displays_field() {
        let e = TypeError::FieldOverflow {
            field: "round_slot",
            value: 600,
            width: 9,
        };
        assert!(e.to_string().contains("round_slot"));
    }
}
