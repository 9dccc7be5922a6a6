//! Bit-level frame encoding and decoding.
//!
//! ## Wire layout (this model)
//!
//! ```text
//! header : 3-bit class tag | 6-bit sender id | 4-bit mode change request
//! N-frame      : header | data ...                          | 24-bit CRC*
//! I-frame      : header | C-state (92)                      | 24-bit CRC
//! X-frame      : header | C-state (92) | 16-bit len | data  | 24-bit CRC
//! cold-start   : header | 16-bit time  | 9-bit round slot   | 24-bit CRC
//! C-state (92) : 16-bit time | 9-bit round slot | 3-bit mode | 64-bit membership
//! * N-frame CRC is seeded with the sender's (untransmitted) C-state.
//! ```
//!
//! The layout follows the TTP/C field inventory the paper cites (global
//! time 16 bits, round slot 9 bits, membership as a vector, 24-bit CRC).
//! Exact header widths differ from the TTTech silicon; the Section 6
//! analysis therefore uses the paper's published frame-size *constants*
//! ([`crate::constants`]) rather than sizes derived from this codec.

use crate::{BitVec, CState, Crc24, Frame, FrameClass, MembershipVector, NodeId};
use std::error::Error;
use std::fmt;

const TAG_BITS: u32 = 3;
const SENDER_BITS: u32 = 6;
const MCR_BITS: u32 = 4;
const DATA_LEN_BITS: u32 = 16;
const CRC_BITS: u32 = 24;

const TAG_N: u64 = 0b001;
const TAG_I: u64 = 0b010;
const TAG_X: u64 = 0b011;
const TAG_COLD_START: u64 = 0b100;

/// Errors produced while building, encoding or decoding frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// An I-, X- or cold-start frame was built without a C-state.
    MissingCState(FrameClass),
    /// A field was supplied that the frame class cannot carry.
    UnexpectedField {
        /// The offending class.
        class: FrameClass,
        /// Human-readable field name.
        field: &'static str,
    },
    /// The bit stream ended before the expected end of a field.
    Truncated {
        /// Bits that were needed.
        needed: usize,
        /// Bits that were available.
        available: usize,
    },
    /// The class tag is not one of the four known frame classes.
    UnknownClassTag(u8),
    /// The transmitted CRC does not cover the received body (only
    /// checkable at decode time for explicit-C-state classes).
    CrcMismatch {
        /// CRC recomputed over the body.
        computed: u32,
        /// CRC found on the wire.
        transmitted: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::MissingCState(class) => {
                write!(f, "{class} requires a C-state")
            }
            CodecError::UnexpectedField { class, field } => {
                write!(f, "{class} cannot carry {field}")
            }
            CodecError::Truncated { needed, available } => {
                write!(
                    f,
                    "bit stream truncated: needed {needed} bits, had {available}"
                )
            }
            CodecError::UnknownClassTag(tag) => write!(f, "unknown frame class tag {tag:#b}"),
            CodecError::CrcMismatch {
                computed,
                transmitted,
            } => write!(
                f,
                "crc mismatch: computed {computed:#08x}, transmitted {transmitted:#08x}"
            ),
        }
    }
}

impl Error for CodecError {}

fn tag_of(class: FrameClass) -> u64 {
    match class {
        FrameClass::NFrame => TAG_N,
        FrameClass::IFrame => TAG_I,
        FrameClass::XFrame => TAG_X,
        FrameClass::ColdStart => TAG_COLD_START,
    }
}

fn class_of(tag: u64) -> Result<FrameClass, CodecError> {
    match tag {
        TAG_N => Ok(FrameClass::NFrame),
        TAG_I => Ok(FrameClass::IFrame),
        TAG_X => Ok(FrameClass::XFrame),
        TAG_COLD_START => Ok(FrameClass::ColdStart),
        other => Err(CodecError::UnknownClassTag(other as u8)),
    }
}

fn push_cstate(bits: &mut BitVec, cstate: &CState) {
    bits.push_bits(u64::from(cstate.global_time().ticks()), 16);
    bits.push_bits(u64::from(cstate.round_slot().get()), 9);
    bits.push_bits(u64::from(cstate.mode().get()), 3);
    bits.push_bits(cstate.membership().bits(), 64);
}

/// Computes the CRC over a frame's body (everything before the CRC field).
///
/// For N-frames the CRC is additionally seeded with `implicit_cstate`; for
/// other classes the seed is ignored.
#[must_use]
pub fn body_crc(frame: &Frame, implicit_cstate: Option<&CState>) -> u32 {
    let mut crc = Crc24::new();
    if frame.class() == FrameClass::NFrame {
        if let Some(cs) = implicit_cstate {
            crc = cs.seed_crc(crc);
        }
    }
    let body = encode_body(frame);
    crc.digest_bits(&body).finish()
}

fn encode_body(frame: &Frame) -> BitVec {
    let mut bits = BitVec::with_capacity(160 + frame.data().len());
    bits.push_bits(tag_of(frame.class()), TAG_BITS);
    bits.push_bits(u64::from(frame.sender().index()), SENDER_BITS);
    bits.push_bits(u64::from(frame.mode_change_request()), MCR_BITS);
    match frame.class() {
        FrameClass::NFrame => {
            bits.extend_from(frame.data());
        }
        FrameClass::IFrame => {
            push_cstate(&mut bits, frame.cstate().expect("I-frame has C-state"));
        }
        FrameClass::XFrame => {
            push_cstate(&mut bits, frame.cstate().expect("X-frame has C-state"));
            bits.push_bits(frame.data().len() as u64, DATA_LEN_BITS);
            bits.extend_from(frame.data());
        }
        FrameClass::ColdStart => {
            let cs = frame.cstate().expect("cold-start frame has C-state");
            bits.push_bits(u64::from(cs.global_time().ticks()), 16);
            bits.push_bits(u64::from(cs.round_slot().get()), 9);
        }
    }
    bits
}

/// Serializes a frame to its wire bits (body followed by CRC).
#[must_use]
pub fn encode_frame(frame: &Frame) -> BitVec {
    let mut bits = encode_body(frame);
    bits.push_bits(u64::from(frame.crc()), CRC_BITS);
    bits
}

struct Reader<'a> {
    bits: &'a BitVec,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, width: u32) -> Result<u64, CodecError> {
        if self.pos + width as usize > self.bits.len() {
            return Err(CodecError::Truncated {
                needed: self.pos + width as usize,
                available: self.bits.len(),
            });
        }
        let value = self.bits.read_bits(self.pos, width);
        self.pos += width as usize;
        Ok(value)
    }

    fn take_vec(&mut self, nbits: usize) -> Result<BitVec, CodecError> {
        if self.pos + nbits > self.bits.len() {
            return Err(CodecError::Truncated {
                needed: self.pos + nbits,
                available: self.bits.len(),
            });
        }
        let mut out = BitVec::with_capacity(nbits);
        for i in 0..nbits {
            out.push(self.bits.bit(self.pos + i));
        }
        self.pos += nbits;
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }
}

/// Parses a frame from wire bits.
///
/// The CRC of explicit-C-state classes (I-, X-, cold-start frames) is
/// verified during decode; N-frame CRCs need the receiver's C-state and are
/// checked later via [`Frame::verify_crc`].
///
/// # Errors
///
/// Returns [`CodecError::Truncated`], [`CodecError::UnknownClassTag`] or
/// [`CodecError::CrcMismatch`] on malformed input.
pub fn decode_frame(bits: &BitVec) -> Result<Frame, CodecError> {
    let mut r = Reader { bits, pos: 0 };
    let class = class_of(r.take(TAG_BITS)?)?;
    let sender_raw = r.take(SENDER_BITS)? as u8;
    let sender = NodeId::new(sender_raw);
    let mcr = r.take(MCR_BITS)? as u8;

    let (cstate, data) = match class {
        FrameClass::NFrame => {
            let payload_bits = r.remaining().saturating_sub(CRC_BITS as usize);
            (None, r.take_vec(payload_bits)?)
        }
        FrameClass::IFrame => (Some(read_cstate(&mut r)?), BitVec::new()),
        FrameClass::XFrame => {
            let cs = read_cstate(&mut r)?;
            let len = r.take(DATA_LEN_BITS)? as usize;
            (Some(cs), r.take_vec(len)?)
        }
        FrameClass::ColdStart => {
            let time = r.take(16)? as u16;
            let round_slot = r.take(9)? as u16;
            (
                Some(CState::new(time, round_slot, 0, MembershipVector::new())),
                BitVec::new(),
            )
        }
    };
    let crc = r.take(CRC_BITS)? as u32;

    let frame = Frame::from_parts(class, sender, mcr, cstate, data, crc);
    if class != FrameClass::NFrame {
        let computed = body_crc(&frame, None);
        if computed != crc {
            return Err(CodecError::CrcMismatch {
                computed,
                transmitted: crc,
            });
        }
    }
    Ok(frame)
}

fn read_cstate(r: &mut Reader<'_>) -> Result<CState, CodecError> {
    let time = r.take(16)? as u16;
    let round_slot = r.take(9)? as u16;
    let mode = r.take(3)? as u8;
    let membership = MembershipVector::from_bits(r.take(64)?);
    Ok(CState::new(time, round_slot, mode, membership))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::n_frame;
    use crate::FrameBuilder;

    fn cstate() -> CState {
        CState::new(1000, 7, 2, MembershipVector::with_members([0, 1, 3]))
    }

    #[test]
    fn iframe_round_trips() {
        let frame = FrameBuilder::new(FrameClass::IFrame, NodeId::new(3))
            .mode_change_request(5)
            .cstate(cstate())
            .build()
            .unwrap();
        let decoded = decode_frame(&frame.encode()).unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn xframe_round_trips_with_data() {
        let frame = FrameBuilder::new(FrameClass::XFrame, NodeId::new(1))
            .cstate(cstate())
            .data_bits(&[1, 2, 3, 4, 5])
            .build()
            .unwrap();
        let decoded = decode_frame(&frame.encode()).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(decoded.data().len(), 40);
    }

    #[test]
    fn cold_start_round_trips() {
        let frame = FrameBuilder::new(FrameClass::ColdStart, NodeId::new(0))
            .cold_start(17, 1)
            .build()
            .unwrap();
        let decoded = decode_frame(&frame.encode()).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(decoded.cstate().unwrap().global_time().ticks(), 17);
    }

    #[test]
    fn nframe_round_trips_and_verifies_with_matching_cstate() {
        let cs = cstate();
        let frame = n_frame(NodeId::new(2), &cs, &[0xCA, 0xFE]).unwrap();
        let decoded = decode_frame(&frame.encode()).unwrap();
        assert_eq!(decoded, frame);
        assert!(decoded.verify_crc(Some(&cs)));
        assert!(!decoded.verify_crc(Some(&cs.advance_slot())));
    }

    #[test]
    fn empty_nframe_round_trips() {
        let cs = cstate();
        let frame = n_frame(NodeId::new(0), &cs, &[]).unwrap();
        let decoded = decode_frame(&frame.encode()).unwrap();
        assert_eq!(decoded, frame);
        assert!(decoded.data().is_empty());
    }

    #[test]
    fn corrupted_explicit_frame_is_rejected() {
        let frame = FrameBuilder::new(FrameClass::IFrame, NodeId::new(3))
            .cstate(cstate())
            .build()
            .unwrap();
        let mut bits = frame.encode();
        bits.flip(20);
        assert!(matches!(
            decode_frame(&bits),
            Err(CodecError::CrcMismatch { .. }) | Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let frame = FrameBuilder::new(FrameClass::ColdStart, NodeId::new(0))
            .cold_start(0, 1)
            .build()
            .unwrap();
        let bits = frame.encode();
        let mut short = BitVec::new();
        for i in 0..bits.len() - 10 {
            short.push(bits.bit(i));
        }
        assert!(matches!(
            decode_frame(&short),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut bits = BitVec::new();
        bits.push_bits(0b111, 3);
        bits.push_bits(0, 60);
        assert!(matches!(
            decode_frame(&bits),
            Err(CodecError::UnknownClassTag(0b111))
        ));
    }

    #[test]
    fn wire_sizes_are_stable() {
        // Pin the codec's frame sizes so accidental layout changes surface.
        let cold = FrameBuilder::new(FrameClass::ColdStart, NodeId::new(0))
            .cold_start(0, 1)
            .build()
            .unwrap();
        assert_eq!(cold.bit_len(), 13 + 16 + 9 + 24);
        let iframe = FrameBuilder::new(FrameClass::IFrame, NodeId::new(0))
            .cstate(cstate())
            .build()
            .unwrap();
        assert_eq!(iframe.bit_len(), 13 + 92 + 24);
        let empty_n = n_frame(NodeId::new(0), &cstate(), &[]).unwrap();
        assert_eq!(empty_n.bit_len(), 13 + 24);
    }

    #[test]
    fn error_display_is_informative() {
        let err = CodecError::Truncated {
            needed: 10,
            available: 4,
        };
        assert!(err.to_string().contains("truncated"));
        let err = CodecError::UnknownClassTag(7);
        assert!(err.to_string().contains("0b111"));
    }
}
