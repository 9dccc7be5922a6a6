//! Frames: the abstract channel alphabet of the formal model and the
//! bit-accurate wire frames of the simulator.
//!
//! The paper's Section 4 model observes the channel through a five-letter
//! alphabet ([`FrameKind`]): silence, a cold-start frame, a frame with
//! explicit C-state, a bad frame, or a regular frame without explicit
//! C-state. The simulator additionally exchanges real bit-encoded frames
//! ([`Frame`]) in the four TTP/C frame classes ([`FrameClass`]).

use crate::codec;
use crate::{BitVec, CState, CodecError, MembershipVector, NodeId};
use std::fmt;

/// The channel alphabet of the paper's formal model (Section 4.3).
///
/// One value of this enum is "on" each channel in every TDMA slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum FrameKind {
    /// Silence: no activity observed during the slot (`none`). A silent
    /// slot is *null* — neither invalid nor incorrect.
    #[default]
    None,
    /// A cold-start frame signalling the start of a TDMA round
    /// (`cold_start`).
    ColdStart,
    /// A frame carrying an explicit C-state, used for immediate
    /// integration (`c_state`).
    CState,
    /// A syntactically bad frame or noise (`bad_frame`).
    Bad,
    /// A regular frame without explicit C-state (`other`).
    Other,
}

impl FrameKind {
    /// Whether the slot carried any activity at all.
    #[must_use]
    pub fn is_traffic(self) -> bool {
        self != FrameKind::None
    }

    /// Whether a node in the `listen` state resets its timeout on this
    /// observation (the paper resets on cold-start and regular frames).
    #[must_use]
    pub fn resets_listen_timeout(self) -> bool {
        matches!(self, FrameKind::ColdStart | FrameKind::Other)
    }

    /// Whether a listening node may integrate on this frame.
    #[must_use]
    pub fn supports_integration(self) -> bool {
        matches!(self, FrameKind::ColdStart | FrameKind::CState)
    }

    /// All alphabet letters, useful for exhaustive enumeration in the
    /// model checker and in tests.
    #[must_use]
    pub fn all() -> [FrameKind; 5] {
        [
            FrameKind::None,
            FrameKind::ColdStart,
            FrameKind::CState,
            FrameKind::Bad,
            FrameKind::Other,
        ]
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FrameKind::None => "none",
            FrameKind::ColdStart => "cold_start",
            FrameKind::CState => "c_state",
            FrameKind::Bad => "bad_frame",
            FrameKind::Other => "other",
        };
        f.write_str(name)
    }
}

/// The four TTP/C frame classes of the Bus-Compatibility Specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FrameClass {
    /// N-frame: application data with *implicit* C-state (the C-state is
    /// mixed into the CRC but not transmitted).
    NFrame,
    /// I-frame: explicit C-state, no application data; used for
    /// (re)integration.
    IFrame,
    /// X-frame: explicit C-state *and* application data.
    XFrame,
    /// Cold-start frame: announces global time and round-slot position
    /// during startup.
    ColdStart,
}

impl FrameClass {
    /// The abstract alphabet letter a receiver maps this class to.
    #[must_use]
    pub fn kind(self) -> FrameKind {
        match self {
            FrameClass::NFrame => FrameKind::Other,
            FrameClass::IFrame | FrameClass::XFrame => FrameKind::CState,
            FrameClass::ColdStart => FrameKind::ColdStart,
        }
    }
}

impl fmt::Display for FrameClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FrameClass::NFrame => "N-frame",
            FrameClass::IFrame => "I-frame",
            FrameClass::XFrame => "X-frame",
            FrameClass::ColdStart => "cold-start frame",
        };
        f.write_str(name)
    }
}

/// A bit-accurate TTP/C frame.
///
/// Note on fidelity: real TTP/C does not transmit a sender id in N-frames —
/// the sender is implied by the slot. This model *does* carry a 6-bit
/// sender field in every header so that masquerading (a frame whose claimed
/// identity disagrees with its slot) is an explicit, checkable wire
/// property, which is what the central guardian's semantic analysis
/// inspects. The frame-size constants used by the Section 6 analysis live
/// in [`crate::constants`] and are taken verbatim from the paper, not from
/// this codec.
///
/// # Example
///
/// ```
/// use tta_types::{FrameBuilder, FrameClass, FrameKind, NodeId};
///
/// # fn main() -> Result<(), tta_types::CodecError> {
/// let frame = FrameBuilder::new(FrameClass::ColdStart, NodeId::new(0))
///     .cold_start(0, 1)
///     .build()?;
/// assert_eq!(frame.kind(), FrameKind::ColdStart);
/// assert!(frame.verify_crc(None));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    class: FrameClass,
    sender: NodeId,
    mode_change_request: u8,
    cstate: Option<CState>,
    data: BitVec,
    crc: u32,
}

impl Frame {
    pub(crate) fn from_parts(
        class: FrameClass,
        sender: NodeId,
        mode_change_request: u8,
        cstate: Option<CState>,
        data: BitVec,
        crc: u32,
    ) -> Self {
        Frame {
            class,
            sender,
            mode_change_request,
            cstate,
            data,
            crc,
        }
    }

    /// Frame class on the wire.
    #[must_use]
    pub fn class(&self) -> FrameClass {
        self.class
    }

    /// Claimed sender identity.
    #[must_use]
    pub fn sender(&self) -> NodeId {
        self.sender
    }

    /// Mode change request field (4 bits).
    #[must_use]
    pub fn mode_change_request(&self) -> u8 {
        self.mode_change_request
    }

    /// Explicit C-state, if the class carries one. Cold-start frames carry
    /// a partial C-state (time and round slot only, other fields zero).
    #[must_use]
    pub fn cstate(&self) -> Option<&CState> {
        self.cstate.as_ref()
    }

    /// Application data bits (N- and X-frames).
    #[must_use]
    pub fn data(&self) -> &BitVec {
        &self.data
    }

    /// CRC as transmitted.
    #[must_use]
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// Abstract alphabet letter for the formal model.
    #[must_use]
    pub fn kind(&self) -> FrameKind {
        self.class.kind()
    }

    /// Serializes the frame to its wire bits.
    #[must_use]
    pub fn encode(&self) -> BitVec {
        codec::encode_frame(self)
    }

    /// Total frame length on the wire in bits (excluding line encoding
    /// overhead, which the Section 6 analysis accounts for separately).
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.encode().len()
    }

    /// Recomputes the CRC over the frame body and compares it with the
    /// transmitted one.
    ///
    /// For N-frames the C-state is implicit: pass the *receiver's* C-state
    /// as the seed. A receiver whose C-state differs from the sender's sees
    /// a mismatch — this is how implicit C-state frames are judged
    /// incorrect. Explicit-C-state classes ignore the seed.
    #[must_use]
    pub fn verify_crc(&self, receiver_cstate: Option<&CState>) -> bool {
        codec::body_crc(self, receiver_cstate) == self.crc
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} from {} ({} bits)",
            self.class,
            self.sender,
            self.bit_len()
        )
    }
}

/// Builder for [`Frame`], computing the CRC at build time.
///
/// # Example
///
/// ```
/// use tta_types::{CState, FrameBuilder, FrameClass, MembershipVector, NodeId};
///
/// # fn main() -> Result<(), tta_types::CodecError> {
/// let cs = CState::new(9, 2, 0, MembershipVector::full(4));
/// let frame = FrameBuilder::new(FrameClass::XFrame, NodeId::new(1))
///     .cstate(cs)
///     .data_bits(&[0xDE, 0xAD])
///     .build()?;
/// assert_eq!(frame.cstate(), Some(&cs));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FrameBuilder {
    class: FrameClass,
    sender: NodeId,
    mode_change_request: u8,
    cstate: Option<CState>,
    implicit_cstate: Option<CState>,
    data: BitVec,
}

impl FrameBuilder {
    /// Starts a frame of the given class from the given sender.
    #[must_use]
    pub fn new(class: FrameClass, sender: NodeId) -> Self {
        FrameBuilder {
            class,
            sender,
            mode_change_request: 0,
            cstate: None,
            implicit_cstate: None,
            data: BitVec::new(),
        }
    }

    /// Sets the mode change request field (low 4 bits used).
    #[must_use]
    pub fn mode_change_request(mut self, mcr: u8) -> Self {
        self.mode_change_request = mcr & 0xF;
        self
    }

    /// Sets the explicit C-state (I- and X-frames).
    #[must_use]
    pub fn cstate(mut self, cstate: CState) -> Self {
        self.cstate = Some(cstate);
        self
    }

    /// Sets the cold-start announcement: global time and round-slot
    /// position. Only meaningful for [`FrameClass::ColdStart`].
    #[must_use]
    pub fn cold_start(mut self, global_time: u16, round_slot: u16) -> Self {
        self.cstate = Some(CState::new(
            global_time,
            round_slot,
            0,
            MembershipVector::new(),
        ));
        self
    }

    /// Seeds the CRC with the sender's C-state without transmitting it
    /// (N-frames' implicit C-state).
    #[must_use]
    pub fn implicit_cstate(mut self, cstate: CState) -> Self {
        self.implicit_cstate = Some(cstate);
        self
    }

    /// Appends whole bytes of application data.
    #[must_use]
    pub fn data_bits(mut self, bytes: &[u8]) -> Self {
        for byte in bytes {
            self.data.push_bits(u64::from(*byte), 8);
        }
        self
    }

    /// Appends raw application data bits.
    #[must_use]
    pub fn raw_data(mut self, bits: BitVec) -> Self {
        self.data = bits;
        self
    }

    /// Builds the frame, computing its CRC.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::MissingCState`] if an I-, X- or cold-start
    /// frame has no C-state, [`CodecError::UnexpectedField`] if an N-frame
    /// was given an explicit C-state or a non-data class was given data.
    pub fn build(self) -> Result<Frame, CodecError> {
        match self.class {
            FrameClass::IFrame | FrameClass::XFrame | FrameClass::ColdStart => {
                if self.cstate.is_none() {
                    return Err(CodecError::MissingCState(self.class));
                }
            }
            FrameClass::NFrame => {
                if self.cstate.is_some() {
                    return Err(CodecError::UnexpectedField {
                        class: self.class,
                        field: "explicit C-state",
                    });
                }
            }
        }
        if matches!(self.class, FrameClass::IFrame | FrameClass::ColdStart) && !self.data.is_empty()
        {
            return Err(CodecError::UnexpectedField {
                class: self.class,
                field: "application data",
            });
        }
        // Cold-start frames carry only time and position; normalize so that
        // encode/decode round trips are exact.
        let cstate = match (self.class, self.cstate) {
            (FrameClass::ColdStart, Some(cs)) => Some(CState::new(
                cs.global_time().ticks(),
                cs.round_slot().get(),
                0,
                MembershipVector::new(),
            )),
            (_, cs) => cs,
        };
        let mut frame = Frame {
            class: self.class,
            sender: self.sender,
            mode_change_request: self.mode_change_request,
            cstate,
            data: self.data,
            crc: 0,
        };
        let seed = match self.class {
            FrameClass::NFrame => self.implicit_cstate,
            _ => None,
        };
        frame.crc = codec::body_crc(&frame, seed.as_ref());
        Ok(frame)
    }
}

/// Convenience constructor used throughout tests and examples: an N-frame
/// with `bytes` of payload whose CRC is seeded with the sender's C-state.
///
/// # Errors
///
/// Propagates [`FrameBuilder::build`] errors (none are reachable for this
/// combination of fields).
pub fn n_frame(sender: NodeId, cstate: &CState, bytes: &[u8]) -> Result<Frame, CodecError> {
    FrameBuilder::new(FrameClass::NFrame, sender)
        .implicit_cstate(*cstate)
        .data_bits(bytes)
        .build()
}

impl Frame {
    /// Recomputes a consistent CRC for test doubles. Hidden from docs:
    /// only fault injectors should need to forge CRCs.
    #[doc(hidden)]
    #[must_use]
    pub fn with_forged_crc(mut self, crc: u32) -> Self {
        self.crc = crc & 0x00FF_FFFF;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cstate() -> CState {
        CState::new(42, 3, 1, MembershipVector::full(4))
    }

    #[test]
    fn kind_maps_classes_to_alphabet() {
        assert_eq!(FrameClass::NFrame.kind(), FrameKind::Other);
        assert_eq!(FrameClass::IFrame.kind(), FrameKind::CState);
        assert_eq!(FrameClass::XFrame.kind(), FrameKind::CState);
        assert_eq!(FrameClass::ColdStart.kind(), FrameKind::ColdStart);
    }

    #[test]
    fn alphabet_properties_match_paper() {
        assert!(!FrameKind::None.is_traffic());
        assert!(FrameKind::Bad.is_traffic());
        assert!(FrameKind::ColdStart.resets_listen_timeout());
        assert!(FrameKind::Other.resets_listen_timeout());
        assert!(!FrameKind::CState.resets_listen_timeout());
        assert!(!FrameKind::Bad.resets_listen_timeout());
        assert!(FrameKind::ColdStart.supports_integration());
        assert!(FrameKind::CState.supports_integration());
        assert!(!FrameKind::Other.supports_integration());
    }

    #[test]
    fn all_lists_five_letters() {
        let letters = FrameKind::all();
        assert_eq!(letters.len(), 5);
        let unique: std::collections::HashSet<_> = letters.iter().collect();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn iframe_requires_cstate() {
        let err = FrameBuilder::new(FrameClass::IFrame, NodeId::new(0)).build();
        assert!(matches!(
            err,
            Err(CodecError::MissingCState(FrameClass::IFrame))
        ));
    }

    #[test]
    fn nframe_rejects_explicit_cstate() {
        let err = FrameBuilder::new(FrameClass::NFrame, NodeId::new(0))
            .cstate(cstate())
            .build();
        assert!(matches!(err, Err(CodecError::UnexpectedField { .. })));
    }

    #[test]
    fn iframe_rejects_data() {
        let err = FrameBuilder::new(FrameClass::IFrame, NodeId::new(0))
            .cstate(cstate())
            .data_bits(&[1])
            .build();
        assert!(matches!(err, Err(CodecError::UnexpectedField { .. })));
    }

    #[test]
    fn cold_start_normalizes_cstate() {
        let frame = FrameBuilder::new(FrameClass::ColdStart, NodeId::new(2))
            .cstate(cstate())
            .build()
            .unwrap();
        let cs = frame.cstate().unwrap();
        assert_eq!(cs.global_time().ticks(), 42);
        assert_eq!(cs.round_slot().get(), 3);
        assert_eq!(cs.mode().get(), 0);
        assert!(cs.membership().is_empty());
    }

    #[test]
    fn explicit_frames_verify_without_seed() {
        let frame = FrameBuilder::new(FrameClass::IFrame, NodeId::new(1))
            .cstate(cstate())
            .build()
            .unwrap();
        assert!(frame.verify_crc(None));
        assert!(frame.verify_crc(Some(&cstate()))); // seed ignored
    }

    #[test]
    fn nframe_crc_is_cstate_dependent() {
        let cs = cstate();
        let frame = n_frame(NodeId::new(0), &cs, &[0xAA, 0xBB]).unwrap();
        assert!(frame.verify_crc(Some(&cs)));
        assert!(!frame.verify_crc(Some(&cs.advance_slot())));
        assert!(!frame.verify_crc(None));
    }

    #[test]
    fn forged_crc_fails_verification() {
        let frame = FrameBuilder::new(FrameClass::IFrame, NodeId::new(1))
            .cstate(cstate())
            .build()
            .unwrap();
        let good_crc = frame.crc();
        let forged = frame.with_forged_crc(good_crc ^ 1);
        assert!(!forged.verify_crc(None));
    }

    #[test]
    fn display_includes_class_and_sender() {
        let frame = FrameBuilder::new(FrameClass::ColdStart, NodeId::new(0))
            .cold_start(0, 1)
            .build()
            .unwrap();
        let s = frame.to_string();
        assert!(s.contains("cold-start") && s.contains('A'));
    }

    #[test]
    fn mcr_is_masked_to_four_bits() {
        let frame = FrameBuilder::new(FrameClass::ColdStart, NodeId::new(0))
            .mode_change_request(0xFF)
            .cold_start(0, 1)
            .build()
            .unwrap();
        assert_eq!(frame.mode_change_request(), 0xF);
    }
}
