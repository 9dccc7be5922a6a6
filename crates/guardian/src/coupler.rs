//! The star-coupler channel model (paper Section 4.4).
//!
//! Each of the two redundant channels runs through one star coupler. The
//! coupler forwards the frame the slot's sender puts on its input — unless
//! a fault transforms it. A full-shifting coupler additionally remembers
//! the last frame it forwarded (`buffered_id` / `buffered_frame`), which
//! is what a faulty coupler can replay out of slot.

use crate::{CouplerAuthority, CouplerFaultMode};
use std::fmt;
use tta_protocol::ChannelObservation;
use tta_types::FrameKind;

/// The frame a full-shifting coupler holds in its buffer: the paper's
/// `buffered_id` and `buffered_frame` state variables, initialized to
/// `(0, none)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BufferedFrame {
    /// Id of the last frame observed on the channel (0 = none yet).
    pub id: u16,
    /// Kind of the last frame observed on the channel.
    pub kind: FrameKind,
}

impl BufferedFrame {
    /// The empty buffer (`id = 0`, `kind = none`).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the buffer holds a replayable frame.
    #[must_use]
    pub fn is_replayable(self) -> bool {
        self.id != 0 && self.kind.is_traffic() && self.kind != FrameKind::Bad
    }

    /// The observation a replay of this buffer puts on the channel;
    /// silence if nothing replayable is buffered.
    #[must_use]
    pub fn as_observation(self) -> ChannelObservation {
        if self.is_replayable() {
            ChannelObservation::frame(self.kind, self.id)
        } else {
            ChannelObservation::silence()
        }
    }
}

impl fmt::Display for BufferedFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.id == 0 {
            write!(f, "empty")
        } else {
            write!(f, "{}(id={})", self.kind, self.id)
        }
    }
}

/// One star coupler: authority level plus (for full shifting) the frame
/// buffer.
///
/// # Example
///
/// ```
/// use tta_guardian::{CouplerAuthority, CouplerFaultMode, StarCoupler};
/// use tta_protocol::ChannelObservation;
/// use tta_types::FrameKind;
///
/// let mut coupler = StarCoupler::new(CouplerAuthority::FullShifting);
/// let cold_start = ChannelObservation::frame(FrameKind::ColdStart, 1);
///
/// // Fault-free slot: the coupler forwards and buffers the frame.
/// let out = coupler.relay(cold_start, CouplerFaultMode::None);
/// assert_eq!(out, cold_start);
///
/// // Faulty slot: the buffered cold-start frame is replayed out of slot.
/// let replay = coupler.relay(ChannelObservation::silence(), CouplerFaultMode::OutOfSlot);
/// assert_eq!(replay, cold_start);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StarCoupler {
    authority: CouplerAuthority,
    buffer: BufferedFrame,
}

impl StarCoupler {
    /// Creates a coupler of the given authority with an empty buffer.
    #[must_use]
    pub fn new(authority: CouplerAuthority) -> Self {
        StarCoupler {
            authority,
            buffer: BufferedFrame::empty(),
        }
    }

    /// Reconstructs a coupler from its authority and buffer contents —
    /// used by the model checker, which stores coupler buffers in the
    /// packed global state and rebuilds couplers per transition.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty buffer is supplied for an authority that
    /// cannot buffer frames.
    #[must_use]
    pub fn with_buffer(authority: CouplerAuthority, buffer: BufferedFrame) -> Self {
        assert!(
            buffer == BufferedFrame::empty() || authority.can_buffer_full_frames(),
            "{authority} couplers cannot hold a buffered frame"
        );
        StarCoupler { authority, buffer }
    }

    /// The coupler's authority level.
    #[must_use]
    pub fn authority(&self) -> CouplerAuthority {
        self.authority
    }

    /// The current buffer contents (always empty below full shifting).
    #[must_use]
    pub fn buffer(&self) -> BufferedFrame {
        self.buffer
    }

    /// Relays one slot's traffic through the coupler, applying `fault` and
    /// updating the frame buffer. `input` is what the slot's sender put on
    /// the coupler's input port (silence if nobody sends).
    ///
    /// Implements the paper's channel equation:
    ///
    /// ```text
    /// channel_frame = if fault=silence      then none
    ///                 else if fault=bad_frame then bad_frame
    ///                 else if fault=out_of_slot then buffered_frame
    ///                 else input
    /// ```
    ///
    /// and the buffer equation (the buffer latches whatever valid id is
    /// *on the channel*):
    ///
    /// ```text
    /// buffered_id' = if channel_id=0 then buffered_id else channel_id
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `fault` is [`CouplerFaultMode::OutOfSlot`] on a coupler
    /// whose authority cannot buffer frames — such a fault is not
    /// physically possible there, and asking for it indicates a harness
    /// bug rather than a modeled fault.
    pub fn relay(
        &mut self,
        input: ChannelObservation,
        fault: CouplerFaultMode,
    ) -> ChannelObservation {
        assert!(
            fault != CouplerFaultMode::OutOfSlot || self.authority.can_buffer_full_frames(),
            "out_of_slot fault requires full-frame buffering authority ({} has none)",
            self.authority
        );
        let on_channel = match fault {
            CouplerFaultMode::None => input,
            CouplerFaultMode::Silence => ChannelObservation::silence(),
            CouplerFaultMode::BadFrame => ChannelObservation::bad(),
            CouplerFaultMode::OutOfSlot => self.buffer.as_observation(),
        };
        if self.authority.can_buffer_full_frames() && on_channel.id != 0 {
            self.buffer = BufferedFrame {
                id: on_channel.id,
                kind: on_channel.kind,
            };
        }
        on_channel
    }

    /// The fault modes this coupler can exhibit (delegates to its
    /// authority).
    #[must_use]
    pub fn fault_modes(&self) -> Vec<CouplerFaultMode> {
        self.authority.fault_modes()
    }
}

impl fmt::Display for StarCoupler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "coupler[{}, buffer {}]", self.authority, self.buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: FrameKind, id: u16) -> ChannelObservation {
        ChannelObservation::frame(kind, id)
    }

    #[test]
    fn fault_free_coupler_is_transparent() {
        for auth in CouplerAuthority::all() {
            let mut c = StarCoupler::new(auth);
            let input = frame(FrameKind::CState, 3);
            assert_eq!(c.relay(input, CouplerFaultMode::None), input);
            assert_eq!(
                c.relay(ChannelObservation::silence(), CouplerFaultMode::None),
                ChannelObservation::silence()
            );
        }
    }

    #[test]
    fn silence_fault_drops_frames() {
        let mut c = StarCoupler::new(CouplerAuthority::Passive);
        let out = c.relay(frame(FrameKind::ColdStart, 1), CouplerFaultMode::Silence);
        assert_eq!(out, ChannelObservation::silence());
    }

    #[test]
    fn bad_frame_fault_emits_noise_even_on_silence() {
        let mut c = StarCoupler::new(CouplerAuthority::TimeWindows);
        let out = c.relay(ChannelObservation::silence(), CouplerFaultMode::BadFrame);
        assert_eq!(out, ChannelObservation::bad());
    }

    #[test]
    fn only_full_shifting_buffers() {
        for auth in CouplerAuthority::all() {
            let mut c = StarCoupler::new(auth);
            let _ = c.relay(frame(FrameKind::ColdStart, 1), CouplerFaultMode::None);
            let buffered = c.buffer().id != 0;
            assert_eq!(buffered, auth.can_buffer_full_frames(), "{auth}");
        }
    }

    #[test]
    fn replay_reproduces_last_buffered_frame() {
        let mut c = StarCoupler::new(CouplerAuthority::FullShifting);
        let _ = c.relay(frame(FrameKind::ColdStart, 1), CouplerFaultMode::None);
        let _ = c.relay(frame(FrameKind::CState, 2), CouplerFaultMode::None);
        let replay = c.relay(ChannelObservation::silence(), CouplerFaultMode::OutOfSlot);
        assert_eq!(replay, frame(FrameKind::CState, 2));
    }

    #[test]
    fn replay_with_empty_buffer_is_silence() {
        let mut c = StarCoupler::new(CouplerAuthority::FullShifting);
        let out = c.relay(ChannelObservation::silence(), CouplerFaultMode::OutOfSlot);
        assert_eq!(out, ChannelObservation::silence());
    }

    #[test]
    fn silence_on_the_channel_does_not_clear_the_buffer() {
        let mut c = StarCoupler::new(CouplerAuthority::FullShifting);
        let _ = c.relay(frame(FrameKind::ColdStart, 1), CouplerFaultMode::None);
        let _ = c.relay(ChannelObservation::silence(), CouplerFaultMode::None);
        assert_eq!(c.buffer().id, 1);
    }

    #[test]
    fn silence_fault_hides_frame_from_buffer_too() {
        // The buffer latches what is on the *channel*; a silenced frame
        // never reaches it.
        let mut c = StarCoupler::new(CouplerAuthority::FullShifting);
        let _ = c.relay(frame(FrameKind::CState, 4), CouplerFaultMode::Silence);
        assert_eq!(c.buffer(), BufferedFrame::empty());
    }

    #[test]
    fn replay_can_repeat_indefinitely() {
        // The replayed frame is on the channel, so the buffer re-latches
        // it — a stuck coupler can replay the same frame forever (the
        // unconstrained failure the checker's shortest trace exploits).
        let mut c = StarCoupler::new(CouplerAuthority::FullShifting);
        let _ = c.relay(frame(FrameKind::ColdStart, 1), CouplerFaultMode::None);
        for _ in 0..3 {
            let out = c.relay(ChannelObservation::silence(), CouplerFaultMode::OutOfSlot);
            assert_eq!(out, frame(FrameKind::ColdStart, 1));
        }
    }

    #[test]
    #[should_panic(expected = "out_of_slot fault requires")]
    fn out_of_slot_without_authority_is_a_harness_bug() {
        let mut c = StarCoupler::new(CouplerAuthority::SmallShifting);
        let _ = c.relay(ChannelObservation::silence(), CouplerFaultMode::OutOfSlot);
    }

    #[test]
    fn display_shows_buffer() {
        let mut c = StarCoupler::new(CouplerAuthority::FullShifting);
        let _ = c.relay(frame(FrameKind::ColdStart, 1), CouplerFaultMode::None);
        assert!(c.to_string().contains("cold_start(id=1)"));
    }
}
