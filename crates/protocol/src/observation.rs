//! What a node sees on the two channels during one TDMA slot.

use std::fmt;
use tta_types::FrameKind;

/// The content of one channel during one slot, as abstracted by the
/// paper's model: a frame kind plus the slot id the frame claims
/// (`id_on_bus`). Silence and bad frames claim no id (0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelObservation {
    /// Frame kind on the channel.
    pub kind: FrameKind,
    /// Slot id claimed by the frame; 0 when no id is carried
    /// ([`FrameKind::None`], [`FrameKind::Bad`]).
    pub id: u16,
}

impl ChannelObservation {
    /// Silence on the channel.
    #[must_use]
    pub fn silence() -> Self {
        ChannelObservation {
            kind: FrameKind::None,
            id: 0,
        }
    }

    /// A bad frame / noise on the channel.
    #[must_use]
    pub fn bad() -> Self {
        ChannelObservation {
            kind: FrameKind::Bad,
            id: 0,
        }
    }

    /// A frame of `kind` claiming slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` carries no id ([`FrameKind::None`],
    /// [`FrameKind::Bad`]) or if `id == 0` for a kind that carries one.
    #[must_use]
    pub fn frame(kind: FrameKind, id: u16) -> Self {
        assert!(
            matches!(
                kind,
                FrameKind::ColdStart | FrameKind::CState | FrameKind::Other
            ),
            "{kind} carries no slot id"
        );
        assert!(id != 0, "frame ids are one-based slot numbers");
        ChannelObservation { kind, id }
    }

    /// How a node whose slot counter reads `believed_slot` judges this
    /// observation.
    #[must_use]
    pub fn judge(self, believed_slot: u16) -> Judgment {
        match self.kind {
            FrameKind::None => Judgment::Null,
            FrameKind::Bad => Judgment::Invalid,
            FrameKind::ColdStart | FrameKind::CState | FrameKind::Other => {
                if self.id == believed_slot {
                    Judgment::Correct
                } else {
                    Judgment::Incorrect
                }
            }
        }
    }
}

impl fmt::Display for ChannelObservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FrameKind::None | FrameKind::Bad => write!(f, "{}", self.kind),
            _ => write!(f, "{}(id={})", self.kind, self.id),
        }
    }
}

/// The verdict a receiver reaches about one slot's traffic on one channel.
///
/// TTP/C distinguishes *null* (silence: neither invalid nor incorrect),
/// *invalid* (coding violations, collisions), *incorrect* (valid but
/// C-state/position disagrees with the receiver) and *correct* frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Judgment {
    /// No activity — does not affect the clique counters.
    Null,
    /// Syntactically bad traffic.
    Invalid,
    /// A valid frame whose claimed position disagrees with the receiver.
    Incorrect,
    /// A valid frame agreeing with the receiver's state.
    Correct,
}

impl Judgment {
    /// Whether this judgment increments the failed-slots counter.
    #[must_use]
    pub fn is_failure(self) -> bool {
        matches!(self, Judgment::Invalid | Judgment::Incorrect)
    }
}

/// Observations on both redundant channels during one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelView {
    /// Channel 0 and channel 1 observations.
    pub channels: [ChannelObservation; 2],
}

impl ChannelView {
    /// Both channels silent.
    #[must_use]
    pub fn silent() -> Self {
        ChannelView::default()
    }

    /// Builds a view from two observations.
    #[must_use]
    pub fn new(ch0: ChannelObservation, ch1: ChannelObservation) -> Self {
        ChannelView {
            channels: [ch0, ch1],
        }
    }

    /// The same frame replicated on both channels (the fault-free case).
    #[must_use]
    pub fn both(obs: ChannelObservation) -> Self {
        ChannelView {
            channels: [obs, obs],
        }
    }

    /// Whether any channel carries a cold-start frame.
    #[must_use]
    pub fn has_cold_start(&self) -> bool {
        self.channels.iter().any(|c| c.kind == FrameKind::ColdStart)
    }

    /// Whether any channel carries an explicit-C-state frame.
    #[must_use]
    pub fn has_cstate(&self) -> bool {
        self.channels.iter().any(|c| c.kind == FrameKind::CState)
    }

    /// Whether any channel carries a regular (no-C-state) frame.
    #[must_use]
    pub fn has_other(&self) -> bool {
        self.channels.iter().any(|c| c.kind == FrameKind::Other)
    }

    /// Whether any channel carries traffic of any kind (including noise).
    #[must_use]
    pub fn has_traffic(&self) -> bool {
        self.channels.iter().any(|c| c.kind.is_traffic())
    }

    /// Frames a listening node may integrate on, in channel order
    /// (cold-start and explicit-C-state frames).
    #[must_use]
    pub fn integration_candidates(&self) -> Vec<ChannelObservation> {
        self.channels
            .iter()
            .copied()
            .filter(|c| c.kind.supports_integration())
            .collect()
    }

    /// Joint judgment over both channels for an integrated receiver: the
    /// slot counts *agreed* if either channel carries a correct frame,
    /// *failed* if there is traffic but no correct frame, and neither on
    /// silence.
    #[must_use]
    pub fn joint_judgment(&self, believed_slot: u16) -> Judgment {
        let j0 = self.channels[0].judge(believed_slot);
        let j1 = self.channels[1].judge(believed_slot);
        if j0 == Judgment::Correct || j1 == Judgment::Correct {
            Judgment::Correct
        } else if j0.is_failure() || j1.is_failure() {
            if j0 == Judgment::Incorrect || j1 == Judgment::Incorrect {
                Judgment::Incorrect
            } else {
                Judgment::Invalid
            }
        } else {
            Judgment::Null
        }
    }
}

impl fmt::Display for ChannelView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[ch0: {}, ch1: {}]", self.channels[0], self.channels[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_is_null() {
        assert_eq!(ChannelObservation::silence().judge(3), Judgment::Null);
    }

    #[test]
    fn bad_frames_are_invalid() {
        assert_eq!(ChannelObservation::bad().judge(3), Judgment::Invalid);
    }

    #[test]
    fn position_match_decides_correctness() {
        let obs = ChannelObservation::frame(FrameKind::CState, 3);
        assert_eq!(obs.judge(3), Judgment::Correct);
        assert_eq!(obs.judge(2), Judgment::Incorrect);
    }

    #[test]
    fn replayed_frame_is_incorrect_for_integrated_receiver() {
        // A frame buffered in slot 1 and replayed in slot 2 claims id 1.
        let replay = ChannelObservation::frame(FrameKind::ColdStart, 1);
        assert_eq!(replay.judge(2), Judgment::Incorrect);
    }

    #[test]
    #[should_panic(expected = "carries no slot id")]
    fn silence_cannot_claim_an_id() {
        let _ = ChannelObservation::frame(FrameKind::None, 1);
    }

    #[test]
    #[should_panic(expected = "one-based")]
    fn id_zero_is_rejected() {
        let _ = ChannelObservation::frame(FrameKind::CState, 0);
    }

    #[test]
    fn joint_judgment_prefers_correct_channel() {
        let good = ChannelObservation::frame(FrameKind::CState, 5);
        let view = ChannelView::new(ChannelObservation::bad(), good);
        assert_eq!(view.joint_judgment(5), Judgment::Correct);
    }

    #[test]
    fn joint_judgment_fails_on_traffic_without_correct_frame() {
        let stale = ChannelObservation::frame(FrameKind::CState, 4);
        let view = ChannelView::new(stale, ChannelObservation::silence());
        assert_eq!(view.joint_judgment(5), Judgment::Incorrect);
        let noisy = ChannelView::new(ChannelObservation::bad(), ChannelObservation::silence());
        assert_eq!(noisy.joint_judgment(5), Judgment::Invalid);
    }

    #[test]
    fn joint_judgment_is_null_on_double_silence() {
        assert_eq!(ChannelView::silent().joint_judgment(1), Judgment::Null);
    }

    #[test]
    fn integration_candidates_exclude_regular_and_bad_frames() {
        let view = ChannelView::new(
            ChannelObservation::frame(FrameKind::Other, 2),
            ChannelObservation::frame(FrameKind::ColdStart, 1),
        );
        let candidates = view.integration_candidates();
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].kind, FrameKind::ColdStart);
    }

    #[test]
    fn predicates_cover_kinds() {
        let view = ChannelView::new(
            ChannelObservation::frame(FrameKind::ColdStart, 1),
            ChannelObservation::frame(FrameKind::CState, 2),
        );
        assert!(view.has_cold_start());
        assert!(view.has_cstate());
        assert!(!view.has_other());
        assert!(view.has_traffic());
        assert!(!ChannelView::silent().has_traffic());
    }

    #[test]
    fn display_is_compact() {
        let view = ChannelView::both(ChannelObservation::frame(FrameKind::CState, 2));
        assert_eq!(view.to_string(), "[ch0: c_state(id=2), ch1: c_state(id=2)]");
    }
}
