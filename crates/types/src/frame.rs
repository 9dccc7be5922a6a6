//! The abstract channel alphabet of the formal model.
//!
//! The paper's Section 4 model observes the channel through a five-letter
//! alphabet ([`FrameKind`]): silence, a cold-start frame, a frame with
//! explicit C-state, a bad frame, or a regular frame without explicit
//! C-state. The simulator's transmissions carry the same letters.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
