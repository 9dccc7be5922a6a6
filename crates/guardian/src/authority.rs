//! Star-coupler authority levels (paper Section 4.1).

use crate::CouplerFaultMode;
use std::fmt;

/// How much centralized authority a star coupler has been given.
///
/// Each level strictly includes the capabilities of the previous one; each
/// capability enlarges the set of fault modes the coupler can exhibit
/// when *it* fails — the tradeoff the paper quantifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum CouplerAuthority {
    /// Does not stop frames and does not shift frames in time — a plain
    /// signal distributor.
    #[default]
    Passive,
    /// Can open and close bus write access to nodes (TDMA window
    /// enforcement), but cannot shift frames in time.
    TimeWindows,
    /// Same as [`CouplerAuthority::TimeWindows`], plus slight adjustments
    /// to frame timing (e.g. shifting a frame slightly ahead to fit its
    /// window) — requires buffering *less than one frame*.
    SmallShifting,
    /// Same as [`CouplerAuthority::SmallShifting`], plus buffering entire
    /// frames for large timing adjustments — the capability the paper
    /// shows must be prohibited.
    FullShifting,
}

impl CouplerAuthority {
    /// All four levels in increasing order of authority.
    #[must_use]
    pub fn all() -> [CouplerAuthority; 4] {
        [
            CouplerAuthority::Passive,
            CouplerAuthority::TimeWindows,
            CouplerAuthority::SmallShifting,
            CouplerAuthority::FullShifting,
        ]
    }

    /// The underscored spelling of the scenario DSL, the campaign wire
    /// format and every snapshot (`time_windows`); `Display` spaces the
    /// words as the paper does (`time windows`).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            CouplerAuthority::Passive => "passive",
            CouplerAuthority::TimeWindows => "time_windows",
            CouplerAuthority::SmallShifting => "small_shifting",
            CouplerAuthority::FullShifting => "full_shifting",
        }
    }

    /// The level whose [`Self::token`] is `token`, if any.
    #[must_use]
    pub fn from_token(token: &str) -> Option<CouplerAuthority> {
        Self::all().into_iter().find(|a| a.token() == token)
    }

    /// Whether the coupler can block transmissions (cut a babbling node
    /// off outside its slot).
    #[must_use]
    pub fn can_block(self) -> bool {
        self >= CouplerAuthority::TimeWindows
    }

    /// Whether the coupler can make small (sub-frame) timing adjustments,
    /// e.g. to repair time-domain SOS defects.
    #[must_use]
    pub fn can_shift_small(self) -> bool {
        self >= CouplerAuthority::SmallShifting
    }

    /// Whether the coupler can store a complete frame and transmit it at a
    /// later time.
    #[must_use]
    pub fn can_buffer_full_frames(self) -> bool {
        self == CouplerAuthority::FullShifting
    }

    /// The fault modes a coupler of this authority can exhibit
    /// (Section 4.4): every coupler can drop or corrupt traffic; only a
    /// full-shifting coupler can re-send a buffered frame out of its slot,
    /// because only it holds complete frames.
    #[must_use]
    pub fn fault_modes(self) -> Vec<CouplerFaultMode> {
        let mut modes = vec![
            CouplerFaultMode::None,
            CouplerFaultMode::Silence,
            CouplerFaultMode::BadFrame,
        ];
        if self.can_buffer_full_frames() {
            modes.push(CouplerFaultMode::OutOfSlot);
        }
        modes
    }

    /// Whether faults of this coupler stay within TTP/C's *passive
    /// channel* fault hypothesis (channels may corrupt or drop frames but
    /// never generate them). Full-frame buffering breaks the hypothesis.
    #[must_use]
    pub fn preserves_passive_fault_hypothesis(self) -> bool {
        !self.can_buffer_full_frames()
    }
}

impl fmt::Display for CouplerAuthority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CouplerAuthority::Passive => "passive",
            CouplerAuthority::TimeWindows => "time windows",
            CouplerAuthority::SmallShifting => "small shifting",
            CouplerAuthority::FullShifting => "full shifting",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authority_levels_are_strictly_ordered() {
        let all = CouplerAuthority::all();
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn capabilities_are_cumulative() {
        use CouplerAuthority::*;
        assert!(!Passive.can_block());
        assert!(TimeWindows.can_block() && !TimeWindows.can_shift_small());
        assert!(SmallShifting.can_block() && SmallShifting.can_shift_small());
        assert!(!SmallShifting.can_buffer_full_frames());
        assert!(FullShifting.can_block() && FullShifting.can_shift_small());
        assert!(FullShifting.can_buffer_full_frames());
    }

    #[test]
    fn only_full_shifting_exhibits_out_of_slot() {
        for auth in CouplerAuthority::all() {
            let has_oos = auth.fault_modes().contains(&CouplerFaultMode::OutOfSlot);
            assert_eq!(has_oos, auth == CouplerAuthority::FullShifting, "{auth}");
        }
    }

    #[test]
    fn every_authority_can_drop_and_corrupt() {
        for auth in CouplerAuthority::all() {
            let modes = auth.fault_modes();
            assert!(modes.contains(&CouplerFaultMode::Silence));
            assert!(modes.contains(&CouplerFaultMode::BadFrame));
            assert!(modes.contains(&CouplerFaultMode::None));
        }
    }

    #[test]
    fn passive_fault_hypothesis_breaks_exactly_at_full_shifting() {
        use CouplerAuthority::*;
        assert!(Passive.preserves_passive_fault_hypothesis());
        assert!(TimeWindows.preserves_passive_fault_hypothesis());
        assert!(SmallShifting.preserves_passive_fault_hypothesis());
        assert!(!FullShifting.preserves_passive_fault_hypothesis());
    }

    #[test]
    fn display_matches_paper_naming() {
        assert_eq!(CouplerAuthority::FullShifting.to_string(), "full shifting");
        assert_eq!(CouplerAuthority::TimeWindows.to_string(), "time windows");
    }

    #[test]
    fn tokens_round_trip_and_differ_from_display_only_in_underscores() {
        for auth in CouplerAuthority::all() {
            assert_eq!(CouplerAuthority::from_token(auth.token()), Some(auth));
            assert_eq!(auth.token().replace('_', " "), auth.to_string());
        }
        assert_eq!(CouplerAuthority::from_token("time windows"), None);
        assert_eq!(CouplerAuthority::from_token(""), None);
    }
}
