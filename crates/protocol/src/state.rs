//! The nine protocol states of a TTP/C controller.

use std::fmt;

/// The TTP/C controller state machine states (TTP/C High-Level
/// Specification; paper Section 4.3).
///
/// The paper's model gives transition rules for `freeze`, `init`,
/// `listen`, `cold_start`, `active` and `passive`; `await`, `test` and
/// `download` are reachable only by explicit host command and are inert in
/// the model (as in the paper, which leaves them unconstrained).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ProtocolState {
    /// Controller halted; requires host intervention to restart. Initial
    /// state of every node, and the state entered on a clique error.
    #[default]
    Freeze,
    /// Controller initializing (loading the MEDL, self tests).
    Init,
    /// Watching the channels for frames to integrate on.
    Listen,
    /// Attempting to start the cluster by sending cold-start frames.
    ColdStart,
    /// Fully integrated; sends in its own slot.
    Active,
    /// Integrated but silent; receives and keeps time, does not send.
    Passive,
    /// Awaiting host download of configuration (inert here).
    Await,
    /// Built-in self test (inert here).
    Test,
    /// MEDL download in progress (inert here).
    Download,
}

impl ProtocolState {
    /// Whether the node is integrated into the cluster — the antecedent of
    /// the paper's checked property (`state=active ∨ state=passive`).
    #[must_use]
    pub fn is_integrated(self) -> bool {
        matches!(self, ProtocolState::Active | ProtocolState::Passive)
    }

    /// Whether the node maintains a slot counter in this state.
    #[must_use]
    pub fn keeps_slot_counter(self) -> bool {
        matches!(
            self,
            ProtocolState::ColdStart | ProtocolState::Active | ProtocolState::Passive
        )
    }

    /// Whether the node may transmit on the bus in this state.
    #[must_use]
    pub fn may_transmit(self) -> bool {
        matches!(self, ProtocolState::ColdStart | ProtocolState::Active)
    }

    /// Whether the state is one of the host-service states the model keeps
    /// inert (`await`, `test`, `download`).
    #[must_use]
    pub fn is_inert(self) -> bool {
        matches!(
            self,
            ProtocolState::Await | ProtocolState::Test | ProtocolState::Download
        )
    }

    /// All nine states, for exhaustive enumeration in tests.
    #[must_use]
    pub fn all() -> [ProtocolState; 9] {
        [
            ProtocolState::Freeze,
            ProtocolState::Init,
            ProtocolState::Listen,
            ProtocolState::ColdStart,
            ProtocolState::Active,
            ProtocolState::Passive,
            ProtocolState::Await,
            ProtocolState::Test,
            ProtocolState::Download,
        ]
    }
}

impl fmt::Display for ProtocolState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProtocolState::Freeze => "freeze",
            ProtocolState::Init => "init",
            ProtocolState::Listen => "listen",
            ProtocolState::ColdStart => "cold_start",
            ProtocolState::Active => "active",
            ProtocolState::Passive => "passive",
            ProtocolState::Await => "await",
            ProtocolState::Test => "test",
            ProtocolState::Download => "download",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_has_nine_states() {
        let all = ProtocolState::all();
        assert_eq!(all.len(), 9);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 9);
    }

    #[test]
    fn integration_matches_paper_property_antecedent() {
        for s in ProtocolState::all() {
            let expected = matches!(s, ProtocolState::Active | ProtocolState::Passive);
            assert_eq!(s.is_integrated(), expected, "{s}");
        }
    }

    #[test]
    fn only_cold_start_and_active_transmit() {
        let transmitting: Vec<_> = ProtocolState::all()
            .into_iter()
            .filter(|s| s.may_transmit())
            .collect();
        assert_eq!(
            transmitting,
            [ProtocolState::ColdStart, ProtocolState::Active]
        );
    }

    #[test]
    fn slot_counter_states() {
        assert!(ProtocolState::ColdStart.keeps_slot_counter());
        assert!(ProtocolState::Active.keeps_slot_counter());
        assert!(ProtocolState::Passive.keeps_slot_counter());
        assert!(!ProtocolState::Listen.keeps_slot_counter());
        assert!(!ProtocolState::Freeze.keeps_slot_counter());
    }

    #[test]
    fn inert_states_are_host_services() {
        let inert: Vec<_> = ProtocolState::all()
            .into_iter()
            .filter(|s| s.is_inert())
            .collect();
        assert_eq!(
            inert,
            [
                ProtocolState::Await,
                ProtocolState::Test,
                ProtocolState::Download
            ]
        );
    }

    #[test]
    fn default_is_freeze() {
        assert_eq!(ProtocolState::default(), ProtocolState::Freeze);
    }

    #[test]
    fn display_uses_paper_spelling() {
        assert_eq!(ProtocolState::ColdStart.to_string(), "cold_start");
        assert_eq!(ProtocolState::Freeze.to_string(), "freeze");
    }
}
