//! Clique-avoidance bookkeeping.
//!
//! Each node counts, per TDMA round, the slots in which it received a
//! correct frame (`agreed_slots_counter`) and the slots with traffic it
//! judged invalid or incorrect (`failed_slots_counter`). At the start of
//! its own slot the node runs the clique-avoidance test; nodes finding
//! themselves in a minority clique must freeze. This mechanism — correct
//! in itself — is what the paper's out-of-slot coupler fault weaponizes
//! against healthy nodes.

use crate::Judgment;
use std::fmt;

/// Saturating per-round frame counters (the paper's
/// `agreed_slots_counter` / `failed_slots_counter`).
///
/// Counters saturate at 15, far above any per-round count in the modeled
/// clusters, keeping the packed state small for the model checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CliqueCounters {
    agreed: u8,
    failed: u8,
}

/// Saturation bound for each counter.
pub const COUNTER_MAX: u8 = 15;

impl CliqueCounters {
    /// Fresh counters (both zero).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs counters from raw counts — the inverse of
    /// `agreed()`/`failed()`, used by state codecs that bit-pack
    /// controller states for the model checker's visited set.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds [`COUNTER_MAX`] (such a value can
    /// never come from recording, so it indicates a codec bug).
    #[must_use]
    pub fn from_counts(agreed: u8, failed: u8) -> Self {
        assert!(
            agreed <= COUNTER_MAX && failed <= COUNTER_MAX,
            "counters saturate at {COUNTER_MAX}: agreed={agreed} failed={failed}"
        );
        CliqueCounters { agreed, failed }
    }

    /// Agreed-slots count.
    #[must_use]
    pub fn agreed(self) -> u8 {
        self.agreed
    }

    /// Failed-slots count.
    #[must_use]
    pub fn failed(self) -> u8 {
        self.failed
    }

    /// Records the joint judgment of one slot.
    ///
    /// Only *incorrect* frames — syntactically valid frames whose claimed
    /// position disagrees with the receiver — count as failed slots.
    /// *Invalid* traffic (noise, collisions) is indistinguishable from
    /// channel disturbance and counts as neither agreed nor failed: clique
    /// avoidance resolves *disagreement between nodes about frame
    /// correctness*, not channel noise. (This also matches the paper's
    /// verification outcome: a coupler that only drops or corrupts frames
    /// — passive faults — can never freeze an integrated node, whereas a
    /// replayed frame, being valid but stale, can.)
    #[must_use]
    pub fn record(mut self, judgment: Judgment) -> Self {
        match judgment {
            Judgment::Correct => self.agreed = (self.agreed + 1).min(COUNTER_MAX),
            Judgment::Incorrect => self.failed = (self.failed + 1).min(COUNTER_MAX),
            Judgment::Null | Judgment::Invalid => {}
        }
        self
    }

    /// Records the node's own successful transmission, which TTP/C counts
    /// as an agreed slot.
    #[must_use]
    pub fn record_own_send(mut self) -> Self {
        self.agreed = (self.agreed + 1).min(COUNTER_MAX);
        self
    }

    /// Whether any traffic was recorded this round.
    #[must_use]
    pub fn saw_traffic(self) -> bool {
        self.agreed > 0 || self.failed > 0
    }

    /// The clique-avoidance test for an integrated node: the node may stay
    /// up only if it agreed with a strict majority of the traffic it saw.
    #[must_use]
    pub fn integrated_verdict(self) -> CliqueVerdict {
        if !self.saw_traffic() {
            CliqueVerdict::NoTraffic
        } else if self.agreed > self.failed {
            CliqueVerdict::Majority
        } else {
            CliqueVerdict::Minority
        }
    }

    /// The cold-start variant of the test (paper Section 4.3,
    /// `COLD START`): with at most the node's own frame seen and no
    /// failures, the cold start simply repeats; a majority brings the node
    /// up; anything else sends it back to listen.
    #[must_use]
    pub fn cold_start_verdict(self) -> CliqueVerdict {
        if self.agreed <= 1 && self.failed == 0 {
            CliqueVerdict::NoTraffic
        } else if self.agreed > self.failed {
            CliqueVerdict::Majority
        } else {
            CliqueVerdict::Minority
        }
    }
}

impl fmt::Display for CliqueCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agreed={}, failed={}", self.agreed, self.failed)
    }
}

/// Outcome of a clique-avoidance test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CliqueVerdict {
    /// No (other) traffic was observed; keep waiting / keep cold-starting.
    NoTraffic,
    /// The node agrees with the majority clique and may operate.
    Majority,
    /// The node is in a minority clique and must freeze (integrated) or
    /// fall back to listen (cold start).
    Minority,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_updates_the_right_counter() {
        let c = CliqueCounters::new()
            .record(Judgment::Correct)
            .record(Judgment::Incorrect)
            .record(Judgment::Null);
        assert_eq!(c.agreed(), 1);
        assert_eq!(c.failed(), 1);
    }

    #[test]
    fn invalid_traffic_is_not_a_failed_slot() {
        // Noise and collisions are channel disturbance, not clique
        // disagreement; they must not push a node toward a freeze.
        let c = CliqueCounters::new().record(Judgment::Invalid);
        assert_eq!(c.agreed(), 0);
        assert_eq!(c.failed(), 0);
        assert!(!c.saw_traffic());
    }

    #[test]
    fn counters_saturate() {
        let mut c = CliqueCounters::new();
        for _ in 0..100 {
            c = c.record(Judgment::Correct).record(Judgment::Incorrect);
        }
        assert_eq!(c.agreed(), COUNTER_MAX);
        assert_eq!(c.failed(), COUNTER_MAX);
    }

    #[test]
    fn own_send_counts_as_agreed() {
        let c = CliqueCounters::new().record_own_send();
        assert_eq!(c.agreed(), 1);
        assert!(c.saw_traffic());
    }

    #[test]
    fn integrated_test_requires_strict_majority() {
        let majority = CliqueCounters::new()
            .record(Judgment::Correct)
            .record(Judgment::Correct)
            .record(Judgment::Incorrect);
        assert_eq!(majority.integrated_verdict(), CliqueVerdict::Majority);

        let tie = CliqueCounters::new()
            .record(Judgment::Correct)
            .record(Judgment::Incorrect);
        assert_eq!(tie.integrated_verdict(), CliqueVerdict::Minority);

        let minority = CliqueCounters::new()
            .record(Judgment::Incorrect)
            .record(Judgment::Incorrect);
        assert_eq!(minority.integrated_verdict(), CliqueVerdict::Minority);
    }

    #[test]
    fn integrated_test_tolerates_silence() {
        assert_eq!(
            CliqueCounters::new().integrated_verdict(),
            CliqueVerdict::NoTraffic
        );
    }

    #[test]
    fn cold_start_test_matches_paper() {
        // agreed <= 1 && failed == 0 → keep cold-starting.
        let own_only = CliqueCounters::new().record_own_send();
        assert_eq!(own_only.cold_start_verdict(), CliqueVerdict::NoTraffic);
        assert_eq!(
            CliqueCounters::new().cold_start_verdict(),
            CliqueVerdict::NoTraffic
        );

        // agreed > failed → active.
        let joined = CliqueCounters::new()
            .record_own_send()
            .record(Judgment::Correct);
        assert_eq!(joined.cold_start_verdict(), CliqueVerdict::Majority);

        // otherwise → back to listen.
        let contested = CliqueCounters::new()
            .record_own_send()
            .record(Judgment::Incorrect);
        assert_eq!(contested.cold_start_verdict(), CliqueVerdict::Minority);
    }

    #[test]
    fn display_shows_both_counters() {
        let c = CliqueCounters::new().record(Judgment::Correct);
        assert_eq!(c.to_string(), "agreed=1, failed=0");
    }
}
