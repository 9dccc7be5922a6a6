//! Cluster model configuration.

use std::fmt;
use tta_guardian::CouplerAuthority;
use tta_protocol::HostChoices;

/// How many out-of-slot (replay) errors the faulty coupler may commit
/// along one execution — the constraint the paper adds to shape its
/// counterexample traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum FaultBudget {
    /// Unlimited replays (the paper's first run: the shortest trace then
    /// contains four out-of-slot errors).
    #[default]
    Unlimited,
    /// At most this many replays (the paper uses 1 for both narrated
    /// traces).
    AtMost(u8),
}

impl FaultBudget {
    /// Whether another replay is allowed after `used` so far.
    #[must_use]
    pub fn allows(self, used: u8) -> bool {
        match self {
            FaultBudget::Unlimited => true,
            FaultBudget::AtMost(n) => used < n,
        }
    }
}

impl fmt::Display for FaultBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultBudget::Unlimited => write!(f, "unlimited"),
            FaultBudget::AtMost(n) => write!(f, "≤{n}"),
        }
    }
}

/// Configuration of the Section 4 cluster model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterConfig {
    /// Number of nodes (the paper models four, the Byzantine minimum).
    pub nodes: usize,
    /// Authority level of both star couplers.
    pub authority: CouplerAuthority,
    /// Which host nondeterminism the relation includes.
    pub host_choices: HostChoices,
    /// Replay budget for the faulty coupler.
    pub out_of_slot_budget: FaultBudget,
    /// Prohibit replaying *cold-start* frames (the constraint that turns
    /// the paper's first trace into its second).
    pub forbid_cold_start_replay: bool,
    /// Exploit channel symmetry: only coupler 0 may fail. Sound for this
    /// model (channels are interchangeable and the property is symmetric
    /// under swapping them); halves the branching. Disable to model both.
    pub symmetric_fault_reduction: bool,
}

impl ClusterConfig {
    /// The paper's configuration for a given coupler authority: four
    /// nodes, staggered startup, no host failures, unlimited passive
    /// faults, unlimited replays.
    #[must_use]
    pub fn paper(authority: CouplerAuthority) -> Self {
        ClusterConfig {
            nodes: 4,
            authority,
            host_choices: HostChoices::checking(),
            out_of_slot_budget: FaultBudget::Unlimited,
            forbid_cold_start_replay: false,
            symmetric_fault_reduction: true,
        }
    }

    /// The configuration behind the paper's first narrated trace:
    /// full shifting, at most one out-of-slot error.
    #[must_use]
    pub fn paper_trace_cold_start() -> Self {
        ClusterConfig {
            out_of_slot_budget: FaultBudget::AtMost(1),
            ..Self::paper(CouplerAuthority::FullShifting)
        }
    }

    /// The configuration behind the paper's second narrated trace:
    /// additionally prohibits duplicating cold-start frames, forcing the
    /// counterexample through a replayed C-state frame.
    #[must_use]
    pub fn paper_trace_cstate() -> Self {
        ClusterConfig {
            forbid_cold_start_replay: true,
            ..Self::paper_trace_cold_start()
        }
    }

    /// Slots per TDMA round (identity schedule: one slot per node).
    #[must_use]
    pub fn slots_per_round(&self) -> u16 {
        self.nodes as u16
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 or more than 16 nodes are configured (the
    /// packed model state supports 16; the paper uses 4).
    pub fn validate(&self) {
        assert!(
            (2..=16).contains(&self.nodes),
            "cluster model supports 2..=16 nodes, got {}",
            self.nodes
        );
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::paper(CouplerAuthority::FullShifting)
    }
}

impl fmt::Display for ClusterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} couplers, replay budget {}{}",
            self.nodes,
            self.authority,
            self.out_of_slot_budget,
            if self.forbid_cold_start_replay {
                ", no cold-start duplication"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_gates_replays() {
        assert!(FaultBudget::Unlimited.allows(200));
        assert!(FaultBudget::AtMost(1).allows(0));
        assert!(!FaultBudget::AtMost(1).allows(1));
        assert!(!FaultBudget::AtMost(0).allows(0));
    }

    #[test]
    fn paper_config_is_four_nodes() {
        let c = ClusterConfig::paper(CouplerAuthority::Passive);
        assert_eq!(c.nodes, 4);
        assert_eq!(c.slots_per_round(), 4);
        c.validate();
    }

    #[test]
    fn trace_configs_layer_constraints() {
        let t1 = ClusterConfig::paper_trace_cold_start();
        assert_eq!(t1.out_of_slot_budget, FaultBudget::AtMost(1));
        assert!(!t1.forbid_cold_start_replay);
        let t2 = ClusterConfig::paper_trace_cstate();
        assert_eq!(t2.out_of_slot_budget, FaultBudget::AtMost(1));
        assert!(t2.forbid_cold_start_replay);
    }

    #[test]
    #[should_panic(expected = "2..=16")]
    fn tiny_clusters_are_rejected() {
        ClusterConfig {
            nodes: 1,
            ..ClusterConfig::default()
        }
        .validate();
    }

    #[test]
    fn display_summarizes() {
        let s = ClusterConfig::paper_trace_cstate().to_string();
        assert!(s.contains("full shifting") && s.contains("≤1") && s.contains("cold-start"));
    }
}
