//! Whole-state-space introspection.
//!
//! Beyond a verdict, it is useful to know what the reachable space of the
//! Section 4 model actually *contains*: how node states distribute, how
//! much of the cluster is ever simultaneously up, how many replays the
//! fault budget ever admits, and how many distinct violating states exist
//! (the checker stops at the first; the analyzer counts them all).

use crate::compact::ClusterCodec;
use crate::config::ClusterConfig;
use crate::model::ClusterModel;
use std::collections::BTreeMap;
use std::fmt;
use tta_liveness::FairGraph;

/// Aggregate facts about the reachable state space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachableSummary {
    /// Distinct reachable global states (within the budget).
    pub states: u64,
    /// Whether the exploration budget truncated the space.
    pub truncated: bool,
    /// How often each protocol state occurs across all (state, node)
    /// pairs, keyed by the state's display name.
    pub node_state_histogram: BTreeMap<String, u64>,
    /// The largest number of simultaneously integrated nodes in any
    /// reachable state (4 in a healthy 4-node model — non-vacuity).
    pub max_simultaneous_integrated: usize,
    /// The largest replay count the fault budget ever admits.
    pub max_replays_observed: u8,
    /// Number of distinct states with the violation monitor latched.
    pub violating_states: u64,
}

impl fmt::Display for ReachableSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} reachable states{}, up to {} nodes integrated at once, up to {} replays, {} violating",
            self.states,
            if self.truncated { " (truncated)" } else { "" },
            self.max_simultaneous_integrated,
            self.max_replays_observed,
            self.violating_states
        )?;
        for (state, count) in &self.node_state_histogram {
            writeln!(f, "  {state:<12} {count}")?;
        }
        Ok(())
    }
}

/// Explores the full reachable space of `config` (up to `max_states`
/// states) and summarizes it. The space is a [`FairGraph`] with no
/// fairness actions, so it is truncated only when the budget drops a
/// state.
#[must_use]
pub fn analyze_reachable(config: &ClusterConfig, max_states: u64) -> ReachableSummary {
    let model = ClusterModel::new(*config);
    let codec = ClusterCodec::new(config);
    let graph = FairGraph::build(&model, &codec, &[], max_states);
    let mut summary = ReachableSummary {
        states: graph.state_count() as u64,
        truncated: graph.is_truncated(),
        node_state_histogram: BTreeMap::new(),
        max_simultaneous_integrated: 0,
        max_replays_observed: 0,
        violating_states: 0,
    };
    for id in 0..graph.state_count() as u32 {
        let state = graph.state(id);
        let mut integrated = 0;
        for node in state.nodes() {
            let name = node.protocol_state().to_string();
            *summary.node_state_histogram.entry(name).or_insert(0) += 1;
            if node.is_integrated() {
                integrated += 1;
            }
        }
        summary.max_simultaneous_integrated = summary.max_simultaneous_integrated.max(integrated);
        summary.max_replays_observed = summary.max_replays_observed.max(state.out_of_slot_used());
        if state.frozen_victim().is_some() {
            summary.violating_states += 1;
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultBudget;
    use tta_guardian::CouplerAuthority;

    #[test]
    fn passive_space_has_no_violations_and_full_integration() {
        let summary = analyze_reachable(
            &ClusterConfig {
                nodes: 3,
                ..ClusterConfig::paper(CouplerAuthority::Passive)
            },
            1 << 22,
        );
        assert!(!summary.truncated);
        assert_eq!(summary.violating_states, 0);
        assert_eq!(summary.max_simultaneous_integrated, 3, "non-vacuity");
        assert_eq!(summary.max_replays_observed, 0);
        assert!(summary.node_state_histogram.contains_key("active"));
        assert!(summary.node_state_histogram.contains_key("cold_start"));
    }

    #[test]
    fn full_shifting_space_contains_violations() {
        let summary = analyze_reachable(
            &ClusterConfig {
                nodes: 3,
                out_of_slot_budget: FaultBudget::AtMost(1),
                ..ClusterConfig::paper(CouplerAuthority::FullShifting)
            },
            1 << 22,
        );
        assert!(summary.violating_states > 0);
        assert_eq!(
            summary.max_replays_observed, 1,
            "budget respected everywhere"
        );
    }

    #[test]
    fn truncation_is_reported() {
        let summary = analyze_reachable(&ClusterConfig::paper(CouplerAuthority::Passive), 50);
        assert!(summary.truncated);
        assert!(summary.states <= 50);
    }

    /// A budget that fits the space exactly is not a truncation: the
    /// 2-node passive cluster has 134 reachable states.
    #[test]
    fn exact_budget_is_not_truncation() {
        let config = ClusterConfig {
            nodes: 2,
            ..ClusterConfig::paper(CouplerAuthority::Passive)
        };
        let exact = analyze_reachable(&config, 134);
        assert_eq!((exact.states, exact.truncated), (134, false));
        let short = analyze_reachable(&config, 133);
        assert_eq!((short.states, short.truncated), (133, true));
    }

    #[test]
    fn display_lists_histogram() {
        let summary = analyze_reachable(
            &ClusterConfig {
                nodes: 2,
                ..ClusterConfig::paper(CouplerAuthority::Passive)
            },
            1 << 20,
        );
        let s = summary.to_string();
        assert!(s.contains("reachable states"));
        assert!(s.contains("listen"));
    }
}
