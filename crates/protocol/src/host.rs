//! Host-side configuration and nondeterminism resolution.
//!
//! The paper's model resolves several choices nondeterministically (when a
//! node leaves `freeze`/`init`, whether a host shuts a node down, which
//! channel's frame an integrating node adopts). [`HostChoices`] selects
//! which of those choices the transition relation *enumerates* — the model
//! checker explores all of them — while a [`HostPolicy`] picks one at a
//! time for simulation.

use crate::controller::{Controller, Transition, TransitionCause};
use tta_types::NodeId;

/// Which nondeterministic host behaviors the transition relation includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostChoices {
    /// Nodes may linger in `freeze` and `init` arbitrarily long, creating
    /// the staggered startups the paper's traces rely on.
    pub staggered_startup: bool,
    /// Hosts may voluntarily shut down (`active → freeze`) or demote
    /// (`active → passive`) their node. The paper's property implicitly
    /// assumes they do not ("the nodes are modeled not to fail").
    pub allow_shutdown: bool,
    /// The host-service states `await` and `test` are reachable from
    /// `freeze`. They are absorbing in this model, so checking
    /// configurations exclude them.
    pub allow_await_test: bool,
}

impl HostChoices {
    /// The configuration the paper's verification runs use: staggered
    /// startup on, host failures off, inert service states off.
    #[must_use]
    pub fn checking() -> Self {
        HostChoices {
            staggered_startup: true,
            allow_shutdown: false,
            allow_await_test: false,
        }
    }

    /// Fully deterministic eager startup (no host nondeterminism at all);
    /// convenient for unit tests and simple simulations.
    #[must_use]
    pub fn eager() -> Self {
        HostChoices {
            staggered_startup: false,
            allow_shutdown: false,
            allow_await_test: false,
        }
    }

    /// Everything enabled — the full relation of the paper's Section 4.3,
    /// including host shutdowns and the inert service states.
    #[must_use]
    pub fn unrestricted() -> Self {
        HostChoices {
            staggered_startup: true,
            allow_shutdown: true,
            allow_await_test: true,
        }
    }
}

impl Default for HostChoices {
    fn default() -> Self {
        HostChoices::checking()
    }
}

/// Resolves nondeterministic choices during simulation.
///
/// `options` always contains at least one entry; implementations return an
/// index into it (clamped by the caller).
pub trait HostPolicy {
    /// Chooses among the enumerated transitions for `node`.
    fn choose(&mut self, node: &Controller, options: &[Transition]) -> usize;
}

/// Always progresses as fast as possible: prefers protocol transitions,
/// then the first host option that changes state.
#[derive(Debug, Clone, Copy, Default)]
pub struct EagerStartPolicy;

impl HostPolicy for EagerStartPolicy {
    fn choose(&mut self, node: &Controller, options: &[Transition]) -> usize {
        options
            .iter()
            .position(|t| t.cause == TransitionCause::Protocol)
            .or_else(|| options.iter().position(|t| t.next != *node))
            .unwrap_or(0)
    }
}

/// Holds each node in `freeze`/`init` for a per-node number of slots, then
/// progresses eagerly — the mechanism behind the staggered startups in the
/// paper's traces (node A starts first, then B, then C and D).
#[derive(Debug, Clone)]
pub struct DelayedStartPolicy {
    delays: Vec<u32>,
    elapsed: Vec<u32>,
}

impl DelayedStartPolicy {
    /// Creates a policy where node *i* begins initialization after
    /// `delays[i]` slots.
    #[must_use]
    pub fn new(delays: Vec<u32>) -> Self {
        let n = delays.len();
        DelayedStartPolicy {
            delays,
            elapsed: vec![0; n],
        }
    }

    /// Remaining delay for `node`, zero when the node may progress.
    #[must_use]
    pub fn remaining(&self, node: NodeId) -> u32 {
        let i = node.as_usize();
        self.delays.get(i).map_or(0, |d| {
            d.saturating_sub(self.elapsed.get(i).copied().unwrap_or(0))
        })
    }
}

impl HostPolicy for DelayedStartPolicy {
    fn choose(&mut self, node: &Controller, options: &[Transition]) -> usize {
        let i = node.node_id().as_usize();
        let elapsed = self.elapsed.get(i).copied().unwrap_or(u32::MAX);
        let delay = self.delays.get(i).copied().unwrap_or(0);
        if elapsed < delay {
            if let Some(e) = self.elapsed.get_mut(i) {
                *e += 1;
            }
            // Prefer staying put while the delay runs.
            if let Some(stay) = options.iter().position(|t| t.next == *node) {
                return stay;
            }
        }
        EagerStartPolicy.choose(node, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelView, ProtocolState};

    #[test]
    fn checking_config_matches_paper_assumptions() {
        let c = HostChoices::checking();
        assert!(c.staggered_startup);
        assert!(!c.allow_shutdown);
        assert!(!c.allow_await_test);
        assert_eq!(HostChoices::default(), c);
    }

    #[test]
    fn eager_policy_progresses_through_startup() {
        let mut policy = EagerStartPolicy;
        let mut c = Controller::new(NodeId::new(0), 4);
        let choices = HostChoices::checking();
        for _ in 0..2 {
            c = c.step(&ChannelView::silent(), &choices, &mut policy);
        }
        assert_eq!(c.protocol_state(), ProtocolState::Listen);
    }

    #[test]
    fn delayed_policy_holds_then_releases() {
        let mut policy = DelayedStartPolicy::new(vec![3]);
        let mut c = Controller::new(NodeId::new(0), 4);
        let choices = HostChoices::checking();
        for _ in 0..3 {
            c = c.step(&ChannelView::silent(), &choices, &mut policy);
            assert_eq!(c.protocol_state(), ProtocolState::Freeze);
        }
        c = c.step(&ChannelView::silent(), &choices, &mut policy);
        assert_eq!(c.protocol_state(), ProtocolState::Init);
        assert_eq!(policy.remaining(NodeId::new(0)), 0);
    }

    #[test]
    fn delayed_policy_defaults_missing_nodes_to_eager() {
        let mut policy = DelayedStartPolicy::new(vec![]);
        let mut c = Controller::new(NodeId::new(2), 4);
        let choices = HostChoices::checking();
        c = c.step(&ChannelView::silent(), &choices, &mut policy);
        assert_eq!(c.protocol_state(), ProtocolState::Init);
    }

    #[test]
    fn remaining_counts_down() {
        let mut policy = DelayedStartPolicy::new(vec![2, 5]);
        let c = Controller::new(NodeId::new(1), 4);
        assert_eq!(policy.remaining(NodeId::new(1)), 5);
        let choices = HostChoices::checking();
        let _ = c.step(&ChannelView::silent(), &choices, &mut policy);
        assert_eq!(policy.remaining(NodeId::new(1)), 4);
        assert_eq!(policy.remaining(NodeId::new(0)), 2);
    }
}
