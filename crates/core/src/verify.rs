//! One-call verification of the paper's property.

use crate::compact::ClusterCodec;
use crate::config::ClusterConfig;
use crate::model::ClusterModel;
use crate::state::ClusterState;
use tta_base::default_threads;
use tta_liveness::{FairAction, FairGraph, Lasso, LivenessStats, Property};
use tta_modelcheck::{ExploreStats, Explorer, Trace, Verdict, DEFAULT_MAX_STATES};
use tta_protocol::ProtocolState;
use tta_types::NodeId;

/// How to run the one breadth-first explorer. Every strategy finds
/// shortest counterexamples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckStrategy {
    /// Breadth-first search on one thread (the default).
    Bfs,
    /// Breadth-first search with the given worker count (0 = auto).
    ParallelBfs {
        /// Worker threads (0 = available parallelism).
        threads: usize,
    },
    /// Depth-bounded breadth-first search: a clean run that leaves
    /// states past the bound unexpanded is reported as
    /// [`Verdict::BudgetExhausted`].
    Bounded {
        /// Maximum path length in transitions.
        depth: u64,
    },
}

/// Result of verifying a cluster configuration.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Configuration that was checked.
    pub config: ClusterConfig,
    /// Overall verdict for the paper's property.
    pub verdict: Verdict,
    /// Shortest path to a violation, if one exists.
    pub counterexample: Option<Trace<ClusterState>>,
    /// Exploration statistics.
    pub stats: ExploreStats,
}

impl VerificationReport {
    /// Length of the counterexample in transitions, if any.
    #[must_use]
    pub fn counterexample_len(&self) -> Option<usize> {
        self.counterexample.as_ref().map(Trace::transition_count)
    }
}

/// Verifies the paper's property — *no single coupler fault freezes an
/// integrated node* — over the full reachable state space with
/// one-thread BFS.
#[must_use]
pub fn verify_cluster(config: &ClusterConfig) -> VerificationReport {
    verify_cluster_with(config, CheckStrategy::Bfs)
}

/// Verifies with an explicit strategy.
#[must_use]
pub fn verify_cluster_with(config: &ClusterConfig, strategy: CheckStrategy) -> VerificationReport {
    let model = ClusterModel::new(*config);
    // Every strategy interns visited states through the bit-packing
    // codec, delta-encoded against BFS parents: a step touches one or
    // two of the nine packed words, so the visited set stores sparse
    // xor-deltas (plus periodic keyframes) instead of 72 flat bytes per
    // state — still zero heap allocation per visit.
    let codec = ClusterCodec::new(config);
    let explorer = match strategy {
        CheckStrategy::Bfs => Explorer::new(),
        CheckStrategy::ParallelBfs { threads: 0 } => Explorer::new().threads(default_threads()),
        CheckStrategy::ParallelBfs { threads } => Explorer::new().threads(threads),
        CheckStrategy::Bounded { depth } => Explorer::new().max_depth(depth),
    };
    let outcome =
        explorer.check_with_delta_codec(&model, &codec, |s: &ClusterState| s.property_holds());
    VerificationReport {
        config: *config,
        verdict: outcome.verdict,
        counterexample: outcome.counterexample,
        stats: outcome.stats,
    }
}

/// Finds a shortest execution that brings **every** node to the `active`
/// state — a liveness *witness* complementing the safety property.
///
/// The paper's property is pure safety ("no integrated node freezes"); a
/// model in which the cluster never came up would satisfy it vacuously.
/// This query proves non-vacuity: under every coupler authority the
/// cluster can fully start. Returns the witness trace, or `None` if no
/// reachable state has all nodes active (which would indicate a modeling
/// bug).
#[must_use]
pub fn find_startup_witness(config: &ClusterConfig) -> Option<tta_modelcheck::Trace<ClusterState>> {
    let model = ClusterModel::new(*config);
    Explorer::new().find(&model, |s: &ClusterState| {
        s.nodes()
            .iter()
            .all(|n| n.protocol_state() == tta_protocol::ProtocolState::Active)
    })
}

/// Result of verifying the cluster's *liveness* property — every
/// correct node's startup leads to integration — under weak fairness.
#[derive(Debug, Clone)]
pub struct LivenessReport {
    /// Configuration that was checked.
    pub config: ClusterConfig,
    /// Overall verdict: `Violated` if any node's leads-to fails,
    /// `BudgetExhausted` if the graph was truncated with no violation
    /// found, `Holds` otherwise.
    pub verdict: Verdict,
    /// Per-node verdicts for `listening(i) ~> integrated(i)`, in node
    /// order.
    pub per_node: Vec<Verdict>,
    /// The first node whose property is violated, if any.
    pub violating_node: Option<NodeId>,
    /// The violating execution for that node: a finite stem plus a
    /// cycle the cluster repeats forever.
    pub lasso: Option<Lasso<ClusterState>>,
    /// Graph and analysis statistics: SCC counts summed over the
    /// per-node properties, check time the wall time of the one check
    /// phase that examined them all (the graph is built once).
    pub stats: LivenessStats,
}

/// The weak-fairness constraints the cluster liveness check runs under:
/// one *startup progress* action per node, taken when the node's host
/// powers it up (`freeze → init`) or its initialization completes
/// (`init → listen`).
///
/// These are the only stuttering choices the checking host model has,
/// so weak fairness on them says exactly "a node allowed to start
/// eventually does" — without it, "node 2 never leaves freeze" would be
/// a (vacuous) counterexample to every startup-liveness claim. All
/// later transitions (listen, cold start, clique tests) are
/// protocol-forced and need no fairness.
#[must_use]
pub fn cluster_startup_fairness(nodes: usize) -> Vec<FairAction<ClusterState>> {
    (0..nodes)
        .map(|i| {
            FairAction::new(
                format!("startup progress(node {i})"),
                move |before: &ClusterState, after: &ClusterState| {
                    matches!(
                        (
                            before.nodes()[i].protocol_state(),
                            after.nodes()[i].protocol_state(),
                        ),
                        (ProtocolState::Freeze, ProtocolState::Init)
                            | (ProtocolState::Init, ProtocolState::Listen)
                    )
                },
            )
        })
        .collect()
}

/// The per-node integration-liveness property:
/// `listening(node) ~> integrated(node)` — whenever the node is in the
/// listen state, it eventually *attains active membership*.
///
/// "Integrated" is deliberately `active`, not `active ∨ passive`: in
/// this model `passive` is a transient staging state (an integrated
/// passive node is promoted at its next own slot or frozen by the
/// clique test, within one round), and the paper's freeze-out victim
/// *does* pass through passive for a few slots before the clique error
/// freezes it. Counting that transient visit as integration would
/// discharge the leads-to obligation and mask exactly the denial of
/// lasting integration the paper describes.
#[must_use]
pub fn node_integration_property(node: usize) -> Property<ClusterState> {
    Property::leads_to(
        format!("node {node} listening"),
        move |s: &ClusterState| s.nodes()[node].protocol_state() == ProtocolState::Listen,
        format!("node {node} integrated"),
        move |s: &ClusterState| s.nodes()[node].protocol_state() == ProtocolState::Active,
    )
}

/// The per-node recovery property:
/// `frozen(node) ~> integrated(node)` — whenever the node is frozen,
/// it eventually attains active membership again.
///
/// Checked under the same weak fairness as the startup check
/// ([`cluster_startup_fairness`]): its `freeze → init` actions are
/// exactly *restart fairness* — a frozen host that is allowed to power
/// its controller back up eventually does. Every node starts frozen, so
/// this subsumes the integration property; it additionally demands that
/// any *later* freeze leads back to membership. In this model a node
/// frozen after integration (a freeze-out victim) has no restart
/// transition at all — post-integration freeze is absorbing, matching
/// the simulator's `RestartPolicy::Never` — so a reachable freeze-out
/// is a fair stutter cycle that violates recovery, and a full-shifting
/// coupler's replay starvation violates it already from the initial
/// frozen state.
#[must_use]
pub fn node_recovery_property(node: usize) -> Property<ClusterState> {
    Property::leads_to(
        format!("node {node} frozen"),
        move |s: &ClusterState| s.nodes()[node].protocol_state() == ProtocolState::Freeze,
        format!("node {node} integrated"),
        move |s: &ClusterState| s.nodes()[node].protocol_state() == ProtocolState::Active,
    )
}

/// Verifies integration liveness — *every correct node's listening
/// leads to integration* — for all nodes of the configured cluster,
/// under the weak startup fairness of [`cluster_startup_fairness`].
///
/// The reachable graph is built once (interned through the same
/// bit-packing codec as the safety checker) and shared by the per-node
/// leads-to checks. Unlike the safety check, the graph must cover the
/// *full* reachable space — cycles can hide anywhere — so expect this
/// to visit at least as many states as a `Holds` safety run.
#[must_use]
pub fn verify_cluster_liveness(config: &ClusterConfig) -> LivenessReport {
    verify_cluster_liveness_with(config, DEFAULT_MAX_STATES)
}

/// [`verify_cluster_liveness`] with an explicit state budget. A
/// violation found on a truncated graph is still sound; a clean pass is
/// downgraded to `BudgetExhausted`.
#[must_use]
pub fn verify_cluster_liveness_with(config: &ClusterConfig, max_states: u64) -> LivenessReport {
    verify_each_node_with(config, max_states, 1, node_integration_property)
}

/// [`verify_cluster_liveness_with`] building the fair graph and running
/// the per-node searches with `threads` worker threads
/// ([`FairGraph::build_with_threads`], [`FairGraph::check_all`]); the
/// graph and every verdict and lasso are bit-identical at any thread
/// count.
#[must_use]
pub fn verify_cluster_liveness_threaded(
    config: &ClusterConfig,
    max_states: u64,
    threads: usize,
) -> LivenessReport {
    verify_each_node_with(config, max_states, threads, node_integration_property)
}

/// Verifies recovery liveness — *every node's freeze leads back to
/// integration* ([`node_recovery_property`]) — for all nodes of the
/// configured cluster, under restart fairness
/// ([`cluster_startup_fairness`]).
#[must_use]
pub fn verify_cluster_recovery(config: &ClusterConfig) -> LivenessReport {
    verify_cluster_recovery_with(config, DEFAULT_MAX_STATES)
}

/// [`verify_cluster_recovery`] with an explicit state budget. A
/// violation found on a truncated graph is still sound; a clean pass is
/// downgraded to `BudgetExhausted`.
#[must_use]
pub fn verify_cluster_recovery_with(config: &ClusterConfig, max_states: u64) -> LivenessReport {
    verify_each_node_with(config, max_states, 1, node_recovery_property)
}

/// Shared engine for the per-node leads-to checks: builds the fair
/// reachable graph once and checks `property_for(node)` for every node
/// in one [`FairGraph::check_all`] call, both at `threads` threads.
fn verify_each_node_with(
    config: &ClusterConfig,
    max_states: u64,
    threads: usize,
    property_for: impl Fn(usize) -> Property<ClusterState>,
) -> LivenessReport {
    let model = ClusterModel::new(*config);
    let codec = ClusterCodec::new(config);
    let fairness = cluster_startup_fairness(config.nodes);
    let graph = FairGraph::build_with_threads(&model, &codec, &fairness, max_states, threads);
    let properties: Vec<Property<ClusterState>> = (0..config.nodes).map(property_for).collect();

    let mut per_node = Vec::with_capacity(config.nodes);
    let mut violating_node = None;
    let mut lasso = None;
    let mut stats: Option<LivenessStats> = None;
    for (node, outcome) in graph
        .check_all(&properties, threads)
        .into_iter()
        .enumerate()
    {
        if outcome.verdict == Verdict::Violated && violating_node.is_none() {
            violating_node = Some(NodeId::new(node as u8));
            lasso = outcome.lasso;
        }
        per_node.push(outcome.verdict);
        stats = Some(match stats {
            None => outcome.stats,
            Some(mut acc) => {
                acc.sccs_examined += outcome.stats.sccs_examined;
                acc
            }
        });
    }

    let verdict = if per_node.contains(&Verdict::Violated) {
        Verdict::Violated
    } else if per_node.contains(&Verdict::BudgetExhausted) {
        Verdict::BudgetExhausted
    } else {
        Verdict::Holds
    };
    LivenessReport {
        config: *config,
        verdict,
        per_node,
        violating_node,
        lasso,
        stats: stats.expect("a cluster has at least one node"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_guardian::CouplerAuthority;

    // The headline verification results (paper Section 5.2) are exercised
    // in the crate's integration tests; here we test the harness itself on
    // the smallest cluster to stay fast.
    fn small(authority: CouplerAuthority) -> ClusterConfig {
        ClusterConfig {
            nodes: 2,
            ..ClusterConfig::paper(authority)
        }
    }

    #[test]
    fn small_passive_cluster_holds() {
        let report = verify_cluster(&small(CouplerAuthority::Passive));
        assert_eq!(report.verdict, Verdict::Holds);
        assert!(report.counterexample.is_none());
        assert!(report.stats.states_explored > 0);
    }

    #[test]
    fn strategies_agree_on_small_models() {
        let config = small(CouplerAuthority::Passive);
        let bfs = verify_cluster_with(&config, CheckStrategy::Bfs);
        let par = verify_cluster_with(&config, CheckStrategy::ParallelBfs { threads: 2 });
        assert_eq!(bfs.verdict, par.verdict);
        assert_eq!(bfs.stats.states_explored, par.stats.states_explored);
    }

    #[test]
    fn bounded_strategy_reports_budget_semantics() {
        let config = small(CouplerAuthority::Passive);
        let bounded = verify_cluster_with(&config, CheckStrategy::Bounded { depth: 3 });
        assert_eq!(bounded.verdict, Verdict::BudgetExhausted);
    }
}
