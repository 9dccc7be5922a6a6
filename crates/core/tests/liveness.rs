//! Integration tests pinning the S4 liveness results: under weak
//! startup fairness, `listening(i) ~> integrated(i)` holds for every
//! node exactly when the star coupler cannot source replayed frames.

use tta_core::{
    cluster_startup_fairness, node_integration_property, node_recovery_property,
    verify_cluster_liveness, verify_cluster_liveness_threaded, verify_cluster_recovery,
    ClusterConfig, ClusterModel, Verdict,
};
use tta_guardian::CouplerAuthority;
use tta_modelcheck::{TransitionSystem, DEFAULT_MAX_STATES};

/// S4 rows 1–3: the three restrained authorities integrate every node.
#[test]
fn restrained_authorities_integrate_under_weak_fairness() {
    for authority in [
        CouplerAuthority::Passive,
        CouplerAuthority::TimeWindows,
        CouplerAuthority::SmallShifting,
    ] {
        let report = verify_cluster_liveness(&ClusterConfig::paper(authority));
        assert_eq!(report.verdict, Verdict::Holds, "{authority}");
        assert!(
            report.per_node.iter().all(|v| *v == Verdict::Holds),
            "{authority}: {:?}",
            report.per_node
        );
        assert!(report.lasso.is_none());
        assert!(report.violating_node.is_none());
        assert!(!report.stats.truncated, "{authority}");
    }
}

/// S4 row 4, pinned on the budgeted replay config (paper trace 1): a
/// full-shifting coupler's replay denies a correct node integration
/// forever, and the lasso's cycle proves it — no cycle state has the
/// starved node integrated, not even passively.
#[test]
fn full_shifting_replay_denies_integration_forever() {
    let config = ClusterConfig::paper_trace_cold_start();
    let report = verify_cluster_liveness(&config);
    assert_eq!(report.verdict, Verdict::Violated);

    let victim = report.violating_node.expect("a violation names its node");
    let lasso = report.lasso.expect("a violation carries its lasso");
    for (i, state) in lasso.cycle().iter().enumerate() {
        assert!(
            !state.nodes()[victim.as_usize()].is_integrated(),
            "cycle state {i} has starved node {victim} integrated"
        );
    }

    // The stem is a real execution from the model's initial state.
    let model = ClusterModel::new(config);
    assert_eq!(
        lasso.states().next(),
        model.initial_states().first(),
        "lasso stem must start at the initial state"
    );
}

/// The threaded build and the threaded per-node searches reproduce the
/// sequential report exactly: verdicts, the violating node, the lasso
/// (stem 14 + cycle 1) and every graph and SCC count.
#[test]
fn threaded_report_is_identical_at_any_thread_count() {
    let config = ClusterConfig::paper_trace_cold_start();
    let sequential = verify_cluster_liveness(&config);
    let lasso = sequential.lasso.as_ref().expect("violated");
    assert_eq!((lasso.stem_len(), lasso.cycle_len()), (14, 1));
    for threads in [2, 4] {
        let threaded = verify_cluster_liveness_threaded(&config, DEFAULT_MAX_STATES, threads);
        assert_eq!(threaded.per_node, sequential.per_node, "{threads} threads");
        assert_eq!(threaded.violating_node, sequential.violating_node);
        assert_eq!(threaded.lasso, sequential.lasso, "{threads} threads");
        let (t, s) = (&threaded.stats, &sequential.stats);
        assert_eq!(
            (t.states, t.edges, t.deadlock_states, t.sccs_examined),
            (s.states, s.edges, s.deadlock_states, s.sccs_examined),
            "{threads} threads"
        );
    }
}

/// Recovery (`frozen(i) ~> integrated(i)` under restart fairness) holds
/// for the restrained authorities: no healthy node can be frozen out,
/// so the only frozen states are pre-startup ones that fairness drives
/// to integration.
#[test]
fn restrained_authorities_recover_under_restart_fairness() {
    for authority in [
        CouplerAuthority::Passive,
        CouplerAuthority::TimeWindows,
        CouplerAuthority::SmallShifting,
    ] {
        let report = verify_cluster_recovery(&ClusterConfig::paper(authority));
        assert_eq!(report.verdict, Verdict::Holds, "{authority}");
        assert!(
            report.per_node.iter().all(|v| *v == Verdict::Holds),
            "{authority}: {:?}",
            report.per_node
        );
        assert!(!report.stats.truncated, "{authority}");
    }
}

/// Under full-shifting replay, recovery fails: the victim is frozen
/// (initially, or frozen out — post-integration freeze is absorbing,
/// the model's `RestartPolicy::Never`) and the replay-starvation cycle
/// then denies it active membership forever.
#[test]
fn full_shifting_freeze_out_is_a_permanent_loss_in_the_model() {
    let report = verify_cluster_recovery(&ClusterConfig::paper_trace_cold_start());
    assert_eq!(report.verdict, Verdict::Violated);
    let victim = report.violating_node.expect("a violation names its node");
    let lasso = report.lasso.expect("a violation carries its lasso");
    for (i, state) in lasso.cycle().iter().enumerate() {
        assert_ne!(
            state.nodes()[victim.as_usize()].protocol_state(),
            tta_protocol::ProtocolState::Active,
            "cycle state {i} lets victim {victim} back to active membership"
        );
    }
}

/// The fairness constraints and property labels render as documented —
/// these names appear in narrated reports and must stay stable.
#[test]
fn fairness_and_property_labels_are_stable() {
    let fairness = cluster_startup_fairness(4);
    assert_eq!(fairness.len(), 4);
    assert_eq!(fairness[2].name(), "startup progress(node 2)");
    assert_eq!(
        node_integration_property(1).to_string(),
        "node 1 listening ~> node 1 integrated"
    );
    assert_eq!(
        node_recovery_property(1).to_string(),
        "node 1 frozen ~> node 1 integrated"
    );
}
