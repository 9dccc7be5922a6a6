//! Integration tests pinning the paper's Section 5 experimental results
//! (experiments E1–E4 of DESIGN.md).

use tta_core::{
    narrate_trace, verify_cluster, verify_cluster_with, CheckStrategy, ClusterConfig, ClusterModel,
    FaultBudget, Verdict,
};
use tta_guardian::{CouplerAuthority, CouplerFaultMode};
use tta_types::FrameKind;

/// E1: the property holds for passive, time-windows and small-shifting
/// couplers ("For the passive, time windows, and small shifting couplers
/// we verify that the property above holds").
#[test]
fn restricted_authorities_satisfy_the_property() {
    for authority in [
        CouplerAuthority::Passive,
        CouplerAuthority::TimeWindows,
        CouplerAuthority::SmallShifting,
    ] {
        let report = verify_cluster(&ClusterConfig::paper(authority));
        assert_eq!(report.verdict, Verdict::Holds, "{authority} must verify");
        assert!(report.counterexample.is_none());
        assert!(
            report.stats.states_explored > 1000,
            "nontrivial state space"
        );
    }
}

/// E2: full-frame buffering breaks the property; the unconstrained
/// shortest counterexample uses the out-of-slot fault.
#[test]
fn full_shifting_violates_the_property() {
    let config = ClusterConfig::paper(CouplerAuthority::FullShifting);
    let report = verify_cluster(&config);
    assert_eq!(report.verdict, Verdict::Violated);
    let trace = report.counterexample.expect("counterexample produced");

    // The violation is caused by replaying frames out of their slot:
    // the replay budget must have been spent.
    assert!(trace.violating_state().out_of_slot_used() >= 1);

    // And the victim is recorded by the monitor.
    assert!(trace.violating_state().frozen_victim().is_some());
}

/// E3: with at most one out-of-slot error, the counterexample duplicates
/// a cold-start frame (paper trace 1).
#[test]
fn single_replay_duplicates_a_cold_start_frame() {
    let config = ClusterConfig::paper_trace_cold_start();
    let report = verify_cluster(&config);
    assert_eq!(report.verdict, Verdict::Violated);
    let trace = report.counterexample.expect("counterexample produced");
    assert_eq!(trace.violating_state().out_of_slot_used(), 1);

    // Find the replayed frame kind through narration metadata: replay the
    // trace through the model and locate the out-of-slot step.
    let model = ClusterModel::new(config);
    let replayed = replayed_kinds(&model, &trace);
    assert_eq!(
        replayed,
        vec![FrameKind::ColdStart],
        "trace 1 replays a cold-start frame"
    );

    // The narrative mentions the clique-avoidance freeze, like the
    // paper's step 10.
    let text = narration_text(&model, &trace);
    assert!(text.contains("replays the previous cold_start frame"));
    assert!(text.contains("freezes due to a clique avoidance error"));
}

/// E4: additionally prohibiting cold-start duplication forces the
/// counterexample through a duplicated C-state frame (paper trace 2).
#[test]
fn forbidding_cold_start_duplication_forces_cstate_replay() {
    let config = ClusterConfig::paper_trace_cstate();
    let report = verify_cluster(&config);
    assert_eq!(report.verdict, Verdict::Violated);
    let trace = report.counterexample.expect("counterexample produced");

    let model = ClusterModel::new(config);
    let replayed = replayed_kinds(&model, &trace);
    assert_eq!(
        replayed,
        vec![FrameKind::CState],
        "trace 2 replays a C-state frame"
    );

    let text = narration_text(&model, &trace);
    assert!(text.contains("replays the previous c_state frame"));
    assert!(text.contains("freezes due to a clique avoidance error"));
}

/// The second trace is no shorter than the first: the paper notes the
/// added constraint "results in a slightly longer trace".
#[test]
fn constrained_traces_grow_with_constraints() {
    let unconstrained = verify_cluster(&ClusterConfig::paper(CouplerAuthority::FullShifting))
        .counterexample_len()
        .unwrap();
    let budget_one = verify_cluster(&ClusterConfig::paper_trace_cold_start())
        .counterexample_len()
        .unwrap();
    let no_cold_dup = verify_cluster(&ClusterConfig::paper_trace_cstate())
        .counterexample_len()
        .unwrap();
    assert!(budget_one >= unconstrained);
    assert!(no_cold_dup >= budget_one);
}

/// E5: trace generation is far below the paper's "less than a minute on a
/// 1.5 GHz AMD machine".
#[test]
fn traces_generate_quickly() {
    let start = std::time::Instant::now();
    let _ = verify_cluster(&ClusterConfig::paper_trace_cold_start());
    let _ = verify_cluster(&ClusterConfig::paper_trace_cstate());
    assert!(
        start.elapsed() < std::time::Duration::from_secs(60),
        "both traces within the paper's time budget"
    );
}

/// A zero-replay budget restores the property even for full shifting:
/// the *capability*, not the authority level per se, is what breaks it.
#[test]
fn full_shifting_without_replays_is_safe() {
    let config = ClusterConfig {
        out_of_slot_budget: FaultBudget::AtMost(0),
        ..ClusterConfig::paper(CouplerAuthority::FullShifting)
    };
    let report = verify_cluster(&config);
    assert_eq!(report.verdict, Verdict::Holds);
}

/// BFS on two threads reaches the same verdicts (A2 ablation sanity).
#[test]
fn parallel_exploration_agrees() {
    let safe = verify_cluster_with(
        &ClusterConfig::paper(CouplerAuthority::SmallShifting),
        CheckStrategy::ParallelBfs { threads: 2 },
    );
    assert_eq!(safe.verdict, Verdict::Holds);

    let broken = verify_cluster_with(
        &ClusterConfig::paper(CouplerAuthority::FullShifting),
        CheckStrategy::ParallelBfs { threads: 2 },
    );
    assert_eq!(broken.verdict, Verdict::Violated);
    // Layer-synchronous BFS gives minimal-depth counterexamples too.
    let sequential = verify_cluster(&ClusterConfig::paper(CouplerAuthority::FullShifting));
    assert_eq!(broken.counterexample_len(), sequential.counterexample_len());
}

/// Depth-bounded search (A2 ablation) reports budget-limited results
/// below the violation depth and finds the violation from it on, with
/// the shortest trace whatever the bound.
#[test]
fn bounded_checking_finds_the_violation_at_depth() {
    let config = ClusterConfig::paper(CouplerAuthority::FullShifting);
    for depth in [4, 10] {
        let shallow = verify_cluster_with(&config, CheckStrategy::Bounded { depth });
        assert_eq!(shallow.verdict, Verdict::BudgetExhausted, "depth {depth}");
        assert_eq!(shallow.stats.depth_reached, depth);
    }
    for depth in [11, 16] {
        let deep = verify_cluster_with(&config, CheckStrategy::Bounded { depth });
        assert_eq!(deep.verdict, Verdict::Violated, "depth {depth}");
        assert_eq!(deep.counterexample_len(), Some(11), "depth {depth}");
        assert_eq!(deep.stats.states_explored, 14_488, "depth {depth}");
    }
}

/// Disabling the symmetric-fault reduction must not change any verdict
/// (soundness of the reduction).
#[test]
fn symmetric_fault_reduction_is_sound() {
    for authority in [
        CouplerAuthority::SmallShifting,
        CouplerAuthority::FullShifting,
    ] {
        let reduced = verify_cluster(&ClusterConfig::paper(authority));
        let full = verify_cluster(&ClusterConfig {
            symmetric_fault_reduction: false,
            ..ClusterConfig::paper(authority)
        });
        assert_eq!(reduced.verdict, full.verdict, "{authority}");
        if let (Some(a), Some(b)) = (reduced.counterexample_len(), full.counterexample_len()) {
            assert_eq!(a, b, "shortest traces agree for {authority}");
        }
    }
}

// ---------------------------------------------------------------------
// helpers

fn replayed_kinds(
    model: &ClusterModel,
    trace: &tta_modelcheck::Trace<tta_core::ClusterState>,
) -> Vec<FrameKind> {
    let mut kinds = Vec::new();
    for (prev, next) in trace.transitions() {
        let (_, info) = model
            .expand(prev)
            .into_iter()
            .find(|(s, _)| s == next)
            .expect("trace is a path of the model");
        for (i, fault) in info.faults.iter().enumerate() {
            if *fault == CouplerFaultMode::OutOfSlot {
                kinds.push(prev.coupler_buffers()[i].kind);
            }
        }
    }
    kinds
}

fn narration_text(
    model: &ClusterModel,
    trace: &tta_modelcheck::Trace<tta_core::ClusterState>,
) -> String {
    narrate_trace(model, trace)
        .into_iter()
        .flat_map(|s| s.lines)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Non-vacuity of the safety property: under every coupler authority the
/// cluster can actually reach a fully active state (the safety result is
/// not satisfied by a cluster that never starts).
#[test]
fn startup_witness_exists_for_every_authority() {
    for authority in CouplerAuthority::all() {
        let witness = tta_core::find_startup_witness(&ClusterConfig::paper(authority))
            .unwrap_or_else(|| panic!("{authority}: cluster must be able to start"));
        let last = witness.states().last().unwrap();
        assert!(last
            .nodes()
            .iter()
            .all(|n| n.protocol_state() == tta_protocol::ProtocolState::Active));
        // A 4-node cluster needs at least: init, listen, timeout, cold
        // start, one round, integration, promotion — well over 10 slots.
        assert!(
            witness.transition_count() >= 10,
            "{}",
            witness.transition_count()
        );
    }
}
