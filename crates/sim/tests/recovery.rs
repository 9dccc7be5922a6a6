//! Integration tests for the recovery layer: restart policies against
//! transient faults, end to end through the simulator.
//!
//! The pinned fault is the conformance suite's cold-start replay (a
//! full-shifting coupler replaying out of slot from slot 12) cut down
//! to a *transient* window, so the disturbance is real but the cause
//! goes away — exactly the case where a restart policy should matter.

use proptest::prelude::*;
use tta_guardian::{CouplerAuthority, CouplerFaultMode};
use tta_protocol::{ProtocolState, RestartPolicy};
use tta_sim::{
    FaultEvent, FaultPersistence, FaultPlan, FaultTarget, SimBuilder, SlotEvent, Topology,
};

const SLOTS: u64 = 400;

/// A transient replay window: opens during startup (so the buffered
/// frame carries a cold-start frame and freezes a healthy node), closes
/// at slot 60.
fn transient_replay() -> FaultPlan {
    FaultPlan::none().with(FaultEvent {
        target: FaultTarget::Coupler {
            channel: 0,
            mode: CouplerFaultMode::OutOfSlot,
        },
        from_slot: 12,
        to_slot: 60,
        persistence: FaultPersistence::Transient,
    })
}

fn run(policy: RestartPolicy) -> tta_sim::SimReport {
    SimBuilder::new(4)
        .topology(Topology::Star)
        .authority(CouplerAuthority::FullShifting)
        .slots(SLOTS)
        .plan(transient_replay())
        .restart_policy(policy)
        .build()
        .run()
}

#[test]
fn never_turns_a_transient_replay_into_a_permanent_loss() {
    let report = run(RestartPolicy::Never);
    assert!(
        !report.healthy_frozen().is_empty(),
        "the replay must disturb the cluster:\n{report}"
    );
    // Freeze is absorbing: an episode opens but nothing restarts, and
    // the frozen node is lost for good even though the fault is over.
    assert!(!report.recovery().is_empty());
    assert!(report.recovery().iter().all(|e| e.restart_slot.is_none()));
    assert_eq!(report.time_to_reintegration(), None);
    assert!(!report.permanently_lost().is_empty(), "{report}");
    assert_eq!(
        report
            .log()
            .count(|e| matches!(e, SlotEvent::NodeRestarted { .. })),
        0
    );
}

#[test]
fn watchdog_recovers_the_same_transient_replay_with_bounded_ttr() {
    let report = run(RestartPolicy::Watchdog { silence_slots: 8 });
    assert!(!report.healthy_frozen().is_empty(), "{report}");
    assert!(report.permanently_lost().is_empty(), "{report}");
    assert!(
        report
            .recovery()
            .iter()
            .all(tta_sim::RecoveryEpisode::recovered),
        "every episode reintegrates:\n{report}"
    );
    // Bounded time to repair: the watchdog waits its silence threshold,
    // then the node re-runs startup; well under the remaining horizon.
    let ttr = report
        .time_to_reintegration()
        .expect("a recovered node has a TTR");
    assert!(ttr >= 8, "TTR includes the watchdog delay, got {ttr}");
    assert!(ttr < 120, "TTR should be far below the horizon, got {ttr}");
    // The restart shows up in the log and the recovered cluster ends at
    // full strength, strictly more available than the absorbing freeze.
    assert!(
        report
            .log()
            .count(|e| matches!(e, SlotEvent::NodeRestarted { .. }))
            > 0
    );
    assert!(
        report
            .log()
            .count(|e| matches!(e, SlotEvent::NodeReintegrated { .. }))
            > 0
    );
    assert_eq!(report.steady_state(), tta_sim::SteadyState::FullyUp);
    let lost = run(RestartPolicy::Never);
    assert!(report.unavailability(4) < lost.unavailability(4));
}

#[test]
fn zero_retry_budget_is_indistinguishable_from_never() {
    let never = run(RestartPolicy::Never);
    let zero = run(RestartPolicy::BoundedRetry {
        max_restarts: 0,
        backoff_slots: 4,
    });
    // Everything but the recorded policy itself must coincide.
    assert_eq!(never.log(), zero.log());
    assert_eq!(never.final_states(), zero.final_states());
    assert_eq!(never.recovery(), zero.recovery());
    assert_eq!(never.healthy_frozen(), zero.healthy_frozen());
    assert_eq!(never.permanently_lost(), zero.permanently_lost());
    assert_eq!(never.startup_slot(), zero.startup_slot());
}

#[test]
fn watchdog_does_not_fire_during_a_slow_cold_start() {
    // An aggressive watchdog (1 slot of silence) with staggered start
    // delays: nodes sit in pre-start freeze for many slots, but that is
    // a host that has not powered up yet, not a frozen controller — the
    // supervisor must not open episodes or restart anything.
    let build = |policy| {
        SimBuilder::new(4)
            .topology(Topology::Star)
            .authority(CouplerAuthority::Passive)
            .slots(300)
            .start_delays(vec![0, 9, 17, 23])
            .plan(FaultPlan::none())
            .restart_policy(policy)
            .build()
            .run()
    };
    let watchdog = build(RestartPolicy::Watchdog { silence_slots: 1 });
    assert_eq!(
        watchdog
            .log()
            .count(|e| matches!(e, SlotEvent::NodeRestarted { .. })),
        0
    );
    assert!(watchdog.recovery().is_empty());
    // And the whole run is byte-identical to the absorbing-freeze one.
    let never = build(RestartPolicy::Never);
    assert_eq!(watchdog.log(), never.log());
    assert_eq!(watchdog.final_states(), never.final_states());
}

#[test]
fn recovered_nodes_end_integrated() {
    let report = run(RestartPolicy::Immediate);
    for episode in report.recovery() {
        if episode.recovered() {
            assert!(
                report.final_states()[episode.node.as_usize()].is_integrated()
                    || report
                        .recovery()
                        .iter()
                        .any(|later| later.node == episode.node
                            && later.freeze_slot > episode.freeze_slot),
                "a recovered node without a later episode must end integrated"
            );
        }
    }
    assert_eq!(report.final_states().len(), 4);
    assert!(report
        .final_states()
        .iter()
        .all(|s| *s != ProtocolState::Freeze));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `RestartPolicy::Never` is the seed's semantics: a builder that
    /// never mentions restart policies and one that pins `Never` produce
    /// byte-identical runs, for any topology/authority and any replay
    /// window.
    #[test]
    fn default_policy_is_never_and_changes_nothing(
        topology in prop_oneof![Just(Topology::Bus), Just(Topology::Star)],
        authority in prop::sample::select(CouplerAuthority::all().to_vec()),
        from in 5u64..40,
        len in 1u64..80,
    ) {
        let plan = || FaultPlan::none().with(FaultEvent {
            target: FaultTarget::Coupler {
                channel: 0,
                mode: CouplerFaultMode::BadFrame,
            },
            from_slot: from,
            to_slot: from + len,
            persistence: FaultPersistence::Transient,
        });
        let default_policy = SimBuilder::new(4)
            .topology(topology)
            .authority(authority)
            .slots(200)
            .plan(plan())
            .build()
            .run();
        let explicit = SimBuilder::new(4)
            .topology(topology)
            .authority(authority)
            .slots(200)
            .plan(plan())
            .restart_policy(RestartPolicy::Never)
            .build()
            .run();
        prop_assert_eq!(default_policy, explicit);
    }
}
