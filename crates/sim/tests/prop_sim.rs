//! Property-based tests of the simulator: determinism, fault-free
//! invariants, and containment guarantees across randomized
//! configurations.

use proptest::prelude::*;
use tta_guardian::sos::{ReceiverTolerance, SosDomain};
use tta_guardian::{CouplerAuthority, CouplerFaultMode};
use tta_sim::{
    FaultEvent, FaultPersistence, FaultPlan, FaultTarget, NodeFaultKind, SimBuilder, Topology,
};
use tta_types::NodeId;

const SLOTS: u64 = 320;

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![Just(Topology::Bus), Just(Topology::Star)]
}

fn arb_authority() -> impl Strategy<Value = CouplerAuthority> {
    prop::sample::select(CouplerAuthority::all().to_vec())
}

fn arb_delays(nodes: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..20, nodes)
}

fn arb_tolerances(nodes: usize) -> impl Strategy<Value = Vec<ReceiverTolerance>> {
    prop::collection::vec((0.3f64..0.7, 0.3f64..0.7), nodes).prop_map(|ts| {
        ts.into_iter()
            .map(|(t, v)| ReceiverTolerance::new(t, v))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fault-free cluster always starts and nobody ever freezes,
    /// regardless of topology, authority, start staggering and receiver
    /// tolerances.
    #[test]
    fn fault_free_runs_always_start(
        nodes in 3usize..6,
        topology in arb_topology(),
        authority in arb_authority(),
        delays in arb_delays(5),
        tolerances in arb_tolerances(5),
    ) {
        let report = SimBuilder::new(nodes)
            .topology(topology)
            .authority(authority)
            .slots(SLOTS)
            .start_delays(delays[..nodes].to_vec())
            .tolerances(tolerances[..nodes].to_vec())
            .plan(FaultPlan::none())
            .build()
            .run();
        prop_assert!(report.cluster_started(), "{report}");
        prop_assert!(report.healthy_frozen().is_empty(), "{report}");
        prop_assert_eq!(report.integrated_at_end(), nodes, "{}", report);
    }

    /// Simulations are deterministic: identical configurations produce
    /// identical reports.
    #[test]
    fn runs_are_deterministic(
        topology in arb_topology(),
        delays in arb_delays(4),
        onset in 0u64..40,
    ) {
        let plan = FaultPlan::none().with(FaultEvent {
            target: FaultTarget::Node {
                node: NodeId::new(1),
                kind: NodeFaultKind::Sos {
                    domain: SosDomain::Value,
                    magnitude: 0.5,
                },
            },
            from_slot: onset,
            to_slot: SLOTS,
            persistence: FaultPersistence::Transient,
        });
        let build = || {
            SimBuilder::new(4)
                .topology(topology)
                .slots(SLOTS)
                .start_delays(delays.clone())
                .plan(plan.clone())
                .build()
                .run()
        };
        let a = build();
        let b = build();
        prop_assert_eq!(a.final_states(), b.final_states());
        prop_assert_eq!(a.healthy_frozen(), b.healthy_frozen());
        prop_assert_eq!(a.startup_slot(), b.startup_slot());
        prop_assert_eq!(a.log().entries().len(), b.log().entries().len());
    }

    /// A small-shifting star contains every SOS sender: no healthy node
    /// freezes for any defect magnitude, domain or onset.
    #[test]
    fn reshaping_star_contains_all_sos(
        magnitude in 0.01f64..0.99,
        time_domain in any::<bool>(),
        onset in 20u64..200,
        faulty in 0u8..4,
    ) {
        let plan = FaultPlan::none().with(FaultEvent {
            target: FaultTarget::Node {
                node: NodeId::new(faulty),
                kind: NodeFaultKind::Sos {
                    domain: if time_domain { SosDomain::Time } else { SosDomain::Value },
                    magnitude,
                },
            },
            from_slot: onset,
            to_slot: SLOTS,
            persistence: FaultPersistence::Transient,
        });
        let report = SimBuilder::new(4)
            .topology(Topology::Star)
            .authority(CouplerAuthority::SmallShifting)
            .slots(SLOTS)
            .plan(plan)
            .build()
            .run();
        prop_assert!(report.healthy_frozen().is_empty(), "{report}");
    }

    /// Passive channel faults (silence/noise) on a single channel never
    /// freeze a healthy node in any topology — the sim-side mirror of the
    /// E1 verification result.
    #[test]
    fn single_channel_passive_faults_are_tolerated(
        topology in arb_topology(),
        authority in arb_authority(),
        channel in 0usize..2,
        silence in any::<bool>(),
        from in 0u64..60,
        delays in arb_delays(4),
    ) {
        let plan = FaultPlan::none().with(FaultEvent {
            target: FaultTarget::Coupler {
                channel,
                mode: if silence { CouplerFaultMode::Silence } else { CouplerFaultMode::BadFrame },
            },
            from_slot: from,
            to_slot: SLOTS,
            persistence: FaultPersistence::Transient,
        });
        let report = SimBuilder::new(4)
            .topology(topology)
            .authority(authority)
            .slots(SLOTS)
            .start_delays(delays)
            .plan(plan)
            .build()
            .run();
        prop_assert!(report.healthy_frozen().is_empty(), "{report}");
    }

    /// Central blocking contains every masquerading cold-start and
    /// invalid-C-state sender, whatever slot they claim and whenever they
    /// start — provided the faulty node is not the cluster founder.
    /// (A founder whose transmissions turn bogus additionally *crashes*
    /// out of its role: its valid cold-start traffic disappears, which no
    /// guardian can mask. See `founder_content_fault_recovers` below.)
    #[test]
    fn central_blocking_contains_content_faults(
        faulty in 1u8..4,
        claimed in 1u16..=4,
        cold_start in any::<bool>(),
        onset in 0u64..80,
    ) {
        prop_assume!(claimed != u16::from(faulty) + 1); // claiming one's own slot is honest
        let kind = if cold_start {
            NodeFaultKind::MasqueradeColdStart { claimed_slot: claimed }
        } else {
            NodeFaultKind::InvalidCState { claimed_slot: claimed }
        };
        let plan = FaultPlan::none().with(FaultEvent {
            target: FaultTarget::Node {
                node: NodeId::new(faulty),
                kind,
            },
            from_slot: onset,
            to_slot: SLOTS,
            persistence: FaultPersistence::Transient,
        });
        let report = SimBuilder::new(4)
            .topology(Topology::Star)
            .authority(CouplerAuthority::TimeWindows)
            .slots(SLOTS)
            .plan(plan)
            .build()
            .run();
        prop_assert!(report.healthy_frozen().is_empty(), "{report}");
        prop_assert!(report.cluster_started(), "{report}");
    }
}

/// The founder edge case, pinned: node A (earliest starter, hence cluster
/// founder) develops an invalid-C-state fault right after two nodes
/// integrated on its grid. The guardian blocks every bogus frame, which
/// also removes A's valid traffic — a crash in effect. Thanks to slot
/// acquisition (freshly integrated nodes start transmitting at their own
/// slot), the integrators keep the grid alive themselves: the cluster
/// ends fully up with no healthy freeze. (Before slot acquisition was
/// modeled, the integrators were stranded and froze transiently — the
/// protocol feature exists precisely for this situation.)
#[test]
fn founder_content_fault_recovers() {
    let plan = FaultPlan::none().with(FaultEvent {
        target: FaultTarget::Node {
            node: NodeId::new(0),
            kind: NodeFaultKind::InvalidCState { claimed_slot: 2 },
        },
        from_slot: 13,
        to_slot: SLOTS,
        persistence: FaultPersistence::Transient,
    });
    let report = SimBuilder::new(4)
        .topology(Topology::Star)
        .authority(CouplerAuthority::TimeWindows)
        .slots(SLOTS)
        .plan(plan)
        .build()
        .run();
    // Content containment: not a single bogus frame reached the bus.
    use tta_sim::SlotEvent;
    assert!(
        report
            .log()
            .count(|e| matches!(e, SlotEvent::GuardianBlocked { .. }))
            > 0
    );
    // The surviving integrators keep the cluster alive on their own.
    assert!(report.healthy_frozen().is_empty(), "{report}");
    assert!(report.cluster_started(), "{report}");
    assert_eq!(report.integrated_at_end(), 3, "{report}");
}
