//! Cross-crate integration tests: the model checker, the simulator and
//! its guardian, the analysis and the conformance layer must tell one
//! consistent story.

use tta::analysis;
use tta::core::{verify_cluster, ClusterConfig, Verdict};
use tta::guardian::{buffer, CouplerAuthority, CouplerFaultMode};
use tta::sim::{
    Campaign, CouplerFaultEvent, FaultPersistence, FaultPlan, Scenario, SimBuilder, Topology,
};
use tta::types::constants::{LINE_ENCODING_BITS, N_FRAME_MIN_BITS};

/// The formal model's verdicts and the simulator's observations agree on
/// passive coupler faults: tolerated by both.
#[test]
fn checker_and_simulator_agree_on_passive_faults() {
    // Checker: property holds for a small-shifting coupler (which can
    // exhibit silence and bad-frame faults but cannot replay).
    let checked = verify_cluster(&ClusterConfig::paper(CouplerAuthority::SmallShifting));
    assert_eq!(checked.verdict, Verdict::Holds);

    // Simulator: a persistent silence fault and a persistent noise fault
    // on channel 0 leave every healthy node running.
    for mode in [CouplerFaultMode::Silence, CouplerFaultMode::BadFrame] {
        let plan = FaultPlan::none().with_coupler_fault(CouplerFaultEvent {
            channel: 0,
            mode,
            from_slot: 0,
            to_slot: 400,
            persistence: FaultPersistence::Transient,
        });
        let report = SimBuilder::new(4)
            .topology(Topology::Star)
            .authority(CouplerAuthority::SmallShifting)
            .slots(400)
            .plan(plan)
            .build()
            .run();
        assert!(report.cluster_started(), "{mode:?}: {report}");
        assert!(report.healthy_frozen().is_empty(), "{mode:?}: {report}");
    }
}

/// The formal model's violation is reproducible as a concrete execution:
/// the replay fault disturbs a simulated cluster too.
#[test]
fn checker_violation_has_a_concrete_execution() {
    let checked = verify_cluster(&ClusterConfig::paper(CouplerAuthority::FullShifting));
    assert_eq!(checked.verdict, Verdict::Violated);

    let plan = FaultPlan::none().with_coupler_fault(CouplerFaultEvent {
        channel: 0,
        mode: CouplerFaultMode::OutOfSlot,
        from_slot: 12,
        to_slot: 400,
        persistence: FaultPersistence::Transient,
    });
    let report = SimBuilder::new(4)
        .topology(Topology::Star)
        .authority(CouplerAuthority::FullShifting)
        .slots(400)
        .plan(plan)
        .build()
        .run();
    assert!(
        !report.healthy_frozen().is_empty() || !report.cluster_started(),
        "{report}"
    );
}

/// Campaign-level shape of the paper's argument: each step up in guardian
/// authority removes fault classes — until full shifting adds one back.
#[test]
fn authority_ladder_matches_the_papers_tradeoff() {
    let trials = 16;
    let rate = |topology, authority, scenario| {
        Campaign::new(4, topology, authority)
            .trials(trials)
            .run(scenario)
            .propagation_rate()
    };

    // SOS: bus suffers; a reshaping star does not.
    let sos_bus = rate(
        Topology::Bus,
        CouplerAuthority::Passive,
        Scenario::SosSender,
    );
    let sos_star = rate(
        Topology::Star,
        CouplerAuthority::SmallShifting,
        Scenario::SosSender,
    );
    assert!(
        sos_bus > 0.3,
        "SOS must propagate on the bus (got {sos_bus})"
    );
    assert_eq!(sos_star, 0.0, "reshaping must contain SOS");

    // Masquerading cold start: blocked by any blocking hub.
    let masq_bus = rate(
        Topology::Bus,
        CouplerAuthority::Passive,
        Scenario::MasqueradeColdStart,
    );
    let masq_star = rate(
        Topology::Star,
        CouplerAuthority::TimeWindows,
        Scenario::MasqueradeColdStart,
    );
    assert!(masq_bus > 0.0, "masquerade must disturb the bus");
    assert_eq!(masq_star, 0.0, "semantic analysis must contain masquerade");

    // The replay fault exists only once full-frame buffering exists, and
    // it propagates there.
    let replay_small = Campaign::new(4, Topology::Star, CouplerAuthority::SmallShifting)
        .trials(trials)
        .run(Scenario::CouplerReplay);
    assert!(!replay_small.applicable());
    let replay_full = rate(
        Topology::Star,
        CouplerAuthority::FullShifting,
        Scenario::CouplerReplay,
    );
    assert!(replay_full > 0.0, "the new fault class must be observable");
}

/// The closed-form Section 6 bound and the executable guardian buffer
/// agree across a parameter sweep.
#[test]
fn closed_form_and_leaky_bucket_agree() {
    for frame_bits in [76u32, 512, 2076, 20_000, 115_000] {
        for rho in [1e-4, 2e-4, 1e-3, 1e-2] {
            let closed = analysis::min_buffer_bits(LINE_ENCODING_BITS, rho, frame_bits);
            let simulated =
                buffer::simulate_forwarding(frame_bits, 1.0, 1.0 - rho, LINE_ENCODING_BITS);
            let diff = (closed - f64::from(simulated.peak_occupancy_bits)).abs();
            assert!(
                diff <= 2.0,
                "f={frame_bits} ρ={rho}: closed {closed:.2} vs simulated {}",
                simulated.peak_occupancy_bits
            );
        }
    }
}

/// The eq. (6) frame size really is the knee: one step below the bound
/// fits in the guardian buffer, a much larger frame does not.
#[test]
fn eq6_is_the_feasibility_knee() {
    let rho = analysis::rho_from_crystal_ppm(100.0);
    let f_max = analysis::max_frame_bits(N_FRAME_MIN_BITS, LINE_ENCODING_BITS, rho)
        .expect("feasible")
        .round() as u32;
    assert_eq!(f_max, 115_000);
    let b_max = analysis::max_buffer_bits(N_FRAME_MIN_BITS);

    let at_knee = buffer::simulate_forwarding(f_max, 1.0, 1.0 - rho, LINE_ENCODING_BITS);
    assert!(
        at_knee.peak_occupancy_bits <= b_max + 1,
        "{}",
        at_knee.peak_occupancy_bits
    );

    let beyond = buffer::simulate_forwarding(2 * f_max, 1.0, 1.0 - rho, LINE_ENCODING_BITS);
    assert!(
        beyond.peak_occupancy_bits > b_max,
        "doubling the frame must overflow the permitted buffer"
    );
}

/// The guardian the simulator runs (`Simulation::guard`), authority by
/// authority: with node 3 of a 4-node star faulty, does the guardian
/// block its content faults (`GuardianBlocked`) or reshape its SOS
/// defects (`GuardianReshaped`)? The rows are written out as measured,
/// not derived from the authority's capabilities, so a change to either
/// the guardian or the capability ladder shows here.
#[test]
fn live_guardian_blocks_and_reshapes_per_authority() {
    use tta::guardian::sos::SosDomain;
    use tta::sim::{NodeFault, NodeFaultKind, SlotEvent};
    use tta::types::NodeId;

    let faults = [
        NodeFaultKind::MasqueradeColdStart { claimed_slot: 2 },
        NodeFaultKind::InvalidCState { claimed_slot: 1 },
        NodeFaultKind::Sos {
            domain: SosDomain::Value,
            magnitude: 0.5,
        },
        NodeFaultKind::Sos {
            domain: SosDomain::Time,
            magnitude: 0.5,
        },
    ];
    // Columns: masquerade blocked, invalid C-state blocked, value SOS
    // reshaped, time SOS reshaped.
    let table = [
        (CouplerAuthority::Passive, [false, false, false, false]),
        (CouplerAuthority::TimeWindows, [true, true, true, false]),
        (CouplerAuthority::SmallShifting, [true, true, true, true]),
        (CouplerAuthority::FullShifting, [true, true, true, true]),
    ];
    for (authority, expected) in table {
        let observed = faults.map(|kind| {
            let plan = FaultPlan::none().with_node_fault(NodeFault {
                node: NodeId::new(3),
                kind,
                from_slot: 0,
                to_slot: 300,
                persistence: FaultPersistence::Transient,
            });
            let report = SimBuilder::new(4)
                .topology(Topology::Star)
                .authority(authority)
                .slots(300)
                .plan(plan)
                .build()
                .run();
            let log = report.log();
            match kind {
                NodeFaultKind::Sos { .. } => {
                    log.count(|e| matches!(e, SlotEvent::GuardianReshaped { .. })) > 0
                }
                _ => log.count(|e| matches!(e, SlotEvent::GuardianBlocked { .. })) > 0,
            }
        });
        assert_eq!(
            observed, expected,
            "{authority}: [masquerade blocked, invalid C-state blocked, \
             value SOS reshaped, time SOS reshaped]"
        );
    }
}

/// The conformance layer closes the loop through the facade: the checked-in
/// scenario for the paper's cold-start counterexample drives the checker,
/// the simulator and the trace-replay oracle, and all three agree.
#[test]
fn conformance_scenario_ties_the_engines_together() {
    let scenario = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("coldstart_dup.toml");
    let outcome = tta::conformance::run_scenario_file(&scenario).expect("scenario loads");
    assert!(outcome.passed, "{}", outcome.report);
    assert!(
        outcome.report.contains("engines agree"),
        "{}",
        outcome.report
    );
}
