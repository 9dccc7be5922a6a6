//! Shrinker correctness: property tests over pure predicates, plus
//! real re-executed cliff/flip finds.
//!
//! The contract under test: `shrink(input, keeps)` returns an input
//! that (a) still satisfies `keeps` — for a real find, *re-executing
//! the simulator* still exhibits the cliff or flip — and (b) is
//! 1-minimal: removing any single remaining event, or narrowing any
//! remaining window by one slot from either end, makes the predicate
//! disappear. [`is_one_minimal`] checks (b) by brute force,
//! independently of the shrinker's own fixpoint argument.

use proptest::prelude::*;

use tta_fuzz::{evaluate_under, is_one_minimal, shrink, EvalContext, FuzzInput};
use tta_guardian::sos::SosDomain;
use tta_guardian::{CouplerAuthority, CouplerFaultMode};
use tta_sim::{FaultEvent, FaultPersistence, FaultTarget, NodeFaultKind, RecoveryOutcome};
use tta_types::NodeId;

fn arb_event() -> impl Strategy<Value = FaultEvent> {
    let target = prop_oneof![
        (
            0usize..2,
            prop::sample::select(vec![CouplerFaultMode::Silence, CouplerFaultMode::BadFrame,])
        )
            .prop_map(|(channel, mode)| FaultTarget::Coupler { channel, mode }),
        (
            0u8..4,
            prop::sample::select(vec![
                NodeFaultKind::Babbling,
                NodeFaultKind::Mute,
                NodeFaultKind::Sos {
                    domain: SosDomain::Time,
                    magnitude: 0.5,
                },
            ])
        )
            .prop_map(|(node, kind)| FaultTarget::Node {
                node: NodeId::new(node),
                kind
            }),
    ];
    let persistence = prop_oneof![
        Just(FaultPersistence::Transient),
        Just(FaultPersistence::Permanent),
        (2u64..8, 1u64..4).prop_map(|(period, duty)| FaultPersistence::Intermittent {
            period,
            duty: duty.min(period - 1),
        }),
    ];
    (target, 1u64..300, 1u64..80, persistence).prop_map(|(target, from, width, persistence)| {
        FaultEvent {
            target,
            from_slot: from,
            to_slot: from + width,
            persistence,
        }
    })
}

fn arb_input() -> impl Strategy<Value = FuzzInput> {
    prop::collection::vec(arb_event(), 1..5).prop_map(|events| FuzzInput { events })
}

proptest! {
    /// Predicate: "some event covers the first event's start slot".
    /// Always true of the original, so shrinking must preserve it and
    /// land on a 1-minimal input (typically one single-slot event).
    #[test]
    fn shrinking_a_covering_predicate_is_one_minimal(input in arb_input()) {
        let target = input.events[0].from_slot;
        let keeps = |candidate: &FuzzInput| {
            candidate
                .events
                .iter()
                .any(|e| (e.from_slot..e.to_slot).contains(&target))
        };
        let shrunk = shrink(&input, keeps);
        prop_assert!(keeps(&shrunk), "shrunk input lost the predicate");
        prop_assert!(is_one_minimal(&shrunk, keeps));
        prop_assert_eq!(shrunk.events.len(), 1);
        prop_assert_eq!(
            (shrunk.events[0].from_slot, shrunk.events[0].to_slot),
            (target, target + 1)
        );
    }

    /// Predicate: "still has every original event" (by count). Nothing
    /// can be dropped, so minimality must come entirely from window
    /// narrowing and persistence simplification.
    #[test]
    fn shrinking_narrows_what_it_cannot_drop(input in arb_input()) {
        let required = input.events.len();
        let keeps = move |candidate: &FuzzInput| candidate.events.len() >= required;
        let shrunk = shrink(&input, keeps);
        prop_assert!(is_one_minimal(&shrunk, keeps));
        prop_assert_eq!(shrunk.events.len(), required);
        for event in &shrunk.events {
            prop_assert_eq!(event.to_slot - event.from_slot, 1);
            prop_assert_eq!(event.persistence, FaultPersistence::Transient);
        }
    }
}

/// The real thing, cliff edition: pad a known quorum-breaking SOS
/// sender with two bystander events, shrink against the re-executed
/// simulator, and check the cliff survives while the padding does not.
#[test]
fn a_real_availability_cliff_shrinks_to_its_load_bearing_event() {
    let ctx = EvalContext::default();
    let parent_availability =
        evaluate_under(&FuzzInput::empty(), &ctx, CouplerAuthority::Passive).availability;
    let padded = FuzzInput {
        events: vec![
            FaultEvent {
                target: FaultTarget::Node {
                    node: NodeId::new(0),
                    kind: NodeFaultKind::Sos {
                        domain: SosDomain::Time,
                        magnitude: 0.5,
                    },
                },
                from_slot: 60,
                to_slot: 120,
                persistence: FaultPersistence::Transient,
            },
            // Bystanders are coupler faults on purpose: a second *node*
            // fault would shrink the healthy-quorum denominator and
            // mask the cliff instead of padding it.
            FaultEvent {
                target: FaultTarget::Coupler {
                    channel: 0,
                    mode: CouplerFaultMode::BadFrame,
                },
                from_slot: 200,
                to_slot: 250,
                persistence: FaultPersistence::Transient,
            },
            FaultEvent {
                target: FaultTarget::Coupler {
                    channel: 1,
                    mode: CouplerFaultMode::Silence,
                },
                from_slot: 300,
                to_slot: 340,
                persistence: FaultPersistence::Transient,
            },
        ],
    };
    let threshold = parent_availability - 0.3;
    let keeps = |candidate: &FuzzInput| {
        evaluate_under(candidate, &ctx, CouplerAuthority::Passive).availability <= threshold
    };
    assert!(keeps(&padded), "the padded input must start as a cliff");

    let shrunk = shrink(&padded, keeps);
    // Re-execute: the shrunk plan still exhibits the original cliff.
    assert!(keeps(&shrunk));
    // The bystanders are gone and only the SOS sender remains.
    assert_eq!(shrunk.events.len(), 1);
    assert!(matches!(
        shrunk.events[0].target,
        FaultTarget::Node {
            node,
            kind: NodeFaultKind::Sos { .. }
        } if node == NodeId::new(0)
    ));
    // 1-minimality against the real, re-executing predicate: removing
    // the event or narrowing its window by one slot loses the cliff.
    assert!(is_one_minimal(&shrunk, keeps));
}

/// The real thing, flip edition: the same fault family classifies as
/// permanent loss under time windows but contained under small
/// shifting. Shrinking must preserve *both* pinned outcomes.
#[test]
fn a_real_outcome_flip_survives_shrinking_with_both_outcomes_pinned() {
    let ctx = EvalContext::default();
    let padded = FuzzInput {
        events: vec![
            FaultEvent {
                target: FaultTarget::Node {
                    node: NodeId::new(1),
                    kind: NodeFaultKind::Sos {
                        domain: SosDomain::Time,
                        magnitude: 0.5,
                    },
                },
                from_slot: 60,
                to_slot: 120,
                persistence: FaultPersistence::Transient,
            },
            FaultEvent {
                target: FaultTarget::Coupler {
                    channel: 0,
                    mode: CouplerFaultMode::BadFrame,
                },
                from_slot: 150,
                to_slot: 200,
                persistence: FaultPersistence::Transient,
            },
        ],
    };
    let keeps = |candidate: &FuzzInput| {
        evaluate_under(candidate, &ctx, CouplerAuthority::TimeWindows).outcome
            == RecoveryOutcome::PermanentLoss
            && evaluate_under(candidate, &ctx, CouplerAuthority::SmallShifting).outcome
                == RecoveryOutcome::Contained
    };
    assert!(keeps(&padded), "the padded input must start as a flip");

    let shrunk = shrink(&padded, keeps);
    assert!(keeps(&shrunk), "re-executed flip must survive shrinking");
    assert_eq!(shrunk.events.len(), 1);
    assert!(is_one_minimal(&shrunk, keeps));
}
