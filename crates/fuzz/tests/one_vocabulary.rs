//! The one fault vocabulary over generated plans: the plan builder, the
//! scenario DSL's applicability check, the fuzzer's repair and the
//! simulator's per-lane lookups must agree on every event list.
//!
//! Seeded lists of 0–6 events over both targets, both channels and
//! every persistence check three things:
//! - `FaultPlan::with` rejects a list iff `Scenario::sim_applicable`
//!   gives the overlap reason for it;
//! - `FuzzInput::plan` keeps exactly the events that applying
//!   `FaultEvent::overlaps` one event at a time keeps;
//! - `node_fault_at` and `coupler_fault_at` equal a per-lane first-match
//!   reference.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use tta_conformance::Scenario;
use tta_fuzz::{FuzzInput, FuzzRng};
use tta_guardian::sos::SosDomain;
use tta_guardian::CouplerFaultMode;
use tta_sim::{FaultEvent, FaultPersistence, FaultPlan, FaultTarget, NodeFaultKind};
use tta_types::NodeId;

const LISTS: u64 = 3_000;
const NODES: u8 = 4;
/// Every window opens before slot 100 and closes by slot 140; the
/// lookups are compared past that, where only permanent faults remain.
const LOOKUP_SLOTS: u64 = 160;

const OVERLAP_PANIC: &str =
    "single-faulty-coupler hypothesis violated: coupler fault windows on both channels overlap";
const OVERLAP_REASON: &str = "coupler fault envelopes on both channels overlap — the simulator \
                              enforces the single-faulty-coupler hypothesis";

fn event(rng: &mut FuzzRng) -> FaultEvent {
    let from_slot = rng.gen_range(100);
    let to_slot = from_slot + 1 + rng.gen_range(40);
    let persistence = match rng.gen_range(4) {
        0 => FaultPersistence::Permanent,
        1 => {
            let period = 1 + rng.gen_range(8);
            FaultPersistence::Intermittent {
                period,
                duty: 1 + rng.gen_range(period),
            }
        }
        _ => FaultPersistence::Transient,
    };
    let target = if rng.gen_bool(1, 2) {
        FaultTarget::Coupler {
            channel: rng.gen_range(2) as usize,
            mode: *rng.pick(&[
                CouplerFaultMode::Silence,
                CouplerFaultMode::BadFrame,
                CouplerFaultMode::OutOfSlot,
            ]),
        }
    } else {
        FaultTarget::Node {
            node: NodeId::new(rng.gen_range(u64::from(NODES)) as u8),
            kind: *rng.pick(&[
                NodeFaultKind::Mute,
                NodeFaultKind::Babbling,
                NodeFaultKind::Sos {
                    domain: SosDomain::Value,
                    magnitude: 0.5,
                },
                NodeFaultKind::MasqueradeColdStart { claimed_slot: 2 },
                NodeFaultKind::InvalidCState { claimed_slot: 3 },
            ]),
        }
    };
    FaultEvent {
        target,
        from_slot,
        to_slot,
        persistence,
    }
}

/// Whether `e` is active at `t`, restated from the persistence rules.
fn active(e: &FaultEvent, t: u64) -> bool {
    let in_window = e.from_slot <= t && t < e.to_slot;
    match e.persistence {
        FaultPersistence::Transient => in_window,
        FaultPersistence::Intermittent { period, duty } => {
            in_window && (t - e.from_slot) % period < duty
        }
        FaultPersistence::Permanent => e.from_slot <= t,
    }
}

/// The first event of node `node`'s lane active at `t`.
fn node_reference(events: &[FaultEvent], node: NodeId, t: u64) -> Option<(NodeFaultKind, u64)> {
    for e in events {
        if let FaultTarget::Node { node: n, kind } = e.target {
            if n == node && active(e, t) {
                return Some((kind, e.from_slot));
            }
        }
    }
    None
}

/// The mode of the first event of `channel`'s lane active at `t`.
fn coupler_reference(events: &[FaultEvent], channel: usize, t: u64) -> CouplerFaultMode {
    for e in events {
        if let FaultTarget::Coupler { channel: c, mode } = e.target {
            if c == channel && active(e, t) {
                return mode;
            }
        }
    }
    CouplerFaultMode::None
}

#[test]
fn builder_checker_repair_and_lookups_speak_one_vocabulary() {
    // A full-shifting star admits replays, so the only reason the
    // simulator phase can be skipped is the overlap rule.
    let mut scenario = Scenario::parse(
        "[cluster]\nnodes = 4\ntopology = \"star\"\nauthority = \"full_shifting\"\n",
        Path::new("."),
    )
    .expect("the cluster parses");
    let mut rng = FuzzRng::new(0x0E_7E27);
    let (mut rejected, mut accepted) = (0, 0);
    for list in 0..LISTS {
        let events: Vec<FaultEvent> = (0..rng.gen_range(7)).map(|_| event(&mut rng)).collect();

        // The builder panics iff the checker names the overlap.
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let built = catch_unwind(AssertUnwindSafe(|| {
            events
                .iter()
                .fold(FaultPlan::none(), |plan, e| plan.with(*e))
        }));
        std::panic::set_hook(report);
        scenario.faults.clone_from(&events);
        match (&built, scenario.sim_applicable()) {
            (Ok(_), Ok(())) => accepted += 1,
            (Err(payload), Err(why)) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned());
                assert_eq!(message.as_deref(), Some(OVERLAP_PANIC), "list {list}");
                assert_eq!(why, OVERLAP_REASON, "list {list}");
                rejected += 1;
            }
            (built, checked) => panic!(
                "list {list}: builder {} but sim_applicable {checked:?}: {events:?}",
                if built.is_ok() { "accepts" } else { "rejects" }
            ),
        }

        // The repair keeps exactly what the shared rule keeps, one
        // event at a time.
        let mut kept: Vec<FaultEvent> = Vec::new();
        for e in &events {
            if !kept.iter().any(|k| k.overlaps(e)) {
                kept.push(*e);
            }
        }
        let plan = FuzzInput {
            events: events.clone(),
        }
        .plan();
        assert_eq!(plan.events(), kept, "list {list}");
        if let Ok(built) = &built {
            assert_eq!(built, &plan, "an admissible list is kept whole");
        }

        // Dispatch is first-match-wins within each lane.
        for t in 0..LOOKUP_SLOTS {
            for node in (0..NODES).map(NodeId::new) {
                assert_eq!(
                    plan.node_fault_at(node, t),
                    node_reference(&kept, node, t),
                    "list {list}, {node} at slot {t}"
                );
            }
            for channel in 0..2 {
                assert_eq!(
                    plan.coupler_fault_at(channel, t),
                    coupler_reference(&kept, channel, t),
                    "list {list}, channel {channel} at slot {t}"
                );
            }
        }
    }
    assert!(
        rejected * 10 >= LISTS && accepted * 10 >= LISTS,
        "both outcomes need coverage: {rejected} rejected, {accepted} accepted"
    );
}
