//! The fuzzer's genotype: a flat, order-preserving list of
//! [`FaultEvent`]s that lowers into a [`FaultPlan`].
//!
//! [`FaultPlan::with`] *panics* on ill-formed plans (empty windows,
//! out-of-range channels, dual-channel coupler overlap) because
//! hand-written plans should fail loudly. A fuzzer cannot afford
//! panics, so [`FuzzInput`] keeps the mutation-friendly list and
//! [`FuzzInput::plan`] performs the one repair mutation operators
//! cannot locally guarantee: dropping events that
//! [`overlap`](FaultEvent::overlaps) an earlier kept event.
//! Everything else (window shape, persistence parameters) is a
//! structural invariant the mutators maintain.

use std::fmt::Write as _;
use tta_sim::{FaultEvent, FaultPlan, FaultTarget, NodeFaultKind};

/// Renders one event as a deterministic journal token, e.g.
/// `coupler ch0 silence 10..50 transient` or `node 1 babbling 5..9
/// permanent` (the node's index, not its letter).
#[must_use]
pub(crate) fn render_event(event: &FaultEvent) -> String {
    let mut out = String::new();
    match event.target {
        FaultTarget::Coupler { channel, mode } => {
            let _ = write!(out, "coupler ch{channel} {mode}");
        }
        FaultTarget::Node { node, kind } => {
            let _ = write!(out, "node {} {}", node.index(), node_kind_token(kind));
        }
    }
    let _ = write!(
        out,
        " {}..{} {}",
        event.from_slot, event.to_slot, event.persistence
    );
    out
}

/// The DSL spelling of a node fault kind (parameters rendered inline
/// for journal lines; the scenario emitter writes them as keys).
#[must_use]
pub fn node_kind_token(kind: NodeFaultKind) -> String {
    match kind {
        NodeFaultKind::Sos { domain, magnitude } => format!("sos({domain}, {magnitude})"),
        NodeFaultKind::MasqueradeColdStart { claimed_slot } => {
            format!("masquerade_cold_start({claimed_slot})")
        }
        NodeFaultKind::InvalidCState { claimed_slot } => {
            format!("invalid_cstate({claimed_slot})")
        }
        NodeFaultKind::Babbling => "babbling".to_string(),
        NodeFaultKind::Mute => "mute".to_string(),
    }
}

/// A mutable fault plan: the corpus entry the mutation engine works on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FuzzInput {
    /// Events in injection order (first-match-wins in the simulator).
    pub events: Vec<FaultEvent>,
}

impl FuzzInput {
    /// An input with no faults — the corpus origin.
    #[must_use]
    pub fn empty() -> Self {
        FuzzInput::default()
    }

    /// Lowers into a [`FaultPlan`], dropping every event that
    /// [`overlaps`](FaultEvent::overlaps) an earlier *kept* one (the
    /// builder would panic on it: the simulator enforces the
    /// single-faulty-coupler hypothesis). Keeping earlier events
    /// mirrors the simulator's first-match-wins dispatch, so repair
    /// never changes what an already-admitted prefix means.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        repaired(&self.events)
    }

    /// Deterministic multi-line rendering: one event per line, or
    /// `(no faults)` for the empty input. Journal text and content
    /// hashes both build on this.
    #[must_use]
    pub fn render(&self) -> String {
        if self.events.is_empty() {
            return "(no faults)".to_string();
        }
        self.events
            .iter()
            .map(render_event)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The plan of `events` without those that overlap an earlier kept one
/// ([`FuzzInput::plan`]).
pub(crate) fn repaired<'a>(events: impl IntoIterator<Item = &'a FaultEvent>) -> FaultPlan {
    events.into_iter().fold(FaultPlan::none(), |plan, event| {
        if plan.events().iter().any(|kept| kept.overlaps(event)) {
            plan
        } else {
            plan.with(*event)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_guardian::CouplerFaultMode;
    use tta_sim::FaultPersistence;
    use tta_types::NodeId;

    fn coupler(channel: usize, from: u64, to: u64) -> FaultEvent {
        FaultEvent {
            target: FaultTarget::Coupler {
                channel,
                mode: CouplerFaultMode::Silence,
            },
            from_slot: from,
            to_slot: to,
            persistence: FaultPersistence::Transient,
        }
    }

    #[test]
    fn overlapping_dual_channel_events_are_repaired_not_panicked() {
        let input = FuzzInput {
            events: vec![coupler(0, 10, 50), coupler(1, 20, 30)],
        };
        let plan = input.plan();
        // The second event is dropped; the first survives.
        assert_eq!(plan.coupler_fault_at(0, 15), CouplerFaultMode::Silence);
        assert_eq!(plan.coupler_fault_at(1, 25), CouplerFaultMode::None);
    }

    #[test]
    fn permanent_envelope_blocks_the_other_channel_forever() {
        let mut first = coupler(0, 10, 11);
        first.persistence = FaultPersistence::Permanent;
        let input = FuzzInput {
            events: vec![first, coupler(1, 300, 310)],
        };
        let plan = input.plan();
        assert_eq!(plan.coupler_fault_at(1, 305), CouplerFaultMode::None);
    }

    #[test]
    fn abutting_windows_on_both_channels_are_legal() {
        let input = FuzzInput {
            events: vec![coupler(0, 10, 50), coupler(1, 50, 60)],
        };
        let plan = input.plan();
        assert_eq!(plan.coupler_fault_at(1, 55), CouplerFaultMode::Silence);
    }

    #[test]
    fn render_is_deterministic_and_readable() {
        let input = FuzzInput {
            events: vec![coupler(0, 10, 50)],
        };
        assert_eq!(input.render(), "coupler ch0 silence 10..50 transient");
        assert_eq!(FuzzInput::empty().render(), "(no faults)");
        let node = FaultEvent {
            target: FaultTarget::Node {
                node: NodeId::new(2),
                kind: NodeFaultKind::Babbling,
            },
            persistence: FaultPersistence::Permanent,
            ..coupler(0, 5, 9)
        };
        assert_eq!(render_event(&node), "node 2 babbling 5..9 permanent");
    }
}
