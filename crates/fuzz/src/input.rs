//! The fuzzer's genotype: a flat, order-preserving list of fault
//! events that lowers into a [`FaultPlan`].
//!
//! [`FaultPlan`]'s builders *panic* on ill-formed plans (empty windows,
//! out-of-range channels, dual-channel coupler overlap) because
//! hand-written plans should fail loudly. A fuzzer cannot afford
//! panics, so [`FuzzInput`] keeps the mutation-friendly representation
//! and [`FuzzInput::plan`] performs the one repair mutation operators
//! cannot locally guarantee: dropping coupler events that would violate
//! the single-faulty-coupler hypothesis against an earlier kept event.
//! Everything else (window shape, persistence parameters) is a
//! structural invariant the mutators maintain.

use std::fmt::Write as _;
use tta_guardian::sos::SosDomain;
use tta_guardian::CouplerFaultMode;
use tta_sim::{CouplerFaultEvent, FaultPersistence, FaultPlan, NodeFault, NodeFaultKind};
use tta_types::NodeId;

/// What one event injects: a coupler (channel-side) or node
/// (transmitter-side) fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FuzzEventKind {
    /// A star-coupler fault on one channel.
    Coupler {
        /// Affected channel (0 or 1).
        channel: usize,
        /// Fault mode during the window.
        mode: CouplerFaultMode,
    },
    /// A node fault.
    Node {
        /// Dense index of the faulty node.
        node: u8,
        /// Kind of misbehavior.
        kind: NodeFaultKind,
    },
}

/// One fault event: a kind plus the window and persistence shared by
/// every injectable fault in the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzEvent {
    /// Coupler- or node-side fault.
    pub kind: FuzzEventKind,
    /// First absolute slot at which the fault is active.
    pub from_slot: u64,
    /// First absolute slot at which it is no longer active.
    pub to_slot: u64,
    /// Temporal persistence within (or beyond) the window.
    pub persistence: FaultPersistence,
}

impl FuzzEvent {
    /// First slot at which the event can never be active again.
    #[must_use]
    pub fn envelope_end(&self) -> u64 {
        self.persistence.envelope_end(self.to_slot)
    }

    /// Renders the event as one deterministic journal token, e.g.
    /// `coupler ch0 silence 10..50 transient`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self.kind {
            FuzzEventKind::Coupler { channel, mode } => {
                let _ = write!(out, "coupler ch{channel} {mode}");
            }
            FuzzEventKind::Node { node, kind } => {
                let _ = write!(out, "node {node} {}", node_kind_token(kind));
            }
        }
        let _ = write!(
            out,
            " {}..{} {}",
            self.from_slot, self.to_slot, self.persistence
        );
        out
    }
}

/// The DSL spelling of a node fault kind (parameters rendered inline
/// for journal lines; the scenario emitter writes them as keys).
#[must_use]
pub fn node_kind_token(kind: NodeFaultKind) -> String {
    match kind {
        NodeFaultKind::Sos { domain, magnitude } => {
            let domain = match domain {
                SosDomain::Time => "time",
                SosDomain::Value => "value",
            };
            format!("sos({domain}, {magnitude})")
        }
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
    pub events: Vec<FuzzEvent>,
}

impl FuzzInput {
    /// An input with no faults — the corpus origin.
    #[must_use]
    pub fn empty() -> Self {
        FuzzInput::default()
    }

    /// Lowers into a [`FaultPlan`], dropping any coupler event whose
    /// active envelope overlaps an earlier *kept* coupler event on the
    /// other channel (the builder would panic on it: the simulator
    /// enforces the single-faulty-coupler hypothesis). Node events are
    /// unconstrained. Keeping earlier events mirrors the simulator's
    /// first-match-wins dispatch, so repair never changes what an
    /// already-admitted prefix means.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::none();
        let mut kept: Vec<(usize, u64, u64)> = Vec::new();
        for event in &self.events {
            match event.kind {
                FuzzEventKind::Coupler { channel, mode } => {
                    let overlaps = kept.iter().any(|&(ch, from, end)| {
                        ch != channel && event.from_slot < end && from < event.envelope_end()
                    });
                    if overlaps {
                        continue;
                    }
                    kept.push((channel, event.from_slot, event.envelope_end()));
                    plan = plan.with_coupler_fault(CouplerFaultEvent {
                        channel,
                        mode,
                        from_slot: event.from_slot,
                        to_slot: event.to_slot,
                        persistence: event.persistence,
                    });
                }
                FuzzEventKind::Node { node, kind } => {
                    plan = plan.with_node_fault(NodeFault {
                        node: NodeId::new(node),
                        kind,
                        from_slot: event.from_slot,
                        to_slot: event.to_slot,
                        persistence: event.persistence,
                    });
                }
            }
        }
        plan
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
            .map(FuzzEvent::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coupler(channel: usize, from: u64, to: u64) -> FuzzEvent {
        FuzzEvent {
            kind: FuzzEventKind::Coupler {
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
    }
}
