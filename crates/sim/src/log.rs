//! Per-slot event logging.

use std::fmt;
use tta_protocol::ProtocolState;
use tta_types::NodeId;

/// A noteworthy event during one simulated slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotEvent {
    /// A node changed protocol state.
    StateChange {
        /// The node.
        node: NodeId,
        /// State before the slot.
        from: ProtocolState,
        /// State after the slot.
        to: ProtocolState,
    },
    /// A central guardian blocked a transmission.
    GuardianBlocked {
        /// The transmitting node.
        node: NodeId,
        /// Why it was blocked.
        reason: String,
    },
    /// A central guardian repaired an SOS defect.
    GuardianReshaped {
        /// The transmitting node.
        node: NodeId,
    },
    /// Receivers disagreed about a marginal frame (an SOS failure).
    SosDisagreement {
        /// The transmitting node.
        sender: NodeId,
        /// How many receivers accepted the frame.
        accepted: usize,
        /// How many receivers rejected it.
        rejected: usize,
    },
    /// A coupler replayed a buffered frame out of slot.
    CouplerReplay {
        /// Affected channel.
        channel: usize,
    },
    /// A healthy (non-fault-injected) node froze.
    HealthyNodeFroze {
        /// The victim.
        node: NodeId,
    },
    /// The host restarted a frozen controller.
    NodeRestarted {
        /// The restarted node.
        node: NodeId,
        /// How many restarts this node has had, counting this one.
        attempt: u32,
    },
    /// A restarted node reintegrated (reached active or passive again).
    NodeReintegrated {
        /// The recovered node.
        node: NodeId,
    },
}

impl fmt::Display for SlotEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotEvent::StateChange { node, from, to } => write!(f, "{node}: {from} → {to}"),
            SlotEvent::GuardianBlocked { node, reason } => {
                write!(f, "guardian blocked {node}: {reason}")
            }
            SlotEvent::GuardianReshaped { node } => write!(f, "guardian reshaped {node}'s frame"),
            SlotEvent::SosDisagreement {
                sender,
                accepted,
                rejected,
            } => write!(
                f,
                "SOS disagreement on {sender}'s frame ({accepted} accepted, {rejected} rejected)"
            ),
            SlotEvent::CouplerReplay { channel } => {
                write!(f, "coupler replayed a frame on channel {channel}")
            }
            SlotEvent::HealthyNodeFroze { node } => write!(f, "healthy node {node} froze"),
            SlotEvent::NodeRestarted { node, attempt } => {
                write!(f, "host restarted {node} (attempt {attempt})")
            }
            SlotEvent::NodeReintegrated { node } => write!(f, "{node} reintegrated"),
        }
    }
}

/// The log of one simulation run: events grouped by absolute slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotLog {
    entries: Vec<(u64, SlotEvent)>,
}

impl SlotLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event at `slot`.
    pub fn record(&mut self, slot: u64, event: SlotEvent) {
        self.entries.push((slot, event));
    }

    /// All `(slot, event)` entries in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[(u64, SlotEvent)] {
        &self.entries
    }

    /// Events recorded at a specific slot.
    pub fn at(&self, slot: u64) -> impl Iterator<Item = &SlotEvent> {
        self.entries
            .iter()
            .filter(move |(s, _)| *s == slot)
            .map(|(_, e)| e)
    }

    /// Number of events matching a predicate.
    #[must_use]
    pub fn count<F: Fn(&SlotEvent) -> bool>(&self, pred: F) -> usize {
        self.entries.iter().filter(|(_, e)| pred(e)).count()
    }
}

impl fmt::Display for SlotLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (slot, event) in &self.entries {
            writeln!(f, "[{slot:>5}] {event}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let mut log = SlotLog::new();
        log.record(3, SlotEvent::CouplerReplay { channel: 0 });
        log.record(
            5,
            SlotEvent::HealthyNodeFroze {
                node: NodeId::new(1),
            },
        );
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.at(3).count(), 1);
        assert_eq!(log.at(4).count(), 0);
        assert_eq!(
            log.count(|e| matches!(e, SlotEvent::HealthyNodeFroze { .. })),
            1
        );
    }

    #[test]
    fn display_prefixes_slots() {
        let mut log = SlotLog::new();
        log.record(7, SlotEvent::CouplerReplay { channel: 1 });
        assert!(log.to_string().contains("[    7]"));
    }

    #[test]
    fn event_display_variants() {
        let e = SlotEvent::StateChange {
            node: NodeId::new(0),
            from: ProtocolState::Listen,
            to: ProtocolState::Passive,
        };
        assert_eq!(e.to_string(), "A: listen → passive");
        let e = SlotEvent::SosDisagreement {
            sender: NodeId::new(2),
            accepted: 1,
            rejected: 2,
        };
        assert!(e.to_string().contains("SOS disagreement"));
        let e = SlotEvent::NodeRestarted {
            node: NodeId::new(1),
            attempt: 2,
        };
        assert_eq!(e.to_string(), "host restarted B (attempt 2)");
        let e = SlotEvent::NodeReintegrated {
            node: NodeId::new(1),
        };
        assert_eq!(e.to_string(), "B reintegrated");
    }
}
