//! Fault plans: what to inject, where, and when.

use std::fmt;
use tta_guardian::local::LocalGuardianFault;
use tta_guardian::sos::SosDomain;
use tta_guardian::CouplerFaultMode;
use tta_types::NodeId;

/// The misbehavior classes of a faulty *node* (transmitter-side faults;
/// the protocol controller itself keeps running).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeFaultKind {
    /// Transmissions carry a slightly-off-specification defect of the
    /// given magnitude in the given domain (Ademaj's SOS fault).
    Sos {
        /// Affected domain.
        domain: SosDomain,
        /// Normalized magnitude in `[0, 1]`.
        magnitude: f64,
    },
    /// Cold-start frames claim the wrong sender round slot (masquerading
    /// during startup).
    MasqueradeColdStart {
        /// The (incorrect) slot id the frames claim.
        claimed_slot: u16,
    },
    /// Frames carry an invalid C-state (claimed position is wrong),
    /// poisoning nodes that integrate on them.
    InvalidCState {
        /// The (incorrect) slot id the frames claim.
        claimed_slot: u16,
    },
    /// The node transmits noise in every slot (babbling idiot). Healthy
    /// guardians clip this to the node's own window.
    Babbling,
    /// The node transmits nothing (crash of the transmitter).
    Mute,
}

impl fmt::Display for NodeFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeFaultKind::Sos { domain, magnitude } => {
                write!(f, "SOS({domain}, {magnitude:.2})")
            }
            NodeFaultKind::MasqueradeColdStart { claimed_slot } => {
                write!(f, "masquerade cold-start (claims slot {claimed_slot})")
            }
            NodeFaultKind::InvalidCState { claimed_slot } => {
                write!(f, "invalid C-state (claims slot {claimed_slot})")
            }
            NodeFaultKind::Babbling => write!(f, "babbling idiot"),
            NodeFaultKind::Mute => write!(f, "mute"),
        }
    }
}

/// How long an injected fault persists relative to its
/// `[from_slot, to_slot)` window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FaultPersistence {
    /// Active throughout the window, then gone for good — the default,
    /// so every pre-existing plan literal behaves exactly as before.
    #[default]
    Transient,
    /// Recurring bursts inside the window: within `[from_slot, to_slot)`
    /// the fault is active for the first `duty` slots of every
    /// `period`-slot cycle, counted from `from_slot`.
    Intermittent {
        /// Cycle length in slots (> 0).
        period: u64,
        /// Active slots at the start of each cycle (`1..=period`).
        duty: u64,
    },
    /// Active from `from_slot` onward; `to_slot` is ignored.
    Permanent,
}

impl FaultPersistence {
    /// Whether a fault with this persistence and window is active at
    /// absolute slot `t`.
    #[must_use]
    pub fn active_at(&self, from_slot: u64, to_slot: u64, t: u64) -> bool {
        match *self {
            FaultPersistence::Transient => (from_slot..to_slot).contains(&t),
            FaultPersistence::Intermittent { period, duty } => {
                (from_slot..to_slot).contains(&t) && (t - from_slot) % period < duty
            }
            FaultPersistence::Permanent => t >= from_slot,
        }
    }

    /// First slot at which the fault can never be active again
    /// (`u64::MAX` for permanent faults) — the fault's *envelope* end,
    /// used by the single-faulty-coupler overlap check.
    #[must_use]
    pub fn envelope_end(&self, to_slot: u64) -> u64 {
        match self {
            FaultPersistence::Permanent => u64::MAX,
            FaultPersistence::Transient | FaultPersistence::Intermittent { .. } => to_slot,
        }
    }

    fn validate(&self, from_slot: u64, to_slot: u64) {
        match *self {
            FaultPersistence::Permanent => {}
            FaultPersistence::Transient => {
                assert!(from_slot < to_slot, "empty fault window");
            }
            FaultPersistence::Intermittent { period, duty } => {
                assert!(from_slot < to_slot, "empty fault window");
                assert!(period > 0, "intermittent fault needs a positive period");
                assert!(
                    (1..=period).contains(&duty),
                    "intermittent duty must be in 1..=period"
                );
            }
        }
    }
}

impl fmt::Display for FaultPersistence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPersistence::Transient => f.write_str("transient"),
            FaultPersistence::Intermittent { period, duty } => {
                write!(f, "intermittent(period {period}, duty {duty})")
            }
            FaultPersistence::Permanent => f.write_str("permanent"),
        }
    }
}

/// A node fault active during `[from_slot, to_slot)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFault {
    /// The faulty node.
    pub node: NodeId,
    /// Kind of misbehavior.
    pub kind: NodeFaultKind,
    /// First absolute slot at which the fault is active.
    pub from_slot: u64,
    /// First absolute slot at which it is no longer active (ignored for
    /// [`FaultPersistence::Permanent`]).
    pub to_slot: u64,
    /// How the fault persists over the window.
    pub persistence: FaultPersistence,
}

impl NodeFault {
    /// Whether the fault is active at absolute slot `t`.
    #[must_use]
    pub fn active_at(&self, t: u64) -> bool {
        self.persistence.active_at(self.from_slot, self.to_slot, t)
    }
}

/// A coupler fault active during `[from_slot, to_slot)` on one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CouplerFaultEvent {
    /// Affected channel (0 or 1).
    pub channel: usize,
    /// Fault mode during the window.
    pub mode: CouplerFaultMode,
    /// First absolute slot at which the fault is active.
    pub from_slot: u64,
    /// First absolute slot at which it is no longer active (ignored for
    /// [`FaultPersistence::Permanent`]).
    pub to_slot: u64,
    /// How the fault persists over the window.
    pub persistence: FaultPersistence,
}

impl CouplerFaultEvent {
    /// Whether the fault is active at absolute slot `t`.
    #[must_use]
    pub fn active_at(&self, t: u64) -> bool {
        self.persistence.active_at(self.from_slot, self.to_slot, t)
    }

    /// First slot at which the event can never be active again.
    #[must_use]
    pub fn envelope_end(&self) -> u64 {
        self.persistence.envelope_end(self.to_slot)
    }
}

/// A local-guardian fault (bus topology only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardianFaultEvent {
    /// Node whose guardian fails.
    pub node: NodeId,
    /// Failure mode.
    pub mode: LocalGuardianFault,
    /// First absolute slot at which the fault is active.
    pub from_slot: u64,
    /// First absolute slot at which it is no longer active (ignored for
    /// [`FaultPersistence::Permanent`]).
    pub to_slot: u64,
    /// How the fault persists over the window.
    pub persistence: FaultPersistence,
}

impl GuardianFaultEvent {
    /// Whether the fault is active at absolute slot `t`.
    #[must_use]
    pub fn active_at(&self, t: u64) -> bool {
        self.persistence.active_at(self.from_slot, self.to_slot, t)
    }
}

/// Everything the simulator injects during one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    node_faults: Vec<NodeFault>,
    coupler_faults: Vec<CouplerFaultEvent>,
    guardian_faults: Vec<GuardianFaultEvent>,
}

impl FaultPlan {
    /// The empty plan (golden run).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a node fault.
    #[must_use]
    pub fn with_node_fault(mut self, fault: NodeFault) -> Self {
        fault.persistence.validate(fault.from_slot, fault.to_slot);
        self.node_faults.push(fault);
        self
    }

    /// Adds a coupler fault.
    ///
    /// # Panics
    ///
    /// Panics if the channel index is not 0 or 1, the window is empty, or
    /// the event overlaps an already-added event on the *other* channel.
    /// The paper's single-faulty-coupler hypothesis (and our guardian
    /// model) assumes at most one coupler misbehaves at a time; two
    /// events on different channels with intersecting envelopes would
    /// silently simulate a double failure, so they are a construction
    /// error. Abutting windows (`a.to_slot == b.from_slot`) are legal.
    #[must_use]
    pub fn with_coupler_fault(mut self, fault: CouplerFaultEvent) -> Self {
        assert!(fault.channel < 2, "channels are 0 and 1");
        fault.persistence.validate(fault.from_slot, fault.to_slot);
        for other in &self.coupler_faults {
            assert!(
                other.channel == fault.channel
                    || fault.from_slot >= other.envelope_end()
                    || other.from_slot >= fault.envelope_end(),
                "single-faulty-coupler hypothesis violated: coupler fault \
                 windows on both channels overlap"
            );
        }
        self.coupler_faults.push(fault);
        self
    }

    /// Adds a local-guardian fault.
    #[must_use]
    pub fn with_guardian_fault(mut self, fault: GuardianFaultEvent) -> Self {
        fault.persistence.validate(fault.from_slot, fault.to_slot);
        self.guardian_faults.push(fault);
        self
    }

    /// The node fault (if any) active for `node` at slot `t`. The first
    /// matching entry wins.
    #[must_use]
    pub fn node_fault_at(&self, node: NodeId, t: u64) -> Option<&NodeFault> {
        self.node_faults
            .iter()
            .find(|f| f.node == node && f.active_at(t))
    }

    /// The coupler fault mode for `channel` at slot `t`.
    #[must_use]
    pub fn coupler_fault_at(&self, channel: usize, t: u64) -> CouplerFaultMode {
        self.coupler_faults
            .iter()
            .find(|f| f.channel == channel && f.active_at(t))
            .map_or(CouplerFaultMode::None, |f| f.mode)
    }

    /// The local-guardian fault mode for `node` at slot `t`.
    #[must_use]
    pub fn guardian_fault_at(&self, node: NodeId, t: u64) -> LocalGuardianFault {
        self.guardian_faults
            .iter()
            .find(|f| f.node == node && f.active_at(t))
            .map_or(LocalGuardianFault::None, |f| f.mode)
    }

    /// Nodes with any fault in the plan (used to classify outcomes:
    /// freezes of *these* nodes are expected, freezes of others are
    /// propagation).
    #[must_use]
    pub fn faulty_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.node_faults.iter().map(|f| f.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The plan's node faults, in injection order. Read access for
    /// harnesses that serialize plans (the campaign daemon's eval op).
    #[must_use]
    pub fn node_faults(&self) -> &[NodeFault] {
        &self.node_faults
    }

    /// The plan's coupler faults, in injection order.
    #[must_use]
    pub fn coupler_faults(&self) -> &[CouplerFaultEvent] {
        &self.coupler_faults
    }

    /// The plan's local-guardian faults, in injection order.
    #[must_use]
    pub fn guardian_faults(&self) -> &[GuardianFaultEvent] {
        &self.guardian_faults
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_faults.is_empty()
            && self.coupler_faults.is_empty()
            && self.guardian_faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let f = NodeFault {
            node: NodeId::new(0),
            kind: NodeFaultKind::Mute,
            from_slot: 10,
            to_slot: 20,
            persistence: FaultPersistence::Transient,
        };
        assert!(!f.active_at(9));
        assert!(f.active_at(10));
        assert!(f.active_at(19));
        assert!(!f.active_at(20));
    }

    #[test]
    fn plan_lookup_matches_node_and_time() {
        let plan = FaultPlan::none().with_node_fault(NodeFault {
            node: NodeId::new(2),
            kind: NodeFaultKind::Babbling,
            from_slot: 5,
            to_slot: 8,
            persistence: FaultPersistence::Transient,
        });
        assert!(plan.node_fault_at(NodeId::new(2), 6).is_some());
        assert!(plan.node_fault_at(NodeId::new(2), 8).is_none());
        assert!(plan.node_fault_at(NodeId::new(1), 6).is_none());
    }

    #[test]
    fn coupler_lookup_defaults_to_none() {
        let plan = FaultPlan::none().with_coupler_fault(CouplerFaultEvent {
            channel: 0,
            mode: CouplerFaultMode::Silence,
            from_slot: 0,
            to_slot: 4,
            persistence: FaultPersistence::Transient,
        });
        assert_eq!(plan.coupler_fault_at(0, 2), CouplerFaultMode::Silence);
        assert_eq!(plan.coupler_fault_at(1, 2), CouplerFaultMode::None);
        assert_eq!(plan.coupler_fault_at(0, 4), CouplerFaultMode::None);
    }

    #[test]
    fn guardian_lookup_defaults_to_none() {
        let plan = FaultPlan::none().with_guardian_fault(GuardianFaultEvent {
            node: NodeId::new(1),
            mode: LocalGuardianFault::StuckOpen,
            from_slot: 0,
            to_slot: 100,
            persistence: FaultPersistence::Transient,
        });
        assert_eq!(
            plan.guardian_fault_at(NodeId::new(1), 50),
            LocalGuardianFault::StuckOpen
        );
        assert_eq!(
            plan.guardian_fault_at(NodeId::new(0), 50),
            LocalGuardianFault::None
        );
    }

    #[test]
    fn faulty_nodes_deduplicates() {
        let plan = FaultPlan::none()
            .with_node_fault(NodeFault {
                node: NodeId::new(3),
                kind: NodeFaultKind::Mute,
                from_slot: 0,
                to_slot: 1,
                persistence: FaultPersistence::Transient,
            })
            .with_node_fault(NodeFault {
                node: NodeId::new(3),
                kind: NodeFaultKind::Babbling,
                from_slot: 5,
                to_slot: 6,
                persistence: FaultPersistence::Transient,
            });
        assert_eq!(plan.faulty_nodes(), [NodeId::new(3)]);
    }

    #[test]
    #[should_panic(expected = "channels are 0 and 1")]
    fn invalid_channel_is_rejected() {
        let _ = FaultPlan::none().with_coupler_fault(CouplerFaultEvent {
            channel: 2,
            mode: CouplerFaultMode::Silence,
            from_slot: 0,
            to_slot: 1,
            persistence: FaultPersistence::Transient,
        });
    }

    #[test]
    #[should_panic(expected = "empty fault window")]
    fn empty_window_is_rejected() {
        let _ = FaultPlan::none().with_node_fault(NodeFault {
            node: NodeId::new(0),
            kind: NodeFaultKind::Mute,
            from_slot: 5,
            to_slot: 5,
            persistence: FaultPersistence::Transient,
        });
    }

    fn coupler_event(channel: usize, from_slot: u64, to_slot: u64) -> CouplerFaultEvent {
        CouplerFaultEvent {
            channel,
            mode: CouplerFaultMode::Silence,
            from_slot,
            to_slot,
            persistence: FaultPersistence::Transient,
        }
    }

    #[test]
    fn default_persistence_is_transient() {
        assert_eq!(FaultPersistence::default(), FaultPersistence::Transient);
    }

    #[test]
    fn permanent_fault_ignores_window_end() {
        let f = NodeFault {
            node: NodeId::new(0),
            kind: NodeFaultKind::Mute,
            from_slot: 10,
            to_slot: 20,
            persistence: FaultPersistence::Permanent,
        };
        assert!(!f.active_at(9));
        assert!(f.active_at(10));
        assert!(f.active_at(20));
        assert!(f.active_at(u64::MAX));
        // A permanent fault may even have an empty nominal window.
        let plan = FaultPlan::none().with_node_fault(NodeFault { to_slot: 10, ..f });
        assert!(plan.node_fault_at(NodeId::new(0), 500).is_some());
    }

    #[test]
    fn intermittent_fault_pulses_with_its_duty_cycle() {
        let f = NodeFault {
            node: NodeId::new(0),
            kind: NodeFaultKind::Babbling,
            from_slot: 10,
            to_slot: 30,
            persistence: FaultPersistence::Intermittent { period: 5, duty: 2 },
        };
        for t in [10, 11, 15, 16, 25] {
            assert!(f.active_at(t), "slot {t} is in a burst");
        }
        for t in [9, 12, 14, 19, 30, 31] {
            assert!(!f.active_at(t), "slot {t} is between bursts or outside");
        }
    }

    #[test]
    #[should_panic(expected = "intermittent duty must be in 1..=period")]
    fn intermittent_zero_duty_is_rejected() {
        let _ = FaultPlan::none().with_node_fault(NodeFault {
            node: NodeId::new(0),
            kind: NodeFaultKind::Mute,
            from_slot: 0,
            to_slot: 10,
            persistence: FaultPersistence::Intermittent { period: 5, duty: 0 },
        });
    }

    #[test]
    #[should_panic(expected = "single-faulty-coupler hypothesis violated")]
    fn overlapping_dual_channel_coupler_faults_are_rejected() {
        let _ = FaultPlan::none()
            .with_coupler_fault(coupler_event(0, 10, 20))
            .with_coupler_fault(coupler_event(1, 19, 30));
    }

    #[test]
    #[should_panic(expected = "single-faulty-coupler hypothesis violated")]
    fn permanent_coupler_fault_blocks_the_other_channel_forever() {
        let perm = CouplerFaultEvent {
            persistence: FaultPersistence::Permanent,
            ..coupler_event(0, 10, 20)
        };
        // Starts long after the nominal window end, but a permanent
        // fault's envelope never closes.
        let _ = FaultPlan::none()
            .with_coupler_fault(perm)
            .with_coupler_fault(coupler_event(1, 1000, 2000));
    }

    #[test]
    fn abutting_dual_channel_coupler_faults_are_legal() {
        // a.to == b.from is the exact boundary: handover, not overlap.
        let plan = FaultPlan::none()
            .with_coupler_fault(coupler_event(0, 10, 20))
            .with_coupler_fault(coupler_event(1, 20, 30));
        assert_eq!(plan.coupler_fault_at(0, 19), CouplerFaultMode::Silence);
        assert_eq!(plan.coupler_fault_at(1, 19), CouplerFaultMode::None);
        assert_eq!(plan.coupler_fault_at(1, 20), CouplerFaultMode::Silence);
        // The same holds with the order of insertion reversed.
        let _ = FaultPlan::none()
            .with_coupler_fault(coupler_event(1, 20, 30))
            .with_coupler_fault(coupler_event(0, 10, 20));
    }

    #[test]
    fn same_channel_coupler_faults_may_overlap() {
        let plan = FaultPlan::none()
            .with_coupler_fault(coupler_event(0, 10, 30))
            .with_coupler_fault(CouplerFaultEvent {
                mode: CouplerFaultMode::BadFrame,
                ..coupler_event(0, 20, 40)
            });
        // First match wins inside the overlap.
        assert_eq!(plan.coupler_fault_at(0, 25), CouplerFaultMode::Silence);
        assert_eq!(plan.coupler_fault_at(0, 35), CouplerFaultMode::BadFrame);
    }

    #[test]
    fn persistence_display_is_informative() {
        assert_eq!(FaultPersistence::Transient.to_string(), "transient");
        assert_eq!(FaultPersistence::Permanent.to_string(), "permanent");
        assert_eq!(
            FaultPersistence::Intermittent { period: 8, duty: 3 }.to_string(),
            "intermittent(period 8, duty 3)"
        );
    }

    #[test]
    fn kind_display_is_informative() {
        let k = NodeFaultKind::Sos {
            domain: SosDomain::Time,
            magnitude: 0.5,
        };
        assert!(k.to_string().contains("SOS"));
        assert!(NodeFaultKind::Babbling.to_string().contains("babbling"));
    }
}
