//! Fault plans: what to inject, where, and when — and the paper's
//! fault hypothesis, whose two rules every tool checks plans against:
//! [`FaultEvent::overlaps`] (one faulty coupler at a time) and
//! [`can_replay`] (only a full-shifting star coupler replays).

use crate::topology::Topology;
use std::fmt;
use tta_guardian::sos::SosDomain;
use tta_guardian::{CouplerAuthority, CouplerFaultMode};
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

/// What a fault event makes misbehave: a node's transmitter or one
/// channel's star coupler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTarget {
    /// A transmitter-side fault; the node's protocol controller keeps
    /// running.
    Node {
        /// The faulty node.
        node: NodeId,
        /// Kind of misbehavior.
        kind: NodeFaultKind,
    },
    /// A star-coupler fault on one channel.
    Coupler {
        /// Affected channel (0 or 1).
        channel: usize,
        /// Fault mode during the window.
        mode: CouplerFaultMode,
    },
}

impl FaultTarget {
    /// The dispatch lane the target's events compete in.
    #[must_use]
    pub fn lane(&self) -> FaultLane {
        match *self {
            FaultTarget::Node { node, .. } => FaultLane::Node(node),
            FaultTarget::Coupler { channel, .. } => FaultLane::Channel(channel),
        }
    }
}

/// A dispatch lane: one channel's coupler events, or one node's node
/// events. Within a lane the first event active at a slot wins; lanes
/// never shadow each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLane {
    /// The coupler events of one channel.
    Channel(usize),
    /// The node events of one node.
    Node(NodeId),
}

impl fmt::Display for FaultLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultLane::Channel(channel) => write!(f, "channel {channel}"),
            FaultLane::Node(node) => write!(f, "node {}", node.index()),
        }
    }
}

/// One injected fault: a target misbehaving over `[from_slot, to_slot)`
/// with a persistence. Scenario files, the fuzzer, the plan lints and
/// the campaign's built-in scenarios all speak this one type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// What misbehaves, and how.
    pub target: FaultTarget,
    /// First absolute slot at which the fault is active.
    pub from_slot: u64,
    /// First absolute slot at which it is no longer active (ignored for
    /// [`FaultPersistence::Permanent`]).
    pub to_slot: u64,
    /// How the fault persists over the window.
    pub persistence: FaultPersistence,
}

impl FaultEvent {
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

    /// Whether the event is a coupler replaying a buffered frame out of
    /// slot, which only [`can_replay`] couplers can do.
    #[must_use]
    pub fn is_replay(&self) -> bool {
        matches!(
            self.target,
            FaultTarget::Coupler {
                mode: CouplerFaultMode::OutOfSlot,
                ..
            }
        )
    }

    /// The paper's first fault-hypothesis rule, *at most one star
    /// coupler misbehaves at a time*: whether `self` and `other` break
    /// it, being coupler faults on different channels whose active
    /// envelopes intersect. Abutting windows (`a.to_slot ==
    /// b.from_slot`) hand over and do not overlap.
    #[must_use]
    pub fn overlaps(&self, other: &FaultEvent) -> bool {
        match (self.target, other.target) {
            (FaultTarget::Coupler { channel: a, .. }, FaultTarget::Coupler { channel: b, .. }) => {
                a != b
                    && self.from_slot < other.envelope_end()
                    && other.from_slot < self.envelope_end()
            }
            _ => false,
        }
    }
}

/// The paper's second fault-hypothesis rule: only a star coupler that
/// buffers whole frames (full shifting) can replay one out of slot, so
/// only there does a plan's [`FaultEvent::is_replay`] event exist.
#[must_use]
pub fn can_replay(topology: Topology, authority: CouplerAuthority) -> bool {
    topology.is_central() && authority.can_buffer_full_frames()
}

/// Everything the simulator injects during one run: fault events in
/// injection order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (golden run).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds an event.
    ///
    /// # Panics
    ///
    /// Panics if a coupler event's channel is not 0 or 1, the window is
    /// empty or its persistence malformed, or the event
    /// [`overlaps`](FaultEvent::overlaps) an already-added one. Our
    /// guardian model assumes the single-faulty-coupler hypothesis; two
    /// events on different channels with intersecting envelopes would
    /// silently simulate a double failure, so they are a construction
    /// error.
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        if let FaultTarget::Coupler { channel, .. } = event.target {
            assert!(channel < 2, "channels are 0 and 1");
        }
        event.persistence.validate(event.from_slot, event.to_slot);
        assert!(
            !self.events.iter().any(|other| other.overlaps(&event)),
            "single-faulty-coupler hypothesis violated: coupler fault \
             windows on both channels overlap"
        );
        self.events.push(event);
        self
    }

    /// The plan's events, in injection order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The node fault (if any) active for `node` at slot `t`: its kind
    /// and the slot its window opens. The first matching event wins.
    #[must_use]
    pub fn node_fault_at(&self, node: NodeId, t: u64) -> Option<(NodeFaultKind, u64)> {
        self.events.iter().find_map(|e| match e.target {
            FaultTarget::Node { node: n, kind } if n == node && e.active_at(t) => {
                Some((kind, e.from_slot))
            }
            _ => None,
        })
    }

    /// The coupler fault mode for `channel` at slot `t`. The first
    /// matching event wins.
    #[must_use]
    pub fn coupler_fault_at(&self, channel: usize, t: u64) -> CouplerFaultMode {
        self.events
            .iter()
            .find_map(|e| match e.target {
                FaultTarget::Coupler { channel: c, mode } if c == channel && e.active_at(t) => {
                    Some(mode)
                }
                _ => None,
            })
            .unwrap_or(CouplerFaultMode::None)
    }

    /// The node targeted by each node event, in plan order.
    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.events.iter().filter_map(|e| match e.target {
            FaultTarget::Node { node, .. } => Some(node),
            FaultTarget::Coupler { .. } => None,
        })
    }

    /// Nodes with any fault in the plan (used to classify outcomes:
    /// freezes of *these* nodes are expected, freezes of others are
    /// propagation).
    #[must_use]
    pub fn faulty_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.nodes().collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Whether `node` has any fault in the plan — [`Self::faulty_nodes`]
    /// as a membership test, without collecting.
    #[must_use]
    pub fn is_faulty(&self, node: NodeId) -> bool {
        self.nodes().any(|n| n == node)
    }

    /// First slot from which no fault of the plan can be active again:
    /// the largest envelope end over its events (0 for the empty plan,
    /// `u64::MAX` if any event is permanent).
    #[must_use]
    pub fn quiet_from(&self) -> u64 {
        self.events
            .iter()
            .map(FaultEvent::envelope_end)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_event(node: u8, kind: NodeFaultKind, from_slot: u64, to_slot: u64) -> FaultEvent {
        FaultEvent {
            target: FaultTarget::Node {
                node: NodeId::new(node),
                kind,
            },
            from_slot,
            to_slot,
            persistence: FaultPersistence::Transient,
        }
    }

    fn coupler_event(channel: usize, from_slot: u64, to_slot: u64) -> FaultEvent {
        FaultEvent {
            target: FaultTarget::Coupler {
                channel,
                mode: CouplerFaultMode::Silence,
            },
            from_slot,
            to_slot,
            persistence: FaultPersistence::Transient,
        }
    }

    #[test]
    fn windows_are_half_open() {
        let f = node_event(0, NodeFaultKind::Mute, 10, 20);
        assert!(!f.active_at(9));
        assert!(f.active_at(10));
        assert!(f.active_at(19));
        assert!(!f.active_at(20));
    }

    #[test]
    fn plan_lookup_matches_node_and_time() {
        let plan = FaultPlan::none().with(node_event(2, NodeFaultKind::Babbling, 5, 8));
        assert_eq!(
            plan.node_fault_at(NodeId::new(2), 6),
            Some((NodeFaultKind::Babbling, 5))
        );
        assert!(plan.node_fault_at(NodeId::new(2), 8).is_none());
        assert!(plan.node_fault_at(NodeId::new(1), 6).is_none());
    }

    #[test]
    fn coupler_lookup_defaults_to_none() {
        let plan = FaultPlan::none().with(coupler_event(0, 0, 4));
        assert_eq!(plan.coupler_fault_at(0, 2), CouplerFaultMode::Silence);
        assert_eq!(plan.coupler_fault_at(1, 2), CouplerFaultMode::None);
        assert_eq!(plan.coupler_fault_at(0, 4), CouplerFaultMode::None);
    }

    #[test]
    fn lanes_separate_targets() {
        // A coupler event never answers a node lookup, nor the reverse.
        let plan = FaultPlan::none()
            .with(coupler_event(0, 0, 10))
            .with(node_event(0, NodeFaultKind::Mute, 0, 10));
        assert_eq!(plan.coupler_fault_at(0, 5), CouplerFaultMode::Silence);
        assert_eq!(
            plan.node_fault_at(NodeId::new(0), 5),
            Some((NodeFaultKind::Mute, 0))
        );
        assert_eq!(
            plan.events()[0].target.lane().to_string(),
            "channel 0",
            "lanes render as the plan lints name them"
        );
        assert_eq!(plan.events()[1].target.lane().to_string(), "node 0");
    }

    #[test]
    fn faulty_nodes_deduplicates() {
        let plan = FaultPlan::none()
            .with(node_event(3, NodeFaultKind::Mute, 0, 1))
            .with(coupler_event(1, 0, 1))
            .with(node_event(3, NodeFaultKind::Babbling, 5, 6));
        assert_eq!(plan.faulty_nodes(), [NodeId::new(3)]);
        assert!(plan.is_faulty(NodeId::new(3)));
        assert!(
            !plan.is_faulty(NodeId::new(1)),
            "coupler events name no node"
        );
    }

    #[test]
    #[should_panic(expected = "channels are 0 and 1")]
    fn invalid_channel_is_rejected() {
        let _ = FaultPlan::none().with(coupler_event(2, 0, 1));
    }

    #[test]
    #[should_panic(expected = "empty fault window")]
    fn empty_window_is_rejected() {
        let _ = FaultPlan::none().with(node_event(0, NodeFaultKind::Mute, 5, 5));
    }

    #[test]
    fn default_persistence_is_transient() {
        assert_eq!(FaultPersistence::default(), FaultPersistence::Transient);
    }

    #[test]
    fn permanent_fault_ignores_window_end() {
        let f = FaultEvent {
            persistence: FaultPersistence::Permanent,
            ..node_event(0, NodeFaultKind::Mute, 10, 20)
        };
        assert!(!f.active_at(9));
        assert!(f.active_at(10));
        assert!(f.active_at(20));
        assert!(f.active_at(u64::MAX));
        // A permanent fault may even have an empty nominal window.
        let plan = FaultPlan::none().with(FaultEvent { to_slot: 10, ..f });
        assert!(plan.node_fault_at(NodeId::new(0), 500).is_some());
    }

    #[test]
    fn intermittent_fault_pulses_with_its_duty_cycle() {
        let f = FaultEvent {
            persistence: FaultPersistence::Intermittent { period: 5, duty: 2 },
            ..node_event(0, NodeFaultKind::Babbling, 10, 30)
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
        let _ = FaultPlan::none().with(FaultEvent {
            persistence: FaultPersistence::Intermittent { period: 5, duty: 0 },
            ..node_event(0, NodeFaultKind::Mute, 0, 10)
        });
    }

    #[test]
    #[should_panic(expected = "single-faulty-coupler hypothesis violated")]
    fn overlapping_dual_channel_coupler_faults_are_rejected() {
        let _ = FaultPlan::none()
            .with(coupler_event(0, 10, 20))
            .with(coupler_event(1, 19, 30));
    }

    #[test]
    #[should_panic(expected = "single-faulty-coupler hypothesis violated")]
    fn permanent_coupler_fault_blocks_the_other_channel_forever() {
        let perm = FaultEvent {
            persistence: FaultPersistence::Permanent,
            ..coupler_event(0, 10, 20)
        };
        // Starts long after the nominal window end, but a permanent
        // fault's envelope never closes.
        let _ = FaultPlan::none()
            .with(perm)
            .with(coupler_event(1, 1000, 2000));
    }

    #[test]
    fn abutting_dual_channel_coupler_faults_are_legal() {
        // a.to == b.from is the exact boundary: handover, not overlap.
        let plan = FaultPlan::none()
            .with(coupler_event(0, 10, 20))
            .with(coupler_event(1, 20, 30));
        assert_eq!(plan.coupler_fault_at(0, 19), CouplerFaultMode::Silence);
        assert_eq!(plan.coupler_fault_at(1, 19), CouplerFaultMode::None);
        assert_eq!(plan.coupler_fault_at(1, 20), CouplerFaultMode::Silence);
        // The same holds with the order of insertion reversed.
        let _ = FaultPlan::none()
            .with(coupler_event(1, 20, 30))
            .with(coupler_event(0, 10, 20));
    }

    #[test]
    fn same_channel_coupler_faults_may_overlap() {
        let bad_frame = FaultEvent {
            target: FaultTarget::Coupler {
                channel: 0,
                mode: CouplerFaultMode::BadFrame,
            },
            ..coupler_event(0, 20, 40)
        };
        let plan = FaultPlan::none()
            .with(coupler_event(0, 10, 30))
            .with(bad_frame);
        // First match wins inside the overlap.
        assert_eq!(plan.coupler_fault_at(0, 25), CouplerFaultMode::Silence);
        assert_eq!(plan.coupler_fault_at(0, 35), CouplerFaultMode::BadFrame);
    }

    #[test]
    fn only_cross_channel_coupler_events_overlap() {
        let node = node_event(1, NodeFaultKind::Mute, 0, 100);
        assert!(!node.overlaps(&coupler_event(0, 0, 100)));
        assert!(!coupler_event(0, 0, 100).overlaps(&node));
        assert!(!coupler_event(0, 0, 100).overlaps(&coupler_event(0, 0, 100)));
        assert!(coupler_event(0, 0, 100).overlaps(&coupler_event(1, 99, 100)));
        assert!(coupler_event(1, 99, 100).overlaps(&coupler_event(0, 0, 100)));
    }

    #[test]
    fn only_a_full_shifting_star_coupler_replays() {
        for authority in CouplerAuthority::all() {
            assert!(!can_replay(Topology::Bus, authority));
            assert_eq!(
                can_replay(Topology::Star, authority),
                authority == CouplerAuthority::FullShifting
            );
        }
        let replay = FaultEvent {
            target: FaultTarget::Coupler {
                channel: 1,
                mode: CouplerFaultMode::OutOfSlot,
            },
            ..coupler_event(1, 0, 1)
        };
        assert!(replay.is_replay());
        assert!(!coupler_event(1, 0, 1).is_replay());
    }

    #[test]
    fn quiet_from_is_the_largest_envelope_end() {
        assert_eq!(FaultPlan::none().quiet_from(), 0);
        let node = FaultEvent {
            persistence: FaultPersistence::Intermittent { period: 4, duty: 1 },
            ..node_event(1, NodeFaultKind::Mute, 5, 30)
        };
        let plan = FaultPlan::none().with(node).with(coupler_event(1, 10, 40));
        assert_eq!(plan.quiet_from(), 40);
        // Nothing is active from there on.
        for t in 40..200 {
            assert!(plan.node_fault_at(NodeId::new(1), t).is_none());
            assert_eq!(plan.coupler_fault_at(1, t), CouplerFaultMode::None);
        }
        let permanent = plan.with(FaultEvent {
            persistence: FaultPersistence::Permanent,
            ..node
        });
        assert_eq!(permanent.quiet_from(), u64::MAX);
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
