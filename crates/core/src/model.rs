//! The cluster transition system (one transition = one TDMA slot).

use crate::config::ClusterConfig;
use crate::state::ClusterState;
use tta_guardian::{BufferedFrame, CouplerFaultMode, StarCoupler};
use tta_modelcheck::TransitionSystem;
use tta_protocol::{
    ChannelObservation, ChannelView, Controller, SendIntent, TransitionCause, Transitions,
};
use tta_types::{FrameKind, NodeId};

/// Saturation cap for the out-of-slot counter under an unlimited budget;
/// keeps the state space finite without affecting semantics (the counter
/// is only compared against finite budgets, which
/// [`ClusterConfig::validate`] holds to at most this cap: a larger one
/// would never run out). Exported so state-lifting code (the
/// conformance oracle) saturates its replay count the same way.
pub const REPLAY_COUNTER_CAP: u8 = 7;

/// How a particular successor was produced: which coupler faults were
/// injected and what the channels carried. Used by trace narration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// Fault modes of coupler 0 and coupler 1 during the slot.
    pub faults: [CouplerFaultMode; 2],
    /// What every node observed on the two channels.
    pub view: ChannelView,
}

/// The Section 4 model of the TTA star topology with redundant central
/// guardians.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    config: ClusterConfig,
}

impl ClusterModel {
    /// Builds the model for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ClusterConfig::validate`]).
    #[must_use]
    #[inline]
    pub fn new(config: ClusterConfig) -> Self {
        config.validate();
        ClusterModel { config }
    }

    /// The model's configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The single initial state: all nodes in `freeze`, couplers empty.
    #[must_use]
    pub fn initial_state(&self) -> ClusterState {
        ClusterState::new(
            NodeId::first(self.config.nodes)
                .map(|id| Controller::new(id, self.config.slots_per_round()))
                .collect(),
        )
    }

    /// Merges all nodes' transmissions onto the (shared) coupler input:
    /// silence if nobody sends, the frame if exactly one node sends, a
    /// collision (bad frame) otherwise.
    #[must_use]
    pub fn merged_input(&self, state: &ClusterState) -> ChannelObservation {
        let mut input = ChannelObservation::silence();
        let mut senders = 0u8;
        for node in state.nodes() {
            let obs = match node.send_intent() {
                SendIntent::Silent => continue,
                SendIntent::ColdStart { id } => ChannelObservation::frame(FrameKind::ColdStart, id),
                SendIntent::CStateFrame { id } => ChannelObservation::frame(FrameKind::CState, id),
            };
            senders += 1;
            input = obs;
        }
        if senders > 1 {
            ChannelObservation::bad()
        } else {
            input
        }
    }

    /// Fault modes coupler `index` may exhibit in `state`, honoring the
    /// coupler's authority, the replay budget, and the cold-start
    /// duplication constraint. Replays with an empty buffer are excluded
    /// (they are indistinguishable from the silence fault).
    fn allowed_faults(&self, state: &ClusterState, index: usize) -> Vec<CouplerFaultMode> {
        let mut modes = vec![
            CouplerFaultMode::None,
            CouplerFaultMode::Silence,
            CouplerFaultMode::BadFrame,
        ];
        if self.config.authority.can_buffer_full_frames() {
            let buffer = state.coupler_buffers()[index];
            let budget_ok = self
                .config
                .out_of_slot_budget
                .allows(state.out_of_slot_used());
            let kind_ok =
                !(self.config.forbid_cold_start_replay && buffer.kind == FrameKind::ColdStart);
            if budget_ok && buffer.is_replayable() && kind_ok {
                modes.push(CouplerFaultMode::OutOfSlot);
            }
        }
        modes
    }

    /// Expands one state into all `(successor, info)` pairs. Violating
    /// states are absorbing (the monitor has latched; exploration stops
    /// there anyway).
    #[must_use]
    pub fn expand(&self, state: &ClusterState) -> Vec<(ClusterState, StepInfo)> {
        let mut out = Vec::new();
        self.for_each_step(state, &mut |succ, info| out.push((succ, info)));
        out
    }

    /// Whether the transition relation admits the step `state → next`.
    ///
    /// This is the model's *step-admission* judgment, the primitive the
    /// conformance oracle replays simulator traces against: a step is
    /// admitted iff some coupler-fault combination and host-choice vector
    /// produces exactly `next`.
    #[must_use]
    pub fn admits(&self, state: &ClusterState, next: &ClusterState) -> bool {
        self.step_between(state, next).is_some()
    }

    /// The [`StepInfo`] of some admitted step `state → next`, or `None`
    /// if the relation does not admit it. When several fault combinations
    /// produce the same successor, the first in enumeration order wins
    /// (healthy couplers sort first, so the least-faulty explanation is
    /// preferred).
    #[must_use]
    pub fn step_between(&self, state: &ClusterState, next: &ClusterState) -> Option<StepInfo> {
        let mut found = None;
        self.for_each_step(state, &mut |succ, info| {
            if found.is_none() && &succ == next {
                found = Some(info);
            }
        });
        found
    }

    /// Drives `emit` over every `(successor, info)` pair of `state`.
    ///
    /// This is the allocation-lean core behind [`Self::expand`] and the
    /// [`TransitionSystem`] impl: the per-node option lists and the
    /// odometer are reused across all fault combinations of the state,
    /// and callers that only need the successors (the explorers, via
    /// `successors`) never materialize an intermediate
    /// `Vec<(ClusterState, StepInfo)>`.
    pub fn for_each_step(
        &self,
        state: &ClusterState,
        emit: &mut dyn FnMut(ClusterState, StepInfo),
    ) {
        if state.frozen_victim().is_some() {
            return;
        }
        let input = self.merged_input(state);
        let buffers = state.coupler_buffers();

        let faults0 = self.allowed_faults(state, 0);
        let faults1: Vec<CouplerFaultMode> = if self.config.symmetric_fault_reduction {
            vec![CouplerFaultMode::None]
        } else {
            self.allowed_faults(state, 1)
        };

        // Scratch reused across every fault combination.
        let mut options: Vec<Transitions> = Vec::with_capacity(state.nodes().len());
        let mut indices: Vec<usize> = Vec::with_capacity(state.nodes().len());
        for &f0 in &faults0 {
            for &f1 in &faults1 {
                // Single-fault hypothesis: at most one coupler faulty.
                if f0.is_faulty() && f1.is_faulty() {
                    continue;
                }
                // Budget applies across both couplers.
                if f0 == CouplerFaultMode::OutOfSlot && f1 == CouplerFaultMode::OutOfSlot {
                    continue; // unreachable given single-fault, kept for clarity
                }
                let (obs0, buf0) = relay(self, buffers[0], input, f0);
                let (obs1, buf1) = relay(self, buffers[1], input, f1);
                let view = ChannelView::new(obs0, obs1);
                let replays = u8::from(f0 == CouplerFaultMode::OutOfSlot)
                    + u8::from(f1 == CouplerFaultMode::OutOfSlot);
                let used = state
                    .out_of_slot_used()
                    .saturating_add(replays)
                    .min(REPLAY_COUNTER_CAP);
                let info = StepInfo {
                    faults: [f0, f1],
                    view,
                };

                // Cartesian product of per-node transition choices.
                options.clear();
                options.extend(
                    state
                        .nodes()
                        .iter()
                        .map(|n| n.successors(&view, &self.config.host_choices)),
                );
                indices.clear();
                indices.resize(options.len(), 0);
                loop {
                    let mut nodes = Vec::with_capacity(options.len());
                    let mut victim = state.frozen_victim();
                    for (i, opts) in options.iter().enumerate() {
                        let t = &opts[indices[i]];
                        if victim.is_none()
                            && state.nodes()[i].is_integrated()
                            && t.next.protocol_state() == tta_protocol::ProtocolState::Freeze
                            && t.cause == TransitionCause::Protocol
                        {
                            victim = Some(NodeId::new(i as u8));
                        }
                        nodes.push(t.next);
                    }
                    emit(
                        ClusterState::with_parts(nodes, [buf0, buf1], used, victim),
                        info,
                    );
                    // Advance the odometer.
                    let mut i = 0;
                    loop {
                        if i == options.len() {
                            break;
                        }
                        indices[i] += 1;
                        if indices[i] < options[i].len() {
                            break;
                        }
                        indices[i] = 0;
                        i += 1;
                    }
                    if i == options.len() {
                        break;
                    }
                }
            }
        }
    }
}

fn relay(
    model: &ClusterModel,
    buffer: BufferedFrame,
    input: ChannelObservation,
    fault: CouplerFaultMode,
) -> (ChannelObservation, BufferedFrame) {
    let mut coupler = StarCoupler::with_buffer(model.config.authority, buffer);
    let obs = coupler.relay(input, fault);
    (obs, coupler.buffer())
}

impl TransitionSystem for ClusterModel {
    type State = ClusterState;

    fn initial_states(&self) -> Vec<ClusterState> {
        vec![self.initial_state()]
    }

    fn successors(&self, state: &ClusterState, out: &mut Vec<ClusterState>) {
        self.for_each_step(state, &mut |succ, _| out.push(succ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultBudget;
    use tta_guardian::CouplerAuthority;
    use tta_protocol::{CliqueCounters, ProtocolState};

    fn model(authority: CouplerAuthority) -> ClusterModel {
        ClusterModel::new(ClusterConfig::paper(authority))
    }

    #[test]
    fn initial_state_is_all_freeze() {
        let m = model(CouplerAuthority::Passive);
        let s = m.initial_state();
        assert!(s
            .nodes()
            .iter()
            .all(|n| n.protocol_state() == ProtocolState::Freeze));
    }

    #[test]
    fn merged_input_handles_silence_single_and_collision() {
        let m = model(CouplerAuthority::Passive);
        // All-freeze state: no senders.
        assert_eq!(
            m.merged_input(&m.initial_state()),
            ChannelObservation::silence()
        );

        // Every node frozen except the given ones, each in `state` at
        // `slot`.
        let slots = m.config().slots_per_round();
        let cluster = |senders: &[(u8, ProtocolState, u16)]| {
            let mut nodes: Vec<Controller> = NodeId::first(m.config().nodes)
                .map(|id| Controller::new(id, slots))
                .collect();
            for &(id, state, slot) in senders {
                nodes[usize::from(id)] = Controller::from_parts(
                    NodeId::new(id),
                    slots,
                    state,
                    slot,
                    CliqueCounters::new(),
                    false,
                    0,
                    0,
                );
            }
            ClusterState::new(nodes)
        };

        // A single sender: node 0 cold-starting in its own slot 1, or
        // node 2 active in its own slot 3.
        assert_eq!(
            m.merged_input(&cluster(&[(0, ProtocolState::ColdStart, 1)])),
            ChannelObservation::frame(FrameKind::ColdStart, 1)
        );
        assert_eq!(
            m.merged_input(&cluster(&[(2, ProtocolState::Active, 3)])),
            ChannelObservation::frame(FrameKind::CState, 3)
        );
        // Two senders collide: nodes 0 and 1, each cold-starting in its
        // own slot.
        assert_eq!(
            m.merged_input(&cluster(&[
                (0, ProtocolState::ColdStart, 1),
                (1, ProtocolState::ColdStart, 2),
            ])),
            ChannelObservation::bad()
        );
    }

    #[test]
    fn passive_coupler_never_replays() {
        let m = model(CouplerAuthority::Passive);
        let s = m.initial_state();
        for (_, info) in m.expand(&s) {
            assert!(info
                .faults
                .iter()
                .all(|f| *f != CouplerFaultMode::OutOfSlot));
        }
    }

    #[test]
    fn replay_requires_a_buffered_frame() {
        // Even for full shifting, the initial (empty-buffer) state cannot
        // replay.
        let m = model(CouplerAuthority::FullShifting);
        let s = m.initial_state();
        for (_, info) in m.expand(&s) {
            assert!(info
                .faults
                .iter()
                .all(|f| *f != CouplerFaultMode::OutOfSlot));
        }
    }

    #[test]
    fn symmetric_reduction_keeps_coupler_one_healthy() {
        let m = model(CouplerAuthority::FullShifting);
        let s = m.initial_state();
        for (_, info) in m.expand(&s) {
            assert_eq!(info.faults[1], CouplerFaultMode::None);
        }
    }

    #[test]
    fn without_reduction_both_couplers_can_fail_but_not_together() {
        let config = ClusterConfig {
            symmetric_fault_reduction: false,
            ..ClusterConfig::paper(CouplerAuthority::FullShifting)
        };
        let m = ClusterModel::new(config);
        let s = m.initial_state();
        let mut coupler1_faulted = false;
        for (_, info) in m.expand(&s) {
            assert!(!(info.faults[0].is_faulty() && info.faults[1].is_faulty()));
            coupler1_faulted |= info.faults[1].is_faulty();
        }
        assert!(coupler1_faulted);
    }

    #[test]
    fn expansion_covers_startup_staggering() {
        let m = model(CouplerAuthority::Passive);
        let s = m.initial_state();
        let successors = m.expand(&s);
        // With 4 nodes × {stay, init} and 3 fault modes (dedup by the
        // explorer, not here): at least 16 node combinations exist.
        let distinct: std::collections::HashSet<ClusterState> =
            successors.iter().map(|(s, _)| s.clone()).collect();
        assert!(distinct.len() >= 16, "got {}", distinct.len());
    }

    #[test]
    fn violating_states_are_absorbing() {
        let m = model(CouplerAuthority::FullShifting);
        let nodes: Vec<_> = NodeId::first(4).map(|id| Controller::new(id, 4)).collect();
        let bad =
            ClusterState::with_parts(nodes, [BufferedFrame::empty(); 2], 1, Some(NodeId::new(1)));
        assert!(m.expand(&bad).is_empty());
    }

    #[test]
    fn replay_budget_is_tracked() {
        let config = ClusterConfig {
            out_of_slot_budget: FaultBudget::AtMost(1),
            ..ClusterConfig::paper(CouplerAuthority::FullShifting)
        };
        let m = ClusterModel::new(config);
        // Construct a state whose coupler 0 holds a replayable frame.
        let nodes: Vec<_> = NodeId::first(4).map(|id| Controller::new(id, 4)).collect();
        let buffered = BufferedFrame {
            id: 1,
            kind: FrameKind::ColdStart,
        };
        let s = ClusterState::with_parts(nodes.clone(), [buffered, buffered], 0, None);
        let replayed: Vec<_> = m
            .expand(&s)
            .into_iter()
            .filter(|(_, i)| i.faults[0] == CouplerFaultMode::OutOfSlot)
            .collect();
        assert!(!replayed.is_empty(), "replay enumerated while budget lasts");
        for (succ, _) in &replayed {
            assert_eq!(succ.out_of_slot_used(), 1);
        }
        // After spending the budget, no further replay is offered.
        let spent = ClusterState::with_parts(nodes, [buffered, buffered], 1, None);
        assert!(m
            .expand(&spent)
            .iter()
            .all(|(_, i)| i.faults[0] != CouplerFaultMode::OutOfSlot));
    }

    #[test]
    fn cold_start_replay_constraint_filters_buffer_kind() {
        let m = ClusterModel::new(ClusterConfig::paper_trace_cstate());
        let nodes: Vec<_> = NodeId::first(4).map(|id| Controller::new(id, 4)).collect();
        let cold = BufferedFrame {
            id: 1,
            kind: FrameKind::ColdStart,
        };
        let s = ClusterState::with_parts(nodes.clone(), [cold, cold], 0, None);
        assert!(m
            .expand(&s)
            .iter()
            .all(|(_, i)| i.faults[0] != CouplerFaultMode::OutOfSlot));
        let cstate = BufferedFrame {
            id: 3,
            kind: FrameKind::CState,
        };
        let s = ClusterState::with_parts(nodes, [cstate, cstate], 0, None);
        assert!(m
            .expand(&s)
            .iter()
            .any(|(_, i)| i.faults[0] == CouplerFaultMode::OutOfSlot));
    }
}
