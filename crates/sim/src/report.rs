//! Run reports.

use crate::log::SlotLog;
use crate::metrics::TimeSeries;
use std::fmt;
use tta_protocol::{ProtocolState, RestartPolicy};
use tta_types::NodeId;

/// One freeze-and-(maybe)-recovery cycle of one node: when it froze,
/// when the host restarted it, and when it reached active or passive
/// again — `None` for steps that never happened.
///
/// Episodes are only recorded for freezes *after* the node first left
/// `freeze`; the initial cold-start dwell is not a recovery episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEpisode {
    /// The node that froze.
    pub node: NodeId,
    /// Slot at which the node entered `freeze`.
    pub freeze_slot: u64,
    /// Slot at which the host restarted it, if it did.
    pub restart_slot: Option<u64>,
    /// Slot at which the node was integrated again, if it ever was.
    pub reintegration_slot: Option<u64>,
}

impl RecoveryEpisode {
    /// Whether the node came all the way back.
    #[must_use]
    pub fn recovered(&self) -> bool {
        self.reintegration_slot.is_some()
    }

    /// Freeze-to-reintegration latency in slots, if the node recovered.
    #[must_use]
    pub fn time_to_reintegration(&self) -> Option<u64> {
        self.reintegration_slot.map(|r| r - self.freeze_slot)
    }
}

/// Where the cluster settled by the end of the run, counting only
/// healthy (non-fault-injected) nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteadyState {
    /// Every healthy node ended the run integrated.
    FullyUp,
    /// Some but not all healthy nodes ended the run integrated.
    Degraded {
        /// Healthy nodes integrated at the end.
        integrated: usize,
    },
    /// No healthy node ended the run integrated.
    Down,
}

impl fmt::Display for SteadyState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SteadyState::FullyUp => f.write_str("fully up"),
            SteadyState::Degraded { integrated } => {
                write!(f, "degraded ({integrated} integrated)")
            }
            SteadyState::Down => f.write_str("down"),
        }
    }
}

/// Everything a finished simulation reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    slots_run: u64,
    final_states: Vec<ProtocolState>,
    healthy_frozen: Vec<NodeId>,
    faulty_nodes: Vec<NodeId>,
    startup_slot: Option<u64>,
    restart_policy: RestartPolicy,
    recovery: Vec<RecoveryEpisode>,
    log: SlotLog,
}

impl SimReport {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        slots_run: u64,
        final_states: Vec<ProtocolState>,
        healthy_frozen: Vec<NodeId>,
        faulty_nodes: Vec<NodeId>,
        startup_slot: Option<u64>,
        restart_policy: RestartPolicy,
        recovery: Vec<RecoveryEpisode>,
        log: SlotLog,
    ) -> Self {
        SimReport {
            slots_run,
            final_states,
            healthy_frozen,
            faulty_nodes,
            startup_slot,
            restart_policy,
            recovery,
            log,
        }
    }

    /// Number of slots executed.
    #[must_use]
    pub fn slots_run(&self) -> u64 {
        self.slots_run
    }

    /// Final protocol state of every node.
    #[must_use]
    pub fn final_states(&self) -> &[ProtocolState] {
        &self.final_states
    }

    /// Healthy (non-fault-injected) nodes that ever froze — the paper's
    /// test for fault propagation.
    #[must_use]
    pub fn healthy_frozen(&self) -> &[NodeId] {
        &self.healthy_frozen
    }

    /// Nodes the fault plan targeted.
    #[must_use]
    pub fn faulty_nodes(&self) -> &[NodeId] {
        &self.faulty_nodes
    }

    /// First absolute slot at which every healthy node was integrated
    /// (active or passive), if that ever happened.
    #[must_use]
    pub fn startup_slot(&self) -> Option<u64> {
        self.startup_slot
    }

    /// Whether the cluster ever fully started (all healthy nodes
    /// integrated).
    #[must_use]
    pub fn cluster_started(&self) -> bool {
        self.startup_slot.is_some()
    }

    /// Healthy nodes that ended the run integrated.
    #[must_use]
    pub fn integrated_at_end(&self) -> usize {
        self.final_states
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.is_integrated() && !self.faulty_nodes.contains(&NodeId::new(*i as u8))
            })
            .count()
    }

    /// The restart policy the run's hosts followed.
    #[must_use]
    pub fn restart_policy(&self) -> RestartPolicy {
        self.restart_policy
    }

    /// Every freeze-and-recovery episode, in freeze order (all nodes,
    /// healthy and fault-injected).
    #[must_use]
    pub fn recovery(&self) -> &[RecoveryEpisode] {
        &self.recovery
    }

    /// Worst freeze-to-reintegration latency across recovered episodes,
    /// or `None` if nothing recovered during the run.
    #[must_use]
    pub fn time_to_reintegration(&self) -> Option<u64> {
        self.recovery
            .iter()
            .filter_map(RecoveryEpisode::time_to_reintegration)
            .max()
    }

    /// Fraction of slots during which fewer than `quorum` nodes were
    /// integrated — the run's unavailability at that service level.
    #[must_use]
    pub fn unavailability(&self, quorum: u32) -> f64 {
        if self.slots_run == 0 {
            return 0.0;
        }
        let series = TimeSeries::from_log(&self.log, self.final_states.len(), self.slots_run)
            .expect("a run's own log stays within its horizon");
        let degraded = series.integrated().iter().filter(|n| **n < quorum).count();
        degraded as f64 / self.slots_run as f64
    }

    /// Where the healthy part of the cluster settled by the end of the
    /// run.
    #[must_use]
    pub fn steady_state(&self) -> SteadyState {
        let healthy = self.final_states.len() - self.faulty_nodes.len();
        let integrated = self.integrated_at_end();
        if integrated == 0 {
            SteadyState::Down
        } else if integrated == healthy {
            SteadyState::FullyUp
        } else {
            SteadyState::Degraded { integrated }
        }
    }

    /// Healthy nodes frozen at the end of the run that the restart
    /// policy will never bring back: they froze after having started,
    /// and the policy is out of restarts. Under
    /// [`RestartPolicy::Never`] this is every healthy node with an open
    /// episode; under a watchdog it is always empty.
    #[must_use]
    pub fn permanently_lost(&self) -> Vec<NodeId> {
        (0..self.final_states.len())
            .filter_map(|i| {
                let node = NodeId::new(i as u8);
                if self.final_states[i] != ProtocolState::Freeze
                    || self.faulty_nodes.contains(&node)
                {
                    return None;
                }
                let mut froze_after_start = false;
                let mut restarts_used = 0u32;
                for e in self.recovery.iter().filter(|e| e.node == node) {
                    froze_after_start = true;
                    if e.restart_slot.is_some() {
                        restarts_used += 1;
                    }
                }
                (froze_after_start && self.restart_policy.exhausted(restarts_used)).then_some(node)
            })
            .collect()
    }

    /// The run's event log.
    #[must_use]
    pub fn log(&self) -> &SlotLog {
        &self.log
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "simulation of {} slots:", self.slots_run)?;
        for (i, state) in self.final_states.iter().enumerate() {
            let node = NodeId::new(i as u8);
            let tag = if self.faulty_nodes.contains(&node) {
                " (fault-injected)"
            } else {
                ""
            };
            writeln!(f, "  {node}: {state}{tag}")?;
        }
        match self.startup_slot {
            Some(slot) => writeln!(f, "  cluster up at slot {slot}")?,
            None => writeln!(f, "  cluster never fully started")?,
        }
        if !self.healthy_frozen.is_empty() {
            write!(f, "  healthy nodes frozen:")?;
            for n in &self.healthy_frozen {
                write!(f, " {n}")?;
            }
            writeln!(f)?;
        }
        if !self.recovery.is_empty() {
            writeln!(f, "  recovery (restart policy {}):", self.restart_policy)?;
            for e in &self.recovery {
                write!(f, "    {} froze at slot {}", e.node, e.freeze_slot)?;
                match (e.restart_slot, e.reintegration_slot) {
                    (None, _) => writeln!(f, ", never restarted")?,
                    (Some(r), None) => writeln!(f, ", restarted at {r}, never reintegrated")?,
                    (Some(r), Some(b)) => {
                        writeln!(f, ", restarted at {r}, back at {b}")?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        report_with(RestartPolicy::Never, Vec::new())
    }

    fn report_with(policy: RestartPolicy, recovery: Vec<RecoveryEpisode>) -> SimReport {
        SimReport::new(
            100,
            vec![
                ProtocolState::Active,
                ProtocolState::Freeze,
                ProtocolState::Active,
                ProtocolState::Freeze,
            ],
            vec![NodeId::new(1)],
            vec![NodeId::new(3)],
            Some(17),
            policy,
            recovery,
            SlotLog::new(),
        )
    }

    fn episode(
        node: u8,
        freeze_slot: u64,
        restart_slot: Option<u64>,
        reintegration_slot: Option<u64>,
    ) -> RecoveryEpisode {
        RecoveryEpisode {
            node: NodeId::new(node),
            freeze_slot,
            restart_slot,
            reintegration_slot,
        }
    }

    #[test]
    fn accessors_expose_outcome() {
        let r = report();
        assert_eq!(r.slots_run(), 100);
        assert!(r.cluster_started());
        assert_eq!(r.startup_slot(), Some(17));
        assert_eq!(r.healthy_frozen(), [NodeId::new(1)]);
    }

    #[test]
    fn integrated_at_end_excludes_faulty_nodes() {
        // Nodes 0 and 2 are active; node 3 is faulty and frozen.
        assert_eq!(report().integrated_at_end(), 2);
    }

    #[test]
    fn display_flags_fault_injected_nodes() {
        let s = report().to_string();
        assert!(s.contains("D: freeze (fault-injected)"));
        assert!(s.contains("healthy nodes frozen: B"));
        assert!(s.contains("cluster up at slot 17"));
        assert!(
            !s.contains("recovery"),
            "no recovery block without episodes"
        );
    }

    #[test]
    fn time_to_reintegration_is_the_worst_recovered_latency() {
        let r = report_with(
            RestartPolicy::Immediate,
            vec![
                episode(0, 30, Some(31), Some(40)),
                episode(2, 50, Some(51), Some(75)),
                episode(1, 60, Some(61), None),
            ],
        );
        assert_eq!(r.time_to_reintegration(), Some(25));
        assert_eq!(report().time_to_reintegration(), None);
    }

    #[test]
    fn steady_state_counts_only_healthy_nodes() {
        // Node D is faulty, B is frozen: 2 of 3 healthy nodes are up.
        assert_eq!(
            report().steady_state(),
            SteadyState::Degraded { integrated: 2 }
        );
        let all_up = SimReport::new(
            10,
            vec![ProtocolState::Active; 3],
            Vec::new(),
            Vec::new(),
            Some(5),
            RestartPolicy::Never,
            Vec::new(),
            SlotLog::new(),
        );
        assert_eq!(all_up.steady_state(), SteadyState::FullyUp);
        let down = SimReport::new(
            10,
            vec![ProtocolState::Freeze; 3],
            Vec::new(),
            Vec::new(),
            None,
            RestartPolicy::Never,
            Vec::new(),
            SlotLog::new(),
        );
        assert_eq!(down.steady_state(), SteadyState::Down);
    }

    #[test]
    fn permanently_lost_requires_an_exhausted_policy() {
        // B froze after starting and the policy never restarts: lost.
        let never = report_with(RestartPolicy::Never, vec![episode(1, 40, None, None)]);
        assert_eq!(never.permanently_lost(), [NodeId::new(1)]);
        // A watchdog never gives up, so nothing is ever lost for good.
        let watchdog = report_with(
            RestartPolicy::Watchdog { silence_slots: 8 },
            vec![episode(1, 40, Some(48), None)],
        );
        assert!(watchdog.permanently_lost().is_empty());
        // Bounded retry is exhausted once every episode spent a restart.
        let spent = report_with(
            RestartPolicy::BoundedRetry {
                max_restarts: 2,
                backoff_slots: 4,
            },
            vec![
                episode(1, 40, Some(44), Some(50)),
                episode(1, 60, Some(68), None),
            ],
        );
        assert_eq!(spent.permanently_lost(), [NodeId::new(1)]);
        // With a restart still in the budget the node is not lost yet.
        let budget_left = report_with(
            RestartPolicy::BoundedRetry {
                max_restarts: 2,
                backoff_slots: 4,
            },
            vec![episode(1, 40, Some(44), None)],
        );
        assert!(budget_left.permanently_lost().is_empty());
        // The faulty node D never counts, and neither does a node whose
        // only freeze was cold start (no episode at all).
        assert!(report().permanently_lost().is_empty());
    }

    #[test]
    fn display_narrates_recovery_episodes() {
        let s = report_with(
            RestartPolicy::Watchdog { silence_slots: 8 },
            vec![
                episode(1, 40, Some(48), Some(60)),
                episode(1, 70, Some(78), None),
            ],
        )
        .to_string();
        assert!(s.contains("recovery (restart policy watchdog(8)):"));
        assert!(s.contains("B froze at slot 40, restarted at 48, back at 60"));
        assert!(s.contains("B froze at slot 70, restarted at 78, never reintegrated"));
    }
}
