//! Time-series metrics derived from a run's event log.
//!
//! The raw [`crate::SlotLog`] records *events*; analyses and plots want
//! *series* — how many nodes were integrated at slot t, when freezes
//! clustered, how guardian interventions distributed over time. This
//! module reconstructs those series from the log plus the initial
//! conditions, without requiring the simulator to snapshot every slot.

use crate::log::{SlotEvent, SlotLog};
use std::fmt;
use tta_protocol::ProtocolState;

/// Why a log could not be turned into per-slot series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeSeriesError {
    /// The log references a slot strictly beyond the claimed horizon —
    /// the log and the `slots` argument describe different runs.
    SlotBeyondHorizon {
        /// The offending slot in the log.
        slot: u64,
        /// The claimed run length.
        slots: u64,
    },
}

impl fmt::Display for TimeSeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeSeriesError::SlotBeyondHorizon { slot, slots } => {
                write!(f, "log references slot {slot} beyond horizon {slots}")
            }
        }
    }
}

impl std::error::Error for TimeSeriesError {}

/// Per-slot series reconstructed from a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    integrated: Vec<u32>,
    frozen_events: Vec<u64>,
    guardian_interventions: Vec<u64>,
    restarts: Vec<u64>,
}

impl TimeSeries {
    /// Reconstructs the series for a run of `slots` slots over `nodes`
    /// nodes, all of which started in `freeze`.
    ///
    /// Events logged *at* the horizon slot — a restart or freeze landing
    /// exactly on the run's final boundary — still belong to the run:
    /// they are counted into the sparse event series (freezes, guardian
    /// interventions, restarts) even though no per-slot integration
    /// sample exists for them. (An earlier guard rejected `slot ==
    /// slots` too, so a restart on the boundary slot was lost along with
    /// the whole series.)
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::SlotBeyondHorizon`] if the log
    /// references a slot strictly beyond `slots` — e.g. a full-length
    /// log paired with a truncated horizon. (Earlier versions silently
    /// dropped such entries while claiming to panic; a mismatched pair
    /// is a caller bug either way, but now a recoverable one.)
    pub fn from_log(log: &SlotLog, nodes: usize, slots: u64) -> Result<Self, TimeSeriesError> {
        if let Some(&(slot, _)) = log.entries().iter().find(|(s, _)| *s > slots) {
            return Err(TimeSeriesError::SlotBeyondHorizon { slot, slots });
        }
        let mut states = vec![ProtocolState::Freeze; nodes];
        let mut integrated = Vec::with_capacity(slots as usize);
        let mut frozen_events = Vec::new();
        let mut guardian_interventions = Vec::new();
        let mut restarts = Vec::new();

        let mut cursor = 0usize;
        let entries = log.entries();
        for t in 0..slots {
            while cursor < entries.len() && entries[cursor].0 == t {
                match &entries[cursor].1 {
                    SlotEvent::StateChange { node, to, .. } => {
                        states[node.as_usize()] = *to;
                        if *to == ProtocolState::Freeze {
                            frozen_events.push(t);
                        }
                    }
                    SlotEvent::GuardianBlocked { .. } | SlotEvent::GuardianReshaped { .. } => {
                        guardian_interventions.push(t);
                    }
                    SlotEvent::NodeRestarted { .. } => {
                        restarts.push(t);
                    }
                    _ => {}
                }
                cursor += 1;
            }
            integrated.push(states.iter().filter(|s| s.is_integrated()).count() as u32);
        }
        // Boundary events at slot == slots: no integration sample to
        // contribute to, but they still count as events of this run.
        while cursor < entries.len() {
            debug_assert_eq!(entries[cursor].0, slots);
            match &entries[cursor].1 {
                SlotEvent::StateChange { to, .. } if *to == ProtocolState::Freeze => {
                    frozen_events.push(slots);
                }
                SlotEvent::GuardianBlocked { .. } | SlotEvent::GuardianReshaped { .. } => {
                    guardian_interventions.push(slots);
                }
                SlotEvent::NodeRestarted { .. } => {
                    restarts.push(slots);
                }
                _ => {}
            }
            cursor += 1;
        }
        Ok(TimeSeries {
            integrated,
            frozen_events,
            guardian_interventions,
            restarts,
        })
    }

    /// Number of integrated nodes at the end of each slot.
    #[must_use]
    pub fn integrated(&self) -> &[u32] {
        &self.integrated
    }

    /// Slots at which some node entered `freeze`.
    #[must_use]
    pub fn freeze_slots(&self) -> &[u64] {
        &self.frozen_events
    }

    /// Slots at which a central guardian blocked or reshaped a frame.
    #[must_use]
    pub fn guardian_intervention_slots(&self) -> &[u64] {
        &self.guardian_interventions
    }

    /// Slots at which a host restarted a frozen controller.
    #[must_use]
    pub fn restart_slots(&self) -> &[u64] {
        &self.restarts
    }

    /// First slot at which at least `n` nodes were integrated.
    #[must_use]
    pub fn first_slot_with_integrated(&self, n: u32) -> Option<u64> {
        self.integrated
            .iter()
            .position(|c| *c >= n)
            .map(|i| i as u64)
    }

    /// Largest number of simultaneously integrated nodes.
    #[must_use]
    pub fn peak_integrated(&self) -> u32 {
        self.integrated.iter().copied().max().unwrap_or(0)
    }

    /// A coarse ASCII sparkline of the integrated-node count (one char
    /// per `stride` slots).
    #[must_use]
    pub fn sparkline(&self, stride: usize) -> String {
        const LEVELS: &[char] = &['_', '.', ':', '|', '#'];
        let stride = stride.max(1);
        let peak = self.peak_integrated().max(1);
        self.integrated
            .chunks(stride)
            .map(|chunk| {
                let avg = chunk.iter().sum::<u32>() as f64 / chunk.len() as f64;
                let level = (avg / f64::from(peak) * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[level.min(LEVELS.len() - 1)]
            })
            .collect()
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "integration over time: [{}] (peak {}, {} freeze event(s))",
            self.sparkline(self.integrated.len().div_ceil(64)),
            self.peak_integrated(),
            self.frozen_events.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{CouplerFaultEvent, FaultPersistence, FaultPlan};
    use crate::sim::SimBuilder;
    use crate::topology::Topology;
    use tta_guardian::{CouplerAuthority, CouplerFaultMode};
    use tta_types::NodeId;

    fn golden_series() -> TimeSeries {
        let report = SimBuilder::new(4)
            .topology(Topology::Star)
            .slots(200)
            .plan(FaultPlan::none())
            .build()
            .run();
        TimeSeries::from_log(report.log(), 4, report.slots_run()).unwrap()
    }

    #[test]
    fn integration_count_rises_to_full_cluster() {
        let series = golden_series();
        assert_eq!(series.integrated().len(), 200);
        assert_eq!(series.integrated()[0], 0);
        assert_eq!(*series.integrated().last().unwrap(), 4);
        assert_eq!(series.peak_integrated(), 4);
        // Monotone within a fault-free startup.
        for w in series.integrated().windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn startup_threshold_matches_report() {
        let report = SimBuilder::new(4)
            .topology(Topology::Star)
            .slots(200)
            .plan(FaultPlan::none())
            .build()
            .run();
        let series = TimeSeries::from_log(report.log(), 4, report.slots_run()).unwrap();
        assert_eq!(series.first_slot_with_integrated(4), report.startup_slot());
        assert!(series.freeze_slots().is_empty());
        assert!(series.restart_slots().is_empty());
    }

    #[test]
    fn truncated_horizon_is_an_error_not_an_abort() {
        // Regression: a log referencing slots strictly beyond the
        // claimed horizon used to be silently mis-reconstructed (a dead
        // in-loop assert never fired). It must surface as a recoverable
        // error — while an event landing exactly *on* the horizon slot
        // is a legal boundary event, not a mismatch.
        let report = SimBuilder::new(4)
            .topology(Topology::Star)
            .slots(200)
            .plan(FaultPlan::none())
            .build()
            .run();
        let last_event_slot = report.log().entries().last().unwrap().0;
        let err = TimeSeries::from_log(report.log(), 4, last_event_slot - 1).unwrap_err();
        match err {
            TimeSeriesError::SlotBeyondHorizon { slot, slots } => {
                assert!(slot > slots, "reported slot {slot} vs horizon {slots}");
                assert_eq!(slots, last_event_slot - 1);
            }
        }
        assert!(err.to_string().contains("beyond horizon"));
        // Horizon == last event slot: the boundary event is kept.
        assert!(TimeSeries::from_log(report.log(), 4, last_event_slot).is_ok());
    }

    #[test]
    fn restart_on_the_horizon_slot_is_counted_not_dropped() {
        // Regression: the `SlotBeyondHorizon` guard was off by one — a
        // restart logged exactly at the horizon slot made the whole
        // reconstruction fail (and before that, was silently dropped).
        let mut log = SlotLog::new();
        log.record(
            3,
            SlotEvent::NodeRestarted {
                node: NodeId::new(0),
                attempt: 1,
            },
        );
        log.record(
            20,
            SlotEvent::NodeRestarted {
                node: NodeId::new(2),
                attempt: 2,
            },
        );
        let series = TimeSeries::from_log(&log, 4, 20).unwrap();
        assert_eq!(series.restart_slots(), [3, 20]);
        // The per-slot integration series still covers exactly 0..slots.
        assert_eq!(series.integrated().len(), 20);
        // One past the horizon is still an error.
        let err = TimeSeries::from_log(&log, 4, 19).unwrap_err();
        assert_eq!(
            err,
            TimeSeriesError::SlotBeyondHorizon {
                slot: 20,
                slots: 19
            }
        );
    }

    #[test]
    fn restart_events_land_in_the_restart_series() {
        let mut log = SlotLog::new();
        log.record(
            3,
            SlotEvent::NodeRestarted {
                node: NodeId::new(0),
                attempt: 1,
            },
        );
        log.record(
            9,
            SlotEvent::NodeRestarted {
                node: NodeId::new(2),
                attempt: 1,
            },
        );
        let series = TimeSeries::from_log(&log, 4, 20).unwrap();
        assert_eq!(series.restart_slots(), [3, 9]);
    }

    #[test]
    fn replay_run_shows_freezes_in_the_series() {
        let plan = FaultPlan::none().with_coupler_fault(CouplerFaultEvent {
            channel: 0,
            mode: CouplerFaultMode::OutOfSlot,
            from_slot: 12,
            to_slot: 300,
            persistence: FaultPersistence::Transient,
        });
        let report = SimBuilder::new(4)
            .topology(Topology::Star)
            .authority(CouplerAuthority::FullShifting)
            .slots(300)
            .plan(plan)
            .build()
            .run();
        let series = TimeSeries::from_log(report.log(), 4, report.slots_run()).unwrap();
        if !report.healthy_frozen().is_empty() {
            assert!(!series.freeze_slots().is_empty());
        }
    }

    #[test]
    fn sparkline_has_expected_length_and_levels() {
        let series = golden_series();
        let spark = series.sparkline(10);
        assert_eq!(spark.chars().count(), 20);
        assert!(spark.starts_with('_'), "starts all-frozen: {spark}");
        assert!(spark.ends_with('#'), "ends fully integrated: {spark}");
    }

    #[test]
    fn display_is_compact() {
        let series = golden_series();
        let s = series.to_string();
        assert!(s.contains("peak 4"));
        assert!(s.contains("0 freeze event(s)"));
    }
}
