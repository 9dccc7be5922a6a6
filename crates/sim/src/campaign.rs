//! Monte-Carlo fault-injection campaigns.
//!
//! The software-implemented fault injection (SWIFI) substitute for the
//! heavy-ion experiments behind the paper's motivation: run many
//! randomized trials of one fault scenario against one topology/authority
//! combination and classify the outcomes. `tta-bench`'s
//! `exp_fault_injection` uses this to regenerate the bus-vs-star
//! containment comparison (experiment E9).

use crate::inject::{CouplerFaultEvent, FaultPersistence, FaultPlan, NodeFault, NodeFaultKind};
use crate::report::{SimReport, SteadyState};
use crate::sim::SimBuilder;
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use tta_base::hash::mix;
use tta_base::{default_threads, map_chunks};
use tta_guardian::sos::SosDomain;
use tta_guardian::{CouplerAuthority, CouplerFaultMode};
use tta_protocol::RestartPolicy;
use tta_types::NodeId;

/// The fault scenario a campaign injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// No fault at all (golden runs; calibrates the harness).
    FaultFree,
    /// One node transmits slightly-off-specification frames.
    SosSender,
    /// One node masquerades in cold-start frames during startup.
    MasqueradeColdStart,
    /// One node transmits frames with an invalid C-state.
    InvalidCState,
    /// One node babbles noise continuously.
    Babbling,
    /// One channel's coupler replays buffered frames out of slot
    /// (possible only for a full-shifting star coupler).
    CouplerReplay,
    /// One channel's coupler drops all traffic.
    CouplerSilence,
    /// One channel's coupler emits noise.
    CouplerNoise,
}

impl Scenario {
    /// Every scenario, in report order.
    #[must_use]
    pub fn all() -> [Scenario; 8] {
        [
            Scenario::FaultFree,
            Scenario::SosSender,
            Scenario::MasqueradeColdStart,
            Scenario::InvalidCState,
            Scenario::Babbling,
            Scenario::CouplerReplay,
            Scenario::CouplerSilence,
            Scenario::CouplerNoise,
        ]
    }

    /// Whether the scenario is physically possible for the given
    /// topology/authority (a coupler without full-frame buffering cannot
    /// replay).
    #[must_use]
    pub fn applicable(self, topology: Topology, authority: CouplerAuthority) -> bool {
        match self {
            Scenario::CouplerReplay => topology.is_central() && authority.can_buffer_full_frames(),
            _ => true,
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scenario::FaultFree => "fault-free",
            Scenario::SosSender => "SOS sender",
            Scenario::MasqueradeColdStart => "masquerading cold start",
            Scenario::InvalidCState => "invalid C-state",
            Scenario::Babbling => "babbling idiot",
            Scenario::CouplerReplay => "coupler replay (out-of-slot)",
            Scenario::CouplerSilence => "coupler silence",
            Scenario::CouplerNoise => "coupler noise",
        })
    }
}

/// Classification of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The fault did not affect any healthy node: the cluster started and
    /// nobody healthy froze.
    Contained,
    /// At least one healthy node froze — the fault propagated.
    HealthyNodeFrozen,
    /// No healthy node froze, but the cluster never fully started.
    StartupFailed,
}

impl Outcome {
    /// Classifies a finished run by the binary propagated/contained
    /// question of experiment E9.
    #[must_use]
    pub fn classify(report: &SimReport) -> Outcome {
        if !report.healthy_frozen().is_empty() {
            Outcome::HealthyNodeFrozen
        } else if !report.cluster_started() {
            Outcome::StartupFailed
        } else {
            Outcome::Contained
        }
    }
}

/// Classification of one trial in a recovery-aware campaign: where the
/// binary propagated/contained verdict of [`Outcome`] stops, this asks
/// what the cluster looked like *after* the fault and the restart policy
/// had fought it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryOutcome {
    /// No healthy node ever froze and the cluster ended fully up.
    Contained,
    /// Healthy nodes froze but every one of them was integrated again by
    /// the end of the run.
    Recovered,
    /// The cluster ended short of full strength, but no healthy node is
    /// beyond saving (the policy could still restart everyone frozen).
    DegradedStable,
    /// At least one healthy node is frozen with the restart policy out
    /// of restarts — lost for the remaining life of the system.
    PermanentLoss,
}

impl RecoveryOutcome {
    /// Classifies a finished run.
    #[must_use]
    pub fn classify(report: &SimReport) -> RecoveryOutcome {
        if !report.permanently_lost().is_empty() {
            return RecoveryOutcome::PermanentLoss;
        }
        let fully_up = report.steady_state() == SteadyState::FullyUp;
        if report.healthy_frozen().is_empty() {
            if report.cluster_started() && fully_up {
                RecoveryOutcome::Contained
            } else {
                // Never reached (or held) full strength without anyone
                // freezing — e.g. startup starved past the horizon.
                RecoveryOutcome::DegradedStable
            }
        } else if fully_up {
            RecoveryOutcome::Recovered
        } else {
            RecoveryOutcome::DegradedStable
        }
    }
}

impl fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecoveryOutcome::Contained => "contained",
            RecoveryOutcome::Recovered => "recovered",
            RecoveryOutcome::DegradedStable => "degraded-stable",
            RecoveryOutcome::PermanentLoss => "permanent-loss",
        })
    }
}

/// Aggregated results of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Scenario injected.
    pub scenario: Scenario,
    /// Topology under test.
    pub topology: Topology,
    /// Central-guardian authority (star) / irrelevant for bus.
    pub authority: CouplerAuthority,
    /// Trials actually run (0 if the scenario is inapplicable).
    pub trials: u32,
    /// Trials classified [`Outcome::Contained`].
    pub contained: u32,
    /// Trials classified [`Outcome::HealthyNodeFrozen`].
    pub healthy_frozen: u32,
    /// Trials classified [`Outcome::StartupFailed`].
    pub startup_failed: u32,
}

impl CampaignReport {
    /// Fraction of trials in which the fault propagated to a healthy node
    /// or prevented startup.
    #[must_use]
    pub fn propagation_rate(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        f64::from(self.healthy_frozen + self.startup_failed) / f64::from(self.trials)
    }

    /// Whether the scenario could be injected at all.
    #[must_use]
    pub fn applicable(&self) -> bool {
        self.trials > 0
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.applicable() {
            return write!(f, "{} on {}: not applicable", self.scenario, self.topology);
        }
        write!(
            f,
            "{} on {} ({}): {}/{} contained, {} froze healthy nodes, {} failed startup",
            self.scenario,
            self.topology,
            self.authority,
            self.contained,
            self.trials,
            self.healthy_frozen,
            self.startup_failed
        )
    }
}

/// Aggregated results of one recovery-aware campaign (experiment E10).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Scenario injected.
    pub scenario: Scenario,
    /// Topology under test.
    pub topology: Topology,
    /// Central-guardian authority (star) / irrelevant for bus.
    pub authority: CouplerAuthority,
    /// The hosts' restart policy.
    pub policy: RestartPolicy,
    /// Trials actually run (0 if the scenario is inapplicable).
    pub trials: u32,
    /// Trials classified [`RecoveryOutcome::Contained`].
    pub contained: u32,
    /// Trials classified [`RecoveryOutcome::Recovered`].
    pub recovered: u32,
    /// Trials classified [`RecoveryOutcome::DegradedStable`].
    pub degraded: u32,
    /// Trials classified [`RecoveryOutcome::PermanentLoss`].
    pub permanent_loss: u32,
    /// Mean fraction of slots with fewer than all healthy nodes
    /// integrated (includes the startup transient of every trial).
    pub mean_unavailability: f64,
    /// Mean worst-case freeze-to-reintegration latency in slots, over
    /// the trials in which something recovered.
    pub mean_time_to_reintegration: Option<f64>,
}

impl RecoveryReport {
    /// Whether the scenario could be injected at all.
    #[must_use]
    pub fn applicable(&self) -> bool {
        self.trials > 0
    }

    /// Mean fraction of slots at full healthy strength.
    #[must_use]
    pub fn availability(&self) -> f64 {
        1.0 - self.mean_unavailability
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.applicable() {
            return write!(f, "{} on {}: not applicable", self.scenario, self.topology);
        }
        write!(
            f,
            "{} on {} ({}, {}): {} contained, {} recovered, {} degraded, {} lost; \
             availability {:.3}",
            self.scenario,
            self.topology,
            self.authority,
            self.policy,
            self.contained,
            self.recovered,
            self.degraded,
            self.permanent_loss,
            self.availability(),
        )?;
        if let Some(ttr) = self.mean_time_to_reintegration {
            write!(f, ", mean TTR {ttr:.1} slots")?;
        }
        Ok(())
    }
}

/// The full classification of one campaign trial: both the E9
/// containment verdict and the E10 recovery verdict plus the metrics the
/// recovery aggregate needs. Computing everything per trial (instead of
/// inside the aggregate loop) is what lets the campaign daemon cache,
/// journal and stream trials individually while still folding the exact
/// reports the inline campaigns produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// Trial index within the campaign (determines the derived seed).
    pub index: u32,
    /// The derived per-trial RNG seed the simulation ran under.
    pub seed: u64,
    /// E9 containment classification.
    pub outcome: Outcome,
    /// E10 recovery classification.
    pub recovery: RecoveryOutcome,
    /// Fraction of slots with fewer than quorum healthy nodes
    /// integrated (quorum = healthy-node count of this trial).
    pub unavailability: f64,
    /// Worst-case freeze-to-reintegration latency, if anything
    /// reintegrated.
    pub time_to_reintegration: Option<u64>,
}

impl TrialResult {
    /// Classifies one finished simulation run.
    #[must_use]
    pub fn from_report(index: u32, seed: u64, nodes: usize, report: &SimReport) -> TrialResult {
        let quorum = (nodes - report.faulty_nodes().len()) as u32;
        TrialResult {
            index,
            seed,
            outcome: Outcome::classify(report),
            recovery: RecoveryOutcome::classify(report),
            unavailability: report.unavailability(quorum),
            time_to_reintegration: report.time_to_reintegration(),
        }
    }
}

/// Order-independent totals of a set of [`TrialResult`]s — the one fold
/// both [`Campaign::run`] and [`Campaign::run_recovery`] (and the
/// campaign daemon, re-folding journaled or cached trials) share, so
/// every path produces bit-identical reports.
///
/// The floating-point sums run in the iteration order of the input;
/// callers that need bit-identical aggregates must fold in trial-index
/// order, which every campaign path does.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrialAggregate {
    /// Trials folded.
    pub trials: u32,
    /// [`Outcome::Contained`] count.
    pub contained: u32,
    /// [`Outcome::HealthyNodeFrozen`] count.
    pub healthy_frozen: u32,
    /// [`Outcome::StartupFailed`] count.
    pub startup_failed: u32,
    /// [`RecoveryOutcome::Contained`] count.
    pub recovery_contained: u32,
    /// [`RecoveryOutcome::Recovered`] count.
    pub recovered: u32,
    /// [`RecoveryOutcome::DegradedStable`] count.
    pub degraded: u32,
    /// [`RecoveryOutcome::PermanentLoss`] count.
    pub permanent_loss: u32,
    /// Mean per-trial unavailability (0.0 when no trials ran).
    pub mean_unavailability: f64,
    /// Mean worst-case TTR over the trials that reintegrated.
    pub mean_time_to_reintegration: Option<f64>,
}

impl TrialAggregate {
    /// Folds trial results **in the order given** (callers pass
    /// trial-index order for bit-identical aggregates).
    pub fn fold<'a>(results: impl IntoIterator<Item = &'a TrialResult>) -> TrialAggregate {
        let mut agg = TrialAggregate::default();
        let mut unavailability_sum = 0.0;
        let mut ttr_sum = 0u64;
        let mut ttr_count = 0u32;
        for trial in results {
            agg.trials += 1;
            match trial.outcome {
                Outcome::Contained => agg.contained += 1,
                Outcome::HealthyNodeFrozen => agg.healthy_frozen += 1,
                Outcome::StartupFailed => agg.startup_failed += 1,
            }
            match trial.recovery {
                RecoveryOutcome::Contained => agg.recovery_contained += 1,
                RecoveryOutcome::Recovered => agg.recovered += 1,
                RecoveryOutcome::DegradedStable => agg.degraded += 1,
                RecoveryOutcome::PermanentLoss => agg.permanent_loss += 1,
            }
            unavailability_sum += trial.unavailability;
            if let Some(t) = trial.time_to_reintegration {
                ttr_sum += t;
                ttr_count += 1;
            }
        }
        if agg.trials > 0 {
            agg.mean_unavailability = unavailability_sum / f64::from(agg.trials);
        }
        if ttr_count > 0 {
            agg.mean_time_to_reintegration = Some(ttr_sum as f64 / f64::from(ttr_count));
        }
        agg
    }
}

impl CampaignReport {
    /// Builds the E9 report for a scenario/configuration from folded
    /// trial results.
    #[must_use]
    pub fn from_aggregate(
        scenario: Scenario,
        topology: Topology,
        authority: CouplerAuthority,
        agg: &TrialAggregate,
    ) -> CampaignReport {
        CampaignReport {
            scenario,
            topology,
            authority,
            trials: agg.trials,
            contained: agg.contained,
            healthy_frozen: agg.healthy_frozen,
            startup_failed: agg.startup_failed,
        }
    }
}

impl RecoveryReport {
    /// Builds the E10 report for a scenario/configuration from folded
    /// trial results.
    #[must_use]
    pub fn from_aggregate(
        scenario: Scenario,
        topology: Topology,
        authority: CouplerAuthority,
        policy: RestartPolicy,
        agg: &TrialAggregate,
    ) -> RecoveryReport {
        RecoveryReport {
            scenario,
            topology,
            authority,
            policy,
            trials: agg.trials,
            contained: agg.recovery_contained,
            recovered: agg.recovered,
            degraded: agg.degraded,
            permanent_loss: agg.permanent_loss,
            mean_unavailability: agg.mean_unavailability,
            mean_time_to_reintegration: agg.mean_time_to_reintegration,
        }
    }
}

/// A randomized fault-injection campaign.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    nodes: usize,
    topology: Topology,
    authority: CouplerAuthority,
    trials: u32,
    slots: u64,
    seed: u64,
    threads: usize,
    restart_policy: RestartPolicy,
    fault_duration: Option<u64>,
}

impl Campaign {
    /// Creates a campaign over `nodes` nodes with the given topology and
    /// (for star) guardian authority.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is outside `2..=16`.
    #[must_use]
    pub fn new(nodes: usize, topology: Topology, authority: CouplerAuthority) -> Self {
        assert!((2..=16).contains(&nodes), "campaigns support 2..=16 nodes");
        Campaign {
            nodes,
            topology,
            authority,
            trials: 50,
            slots: 400,
            seed: 0xDB5_2004,
            threads: default_threads(),
            restart_policy: RestartPolicy::Never,
            fault_duration: None,
        }
    }

    /// Sets the trial count.
    #[must_use]
    pub fn trials(mut self, trials: u32) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the per-trial horizon in slots.
    #[must_use]
    pub fn slots(mut self, slots: u64) -> Self {
        self.slots = slots;
        self
    }

    /// Sets the RNG seed (campaigns are reproducible).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count for [`Self::run`] (default: the
    /// machine's available parallelism). Reports are identical for every
    /// thread count: each trial draws from its own derived RNG seed, so
    /// trial `i` is the same simulation no matter which worker runs it.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread is required");
        self.threads = threads;
        self
    }

    /// Sets the hosts' restart policy for every trial (default
    /// [`RestartPolicy::Never`], which leaves the classic [`Self::run`]
    /// campaign untouched).
    #[must_use]
    pub fn restart_policy(mut self, policy: RestartPolicy) -> Self {
        self.restart_policy = policy;
        self
    }

    /// Limits every injected fault to `duration` slots after its onset,
    /// making it transient. By default faults persist to the end of the
    /// run — the seed behavior, under which recovery is impossible while
    /// the fault holds the channel.
    #[must_use]
    pub fn fault_duration(mut self, duration: u64) -> Self {
        self.fault_duration = Some(duration);
        self
    }

    /// Trials this campaign is configured to run per scenario.
    #[must_use]
    pub fn trial_count(&self) -> u32 {
        self.trials
    }

    /// The RNG seed of one trial, independent of every other trial.
    /// Public so external harnesses (the campaign daemon's
    /// content-addressed result cache) can key per-trial work on it.
    #[must_use]
    pub fn trial_seed(&self, scenario: Scenario, index: u32) -> u64 {
        mix(self.seed ^ mix((scenario as u64) << 32 | u64::from(index)))
    }

    /// Whether `scenario` can be injected under this campaign's
    /// topology/authority at all.
    #[must_use]
    pub fn applicable(&self, scenario: Scenario) -> bool {
        scenario.applicable(self.topology, self.authority)
    }

    /// Runs exactly one trial of `scenario` and classifies it fully.
    /// Trial `index` is the same simulation no matter who runs it or in
    /// what order — this is the unit of work the campaign daemon shards,
    /// journals and caches.
    #[must_use]
    pub fn run_trial(&self, scenario: Scenario, index: u32) -> TrialResult {
        let seed = self.trial_seed(scenario, index);
        let mut rng = StdRng::seed_from_u64(seed);
        let report = self.trial(scenario, &mut rng);
        TrialResult::from_report(index, seed, self.nodes, &report)
    }

    /// Runs trials `range` of `scenario` sequentially on the calling
    /// thread, invoking `progress` after each finished trial and
    /// stopping early (returning what was computed so far) once `cancel`
    /// is set. The progress/cancellation surface long-running services
    /// need without giving up per-trial determinism.
    pub fn run_trials_observed(
        &self,
        scenario: Scenario,
        range: std::ops::Range<u32>,
        progress: &mut dyn FnMut(&TrialResult),
        // Relaxed latch: polled once per trial; a trial-late stop is
        // within the documented cancellation granularity.
        cancel: &std::sync::atomic::AtomicBool,
    ) -> Vec<TrialResult> {
        let mut results = Vec::with_capacity(range.len());
        if !self.applicable(scenario) {
            return results;
        }
        for index in range {
            if cancel.load(std::sync::atomic::Ordering::Relaxed) {
                break;
            }
            let trial = self.run_trial(scenario, index);
            progress(&trial);
            results.push(trial);
        }
        results
    }

    /// Runs all configured trials of one scenario across the worker
    /// threads, returning the per-trial results in trial-index order
    /// (empty if the scenario is inapplicable).
    #[must_use]
    pub fn run_trials(&self, scenario: Scenario) -> Vec<TrialResult> {
        if !self.applicable(scenario) {
            return Vec::new();
        }
        // One trial per stolen chunk; results come back in trial order.
        let indices: Vec<u32> = (0..self.trials).collect();
        map_chunks(&indices, 1, self.threads, &|_, chunk: &[u32]| {
            self.run_trial(scenario, chunk[0])
        })
    }

    /// Runs one scenario: `trials` independent randomized simulations,
    /// distributed across the configured worker threads.
    #[must_use]
    pub fn run(&self, scenario: Scenario) -> CampaignReport {
        let agg = TrialAggregate::fold(&self.run_trials(scenario));
        CampaignReport::from_aggregate(scenario, self.topology, self.authority, &agg)
    }

    /// Runs every applicable scenario.
    #[must_use]
    pub fn run_all(&self) -> Vec<CampaignReport> {
        Scenario::all().into_iter().map(|s| self.run(s)).collect()
    }

    /// Runs one scenario with recovery-aware classification: the same
    /// derived-seed trials as [`Self::run`], but each trial is judged by
    /// [`RecoveryOutcome`] and contributes its unavailability and
    /// time-to-reintegration to the aggregate (experiment E10).
    #[must_use]
    pub fn run_recovery(&self, scenario: Scenario) -> RecoveryReport {
        // The fold runs in trial-index order so results are identical
        // for every thread count.
        let agg = TrialAggregate::fold(&self.run_trials(scenario));
        RecoveryReport::from_aggregate(
            scenario,
            self.topology,
            self.authority,
            self.restart_policy,
            &agg,
        )
    }

    fn trial(&self, scenario: Scenario, rng: &mut StdRng) -> SimReport {
        let node = NodeId::new(rng.gen_range(0..self.nodes) as u8);
        let onset = rng.gen_range(0..(3 * self.nodes as u64));
        let until = |from: u64| self.fault_duration.map_or(self.slots, |d| from + d);
        let wrong_slot = {
            let own = u16::from(node.index()) + 1;
            let mut claimed = rng.gen_range(1..=self.nodes as u16);
            if claimed == own {
                claimed = claimed % self.nodes as u16 + 1;
            }
            claimed
        };
        let plan = match scenario {
            Scenario::FaultFree => FaultPlan::none(),
            Scenario::SosSender => FaultPlan::none().with_node_fault(NodeFault {
                node,
                kind: NodeFaultKind::Sos {
                    domain: if rng.gen_bool(0.5) {
                        SosDomain::Time
                    } else {
                        SosDomain::Value
                    },
                    magnitude: rng.gen_range(0.42..0.58),
                },
                // SOS senders misbehave after startup, as in the
                // motivating experiments.
                from_slot: 10 * self.nodes as u64 + onset,
                to_slot: until(10 * self.nodes as u64 + onset),
                persistence: FaultPersistence::Transient,
            }),
            Scenario::MasqueradeColdStart => FaultPlan::none().with_node_fault(NodeFault {
                node,
                kind: NodeFaultKind::MasqueradeColdStart {
                    claimed_slot: wrong_slot,
                },
                from_slot: onset,
                to_slot: until(onset),
                persistence: FaultPersistence::Transient,
            }),
            Scenario::InvalidCState => FaultPlan::none().with_node_fault(NodeFault {
                node,
                kind: NodeFaultKind::InvalidCState {
                    claimed_slot: wrong_slot,
                },
                from_slot: onset,
                to_slot: until(onset),
                persistence: FaultPersistence::Transient,
            }),
            Scenario::Babbling => FaultPlan::none().with_node_fault(NodeFault {
                node,
                kind: NodeFaultKind::Babbling,
                from_slot: onset,
                to_slot: until(onset),
                persistence: FaultPersistence::Transient,
            }),
            Scenario::CouplerReplay => FaultPlan::none().with_coupler_fault(CouplerFaultEvent {
                channel: rng.gen_range(0..2),
                mode: CouplerFaultMode::OutOfSlot,
                from_slot: onset + 2,
                to_slot: until(onset + 2),
                persistence: FaultPersistence::Transient,
            }),
            Scenario::CouplerSilence => FaultPlan::none().with_coupler_fault(CouplerFaultEvent {
                channel: rng.gen_range(0..2),
                mode: CouplerFaultMode::Silence,
                from_slot: onset,
                to_slot: until(onset),
                persistence: FaultPersistence::Transient,
            }),
            Scenario::CouplerNoise => FaultPlan::none().with_coupler_fault(CouplerFaultEvent {
                channel: rng.gen_range(0..2),
                mode: CouplerFaultMode::BadFrame,
                from_slot: onset,
                to_slot: until(onset),
                persistence: FaultPersistence::Transient,
            }),
        };
        let delays = (0..self.nodes)
            .map(|_| rng.gen_range(0..4 * self.nodes as u32))
            .collect();
        SimBuilder::new(self.nodes)
            .topology(self.topology)
            .authority(self.authority)
            .slots(self.slots)
            .start_delays(delays)
            .restart_policy(self.restart_policy)
            .plan(plan)
            .build()
            .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign(topology: Topology, authority: CouplerAuthority) -> Campaign {
        Campaign::new(4, topology, authority).trials(12).slots(300)
    }

    #[test]
    fn fault_free_runs_are_always_contained() {
        for topology in [Topology::Bus, Topology::Star] {
            let report =
                campaign(topology, CouplerAuthority::SmallShifting).run(Scenario::FaultFree);
            assert_eq!(report.contained, report.trials, "{report}");
        }
    }

    #[test]
    fn replay_is_inapplicable_without_buffering() {
        let bus = campaign(Topology::Bus, CouplerAuthority::Passive).run(Scenario::CouplerReplay);
        assert!(!bus.applicable());
        let small =
            campaign(Topology::Star, CouplerAuthority::SmallShifting).run(Scenario::CouplerReplay);
        assert!(!small.applicable());
        let full =
            campaign(Topology::Star, CouplerAuthority::FullShifting).run(Scenario::CouplerReplay);
        assert!(full.applicable());
    }

    #[test]
    fn sos_propagates_on_bus_but_not_reshaping_star() {
        let bus = campaign(Topology::Bus, CouplerAuthority::Passive).run(Scenario::SosSender);
        let star =
            campaign(Topology::Star, CouplerAuthority::SmallShifting).run(Scenario::SosSender);
        assert!(
            bus.propagation_rate() > star.propagation_rate(),
            "bus {bus} vs star {star}"
        );
        assert_eq!(star.propagation_rate(), 0.0, "{star}");
    }

    #[test]
    fn masquerade_is_contained_by_central_blocking() {
        let star = campaign(Topology::Star, CouplerAuthority::TimeWindows)
            .run(Scenario::MasqueradeColdStart);
        assert_eq!(star.propagation_rate(), 0.0, "{star}");
    }

    #[test]
    fn campaigns_are_reproducible() {
        let a = campaign(Topology::Bus, CouplerAuthority::Passive).run(Scenario::SosSender);
        let b = campaign(Topology::Bus, CouplerAuthority::Passive).run(Scenario::SosSender);
        assert_eq!(a, b);
    }

    #[test]
    fn reports_are_identical_for_every_thread_count() {
        let base = campaign(Topology::Star, CouplerAuthority::FullShifting);
        let sequential = base.threads(1).run(Scenario::CouplerReplay);
        for threads in 2..=4 {
            let parallel = base.threads(threads).run(Scenario::CouplerReplay);
            assert_eq!(parallel, sequential, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        let _ = campaign(Topology::Bus, CouplerAuthority::Passive).threads(0);
    }

    #[test]
    fn run_all_covers_every_scenario() {
        let reports = campaign(Topology::Star, CouplerAuthority::FullShifting).run_all();
        assert_eq!(reports.len(), Scenario::all().len());
    }

    #[test]
    fn report_display_summarizes() {
        let report = campaign(Topology::Bus, CouplerAuthority::Passive).run(Scenario::FaultFree);
        assert!(report.to_string().contains("contained"));
    }

    #[test]
    fn recovery_campaign_is_reproducible_across_thread_counts() {
        let base = campaign(Topology::Star, CouplerAuthority::FullShifting)
            .fault_duration(60)
            .restart_policy(RestartPolicy::Watchdog { silence_slots: 8 });
        let sequential = base.threads(1).run_recovery(Scenario::CouplerReplay);
        for threads in 2..=4 {
            let parallel = base.threads(threads).run_recovery(Scenario::CouplerReplay);
            assert_eq!(parallel, sequential, "{threads} threads");
        }
    }

    #[test]
    fn transient_replay_with_watchdog_recovers() {
        let report = campaign(Topology::Star, CouplerAuthority::FullShifting)
            .fault_duration(60)
            .restart_policy(RestartPolicy::Watchdog { silence_slots: 8 })
            .run_recovery(Scenario::CouplerReplay);
        assert_eq!(report.permanent_loss, 0, "{report}");
        assert!(report.recovered > 0, "{report}");
        assert!(report.mean_time_to_reintegration.is_some(), "{report}");
    }

    #[test]
    fn transient_replay_without_restarts_admits_permanent_loss() {
        let report = campaign(Topology::Star, CouplerAuthority::FullShifting)
            .fault_duration(60)
            .run_recovery(Scenario::CouplerReplay);
        assert!(report.permanent_loss > 0, "{report}");
        assert_eq!(report.recovered, 0, "never restarts: {report}");
        assert!(report.mean_time_to_reintegration.is_none(), "{report}");
    }

    #[test]
    fn recovery_report_handles_inapplicable_scenarios() {
        let report = campaign(Topology::Bus, CouplerAuthority::Passive)
            .run_recovery(Scenario::CouplerReplay);
        assert!(!report.applicable());
        assert!(report.to_string().contains("not applicable"));
    }

    #[test]
    fn per_trial_results_refold_into_both_reports() {
        let base = campaign(Topology::Star, CouplerAuthority::FullShifting)
            .fault_duration(60)
            .restart_policy(RestartPolicy::Watchdog { silence_slots: 8 });
        let trials = base.run_trials(Scenario::CouplerReplay);
        assert_eq!(trials.len(), 12);
        // Trials arrive in index order with their derived seeds.
        for (i, trial) in trials.iter().enumerate() {
            assert_eq!(trial.index, i as u32);
            assert_eq!(
                trial.seed,
                base.trial_seed(Scenario::CouplerReplay, trial.index)
            );
        }
        let agg = TrialAggregate::fold(&trials);
        let recovery = RecoveryReport::from_aggregate(
            Scenario::CouplerReplay,
            Topology::Star,
            CouplerAuthority::FullShifting,
            RestartPolicy::Watchdog { silence_slots: 8 },
            &agg,
        );
        assert_eq!(recovery, base.run_recovery(Scenario::CouplerReplay));
        let containment = CampaignReport::from_aggregate(
            Scenario::CouplerReplay,
            Topology::Star,
            CouplerAuthority::FullShifting,
            &agg,
        );
        assert_eq!(containment, base.run(Scenario::CouplerReplay));
    }

    #[test]
    fn individual_trials_match_the_batch() {
        let base = campaign(Topology::Bus, CouplerAuthority::Passive);
        let batch = base.run_trials(Scenario::SosSender);
        for trial in &batch {
            assert_eq!(*trial, base.run_trial(Scenario::SosSender, trial.index));
        }
    }

    #[test]
    fn observed_runs_report_progress_and_honor_cancellation() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let base = campaign(Topology::Bus, CouplerAuthority::Passive);
        let cancel = AtomicBool::new(false);
        let mut seen = Vec::new();
        let results = base.run_trials_observed(
            Scenario::SosSender,
            0..5,
            &mut |t| seen.push(t.index),
            &cancel,
        );
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(results.len(), 5);

        // Cancelling after the third trial stops the sweep early.
        let cancel = AtomicBool::new(false);
        let mut count = 0;
        let results = base.run_trials_observed(
            Scenario::SosSender,
            0..5,
            &mut |_| {
                count += 1;
                if count == 3 {
                    cancel.store(true, Ordering::Relaxed);
                }
            },
            &cancel,
        );
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn inapplicable_scenarios_yield_no_trials() {
        let base = campaign(Topology::Bus, CouplerAuthority::Passive);
        assert!(!base.applicable(Scenario::CouplerReplay));
        assert!(base.run_trials(Scenario::CouplerReplay).is_empty());
    }

    #[test]
    fn fault_free_recovery_runs_are_contained() {
        let report = campaign(Topology::Star, CouplerAuthority::SmallShifting)
            .restart_policy(RestartPolicy::Immediate)
            .run_recovery(Scenario::FaultFree);
        assert_eq!(report.contained, report.trials, "{report}");
        assert!(report.availability() > 0.5, "{report}");
    }
}
