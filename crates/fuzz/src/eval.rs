//! Candidate execution and the coverage signal.
//!
//! Every candidate plan runs through the real simulator once per
//! authority level (the paper's four-step spectrum), and the four runs
//! collapse into an [`EvalSet`]. Its [`EvalSet::signature`] is the
//! corpus admission key: a candidate is *novel* when some authority
//! reached a new [`RecoveryOutcome`] class, a new availability bucket,
//! or a new order of magnitude of freezes / restarts / guardian
//! interventions. Buckets, not raw floats, so the corpus saturates
//! instead of admitting every availability wiggle.

use tta_base::hash::fnv1a64;
use tta_guardian::CouplerAuthority;
use tta_protocol::RestartPolicy;
use tta_sim::{can_replay, RecoveryOutcome, SimBuilder, TimeSeries, Topology};

use crate::input::{repaired, FuzzInput};

/// The fixed cluster every candidate runs against.
#[derive(Debug, Clone, Copy)]
pub struct EvalContext {
    /// Cluster size.
    pub nodes: usize,
    /// Interconnect topology.
    pub topology: Topology,
    /// Simulation horizon in slots.
    pub slots: u64,
    /// Host restart policy.
    pub policy: RestartPolicy,
}

impl Default for EvalContext {
    /// The paper's 4-node star over a 400-slot horizon with absorbing
    /// freezes — the same baseline the scenario DSL defaults to.
    fn default() -> Self {
        EvalContext {
            nodes: 4,
            topology: Topology::Star,
            slots: 400,
            policy: RestartPolicy::Never,
        }
    }
}

/// What one simulated run contributed to the coverage signal.
#[derive(Debug, Clone, Copy)]
pub struct Evaluation {
    /// Authority level the run used.
    pub authority: CouplerAuthority,
    /// Recovery classification of the run.
    pub outcome: RecoveryOutcome,
    /// `1 - unavailability` at quorum = healthy-node count (floored at
    /// one so an all-faulty plan still yields a defined quorum).
    pub availability: f64,
    /// Slots at which some node entered freeze.
    pub freezes: usize,
    /// Slots at which a host restarted a frozen controller.
    pub restarts: usize,
    /// Slots at which a central guardian blocked or reshaped a frame.
    pub interventions: usize,
}

/// One candidate's runs across the full authority spectrum, in
/// [`CouplerAuthority::all`] order.
#[derive(Debug, Clone, Copy)]
pub struct EvalSet {
    /// Per-authority evaluations.
    pub evals: [Evaluation; 4],
}

impl EvalSet {
    /// The evaluation under one authority level.
    #[must_use]
    pub fn under(&self, authority: CouplerAuthority) -> &Evaluation {
        self.evals
            .iter()
            .find(|e| e.authority == authority)
            .expect("every authority evaluated")
    }

    /// The corpus admission key: FNV over each authority's outcome
    /// class, availability bucket (5% granularity), and log2 buckets of
    /// the event counts.
    #[must_use]
    pub fn signature(&self) -> u64 {
        let mut bytes = Vec::with_capacity(4 * 5);
        for eval in &self.evals {
            bytes.push(outcome_tag(eval.outcome));
            bytes.push(availability_bucket(eval.availability));
            bytes.push(log2_bucket(eval.freezes));
            bytes.push(log2_bucket(eval.restarts));
            bytes.push(log2_bucket(eval.interventions));
        }
        fnv1a64(&bytes)
    }
}

/// Stable small tag per outcome class (order of the taxonomy).
fn outcome_tag(outcome: RecoveryOutcome) -> u8 {
    match outcome {
        RecoveryOutcome::Contained => 0,
        RecoveryOutcome::Recovered => 1,
        RecoveryOutcome::DegradedStable => 2,
        RecoveryOutcome::PermanentLoss => 3,
    }
}

/// Availability quantized to 5% buckets (0..=20).
fn availability_bucket(availability: f64) -> u8 {
    ((availability * 20.0).floor() as i64).clamp(0, 20) as u8
}

/// Order-of-magnitude bucket of an event count.
fn log2_bucket(n: usize) -> u8 {
    (usize::BITS - n.leading_zeros()) as u8
}

/// The candidate's fault plan with physically inadmissible events
/// dropped, by the simulator's applicability rule the way the campaign
/// layer applies it to its replay scenario: an out-of-slot coupler
/// fault *requires* a coupler that [`can_replay`], so under any lesser
/// authority those events simply do not exist (rather than panicking
/// the simulator). That asymmetry is the paper's point — full shifting
/// is the only level that adds the replay fault to the fault space.
#[must_use]
pub fn admissible_plan(
    input: &FuzzInput,
    ctx: &EvalContext,
    authority: CouplerAuthority,
) -> tta_sim::FaultPlan {
    let replays = can_replay(ctx.topology, authority);
    repaired(input.events.iter().filter(|e| replays || !e.is_replay()))
}

/// Runs the candidate under one authority level, in-process.
///
/// # Panics
///
/// Panics if the report's log references slots beyond its own horizon
/// (a simulator invariant violation).
#[must_use]
pub fn evaluate_under(
    input: &FuzzInput,
    ctx: &EvalContext,
    authority: CouplerAuthority,
) -> Evaluation {
    let report = SimBuilder::new(ctx.nodes)
        .topology(ctx.topology)
        .authority(authority)
        .slots(ctx.slots)
        .restart_policy(ctx.policy)
        .plan(admissible_plan(input, ctx, authority))
        .build()
        .run();
    let faulty = report.faulty_nodes().len();
    let quorum = ctx.nodes.saturating_sub(faulty).max(1) as u32;
    let series = TimeSeries::from_log(report.log(), ctx.nodes, report.slots_run())
        .expect("simulator log stays within its own horizon");
    Evaluation {
        authority,
        outcome: RecoveryOutcome::classify(&report),
        availability: 1.0 - report.unavailability(quorum),
        freezes: series.freeze_slots().len(),
        restarts: series.restart_slots().len(),
        interventions: series.guardian_intervention_slots().len(),
    }
}

/// Runs the candidate across the full authority spectrum, in-process.
#[must_use]
pub fn evaluate(input: &FuzzInput, ctx: &EvalContext) -> EvalSet {
    LocalEvaluator.evaluate(input, ctx)
}

/// How the engine executes candidate plans. [`LocalEvaluator`] runs
/// them in process; a wrapper can add observation (timing, counting)
/// around it. `Sync` because the engine's batch evaluation shares one
/// evaluator across its scoped worker threads.
pub trait Evaluator: Sync {
    /// Runs the candidate under one authority level.
    fn evaluate_under(
        &self,
        input: &FuzzInput,
        ctx: &EvalContext,
        authority: CouplerAuthority,
    ) -> Evaluation;

    /// Runs the candidate across the full authority spectrum, in
    /// [`CouplerAuthority::all`] order.
    fn evaluate(&self, input: &FuzzInput, ctx: &EvalContext) -> EvalSet {
        let all = CouplerAuthority::all();
        EvalSet {
            evals: [
                self.evaluate_under(input, ctx, all[0]),
                self.evaluate_under(input, ctx, all[1]),
                self.evaluate_under(input, ctx, all[2]),
                self.evaluate_under(input, ctx, all[3]),
            ],
        }
    }
}

/// The in-process evaluator: runs the simulator directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalEvaluator;

impl Evaluator for LocalEvaluator {
    fn evaluate_under(
        &self,
        input: &FuzzInput,
        ctx: &EvalContext,
        authority: CouplerAuthority,
    ) -> Evaluation {
        evaluate_under(input, ctx, authority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_guardian::sos::SosDomain;
    use tta_sim::{FaultEvent, FaultPersistence, FaultTarget, NodeFaultKind};
    use tta_types::NodeId;

    #[test]
    fn the_empty_plan_is_contained_and_fully_available() {
        let set = evaluate(&FuzzInput::empty(), &EvalContext::default());
        for eval in &set.evals {
            assert_eq!(eval.outcome, RecoveryOutcome::Contained);
            assert!(eval.availability > 0.9, "{}", eval.availability);
            assert_eq!(eval.freezes, 0);
        }
    }

    #[test]
    fn signatures_separate_benign_from_catastrophic() {
        let ctx = EvalContext::default();
        let benign = evaluate(&FuzzInput::empty(), &ctx);
        // An SOS sender after startup: under weak authority its
        // slightly-off-spec frames freeze healthy receivers.
        let nasty = FuzzInput {
            events: vec![FaultEvent {
                target: FaultTarget::Node {
                    node: NodeId::new(1),
                    kind: NodeFaultKind::Sos {
                        domain: SosDomain::Time,
                        magnitude: 0.5,
                    },
                },
                from_slot: 60,
                to_slot: 120,
                persistence: FaultPersistence::Transient,
            }],
        };
        let nasty = evaluate(&nasty, &ctx);
        assert_ne!(benign.signature(), nasty.signature());
        // And identical inputs hash identically.
        assert_eq!(
            evaluate(&FuzzInput::empty(), &ctx).signature(),
            benign.signature()
        );
    }
}
