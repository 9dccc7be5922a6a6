//! Inverse mode: synthesize the cheapest [`RestartPolicy`] that keeps
//! availability above a threshold across a fault corpus.
//!
//! "Cheapest" follows Abdi et al.'s restart-based fault-tolerance
//! framing: restarts are the resource. Candidates are ordered by
//! restart budget first (none, then bounded budgets ascending, then
//! unlimited), and within a budget by *least aggressive* restarting
//! (longer backoff / silence windows first), so the first candidate
//! whose **worst-case** availability over the whole corpus clears the
//! threshold is the cheapest one that works. When none clears it, the
//! best-scoring candidate is reported instead so the E11 table always
//! has a row.

use tta_guardian::CouplerAuthority;
use tta_protocol::RestartPolicy;

use crate::eval::{evaluate_under, EvalContext};
use crate::input::FuzzInput;

/// One synthesis verdict: the chosen policy and how it scored.
#[derive(Debug, Clone, Copy)]
pub struct SynthOutcome {
    /// The cheapest policy clearing the threshold (or the best scorer
    /// when none does).
    pub policy: RestartPolicy,
    /// Worst-case availability across the corpus under that policy.
    pub worst_availability: f64,
    /// Whether the threshold was actually met.
    pub met: bool,
    /// Number of candidate policies evaluated before stopping.
    pub candidates_tried: usize,
}

/// The fixed candidate ladder, cheapest first.
#[must_use]
pub fn candidate_policies() -> Vec<RestartPolicy> {
    let mut out = vec![RestartPolicy::Never];
    for max_restarts in [1, 2, 3] {
        for backoff_slots in [8, 4, 2, 1] {
            out.push(RestartPolicy::BoundedRetry {
                max_restarts,
                backoff_slots,
            });
        }
    }
    for silence_slots in [16, 8, 4, 2, 1] {
        out.push(RestartPolicy::Watchdog { silence_slots });
    }
    out.push(RestartPolicy::Immediate);
    out
}

/// Worst-case availability of `policy` across the corpus under one
/// authority level.
#[must_use]
pub fn worst_availability(
    corpus: &[FuzzInput],
    ctx: &EvalContext,
    authority: CouplerAuthority,
    policy: RestartPolicy,
) -> f64 {
    let ctx = EvalContext { policy, ..*ctx };
    corpus
        .iter()
        .map(|input| evaluate_under(input, &ctx, authority).availability)
        .fold(f64::INFINITY, f64::min)
        .min(1.0)
}

/// Walks the candidate ladder and returns the first policy whose
/// worst-case availability clears `threshold` (or the best scorer).
#[must_use]
pub fn synthesize(
    corpus: &[FuzzInput],
    ctx: &EvalContext,
    authority: CouplerAuthority,
    threshold: f64,
) -> SynthOutcome {
    let mut best: Option<SynthOutcome> = None;
    for (tried, policy) in candidate_policies().into_iter().enumerate() {
        let worst = worst_availability(corpus, ctx, authority, policy);
        let outcome = SynthOutcome {
            policy,
            worst_availability: worst,
            met: worst >= threshold,
            candidates_tried: tried + 1,
        };
        if outcome.met {
            return outcome;
        }
        if best.is_none_or(|b| worst > b.worst_availability) {
            best = Some(outcome);
        }
    }
    best.expect("candidate ladder is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_guardian::sos::SosDomain;
    use tta_sim::{FaultEvent, FaultPersistence, FaultTarget, NodeFaultKind};
    use tta_types::NodeId;

    fn sos_corpus() -> Vec<FuzzInput> {
        // Node 0 is the cluster's least tolerant receiver, so as an SOS
        // *sender* at magnitude 0.5 its marginal frames split the other
        // receivers badly enough to freeze two healthy peers — the
        // quorum-breaking cliff the fuzzer hunts.
        vec![
            FuzzInput::empty(),
            FuzzInput {
                events: vec![FaultEvent {
                    target: FaultTarget::Node {
                        node: NodeId::new(0),
                        kind: NodeFaultKind::Sos {
                            domain: SosDomain::Time,
                            magnitude: 0.5,
                        },
                    },
                    from_slot: 60,
                    to_slot: 120,
                    persistence: FaultPersistence::Transient,
                }],
            },
        ]
    }

    #[test]
    fn an_easy_threshold_is_met_by_never() {
        let outcome = synthesize(
            &sos_corpus(),
            &EvalContext::default(),
            CouplerAuthority::SmallShifting,
            0.1,
        );
        assert!(outcome.met);
        assert_eq!(outcome.policy, RestartPolicy::Never);
        assert_eq!(outcome.candidates_tried, 1);
    }

    #[test]
    fn a_hard_threshold_under_weak_authority_needs_restarts() {
        // Passive authority lets the SOS sender freeze healthy peers,
        // so under `never` the freeze is absorbing and availability
        // stays low; unlimited restarting recovers it. A threshold
        // between the two (both include the startup transient, which
        // caps availability for *every* policy) must therefore select
        // a restarting policy.
        let corpus = sos_corpus();
        let ctx = EvalContext::default();
        let never = worst_availability(
            &corpus,
            &ctx,
            CouplerAuthority::Passive,
            RestartPolicy::Never,
        );
        let immediate = worst_availability(
            &corpus,
            &ctx,
            CouplerAuthority::Passive,
            RestartPolicy::Immediate,
        );
        assert!(
            immediate > never + 0.05,
            "restarting must help under passive authority: never {never}, immediate {immediate}"
        );
        let outcome = synthesize(
            &corpus,
            &ctx,
            CouplerAuthority::Passive,
            (never + immediate) / 2.0,
        );
        assert!(outcome.met, "midpoint threshold is satisfiable");
        assert_ne!(outcome.policy, RestartPolicy::Never);
    }
}
