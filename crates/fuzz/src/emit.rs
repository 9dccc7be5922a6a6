//! Regression-scenario emission: turns a shrunk find into a
//! lint-clean scenario TOML with pinned `expect` blocks.
//!
//! Expectations are *measured, never guessed*: the emitter parses the
//! scenario body through the real DSL and runs it once through the
//! conformance runner, which measures the checker's verdict and the
//! simulator run's disturbance and recovery class, and self-checks the
//! plan (counterexample re-admission, oracle). The `[expect]` section
//! pins what that run measured, so a replay checks the same numbers;
//! the finished text is re-parsed and linted at the deny-warnings bar
//! CI applies before it may reach `scenarios/`.

use std::fmt::Write as _;
use std::path::Path;

use tta_base::hash::fnv1a64;
use tta_core::Verdict;
use tta_guardian::CouplerAuthority;
use tta_modellint::{lint_scenario, AnalysisOptions, Severity};
use tta_protocol::RestartPolicy;
use tta_sim::{FaultPersistence, FaultTarget, NodeFaultKind, RecoveryOutcome};

use crate::eval::EvalContext;
use crate::input::FuzzInput;

/// What the emitter needs to know about a find.
#[derive(Debug)]
pub struct EmitRequest<'a> {
    /// The shrunk input.
    pub input: &'a FuzzInput,
    /// Authority level the scenario pins (the one the find concerns).
    pub authority: CouplerAuthority,
    /// `"cliff"` or `"flip"` — becomes part of the scenario name.
    pub kind_word: &'static str,
    /// Deterministic human-readable description of the find.
    pub description: String,
    /// Cluster shape the fuzzer ran against.
    pub ctx: &'a EvalContext,
}

/// A finished, self-checked regression scenario.
#[derive(Debug, Clone)]
pub struct Emitted {
    /// Scenario name (also embedded in the TOML).
    pub name: String,
    /// Suggested file name under `scenarios/`.
    pub file_name: String,
    /// The complete TOML text.
    pub toml: String,
    /// The recovery outcome the scenario pins.
    pub expected_outcome: RecoveryOutcome,
}

/// The DSL spelling of an authority level: [`CouplerAuthority::token`].
#[must_use]
pub fn authority_token(authority: CouplerAuthority) -> &'static str {
    authority.token()
}

/// Emits one scenario, or a reason the find cannot be pinned (e.g. it
/// lints dirty — those finds are dropped, not written).
pub fn emit_scenario(req: &EmitRequest<'_>) -> Result<Emitted, String> {
    let tag = format!("{}\n{}", req.input.render(), req.authority.token());
    let hash = fnv1a64(tag.as_bytes()) as u32;
    let name = format!(
        "fuzzed-{}-{}-{hash:08x}",
        req.kind_word,
        req.authority.token().replace('_', "-")
    );
    let file_name = format!("{}.toml", name.replace('-', "_"));

    let body = render_body(req, &name)?;
    let scenario = tta_conformance::Scenario::parse(&body, Path::new("scenarios"))
        .map_err(|e| format!("emitted body does not parse: {e}"))?;

    // One conformance run measures the expectations and self-checks.
    let measured = tta_conformance::run_scenario(&scenario);
    let report = &measured.report;
    if !measured.passed {
        return Err(format!("scenario does not replay cleanly:\n{report}"));
    }
    let sim = measured
        .sim
        .ok_or_else(|| format!("emitted plan is not simulable:\n{report}"))?;

    let mut toml = body;
    toml.push_str("\n[expect]\n");
    match measured.verdict {
        Verdict::Holds => toml.push_str("verdict = \"holds\"\n"),
        Verdict::Violated => toml.push_str("verdict = \"violated\"\n"),
        // A truncated exploration pins nothing.
        Verdict::BudgetExhausted => {}
    }
    let _ = writeln!(toml, "sim_disturbed = {}", sim.disturbed);
    let _ = writeln!(toml, "recovery_outcome = \"{}\"", sim.recovery);

    // The finished file must clear the lint gate CI applies.
    let finished = tta_conformance::Scenario::parse(&toml, Path::new("scenarios"))
        .map_err(|e| format!("finished scenario does not parse: {e}"))?;
    let (diags, _) = lint_scenario(&name, &finished, &AnalysisOptions::default());
    if let Some(diag) = diags.iter().find(|d| d.severity != Severity::Note) {
        return Err(format!(
            "scenario lints dirty: {} {}",
            diag.code.id, diag.message
        ));
    }

    Ok(Emitted {
        name,
        file_name,
        toml,
        expected_outcome: sim.recovery,
    })
}

/// Renders everything up to (not including) the `[expect]` section.
fn render_body(req: &EmitRequest<'_>, name: &str) -> Result<String, String> {
    let mut out = String::new();
    out.push_str(
        "# Fuzzer-discovered regression scenario, shrunk to a 1-minimal plan\n\
         # and pinned with measured expectations. Regenerate with tta_fuzz\n\
         # using the seed recorded in the description.\n\n",
    );
    out.push_str("[scenario]\n");
    let _ = writeln!(out, "name = \"{name}\"");
    let _ = writeln!(out, "description = \"{}\"", req.description);
    out.push_str("\n[cluster]\n");
    let _ = writeln!(out, "nodes = {}", req.ctx.nodes);
    let _ = writeln!(out, "topology = \"{}\"", req.ctx.topology.token());
    let _ = writeln!(out, "authority = \"{}\"", req.authority.token());
    if req.authority == CouplerAuthority::FullShifting {
        // An unbudgeted full-shifting space is the paper's huge one;
        // one replay suffices to expose the violation and keeps the
        // checker phase (and the lint gate) fast.
        out.push_str("\n[model]\nout_of_slot_budget = 1\n");
    }
    out.push_str("\n[sim]\n");
    let _ = writeln!(out, "slots = {}", req.ctx.slots);
    render_policy(&mut out, req.ctx.policy);

    for event in &req.input.events {
        match event.target {
            FaultTarget::Coupler { channel, mode } => {
                out.push_str("\n[[fault.coupler]]\n");
                let _ = writeln!(out, "channel = {channel}");
                let _ = writeln!(out, "mode = \"{mode}\"");
                let _ = writeln!(out, "from_slot = {}", event.from_slot);
                let _ = writeln!(out, "to_slot = {}", event.to_slot);
            }
            FaultTarget::Node { node, kind } => {
                out.push_str("\n[[fault.node]]\n");
                let _ = writeln!(out, "node = {}", node.index());
                render_node_kind(&mut out, kind)?;
                let _ = writeln!(out, "from_slot = {}", event.from_slot);
                let _ = writeln!(out, "to_slot = {}", event.to_slot);
            }
        }
        render_persistence(&mut out, event.persistence);
    }
    Ok(out)
}

fn render_node_kind(out: &mut String, kind: NodeFaultKind) -> Result<(), String> {
    match kind {
        NodeFaultKind::Sos { domain, magnitude } => {
            out.push_str("kind = \"sos\"\n");
            let _ = writeln!(out, "domain = \"{domain}\"");
            // The mutator's magnitude palette renders exactly; reject
            // anything that would not round-trip through TOML.
            if format!("{magnitude}").parse::<f64>() != Ok(magnitude) {
                return Err(format!("magnitude {magnitude} does not round-trip"));
            }
            let _ = writeln!(out, "magnitude = {magnitude}");
        }
        NodeFaultKind::MasqueradeColdStart { claimed_slot } => {
            out.push_str("kind = \"masquerade_cold_start\"\n");
            let _ = writeln!(out, "claimed_slot = {claimed_slot}");
        }
        NodeFaultKind::InvalidCState { claimed_slot } => {
            out.push_str("kind = \"invalid_cstate\"\n");
            let _ = writeln!(out, "claimed_slot = {claimed_slot}");
        }
        NodeFaultKind::Babbling => out.push_str("kind = \"babbling\"\n"),
        NodeFaultKind::Mute => out.push_str("kind = \"mute\"\n"),
    }
    Ok(())
}

fn render_persistence(out: &mut String, persistence: FaultPersistence) {
    match persistence {
        // Transient is the DSL default; omitting it keeps files tight.
        FaultPersistence::Transient => {}
        FaultPersistence::Permanent => out.push_str("persistence = \"permanent\"\n"),
        FaultPersistence::Intermittent { period, duty } => {
            out.push_str("persistence = \"intermittent\"\n");
            let _ = writeln!(out, "period = {period}");
            let _ = writeln!(out, "duty = {duty}");
        }
    }
}

fn render_policy(out: &mut String, policy: RestartPolicy) {
    match policy {
        // Never is the DSL default.
        RestartPolicy::Never => {}
        RestartPolicy::Immediate => out.push_str("restart_policy = \"immediate\"\n"),
        RestartPolicy::BoundedRetry {
            max_restarts,
            backoff_slots,
        } => {
            out.push_str("restart_policy = \"bounded_retry\"\n");
            let _ = writeln!(out, "max_restarts = {max_restarts}");
            let _ = writeln!(out, "backoff_slots = {backoff_slots}");
        }
        RestartPolicy::Watchdog { silence_slots } => {
            out.push_str("restart_policy = \"watchdog\"\n");
            let _ = writeln!(out, "silence_slots = {silence_slots}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_sim::FaultEvent;
    use tta_types::NodeId;

    #[test]
    fn a_simple_sos_find_emits_a_self_checked_scenario() {
        let input = FuzzInput {
            events: vec![FaultEvent {
                target: FaultTarget::Node {
                    node: NodeId::new(1),
                    kind: NodeFaultKind::Sos {
                        domain: tta_guardian::sos::SosDomain::Time,
                        magnitude: 0.5,
                    },
                },
                from_slot: 60,
                to_slot: 61,
                persistence: FaultPersistence::Transient,
            }],
        };
        let ctx = EvalContext::default();
        let emitted = emit_scenario(&EmitRequest {
            input: &input,
            authority: CouplerAuthority::Passive,
            kind_word: "cliff",
            description: "unit-test emission".to_string(),
            ctx: &ctx,
        })
        .expect("emission succeeds");
        assert!(emitted.toml.contains("[[fault.node]]"));
        assert!(emitted.toml.contains("recovery_outcome"));
        assert!(emitted.file_name.starts_with("fuzzed_cliff_passive_"));
        // Emission is deterministic.
        let again = emit_scenario(&EmitRequest {
            input: &input,
            authority: CouplerAuthority::Passive,
            kind_word: "cliff",
            description: "unit-test emission".to_string(),
            ctx: &ctx,
        })
        .expect("emission succeeds twice");
        assert_eq!(emitted.toml, again.toml);
    }

    #[test]
    fn an_unsimulable_find_is_refused() {
        // A passive coupler buffers no frame it could replay.
        let input = FuzzInput {
            events: vec![FaultEvent {
                target: FaultTarget::Coupler {
                    channel: 0,
                    mode: tta_guardian::CouplerFaultMode::OutOfSlot,
                },
                from_slot: 12,
                to_slot: 40,
                persistence: FaultPersistence::Transient,
            }],
        };
        let err = emit_scenario(&EmitRequest {
            input: &input,
            authority: CouplerAuthority::Passive,
            kind_word: "cliff",
            description: "unsimulable".to_string(),
            ctx: &EvalContext::default(),
        })
        .expect_err("a plan the simulator cannot run pins nothing");
        assert!(
            err.contains("not simulable") && err.contains("[sim] SKIPPED"),
            "{err}"
        );
    }

    #[test]
    fn rendered_bodies_parse_back_to_the_input_plan() {
        use crate::mutate::MAGNITUDES;
        use tta_guardian::sos::SosDomain;
        use tta_guardian::CouplerFaultMode;
        let mut events = Vec::new();
        let mut from_slot = 10;
        let mut push = |target, persistence| {
            events.push(FaultEvent {
                target,
                from_slot,
                to_slot: from_slot + 15,
                persistence,
            });
            from_slot += 20;
        };
        let intermittent = FaultPersistence::Intermittent { period: 6, duty: 2 };
        for domain in [SosDomain::Time, SosDomain::Value] {
            for magnitude in MAGNITUDES {
                let kind = NodeFaultKind::Sos { domain, magnitude };
                push(
                    FaultTarget::Node {
                        node: NodeId::new(1),
                        kind,
                    },
                    intermittent,
                );
            }
        }
        for (node, kind, persistence) in [
            (
                0,
                NodeFaultKind::MasqueradeColdStart { claimed_slot: 3 },
                FaultPersistence::Transient,
            ),
            (
                2,
                NodeFaultKind::InvalidCState { claimed_slot: 4 },
                FaultPersistence::Transient,
            ),
            (3, NodeFaultKind::Babbling, FaultPersistence::Transient),
            (2, NodeFaultKind::Mute, FaultPersistence::Permanent),
        ] {
            let node = NodeId::new(node);
            push(FaultTarget::Node { node, kind }, persistence);
        }
        for channel in [0, 1] {
            for mode in CouplerFaultMode::all()
                .into_iter()
                .filter(|m| m.is_faulty())
            {
                push(FaultTarget::Coupler { channel, mode }, intermittent);
                push(
                    FaultTarget::Coupler { channel, mode },
                    FaultPersistence::Transient,
                );
            }
        }

        let input = FuzzInput { events };
        let ctx = EvalContext::default();
        let body = render_body(
            &EmitRequest {
                input: &input,
                authority: CouplerAuthority::FullShifting,
                kind_word: "cliff",
                description: "round trip".to_string(),
                ctx: &ctx,
            },
            "round-trip",
        )
        .expect("palette magnitudes render");
        let parsed = tta_conformance::Scenario::parse(&body, Path::new("scenarios"))
            .expect("the rendered body parses");
        let plan = input.plan();
        assert_eq!(plan.events(), input.events, "no window may overlap");
        // The file lists coupler events ahead of node events, and
        // dispatch orders events only within a lane: compare lanes.
        let in_lane = |events: &[FaultEvent], lane| {
            events
                .iter()
                .filter(|e| e.target.lane() == lane)
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(parsed.faults.len(), plan.events().len());
        for event in plan.events() {
            let lane = event.target.lane();
            assert_eq!(in_lane(&parsed.faults, lane), in_lane(plan.events(), lane));
        }
    }
}
