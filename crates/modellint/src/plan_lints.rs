//! Static scenario and fault-plan lints (no state-space needed):
//! horizon checks (ML30), shadowing under the simulator's
//! first-match-wins dispatch (ML31), degenerate intermittent parameters
//! (ML32) and expectations that can never be checked (ML33).
//!
//! Shadowing is decided by *replaying the dispatch rule*, not by
//! interval algebra: `FaultPlan::coupler_fault_at` walks the event list
//! in declaration order and returns the first active match, so an event
//! is shadowed iff there is no slot in the horizon at which it is that
//! first match. Replaying slot-by-slot keeps the lint exactly as
//! precise as the simulator, intermittent duty cycles and all.

use crate::catalog;
use tta_base::diag::{Diagnostic, Severity};
use tta_conformance::Scenario;
use tta_sim::{FaultEvent, FaultPersistence, FaultTarget};

/// Each event's label: `fault.coupler #i` or `fault.node #j`, counted
/// per section in file order.
fn labels(events: &[FaultEvent]) -> Vec<String> {
    let (mut coupler, mut node) = (0, 0);
    events
        .iter()
        .map(|event| match event.target {
            FaultTarget::Coupler { .. } => {
                coupler += 1;
                format!("fault.coupler #{coupler}")
            }
            FaultTarget::Node { .. } => {
                node += 1;
                format!("fault.node #{node}")
            }
        })
        .collect()
}

/// Runs every plan-level lint for a parsed scenario.
#[must_use]
pub fn lint_plan(target: &str, scenario: &Scenario) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let horizon = scenario.slots;
    let events = &scenario.faults;
    let labels = labels(events);

    for (event, where_) in events.iter().zip(&labels) {
        // ── ML30: windows beyond the horizon ───────────────────────
        if event.from_slot >= horizon {
            diags.push(
                Diagnostic::new(
                    catalog::ML30,
                    target,
                    format!(
                        "{where_}: window starts at slot {} but the simulation ends \
                         at slot {horizon} — the fault never fires",
                        event.from_slot
                    ),
                )
                .help("shrink from_slot or raise sim.slots"),
            );
        } else if event.persistence != FaultPersistence::Permanent && event.to_slot > horizon {
            diags.push(
                Diagnostic::new(
                    catalog::ML30,
                    target,
                    format!(
                        "{where_}: window {}..{} extends past the {horizon}-slot \
                         horizon — slots {horizon}..{} never fire",
                        event.from_slot, event.to_slot, event.to_slot
                    ),
                )
                .severity(Severity::Note),
            );
        }

        // ── ML32: degenerate intermittent parameters ───────────────
        if let FaultPersistence::Intermittent { period, duty } = event.persistence {
            if duty == period {
                diags.push(Diagnostic::new(
                    catalog::ML32,
                    target,
                    format!(
                        "{where_}: duty {duty} equals period {period} — the fault \
                             is active every slot of its window, equivalent to \
                             persistence = \"transient\""
                    ),
                ));
            } else if event.from_slot < horizon
                && period >= event.to_slot.saturating_sub(event.from_slot)
            {
                diags.push(Diagnostic::new(
                    catalog::ML32,
                    target,
                    format!(
                        "{where_}: period {period} is at least the window length \
                             {} — the fault never recurs, only the initial burst of \
                             {duty} slot(s) fires",
                        event.to_slot - event.from_slot
                    ),
                ));
            }
        }
    }

    // ── ML31: events shadowed by first-match-wins dispatch ─────────
    for (index, event) in events.iter().enumerate() {
        if event.from_slot >= horizon {
            continue; // already ML30 — never active at all
        }
        let lane = event.target.lane();
        let wins = (0..horizon).any(|t| {
            events
                .iter()
                .position(|e| e.target.lane() == lane && e.active_at(t))
                == Some(index)
        });
        if !wins {
            let earlier: Vec<&str> = events[..index]
                .iter()
                .zip(&labels)
                .filter(|(e, _)| e.target.lane() == lane)
                .map(|(_, label)| label.as_str())
                .collect();
            diags.push(
                Diagnostic::new(
                    catalog::ML31,
                    target,
                    format!(
                        "{}: never the first active match on {lane} at any slot in \
                         0..{horizon} — first-match-wins dispatch means it never \
                         takes effect",
                        labels[index]
                    ),
                )
                .note(format!(
                    "every active slot is claimed by earlier event(s) {}",
                    earlier.join(", ")
                ))
                .help("reorder the events or disjoin their windows"),
            );
        }
    }

    // ── ML33: expectations that can never be checked ───────────────
    let expect = &scenario.expect;
    if expect.sim_disturbed.is_some() {
        if let Err(why) = scenario.sim_applicable() {
            diags.push(
                Diagnostic::new(
                    catalog::ML33,
                    target,
                    "expect.sim_disturbed is declared but the simulator phase is \
                     skipped for this scenario — the expectation is never checked",
                )
                .note(why),
            );
        }
    }
    if expect.recovery_outcome.is_some() {
        if let Err(why) = scenario.sim_applicable() {
            diags.push(
                Diagnostic::new(
                    catalog::ML33,
                    target,
                    "expect.recovery_outcome is declared but the simulator phase is \
                     skipped for this scenario — the expectation is never checked",
                )
                .note(why),
            );
        }
    }
    if expect.oracle_conforms.is_some() {
        if let Err(why) = scenario.oracle_applicable() {
            diags.push(
                Diagnostic::new(
                    catalog::ML33,
                    target,
                    "expect.oracle is declared but the trace-replay oracle is \
                     skipped for this scenario — the expectation is never checked",
                )
                .note(why),
            );
        }
    }
    if expect.verdict == Some(tta_conformance::ExpectedVerdict::Holds) {
        if expect.trace_len.is_some() {
            diags.push(Diagnostic::new(
                catalog::ML33,
                target,
                "expect.trace_len is declared but expect.verdict is `holds` — a \
                 holding property has no counterexample to measure",
            ));
        }
        if expect.golden.is_some() {
            diags.push(Diagnostic::new(
                catalog::ML33,
                target,
                "expect.golden is declared but expect.verdict is `holds` — a \
                 holding property renders no counterexample to pin",
            ));
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn scenario(faults: &str, extra: &str) -> Scenario {
        let text = format!(
            "[cluster]\nnodes = 4\nauthority = \"passive\"\n[sim]\nslots = 100\n{faults}{extra}"
        );
        Scenario::parse(&text, Path::new(".")).unwrap()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.id).collect()
    }

    #[test]
    fn window_beyond_horizon_is_flagged() {
        let s = scenario(
            "[[fault.coupler]]\nchannel = 0\nmode = \"silence\"\nfrom_slot = 150\nto_slot = 160\n",
            "",
        );
        let diags = lint_plan("t", &s);
        assert!(codes(&diags).contains(&"ML30"), "{diags:?}");
        // A never-active event must not also be reported as shadowed.
        assert!(!codes(&diags).contains(&"ML31"), "{diags:?}");
    }

    #[test]
    fn partially_clipped_window_is_a_note() {
        let s = scenario(
            "[[fault.coupler]]\nchannel = 0\nmode = \"silence\"\nfrom_slot = 50\nto_slot = 160\n",
            "",
        );
        let diags = lint_plan("t", &s);
        let ml30 = diags.iter().find(|d| d.code.id == "ML30").unwrap();
        assert_eq!(ml30.severity, Severity::Note);
    }

    #[test]
    fn fully_covered_event_is_shadowed() {
        let s = scenario(
            "[[fault.coupler]]\nchannel = 0\nmode = \"silence\"\nfrom_slot = 10\nto_slot = 90\n\
             [[fault.coupler]]\nchannel = 0\nmode = \"bad_frame\"\nfrom_slot = 20\nto_slot = 40\n",
            "",
        );
        let diags = lint_plan("t", &s);
        assert!(codes(&diags).contains(&"ML31"), "{diags:?}");
    }

    #[test]
    fn intermittent_gaps_unshadow_a_covered_event() {
        // The earlier event is intermittent with gaps; the later
        // transient event wins dispatch in the off-slots, so it is NOT
        // shadowed even though the windows nest.
        let s = scenario(
            "[[fault.coupler]]\nchannel = 0\nmode = \"silence\"\nfrom_slot = 10\nto_slot = 90\n\
             persistence = \"intermittent\"\nperiod = 10\nduty = 5\n\
             [[fault.coupler]]\nchannel = 0\nmode = \"bad_frame\"\nfrom_slot = 20\nto_slot = 40\n",
            "",
        );
        let diags = lint_plan("t", &s);
        assert!(!codes(&diags).contains(&"ML31"), "{diags:?}");
    }

    #[test]
    fn other_channel_does_not_shadow() {
        let s = scenario(
            "[[fault.coupler]]\nchannel = 0\nmode = \"silence\"\nfrom_slot = 10\nto_slot = 90\n\
             [[fault.coupler]]\nchannel = 1\nmode = \"silence\"\nfrom_slot = 20\nto_slot = 40\n",
            "",
        );
        // (Dual-channel overlap defeats the oracle, but dispatch is
        // per-channel: no shadowing here.)
        let diags = lint_plan("t", &s);
        assert!(!codes(&diags).contains(&"ML31"), "{diags:?}");
    }

    #[test]
    fn degenerate_intermittent_parameters_are_noted() {
        let s = scenario(
            "[[fault.coupler]]\nchannel = 0\nmode = \"silence\"\nfrom_slot = 10\nto_slot = 20\n\
             persistence = \"intermittent\"\nperiod = 50\nduty = 3\n",
            "",
        );
        let diags = lint_plan("t", &s);
        let ml32 = diags.iter().find(|d| d.code.id == "ML32").unwrap();
        assert!(ml32.message.contains("never recurs"), "{}", ml32.message);

        let s = scenario(
            "[[fault.coupler]]\nchannel = 0\nmode = \"silence\"\nfrom_slot = 10\nto_slot = 20\n\
             persistence = \"intermittent\"\nperiod = 4\nduty = 4\n",
            "",
        );
        let diags = lint_plan("t", &s);
        let ml32 = diags.iter().find(|d| d.code.id == "ML32").unwrap();
        assert!(ml32.message.contains("transient"), "{}", ml32.message);
    }

    #[test]
    fn unheckable_expectations_are_flagged() {
        // An out_of_slot plan on a passive coupler skips the simulator
        // phase; expecting sim_disturbed can then never be checked.
        let s = scenario(
            "[[fault.coupler]]\nchannel = 0\nmode = \"out_of_slot\"\nfrom_slot = 10\nto_slot = 20\n",
            "[expect]\nsim_disturbed = true\n",
        );
        let diags = lint_plan("t", &s);
        assert!(codes(&diags).contains(&"ML33"), "{diags:?}");

        let s = scenario("", "[expect]\nverdict = \"holds\"\ntrace_len = 5\n");
        let diags = lint_plan("t", &s);
        assert!(codes(&diags).contains(&"ML33"), "{diags:?}");
    }

    #[test]
    fn node_fault_windows_get_the_same_lints() {
        // Beyond-horizon node fault → ML30.
        let s = scenario(
            "[[fault.node]]\nnode = 1\nkind = \"mute\"\nfrom_slot = 150\nto_slot = 160\n",
            "",
        );
        let diags = lint_plan("t", &s);
        assert!(codes(&diags).contains(&"ML30"), "{diags:?}");

        // A node fault fully covered by an earlier one on the same node
        // is shadowed (ML31); the same window on another node is not.
        let s = scenario(
            "[[fault.node]]\nnode = 1\nkind = \"mute\"\nfrom_slot = 10\nto_slot = 90\n\
             [[fault.node]]\nnode = 1\nkind = \"babbling\"\nfrom_slot = 20\nto_slot = 40\n",
            "",
        );
        let diags = lint_plan("t", &s);
        let ml31 = diags.iter().find(|d| d.code.id == "ML31").unwrap();
        assert!(ml31.message.contains("node 1"), "{}", ml31.message);

        let s = scenario(
            "[[fault.node]]\nnode = 1\nkind = \"mute\"\nfrom_slot = 10\nto_slot = 90\n\
             [[fault.node]]\nnode = 2\nkind = \"babbling\"\nfrom_slot = 20\nto_slot = 40\n",
            "",
        );
        assert!(!codes(&lint_plan("t", &s)).contains(&"ML31"));

        // A coupler fault never shadows a node fault.
        let s = scenario(
            "[[fault.coupler]]\nchannel = 0\nmode = \"silence\"\nfrom_slot = 10\nto_slot = 90\n\
             [[fault.node]]\nnode = 0\nkind = \"mute\"\nfrom_slot = 20\nto_slot = 40\n",
            "",
        );
        assert!(!codes(&lint_plan("t", &s)).contains(&"ML31"));
    }

    #[test]
    fn recovery_outcome_on_a_skipped_sim_phase_is_flagged() {
        let s = scenario(
            "[[fault.coupler]]\nchannel = 0\nmode = \"out_of_slot\"\nfrom_slot = 10\nto_slot = 20\n",
            "[expect]\nrecovery_outcome = \"contained\"\n",
        );
        let diags = lint_plan("t", &s);
        assert!(codes(&diags).contains(&"ML33"), "{diags:?}");
    }

    #[test]
    fn clean_plan_produces_no_diagnostics() {
        let s = scenario(
            "[[fault.coupler]]\nchannel = 0\nmode = \"silence\"\nfrom_slot = 10\nto_slot = 50\n",
            "[expect]\nverdict = \"holds\"\nsim_disturbed = false\n",
        );
        assert!(lint_plan("t", &s).is_empty());
    }
}
