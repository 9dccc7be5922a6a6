//! The scenario runner: executes one scenario through both engines —
//! the bounded model checker and the slot-level simulator — and diffs
//! every outcome against the scenario's expectations.
//!
//! Checks performed, in order:
//!
//! 1. **Checker phase**: `verify_cluster` on the scenario's checker
//!    configuration; verdict and counterexample length against
//!    `[expect]`; the counterexample's own steps re-admitted through the
//!    model (the checker must not narrate an impossible trace); the
//!    rendered report against the golden fixture, if one is named; when
//!    the scenario sets `expect.liveness`, the weak-fairness liveness
//!    checker (`listening ~> integrated` per node) runs too and its
//!    verdict is diffed; `expect.recovery` does the same for the
//!    recovery checker (`frozen ~> integrated` under restart fairness).
//! 2. **Simulator phase** (skipped with a visible reason when the fault
//!    plan is not physically executable, e.g. an `out_of_slot` replay on
//!    a passive star): the traced run's disturbance outcome against
//!    `[expect]`.
//! 3. **Oracle phase** (skipped when the run is outside the model's
//!    vocabulary): every observed simulator step re-admitted through the
//!    model's transition relation via [`crate::check_trace`].
//! 4. An **agreement line** relating what the two engines concluded.
//!
//! The [`ScenarioOutcome`] also carries what the engines measured, pinned
//! or not: the fuzzer's emitter writes a find's `[expect]` block from it.

use crate::lift::lift_trace;
use crate::oracle::check_trace;
use crate::scenario::{ExpectedVerdict, Scenario, ScenarioError};
use crate::snapshot::{compare_golden, render_verification, verdict_name};
use std::fmt::Write as _;
use std::path::Path;
use tta_core::{
    verify_cluster, verify_cluster_liveness, verify_cluster_recovery, ClusterModel, LivenessReport,
    Verdict,
};
use tta_sim::RecoveryOutcome;

/// The outcome of running one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Whether every check passed.
    pub passed: bool,
    /// The full human-readable report, one line per check.
    pub report: String,
    /// The bounded checker's verdict.
    pub verdict: Verdict,
    /// The simulator phase's classification; `None` when it was skipped.
    pub sim: Option<SimOutcome>,
}

/// The simulator phase's classification of its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOutcome {
    /// A healthy node froze or the cluster never started.
    pub disturbed: bool,
    /// [`RecoveryOutcome::classify`] of the run.
    pub recovery: RecoveryOutcome,
}

/// Loads and runs the scenario at `path`.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the file cannot be read or parsed;
/// check *failures* are reported in the returned outcome, not as errors.
pub fn run_scenario_file(path: &Path) -> Result<ScenarioOutcome, ScenarioError> {
    Ok(run_scenario(&Scenario::load(path)?))
}

/// Runs an already-parsed scenario through both engines.
#[must_use]
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    let mut r = Report::new();
    let _ = writeln!(
        r.text,
        "scenario: {}{}",
        scenario.name,
        if scenario.description.is_empty() {
            String::new()
        } else {
            format!(" — {}", scenario.description)
        }
    );

    // Phase 1: the bounded checker.
    let config = scenario.checker_config();
    let verification = verify_cluster(&config);
    let _ = writeln!(r.text, "[checker] config: {config}");
    match scenario.expect.verdict {
        Some(expected) => r.check(
            verdict_matches(verification.verdict, expected),
            format!(
                "[checker] verdict: {} (expected {expected})",
                verdict_name(verification.verdict)
            ),
        ),
        None => {
            let _ = writeln!(
                r.text,
                "[checker] verdict: {} (no expectation)",
                verdict_name(verification.verdict)
            );
        }
    }
    let trace_len = verification.counterexample_len();
    if let Some(expected) = scenario.expect.trace_len {
        r.check(
            trace_len == Some(expected),
            format!(
                "[checker] counterexample length: {} (expected {expected} transitions)",
                trace_len.map_or_else(|| "none".to_string(), |n| n.to_string())
            ),
        );
    }
    if let Some(trace) = &verification.counterexample {
        let model = ClusterModel::new(config);
        match check_trace(&model, trace.states()) {
            Ok(conf) => r.check(
                true,
                format!(
                    "[checker] counterexample self-admission: {} steps re-admitted",
                    conf.steps_checked
                ),
            ),
            Err(div) => r.check(
                false,
                format!("[checker] counterexample self-admission\n{}", div.render()),
            ),
        }
    }
    if let Some(golden) = &scenario.expect.golden {
        let path = scenario.base_dir.join(golden);
        match compare_golden(&path, &render_verification(&verification)) {
            Ok(()) => r.check(true, format!("[checker] golden fixture {}", path.display())),
            Err(why) => r.check(false, format!("[checker] golden fixture: {why}")),
        }
    }

    // Phases 1b and 1c: the liveness checker (`listening ~> integrated`
    // per node) and the recovery checker (`frozen ~> integrated` under
    // restart fairness), each only when the scenario expects its
    // verdict: unlike safety they build the full reachable graph.
    if let Some(expected) = scenario.expect.liveness {
        let words = ["liveness", "listening ~> integrated", "starved"];
        r.fair_check(words, &verify_cluster_liveness(&config), expected);
    }
    if let Some(expected) = scenario.expect.recovery {
        let words = [
            "recovery",
            "frozen ~> integrated under restart fairness",
            "never reintegrates",
        ];
        r.fair_check(words, &verify_cluster_recovery(&config), expected);
    }

    // Phase 2: the simulator, when the plan is physically executable.
    let sim_run = match scenario.sim_applicable() {
        Err(why) => {
            let _ = writeln!(r.text, "[sim] SKIPPED: {why}");
            if scenario.expect.sim_disturbed.is_some() || scenario.expect.recovery_outcome.is_some()
            {
                r.check(
                    false,
                    "[sim] expectation on a skipped phase cannot hold".to_string(),
                );
            }
            None
        }
        Ok(()) => {
            let (report, snapshots) = scenario.sim_builder().build().run_traced();
            let sim = SimOutcome {
                disturbed: !report.healthy_frozen().is_empty() || !report.cluster_started(),
                recovery: RecoveryOutcome::classify(&report),
            };
            let mut frozen: Vec<_> = report.healthy_frozen().to_vec();
            frozen.sort_unstable();
            frozen.dedup();
            let _ = writeln!(
                r.text,
                "[sim] {} slots, started: {}, healthy nodes ever frozen: {}",
                report.slots_run(),
                report
                    .startup_slot()
                    .map_or_else(|| "never".to_string(), |s| format!("slot {s}")),
                if frozen.is_empty() {
                    "none".to_string()
                } else {
                    frozen
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(" ")
                }
            );
            if let Some(expected) = scenario.expect.sim_disturbed {
                r.check(
                    sim.disturbed == expected,
                    format!("[sim] disturbed: {} (expected {expected})", sim.disturbed),
                );
            }
            if let Some(expected) = scenario.expect.recovery_outcome {
                r.check(
                    sim.recovery == expected,
                    format!(
                        "[sim] recovery outcome: {} (expected {expected})",
                        sim.recovery
                    ),
                );
            }
            Some((sim, snapshots))
        }
    };

    // Phase 3: the trace-replay oracle.
    if let Some((_, snapshots)) = &sim_run {
        match scenario.oracle_applicable() {
            Err(why) => {
                let _ = writeln!(r.text, "[oracle] SKIPPED: {why}");
            }
            Ok(()) => {
                let states = lift_trace(snapshots);
                let expect_conforms = scenario.expect.oracle_conforms.unwrap_or(true);
                match check_trace(&scenario.oracle_model(), &states) {
                    Ok(conf) => r.check(
                        expect_conforms,
                        format!(
                            "[oracle] {} observed steps admitted by the model{}",
                            conf.steps_checked,
                            if expect_conforms {
                                ""
                            } else {
                                " — but the scenario expects a divergence; \
                                 the pinned abstraction gap has closed, update the scenario"
                            }
                        ),
                    ),
                    Err(div) => r.check(
                        !expect_conforms,
                        format!(
                            "[oracle] step admission{}\n{}",
                            if expect_conforms {
                                ""
                            } else {
                                " diverged as expected (pinned abstraction gap)"
                            },
                            div.render()
                        ),
                    ),
                }
            }
        }
    }

    // Phase 4: cross-engine agreement.
    let sim = sim_run.map(|(sim, _)| sim);
    if let Some(SimOutcome { disturbed, .. }) = sim {
        let checker_violated = verification.verdict == Verdict::Violated;
        let agree = checker_violated == disturbed;
        let _ = writeln!(
            r.text,
            "agreement: checker {} / simulator {} — {}",
            verdict_name(verification.verdict),
            if disturbed {
                "disturbed"
            } else {
                "undisturbed"
            },
            if agree {
                "engines agree"
            } else {
                "engines DISAGREE (fine iff the scenario expects it: the checker \
                 quantifies over all runs, the simulator executes one)"
            }
        );
    }

    let _ = writeln!(r.text, "{}", if r.passed { "PASS" } else { "FAIL" });
    ScenarioOutcome {
        passed: r.passed,
        report: r.text,
        verdict: verification.verdict,
        sim,
    }
}

fn verdict_matches(actual: Verdict, expected: ExpectedVerdict) -> bool {
    match expected {
        ExpectedVerdict::Holds => actual == Verdict::Holds,
        ExpectedVerdict::Violated => actual == Verdict::Violated,
    }
}

struct Report {
    text: String,
    passed: bool,
}

impl Report {
    fn new() -> Self {
        Report {
            text: String::new(),
            passed: true,
        }
    }

    fn check(&mut self, ok: bool, line: String) {
        let _ = writeln!(self.text, "{line} ... {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            self.passed = false;
        }
    }

    /// Checks a fair-graph verdict against its expectation and narrates
    /// the lasso of a violation: `[tag] property` names the check, `fate`
    /// what befalls the violating node.
    fn fair_check(
        &mut self,
        [tag, property, fate]: [&str; 3],
        report: &LivenessReport,
        expected: ExpectedVerdict,
    ) {
        self.check(
            verdict_matches(report.verdict, expected),
            format!(
                "[{tag}] {property}: {} (expected {expected})",
                verdict_name(report.verdict)
            ),
        );
        if let Some(lasso) = &report.lasso {
            let _ = writeln!(
                self.text,
                "[{tag}] fair lasso: node {} {fate}, stem {} + cycle {} slots{}",
                report
                    .violating_node
                    .map_or_else(|| "?".to_string(), |n| n.to_string()),
                lasso.stem_len(),
                lasso.cycle_len(),
                if lasso.is_stutter() { " (stutter)" } else { "" }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_SHIFTING_NOISE: &str = r#"
[scenario]
name = "small-shifting-noise"

[cluster]
nodes = 3
topology = "star"
authority = "small_shifting"

[sim]
slots = 120

[[fault.coupler]]
channel = 0
mode = "bad_frame"
from_slot = 20
to_slot = 60

[expect]
verdict = "holds"
sim_disturbed = false
"#;

    #[test]
    fn a_benign_scenario_passes_all_phases() {
        let scenario = Scenario::parse(SMALL_SHIFTING_NOISE, Path::new(".")).unwrap();
        let outcome = run_scenario(&scenario);
        assert!(outcome.passed, "{}", outcome.report);
        assert!(
            outcome.report.contains("engines agree"),
            "{}",
            outcome.report
        );
        assert!(
            outcome.report.contains("observed steps admitted"),
            "{}",
            outcome.report
        );
    }

    #[test]
    fn recovery_outcome_expectation_is_diffed() {
        let text = format!("{SMALL_SHIFTING_NOISE}recovery_outcome = \"contained\"\n");
        let scenario = Scenario::parse(&text, Path::new(".")).unwrap();
        let outcome = run_scenario(&scenario);
        assert!(outcome.passed, "{}", outcome.report);
        assert!(
            outcome.report.contains("recovery outcome: contained"),
            "{}",
            outcome.report
        );

        let wrong = text.replace(
            "recovery_outcome = \"contained\"",
            "recovery_outcome = \"permanent-loss\"",
        );
        let scenario = Scenario::parse(&wrong, Path::new(".")).unwrap();
        let outcome = run_scenario(&scenario);
        assert!(!outcome.passed, "{}", outcome.report);
    }

    #[test]
    fn outcome_carries_the_verdict_and_the_sim_classification() {
        // An undisturbed holds, a disturbed holds (the pinned passive
        // cliff: a time-domain SOS sender), a violated run, and a plan
        // the simulator cannot execute.
        let cliff = "[scenario]\nname = \"cliff\"\n[cluster]\nnodes = 4\n\
             authority = \"passive\"\n[sim]\nslots = 400\n[[fault.node]]\nnode = 2\n\
             kind = \"sos\"\ndomain = \"time\"\nmagnitude = 0.5\nfrom_slot = 50\n\
             to_slot = 51\n";
        let coldstart = "[scenario]\nname = \"coldstart\"\n[cluster]\nnodes = 4\n\
             authority = \"full_shifting\"\n[model]\nout_of_slot_budget = 1\n\
             [sim]\nslots = 400\n[[fault.coupler]]\nchannel = 0\nmode = \"out_of_slot\"\n\
             from_slot = 12\nto_slot = 340\n";
        let unsimulable = coldstart.replace("full_shifting", "passive");
        let mut disturbed_runs = 0;
        for text in [SMALL_SHIFTING_NOISE, cliff, coldstart, &unsimulable] {
            let scenario = Scenario::parse(text, Path::new(".")).unwrap();
            let outcome = run_scenario(&scenario);
            assert_eq!(
                outcome.verdict,
                verify_cluster(&scenario.checker_config()).verdict,
                "{}",
                outcome.report
            );
            let expected = scenario.sim_applicable().is_ok().then(|| {
                let report = scenario.sim_builder().build().run();
                SimOutcome {
                    disturbed: !report.healthy_frozen().is_empty() || !report.cluster_started(),
                    recovery: RecoveryOutcome::classify(&report),
                }
            });
            assert_eq!(outcome.sim, expected, "{}", outcome.report);
            disturbed_runs += usize::from(expected.is_some_and(|sim| sim.disturbed));
        }
        assert_eq!(disturbed_runs, 2, "the cliff and the replay disturb");
    }

    #[test]
    fn wrong_expectations_fail_with_reasons() {
        let text = SMALL_SHIFTING_NOISE
            .replace("verdict = \"holds\"", "verdict = \"violated\"")
            .replace("sim_disturbed = false", "sim_disturbed = true");
        let scenario = Scenario::parse(&text, Path::new(".")).unwrap();
        let outcome = run_scenario(&scenario);
        assert!(!outcome.passed);
        assert!(outcome.report.contains("FAILED"), "{}", outcome.report);
        assert!(
            outcome.report.trim_end().ends_with("FAIL"),
            "{}",
            outcome.report
        );
    }
}
