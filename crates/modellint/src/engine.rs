//! The lint engine: expands targets, runs the analysis families, and
//! assembles a deterministic [`LintReport`].
//!
//! Targets run in parallel (one target per chunk of
//! [`tta_base::map_chunks`]), but every diagnostic is produced
//! single-threadedly *within* its target and the final report
//! concatenates per-target results in target order — so the output is byte-identical for every `--threads`
//! value. A proptest in `tests/` pins that claim.

use crate::catalog;
use crate::model_analysis::{analyze_config, AnalysisOptions, TargetEvidence};
use crate::plan_lints::lint_plan;
use std::path::{Path, PathBuf};
use tta_base::diag::{Diagnostic, Gate, LintReport, Severity, Tool};
use tta_base::{default_threads, map_chunks};
use tta_conformance::toml::{Document, ParseErrorKind};
use tta_conformance::{Expectations, ExpectedVerdict, Scenario};
use tta_core::ClusterConfig;
use tta_guardian::CouplerAuthority;

/// Options for a full lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Reachable-space analysis tunables.
    pub analysis: AnalysisOptions,
    /// Worker threads (0 = the host's available parallelism).
    pub threads: usize,
    /// Also lint the built-in S4 property set: the per-node
    /// integration-liveness and recovery properties across all four
    /// authority levels of the paper's 4-node cluster.
    pub include_s4: bool,
}

/// The outcome of a lint run: diagnostics plus per-target evidence.
#[derive(Debug, Clone, Default)]
pub struct LintRun {
    /// All diagnostics, in target order.
    pub report: LintReport,
    /// Reachable-space evidence per analyzed target, in target order.
    pub evidence: Vec<TargetEvidence>,
}

/// How `tta_lint` reports render: `lint summary: …`, targets under
/// the JSON key `"target"`.
const TOOL: Tool = Tool {
    label: "lint",
    target_key: "target",
};

impl LintRun {
    /// Renders every diagnostic rustc-style plus a one-line summary.
    #[must_use]
    pub fn render(&self, gate: &Gate) -> String {
        self.report.render(gate, &TOOL, None)
    }

    /// Renders the report as line-oriented JSON.
    #[must_use]
    pub fn render_json(&self, gate: &Gate) -> String {
        self.report.render_json(gate, &TOOL, None)
    }
}

/// What linting one target yields: its diagnostics plus, when the
/// reachable-space analysis ran, the evidence it gathered.
type TargetOutcome = (Vec<Diagnostic>, Option<TargetEvidence>);

enum Target {
    Scenario(PathBuf),
    S4(CouplerAuthority),
}

impl Target {
    fn name(&self) -> String {
        match self {
            Target::Scenario(path) => path.display().to_string(),
            Target::S4(authority) => format!("builtin:s4/{authority}"),
        }
    }
}

/// Expands `paths` (files or directories; directories contribute their
/// `*.toml` entries sorted by name) and runs every lint family over
/// each target, plus the built-in S4 set when requested.
#[must_use]
pub fn lint(paths: &[PathBuf], opts: &LintOptions) -> LintRun {
    let mut targets: Vec<Target> = Vec::new();
    let mut diags_front: Vec<Diagnostic> = Vec::new();
    for path in paths {
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = match std::fs::read_dir(path) {
                Ok(dir) => dir
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "toml"))
                    .collect(),
                Err(e) => {
                    diags_front.push(Diagnostic::new(
                        catalog::ML21,
                        path.display().to_string(),
                        format!("cannot read directory: {e}"),
                    ));
                    continue;
                }
            };
            entries.sort();
            targets.extend(entries.into_iter().map(Target::Scenario));
        } else if path.is_file() {
            targets.push(Target::Scenario(path.clone()));
        } else {
            diags_front.push(Diagnostic::new(
                catalog::ML21,
                path.display().to_string(),
                "no such file or directory",
            ));
        }
    }
    if opts.include_s4 {
        targets.extend(CouplerAuthority::all().into_iter().map(Target::S4));
    }

    let results = run_targets(&targets, opts);

    let mut run = LintRun::default();
    run.report.diagnostics = diags_front;
    for (diags, evidence) in results {
        run.report.diagnostics.extend(diags);
        if let Some(evidence) = evidence {
            run.evidence.push(evidence);
        }
    }
    run
}

/// Runs the targets on the ordered pool and returns per-target results
/// **in target order** regardless of completion order.
fn run_targets(targets: &[Target], opts: &LintOptions) -> Vec<TargetOutcome> {
    let threads = match opts.threads {
        0 => default_threads(),
        n => n,
    };
    map_chunks(targets, 1, threads, &|_, chunk: &[Target]| {
        run_target(&chunk[0], opts)
    })
}

fn run_target(target: &Target, opts: &LintOptions) -> TargetOutcome {
    match target {
        Target::Scenario(path) => lint_scenario_file(path, &opts.analysis),
        Target::S4(authority) => {
            let name = target.name();
            let config = ClusterConfig::paper(*authority);
            let expect = Expectations {
                liveness: Some(ExpectedVerdict::Holds),
                recovery: Some(ExpectedVerdict::Holds),
                ..Expectations::default()
            };
            let (diags, evidence) =
                analyze_config(&name, &config, &[], Some(&expect), &opts.analysis);
            (diags, Some(evidence))
        }
    }
}

/// Lints one scenario file: syntax (ML20/ML21), plan lints, and the
/// reachable-space analyses over the scenario's checker configuration.
#[must_use]
pub fn lint_scenario_file(path: &Path, analysis: &AnalysisOptions) -> TargetOutcome {
    let target = path.display().to_string();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            return (
                vec![Diagnostic::new(
                    catalog::ML21,
                    target,
                    format!("cannot read: {e}"),
                )],
                None,
            )
        }
    };
    // The raw TOML layer first, so duplication gets its dedicated code.
    if let Err(e) = Document::parse(&text) {
        let code = match e.kind {
            ParseErrorKind::DuplicateKey | ParseErrorKind::DuplicateTable => catalog::ML20,
            ParseErrorKind::Syntax => catalog::ML21,
        };
        let mut diag = Diagnostic::new(code, target, e.message.clone());
        if e.line > 0 {
            diag = diag.line(e.line);
        }
        return (vec![diag], None);
    }
    let scenario = match Scenario::load(path) {
        Ok(s) => s,
        Err(e) => {
            return (
                vec![Diagnostic::new(catalog::ML21, target, e.to_string())],
                None,
            );
        }
    };

    let (diags, evidence) = lint_scenario(&target, &scenario, analysis);
    (diags, Some(evidence))
}

/// Lints an already-parsed scenario in memory: plan lints plus the
/// reachable-space analyses over its checker configuration. The
/// path-free analog of [`lint_scenario_file`], for callers (the
/// fuzzer's emission self-check among them) that synthesize scenarios
/// without writing them to disk first.
#[must_use]
pub fn lint_scenario(
    target: &str,
    scenario: &Scenario,
    analysis: &AnalysisOptions,
) -> (Vec<Diagnostic>, TargetEvidence) {
    let mut diags = lint_plan(target, scenario);
    // A declared-twice section never reaches here (hard parse error),
    // so every surviving scenario has one checker configuration.
    let (model_diags, evidence) = analyze_config(
        target,
        &scenario.checker_config(),
        &scenario.properties,
        Some(&scenario.expect),
        analysis,
    );
    diags.extend(model_diags);
    (diags, evidence)
}

/// Evidence-only probe of one checker configuration: builds the
/// reachable space and returns witness counts, BFS depths, and
/// per-mode fault-step tallies with no expectation- or
/// property-derived diagnostics. The fuzzer uses this as its
/// per-authority coverage baseline.
#[must_use]
pub fn config_coverage(
    target: &str,
    config: &ClusterConfig,
    analysis: &AnalysisOptions,
) -> TargetEvidence {
    analyze_config(target, config, &[], None, analysis).1
}

/// `true` when the report holds any error-severity diagnostic.
#[must_use]
pub fn has_errors(report: &LintReport) -> bool {
    report
        .diagnostics
        .iter()
        .any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_path_is_an_error_diagnostic() {
        let run = lint(
            &[PathBuf::from("/nonexistent/zebra.toml")],
            &LintOptions::default(),
        );
        assert_eq!(run.report.diagnostics.len(), 1);
        assert_eq!(run.report.diagnostics[0].code.id, "ML21");
        assert!(has_errors(&run.report));
    }

    #[test]
    fn config_coverage_probes_without_diagnostics() {
        let evidence = config_coverage(
            "probe:passive",
            &ClusterConfig::paper(CouplerAuthority::Passive),
            &AnalysisOptions::default(),
        );
        assert_eq!(evidence.target, "probe:passive");
        assert!(evidence.states > 0);
        assert!(!evidence.truncated);
        // The passive space still exercises fault-free steps, and any
        // built-in antecedent that was tallied carries a witness depth
        // exactly when its count is non-zero.
        assert!(evidence.fault_steps[0] > 0);
        for (_, count, depth) in &evidence.antecedents {
            assert_eq!(depth.is_some(), *count > 0);
        }
    }
}
