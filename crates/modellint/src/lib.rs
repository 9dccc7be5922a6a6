//! # tta-modellint
//!
//! Static analysis for the model stack: a diagnostics engine with
//! stable lint codes over three analysis families.
//!
//! The repo's verification results rest on properties *holding* — but a
//! property that holds can hold **vacuously** (its antecedent never
//! enabled), and a fault plan can silently never fire. That is exactly
//! the failure mode Konnov et al. warn about for model-checked
//! fault-tolerant distributed algorithms: the check passes, and checks
//! nothing. This crate makes triviality a checked artifact:
//!
//! 1. **Property analysis** (`ML0x`) — vacuity detection by
//!    antecedent-enabledness search over the reachable space (built
//!    once through [`tta_liveness::FairGraph`] with the checker's
//!    interning codec), unsatisfiable/tautological predicate
//!    detection, and fairness constraints whose action set labels zero
//!    edges ([`tta_liveness::FairGraph::action_usage`]).
//! 2. **Model coverage** (`ML1x`) — dead-transition and
//!    never-fired-guard reporting for the cluster model's
//!    `for_each_step` branches over the explored space, per authority
//!    level, so a restrained-authority "Holds" comes with evidence the
//!    interesting transitions were exercised.
//! 3. **Scenario & fault-plan lints** (`ML2x`/`ML3x`) — duplicate
//!    keys/tables, windows beyond the horizon, events shadowed by the
//!    simulator's first-match-wins dispatch, degenerate intermittent
//!    parameters, and expectations the declared authority can never
//!    let the runner check.
//!
//! Diagnostics render rustc-style or as line-oriented JSON, carry
//! stable codes (`ML01-vacuous-property`), and honor `--deny`/`--allow`
//! gates; the `tta_lint` binary in `tta-bench` exits nonzero when any
//! denied diagnostic remains. Output is deterministic across worker
//! thread counts by construction: targets are analyzed independently
//! and reported in target order.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod catalog;
mod engine;
mod model_analysis;
mod plan_lints;
pub mod predicates;

pub use catalog::LintCode;
pub use engine::{
    config_coverage, has_errors, lint, lint_scenario, lint_scenario_file, LintOptions, LintRun,
};
pub use model_analysis::{analyze_config, AnalysisOptions, TargetEvidence};
pub use plan_lints::lint_plan;
pub use tta_base::diag::{Diagnostic, Gate, LintReport, Severity};
