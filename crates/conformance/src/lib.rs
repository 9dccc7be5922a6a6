//! Conformance tooling between the two engines in this workspace.
//!
//! The simulator (`tta-sim`) and the model checker (`tta-core`) describe
//! the same TTP/C cluster at different granularities, and the paper's
//! claims rest on them agreeing. This crate makes that agreement a
//! checked artifact instead of a hope, three ways:
//!
//! * a **trace-replay oracle** ([`lift_trace`] + [`check_trace`]) that
//!   lifts a simulator run into the model's state vocabulary and asserts
//!   every observed step is admitted by the model's transition relation,
//!   with a minimized [`Divergence`] report on mismatch;
//! * a **TOML scenario DSL** ([`Scenario`]) describing a topology,
//!   guardian authority, fault plan and expected verdicts, plus a runner
//!   ([`run_scenario`]) executing the scenario through *both* engines
//!   and diffing every outcome;
//! * **golden-trace snapshots** ([`render_verification`] +
//!   [`compare_golden`]) pinning the paper's counterexamples as text
//!   fixtures so a model change that perturbs them is caught as drift.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod lift;
mod oracle;
mod runner;
mod scenario;
mod snapshot;
pub mod toml;

pub use lift::{lift_snapshot, lift_trace};
pub use oracle::{check_trace, Conformance, Divergence, NearMiss};
pub use runner::{run_scenario, run_scenario_file, ScenarioOutcome, SimOutcome};
pub use scenario::{
    Expectations, ExpectedVerdict, PropertyKind, PropertySpec, Scenario, ScenarioError,
};
pub use snapshot::{compare_golden, diff_lines, render_verification, verdict_name};
