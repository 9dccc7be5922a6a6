//! `tta-detlint`: the determinism audit layer for this workspace's own
//! Rust sources.
//!
//! The exploration/campaign stack promises that its output streams are
//! bit-identical for a given seed at any worker count, interrupted or
//! not. `tta-modellint` audits the *scenarios* fed into that stack;
//! this crate audits the *code* — a token-level static analysis (no
//! rustc plumbing; its only dependency is the dependency-free
//! `tta-base`, whose diagnostics core it shares with `tta-modellint`) that walks
//! every first-party `.rs` file and reports the constructs that
//! historically break that promise:
//!
//! - **Nondeterminism sources** (`DL01`–`DL04`): hash-order iteration
//!   with no deterministic sink, wall-clock reads outside supervision
//!   paths, thread-environment reads, order-sensitive float
//!   accumulation.
//! - **Concurrency hygiene** (`DL10`–`DL12`): `unsafe` without a
//!   `SAFETY:` comment, `Atomic*` declarations without an ordering
//!   rationale, blocking `recv()` without a timeout.
//! - **Audit bookkeeping** (`DL2x`/`DL30`): malformed or stale
//!   `// detlint: allow(DLxx) reason=…` annotations, and drift against
//!   the checked-in allow baseline.
//!
//! Every suppression is an annotation with a reason, inventoried in a
//! baseline file, so "the workspace lints clean" always means "every
//! exception has been argued for in writing". See DESIGN.md's
//! "Determinism audit" section for the full code table and workflow.

pub mod annot;
pub mod catalog;
pub mod engine;
pub mod lex;
pub mod rules;

pub use annot::{render_baseline, AllowSite};
pub use catalog::{find as find_code, LintCode, CATALOG};
pub use engine::{check_baseline, discover, run, Audit};
pub use tta_base::diag::{Diagnostic, Gate, LintReport, Severity};
