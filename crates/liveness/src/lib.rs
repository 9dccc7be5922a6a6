//! # tta-liveness
//!
//! A fair-cycle liveness engine over any [`tta_modelcheck::TransitionSystem`].
//!
//! The paper's headline failure is a *liveness* failure wearing a safety
//! coat: a replayed cold-start frame freezes a healthy node out of
//! integration **forever**. The BFS checker can exhibit the freeze (a
//! safety violation of the monitor), but it cannot state — let alone
//! prove — "every correct node eventually integrates", nor present the
//! infinite freeze-out as what it is: an execution with a finite stem
//! and a repeating cycle. This crate adds exactly that:
//!
//! * [`Property`] — a small temporal AST: `Always`, `Eventually`,
//!   `LeadsTo(p, q)`, `AlwaysEventually`, over named [`StatePredicate`]s;
//! * [`FairAction`] — weak-fairness constraints over named transition
//!   judgments (a node that *can* act infinitely often *must*);
//! * [`FairGraph`] — the reachable graph built once on the safety
//!   checker's layer step ([`tta_modelcheck::Explorer::walk`]) and its
//!   [`tta_modelcheck::StateCodec`]/[`tta_modelcheck::StateArena`]
//!   interning, with per-edge action labels and a CSR adjacency, and a
//!   Graphviz DOT renderer ([`FairGraph::to_dot`]);
//! * an iterative (non-recursive, stack-safe) Tarjan SCC decomposition
//!   ([`strongly_connected_components`], [`tarjan_csr`]) driving
//!   fair-cycle detection, which [`FairGraph::check_all`] runs for
//!   several properties at once on worker threads after one labeling
//!   pass over the states;
//! * [`Lasso`] counterexamples — stem + cycle — mirroring
//!   [`tta_modelcheck::Trace`] ergonomics.
//!
//! # Example
//!
//! ```
//! use tta_liveness::{FairAction, FairGraph, Property};
//! use tta_modelcheck::{IdentityCodec, TransitionSystem, Verdict, DEFAULT_MAX_STATES};
//!
//! /// A task that may procrastinate forever: {stay, finish}.
//! struct Task;
//! impl TransitionSystem for Task {
//!     type State = u32;
//!     fn initial_states(&self) -> Vec<u32> { vec![0] }
//!     fn successors(&self, s: &u32, out: &mut Vec<u32>) {
//!         if *s == 0 { out.extend([0, 1]); } else { out.push(1); }
//!     }
//! }
//!
//! let codec = IdentityCodec::new();
//! let done = Property::eventually("done", |s: &u32| *s == 1);
//!
//! // Without fairness the task may stall forever: a lasso shows it.
//! let unfair = FairGraph::build(&Task, &codec, &[], DEFAULT_MAX_STATES).check(&done);
//! assert_eq!(unfair.verdict, Verdict::Violated);
//! assert_eq!(unfair.lasso.unwrap().cycle(), [0]);
//!
//! // Weak fairness on "finish" forbids the infinite stall.
//! let finish = FairAction::new("finish", |a: &u32, b: &u32| *a == 0 && *b == 1);
//! let fair = FairGraph::build(&Task, &codec, &[finish], DEFAULT_MAX_STATES).check(&done);
//! assert_eq!(fair.verdict, Verdict::Holds);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod bits;
mod check;
mod dot;
mod fairness;
mod graph;
mod lasso;
mod property;
mod scc;

pub use check::{LivenessOutcome, LivenessStats};
pub use fairness::{FairAction, MAX_FAIR_ACTIONS};
pub use graph::{ActionUsage, FairGraph};
pub use lasso::Lasso;
pub use property::{Property, StatePredicate};
pub use scc::{strongly_connected_components, tarjan_csr, SccDecomposition, NO_COMPONENT};
pub use tta_modelcheck::Verdict;
