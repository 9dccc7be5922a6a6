//! # tta-modelcheck
//!
//! An explicit-state model checker, built as the substrate that replaces
//! SMV in the reproduction of *Fault Tolerance Tradeoffs in Moving from
//! Decentralized to Centralized Embedded Systems* (DSN 2004).
//!
//! The paper's model is finite and synchronous: a set of initial states
//! `I`, a transition relation `R`, and an invariant property checked on
//! all reachable states (`AG p`). This crate provides exactly that:
//!
//! * [`TransitionSystem`] — the `(I, R)` interface a model implements;
//! * [`Explorer`] — breadth-first reachability with invariant checking;
//!   like SMV, it returns the **shortest** counterexample trace when the
//!   property fails;
//! * [`BoundedChecker`] — depth-bounded search (a BMC-style ablation);
//! * [`parallel::ParallelExplorer`] — frontier-parallel BFS on
//!   [`tta_base::map_chunks`]: workers steal fixed-size frontier chunks
//!   off an atomic counter and the results merge in chunk order, so every thread count reproduces the
//!   sequential exploration bit for bit;
//! * [`StateCodec`] / [`StateArena`] — compact state interning: visited
//!   sets store fixed-size encodings once, and parent links are `u32`
//!   arena indices instead of per-state clones;
//! * [`DeltaArena`] — optional delta-encoded visited-set storage
//!   (sparse xor-deltas against BFS parents with periodic keyframes),
//!   behind `check_with_delta_codec` on both explorers.
//!
//! # Example
//!
//! ```
//! use tta_modelcheck::{Explorer, TransitionSystem, Verdict};
//!
//! /// A counter that wraps at 6; we check it never reaches 4 (it does).
//! struct Wrap;
//! impl TransitionSystem for Wrap {
//!     type State = u32;
//!     fn initial_states(&self) -> Vec<u32> { vec![0] }
//!     fn successors(&self, s: &u32, out: &mut Vec<u32>) {
//!         out.push((s + 1) % 6);
//!     }
//! }
//!
//! let outcome = Explorer::new().check(&Wrap, |s: &u32| *s != 4);
//! assert_eq!(outcome.verdict, Verdict::Violated);
//! // BFS finds the shortest path: 0 → 1 → 2 → 3 → 4.
//! assert_eq!(outcome.counterexample.unwrap().states(), [0, 1, 2, 3, 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod bounded;
pub mod codec;
mod counterexample;
pub mod delta;
mod explore;
pub mod graph;
pub mod hashing;
pub mod intern;
pub mod parallel;
mod stats;
mod system;

pub use bounded::{BoundedChecker, BoundedOutcome, BoundedVerdict};
pub use codec::{IdentityCodec, StateCodec};
pub use counterexample::Trace;
pub use delta::{DeltaArena, WordEncoded, KEY_INTERVAL, MAX_WORDS};
pub use explore::{CheckOutcome, Explorer, Verdict, DEFAULT_MAX_STATES};
pub use graph::StateGraph;
pub use intern::{Interned, StateArena, Visited, NO_PARENT};
pub use stats::ExploreStats;
pub use system::{Invariant, TransitionSystem};
