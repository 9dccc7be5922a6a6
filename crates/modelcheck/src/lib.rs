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
//!   property fails. Its one layer step runs on
//!   [`tta_base::map_chunks`] at every thread count: workers steal
//!   fixed-size frontier chunks off an atomic counter and the results
//!   merge in chunk order, so every thread count explores bit for bit
//!   alike. A depth bound ([`Explorer::max_depth`]) turns it into the
//!   bounded search of the A2 ablation, still with shortest traces;
//! * [`Walk`] — the hook other state-space walks run on the same step
//!   (the fair graph of `tta-liveness`);
//! * [`StateCodec`] / [`StateArena`] — compact state interning: visited
//!   sets store fixed-size encodings once, and parent links are `u32`
//!   arena indices instead of per-state clones;
//! * [`DeltaArena`] — optional delta-encoded visited-set storage
//!   (sparse xor-deltas against BFS parents with periodic keyframes),
//!   behind [`Explorer::check_with_delta_codec`].
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

pub mod codec;
mod counterexample;
pub mod delta;
mod explore;
pub mod hashing;
mod index;
pub mod intern;
pub mod parallel;
mod stats;
mod system;

pub use codec::{IdentityCodec, StateCodec};
pub use counterexample::Trace;
pub use delta::{DeltaArena, WordEncoded, KEY_INTERVAL, MAX_WORDS};
pub use explore::{
    CheckOutcome, Explorer, Flow, Target, Verdict, Walk, Walked, DEFAULT_MAX_STATES,
};
pub use intern::{StateArena, Visited, NO_PARENT};
pub use stats::ExploreStats;
pub use system::{Invariant, TransitionSystem};
