//! # tta-fuzz
//!
//! Coverage-guided fault-plan fuzzing for the DSN 2004 reproduction:
//! search the fault-plan space instead of curating it.
//!
//! The paper's tradeoff claim — centralizing guardian authority trades
//! fault-tolerance coverage for cost — was probed by hand-written
//! scenarios. This crate hunts the interesting plans automatically,
//! following the search-based line of Cheng et al. (game-theoretic
//! synthesis of fault-tolerant systems) and Abdi et al. (restart-based
//! fault tolerance):
//!
//! * **Mutation engine** ([`Mutator`]) — deterministic, seed-driven
//!   operators over [`FuzzInput`]s: shift/grow/shrink windows, cycle
//!   [`tta_sim::FaultPersistence`], retarget channels and nodes, swap
//!   fault kinds, add/remove events, and splice events between corpus
//!   entries. Out-of-slot coupler faults are offered only when the
//!   modellint coverage probe shows some authority level actually
//!   admits replay steps.
//! * **Coverage signal** ([`EvalSet`]) — every candidate runs through
//!   the real simulator under all four authority levels; the corpus
//!   admits signatures over `(RecoveryOutcome class, availability
//!   bucket, log2 event counts)` per authority.
//! * **Finds** — availability cliffs (a mutant loses ≥ `delta`
//!   availability against its parent under one authority) and outcome
//!   flips (adjacent authority levels classify one plan differently).
//! * **Shrinking** ([`shrink`]) — delta-debugging over events and
//!   window widths to a 1-minimal plan, re-executing the predicate at
//!   every step.
//! * **Emission** ([`emit_scenario`]) — each find becomes a scenario
//!   TOML with *measured* `expect` blocks, self-checked in process
//!   against the lint gate and the conformance runner before it is
//!   allowed to exist.
//! * **Synthesis** ([`synthesize`]) — inverse mode: the cheapest
//!   [`tta_protocol::RestartPolicy`] (fewest restarts, then least
//!   aggressive timing) keeping worst-case availability above a
//!   threshold across a fault corpus.
//!
//! Everything is deterministic by construction: per-candidate RNGs
//! derived from `(seed, round, index)`, order-preserving parallel
//! execution, and a journal with no timestamps. `tta_fuzz --seed 7`
//! produces byte-identical output at any `--threads` value.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod corpus;
mod emit;
mod engine;
mod eval;
mod input;
mod mutate;
mod rng;
mod shrink;
mod synth;

pub use corpus::{Corpus, CorpusEntry};
pub use emit::{authority_token, emit_scenario, EmitRequest, Emitted};
pub use engine::{describe, fuzz, fuzz_with, Find, FindKind, FuzzConfig, FuzzOutcome};
pub use eval::{
    admissible_plan, evaluate, evaluate_under, EvalContext, EvalSet, Evaluation, Evaluator,
    LocalEvaluator,
};
pub use input::{node_kind_token, FuzzEvent, FuzzEventKind, FuzzInput};
pub use mutate::Mutator;
pub use rng::FuzzRng;
pub use shrink::{is_one_minimal, shrink};
pub use synth::{candidate_policies, synthesize, worst_availability, SynthOutcome};
