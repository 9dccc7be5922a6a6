//! # tta
//!
//! Facade crate for the reproduction of *Fault Tolerance Tradeoffs in
//! Moving from Decentralized to Centralized Embedded Systems* (Morris,
//! Kroening, Koopman — DSN 2004).
//!
//! The paper asks what happens when a decentralized safety-critical
//! system (the Time-Triggered Architecture running TTP/C) centralizes
//! authority into star-coupler bus guardians. This workspace builds the
//! whole stack from scratch and answers the question executably:
//!
//! * [`types`] — node and slot ids, the five-letter channel alphabet,
//!   membership vectors and the TTP/C spec's frame-size constants;
//! * [`protocol`] — the TTP/C controller state machine (big-bang cold
//!   start, clique avoidance, membership, clock sync);
//! * [`guardian`] — central star couplers with the four authority levels
//!   the paper compares, coupler and local-guardian fault modes, SOS
//!   defects and the forwarding buffer;
//! * [`modelcheck`] — an explicit-state model checker (the SMV
//!   substitute) with shortest-counterexample BFS;
//! * [`liveness`] — temporal liveness on top of it: `F`/`G`/leads-to/`GF`
//!   properties under weak fairness, SCC-based fair-cycle detection, and
//!   lasso (stem + cycle) counterexamples;
//! * [`core`] — the paper's Section 4 cluster model and Section 5
//!   property, one call away: [`core::verify_cluster`];
//! * [`sim`] — a fault-injection simulator (the SWIFI substitute) with
//!   bus-vs-star campaigns;
//! * [`analysis`] — the Section 6 buffer/frame/clock-rate equations and
//!   the Figure 3 curve;
//! * [`conformance`] — cross-engine conformance: a trace-replay oracle
//!   lifting simulator runs into the checker's vocabulary, a TOML
//!   scenario DSL executed by both engines, and golden snapshots of the
//!   paper's two counterexample traces.
//!
//! # Quickstart
//!
//! ```
//! use tta::core::{verify_cluster, ClusterConfig, Verdict};
//! use tta::guardian::CouplerAuthority;
//!
//! // The paper's headline result in three lines: full-frame buffering in
//! // a central guardian breaks the fault-tolerance property that every
//! // lesser authority level satisfies.
//! let safe = verify_cluster(&ClusterConfig::paper(CouplerAuthority::SmallShifting));
//! let broken = verify_cluster(&ClusterConfig::paper(CouplerAuthority::FullShifting));
//! assert_eq!(safe.verdict, Verdict::Holds);
//! assert_eq!(broken.verdict, Verdict::Violated);
//! ```
//!
//! See the `examples/` directory for runnable scenarios and the `exp_*`
//! binaries in `tta-bench` for regenerating every table and figure of the
//! paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tta_analysis as analysis;
pub use tta_campaignd as campaignd;
pub use tta_conformance as conformance;
pub use tta_core as core;
pub use tta_fuzz as fuzz;
pub use tta_guardian as guardian;
pub use tta_liveness as liveness;
pub use tta_modelcheck as modelcheck;
pub use tta_protocol as protocol;
pub use tta_sim as sim;
pub use tta_types as types;
