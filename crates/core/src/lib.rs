//! # tta-core
//!
//! The paper's primary contribution, executable: the Section 4 formal
//! model of a TTA cluster with star topology and redundant central bus
//! guardians, expressed as a [`tta_modelcheck::TransitionSystem`] and
//! checked against the Section 5 safety property.
//!
//! One transition of the model is one TDMA slot. In each slot:
//!
//! 1. every node's [`tta_protocol::Controller`] decides what it transmits
//!    (a pure function of its current state),
//! 2. the transmissions are merged onto the two redundant channels
//!    (simultaneous senders collide into a bad frame),
//! 3. each channel's star coupler relays, drops, corrupts or — if it has
//!    full-shifting authority and is faulty — *replays* traffic
//!    ([`tta_guardian::StarCoupler`] semantics), constrained by the
//!    single-fault hypothesis and the configured fault budget,
//! 4. every node observes the resulting [`tta_protocol::ChannelView`] and
//!    takes every protocol- or host-transition the paper's relation
//!    allows.
//!
//! The checked property is the paper's: *no single coupler fault may cause
//! an integrated node (active or passive) to freeze*. A monitor records
//! the first protocol-forced freeze of an integrated node; the invariant
//! is that the monitor stays clear.
//!
//! # Example: reproduce the paper's headline result
//!
//! ```
//! use tta_core::{ClusterConfig, verify_cluster, Verdict};
//! use tta_guardian::CouplerAuthority;
//!
//! // Guardians without full-frame buffering satisfy the property...
//! let safe = verify_cluster(&ClusterConfig::paper(CouplerAuthority::SmallShifting));
//! assert_eq!(safe.verdict, Verdict::Holds);
//!
//! // ...full-frame buffering breaks it (shortest counterexample found).
//! let broken = verify_cluster(&ClusterConfig::paper(CouplerAuthority::FullShifting));
//! assert_eq!(broken.verdict, Verdict::Violated);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod compact;
mod config;
mod model;
mod narrate;
mod state;
mod verify;

pub use compact::{ClusterCodec, CompactState};
pub use config::{ClusterConfig, FaultBudget};
pub use model::{ClusterModel, StepInfo, REPLAY_COUNTER_CAP};
pub use narrate::{narrate_compressed, narrate_lasso, narrate_trace, NarratedStep};
pub use state::ClusterState;
pub use tta_liveness::{FairAction, Lasso, LivenessStats, Property};
pub use tta_modelcheck::Verdict;
pub use verify::{
    cluster_startup_fairness, find_startup_witness, node_integration_property,
    node_recovery_property, verify_cluster, verify_cluster_liveness,
    verify_cluster_liveness_and_recovery, verify_cluster_liveness_threaded,
    verify_cluster_liveness_with, verify_cluster_recovery, verify_cluster_recovery_with,
    verify_cluster_with, CheckStrategy, LivenessReport, VerificationReport,
};
