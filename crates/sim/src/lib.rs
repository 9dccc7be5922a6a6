//! # tta-sim
//!
//! A slot-synchronous simulator for TTA clusters with software fault
//! injection — the substrate standing in for the SWIFI / heavy-ion
//! experiments of Ademaj et al. (DSN'03) that motivate the paper
//! (Section 2.2).
//!
//! Where `tta-core` explores *all* behaviors of a small abstract model,
//! `tta-sim` executes *one* behavior at a time of a richer one: nodes run
//! the real [`tta_protocol::Controller`] state machine, frames carry
//! slightly-off-specification defects that heterogeneous receivers judge
//! differently, local or central guardians filter traffic depending on
//! the topology, and a fault plan injects node and coupler faults at
//! chosen slots.
//!
//! The crate answers the motivating question of the paper empirically
//! (experiment E9): which fault classes propagate in a **bus** topology
//! with local guardians but are contained by a **star** topology with
//! central guardians — and, conversely, what the central guardian's
//! replay fault does to either.
//!
//! # Example
//!
//! ```
//! use tta_sim::{FaultPlan, SimBuilder, Topology};
//! use tta_guardian::CouplerAuthority;
//!
//! let report = SimBuilder::new(4)
//!     .topology(Topology::Star)
//!     .authority(CouplerAuthority::SmallShifting)
//!     .slots(200)
//!     .plan(FaultPlan::none())
//!     .build()
//!     .run();
//! assert!(report.cluster_started(), "a fault-free cluster starts up");
//! assert!(report.healthy_frozen().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod asynch;
pub mod campaign;
pub mod drift;
mod inject;
mod log;
pub mod metrics;
mod report;
mod sim;
mod topology;
mod trace;

pub use campaign::{
    Campaign, CampaignReport, Outcome, RecoveryOutcome, RecoveryReport, Scenario, TrialAggregate,
    TrialResult,
};
pub use drift::{DriftExperiment, DriftReport};
pub use inject::{
    can_replay, FaultEvent, FaultLane, FaultPersistence, FaultPlan, FaultTarget, NodeFaultKind,
};
pub use log::{SlotEvent, SlotLog};
pub use metrics::{TimeSeries, TimeSeriesError};
pub use report::{RecoveryEpisode, SimReport, SteadyState};
pub use sim::{SimBuilder, Simulation};
pub use topology::Topology;
pub use trace::ClusterSnapshot;
