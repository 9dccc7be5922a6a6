//! # tta-protocol
//!
//! The TTP/C protocol controller, modeled at TDMA-slot granularity exactly
//! as in Section 4.3 of *Fault Tolerance Tradeoffs in Moving from
//! Decentralized to Centralized Embedded Systems* (DSN 2004).
//!
//! A [`Controller`] is a small, hashable value type: one controller
//! instance is the per-node state vector of the paper's formal model
//! (protocol state, slot counter, clique-avoidance counters, big-bang
//! flag, listen timeout). Its transition relation is exposed two ways:
//!
//! * [`Controller::successors`] enumerates *all* possible next states for
//!   a given channel observation — this is what the model checker
//!   explores;
//! * [`Controller::step`] resolves the nondeterminism through a
//!   [`HostPolicy`] — this is what the simulator executes.
//!
//! The crate also carries the richer protocol services the simulator
//! exercises: fault-tolerant-average clock synchronization ([`clocksync`])
//! and membership bookkeeping ([`membership`]).
//!
//! # Example
//!
//! ```
//! use tta_protocol::{ChannelView, Controller, HostChoices, ProtocolState};
//!
//! let node = Controller::new(tta_types::NodeId::new(0), 4);
//! assert_eq!(node.protocol_state(), ProtocolState::Freeze);
//!
//! // From freeze, with staggered startup allowed, a node may stay frozen
//! // or begin initialization — both successors exist for the checker.
//! let next = node.successors(&ChannelView::silent(), &HostChoices::checking());
//! assert_eq!(next.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod clique;
pub mod clocksync;
mod controller;
pub mod host;
pub mod membership;
mod observation;
pub mod restart;
mod state;

pub use clique::{CliqueCounters, CliqueVerdict};
pub use controller::{
    Controller, ProtocolEvent, SendIntent, Transition, TransitionCause, Transitions,
    MAX_COLD_START_ROUNDS,
};
pub use host::{DelayedStartPolicy, EagerStartPolicy, HostChoices, HostPolicy};
pub use observation::{ChannelObservation, ChannelView, Judgment};
pub use restart::{RestartPolicy, RestartSupervisor};
pub use state::ProtocolState;
