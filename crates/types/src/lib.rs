//! # tta-types
//!
//! Data types for the Time-Triggered Protocol (TTP/C) as used by the DSN
//! 2004 paper *Fault Tolerance Tradeoffs in Moving from Decentralized to
//! Centralized Embedded Systems*.
//!
//! This crate is the lowest substrate of the reproduction. It provides:
//!
//! * identifiers and the slot time base ([`NodeId`], [`SlotIndex`]),
//! * the abstract channel alphabet the paper's formal model uses
//!   ([`FrameKind`]: silence, cold-start, explicit C-state, regular, bad),
//! * the membership vector ([`MembershipVector`]) that the membership
//!   service keeps and that explicit C-state frames carry, and
//! * the frame-size constants of the TTP/C Bus-Compatibility Specification
//!   that Section 6 of the paper plugs into its buffer-size equations
//!   ([`constants`]).
//!
//! Both engines see the channel only through [`FrameKind`]: the checker's
//! model and the simulator's transmissions carry a frame kind and a
//! claimed slot, never wire bits, and the Section 6 analysis needs only
//! the published frame lengths.
//!
//! # Example
//!
//! ```
//! use tta_types::{FrameKind, MembershipVector, NodeId, SlotIndex};
//!
//! let members = MembershipVector::with_members([0, 1, 2]);
//! assert!(members.contains(NodeId::new(2)));
//! assert_eq!(SlotIndex::new(4).next(4), SlotIndex::new(1));
//! assert!(FrameKind::ColdStart.supports_integration());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod constants;
mod frame;
mod membership;
mod node;
mod slot;

pub use frame::FrameKind;
pub use membership::MembershipVector;
pub use node::NodeId;
pub use slot::SlotIndex;
