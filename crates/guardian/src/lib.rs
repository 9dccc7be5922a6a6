//! # tta-guardian
//!
//! Bus-guardian models for the TTA: the fault modes of decentralized
//! (per-node) guardians in the bus topology and centralized star couplers
//! for the star topology, with the four authority levels the paper
//! compares (Section 4.1):
//!
//! * **Passive** — cannot stop frames, cannot shift frames in time;
//! * **Time windows** — can open/close bus write access per slot;
//! * **Small shifting** — can additionally nudge frame timing slightly;
//! * **Full shifting** — can additionally *buffer whole frames* and send
//!   them later.
//!
//! The paper's central result is that the last capability converts a
//! coupler fault into an active masquerading failure: a faulty
//! full-shifting coupler can replay the last buffered frame in a later
//! slot (the `out_of_slot` fault mode), which no less-authorized coupler
//! can exhibit. [`StarCoupler`] implements exactly the Section 4.4
//! equations; [`CouplerAuthority::fault_modes`] ties fault modes to
//! authority.
//!
//! For the simulator the crate additionally models slightly-off-
//! specification defects and per-receiver acceptance ([`sos`]) and the
//! fault modes of a local per-node guardian ([`local`]); the rules a
//! guardian applies to each transmission live in the simulator's step
//! (`tta_sim::Simulation`), next to the cluster state they read. The
//! leaky-bucket bit buffer behind the Section 6 analysis is [`buffer`],
//! and [`enhanced`] audits the §6 value-added functions against the
//! eq. (3) buffer bound.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod authority;
pub mod buffer;
mod coupler;
pub mod enhanced;
mod fault;
pub mod local;
pub mod sos;

pub use authority::CouplerAuthority;
pub use coupler::{BufferedFrame, StarCoupler};
pub use fault::CouplerFaultMode;
