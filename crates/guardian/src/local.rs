//! Fault modes of a decentralized (per-node) bus guardian — the
//! bus-topology alternative the paper compares the central design
//! against.
//!
//! A local guardian sits between one node and the bus. A *fault* in one
//! local guardian affects only its own node, whereas a faulty central
//! guardian affects a whole channel (the asymmetry the paper examines).
//! The simulator's guardian step reads these modes for bus-topology runs.

/// Fault modes of a local guardian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum LocalGuardianFault {
    /// Working correctly.
    #[default]
    None,
    /// Stuck closed: the guarded node is muted in every slot.
    StuckClosed,
    /// Stuck open: the guarded node's traffic passes unchecked.
    StuckOpen,
}
