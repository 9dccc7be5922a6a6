//! Cluster interconnect topologies.

use std::fmt;

/// How nodes are interconnected and where the bus guardians sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    /// Replicated buses with one local guardian per node (Figure 1 of the
    /// paper). Guardians gate only *when* their node may transmit; they
    /// cannot inspect content or repair signals.
    Bus,
    /// Replicated star couplers with central guardians (Figure 2).
    /// Depending on the configured authority, the hub can block off-slot
    /// and masquerading traffic, reshape slightly-off-specification
    /// signals, and perform semantic analysis of cold-start and C-state
    /// frames.
    #[default]
    Star,
}

impl Topology {
    /// Whether the topology places a guardian at the center of each
    /// channel.
    #[must_use]
    pub fn is_central(self) -> bool {
        matches!(self, Topology::Star)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Topology::Bus => "bus",
            Topology::Star => "star",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_is_central_bus_is_not() {
        assert!(Topology::Star.is_central());
        assert!(!Topology::Bus.is_central());
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(Topology::Bus.to_string(), "bus");
        assert_eq!(Topology::Star.to_string(), "star");
    }
}
