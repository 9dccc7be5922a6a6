//! Group membership vectors.
//!
//! TTP/C's membership service gives every node a consistent view of which
//! peers are operating correctly. Membership is carried in explicit
//! C-states (16 bits on the wire in the I-frame layout the paper cites) and
//! is exactly the data that slightly-off-specification faults desynchronize
//! between receivers, triggering clique avoidance.

use crate::NodeId;
use std::fmt;

/// A set of nodes considered operational, one bit per node.
///
/// # Example
///
/// ```
/// use tta_types::{MembershipVector, NodeId};
///
/// let mut members = MembershipVector::with_members([0, 2]);
/// assert!(members.contains(NodeId::new(0)));
/// assert!(!members.contains(NodeId::new(1)));
/// members.insert(NodeId::new(1));
/// assert_eq!(members.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MembershipVector(u64);

impl MembershipVector {
    /// The empty membership.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector containing the given node indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is 64 or larger (see [`NodeId::new`]).
    #[must_use]
    pub fn with_members<I: IntoIterator<Item = u8>>(indices: I) -> Self {
        let mut v = Self::new();
        for i in indices {
            v.insert(NodeId::new(i));
        }
        v
    }

    /// Builds the full membership of an `n`-node cluster.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        assert!(n <= 64, "cluster size {n} exceeds membership width 64");
        if n == 64 {
            MembershipVector(u64::MAX)
        } else {
            MembershipVector((1u64 << n) - 1)
        }
    }

    /// Whether `node` is a member.
    #[must_use]
    pub fn contains(self, node: NodeId) -> bool {
        self.0 >> node.index() & 1 == 1
    }

    /// Adds `node` to the membership.
    pub fn insert(&mut self, node: NodeId) {
        self.0 |= 1 << node.index();
    }

    /// Removes `node` from the membership.
    pub fn remove(&mut self, node: NodeId) {
        self.0 &= !(1 << node.index());
    }

    /// Number of members.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no node is a member.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Raw 64-bit representation (bit *i* = node *i*).
    #[must_use]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Reconstructs a vector from its raw bits.
    #[must_use]
    pub fn from_bits(bits: u64) -> Self {
        MembershipVector(bits)
    }

    /// Iterates over the member node ids in ascending order.
    pub fn iter(self) -> impl Iterator<Item = NodeId> {
        (0u8..64)
            .filter(move |i| self.0 >> i & 1 == 1)
            .map(NodeId::new)
    }

    /// Members present in `self` but not in `other`.
    #[must_use]
    pub fn difference(self, other: MembershipVector) -> MembershipVector {
        MembershipVector(self.0 & !other.0)
    }

    /// Members present in both vectors.
    #[must_use]
    pub fn intersection(self, other: MembershipVector) -> MembershipVector {
        MembershipVector(self.0 & other.0)
    }
}

impl fmt::Display for MembershipVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, node) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{node}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<NodeId> for MembershipVector {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut v = Self::new();
        for node in iter {
            v.insert(node);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_round_trip() {
        let mut v = MembershipVector::new();
        let n = NodeId::new(5);
        assert!(!v.contains(n));
        v.insert(n);
        assert!(v.contains(n));
        v.remove(n);
        assert!(!v.contains(n));
        assert!(v.is_empty());
    }

    #[test]
    fn full_cluster_has_all_members() {
        let v = MembershipVector::full(4);
        assert_eq!(v.len(), 4);
        for node in NodeId::first(4) {
            assert!(v.contains(node));
        }
        assert!(!v.contains(NodeId::new(4)));
    }

    #[test]
    fn full_64_does_not_overflow() {
        assert_eq!(MembershipVector::full(64).len(), 64);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let v = MembershipVector::with_members([3, 0, 7]);
        let ids: Vec<u8> = v.iter().map(NodeId::index).collect();
        assert_eq!(ids, [0, 3, 7]);
    }

    #[test]
    fn set_operations() {
        let a = MembershipVector::with_members([0, 1, 2]);
        let b = MembershipVector::with_members([1, 2, 3]);
        assert_eq!(a.difference(b), MembershipVector::with_members([0]));
        assert_eq!(a.intersection(b), MembershipVector::with_members([1, 2]));
    }

    #[test]
    fn display_lists_members() {
        let v = MembershipVector::with_members([0, 2]);
        assert_eq!(v.to_string(), "{A,C}");
    }

    #[test]
    fn bits_round_trip() {
        let v = MembershipVector::with_members([0, 63]);
        assert_eq!(MembershipVector::from_bits(v.bits()), v);
    }

    #[test]
    fn collects_from_node_iterator() {
        let v: MembershipVector = NodeId::first(3).collect();
        assert_eq!(v, MembershipVector::full(3));
    }
}
