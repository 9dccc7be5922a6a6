//! Node identifiers.

use std::fmt;

/// Identifier of a TTP/C node (controller + host) within a cluster.
///
/// Node ids are small dense integers starting at 0. The paper's traces name
/// nodes `A`, `B`, `C`, `D`; [`NodeId::letter`] renders that spelling.
///
/// # Example
///
/// ```
/// use tta_types::NodeId;
///
/// let b = NodeId::new(1);
/// assert_eq!(b.index(), 1);
/// assert_eq!(b.letter(), 'B');
/// assert_eq!(b.to_string(), "B");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u8);

impl NodeId {
    /// Creates a node id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`; membership vectors are 64 bits wide, so a
    /// cluster can never contain more nodes than that.
    #[must_use]
    pub fn new(index: u8) -> Self {
        assert!(index < 64, "node index {index} exceeds membership width 64");
        NodeId(index)
    }

    /// Returns the dense index of this node.
    #[must_use]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Returns the node's index as a `usize`, convenient for slice indexing.
    #[must_use]
    pub fn as_usize(self) -> usize {
        usize::from(self.0)
    }

    /// Renders the id in the paper's letter spelling (`A` for node 0).
    ///
    /// Ids past `Z` wrap into lowercase and then `#<index>`; clusters that
    /// large never appear in the reproduced experiments.
    #[must_use]
    pub fn letter(self) -> char {
        match self.0 {
            0..=25 => char::from(b'A' + self.0),
            26..=51 => char::from(b'a' + (self.0 - 26)),
            _ => '#',
        }
    }

    /// Iterates the first `n` node ids, `A..`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` (see [`NodeId::new`]).
    pub fn first(n: usize) -> impl Iterator<Item = NodeId> {
        assert!(n <= 64, "cluster size {n} exceeds membership width 64");
        (0..n as u8).map(NodeId)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 52 {
            write!(f, "{}", self.letter())
        } else {
            write!(f, "#{}", self.0)
        }
    }
}

impl From<NodeId> for u8 {
    fn from(id: NodeId) -> u8 {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for i in 0..64 {
            assert_eq!(NodeId::new(i).index(), i);
        }
    }

    #[test]
    fn letters_match_paper_spelling() {
        let names: Vec<char> = NodeId::first(4).map(NodeId::letter).collect();
        assert_eq!(names, ['A', 'B', 'C', 'D']);
    }

    #[test]
    fn display_uses_letters() {
        assert_eq!(NodeId::new(0).to_string(), "A");
        assert_eq!(NodeId::new(27).to_string(), "b");
        assert_eq!(NodeId::new(60).to_string(), "#60");
    }

    #[test]
    #[should_panic(expected = "exceeds membership width")]
    fn rejects_out_of_range_index() {
        let _ = NodeId::new(64);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(0) < NodeId::new(1));
        assert!(NodeId::new(5) > NodeId::new(2));
    }

    #[test]
    fn first_yields_dense_prefix() {
        let ids: Vec<u8> = NodeId::first(6).map(NodeId::index).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, 5]);
    }
}
