//! Iterative Tarjan strongly-connected-component decomposition.
//!
//! Fair-cycle detection reduces to an SCC scan: every cycle lies inside
//! one SCC, and for *weak* fairness a single pass over each component's
//! states and internal edges decides whether a fair cycle exists in it
//! (see [`crate::FairGraph::check`]). Tarjan's algorithm is the classic
//! single-pass answer, but the textbook version recurses as deep as the
//! longest DFS path — easily millions of frames on protocol state
//! graphs — so this implementation manages an explicit frame stack and
//! never recurses.
//!
//! The decomposition runs on a CSR adjacency restricted to an optional
//! `active` mask, because the property algorithms repeatedly analyse
//! induced subgraphs (`¬p`-states, `¬q`-states reachable from a
//! request) of one shared graph.

/// Component marker for nodes outside the active restriction.
pub const NO_COMPONENT: u32 = u32::MAX;

/// The result of an SCC decomposition over (a subgraph of) a digraph.
#[derive(Debug, Clone)]
pub struct SccDecomposition {
    /// Component id per node; [`NO_COMPONENT`] for inactive nodes.
    /// Components are numbered in Tarjan completion order, which is a
    /// reverse topological order of the component DAG.
    pub component: Vec<u32>,
    /// Number of components found.
    pub count: usize,
}

impl SccDecomposition {
    /// The members of every component, grouped by one counting sort
    /// into a flat `(members, starts)` pair: component `c`'s node ids,
    /// ascending, are `members[starts[c]..starts[c + 1]]`.
    #[must_use]
    pub fn grouped(&self) -> (Vec<u32>, Vec<usize>) {
        // Count each component's size into its own slot, then turn the
        // counts into running ends (the extra last slot ends at the
        // total).
        let mut starts = vec![0usize; self.count + 1];
        for &c in &self.component {
            if c != NO_COMPONENT {
                starts[c as usize] += 1;
            }
        }
        let mut end = 0;
        for slot in &mut starts {
            end += *slot;
            *slot = end;
        }
        // Fill each group back to front from the highest node id down:
        // every slot ends at its component's start, members ascending.
        let mut members = vec![0u32; end];
        for (node, &c) in self.component.iter().enumerate().rev() {
            if c != NO_COMPONENT {
                starts[c as usize] -= 1;
                members[starts[c as usize]] = node as u32;
            }
        }
        (members, starts)
    }
}

/// Iterative Tarjan over a CSR adjacency (`offsets.len() == n + 1`;
/// the successors of `v` are `targets[offsets[v]..offsets[v + 1]]`).
/// Nodes with `active[v] == false` — and every edge touching them — are
/// ignored; pass `None` to decompose the whole graph.
///
/// The decomposition is the hot inner loop of every liveness check
/// (each property runs it on a fresh restriction), so the active test
/// is monomorphized — the full-graph pass carries no mask branch at
/// all — and each DFS frame caches its CSR end offset instead of
/// re-reading `offsets[v + 1]` on every edge.
///
/// # Panics
///
/// Panics if the CSR arrays are inconsistent (offsets out of bounds).
#[must_use]
pub fn tarjan_csr(offsets: &[usize], targets: &[u32], active: Option<&[bool]>) -> SccDecomposition {
    match active {
        None => tarjan_impl(offsets, targets, &AllActive),
        Some(mask) => tarjan_impl(offsets, targets, &MaskActive(mask)),
    }
}

/// Monomorphization hook for the active-node restriction.
trait ActiveSet {
    fn contains(&self, v: u32) -> bool;
}

/// The whole-graph decomposition: no mask, no branch.
struct AllActive;
impl ActiveSet for AllActive {
    #[inline(always)]
    fn contains(&self, _: u32) -> bool {
        true
    }
}

/// An induced-subgraph decomposition over a boolean mask.
struct MaskActive<'a>(&'a [bool]);
impl ActiveSet for MaskActive<'_> {
    #[inline(always)]
    fn contains(&self, v: u32) -> bool {
        self.0[v as usize]
    }
}

fn tarjan_impl<A: ActiveSet>(offsets: &[usize], targets: &[u32], active: &A) -> SccDecomposition {
    let n = offsets.len().saturating_sub(1);

    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut component = vec![NO_COMPONENT; n];
    let mut tarjan_stack: Vec<u32> = Vec::new();
    // Explicit DFS frames: (node, next CSR cursor, CSR end). This is
    // the entire recursion state; depth is bounded by the number of
    // nodes, on the heap, not the thread stack.
    let mut frames: Vec<(u32, usize, usize)> = Vec::new();
    let mut next_index = 0u32;
    let mut count = 0usize;

    for root in 0..n as u32 {
        if !active.contains(root) || index[root as usize] != UNVISITED {
            continue;
        }
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        on_stack[root as usize] = true;
        tarjan_stack.push(root);
        frames.push((root, offsets[root as usize], offsets[root as usize + 1]));

        while let Some(&mut (v, ref mut cursor, end)) = frames.last_mut() {
            if *cursor < end {
                let w = targets[*cursor];
                *cursor += 1;
                if !active.contains(w) {
                    continue;
                }
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    on_stack[w as usize] = true;
                    tarjan_stack.push(w);
                    frames.push((w, offsets[w as usize], offsets[w as usize + 1]));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if lowlink[v as usize] == index[v as usize] {
                    let c = count as u32;
                    count += 1;
                    loop {
                        let w = tarjan_stack.pop().expect("root of an SCC is on the stack");
                        on_stack[w as usize] = false;
                        component[w as usize] = c;
                        if w == v {
                            break;
                        }
                    }
                }
                if let Some(&(parent, _, _)) = frames.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
            }
        }
    }

    SccDecomposition { component, count }
}

/// Strongly connected components of an explicit edge-list digraph over
/// nodes `0..node_count`, as sorted member lists (the convenience entry
/// point; the engine itself calls [`tarjan_csr`] on its shared CSR).
///
/// # Panics
///
/// Panics if an edge endpoint is `>= node_count`.
#[must_use]
pub fn strongly_connected_components(node_count: usize, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let (offsets, targets) = csr_from_edges(node_count, edges);
    let (members, starts) = tarjan_csr(&offsets, &targets, None).grouped();
    starts
        .windows(2)
        .map(|range| members[range[0]..range[1]].to_vec())
        .collect()
}

/// Builds a CSR adjacency from an edge list (counting sort by source).
pub(crate) fn csr_from_edges(node_count: usize, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
    let mut offsets = vec![0usize; node_count + 1];
    for &(from, to) in edges {
        assert!(
            (from as usize) < node_count && (to as usize) < node_count,
            "edge ({from}, {to}) out of range for {node_count} nodes"
        );
        offsets[from as usize + 1] += 1;
    }
    for i in 0..node_count {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut targets = vec![0u32; edges.len()];
    for &(from, to) in edges {
        targets[cursor[from as usize]] = to;
        cursor[from as usize] += 1;
    }
    (offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normalized(mut groups: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        groups.sort();
        groups
    }

    #[test]
    fn two_cycles_and_a_bridge() {
        // 0 ⇄ 1 → 2 ⇄ 3, plus isolated 4.
        let comps = strongly_connected_components(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        assert_eq!(normalized(comps), vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn self_loop_is_its_own_component() {
        let comps = strongly_connected_components(2, &[(0, 0), (0, 1)]);
        assert_eq!(normalized(comps), vec![vec![0], vec![1]]);
    }

    #[test]
    fn completion_order_is_reverse_topological() {
        // 0 → 1 → 2: component ids must not increase along edges.
        let (offsets, targets) = csr_from_edges(3, &[(0, 1), (1, 2)]);
        let scc = tarjan_csr(&offsets, &targets, None);
        assert_eq!(scc.count, 3);
        assert!(scc.component[0] > scc.component[1]);
        assert!(scc.component[1] > scc.component[2]);
    }

    #[test]
    fn inactive_nodes_break_cycles() {
        // 0 → 1 → 2 → 0 is a cycle, but masking node 1 splits it.
        let (offsets, targets) = csr_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let all = tarjan_csr(&offsets, &targets, None);
        assert_eq!(all.count, 1);
        let masked = tarjan_csr(&offsets, &targets, Some(&[true, false, true]));
        assert_eq!(masked.count, 2);
        assert_eq!(masked.component[1], NO_COMPONENT);
    }

    #[test]
    fn deep_path_does_not_overflow_the_stack() {
        // A 200k-node path closed into one giant cycle: the recursive
        // formulation would need a 200k-deep call stack.
        let n = 200_000u32;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        let comps = strongly_connected_components(n as usize, &edges);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), n as usize);
    }

    #[test]
    fn grouping_skips_inactive_nodes_and_sorts_members() {
        // 0 ⇄ 2 ⇄ 4 and 1 ⇄ 3, with node 5 masked out.
        let (offsets, targets) =
            csr_from_edges(6, &[(4, 2), (2, 4), (2, 0), (0, 2), (3, 1), (1, 3), (5, 5)]);
        let scc = tarjan_csr(
            &offsets,
            &targets,
            Some(&[true, true, true, true, true, false]),
        );
        let (members, starts) = scc.grouped();
        assert_eq!(starts.len(), scc.count + 1);
        assert_eq!(members.len(), 5);
        let mut groups: Vec<&[u32]> = starts.windows(2).map(|r| &members[r[0]..r[1]]).collect();
        groups.sort();
        assert_eq!(groups, [&[0, 2, 4][..], &[1, 3][..]]);
    }

    #[test]
    fn parallel_edges_and_duplicates_are_harmless() {
        let comps = strongly_connected_components(2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(normalized(comps), vec![vec![0, 1]]);
    }
}
