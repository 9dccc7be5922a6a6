//! Property-based tests of the SCC core and the fair-cycle engine on
//! randomized digraphs: the iterative Tarjan against a brute-force
//! mutual-reachability reference, and every emitted lasso validated
//! structurally (real edges, restriction respected, fairness witnessed).

use proptest::prelude::*;
use tta_liveness::{strongly_connected_components, FairAction, FairGraph, Property, Verdict};
use tta_modelcheck::{IdentityCodec, TransitionSystem, DEFAULT_MAX_STATES};

/// A random digraph over `0..n` as adjacency lists.
#[derive(Debug, Clone)]
struct RandomGraph {
    edges: Vec<Vec<u32>>,
}

impl TransitionSystem for RandomGraph {
    type State = u32;

    fn initial_states(&self) -> Vec<u32> {
        vec![0]
    }

    fn successors(&self, s: &u32, out: &mut Vec<u32>) {
        out.extend(self.edges[*s as usize].iter().copied());
    }
}

fn arb_graph(max_nodes: usize) -> impl Strategy<Value = RandomGraph> {
    (1..max_nodes).prop_flat_map(|n| {
        prop::collection::vec(prop::collection::vec(0..n as u32, 0..4), n)
            .prop_map(|edges| RandomGraph { edges })
    })
}

fn edge_list(graph: &RandomGraph) -> Vec<(u32, u32)> {
    graph
        .edges
        .iter()
        .enumerate()
        .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as u32, v)))
        .collect()
}

/// Brute-force SCCs: Floyd–Warshall mutual reachability. `O(n³)` — fine
/// for ≤ 64 nodes, and independent of everything Tarjan does.
fn reference_sccs(graph: &RandomGraph) -> Vec<Vec<u32>> {
    let n = graph.edges.len();
    let mut reach = vec![vec![false; n]; n];
    for (u, vs) in graph.edges.iter().enumerate() {
        for &v in vs {
            reach[u][v as usize] = true;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if reach[i][k] {
                let via: Vec<bool> = reach[k].clone();
                for (j, r) in reach[i].iter_mut().enumerate() {
                    *r |= via[j];
                }
            }
        }
    }
    let mut assigned = vec![false; n];
    let mut groups = Vec::new();
    for u in 0..n {
        if assigned[u] {
            continue;
        }
        let members: Vec<u32> = (u..n)
            .filter(|&v| v == u || (reach[u][v] && reach[v][u]))
            .map(|v| v as u32)
            .collect();
        for &v in &members {
            assigned[v as usize] = true;
        }
        groups.push(members);
    }
    groups
}

fn normalized(mut groups: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort();
    groups
}

/// Reference violation decision for `F target` with **no** fairness
/// under the stutter-extended semantics: a violating execution exists
/// iff, inside the `≠ target` subgraph reachable from a `≠ target`
/// initial state, there is a deadlock (of the *original* system) or a
/// cycle. Cycle detection by Kahn's algorithm, nothing shared with the
/// engine.
fn reference_eventually_violated(graph: &RandomGraph, target: u32) -> bool {
    let n = graph.edges.len();
    if 0 == target {
        return false;
    }
    // Reachability from 0 through non-target nodes only.
    let mut seen = vec![false; n];
    let mut stack = vec![0u32];
    seen[0] = true;
    while let Some(u) = stack.pop() {
        for &v in &graph.edges[u as usize] {
            if v != target && !seen[v as usize] {
                seen[v as usize] = true;
                stack.push(v);
            }
        }
    }
    let active: Vec<u32> = (0..n as u32).filter(|&v| seen[v as usize]).collect();
    if active.iter().any(|&v| graph.edges[v as usize].is_empty()) {
        return true; // stutter at a deadlock, forever short of the target
    }
    // Kahn over the induced subgraph: leftovers ⇒ a cycle.
    let mut indegree = vec![0usize; n];
    for &u in &active {
        for &v in &graph.edges[u as usize] {
            if v != target && seen[v as usize] {
                indegree[v as usize] += 1;
            }
        }
    }
    let mut queue: Vec<u32> = active
        .iter()
        .copied()
        .filter(|&v| indegree[v as usize] == 0)
        .collect();
    let mut removed = 0usize;
    while let Some(u) = queue.pop() {
        removed += 1;
        for &v in &graph.edges[u as usize] {
            if v != target && seen[v as usize] {
                indegree[v as usize] -= 1;
                if indegree[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
    }
    removed < active.len()
}

fn has_edge(graph: &RandomGraph, u: u32, v: u32) -> bool {
    graph.edges[u as usize].contains(&v)
}

/// Whether `from → to` is admissible in the lasso sense: a real edge,
/// or the stutter self-loop at a deadlock.
fn admissible(graph: &RandomGraph, from: u32, to: u32) -> bool {
    has_edge(graph, from, to) || (from == to && graph.edges[from as usize].is_empty())
}

proptest! {
    /// Iterative Tarjan partitions exactly like brute-force mutual
    /// reachability on random digraphs of up to 64 nodes.
    #[test]
    fn tarjan_matches_brute_force(graph in arb_graph(64)) {
        let tarjan = strongly_connected_components(graph.edges.len(), &edge_list(&graph));
        prop_assert_eq!(normalized(tarjan), normalized(reference_sccs(&graph)));
    }

    /// Component numbering is reverse topological: along any
    /// cross-component edge the component id strictly decreases.
    #[test]
    fn tarjan_numbering_is_reverse_topological(graph in arb_graph(64)) {
        let groups = strongly_connected_components(graph.edges.len(), &edge_list(&graph));
        let mut comp = vec![usize::MAX; graph.edges.len()];
        for (c, members) in groups.iter().enumerate() {
            for &v in members {
                comp[v as usize] = c;
            }
        }
        for (u, v) in edge_list(&graph) {
            if comp[u as usize] != comp[v as usize] {
                prop_assert!(comp[u as usize] > comp[v as usize],
                    "edge {u}→{v} goes from component {} to {}", comp[u as usize], comp[v as usize]);
            }
        }
    }

    /// The unfair `F target` verdict agrees with an independent
    /// cycle/deadlock reference, and every violation lasso is a real
    /// execution that never touches the target.
    #[test]
    fn eventually_agrees_with_reference(graph in arb_graph(32), target_seed in 0u32..32) {
        let target = target_seed % graph.edges.len() as u32;
        let codec = IdentityCodec::new();
        let out = FairGraph::build(&graph, &codec, &[], DEFAULT_MAX_STATES)
            .check(&Property::eventually("target", move |s: &u32| *s == target));
        let expected = reference_eventually_violated(&graph, target);
        prop_assert_eq!(out.verdict == Verdict::Violated, expected);
        if let Some(lasso) = out.lasso {
            prop_assert!(lasso.states().all(|&s| s != target));
            let first = *lasso.states().next().unwrap();
            prop_assert_eq!(first, 0, "stem must start at the initial state");
            for (&a, &b) in lasso.transitions() {
                prop_assert!(admissible(&graph, a, b), "lasso step {a}→{b} is not admissible");
            }
        }
    }

    /// Under a random weak-fairness constraint, any emitted lasso's
    /// cycle must witness the constraint: the action is disabled at
    /// some cycle state or taken by some cycle edge (closing edge
    /// included).
    #[test]
    fn violation_cycles_witness_fairness(graph in arb_graph(24), pivot in 0u32..24) {
        let n = graph.edges.len() as u32;
        let pivot = pivot % n;
        // Action: "move past the pivot" — any edge into a state > pivot.
        let action = FairAction::new("beyond pivot", move |_: &u32, b: &u32| *b > pivot);
        let codec = IdentityCodec::new();
        let out = FairGraph::build(&graph, &codec, &[action], DEFAULT_MAX_STATES)
            .check(&Property::always_eventually("at zero", |s: &u32| *s == 0));
        if let Some(lasso) = out.lasso {
            let disabled = |s: u32| !graph.edges[s as usize].iter().any(|&b| b > pivot);
            let cycle = lasso.cycle();
            let edge_taken = cycle
                .windows(2)
                .map(|w| (w[0], w[1]))
                .chain(std::iter::once((cycle[cycle.len() - 1], cycle[0])))
                .any(|(a, b)| has_edge(&graph, a, b) && b > pivot);
            prop_assert!(
                cycle.iter().any(|&s| disabled(s)) || edge_taken,
                "cycle {cycle:?} starves the fair action (pivot {pivot})"
            );
            // And it must genuinely avoid the recurrence target.
            prop_assert!(cycle.iter().all(|&s| s != 0));
            for (&a, &b) in lasso.transitions() {
                prop_assert!(admissible(&graph, a, b));
            }
        }
    }
}
