//! Property-based tests of the exploration engines against each other on
//! randomized graph-shaped transition systems.

use proptest::prelude::*;
use tta_modelcheck::{Explorer, TransitionSystem, Verdict};

/// A random finite digraph over `0..n` with designated bad states.
#[derive(Debug, Clone)]
struct RandomGraph {
    edges: Vec<Vec<u32>>,
    bad: Vec<bool>,
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
    (2..max_nodes).prop_flat_map(|n| {
        (
            prop::collection::vec(prop::collection::vec(0..n as u32, 0..4), n),
            prop::collection::vec(any::<bool>(), n),
            // Keep violations rare enough that both verdicts occur.
            prop::collection::vec(0.0f64..1.0, n),
        )
            .prop_map(move |(edges, coin, weight)| RandomGraph {
                edges,
                bad: coin
                    .into_iter()
                    .zip(weight)
                    .map(|(c, w)| c && w < 0.15)
                    .collect(),
            })
    })
}

/// Reference reachability: plain DFS over the graph.
fn reference_reachable(graph: &RandomGraph) -> Vec<u32> {
    let mut seen = vec![false; graph.edges.len()];
    let mut stack = vec![0u32];
    seen[0] = true;
    let mut order = Vec::new();
    while let Some(s) = stack.pop() {
        order.push(s);
        for next in &graph.edges[s as usize] {
            if !seen[*next as usize] {
                seen[*next as usize] = true;
                stack.push(*next);
            }
        }
    }
    order.sort_unstable();
    order
}

/// Reference shortest distance to a bad state (BFS).
fn reference_shortest_violation(graph: &RandomGraph) -> Option<usize> {
    use std::collections::VecDeque;
    let mut dist = vec![usize::MAX; graph.edges.len()];
    let mut queue = VecDeque::new();
    dist[0] = 0;
    queue.push_back(0u32);
    if graph.bad[0] {
        return Some(0);
    }
    while let Some(s) = queue.pop_front() {
        for next in &graph.edges[s as usize] {
            if dist[*next as usize] == usize::MAX {
                dist[*next as usize] = dist[s as usize] + 1;
                if graph.bad[*next as usize] {
                    return Some(dist[*next as usize]);
                }
                queue.push_back(*next);
            }
        }
    }
    None
}

proptest! {
    /// The explorer's verdict matches reference reachability of bad
    /// states, and a Violated verdict comes with a minimal-length trace
    /// that really is a path.
    #[test]
    fn bfs_matches_reference(graph in arb_graph(40)) {
        let inv = |s: &u32| !graph.bad[*s as usize];
        let outcome = Explorer::new().check(&graph, inv);
        match reference_shortest_violation(&graph) {
            None => {
                prop_assert_eq!(outcome.verdict, Verdict::Holds);
                prop_assert_eq!(
                    outcome.stats.states_explored as usize,
                    reference_reachable(&graph).len()
                );
            }
            Some(dist) => {
                prop_assert_eq!(outcome.verdict, Verdict::Violated);
                let trace = outcome.counterexample.unwrap();
                prop_assert_eq!(trace.transition_count(), dist, "trace must be shortest");
                prop_assert!(graph.bad[*trace.violating_state() as usize]);
                for (a, b) in trace.transitions() {
                    prop_assert!(
                        graph.edges[*a as usize].contains(b),
                        "trace edge {a}→{b} not in graph"
                    );
                }
            }
        }
    }

    /// Every thread count agrees with the references: verdict, state
    /// count when the property holds, and a shortest trace that really
    /// is a path when it does not.
    #[test]
    fn every_thread_count_matches_the_references(graph in arb_graph(40), threads in 1usize..5) {
        let inv = |s: &u32| !graph.bad[*s as usize];
        let outcome = Explorer::new().threads(threads).chunk_states(3).check(&graph, inv);
        match reference_shortest_violation(&graph) {
            None => {
                prop_assert_eq!(outcome.verdict, Verdict::Holds);
                prop_assert_eq!(
                    outcome.stats.states_explored as usize,
                    reference_reachable(&graph).len()
                );
            }
            Some(dist) => {
                prop_assert_eq!(outcome.verdict, Verdict::Violated);
                let trace = outcome.counterexample.unwrap();
                prop_assert_eq!(trace.transition_count(), dist, "trace must be shortest");
                prop_assert!(graph.bad[*trace.violating_state() as usize]);
                for (x, y) in trace.transitions() {
                    prop_assert!(graph.edges[*x as usize].contains(y));
                }
            }
        }
    }

    /// A depth bound is sound (finds nothing that BFS would not) and
    /// complete up to the bound (finds everything within it), and the
    /// trace it finds is shortest.
    #[test]
    fn depth_bound_is_sound_complete_and_shortest(graph in arb_graph(30), bound in 0u64..20) {
        let inv = |s: &u32| !graph.bad[*s as usize];
        let outcome = Explorer::new().max_depth(bound).check(&graph, inv);
        match reference_shortest_violation(&graph) {
            Some(dist) if (dist as u64) <= bound => {
                prop_assert_eq!(outcome.verdict, Verdict::Violated);
                let trace = outcome.counterexample.unwrap();
                prop_assert_eq!(trace.transition_count(), dist, "trace must be shortest");
                prop_assert!(graph.bad[*trace.violating_state() as usize]);
                for (a, b) in trace.transitions() {
                    prop_assert!(graph.edges[*a as usize].contains(b));
                }
            }
            // Violation beyond the bound (or none at all): the bounded
            // search must not invent one.
            Some(_) | None => prop_assert_ne!(outcome.verdict, Verdict::Violated),
        }
    }

    /// State budgets are hard caps.
    #[test]
    fn budgets_cap_exploration(graph in arb_graph(60), cap in 1u64..20) {
        let outcome = Explorer::new().max_states(cap).check(&graph, |_: &u32| true);
        prop_assert!(outcome.stats.states_explored <= cap);
        if (reference_reachable(&graph).len() as u64) > cap {
            prop_assert_eq!(outcome.verdict, Verdict::BudgetExhausted);
        }
    }
}
