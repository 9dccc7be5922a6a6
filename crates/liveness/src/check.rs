//! Fair-cycle detection and the per-property checking algorithms.
//!
//! Every liveness violation in a finite system is a reachable *fair
//! cycle* inside some restriction of the state graph:
//!
//! * `F p` fails iff a fair cycle of `¬p` states is reachable from a
//!   `¬p` initial state through `¬p` states only;
//! * `G (p → F q)` fails iff from some reachable `p ∧ ¬q` state a fair
//!   cycle is reachable *within* the `¬q` states;
//! * `G F p` fails iff any reachable fair cycle avoids `p` entirely
//!   (the prefix may pass through anything);
//! * `G p` is plain safety — a reachable `¬p` state — reported in lasso
//!   form by extending the offending path until a state repeats (or, on
//!   a truncated graph, until the walk reaches a state whose stored
//!   successors were all dropped by the budget, closed as a stutter
//!   cycle there).
//!
//! A cycle is **weakly fair** iff every registered action is either
//! disabled at some state of the cycle or taken by some edge of it.
//! That condition is decidable per SCC without recursion: a component
//! contains a fair cycle iff it contains a cycle at all and, for every
//! action, a member where the action is disabled *or* an internal edge
//! taking it — the witnesses can then be stitched into one closed walk
//! because the component is strongly connected. (This is exactly why
//! the engine restricts itself to weak fairness: under strong fairness
//! the SCC test loses completeness and needs recursive decomposition.)
//!
//! Checking runs in three steps ([`FairGraph::check_all`]). A *label
//! pass* on the calling thread decodes each kept state once and records
//! every atom of every property as one bit per state. The per-property
//! *searches* then share nothing but the read-only graph topology and
//! those bits, so they run on worker threads in any order. Last, the
//! calling thread adopts their id witnesses in property order and
//! decodes the lassos. Each search is a pure function of the graph and
//! its property's bits, so every verdict, lasso and SCC count is the
//! same at any thread count.

use crate::bits::Bits;
use crate::graph::{FairGraph, Topology};
use crate::lasso::Lasso;
use crate::property::{Property, StatePredicate};
use crate::scc::{tarjan_in, NO_COMPONENT};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tta_base::map_chunks;
use tta_modelcheck::{StateCodec, Verdict};

/// Marks an unset parent link in the searches' scratch arrays.
const UNSET: u32 = u32::MAX;

/// Statistics from one liveness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessStats {
    /// Distinct states in the (shared) reachable graph.
    pub states: u64,
    /// Stored edges, synthetic stutter loops included.
    pub edges: u64,
    /// Deadlock states extended with stutter loops.
    pub deadlock_states: u64,
    /// Strongly connected components examined in the restriction.
    pub sccs_examined: u64,
    /// Whether the graph was truncated by the state budget.
    pub truncated: bool,
    /// Wall-clock time to build the graph (shared across checks).
    pub build_time: Duration,
    /// Wall-clock time of the check phase that examined this property:
    /// label pass, search and lasso decoding. The properties of one
    /// [`FairGraph::check_all`] call share one phase, so they report
    /// the same time.
    pub check_time: Duration,
}

/// Outcome of checking one temporal property.
#[derive(Debug, Clone)]
pub struct LivenessOutcome<S> {
    /// `Holds`, `Violated`, or `BudgetExhausted` when the graph was
    /// truncated and no violation was found (a violation found on a
    /// truncated graph is still sound and reported as `Violated`).
    pub verdict: Verdict,
    /// The violating execution, when `verdict == Violated`.
    pub lasso: Option<Lasso<S>>,
    /// Analysis statistics.
    pub stats: LivenessStats,
}

/// One property's search, over atom indices into the label pass's
/// bits: plain data, so it can cross to a worker thread while the
/// predicates stay on the calling one.
#[derive(Debug, Clone, Copy)]
enum Search {
    Always(usize),
    Eventually(usize),
    LeadsTo(usize, usize),
    AlwaysEventually(usize),
}

impl Search {
    /// The search for `property`, appending its atoms to `atoms`.
    fn of<'p, S>(property: &'p Property<S>, atoms: &mut Vec<&'p StatePredicate<S>>) -> Search {
        let mut atom = |p: &'p StatePredicate<S>| {
            atoms.push(p);
            atoms.len() - 1
        };
        match property {
            Property::Always(p) => Search::Always(atom(p)),
            Property::Eventually(p) => Search::Eventually(atom(p)),
            Property::LeadsTo(p, q) => {
                let p = atom(p);
                Search::LeadsTo(p, atom(q))
            }
            Property::AlwaysEventually(p) => Search::AlwaysEventually(atom(p)),
        }
    }
}

/// Where the fair-cycle search starts and how the stem is built.
enum Sources {
    /// Search within the restriction from these states; the stem is the
    /// BFS chain to a source plus the restricted path onward.
    Restricted(Vec<u32>),
    /// Search every kept state; the stem is the plain BFS chain to the
    /// cycle entry (the prefix is unconstrained).
    Anywhere,
}

struct CycleWitness {
    /// Path from an initial state up to (excluding) the cycle entry.
    stem_ids: Vec<u32>,
    /// The cycle as a closed walk; `cycle_ids[0]` is the entry, and the
    /// closing edge `last → entry` exists in the graph — except for a
    /// single-state cycle at a truncation-frontier state, whose closing
    /// self-loop is synthetic (rendered as stutter).
    cycle_ids: Vec<u32>,
}

impl<C: StateCodec> FairGraph<'_, C> {
    /// Checks `property` over this graph's fair executions: the
    /// one-property case of [`Self::check_all`], on the calling thread.
    #[must_use]
    pub fn check(&self, property: &Property<C::State>) -> LivenessOutcome<C::State> {
        let mut outcomes = self.check_all(std::slice::from_ref(property), 1);
        outcomes.pop().expect("one outcome per property")
    }

    /// Checks every property over this graph's fair executions, running
    /// the per-property searches on up to `threads` worker threads.
    /// Outcomes come back in property order and are identical at every
    /// thread count.
    ///
    /// A label pass on the calling thread decodes each kept state once
    /// and records every atom of every property as one bit per state,
    /// so predicates never leave this thread. The searches — restriction
    /// BFS, SCC decomposition, weak-fairness test and fair walk — run on
    /// [`map_chunks`] workers that read only the graph's topology and
    /// those bits. Their id witnesses are adopted in property order and
    /// the lassos decoded afterwards, again on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn check_all(
        &self,
        properties: &[Property<C::State>],
        threads: usize,
    ) -> Vec<LivenessOutcome<C::State>> {
        assert!(threads >= 1, "at least one worker thread is required");
        // detlint: allow(DL02) reason=elapsed-time stats only; reported out-of-band, never part of the verification result
        let start = Instant::now();
        let mut atoms = Vec::new();
        let searches: Vec<Search> = properties
            .iter()
            .map(|p| Search::of(p, &mut atoms))
            .collect();
        let labels = self.label(&atoms);
        let topology = self.topology();
        let found = map_chunks(&searches, 1, threads, &|_, search: &[Search]| {
            topology.search(&labels, search[0])
        });
        let found: Vec<(Option<Lasso<C::State>>, u64)> = found
            .into_iter()
            .map(|(witness, sccs)| (witness.map(|w| self.lasso(&w)), sccs))
            .collect();
        let check_time = start.elapsed();

        let deadlock_states = (0..self.state_count() as u32)
            .filter(|&v| self.is_deadlock(v))
            .count() as u64;
        found
            .into_iter()
            .map(|(lasso, sccs_examined)| LivenessOutcome {
                verdict: if lasso.is_some() {
                    Verdict::Violated
                } else if self.is_truncated() {
                    Verdict::BudgetExhausted
                } else {
                    Verdict::Holds
                },
                lasso,
                stats: LivenessStats {
                    states: self.state_count() as u64,
                    edges: self.edge_count() as u64,
                    deadlock_states,
                    sccs_examined,
                    truncated: self.is_truncated(),
                    build_time: self.build_time(),
                    check_time,
                },
            })
            .collect()
    }

    /// The label pass: `labels[a]` holds the states where atom `a`
    /// holds. Each kept state is decoded once, whatever the number of
    /// atoms.
    fn label(&self, atoms: &[&StatePredicate<C::State>]) -> Vec<Bits> {
        let n = self.state_count();
        let mut labels: Vec<Bits> = atoms.iter().map(|_| Bits::new(n)).collect();
        if atoms.is_empty() {
            return labels;
        }
        for v in 0..n as u32 {
            let state = self.state(v);
            for (atom, bits) in atoms.iter().zip(&mut labels) {
                if atom.holds(&state) {
                    bits.insert(v);
                }
            }
        }
        labels
    }

    /// Decodes an id witness into a lasso.
    fn lasso(&self, w: &CycleWitness) -> Lasso<C::State> {
        // A single-state cycle is synthetic stutter when the graph
        // stores no real self-loop there: deadlock states carry the
        // marked stutter loop, truncation-frontier states store no
        // outgoing edge at all.
        let entry = w.cycle_ids[0];
        let stutter = w.cycle_ids.len() == 1
            && (self.is_deadlock(entry) || !self.neighbors(entry).any(|(t, _)| t == entry));
        Lasso::new(
            w.stem_ids.iter().map(|&v| self.state(v)).collect(),
            w.cycle_ids.iter().map(|&v| self.state(v)).collect(),
            stutter,
        )
    }
}

impl Topology<'_> {
    /// One property's search: the id witness of a violation, if any,
    /// and the number of strongly connected components examined.
    fn search(&self, labels: &[Bits], search: Search) -> (Option<CycleWitness>, u64) {
        match search {
            Search::Always(p) => (self.safety_witness(&labels[p]), 0),
            Search::Eventually(p) => {
                let sources = self
                    .initial
                    .iter()
                    .copied()
                    .filter(|&s| !labels[p].contains(s))
                    .collect();
                self.find_fair_cycle(&labels[p], &Sources::Restricted(sources))
            }
            Search::LeadsTo(p, q) => {
                let sources = (0..self.state_count() as u32)
                    .filter(|&v| labels[p].contains(v) && !labels[q].contains(v))
                    .collect();
                self.find_fair_cycle(&labels[q], &Sources::Restricted(sources))
            }
            Search::AlwaysEventually(p) => self.find_fair_cycle(&labels[p], &Sources::Anywhere),
        }
    }

    /// Safety violation in lasso form: the shortest path to a `¬p`
    /// state, extended greedily until a state repeats or the walk hits
    /// the truncation frontier (both bounded by `n` steps: deadlock
    /// states carry a stutter loop, so only budget-dropped successors
    /// can leave a state without a stored edge). Any extension violates
    /// `G p`; no fairness analysis is needed.
    fn safety_witness(&self, holds: &Bits) -> Option<CycleWitness> {
        let bad = (0..self.state_count() as u32).find(|&v| !holds.contains(v))?;
        let mut path = self.stem_ids_to(bad);
        let mut position = vec![UNSET; self.state_count()];
        for (i, &v) in path.iter().enumerate() {
            position[v as usize] = i as u32;
        }
        loop {
            let cur = *path.last().expect("path starts non-empty");
            let Some((next, _)) = self.neighbors(cur).next() else {
                // Truncation frontier: `cur` has successors in the
                // model, but the `max_states` budget dropped all of
                // them. The `¬p` state is already on the path, so the
                // violation stands; close the lasso as a single-state
                // stutter cycle at the frontier, like a deadlock.
                let entry = path.pop().expect("path starts non-empty");
                return Some(CycleWitness {
                    stem_ids: path,
                    cycle_ids: vec![entry],
                });
            };
            if position[next as usize] != UNSET {
                let at = position[next as usize] as usize;
                let cycle_ids = path.split_off(at);
                return Some(CycleWitness {
                    stem_ids: path,
                    cycle_ids,
                });
            }
            position[next as usize] = path.len() as u32;
            path.push(next);
        }
    }

    /// Finds a weakly-fair cycle among the states outside `avoid`,
    /// reachable as `sources` prescribes, and assembles the full
    /// stem/cycle id witness. The second element counts the strongly
    /// connected components examined, witness or not.
    fn find_fair_cycle(&self, avoid: &Bits, sources: &Sources) -> (Option<CycleWitness>, u64) {
        let n = self.state_count();

        // 1. The active node set, plus restricted-BFS parents when the
        //    search is anchored at sources.
        let mut restricted_parent = Vec::new();
        let active = match sources {
            Sources::Anywhere => Bits::complement(avoid, n),
            Sources::Restricted(srcs) => {
                restricted_parent = vec![UNSET; n];
                let mut seen = Bits::new(n);
                let mut queue = Vec::new();
                for &s in srcs {
                    if !avoid.contains(s) && seen.insert(s) {
                        queue.push(s);
                    }
                }
                let mut head = 0;
                while let Some(&v) = queue.get(head) {
                    head += 1;
                    for (w, _) in self.neighbors(v) {
                        if !avoid.contains(w) && seen.insert(w) {
                            restricted_parent[w as usize] = v;
                            queue.push(w);
                        }
                    }
                }
                seen
            }
        };

        // 2. SCCs of the active subgraph.
        let scc = tarjan_in(self.offsets, self.targets, &active);
        let sccs_examined = scc.count as u64;
        let component = &scc.component;

        // 3. Weak-fairness support per component, in one pass over the
        //    active states and their edges: the actions some member
        //    disables, the actions some internal edge takes, and
        //    whether the component has an internal edge at all — a
        //    cycle, since the component is strongly connected.
        let all = self.all_actions;
        let mut disabled = vec![0u32; scc.count];
        let mut taken = vec![0u32; scc.count];
        let mut cyclic = Bits::new(scc.count);
        for v in 0..n as u32 {
            let c = component[v as usize];
            if c == NO_COMPONENT {
                continue;
            }
            disabled[c as usize] |= !self.enabled_mask(v) & all;
            for (w, label) in self.neighbors(v) {
                if component[w as usize] == c {
                    taken[c as usize] |= label;
                    cyclic.insert(c);
                }
            }
        }
        let fair = |c: u32| {
            c != NO_COMPONENT
                && cyclic.contains(c)
                && (disabled[c as usize] | taken[c as usize]) == all
        };

        // 4. Pick the fair component whose entry (minimal member id) is
        //    shallowest in BFS order, for short stems and determinism:
        //    the one holding the least state of any fair component.
        let Some(entry) = (0..n as u32).find(|&v| fair(component[v as usize])) else {
            return (None, sccs_examined);
        };
        let cid = component[entry as usize];
        let members: Vec<u32> = (entry..n as u32)
            .filter(|&v| component[v as usize] == cid)
            .collect();

        // 5. Stitch a fair closed walk through the component.
        let cycle_ids = self.fair_walk(component, cid, &members);

        // 6. Assemble the stem.
        let stem_ids = match sources {
            Sources::Anywhere => {
                let mut chain = self.stem_ids_to(entry);
                chain.pop();
                chain
            }
            Sources::Restricted(_) => {
                // entry ← restricted parents → some source, then the
                // unrestricted BFS chain from an initial state to it.
                let mut tail = vec![entry];
                let mut cur = entry;
                while restricted_parent[cur as usize] != UNSET {
                    cur = restricted_parent[cur as usize];
                    tail.push(cur);
                }
                tail.reverse();
                let mut chain = self.stem_ids_to(tail[0]);
                chain.extend_from_slice(&tail[1..]);
                chain.pop();
                chain
            }
        };

        (
            Some(CycleWitness {
                stem_ids,
                cycle_ids,
            }),
            sccs_examined,
        )
    }

    /// Builds a closed walk from the component's entry `members[0]`
    /// through component `cid` that witnesses weak fairness of every
    /// action: for each action the walk contains a state where it is
    /// disabled or traverses an edge taking it. `members` lists the
    /// component's states in ascending id order.
    fn fair_walk(&self, component: &[u32], cid: u32, members: &[u32]) -> Vec<u32> {
        let in_comp = |v: u32| component[v as usize] == cid;
        let entry = members[0];
        let mut walk = vec![entry];

        // Fairness support accumulated incrementally as the walk grows:
        // a bit is set once the walk visits a state where the action is
        // disabled or traverses an edge taking it, so no segment is
        // ever rescanned.
        let all = self.all_actions;
        let mut satisfied = !self.enabled_mask(entry) & all;
        for bit in (0..32).map(|i| 1u32 << i).filter(|b| all & b != 0) {
            if satisfied & bit != 0 {
                continue;
            }
            let cur = *walk.last().expect("walk starts at entry");
            if let Some(&w) = members.iter().find(|&&v| self.enabled_mask(v) & bit == 0) {
                // Visit a state where the action is disabled.
                let hop = self.path_in_comp(members, &in_comp, cur, w);
                self.extend_walk(&mut walk, &mut satisfied, hop.into_iter().skip(1));
            } else {
                // Traverse an edge that takes the action (the fairness
                // support test guarantees one exists in the component).
                let (u, v) = members
                    .iter()
                    .find_map(|&u| {
                        self.neighbors(u)
                            .find(|&(v, label)| in_comp(v) && label & bit != 0)
                            .map(|(v, _)| (u, v))
                    })
                    .expect("fair component has an internal edge taking the action");
                let hop = self.path_in_comp(members, &in_comp, cur, u);
                let hop = hop.into_iter().skip(1).chain(std::iter::once(v));
                self.extend_walk(&mut walk, &mut satisfied, hop);
            }
        }

        // Close the walk back at the entry.
        let cur = *walk.last().expect("walk is non-empty");
        if walk.len() == 1 {
            if self.neighbors(entry).any(|(w, _)| w == entry) {
                return walk; // real or stutter self-loop at the entry
            }
            let (first_hop, _) = self
                .neighbors(entry)
                .find(|&(w, _)| in_comp(w))
                .expect("a cyclic component has an internal successor");
            walk.push(first_hop);
            let back = self.path_in_comp(members, &in_comp, first_hop, entry);
            walk.extend(back.into_iter().skip(1));
            walk.pop(); // drop the repeated entry; the closing edge is implicit
        } else if cur == entry {
            walk.pop();
        } else {
            let back = self.path_in_comp(members, &in_comp, cur, entry);
            walk.extend(back.into_iter().skip(1));
            walk.pop();
        }
        walk
    }

    /// Appends `suffix` to the walk (each element must be a graph
    /// successor of its predecessor), folding every traversed edge's
    /// label and every visited state's disabled actions into the
    /// `satisfied` fairness-support mask.
    fn extend_walk(
        &self,
        walk: &mut Vec<u32>,
        satisfied: &mut u32,
        suffix: impl IntoIterator<Item = u32>,
    ) {
        let all = self.all_actions;
        for v in suffix {
            let prev = *walk.last().expect("walk is non-empty");
            *satisfied |= self.edge_label(prev, v) | (!self.enabled_mask(v) & all);
            walk.push(v);
        }
    }

    /// The label of the edge `u → v` (parallel edges share labels, as
    /// labels are a function of the two states).
    fn edge_label(&self, u: u32, v: u32) -> u32 {
        self.neighbors(u)
            .filter(|&(w, _)| w == v)
            .fold(0, |acc, (_, label)| acc | label)
    }

    /// Shortest path `from → to` inside one strongly connected
    /// component (both endpoints inclusive). BFS parents are kept by
    /// position in the ascending `members`, so the scratch is the size
    /// of the component, not of the graph.
    ///
    /// # Panics
    ///
    /// Panics if `to` is unreachable — impossible within an SCC.
    fn path_in_comp(
        &self,
        members: &[u32],
        in_comp: &dyn Fn(u32) -> bool,
        from: u32,
        to: u32,
    ) -> Vec<u32> {
        if from == to {
            return vec![from];
        }
        let slot = |v: u32| members.binary_search(&v).expect("a component member");
        let mut parent = vec![UNSET; members.len()];
        parent[slot(from)] = from;
        let mut queue = VecDeque::from([from]);
        while let Some(v) = queue.pop_front() {
            for (w, _) in self.neighbors(v) {
                if !in_comp(w) || parent[slot(w)] != UNSET {
                    continue;
                }
                parent[slot(w)] = v;
                if w == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while cur != from {
                        cur = parent[slot(cur)];
                        path.push(cur);
                    }
                    path.reverse();
                    return path;
                }
                queue.push_back(w);
            }
        }
        unreachable!("both endpoints lie in one strongly connected component")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::FairAction;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tta_modelcheck::{IdentityCodec, TransitionSystem, DEFAULT_MAX_STATES};

    static CODEC: IdentityCodec<u32> = IdentityCodec::new();

    /// Builds `system`'s fair graph under `fairness`, keeping at most
    /// `max_states` states, and checks `property` on it.
    fn check_within<T>(
        max_states: u64,
        system: &T,
        fairness: &[FairAction<u32>],
        property: &Property<u32>,
    ) -> LivenessOutcome<u32>
    where
        T: TransitionSystem<State = u32> + Sync,
    {
        FairGraph::build(system, &CODEC, fairness, max_states).check(property)
    }

    /// [`check_within`] at the default state budget.
    fn check<T>(
        system: &T,
        fairness: &[FairAction<u32>],
        property: &Property<u32>,
    ) -> LivenessOutcome<u32>
    where
        T: TransitionSystem<State = u32> + Sync,
    {
        check_within(DEFAULT_MAX_STATES, system, fairness, property)
    }

    /// A counter that may stall: `s < 3` offers {stay, advance}; 3 loops.
    struct LazyCounter;
    impl TransitionSystem for LazyCounter {
        type State = u32;
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            if *s < 3 {
                out.extend([*s, *s + 1]);
            } else {
                out.push(3);
            }
        }
    }

    fn advance() -> FairAction<u32> {
        FairAction::new("advance", |a: &u32, b: &u32| *b == a + 1)
    }

    #[test]
    fn eventually_fails_without_fairness() {
        let out = check(
            &LazyCounter,
            &[],
            &Property::eventually("reached 3", |s| *s == 3),
        );
        assert_eq!(out.verdict, Verdict::Violated);
        let lasso = out.lasso.unwrap();
        // The unfair execution stalls forever in the initial state.
        assert!(lasso.cycle().iter().all(|s| *s < 3));
        assert!(!lasso.is_stutter());
    }

    #[test]
    fn eventually_holds_under_weak_fairness() {
        let out = check(
            &LazyCounter,
            &[advance()],
            &Property::eventually("reached 3", |s| *s == 3),
        );
        assert_eq!(out.verdict, Verdict::Holds);
        assert!(out.lasso.is_none());
        assert_eq!(out.stats.states, 4);
        // Tarjan ran over the ¬p restriction {0, 1, 2} even though no
        // fair cycle was found: the SCC count must survive a Holds.
        assert_eq!(out.stats.sccs_examined, 3);
    }

    #[test]
    fn always_violation_comes_back_as_a_lasso() {
        let out = check(
            &LazyCounter,
            &[advance()],
            &Property::always("below 2", |s| *s < 2),
        );
        assert_eq!(out.verdict, Verdict::Violated);
        let lasso = out.lasso.unwrap();
        // BFS gives the shortest stem to the first bad state.
        assert_eq!(lasso.stem(), [0, 1]);
        assert!(lasso.states().any(|s| *s >= 2));
    }

    /// Request/serve: 0 idles or requests; 1 stalls or serves; 2 resets.
    struct ReqServe;
    impl TransitionSystem for ReqServe {
        type State = u32;
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            match s {
                0 => out.extend([0, 1]),
                1 => out.extend([1, 2]),
                _ => out.push(0),
            }
        }
    }

    #[test]
    fn leads_to_depends_on_fairness_of_the_server() {
        let serve = FairAction::new("serve", |a: &u32, b: &u32| *a == 1 && *b == 2);
        let property = Property::leads_to("requested", |s| *s == 1, "served", |s| *s == 2);
        let unfair = check(&ReqServe, &[], &property);
        assert_eq!(unfair.verdict, Verdict::Violated);
        let lasso = unfair.lasso.unwrap();
        // The violating cycle stalls in the requested state; the stem
        // must actually reach a request.
        assert!(lasso.cycle().iter().all(|s| *s == 1));
        assert_eq!(lasso.stem(), [0]);

        let fair = check(&ReqServe, &[serve], &property);
        assert_eq!(fair.verdict, Verdict::Holds);
    }

    #[test]
    fn always_eventually_distinguishes_recurrent_from_escaped() {
        // 0 → {1, 3}; 1 → 2 → 0 (good ring); 3 → 3 (dead loop).
        struct Escape;
        impl TransitionSystem for Escape {
            type State = u32;
            fn initial_states(&self) -> Vec<u32> {
                vec![0]
            }
            fn successors(&self, s: &u32, out: &mut Vec<u32>) {
                match s {
                    0 => out.extend([1, 3]),
                    1 => out.push(2),
                    2 => out.push(0),
                    _ => out.push(3),
                }
            }
        }
        let out = check(
            &Escape,
            &[],
            &Property::always_eventually("at origin", |s| *s == 0),
        );
        assert_eq!(out.verdict, Verdict::Violated);
        let lasso = out.lasso.unwrap();
        assert_eq!(lasso.cycle(), [3]);
        assert_eq!(lasso.stem(), [0]);
        assert!(!lasso.is_stutter());
    }

    #[test]
    fn deadlocks_stutter_and_violate_eventually() {
        // 0 → 1, 1 deadlocks before ever reaching 2.
        struct Stops;
        impl TransitionSystem for Stops {
            type State = u32;
            fn initial_states(&self) -> Vec<u32> {
                vec![0]
            }
            fn successors(&self, s: &u32, out: &mut Vec<u32>) {
                if *s == 0 {
                    out.push(1);
                }
            }
        }
        let out = check(
            &Stops,
            &[advance()],
            &Property::eventually("reached 2", |s| *s == 2),
        );
        assert_eq!(out.verdict, Verdict::Violated);
        let lasso = out.lasso.unwrap();
        assert!(lasso.is_stutter());
        assert_eq!(lasso.cycle(), [1]);
        assert_eq!(lasso.stem(), [0]);
        assert_eq!(out.stats.deadlock_states, 1);
    }

    /// An unbounded counter for truncation behaviour.
    struct Unbounded;
    impl TransitionSystem for Unbounded {
        type State = u32;
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            out.push(s + 1);
        }
    }

    #[test]
    fn truncation_downgrades_holds_to_budget_exhausted() {
        let out = check_within(
            10,
            &Unbounded,
            &[],
            &Property::eventually("reached 1000", |s| *s == 1000),
        );
        assert_eq!(out.verdict, Verdict::BudgetExhausted);
        assert!(out.stats.truncated);
        assert!(out.lasso.is_none());
    }

    #[test]
    fn always_violation_on_truncated_graph_closes_at_the_frontier() {
        // States 0..=9 are kept; 5 violates the invariant, and the
        // greedy extension walks 5 → … → 9, whose only successor (10)
        // was dropped by the budget, so the frontier state has no
        // stored outgoing edge. The checker must return the sound
        // Violated verdict with a stutter cycle there, not panic.
        let out = check_within(
            10,
            &Unbounded,
            &[],
            &Property::always("below 5", |s| *s < 5),
        );
        assert_eq!(out.verdict, Verdict::Violated);
        assert!(out.stats.truncated);
        let lasso = out.lasso.unwrap();
        assert_eq!(lasso.stem(), [0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(lasso.cycle(), [9]);
        assert!(lasso.is_stutter());
    }

    #[test]
    fn violations_on_truncated_graphs_stay_sound() {
        // The stall cycle at 0 is inside any budget; truncation must not
        // block the (sound) violation verdict.
        let out = check_within(
            2,
            &LazyCounter,
            &[],
            &Property::eventually("reached 3", |s| *s == 3),
        );
        assert_eq!(out.verdict, Verdict::Violated);
        assert!(out.stats.truncated);
    }

    #[test]
    fn fair_cycle_must_witness_every_action() {
        // Two independent stalling bits: 0b00 → 0b01/0b10 → 0b11; every
        // state also self-loops. With fairness on both "set" actions the
        // only fair cycle is at 0b11 where both are disabled.
        struct TwoBits;
        impl TransitionSystem for TwoBits {
            type State = u32;
            fn initial_states(&self) -> Vec<u32> {
                vec![0]
            }
            fn successors(&self, s: &u32, out: &mut Vec<u32>) {
                out.push(*s);
                for bit in [1u32, 2] {
                    if s & bit == 0 {
                        out.push(s | bit);
                    }
                }
            }
        }
        let set_lo = FairAction::new("set lo", |a: &u32, b: &u32| a & 1 == 0 && b & 1 != 0);
        let set_hi = FairAction::new("set hi", |a: &u32, b: &u32| a & 2 == 0 && b & 2 != 0);
        let out = check(
            &TwoBits,
            &[set_lo, set_hi],
            &Property::always_eventually("origin", |s| *s == 0),
        );
        // 0 is never revisited; the fair stall is at 3 (both disabled).
        assert_eq!(out.verdict, Verdict::Violated);
        let lasso = out.lasso.unwrap();
        assert_eq!(lasso.cycle(), [3]);
    }

    /// A 300-state mixing system: up to two successors per state and
    /// some deadlocks, enough SCC structure for every search kind.
    struct Mixer;
    impl TransitionSystem for Mixer {
        type State = u32;
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            if s % 47 == 5 {
                return;
            }
            out.push((s * 7 + 3) % 300);
            if !s.is_multiple_of(13) {
                out.push((s + 1) % 300);
            }
        }
    }

    fn mixer_properties() -> Vec<Property<u32>> {
        vec![
            Property::always("below 250", |s| *s < 250),
            Property::always("anything", |_| true),
            Property::eventually("at 299", |s| *s == 299),
            Property::eventually("even", |s| s % 2 == 0),
            Property::leads_to("odd", |s| s % 2 == 1, "multiple of 5", |s| s % 5 == 0),
            Property::leads_to("any", |_| true, "at 0", |s| *s == 0),
            Property::always_eventually("multiple of 3", |s| s % 3 == 0),
            Property::always_eventually("never", |_| false),
        ]
    }

    #[test]
    fn check_all_matches_per_property_checks_at_any_thread_count() {
        for max_states in [1 << 20, 120] {
            let step = FairAction::new("step", |a: &u32, b: &u32| *b == a + 1);
            let graph = FairGraph::build(&Mixer, &CODEC, &[step], max_states);
            assert_eq!(graph.is_truncated(), max_states == 120);
            let properties = mixer_properties();
            let one_by_one: Vec<_> = properties.iter().map(|p| graph.check(p)).collect();
            let verdicts: Vec<Verdict> = one_by_one.iter().map(|o| o.verdict).collect();
            assert!(verdicts.contains(&Verdict::Violated), "{verdicts:?}");
            assert!(
                verdicts.iter().any(|&v| v != Verdict::Violated),
                "{verdicts:?}"
            );
            assert!(one_by_one
                .iter()
                .any(|o| o.lasso.as_ref().is_some_and(Lasso::is_stutter)));
            for threads in [1, 2, 4] {
                let all = graph.check_all(&properties, threads);
                assert_eq!(all.len(), properties.len());
                for (i, (a, b)) in all.iter().zip(&one_by_one).enumerate() {
                    let at = format!("property {i}, {threads} threads, budget {max_states}");
                    assert_eq!(a.verdict, b.verdict, "{at}");
                    assert_eq!(a.lasso, b.lasso, "{at}");
                    assert_eq!(a.stats.sccs_examined, b.stats.sccs_examined, "{at}");
                    assert_eq!(a.stats.check_time, all[0].stats.check_time, "{at}");
                }
            }
        }
    }

    /// An identity codec counting its decodes. The build's layer step
    /// shares the codec with its workers, so the counter is atomic;
    /// `Relaxed` suffices, as it is read only after the workers join.
    #[derive(Default)]
    struct CountingCodec {
        decodes: AtomicU64,
    }
    impl CountingCodec {
        fn decodes(&self) -> u64 {
            self.decodes.load(Ordering::Relaxed)
        }
    }
    impl StateCodec for CountingCodec {
        type State = u32;
        type Encoded = u32;
        fn encode(&self, s: &u32) -> u32 {
            *s
        }
        fn decode(&self, e: &u32) -> u32 {
            self.decodes.fetch_add(1, Ordering::Relaxed);
            *e
        }
    }

    #[test]
    fn check_all_decodes_each_state_once_plus_the_lassos() {
        let codec = CountingCodec::default();
        let graph = FairGraph::build(&Mixer, &codec, &[], 1 << 20);
        // An `Rc` makes this predicate neither `Send` nor `Sync`: it
        // only runs in the label pass on the calling thread.
        let bound = std::rc::Rc::new(250u32);
        let mut properties = mixer_properties();
        properties.push(Property::always("below bound", move |s| *s < *bound));
        for threads in [1, 2] {
            let before = codec.decodes();
            let outcomes = graph.check_all(&properties, threads);
            let lasso_states: usize = outcomes
                .iter()
                .filter_map(|o| o.lasso.as_ref())
                .map(|l| l.stem_len() + l.cycle_len())
                .sum();
            assert!(lasso_states > 0);
            assert_eq!(
                (codec.decodes() - before) as usize,
                graph.state_count() + lasso_states,
                "{threads} threads"
            );
        }
    }
}
