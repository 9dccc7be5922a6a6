//! Weak-fairness constraints over named actions.
//!
//! A [`FairAction`] names a set of transitions (an *action*) via a
//! `taken(from, to)` judgment. The action is considered **enabled** in a
//! state iff at least one of the state's generated successors is reached
//! by taking it; the engine derives enabledness during graph
//! construction rather than asking the caller for a second judgment, so
//! the two can never disagree.
//!
//! The engine enforces **weak fairness** (WF, justice): an execution is
//! fair with respect to an action iff the action is infinitely often
//! disabled or infinitely often taken. Equivalently — and this is the
//! form the cycle check uses — a lasso's cycle is unfair exactly when
//! some action is enabled at *every* state of the cycle yet taken by
//! *none* of its edges. Weak fairness is the right notion for host
//! decisions like "a node allowed to power up eventually does": it rules
//! out the adversary freezing a choice forever without granting the
//! scheduler clairvoyance (strong fairness), and it is checkable per
//! SCC without recursion.

use std::fmt;

/// The engine labels edges with a 32-bit action mask; more than 32
/// weak-fairness constraints per check are rejected at graph build.
pub const MAX_FAIR_ACTIONS: usize = 32;

/// The boxed transition judgment backing a [`FairAction`]. `Send +
/// Sync` so the graph build can evaluate labels on worker threads
/// ([`crate::FairGraph::build_with_threads`]).
type TakenFn<S> = Box<dyn Fn(&S, &S) -> bool + Send + Sync>;

/// A named action subject to weak fairness.
pub struct FairAction<S> {
    name: String,
    taken: TakenFn<S>,
}

impl<S> FairAction<S> {
    /// Wraps a transition judgment as a named fair action.
    pub fn new(
        name: impl Into<String>,
        taken: impl Fn(&S, &S) -> bool + Send + Sync + 'static,
    ) -> Self {
        FairAction {
            name: name.into(),
            taken: Box::new(taken),
        }
    }

    /// The display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the transition `from → to` takes this action.
    #[must_use]
    pub fn taken(&self, from: &S, to: &S) -> bool {
        (self.taken)(from, to)
    }
}

impl<S> fmt::Debug for FairAction<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("FairAction").field(&self.name).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_judge_transitions() {
        let inc = FairAction::new("increment", |a: &u32, b: &u32| *b == a + 1);
        assert!(inc.taken(&3, &4));
        assert!(!inc.taken(&3, &3));
        assert_eq!(inc.name(), "increment");
        assert!(format!("{inc:?}").contains("increment"));
    }
}
