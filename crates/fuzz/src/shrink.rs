//! Delta-debugging shrinker: reduces an interesting input to a
//! 1-minimal one while preserving a caller-supplied predicate.
//!
//! The reduction passes are, in order: drop whole events, simplify
//! persistence to plain transient, then narrow windows (binary halves
//! first, single slots last, both ends). The passes repeat to a
//! fixpoint; termination *is* the minimality certificate, because a
//! fixpoint means every single-step reduction — removing any one
//! remaining event, or narrowing any remaining window by one slot —
//! was tried against the predicate and failed. The proptests in
//! `tests/shrink_prop.rs` re-verify that certificate independently via
//! [`is_one_minimal`].
//!
//! The predicate is re-executed, never assumed: shrinking an
//! availability cliff re-runs the simulator at every step, exactly as
//! classic delta debugging re-runs the failing test.

use crate::input::FuzzInput;

/// Shrinks `input` to a 1-minimal input still satisfying `keeps`.
///
/// `keeps(input)` must hold on entry; the result always satisfies
/// `keeps` and no single-event removal or one-slot window narrowing of
/// the result does.
pub fn shrink<F: FnMut(&FuzzInput) -> bool>(input: &FuzzInput, mut keeps: F) -> FuzzInput {
    debug_assert!(keeps(input), "shrink requires an interesting input");
    let mut current = input.clone();
    loop {
        let mut changed = false;

        // Pass 1: drop events, last first so indices stay stable.
        let mut i = current.events.len();
        while i > 0 {
            i -= 1;
            let mut candidate = current.clone();
            candidate.events.remove(i);
            if keeps(&candidate) {
                current = candidate;
                changed = true;
            }
        }

        // Pass 2: simplify persistence — a transient window is the
        // weakest temporal shape, so prefer it whenever it suffices.
        for i in 0..current.events.len() {
            if current.events[i].persistence != tta_sim::FaultPersistence::Transient {
                let mut candidate = current.clone();
                candidate.events[i].persistence = tta_sim::FaultPersistence::Transient;
                if keeps(&candidate) {
                    current = candidate;
                    changed = true;
                }
            }
        }

        // Pass 3: narrow windows. Halving gets within a factor of two
        // cheaply; the single-slot trims establish 1-minimality.
        for i in 0..current.events.len() {
            changed |= narrow(&mut current, i, &mut keeps);
        }

        if !changed {
            return current;
        }
    }
}

/// Narrows one event's window as far as the predicate allows. Returns
/// whether anything changed.
fn narrow<F: FnMut(&FuzzInput) -> bool>(current: &mut FuzzInput, i: usize, keeps: &mut F) -> bool {
    let mut changed = false;
    // Halve from the right.
    loop {
        let event = current.events[i];
        let width = event.to_slot - event.from_slot;
        if width <= 1 {
            break;
        }
        let mut candidate = current.clone();
        candidate.events[i].to_slot = event.from_slot + width.div_ceil(2);
        if keeps(&candidate) {
            *current = candidate;
            changed = true;
        } else {
            break;
        }
    }
    // Halve from the left.
    loop {
        let event = current.events[i];
        let width = event.to_slot - event.from_slot;
        if width <= 1 {
            break;
        }
        let mut candidate = current.clone();
        candidate.events[i].from_slot = event.to_slot - width.div_ceil(2);
        if keeps(&candidate) {
            *current = candidate;
            changed = true;
        } else {
            break;
        }
    }
    // Single-slot trims, both ends.
    loop {
        let event = current.events[i];
        if event.to_slot - event.from_slot <= 1 {
            break;
        }
        let mut candidate = current.clone();
        candidate.events[i].to_slot -= 1;
        if keeps(&candidate) {
            *current = candidate;
            changed = true;
            continue;
        }
        let mut candidate = current.clone();
        candidate.events[i].from_slot += 1;
        if keeps(&candidate) {
            *current = candidate;
            changed = true;
            continue;
        }
        break;
    }
    changed
}

/// Checks 1-minimality directly: `keeps` holds on `input`, fails when
/// any single event is removed, and fails when any single window is
/// narrowed by one slot (either end). Windows already one slot wide
/// cannot narrow further and are vacuously minimal.
pub fn is_one_minimal<F: FnMut(&FuzzInput) -> bool>(input: &FuzzInput, mut keeps: F) -> bool {
    if !keeps(input) {
        return false;
    }
    for i in 0..input.events.len() {
        let mut removed = input.clone();
        removed.events.remove(i);
        if keeps(&removed) {
            return false;
        }
        if input.events[i].to_slot - input.events[i].from_slot > 1 {
            let mut trimmed = input.clone();
            trimmed.events[i].to_slot -= 1;
            if keeps(&trimmed) {
                return false;
            }
            let mut trimmed = input.clone();
            trimmed.events[i].from_slot += 1;
            if keeps(&trimmed) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_guardian::CouplerFaultMode;
    use tta_sim::{FaultEvent, FaultPersistence, FaultTarget};

    fn event(channel: usize, from: u64, to: u64) -> FaultEvent {
        FaultEvent {
            target: FaultTarget::Coupler {
                channel,
                mode: CouplerFaultMode::Silence,
            },
            from_slot: from,
            to_slot: to,
            persistence: FaultPersistence::Transient,
        }
    }

    #[test]
    fn shrinks_to_the_single_load_bearing_event() {
        let input = FuzzInput {
            events: vec![event(0, 10, 200), event(1, 250, 300), event(0, 310, 320)],
        };
        // Interesting: some channel-0 event covers slot 42.
        let keeps = |input: &FuzzInput| {
            input.events.iter().any(|e| {
                matches!(e.target, FaultTarget::Coupler { channel: 0, .. })
                    && (e.from_slot..e.to_slot).contains(&42)
            })
        };
        let shrunk = shrink(&input, keeps);
        assert_eq!(shrunk.events.len(), 1);
        assert_eq!(
            (shrunk.events[0].from_slot, shrunk.events[0].to_slot),
            (42, 43)
        );
        assert!(is_one_minimal(&shrunk, keeps));
    }

    #[test]
    fn persistence_simplifies_when_transient_suffices() {
        let mut permanent = event(0, 50, 60);
        permanent.persistence = FaultPersistence::Permanent;
        let input = FuzzInput {
            events: vec![permanent],
        };
        let keeps = |input: &FuzzInput| !input.events.is_empty();
        let shrunk = shrink(&input, keeps);
        assert_eq!(shrunk.events[0].persistence, FaultPersistence::Transient);
        assert_eq!(
            shrunk.events[0].to_slot - shrunk.events[0].from_slot,
            1,
            "window narrowed to one slot"
        );
    }

    #[test]
    fn minimality_checker_rejects_padded_inputs() {
        let input = FuzzInput {
            events: vec![event(0, 10, 50), event(1, 60, 70)],
        };
        // Only the first event matters.
        let keeps = |input: &FuzzInput| {
            input
                .events
                .iter()
                .any(|e| matches!(e.target, FaultTarget::Coupler { channel: 0, .. }))
        };
        assert!(!is_one_minimal(&input, keeps));
    }
}
