//! Allocation regression test for the interned visited set.
//!
//! The old visited-set design cloned every state twice (hash-map key +
//! parent link) and allocated per insert; the arena design stores one
//! encoded state in flat vectors. With a packing codec whose encoding is
//! `Copy`, exploration must perform O(log n) allocations (vector
//! doublings and rehashes) — *not* O(n). This test pins that with a
//! counting global allocator: a per-state-allocating regression fails it
//! by two orders of magnitude.
//!
//! (The library forbids `unsafe`; a `GlobalAlloc` impl needs it, which
//! is exactly why this lives in an integration test.)
//!
//! The count is per thread: the test harness runs these tests
//! concurrently, and a shared counter would charge one test's
//! allocations to another's measurement window. The parallel
//! explorer's allocations happen on its worker threads too, so its test
//! lives in `alloc_chunked.rs`, a binary of its own with a
//! process-wide counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tta_modelcheck::{Explorer, StateCodec, TransitionSystem, Verdict};

struct CountingAllocator;

thread_local! {
    // `const`-initialized and drop-free: bumping it never allocates and
    // never registers a destructor, so the allocator cannot reenter.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread.
fn bump() {
    // `try_with` only fails during thread teardown, when there is no
    // measurement window left to charge.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method delegates verbatim to the `System` allocator
// (which upholds the `GlobalAlloc` contract) after bumping a
// thread-local counter; the counter itself never allocates, so no
// reentrancy.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller contract forwarded unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same `layout`, same contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller contract forwarded unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from our `alloc`, which delegated
        // to `System`, so they are valid for `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller contract forwarded unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` originate from `System` via our
        // `alloc`; `new_size` is passed through untouched.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A grid whose state is heap-free; successors write into the reused
/// buffer, so the only allocations left are the visited set's own.
struct Grid {
    bound: u32,
}

impl TransitionSystem for Grid {
    type State = (u32, u32);

    fn initial_states(&self) -> Vec<(u32, u32)> {
        vec![(0, 0)]
    }

    fn successors(&self, s: &(u32, u32), out: &mut Vec<(u32, u32)>) {
        if s.0 < self.bound {
            out.push((s.0 + 1, s.1));
        }
        if s.1 < self.bound {
            out.push((s.0, s.1 + 1));
        }
    }
}

/// Packs a grid coordinate into one word; encode is allocation-free.
#[derive(Debug, Clone, Copy)]
struct PackCodec;

impl StateCodec for PackCodec {
    type State = (u32, u32);
    type Encoded = u64;

    fn encode(&self, s: &(u32, u32)) -> u64 {
        u64::from(s.0) << 32 | u64::from(s.1)
    }

    fn decode(&self, e: &u64) -> (u32, u32) {
        ((e >> 32) as u32, *e as u32)
    }
}

#[test]
fn interned_exploration_does_not_allocate_per_state() {
    let grid = Grid { bound: 100 };
    // Warm up lazy runtime allocations (stdout locks etc.) outside the
    // measured window.
    let warmup = Explorer::new().check_with_codec(&grid, &PackCodec, |_: &(u32, u32)| true);
    assert_eq!(warmup.verdict, Verdict::Holds);

    let before = allocations();
    let outcome = Explorer::new().check_with_codec(&grid, &PackCodec, |_: &(u32, u32)| true);
    let spent = allocations() - before;

    assert_eq!(outcome.verdict, Verdict::Holds);
    assert_eq!(outcome.stats.states_explored, 101 * 101);
    // 10k states. Doubling vectors + rehashes + per-layer frontier vecs
    // cost a few hundred allocations; one-allocation-per-state designs
    // cost ≥ 10k. Generous slack keeps the test robust across allocator
    // and std versions while still catching an O(n) regression.
    assert!(
        spent < 2_000,
        "exploring {} states allocated {spent} times — per-state allocation regression",
        outcome.stats.states_explored
    );
}

#[test]
fn delta_exploration_does_not_allocate_per_state() {
    // The delta arena stores xor-deltas in one growing payload vector;
    // reconstruction uses a fixed stack buffer. Its allocation profile
    // must match the plain arena's: vector doublings and rehashes only.
    let grid = Grid { bound: 100 };
    let warmup = Explorer::new().check_with_delta_codec(&grid, &PackCodec, |_: &(u32, u32)| true);
    assert_eq!(warmup.verdict, Verdict::Holds);

    let before = allocations();
    let outcome = Explorer::new().check_with_delta_codec(&grid, &PackCodec, |_: &(u32, u32)| true);
    let spent = allocations() - before;

    assert_eq!(outcome.verdict, Verdict::Holds);
    assert_eq!(outcome.stats.states_explored, 101 * 101);
    assert!(
        spent < 2_000,
        "delta exploration of {} states allocated {spent} times — per-state allocation regression",
        outcome.stats.states_explored
    );
}

#[test]
fn counter_sees_per_state_allocations_when_they_happen() {
    // Sanity-check the instrument itself: exploring heap-carrying states
    // through the identity codec *must* allocate at least once per state
    // (each visited state owns a Vec). If this fails, the counting
    // allocator is not measuring what the regression test assumes.
    struct HeapGrid {
        bound: u32,
    }

    impl TransitionSystem for HeapGrid {
        type State = Vec<u32>;

        fn initial_states(&self) -> Vec<Vec<u32>> {
            vec![vec![0, 0]]
        }

        fn successors(&self, s: &Vec<u32>, out: &mut Vec<Vec<u32>>) {
            if s[0] < self.bound {
                out.push(vec![s[0] + 1, s[1]]);
            }
            if s[1] < self.bound {
                out.push(vec![s[0], s[1] + 1]);
            }
        }
    }

    let grid = HeapGrid { bound: 30 };
    let before = allocations();
    let outcome = Explorer::new().check(&grid, |_: &Vec<u32>| true);
    let spent = allocations() - before;

    assert_eq!(outcome.stats.states_explored, 31 * 31);
    assert!(
        spent >= outcome.stats.states_explored,
        "identity-interned heap states must allocate per state, saw {spent}"
    );
}
