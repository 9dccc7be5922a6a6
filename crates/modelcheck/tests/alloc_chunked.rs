//! Allocation regression test for the explorer's chunked layer step on
//! two threads, counted on every thread.
//!
//! Each frontier chunk is expanded on a worker into one batched proposal
//! vector, filtered through one chunk-local table, grouped by index
//! shard, then merged. Those
//! per-chunk buffers are exactly what an O(n) regression would turn
//! into per-state allocations, and they are allocated on the workers,
//! so the counter here is process-wide. That only measures one test if
//! nothing else runs in the process: this binary has no test harness
//! (`harness = false`), and `main` runs the one check.
//!
//! (The library forbids `unsafe`; a `GlobalAlloc` impl needs it, which
//! is exactly why this lives in an integration test.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tta_modelcheck::{Explorer, StateCodec, TransitionSystem, Verdict};

struct CountingAllocator;

/// Allocations made so far by every thread of the process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to the `System` allocator
// (which upholds the `GlobalAlloc` contract) after bumping an atomic
// counter, which never allocates, so no reentrancy.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller contract forwarded unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` originate from `System` via our
        // `alloc`; `new_size` is passed through untouched.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A grid whose state is heap-free; successors write into the reused
/// buffer, so the only allocations left are the explorer's own.
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

fn main() {
    print!("test chunked_exploration_does_not_allocate_per_state ... ");
    // 64-state chunks split every layer wider than 64 states across
    // both workers, so the count covers worker-side allocations.
    let grid = Grid { bound: 100 };
    let explorer = Explorer::new().threads(2).chunk_states(64);
    // Warm up lazy runtime allocations (stdout locks etc.) outside the
    // measured window.
    let warmup = explorer.check_with_codec(&grid, &PackCodec, |_: &(u32, u32)| true);
    assert_eq!(warmup.verdict, Verdict::Holds);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = explorer.check_with_codec(&grid, &PackCodec, |_: &(u32, u32)| true);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(outcome.verdict, Verdict::Holds);
    assert_eq!(outcome.stats.states_explored, 101 * 101);
    // 10k states over ~200 layers and ~275 chunks: a few allocations
    // per chunk (the proposal batch, its hashes and shard grouping, the
    // filter table, the successor buffer), per layer (the chunk-output
    // slots, the merge's repeat table) and per worker spawn land in the
    // low thousands; one-allocation-per-state designs cost ≥ 10k.
    assert!(
        spent < 4_000,
        "chunked exploration of {} states allocated {spent} times — per-state allocation regression",
        outcome.stats.states_explored
    );
    println!("ok ({spent} allocations)");
}
