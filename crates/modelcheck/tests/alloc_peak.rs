//! Peak-memory regression test for the visited set: growing the hash
//! index must never hold two whole index tables at once.
//!
//! The index is sharded: each of its tables doubles on its own, so a
//! doubling holds one shard's old table beside its new one, not the
//! whole old index. A single table that doubled as a whole would, just
//! past its 3/4-load threshold, hold the old table (half the final one)
//! beside the new one, and push the walk's high-water mark of live bytes
//! a third above the arena's final footprint. This test walks a
//! word-encoded grid of 100,489 states, just past the 98,304-state
//! threshold of a 2^17-slot table (and of the 2^11-slot shard tables),
//! and bounds the peak by that footprint plus a small margin.
//!
//! The allocator counts live bytes on every thread, so this binary has
//! no test harness (`harness = false`) and `main` runs the one check.
//! (The library forbids `unsafe`; a `GlobalAlloc` impl needs it, which
//! is why this lives in an integration test.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tta_modelcheck::{Explorer, Flow, StateCodec, Target, TransitionSystem, Walk, WordArena};

struct PeakAllocator;

/// Bytes allocated and not yet freed, by every thread of the process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The high-water mark of [`LIVE`] since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts `bytes` more live bytes and raises the high-water mark.
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method delegates verbatim to the `System` allocator
// (which upholds the `GlobalAlloc` contract) after updating two atomic
// counters, which never allocate, so no reentrancy.
unsafe impl GlobalAlloc for PeakAllocator {
    // SAFETY: caller contract forwarded unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: same `layout`, same contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller contract forwarded unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from our `alloc`, which delegated
        // to `System`, so they are valid for `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller contract forwarded unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A vector's growth counts as its new capacity only, whether
        // the block moves or not: this test is about the index tables.
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` originate from `System` via our
        // `alloc`; `new_size` is passed through untouched.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAllocator = PeakAllocator;

/// A grid of `(bound + 1)²` heap-free states, each stepping to its right
/// and upper neighbours: layers of at most `bound + 1` states.
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

/// Packs a grid coordinate into one word, the word arena's row.
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

/// A walk that records nothing: the arena is the only thing that grows.
struct Bare;

impl Walk<(u32, u32)> for Bare {
    type Chunk = ();

    fn expanded(&self, (): &mut (), _: Option<&(u32, u32)>, _: &[(u32, u32)], _: &[Target]) {}

    fn adopt(&mut self, (): (), _: &[Option<u32>]) -> Flow {
        Flow::Continue
    }
}

fn main() {
    print!("test visited_set_never_holds_two_index_tables ... ");
    let grid = Grid { bound: 316 };
    let explorer = Explorer::new().threads(2).chunk_states(64);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut arena: WordArena<u64> = WordArena::new();
    let walked = explorer.walk(&grid, &PackCodec, &mut arena, &mut Bare);
    let footprint = LIVE.load(Ordering::Relaxed) - base;
    let peak = PEAK.load(Ordering::Relaxed) - base;

    assert_eq!(walked.stats.states_explored, 317 * 317);
    // The final footprint is the arena alone: rows, parents and index
    // (3.5 MiB here, 2 MiB of it the index). The margin covers one
    // shard's old table and the layer step's buffers; a whole old index
    // table is 1 MiB.
    let margin = footprint / 16;
    assert!(
        peak <= footprint + margin,
        "the walk peaked at {peak} live bytes, {} over the arena's final {footprint} \
         (margin {margin}): a whole index table was held twice",
        peak - footprint
    );
    println!("ok (peak {peak} bytes, final footprint {footprint})");
    drop(arena);
}
