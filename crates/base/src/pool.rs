//! The ordered work-stealing pool: the workspace's one scoped-thread
//! pool for deterministic work.
//!
//! The frontier-parallel BFS in `tta-modelcheck`, the chunked
//! `FairGraph` builder in `tta-liveness`, both linters' per-target runs,
//! the fuzzer's batch evaluation and the simulator's campaign trials all
//! split their work into **fixed-size chunks** and let a small pool of
//! scoped threads *steal* chunks off a single atomic counter. Two
//! properties make this the right shape for deterministic work:
//!
//! * **Chunk boundaries depend only on the item list**, never on the
//!   thread count, and every chunk's output is adopted in chunk-index
//!   order after the workers join — so the merged result is a pure
//!   function of the input, bit-identical at any thread count (and
//!   identical to a plain sequential loop).
//! * **Stealing balances skew for free.** Static per-worker splits (the
//!   previous design) stall the whole layer on the slowest contiguous
//!   range; a shared `fetch_add` cursor keeps every worker busy until
//!   the layer is drained, with one uncontended atomic op per ~chunk of
//!   states rather than per state.
//!
//! The claim/adopt handshake — `fetch_add` partitions chunk indices
//! exactly once across workers; results land in their chunk's slot and
//! are read only after the scope joins — is modeled under loom in
//! `tests/loom_merge.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The default worker count: the host's available parallelism, or 1
/// when it cannot be determined. The workspace's only read of the
/// thread environment — every pool size defaults through here.
#[must_use]
pub fn default_threads() -> usize {
    // detlint: allow(DL03) reason=pool sizing only; every pool reassembles results in input order, so output is identical at any worker count
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `worker` over `items` split into `chunk_size`-sized chunks on up
/// to `threads` scoped threads, returning the outputs **in chunk-index
/// order** regardless of which worker processed which chunk.
///
/// `worker` receives the chunk index and the chunk slice. With one
/// thread (or a single chunk) everything runs inline on the calling
/// thread — same partitioning, same output, no spawn cost.
///
/// # Panics
///
/// Panics if `chunk_size` is zero or a worker thread panics.
pub fn map_chunks<T, O, F>(items: &[T], chunk_size: usize, threads: usize, worker: &F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(usize, &[T]) -> O + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = items.len().div_ceil(chunk_size);
    if threads <= 1 || n_chunks <= 1 {
        return items
            .chunks(chunk_size)
            .enumerate()
            .map(|(i, chunk)| worker(i, chunk))
            .collect();
    }

    // Relaxed claim counter: fetch_add uniqueness is the only property
    // used; each claimed chunk's result is published through the
    // per-worker Vec joined below, not through this atomic.
    let next = AtomicUsize::new(0);
    let workers = threads.min(n_chunks);
    let parts: Vec<Vec<(usize, O)>> = std::thread::scope(|scope| {
        let next = &next;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut claimed = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks {
                            break;
                        }
                        let chunk = &items[i * chunk_size..((i + 1) * chunk_size).min(items.len())];
                        claimed.push((i, worker(i, chunk)));
                    }
                    claimed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chunk worker panicked"))
            .collect()
    });

    // Adoption: every chunk index was claimed by exactly one worker;
    // reassemble the outputs in chunk order.
    let mut slots: Vec<Option<O>> = (0..n_chunks).map(|_| None).collect();
    for part in parts {
        for (i, out) in part {
            debug_assert!(slots[i].is_none(), "chunk {i} claimed twice");
            slots[i] = Some(out);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every chunk is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_in_chunk_order_at_any_thread_count() {
        let items: Vec<u32> = (0..10_000).collect();
        let sequential = map_chunks(&items, 64, 1, &|i, chunk: &[u32]| {
            (i, chunk.iter().sum::<u32>())
        });
        for threads in [2, 3, 8] {
            let parallel = map_chunks(&items, 64, threads, &|i, chunk: &[u32]| {
                (i, chunk.iter().sum::<u32>())
            });
            assert_eq!(parallel, sequential, "{threads} threads");
        }
    }

    #[test]
    fn chunk_boundaries_are_thread_count_independent() {
        let items: Vec<u32> = (0..300).collect();
        let bounds = |threads| {
            map_chunks(&items, 128, threads, &|_, chunk: &[u32]| {
                (chunk[0], chunk[chunk.len() - 1])
            })
        };
        assert_eq!(bounds(1), vec![(0, 127), (128, 255), (256, 299)]);
        assert_eq!(bounds(4), bounds(1));
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let out = map_chunks(&[] as &[u32], 16, 4, &|_, _: &[u32]| 1u8);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_chunks_is_fine() {
        let items = [1u32, 2, 3];
        let out = map_chunks(&items, 1, 64, &|_, chunk: &[u32]| chunk[0] * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
