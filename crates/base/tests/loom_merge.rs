//! Loom model of the work-stealing chunk-claim handshake.
//!
//! `map_chunks` (src/pool.rs) is the only concurrency in the parallel
//! explorer, the chunked `FairGraph` builder, the linters, the fuzzer's
//! batch evaluation and the simulator's campaigns: workers claim chunk
//! indices off one `AtomicUsize` with `fetch_add`, stash each chunk's
//! output tagged with its index, and the caller adopts the outputs in
//! chunk-index order after the scope joins. Everything downstream
//! (merge order, determinism, budget semantics) is sequential code that
//! relies on exactly two properties of this handshake, re-stated here
//! as a loom model and checked over every interleaving:
//!
//! * **exactly-once partition** — every chunk index in `0..n_chunks`
//!   is claimed by exactly one worker: no index is lost, none is
//!   processed twice;
//! * **order-independent adoption** — reassembling the tagged outputs
//!   in index order yields the same sequence no matter which worker
//!   claimed which chunk or in which order they ran.
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p tta-base
//! --test loom_merge`. Under the vendored offline stub this runs once
//! on plain threads; with the real loom it explores all interleavings.
#![cfg(loom)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

/// The worker loop of `map_chunks`, reduced to its shared-state
/// essence: steal indices until the counter runs past the chunk count,
/// record `(index, output)` pairs.
fn claim_worker(next: &AtomicUsize, n_chunks: usize) -> Vec<(usize, usize)> {
    let mut claimed = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n_chunks {
            break;
        }
        // The "output" is a pure function of the chunk index, as in the
        // real scheduler (chunk boundaries depend only on the items).
        claimed.push((i, i * 10));
    }
    claimed
}

fn run_model(n_chunks: usize, workers: usize) {
    loom::model(move || {
        let next = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = Arc::clone(&next);
                thread::spawn(move || claim_worker(&next, n_chunks))
            })
            .collect();
        let parts: Vec<Vec<(usize, usize)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        // Exactly-once partition: adopting into slots must fill every
        // slot exactly once.
        let mut slots: Vec<Option<usize>> = vec![None; n_chunks];
        for part in &parts {
            for &(i, out) in part {
                assert!(i < n_chunks, "claimed index {i} out of range");
                assert!(slots[i].is_none(), "chunk {i} claimed twice");
                slots[i] = Some(out);
            }
        }
        let adopted: Vec<usize> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("chunk {i} never claimed")))
            .collect();

        // Order-independent adoption: the reassembled sequence is the
        // sequential result, whatever the interleaving did.
        let expected: Vec<usize> = (0..n_chunks).map(|i| i * 10).collect();
        assert_eq!(adopted, expected, "adoption order diverged");

        // The claim counter overshoots by at most one failed claim per
        // worker — the loop's exit reads — and never loses a claim.
        let final_count = next.load(Ordering::Relaxed);
        assert!(
            final_count >= n_chunks && final_count <= n_chunks + workers,
            "counter drifted: {final_count} for {n_chunks} chunks / {workers} workers"
        );
    });
}

#[test]
fn chunk_claims_partition_exactly_once_two_workers() {
    // More chunks than workers: stealing must cover the tail.
    run_model(4, 2);
}

#[test]
fn chunk_claims_partition_exactly_once_three_workers() {
    // More workers than chunks: the surplus workers must exit without
    // claiming and without disturbing the partition.
    run_model(2, 3);
}

#[test]
fn single_chunk_is_claimed_by_exactly_one_worker() {
    run_model(1, 2);
}
