//! Loom model of the emitter's `workers_live` liveness handshake.
//!
//! `runner.rs`'s emitter drains a channel of finished-chunk sends with
//! `recv_timeout` (committing each batch it takes to disk before
//! streaming it); the channel's sender half lives in the shared
//! `RunCtx`, so disconnection can never signal pool death. What keeps
//! the emitter from stranding is the `workers_live` counter: the
//! spawner increments it (AcqRel) *before* each worker starts, every
//! worker decrements it (AcqRel) as its very last act after its final
//! send, and the emitter only gives up after observing `live == 0`
//! (Acquire) *and* finding the channel empty on a final drain. The
//! model re-states that protocol and checks over every interleaving:
//!
//! * **no lost sends** — a send sequenced before the worker's
//!   decrement is always observed: either by a normal receive or by
//!   the post-zero drain (the Release/Acquire pair on `workers_live`
//!   is what forbids the emitter from seeing zero yet missing the
//!   send);
//! * **termination** — once every worker has exited, the emitter's
//!   next wake always breaks the loop: `live == 0` is a stable-down
//!   latch, so the drain is never strands.
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p tta-campaignd
//! --test loom_supervisor`. Under the vendored offline stub this runs
//! once on plain threads; with the real loom it explores all
//! interleavings.
#![cfg(loom)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;
use std::collections::VecDeque;

/// An mpsc stand-in with the two verbs the emitter uses, `try_recv`
/// and (modeled non-blockingly) `recv_timeout`: loom cannot explore
/// OS-level channel blocking, and the emitter treats a timeout exactly
/// like an empty `try_recv` anyway.
#[derive(Default)]
struct Channel {
    queue: Mutex<VecDeque<u32>>,
}

impl Channel {
    fn send(&self, chunk: u32) {
        self.queue.lock().unwrap().push_back(chunk);
    }

    fn try_recv(&self) -> Option<u32> {
        self.queue.lock().unwrap().pop_front()
    }
}

/// One worker: send its chunks, then — last act, matching
/// `worker_loop`'s final `fetch_sub` — retire from `workers_live`.
fn worker(channel: &Channel, live: &AtomicUsize, chunks: &[u32]) {
    for &chunk in chunks {
        channel.send(chunk);
    }
    live.fetch_sub(1, Ordering::AcqRel);
}

/// The emitter loop, reduced to its termination logic: poll the
/// channel; on "timeout" (empty), check `workers_live`; at zero, do
/// the final drain and stop if nothing more is pending. Returns every
/// chunk received. The spin is bounded only by loom's scheduler — the
/// assertion is that it always terminates with nothing lost.
fn emitter(channel: &Channel, live: &AtomicUsize, expected: usize) -> Vec<u32> {
    let mut got = Vec::new();
    while got.len() < expected {
        if let Some(chunk) = channel.try_recv() {
            got.push(chunk);
            continue;
        }
        // recv_timeout elapsed with nothing queued.
        if live.load(Ordering::Acquire) == 0 {
            // Every worker has exited; whatever they sent is already
            // in the channel. Drain it, then stop for good.
            while let Some(chunk) = channel.try_recv() {
                got.push(chunk);
            }
            break;
        }
        thread::yield_now();
    }
    got
}

/// Two workers, two chunks each: every send must arrive, whichever
/// way the decrements interleave with the emitter's polls.
#[test]
fn workers_live_never_strands_or_drops_sends() {
    loom::model(|| {
        let channel = Arc::new(Channel::default());
        // Spawner protocol: increment BEFORE spawn, so the emitter can
        // never observe zero while a worker with unsent chunks exists.
        let live = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for base in [0u32, 2] {
            live.fetch_add(1, Ordering::AcqRel);
            let channel = Arc::clone(&channel);
            let live = Arc::clone(&live);
            handles.push(thread::spawn(move || {
                worker(&channel, &live, &[base, base + 1]);
            }));
        }

        let got = emitter(&channel, &live, 4);

        for handle in handles {
            handle.join().unwrap();
        }
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![0, 1, 2, 3],
            "every send observed exactly once, none lost to the shutdown race"
        );
    });
}

/// The pathological pool: workers that die without sending anything
/// (the crash/replacement path). The emitter must still terminate —
/// `live` reaching zero with an empty channel is a stop, not a hang.
#[test]
fn emitter_terminates_when_workers_die_silently() {
    loom::model(|| {
        let channel = Arc::new(Channel::default());
        let live = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            live.fetch_add(1, Ordering::AcqRel);
            let live = Arc::clone(&live);
            handles.push(thread::spawn(move || {
                // Dies before producing anything.
                live.fetch_sub(1, Ordering::AcqRel);
            }));
        }
        // Expecting 4 chunks that will never come: the emitter must
        // break out via the live==0 drain path, not spin forever.
        let got = emitter(&channel, &live, 4);
        for handle in handles {
            handle.join().unwrap();
        }
        assert!(got.is_empty(), "nothing was sent, nothing may appear");
    });
}

/// A late worker replacement: the supervisor increments `workers_live`
/// *before* the replacement starts (mirroring `spawn_replacement`), so
/// an emitter mid-drain can never conclude the pool is empty while the
/// replacement's sends are still coming.
#[test]
fn replacement_increment_happens_before_spawn() {
    loom::model(|| {
        let channel = Arc::new(Channel::default());
        let live = Arc::new(AtomicUsize::new(0));

        // Original worker sends one chunk, then retires.
        live.fetch_add(1, Ordering::AcqRel);
        let original = {
            let channel = Arc::clone(&channel);
            let live = Arc::clone(&live);
            thread::spawn(move || {
                channel.send(0);
                // Supervisor-style replacement: bump live for the
                // successor BEFORE retiring this worker, so the count
                // never dips to zero while work remains.
                live.fetch_add(1, Ordering::AcqRel);
                let successor = {
                    let channel = Arc::clone(&channel);
                    let live = Arc::clone(&live);
                    thread::spawn(move || worker(&channel, &live, &[1]))
                };
                live.fetch_sub(1, Ordering::AcqRel);
                successor
            })
        };

        let got = emitter(&channel, &live, 2);
        original.join().unwrap().join().unwrap();
        let mut sorted = got;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1], "the replacement's send must arrive");
    });
}
