//! `tta-campaignd`: a resumable, sharded fault-injection campaign
//! service.
//!
//! The paper's experiments (E9/E10) are embarrassingly parallel sweeps
//! of independent, seed-deterministic trials. This crate packages that
//! workload as a small local job service:
//!
//! * **`tta_campaignd`** — a daemon listening on a Unix socket for
//!   newline-delimited JSON requests. Each job (scenario + restart
//!   policy + seed range) is sharded into fixed chunks over a worker
//!   pool, streamed back as per-trial NDJSON, and checkpointed to an
//!   append-only journal so a killed sweep resumes without redoing
//!   finished chunks.
//! * **`tta_campaign`** — the client CLI: submit jobs, stream results,
//!   inspect status, benchmark the service.
//!
//! The core invariant, enforced end to end: **a job's deterministic
//! output (per-trial records and summary) is bit-identical for a given
//! seed regardless of worker count, and regardless of whether the sweep
//! ran straight through or was killed and resumed.** Everything in this
//! crate is arranged around that — trials are keyed by derived seed,
//! chunks are adopted in index order, floats render shortest-roundtrip,
//! and the one legitimately non-deterministic line (cache/timing stats)
//! is segregated from the deterministic stream.

pub mod cache;
pub mod chaos;
pub mod client;
pub mod hash;
pub mod journal;
pub mod protocol;
pub mod runner;
pub mod server;
pub mod spec;

/// The JSON codec, re-exported from `tta-base` under its historical path.
pub use tta_base::json;
