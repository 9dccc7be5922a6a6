//! `tta-base`: the dependency-free plumbing every other crate shares.
//!
//! Each piece used to exist in several hand-rolled copies; this crate
//! holds the one copy:
//!
//! * [`json`] — the JSON value type with a deterministic writer and a
//!   strict parser (the campaign wire format, the lint JSON, the bench
//!   catalog);
//! * [`pool`] — [`map_chunks`], the ordered work-stealing pool, and
//!   [`default_threads`], the one read of the host's parallelism;
//! * [`hash`] — FNV-1a and the SplitMix64 finalizer, the stable hashes
//!   behind job ids, cache keys, journal checks, trial seeds and fuzz
//!   corpus keys;
//! * [`diag`] — the rustc-style diagnostics core both linters render
//!   through: severities, lint codes, deny/allow gates, text and JSON.
//!
//! A leaf crate: no dependencies, no features, no `unsafe`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod hash;
pub mod json;
pub mod pool;

pub use pool::{default_threads, map_chunks};
