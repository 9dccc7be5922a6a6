//! `tta-campaignd` — the resumable, sharded fault-injection campaign
//! daemon.
//!
//! Listens on a Unix socket, shards submitted campaign sweeps across a
//! worker pool, streams per-trial results back as NDJSON, checkpoints
//! completed chunks to an append-only journal (a killed daemon resumes
//! without redoing work), and memoizes trials in a content-addressed
//! result cache. See `crates/campaignd/src/lib.rs` for the determinism
//! invariant and DESIGN.md § "Campaign service" for the protocol.
//!
//! SIGTERM (and SIGINT) trigger a graceful *drain*, not an abrupt exit:
//! running jobs finish their leased chunks and checkpoint their
//! journals, new submissions are refused with a retryable error, and
//! the process exits once the last job has wound down. `--chaos`
//! arms deterministic failure injection (see [`ChaosPlan`]) for the
//! self-fault-tolerance test matrix; `--chaos kill=N` aborts the
//! process (a power-cut stand-in) right after the batch commit that
//! journals the Nth chunk, and that batch may journal more than N.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use tta_campaignd::chaos::ChaosPlan;
use tta_campaignd::client::Client;
use tta_campaignd::server::{Server, ServerConfig};

const USAGE: &str = "tta_campaignd [--state-dir DIR] [--socket PATH] [--workers N] \
                     [--base-dir DIR] [--chaos SPEC] \
                     [--trial-deadline-ms N] [--retry-backoff-ms N]";

fn die(why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}

/// Set by the signal handler; a watcher thread turns it into a `drain`
/// request over the daemon's own socket (a handler must not touch the
/// server directly — flag-and-poll is the only async-signal-safe move).
/// Relaxed: a one-way latch polled in a loop; no other data is
/// published through it, and signal handlers cannot use stronger
/// synchronization anyway.
static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_terminate(_signum: i32) {
    DRAIN_REQUESTED.store(true, Ordering::Relaxed);
}

/// Installs `on_terminate` for SIGTERM/SIGINT via a minimal hand-rolled
/// `signal(2)` binding — the libc crate is deliberately not a
/// dependency, and this is the one place the daemon needs the OS API.
fn install_drain_signal_handler() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `signal` is the C standard library's own prototype; the
    // handler only stores to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, on_terminate);
        signal(SIGINT, on_terminate);
    }
}

fn main() {
    let mut state_dir = PathBuf::from(".campaignd");
    let mut socket: Option<PathBuf> = None;
    let mut workers: Option<usize> = None;
    let mut base_dir: Option<PathBuf> = None;
    let mut chaos = ChaosPlan::default();
    let mut trial_deadline: Option<Duration> = None;
    let mut retry_backoff: Option<Duration> = None;

    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--state-dir" => match iter.next() {
                Some(dir) => state_dir = PathBuf::from(dir),
                None => die("--state-dir needs a directory"),
            },
            "--socket" => match iter.next() {
                Some(path) => socket = Some(PathBuf::from(path)),
                None => die("--socket needs a path"),
            },
            "--workers" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => workers = Some(n),
                _ => die("--workers needs a positive integer"),
            },
            "--base-dir" => match iter.next() {
                Some(dir) => base_dir = Some(PathBuf::from(dir)),
                None => die("--base-dir needs a directory"),
            },
            "--chaos" => match iter.next() {
                Some(spec) => match ChaosPlan::parse(&spec) {
                    Ok(plan) => chaos = plan,
                    Err(e) => die(&e.0),
                },
                None => die("--chaos needs a spec (e.g. panic=0.1,timeout=12,seed=7)"),
            },
            "--trial-deadline-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(ms) if ms > 0u64 => trial_deadline = Some(Duration::from_millis(ms)),
                _ => die("--trial-deadline-ms needs a positive integer"),
            },
            "--retry-backoff-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(ms) => retry_backoff = Some(Duration::from_millis(ms)),
                None => die("--retry-backoff-ms needs an integer"),
            },
            other => die(&format!("unknown argument {other}")),
        }
    }

    let mut config = ServerConfig::at(&state_dir);
    if let Some(socket) = socket {
        config.socket = socket;
    }
    if let Some(workers) = workers {
        config.workers = workers;
    }
    if let Some(base_dir) = base_dir {
        config.base_dir = base_dir;
    }
    config.chaos = chaos;
    if let Some(deadline) = trial_deadline {
        config.supervision.trial_deadline = deadline;
    }
    if let Some(backoff) = retry_backoff {
        config.supervision.retry.backoff = backoff;
    }

    let socket = config.socket.clone();
    let workers = config.workers;
    let chaos_active = config.chaos.is_active();
    let server = Server::bind(config).unwrap_or_else(|e| {
        eprintln!("error: cannot start daemon: {e}");
        std::process::exit(1);
    });

    install_drain_signal_handler();
    {
        // The drain watcher: converts the signal flag into a protocol
        // `drain` op against our own socket, then exits. `serve`
        // returns once running jobs have wound down.
        let socket = socket.clone();
        std::thread::spawn(move || loop {
            if DRAIN_REQUESTED.load(Ordering::Relaxed) {
                let _ = Client::new(&socket).drain();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }

    eprintln!(
        "tta-campaignd: listening on {} ({workers} workers, state in {}{})",
        socket.display(),
        state_dir.display(),
        if chaos_active { ", CHAOS ARMED" } else { "" }
    );
    if let Err(e) = server.serve() {
        eprintln!("error: daemon failed: {e}");
        std::process::exit(1);
    }
}
