//! # tta-bench
//!
//! Experiment harness for the DSN 2004 reproduction: one `exp_*` binary
//! per table/figure of the paper (see EXPERIMENTS.md for the index), plus
//! [`Runs`], the one writer of the BENCH snapshots' rows, and the one
//! clock every binary times with: [`timed`] for a single call and
//! [`seconds_per_iter`], built on it, for `exp_hotpaths`' repeated ones.
//!
//! | binary | reproduces |
//! |---|---|
//! | `exp_verification` | Section 5.2 verification results (E1, E2) |
//! | `exp_trace_coldstart` | Section 5.2 trace 1 (E3) |
//! | `exp_trace_cstate` | Section 5.2 trace 2 (E4) |
//! | `exp_buffer_limits` | Section 6 equations 5–9 (E6–E8, A1) |
//! | `exp_figure3` | Figure 3 (F3) |
//! | `exp_fault_injection` | Bus-vs-star containment (E9) |
//! | `exp_recovery` | Transient faults × restart policies: availability & recovery (E10) |
//! | `exp_scaling` | State-space scaling, replay-budget sweep (S1) |
//! | `exp_extensions` | Enhanced guardian functions, async masquerade, clock drift (S2) |
//! | `exp_liveness` | Integration liveness under weak fairness, fair-lasso counterexample (S4); fair-graph build and check timings (`BENCH_liveness.json`) |
//! | `tta_fuzz` | Coverage-guided fault-plan fuzzing with shrinking + scenario emission (S7) |
//! | `exp_fuzz` | Restart-policy synthesis over the fuzzed corpus (E11) |
//! | `exp_hotpaths` | Protocol, guardian-buffer, simulator, analysis, explorer and campaign-daemon hot paths (`BENCH_hotpaths.json`) |
//!
//! Run any of them with `cargo run --release -p tta-bench --bin <name>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tta_base::json::Json;
use tta_campaignd::server::{Server, ServerConfig};

mod snapshot;
mod table;

pub use snapshot::{Row, Runs};
pub use table::{check_against_golden, die, CampaignArgs, CampaignCell, CampaignJson};

/// A campaign-service connection for a `--daemon [SOCKET]` invocation,
/// plus the in-process daemon keeping it alive when no socket was
/// given. Hold the handle for as long as the client is used; dropping
/// it shuts the private daemon down.
#[derive(Debug)]
pub struct DaemonSession {
    /// The connected client.
    pub client: tta_campaignd::client::Client,
    /// The private in-process daemon, if this session spun one up.
    handle: Option<tta_campaignd::server::ServerHandle>,
    /// The private state directory, removed on teardown.
    scratch: Option<PathBuf>,
}

impl DaemonSession {
    /// Connects per the parsed `--daemon` flag: to the daemon at the
    /// given socket, or — with no socket — to a [`DaemonSession::private`]
    /// daemon with `--threads` workers. Returns `None` when `--daemon`
    /// was not passed.
    ///
    /// # Panics
    ///
    /// Exits the process with a diagnostic if the daemon cannot be
    /// reached or spawned — these are experiment binaries, and a
    /// missing service is operator error, not a recoverable state.
    #[must_use]
    pub fn from_args(args: &CampaignArgs) -> Option<DaemonSession> {
        use tta_campaignd::client::Client;
        if !args.daemon {
            return None;
        }
        match &args.daemon_socket {
            Some(socket) => {
                let client = Client::new(socket);
                if !client.ping() {
                    eprintln!("error: no campaign daemon answers on {}", socket.display());
                    std::process::exit(1);
                }
                Some(DaemonSession {
                    client,
                    handle: None,
                    scratch: None,
                })
            }
            None => Some(DaemonSession::private(|config| {
                if let Some(threads) = args.threads {
                    config.workers = threads;
                }
            })),
        }
    }

    /// Spawns a private in-process daemon on a fresh temporary state
    /// directory (cold cache, removed on teardown), with the stock
    /// [`ServerConfig`] edited by `configure`, and connects to it.
    ///
    /// # Panics
    ///
    /// Exits the process with a diagnostic if the daemon cannot be
    /// spawned.
    #[must_use]
    pub fn private(configure: impl FnOnce(&mut ServerConfig)) -> DaemonSession {
        // detlint: allow(DL02) reason=scratch-dir nonce for uniqueness only; never reaches any result or report
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let state_dir = std::env::temp_dir().join(format!(
            "campaignd-inproc-{}-{nonce:08x}",
            std::process::id()
        ));
        let mut config = ServerConfig::at(&state_dir);
        configure(&mut config);
        match Server::spawn(config) {
            Ok(handle) => DaemonSession {
                client: tta_campaignd::client::Client::new(handle.socket()),
                handle: Some(handle),
                scratch: Some(state_dir),
            },
            Err(e) => {
                eprintln!("error: cannot spawn in-process campaign daemon: {e}");
                std::process::exit(1);
            }
        }
    }

    /// The private daemon's state directory; `None` for an external
    /// daemon.
    #[must_use]
    pub fn state_dir(&self) -> Option<&Path> {
        self.scratch.as_deref()
    }
}

impl Drop for DaemonSession {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        if let Some(scratch) = self.scratch.take() {
            let _ = std::fs::remove_dir_all(scratch);
        }
    }
}

/// Prints a section heading in the style the experiment binaries share.
pub fn heading(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

/// Formats a duration compactly for experiment output.
#[must_use]
pub fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    } else if d.as_micros() >= 1 {
        format!("{:.0} µs", d.as_secs_f64() * 1e6)
    } else {
        format!("{:.0} ns", d.as_secs_f64() * 1e9)
    }
}

/// [`fmt_duration`] of a time in seconds.
#[must_use]
pub fn fmt_secs(secs: f64) -> String {
    fmt_duration(Duration::from_secs_f64(secs))
}

/// Formats a ratio as a percentage with two decimals (the paper's style:
/// "30.26%").
#[must_use]
pub fn fmt_percent(ratio: f64) -> String {
    format!("{:.2}%", ratio * 100.0)
}

/// Writes a snapshot, exiting with an error line if it cannot.
pub fn write_snapshot(path: &str, snapshot: &Json) {
    std::fs::write(path, snapshot.render_pretty()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote {path}");
}

/// Runs `f` once and returns its result with the wall-clock time it
/// took. The workspace's one benchmark clock read: [`seconds_per_iter`]
/// and every experiment binary's timing column go through it.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    // detlint: allow(DL02) reason=the one benchmark timer; wall-clock is the quantity the experiment binaries report
    let started = Instant::now();
    let result = f();
    (result, started.elapsed())
}

/// Seconds one call of `f` takes. The batch size doubles until a batch
/// runs for at least 10 ms, so the clock read is amortised even for
/// nanosecond calls; the answer is the fastest of five batches of that
/// size, per call. The closure and each result pass through
/// `black_box`, so the compiler can neither hoist a call on captured
/// inputs out of the loop nor delete it. Inputs written as literals in
/// the closure body can still be constant-folded: capture them.
pub fn seconds_per_iter<R>(mut f: impl FnMut() -> R) -> f64 {
    const MIN_BATCH_SECONDS: f64 = 0.01;
    const BATCHES: usize = 5;
    let mut run_batch = |iters: u64| {
        let ((), elapsed) = timed(|| {
            for _ in 0..iters {
                std::hint::black_box(std::hint::black_box(&mut f)());
            }
        });
        elapsed.as_secs_f64()
    };
    let mut iters = 1u64;
    let mut best = run_batch(iters);
    while best < MIN_BATCH_SECONDS {
        iters *= 2;
        best = run_batch(iters);
    }
    for _ in 1..BATCHES {
        best = best.min(run_batch(iters));
    }
    best / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_reports_a_positive_finite_time_for_a_no_op() {
        let secs = seconds_per_iter(|| ());
        assert!(secs.is_finite() && secs > 0.0, "{secs}");
    }

    #[test]
    fn durations_pick_sensible_units() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
        assert_eq!(fmt_duration(Duration::from_millis(15)), "15.0 ms");
        assert_eq!(fmt_duration(Duration::from_micros(250)), "250 µs");
        assert_eq!(fmt_duration(Duration::from_nanos(35)), "35 ns");
    }

    #[test]
    fn percent_matches_paper_style() {
        assert_eq!(fmt_percent(23.0 / 76.0), "30.26%");
        assert_eq!(fmt_percent(23.0 / 2076.0), "1.11%");
    }
}
