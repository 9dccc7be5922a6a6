//! Kill-and-resume determinism, end to end through the real daemon
//! binary: a daemon told to crash (`std::process::abort`, the power-cut
//! stand-in) after two committed chunks dies mid-sweep; a fresh daemon
//! on the same state directory resumes the job and streams **exactly**
//! the bytes an uninterrupted daemon streams — at every worker count.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use tta_campaignd::client::Client;
use tta_campaignd::runner::RunStats;
use tta_campaignd::spec::{JobSpec, ScenarioSource};
use tta_guardian::CouplerAuthority;
use tta_protocol::RestartPolicy;
use tta_sim::{Scenario, Topology};

/// An E10-shaped cell: 24 trials = 3 chunks of 8.
fn job() -> JobSpec {
    JobSpec {
        topology: Topology::Star,
        authority: CouplerAuthority::Passive,
        policy: RestartPolicy::Watchdog { silence_slots: 8 },
        trials: 24,
        slots: 300,
        fault_duration: Some(60),
        ..JobSpec::new(ScenarioSource::Builtin(Scenario::SosSender))
    }
}

struct Daemon {
    child: Child,
    client: Client,
}

impl Daemon {
    fn start(state_dir: &Path, extra: &[&str]) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_tta_campaignd"))
            .arg("--state-dir")
            .arg(state_dir)
            .args(extra)
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn tta_campaignd");
        let client = Client::new(&state_dir.join("daemon.sock"));
        client
            .wait_ready(Duration::from_secs(10))
            .expect("daemon came up");
        Daemon { child, client }
    }

    fn stop(mut self) {
        let _ = self.client.shutdown();
        let _ = self.child.wait();
    }

    /// Waits for the daemon to die on its own (the `kill=N` hook).
    fn reap(mut self) {
        let _ = self.child.wait();
    }
}

fn submit_lines(client: &Client, workers: Option<usize>) -> (Vec<String>, RunStats) {
    let mut lines = Vec::new();
    let result = client
        .submit(&job(), workers, &mut |line| lines.push(line.to_string()))
        .expect("submit succeeds");
    (lines, result.stats)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaignd-kill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_killed_sweep_resumes_to_the_exact_uninterrupted_bytes() {
    // Reference: one uninterrupted run.
    let ref_dir = scratch("ref");
    let daemon = Daemon::start(&ref_dir, &[]);
    let (reference, ref_stats) = submit_lines(&daemon.client, Some(1));
    daemon.stop();
    std::fs::remove_dir_all(&ref_dir).expect("cleanup");
    assert_eq!(ref_stats.cache_hits, 0);
    assert_eq!(ref_stats.computed, 24);
    // accepted + 24 trials + summary.
    assert_eq!(reference.len(), 26);

    for (tag, workers) in [("w1", Some(1)), ("w4", Some(4)), ("auto", None)] {
        let dir = scratch(tag);

        // A daemon armed to abort after the commit that makes its
        // second chunk durable dies mid-sweep; the client sees a
        // truncated stream.
        let doomed = Daemon::start(&dir, &["--chaos", "kill=2"]);
        let error = doomed
            .client
            .submit(&job(), workers, &mut |_| {})
            .expect_err("the daemon aborted mid-sweep");
        let rendered = error.to_string();
        assert!(
            rendered.contains("resubmit") || rendered.contains("socket"),
            "unexpected failure shape: {rendered}"
        );
        doomed.reap();

        // A fresh daemon on the same state directory answers the
        // committed trials from its cache log and streams the reference
        // bytes exactly.
        let daemon = Daemon::start(&dir, &[]);
        let (resumed, stats) = submit_lines(&daemon.client, workers);
        daemon.stop();
        std::fs::remove_dir_all(&dir).expect("cleanup");

        assert_eq!(
            resumed, reference,
            "resumed stream diverged at workers {workers:?}"
        );
        assert!(
            stats.cache_hits >= 16,
            "expected at least the two crashed-past chunks cached, got {} hits",
            stats.cache_hits
        );
        assert_eq!(
            stats.resumed_trials + stats.computed + stats.cache_hits,
            24,
            "every trial is accounted for"
        );
    }
}
