//! Graceful drain on SIGTERM, end to end: a daemon signalled mid-sweep
//! finishes and commits its leased chunks, refuses new work with a
//! *retryable* error, and exits cleanly — and a fresh daemon on the
//! same state directory resumes the interrupted job to the exact
//! uninterrupted byte stream.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;
use tta_campaignd::client::{Client, ReconnectPolicy};
use tta_campaignd::spec::{JobSpec, ScenarioSource};
use tta_guardian::CouplerAuthority;
use tta_protocol::RestartPolicy;
use tta_sim::{Scenario, Topology};

/// Heavier than the kill/resume cell (48 trials x 900 slots = 6
/// chunks) so the SIGTERM reliably lands while chunks are in flight.
/// The faults last to the horizon: a trial whose fault has ended
/// settles and skips its remaining rounds, which would finish the job
/// before the signal lands.
fn job() -> JobSpec {
    JobSpec {
        topology: Topology::Star,
        authority: CouplerAuthority::Passive,
        policy: RestartPolicy::Watchdog { silence_slots: 8 },
        trials: 48,
        slots: 900,
        ..JobSpec::new(ScenarioSource::Builtin(Scenario::SosSender))
    }
}

fn start_daemon(state_dir: &Path, extra: &[&str]) -> (Child, Client) {
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
    (child, client)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaignd-drain-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sigterm_drains_gracefully_and_the_job_resumes_byte_identically() {
    // Reference bytes from an undisturbed run.
    let ref_dir = scratch("ref");
    let (child, client) = start_daemon(&ref_dir, &[]);
    let mut reference = Vec::new();
    client
        .submit_resilient(&job(), Some(1), &ReconnectPolicy::default(), &mut |line| {
            reference.push(line.to_string());
        })
        .expect("clean submit");
    let _ = client.shutdown();
    let _ = { child }.wait();
    std::fs::remove_dir_all(&ref_dir).expect("cleanup");
    assert_eq!(reference.len(), 50); // accepted + 48 trials + summary

    let dir = scratch("term");
    let (mut child, _) = start_daemon(&dir, &[]);

    // Plain (non-resilient) submit in a thread: it should observe the
    // drain as a truncated stream once the daemon winds down.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let submit_dir = dir.clone();
    let submitter = std::thread::spawn(move || {
        let client = Client::new(&submit_dir.join("daemon.sock"));
        let mut seen = 0u32;
        client.submit(&job(), Some(1), &mut |_| {
            seen += 1;
            if seen == 2 {
                let _ = started_tx.send(());
            }
        })
    });

    // SIGTERM once the stream is demonstrably under way.
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("stream started");
    let term = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .expect("run kill");
    assert!(term.success());

    // The daemon exits on its own — no SIGKILL — with a zero status.
    let status = child.wait().expect("daemon reaped");
    assert!(status.success(), "drain must exit cleanly, got {status}");
    let interrupted = submitter.join().expect("submitter thread");

    // A fresh daemon on the same state directory replays the reference
    // bytes exactly; anything the drained daemon committed is answered
    // from its cache log, not recomputed.
    let (child, client) = start_daemon(&dir, &[]);
    let mut resumed = Vec::new();
    let result = client
        .submit_resilient(&job(), Some(1), &ReconnectPolicy::default(), &mut |line| {
            resumed.push(line.to_string());
        })
        .expect("resumed submit");
    let _ = client.shutdown();
    let _ = { child }.wait();
    std::fs::remove_dir_all(&dir).expect("cleanup");

    assert_eq!(resumed, reference, "resume after drain diverged");
    // Usually the drain cuts the stream and the submit errors; on a
    // fast box the job may have finished first, in which case it must
    // have finished *completely* — a drain never truncates silently.
    if let Ok(result) = interrupted {
        assert_eq!(result.trials.len(), 48, "drain truncated a success");
    }
    assert!(
        result.stats.cache_hits >= 8,
        "the drained daemon committed nothing"
    );
}
