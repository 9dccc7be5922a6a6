//! Client-side resilience, end to end: a daemon that dies mid-stream
//! (the `--chaos kill=2` power-cut hook) takes the connection
//! with it; `submit_resilient` backs off, reconnects to the restarted
//! daemon, resumes the job from its journal, and hands the caller the
//! exact byte stream an uninterrupted daemon would have produced —
//! with every already-observed line de-duplicated.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use tta_campaignd::client::{Client, ReconnectPolicy};
use tta_campaignd::spec::{JobSpec, ScenarioSource};
use tta_guardian::CouplerAuthority;
use tta_protocol::RestartPolicy;
use tta_sim::{Scenario, Topology};

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
    let dir =
        std::env::temp_dir().join(format!("campaignd-reconnect-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_client_rides_out_a_daemon_restart_and_assembles_the_clean_bytes() {
    // Reference bytes from an undisturbed daemon.
    let ref_dir = scratch("ref");
    let (child, client) = start_daemon(&ref_dir, &[]);
    let mut reference = Vec::new();
    client
        .submit_resilient(&job(), Some(2), &ReconnectPolicy::default(), &mut |line| {
            reference.push(line.to_string());
        })
        .expect("clean submit");
    let _ = client.shutdown();
    let _ = { child }.wait();
    std::fs::remove_dir_all(&ref_dir).expect("cleanup");
    assert_eq!(reference.len(), 26);

    // A doomed daemon aborts after journaling two chunks, mid-stream.
    let dir = scratch("crash");
    let (doomed, _) = start_daemon(&dir, &["--chaos", "kill=2"]);

    // The resilient submit runs concurrently with the crash + restart;
    // give it enough patience to cover the restart below.
    let submit_dir = dir.clone();
    let submitter = std::thread::spawn(move || {
        let client = Client::new(&submit_dir.join("daemon.sock"));
        let policy = ReconnectPolicy {
            max_attempts: 10,
            base: Duration::from_millis(100),
            ..ReconnectPolicy::default()
        };
        let mut lines = Vec::new();
        let result = client.submit_resilient(&job(), Some(2), &policy, &mut |line| {
            lines.push(line.to_string());
        });
        (lines, result)
    });

    // Wait out the abort, then bring a fresh daemon up on the same
    // state directory and socket while the client is still retrying.
    let _ = { doomed }.wait();
    let (child, client) = start_daemon(&dir, &[]);

    let (lines, result) = submitter.join().expect("submitter thread");
    let result = result.expect("resilient submit succeeded after the restart");
    let _ = client.shutdown();
    let _ = { child }.wait();
    std::fs::remove_dir_all(&dir).expect("cleanup");

    assert_eq!(
        lines, reference,
        "the assembled stream must be byte-identical to the clean run"
    );
    assert!(
        result.stats.resumed_chunks >= 2,
        "the restarted daemon should resume the journaled chunks, got {}",
        result.stats.resumed_chunks
    );
    assert_eq!(result.trials.len(), 24);
    assert!(result.quarantined.is_empty());
}
