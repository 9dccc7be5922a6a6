//! The chaos harness, end to end through the real daemon binary: a
//! daemon armed with `--chaos` injects worker panics, a stalled trial
//! and a dropped client connection into a sweep, and the *assembled*
//! client stream must still be byte-identical to a clean daemon's —
//! at every worker count. Failures that persist past the retry budget
//! (a poisoned trial) must degrade to a deterministic `Quarantined`
//! verdict, never take the daemon down, and never lose committed
//! progress.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use tta_campaignd::client::{Client, ReconnectPolicy};
use tta_campaignd::spec::{JobSpec, ScenarioSource};
use tta_guardian::CouplerAuthority;
use tta_protocol::RestartPolicy;
use tta_sim::{Scenario, Topology};

/// Same E10-shaped cell as the kill/resume test: 24 trials = 3 chunks.
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
}

fn resilient_lines(client: &Client, workers: Option<usize>) -> Vec<String> {
    let mut lines = Vec::new();
    client
        .submit_resilient(&job(), workers, &ReconnectPolicy::default(), &mut |line| {
            lines.push(line.to_string());
        })
        .expect("submit survives the chaos");
    lines
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaignd-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Panics retried away, a stalled trial reclaimed by a healthy worker,
/// and one dropped connection resumed by the client: none of it may
/// perturb a single output byte.
#[test]
fn masked_chaos_streams_the_clean_bytes_at_every_worker_count() {
    let ref_dir = scratch("clean");
    let daemon = Daemon::start(&ref_dir, &[]);
    let reference = resilient_lines(&daemon.client, Some(1));
    daemon.stop();
    std::fs::remove_dir_all(&ref_dir).expect("cleanup");
    // accepted + 24 trials + summary, none quarantined.
    assert_eq!(reference.len(), 26);
    assert!(!reference.iter().any(|l| l.contains("quarantined")));

    let chaos = [
        "--chaos",
        "panic=0.25,timeout=12,drop=10,seed=7",
        "--trial-deadline-ms",
        "400",
        "--retry-backoff-ms",
        "5",
    ];
    for (tag, workers) in [("w1", Some(1)), ("w4", Some(4)), ("auto", None)] {
        let dir = scratch(tag);
        let daemon = Daemon::start(&dir, &chaos);
        let streamed = resilient_lines(&daemon.client, workers);
        daemon.stop();
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert_eq!(
            streamed, reference,
            "chaos perturbed the stream at workers {workers:?}"
        );
    }
}

/// A trial that panics on *every* attempt exhausts its retry budget and
/// becomes a deterministic `Quarantined` line — same bytes at any
/// worker count — while the daemon survives to serve the next request,
/// and a resubmit replays the quarantined verdict from the journal
/// without rerunning the trial.
#[test]
fn a_poisoned_trial_quarantines_deterministically_and_spares_the_daemon() {
    let chaos = ["--chaos", "poison=5,seed=3", "--retry-backoff-ms", "1"];
    let mut streams = Vec::new();
    for (tag, workers) in [("poison-w1", Some(1)), ("poison-w4", Some(4))] {
        let dir = scratch(tag);
        let daemon = Daemon::start(&dir, &chaos);
        let streamed = resilient_lines(&daemon.client, workers);

        // The daemon is alive and well after hosting three panics.
        assert!(daemon.client.ping(), "daemon died with the trial");

        // Resubmitting answers every completed trial from the cache and
        // the poisoned trial's verdict from the journal,
        // byte-identically.
        let replayed = resilient_lines(&daemon.client, workers);
        assert_eq!(replayed, streamed, "journal replay diverged");

        daemon.stop();
        std::fs::remove_dir_all(&dir).expect("cleanup");
        streams.push(streamed);
    }
    assert_eq!(streams[0], streams[1], "quarantine depends on workers");

    let stream = &streams[0];
    assert_eq!(stream.len(), 26, "accepted + 24 trial lines + summary");
    let quarantined: Vec<&String> = stream
        .iter()
        .filter(|l| l.contains("quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 2, "one trial line + the summary");
    assert!(
        quarantined[0].contains("\"index\":5")
            && quarantined[0].contains("\"quarantined\":\"panic\""),
        "unexpected quarantine line: {}",
        quarantined[0]
    );
    assert!(
        quarantined[1].contains("\"type\":\"summary\"")
            && quarantined[1].contains("\"quarantined\":1"),
        "summary must count the quarantined trial: {}",
        quarantined[1]
    );
}
