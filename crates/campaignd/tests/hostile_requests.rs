//! Hostile input at the request boundary, through an in-process daemon:
//! an over-long request line and a submit asking for more trials than
//! the daemon takes are refused with errors naming their limits,
//! garbage is answered or dropped, and the daemon keeps serving — the
//! next valid job streams exactly the bytes a fresh daemon streams.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use tta_campaignd::client::Client;
use tta_campaignd::json::Json;
use tta_campaignd::server::{Server, ServerConfig, ServerHandle, MAX_REQUEST_BYTES};
use tta_campaignd::spec::{JobSpec, ScenarioSource, MAX_TRIALS};
use tta_guardian::CouplerAuthority;
use tta_protocol::RestartPolicy;
use tta_sim::{Scenario, Topology};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaignd-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn(dir: &Path) -> (ServerHandle, Client) {
    let handle = Server::spawn(ServerConfig::at(dir)).expect("daemon spawns");
    let client = Client::new(handle.socket());
    (handle, client)
}

/// 64 trials = 8 chunks.
fn job() -> JobSpec {
    JobSpec {
        topology: Topology::Star,
        authority: CouplerAuthority::Passive,
        policy: RestartPolicy::Watchdog { silence_slots: 8 },
        trials: 64,
        slots: 300,
        fault_duration: Some(60),
        ..JobSpec::new(ScenarioSource::Builtin(Scenario::SosSender))
    }
}

fn stream(client: &Client) -> Vec<String> {
    let mut lines = Vec::new();
    client
        .submit(&job(), Some(2), &mut |line| lines.push(line.to_string()))
        .expect("valid submit");
    lines
}

/// Writes `bytes` on a fresh connection and returns everything the
/// daemon answered before closing it. The daemon may close before it
/// has read all of `bytes`, so a failed write is expected.
fn send_raw(socket: &Path, bytes: &[u8]) -> String {
    let mut conn = UnixStream::connect(socket).expect("connect");
    let _ = conn.write_all(bytes);
    let _ = conn.shutdown(std::net::Shutdown::Write);
    let mut answer = Vec::new();
    let _ = conn.read_to_end(&mut answer);
    String::from_utf8(answer).expect("answers are UTF-8")
}

#[test]
fn over_long_and_garbage_requests_leave_the_daemon_serving() {
    let ref_dir = scratch("reference");
    let (handle, client) = spawn(&ref_dir);
    let reference = stream(&client);
    handle.shutdown();
    std::fs::remove_dir_all(&ref_dir).expect("cleanup");
    // accepted + 64 trials + summary.
    assert_eq!(reference.len(), 66);

    let dir = scratch("daemon");
    let (handle, client) = spawn(&dir);

    // A well-formed ping padded to 2 MiB: refused for its length alone.
    let limit = usize::try_from(MAX_REQUEST_BYTES).unwrap();
    let mut long = br#"{"op":"ping","pad":""#.to_vec();
    long.resize(2 * limit, b'x');
    long.extend_from_slice(b"\"}\n");
    let answer = send_raw(handle.socket(), &long);
    let error = Json::parse(answer.trim_end()).expect("one error line");
    assert_eq!(error.get("type").and_then(Json::as_str), Some("error"));
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(
        message.contains(&MAX_REQUEST_BYTES.to_string()),
        "the error names the limit: {message}"
    );

    // Garbage: not JSON, then not even UTF-8. Neither may take the
    // daemon down; the first is answered with an error line.
    let answer = send_raw(handle.socket(), b"{\"op\":\"submit\",\"spec\":[}\n");
    assert!(answer.starts_with(r#"{"type":"error""#), "{answer}");
    send_raw(handle.socket(), &[0xff, 0xfe, b'{', 0x80, b'\n']);

    // A submit asking for u32::MAX trials: refused with the cap, where
    // it used to abort the daemon allocating the sweep's verdicts.
    let answer = send_raw(
        handle.socket(),
        b"{\"op\":\"submit\",\"spec\":{\"scenario\":\"sos_sender\",\"trials\":4294967295}}\n",
    );
    let error = Json::parse(answer.trim_end()).expect("one error line");
    assert_eq!(error.get("type").and_then(Json::as_str), Some("error"));
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(
        message.contains(&MAX_TRIALS.to_string()),
        "the error names the cap: {message}"
    );

    assert!(client.ping(), "the daemon still answers ping");
    assert_eq!(
        stream(&client),
        reference,
        "the next job streams the clean bytes"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
