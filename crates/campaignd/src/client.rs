//! The client side: one connection per request, typed results.
//!
//! [`Client::submit`] exposes the stream split that the whole
//! kill-and-resume story rests on: every **deterministic** line
//! (`accepted`, `trial`, `summary`) is handed verbatim to the caller's
//! observer — that text is the byte-comparable artifact — while the
//! trailing non-deterministic `stats` line is returned out-of-band in
//! the typed result, never mixed into the observed stream.
//!
//! [`Client::submit_resilient`] layers reconnect-with-resume on top:
//! when the connection dies mid-stream (daemon killed, connection
//! dropped) or the daemon reports a *retryable* condition (duplicate
//! in-flight job, draining), it backs off with exponential delay plus
//! bounded deterministic jitter, resubmits, and silently skips the
//! already-observed prefix of the resumed stream. That skip is sound
//! precisely because of the determinism invariant — a resumed stream's
//! first N deterministic lines are byte-identical to the first N lines
//! of any other run of the same job — and idempotent because finished
//! work is journaled and cached, not recomputed.

use crate::json::Json;
use crate::protocol::{
    evaluation_from_json, jobs_from_status, render_eval, render_submit, stats_from_json,
    EvalRequest, JobStatus,
};
use crate::runner::{QuarantinedTrial, RunStats, TrialVerdict};
use crate::spec::{aggregate_from_json, verdict_from_json, JobSpec};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tta_base::hash::mix;
use tta_sim::{PlanRunMetrics, TrialAggregate, TrialResult};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The daemon answered with an `error` line. `retryable` mirrors
    /// the line's flag: true for transient conditions (duplicate
    /// in-flight job, draining daemon) a resilient client should retry.
    Daemon {
        /// The daemon's error message.
        message: String,
        /// Whether the daemon marked the condition retryable.
        retryable: bool,
    },
    /// The daemon's response violated the protocol (including a stream
    /// that ended before its summary — a daemon killed mid-sweep).
    Protocol(String),
}

impl ClientError {
    fn daemon(value: &Json) -> ClientError {
        ClientError::Daemon {
            message: value
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
                .to_string(),
            retryable: value.get("retryable").and_then(Json::as_bool) == Some(true),
        }
    }

    /// Whether retrying (reconnect + resubmit) can plausibly succeed:
    /// socket failures and truncated streams always can (a fresh or
    /// restarted daemon resumes from the journal); daemon errors only
    /// when flagged retryable.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Protocol(_) => true,
            ClientError::Daemon { retryable, .. } => *retryable,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Daemon { message, .. } => write!(f, "daemon error: {message}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

fn proto(message: impl Into<String>) -> ClientError {
    ClientError::Protocol(message.into())
}

/// A completed submit stream, parsed.
#[derive(Debug)]
pub struct SubmitResult {
    /// The job id (hex job hash) the daemon accepted.
    pub job: String,
    /// Trial count the daemon committed to.
    pub total: u32,
    /// Every completed trial, in index order.
    pub trials: Vec<TrialResult>,
    /// Trials the daemon quarantined (retry budget exhausted), in index
    /// order. Deterministic — the same job quarantines the same trials.
    pub quarantined: Vec<QuarantinedTrial>,
    /// The summary fold.
    pub aggregate: TrialAggregate,
    /// The non-deterministic stats line.
    pub stats: RunStats,
}

/// One daemon's status line, parsed.
#[derive(Debug, Clone)]
pub struct StatusInfo {
    /// Entries in the daemon's result cache.
    pub cache_entries: u64,
    /// Jobs currently streaming.
    pub jobs_running: u64,
    /// Jobs completed since the daemon started.
    pub jobs_done: u64,
    /// Whether the daemon is draining (finishing leased work, refusing
    /// new jobs). False when talking to an older daemon.
    pub draining: bool,
    /// Per-job progress detail. Empty when talking to an older daemon.
    pub jobs: Vec<JobStatus>,
}

/// Reconnect-with-resume policy for [`Client::submit_resilient`]:
/// exponential backoff with bounded, *deterministic* jitter (hashed
/// from `seed` and the attempt number — no wall-clock randomness, so a
/// test run's retry timing is reproducible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Submission attempts (initial + retries) before giving up.
    pub max_attempts: u32,
    /// Base backoff before the first retry (doubles per retry).
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts: 6,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x5EED,
        }
    }
}

impl ReconnectPolicy {
    /// The delay before retry number `attempt` (1-based): exponential,
    /// capped, with ±25% deterministic jitter.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.cap).as_nanos() as u64;
        // SplitMix64 finalizer over (seed, attempt): stable jitter.
        let z = mix(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Scale into [0.75, 1.25).
        let jittered = capped / 1000 * (750 + z % 500);
        Duration::from_nanos(jittered.max(1))
    }
}

/// A campaign-service client bound to one socket path.
#[derive(Debug, Clone)]
pub struct Client {
    socket: PathBuf,
}

impl Client {
    /// A client for the daemon at `socket`.
    #[must_use]
    pub fn new(socket: &Path) -> Client {
        Client {
            socket: socket.to_path_buf(),
        }
    }

    /// The socket this client talks to.
    #[must_use]
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    fn request(&self, line: &str) -> Result<BufReader<UnixStream>, ClientError> {
        let mut stream = UnixStream::connect(&self.socket)?;
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        Ok(BufReader::new(stream))
    }

    fn one_line(&self, request_line: &str) -> Result<Json, ClientError> {
        let mut reader = self.request(request_line)?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(proto("daemon closed the connection without answering"));
        }
        let value =
            Json::parse(line.trim_end()).map_err(|e| proto(format!("bad response: {e}")))?;
        if value.get("type").and_then(Json::as_str) == Some("error") {
            return Err(ClientError::daemon(&value));
        }
        Ok(value)
    }

    /// Whether a daemon answers on the socket right now.
    #[must_use]
    pub fn ping(&self) -> bool {
        matches!(
            self.one_line("{\"op\":\"ping\"}"),
            Ok(v) if v.get("type").and_then(Json::as_str) == Some("ok")
        )
    }

    /// Polls `ping` until the daemon answers or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// Returns a [`ClientError::Io`] timeout if the daemon never came
    /// up.
    pub fn wait_ready(&self, timeout: Duration) -> Result<(), ClientError> {
        // detlint: allow(DL02) reason=client-side startup timeout; decides only when to stop waiting for the daemon, never a trial result
        let deadline = Instant::now() + timeout;
        loop {
            if self.ping() {
                return Ok(());
            }
            // detlint: allow(DL02) reason=client-side startup timeout check, out-of-band
            if Instant::now() >= deadline {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("no daemon on {} within {timeout:?}", self.socket.display()),
                )));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Asks the daemon to shut down.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol failures.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        self.one_line("{\"op\":\"shutdown\"}").map(|_| ())
    }

    /// Asks the daemon to drain gracefully: finish leased chunks,
    /// checkpoint journals, refuse new jobs, exit when idle.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol failures.
    pub fn drain(&self) -> Result<(), ClientError> {
        self.one_line("{\"op\":\"drain\"}").map(|_| ())
    }

    /// Fetches the daemon's status line.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol failures.
    pub fn status(&self) -> Result<StatusInfo, ClientError> {
        let value = self.one_line("{\"op\":\"status\"}")?;
        let field = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| proto(format!("status response missing \"{key}\"")))
        };
        Ok(StatusInfo {
            cache_entries: field("cache_entries")?,
            jobs_running: field("jobs_running")?,
            jobs_done: field("jobs_done")?,
            draining: value.get("draining").and_then(Json::as_bool) == Some(true),
            jobs: jobs_from_status(&value),
        })
    }

    /// Evaluates one fault plan on the daemon.
    ///
    /// # Errors
    ///
    /// Propagates socket, daemon and protocol failures.
    pub fn eval(&self, request: &EvalRequest) -> Result<PlanRunMetrics, ClientError> {
        let value = self.one_line(&render_eval(request))?;
        evaluation_from_json(&value).map_err(|e| proto(e.0))
    }

    /// Submits a job and consumes its stream. `observe` sees each
    /// deterministic line (`accepted`, `trial`, `summary`) verbatim, in
    /// order — write them to a file and you have the byte-comparable
    /// campaign NDJSON. The `stats` line goes into the result instead.
    ///
    /// # Errors
    ///
    /// [`ClientError::Daemon`] for an `error` line;
    /// [`ClientError::Protocol`] if the stream ends before its summary
    /// (daemon killed mid-sweep — resubmit after restart to resume).
    pub fn submit(
        &self,
        spec: &JobSpec,
        workers: Option<usize>,
        observe: &mut dyn FnMut(&str),
    ) -> Result<SubmitResult, ClientError> {
        let mut reader = self.request(&render_submit(spec, workers))?;
        let mut line = String::new();
        let mut job: Option<(String, u32)> = None;
        let mut trials: Vec<TrialResult> = Vec::new();
        let mut quarantined: Vec<QuarantinedTrial> = Vec::new();
        let mut summary: Option<TrialAggregate> = None;
        let mut stats: Option<RunStats> = None;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            let text = line.trim_end();
            let value = Json::parse(text).map_err(|e| proto(format!("bad stream line: {e}")))?;
            match value.get("type").and_then(Json::as_str) {
                Some("error") => {
                    return Err(ClientError::daemon(&value));
                }
                Some("accepted") => {
                    let id = value
                        .get("job")
                        .and_then(Json::as_str)
                        .ok_or_else(|| proto("accepted line missing \"job\""))?;
                    let total = value
                        .get("trials")
                        .and_then(Json::as_u64)
                        .and_then(|t| u32::try_from(t).ok())
                        .ok_or_else(|| proto("accepted line missing \"trials\""))?;
                    job = Some((id.to_string(), total));
                    observe(text);
                }
                Some("trial") => {
                    match verdict_from_json(&value).map_err(|e| proto(e.0))? {
                        TrialVerdict::Completed(trial) => trials.push(trial),
                        TrialVerdict::Quarantined(q) => quarantined.push(q),
                    }
                    observe(text);
                }
                Some("summary") => {
                    let aggregate = value
                        .get("aggregate")
                        .ok_or_else(|| proto("summary line missing \"aggregate\""))
                        .and_then(|a| aggregate_from_json(a).map_err(|e| proto(e.0)))?;
                    summary = Some(aggregate);
                    observe(text);
                }
                Some("stats") => {
                    stats = Some(stats_from_json(&value).map_err(|e| proto(e.0))?);
                }
                other => {
                    return Err(proto(format!("unexpected stream line type {other:?}")));
                }
            }
        }
        let (job, total) = job.ok_or_else(|| proto("stream ended before an accepted line"))?;
        let aggregate = summary.ok_or_else(|| {
            proto(format!(
                "stream ended after {}/{total} trials without a summary \
                 (daemon gone mid-sweep; resubmit to resume)",
                trials.len() + quarantined.len()
            ))
        })?;
        Ok(SubmitResult {
            job,
            total,
            trials,
            quarantined,
            aggregate,
            stats: stats.unwrap_or_default(),
        })
    }

    /// [`Client::submit`] with reconnect-with-resume: on a retryable
    /// failure (dead socket, truncated stream, draining or busy
    /// daemon), backs off per `policy`, resubmits, and resumes
    /// observation where it left off — `observe` sees every
    /// deterministic line exactly once, and the concatenation is
    /// byte-identical to an uninterrupted run's stream. Progress
    /// already journaled or cached by the daemon is never recomputed,
    /// which is what makes the resubmit idempotent.
    ///
    /// # Errors
    ///
    /// The last attempt's error once `policy.max_attempts` is
    /// exhausted, or the first non-retryable error.
    pub fn submit_resilient(
        &self,
        spec: &JobSpec,
        workers: Option<usize>,
        policy: &ReconnectPolicy,
        observe: &mut dyn FnMut(&str),
    ) -> Result<SubmitResult, ClientError> {
        // Deterministic lines already handed to `observe` across all
        // attempts; a resumed stream's identical prefix is skipped.
        let mut acked: u64 = 0;
        let mut attempt: u32 = 0;
        loop {
            let mut seen: u64 = 0;
            let result = self.submit(spec, workers, &mut |text| {
                seen += 1;
                if seen > acked {
                    observe(text);
                }
            });
            match result {
                Ok(result) => return Ok(result),
                Err(e) => {
                    acked = acked.max(seen);
                    attempt += 1;
                    if !e.is_retryable() || attempt >= policy.max_attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(policy.backoff(attempt));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_capped_and_jitters_deterministically() {
        let policy = ReconnectPolicy::default();
        let first = policy.backoff(1);
        let second = policy.backoff(2);
        assert_eq!(first, policy.backoff(1), "jitter must be deterministic");
        assert!(second > first, "{second:?} vs {first:?}");
        // ±25% around 50ms.
        assert!(first >= Duration::from_micros(37_500) && first < Duration::from_micros(62_500));
        // Far past the doubling horizon, the cap (+jitter) holds.
        let late = policy.backoff(30);
        assert!(late <= Duration::from_millis(2500), "{late:?}");
    }

    #[test]
    fn retryability_follows_the_error_kind() {
        assert!(ClientError::Io(std::io::Error::other("gone")).is_retryable());
        assert!(proto("stream ended").is_retryable());
        assert!(ClientError::Daemon {
            message: "draining".to_string(),
            retryable: true
        }
        .is_retryable());
        assert!(!ClientError::Daemon {
            message: "unknown scenario".to_string(),
            retryable: false
        }
        .is_retryable());
    }
}
