//! The wire protocol: newline-delimited JSON over a local Unix socket.
//!
//! Deliberately minimal — no HTTP, no framing beyond `\n`, one request
//! per connection. The client writes a single request line; the daemon
//! answers with one or more response lines and closes.
//!
//! Requests:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"status"}
//! {"op":"drain"}
//! {"op":"shutdown"}
//! {"op":"submit","workers":4,"spec":{...}}          (workers optional)
//! ```
//!
//! A fault plan crosses this boundary only as a scenario file a
//! `submit` spec names (`"scenario":{"file":PATH}`): the scenario TOML
//! DSL is the one serialized plan format.
//!
//! A `submit` response is a stream: one `accepted` line, then every
//! trial in index order, then the `summary` fold, then a final `stats`
//! line. Everything up to and including `summary` is **deterministic**
//! — bit-identical for a given job spec at any worker count, resumed or
//! not. A quarantined trial (one that exhausted its supervision retry
//! budget) is part of that deterministic stream: it renders as a trial
//! line with a `quarantined` reason instead of a result. The `stats`
//! line (cache hits, resumed chunks, lease churn) legitimately varies
//! between runs and is segregated at the end so consumers can split the
//! stream on type and byte-compare the rest.
//!
//! Error lines may carry `"retryable":true` — the condition is
//! transient (a duplicate in-flight job, a draining daemon) and a
//! resilient client should back off and retry rather than fail.

use crate::json::Json;
use crate::runner::{JobProgress, RunStats, TrialVerdict};
use crate::spec::{aggregate_to_json, verdict_to_fields, JobSpec, SpecError};
use std::sync::atomic::Ordering;
use tta_sim::TrialAggregate;

fn bad(message: impl Into<String>) -> SpecError {
    SpecError(message.into())
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One-line service status.
    Status,
    /// Graceful drain: refuse new jobs, finish leased chunks,
    /// checkpoint, then exit once running jobs have stopped.
    Drain,
    /// Graceful shutdown.
    Shutdown,
    /// Run (or resume) a campaign job, streaming results.
    Submit {
        /// The job.
        spec: JobSpec,
        /// Worker-count override for this job (defaults to the
        /// daemon's).
        workers: Option<usize>,
    },
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`SpecError`] suitable for an `error` response line.
pub fn parse_request(line: &str) -> Result<Request, SpecError> {
    let value = Json::parse(line).map_err(|e| bad(format!("malformed request: {e}")))?;
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("request needs a string \"op\""))?;
    match op {
        "ping" => Ok(Request::Ping),
        "status" => Ok(Request::Status),
        "drain" => Ok(Request::Drain),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => {
            let spec = value
                .get("spec")
                .ok_or_else(|| bad("submit needs a \"spec\""))?;
            let workers = match value.get("workers") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .and_then(|w| usize::try_from(w).ok())
                        .filter(|w| *w >= 1)
                        .ok_or_else(|| bad("\"workers\" must be a positive integer"))?,
                ),
            };
            Ok(Request::Submit {
                spec: JobSpec::from_json(spec)?,
                workers,
            })
        }
        other => Err(bad(format!("unknown op `{other}`"))),
    }
}

/// Renders a `submit` request line.
#[must_use]
pub fn render_submit(spec: &JobSpec, workers: Option<usize>) -> String {
    let mut fields = vec![("op".to_string(), Json::str("submit"))];
    if let Some(workers) = workers {
        fields.push(("workers".to_string(), Json::UInt(workers as u64)));
    }
    fields.push(("spec".to_string(), spec.to_json()));
    Json::Obj(fields).render()
}

// ---------------------------------------------------------------------
// Response lines.
// ---------------------------------------------------------------------

/// `{"type":"ok"}`
#[must_use]
pub fn ok_line() -> String {
    Json::Obj(vec![("type".to_string(), Json::str("ok"))]).render()
}

/// `{"type":"error","message":...}`
#[must_use]
pub fn error_line(message: &str) -> String {
    Json::Obj(vec![
        ("type".to_string(), Json::str("error")),
        ("message".to_string(), Json::str(message)),
    ])
    .render()
}

/// `{"type":"error","message":...,"retryable":true}` — a transient
/// condition the client should back off and retry.
#[must_use]
pub fn retryable_error_line(message: &str) -> String {
    Json::Obj(vec![
        ("type".to_string(), Json::str("error")),
        ("message".to_string(), Json::str(message)),
        ("retryable".to_string(), Json::Bool(true)),
    ])
    .render()
}

/// The deterministic `accepted` header of a submit stream.
#[must_use]
pub fn accepted_line(job_id: &str, trials: u32) -> String {
    Json::Obj(vec![
        ("type".to_string(), Json::str("accepted")),
        ("job".to_string(), Json::str(job_id)),
        ("trials".to_string(), Json::UInt(u64::from(trials))),
    ])
    .render()
}

/// One deterministic trial line of a submit stream. A completed trial
/// renders its full result; a quarantined trial renders
/// `{"type":"trial","index":N,"seed":S,"quarantined":"panic"|"timeout"}`
/// — deterministic like any other trial line.
#[must_use]
pub fn trial_line(verdict: &TrialVerdict) -> String {
    let mut fields = vec![("type".to_string(), Json::str("trial"))];
    fields.extend(verdict_to_fields(verdict));
    Json::Obj(fields).render()
}

/// The deterministic summary fold closing a submit stream. The
/// `quarantined` count appears only when nonzero, so streams without
/// quarantine stay byte-identical to the pre-supervision format.
#[must_use]
pub fn summary_line(job_id: &str, aggregate: &TrialAggregate, quarantined: u64) -> String {
    let mut fields = vec![
        ("type".to_string(), Json::str("summary")),
        ("job".to_string(), Json::str(job_id)),
        ("aggregate".to_string(), aggregate_to_json(aggregate)),
    ];
    if quarantined > 0 {
        fields.push(("quarantined".to_string(), Json::UInt(quarantined)));
    }
    Json::Obj(fields).render()
}

/// The final, *non-deterministic* stats line of a submit stream. Varies
/// with cache warmth and interruption history; consumers must keep it
/// out of byte-compared output.
#[must_use]
pub fn stats_line(stats: &RunStats) -> String {
    Json::Obj(vec![
        ("type".to_string(), Json::str("stats")),
        ("cache_hits".to_string(), Json::UInt(stats.cache_hits)),
        ("computed".to_string(), Json::UInt(stats.computed)),
        (
            "resumed_chunks".to_string(),
            Json::UInt(stats.resumed_chunks),
        ),
        (
            "resumed_trials".to_string(),
            Json::UInt(stats.resumed_trials),
        ),
        ("quarantined".to_string(), Json::UInt(stats.quarantined)),
        (
            "panics_retried".to_string(),
            Json::UInt(stats.panics_retried),
        ),
        (
            "leases_reclaimed".to_string(),
            Json::UInt(stats.leases_reclaimed),
        ),
    ])
    .render()
}

/// Parses a stats line back into [`RunStats`]. The supervision counters
/// (`quarantined`, `panics_retried`, `leases_reclaimed`) default to
/// zero when absent, so stats lines from older daemons still parse.
///
/// # Errors
///
/// Returns a [`SpecError`] if the line is not a stats line.
pub fn stats_from_json(value: &Json) -> Result<RunStats, SpecError> {
    let field = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(format!("stats needs integer \"{key}\"")))
    };
    let optional = |key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok(RunStats {
        cache_hits: field("cache_hits")?,
        computed: field("computed")?,
        resumed_chunks: field("resumed_chunks")?,
        resumed_trials: field("resumed_trials")?,
        quarantined: optional("quarantined"),
        panics_retried: optional("panics_retried"),
        leases_reclaimed: optional("leases_reclaimed"),
    })
}

/// Per-job progress detail carried by a `status` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The job id (hex job hash).
    pub job: String,
    /// Chunks this run must produce.
    pub chunks_total: u64,
    /// Chunks committed so far.
    pub chunks_done: u64,
    /// Chunks currently out on a lease.
    pub chunks_leased: u64,
    /// Trials quarantined so far.
    pub quarantined: u64,
    /// Workers currently executing this job.
    pub workers_active: u64,
}

impl JobStatus {
    /// Snapshots a running job's live progress counters.
    #[must_use]
    pub fn snapshot(job: &str, progress: &JobProgress) -> JobStatus {
        JobStatus {
            job: job.to_string(),
            chunks_total: progress.chunks_total.load(Ordering::Relaxed),
            chunks_done: progress.chunks_done.load(Ordering::Relaxed),
            chunks_leased: progress.chunks_leased.load(Ordering::Relaxed),
            quarantined: progress.quarantined.load(Ordering::Relaxed),
            workers_active: progress.workers_active.load(Ordering::Relaxed),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("job".to_string(), Json::str(self.job.clone())),
            ("chunks_total".to_string(), Json::UInt(self.chunks_total)),
            ("chunks_done".to_string(), Json::UInt(self.chunks_done)),
            ("chunks_leased".to_string(), Json::UInt(self.chunks_leased)),
            ("quarantined".to_string(), Json::UInt(self.quarantined)),
            (
                "workers_active".to_string(),
                Json::UInt(self.workers_active),
            ),
        ])
    }

    fn from_json(value: &Json) -> Option<JobStatus> {
        let count = |key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0);
        Some(JobStatus {
            job: value.get("job")?.as_str()?.to_string(),
            chunks_total: count("chunks_total"),
            chunks_done: count("chunks_done"),
            chunks_leased: count("chunks_leased"),
            quarantined: count("quarantined"),
            workers_active: count("workers_active"),
        })
    }
}

/// The daemon's one-line status report: aggregate counters, the drain
/// flag, and per-job progress detail.
#[must_use]
pub fn status_line(
    cache_entries: usize,
    jobs_running: usize,
    jobs_done: u64,
    draining: bool,
    jobs: &[JobStatus],
) -> String {
    Json::Obj(vec![
        ("type".to_string(), Json::str("status")),
        (
            "cache_entries".to_string(),
            Json::UInt(cache_entries as u64),
        ),
        ("jobs_running".to_string(), Json::UInt(jobs_running as u64)),
        ("jobs_done".to_string(), Json::UInt(jobs_done)),
        ("draining".to_string(), Json::Bool(draining)),
        (
            "jobs".to_string(),
            Json::Arr(jobs.iter().map(JobStatus::to_json).collect()),
        ),
    ])
    .render()
}

/// Parses the per-job detail array out of a status line. Tolerant of
/// older daemons: a missing `jobs` field yields an empty list.
#[must_use]
pub fn jobs_from_status(value: &Json) -> Vec<JobStatus> {
    value
        .get("jobs")
        .and_then(Json::as_arr)
        .map(|jobs| jobs.iter().filter_map(JobStatus::from_json).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSource;
    use tta_sim::Scenario;

    #[test]
    fn submit_request_round_trips() {
        let spec = JobSpec {
            trials: 7,
            ..JobSpec::new(ScenarioSource::Builtin(Scenario::Babbling))
        };
        let line = render_submit(&spec, Some(3));
        match parse_request(&line).unwrap() {
            Request::Submit {
                spec: parsed,
                workers,
            } => {
                assert_eq!(parsed, spec);
                assert_eq!(workers, Some(3));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn quarantined_trial_lines_are_deterministic_and_parse_back() {
        use crate::runner::{QuarantineReason, QuarantinedTrial};
        let verdict = TrialVerdict::Quarantined(QuarantinedTrial {
            index: 12,
            seed: 0xDEAD_BEEF,
            reason: QuarantineReason::Timeout,
        });
        let line = trial_line(&verdict);
        assert_eq!(
            line,
            r#"{"type":"trial","index":12,"seed":3735928559,"quarantined":"timeout"}"#
        );
        let value = Json::parse(&line).unwrap();
        let parsed = crate::spec::verdict_from_json(&value).unwrap();
        assert_eq!(parsed, verdict);
    }

    #[test]
    fn retryable_errors_are_flagged_plain_errors_are_not() {
        let value = Json::parse(&retryable_error_line("draining")).unwrap();
        assert_eq!(value.get("retryable").and_then(Json::as_bool), Some(true));
        let value = Json::parse(&error_line("no such scenario")).unwrap();
        assert!(value.get("retryable").is_none());
    }

    #[test]
    fn status_lines_carry_drain_state_and_job_detail() {
        let jobs = vec![JobStatus {
            job: "00000000deadbeef".to_string(),
            chunks_total: 8,
            chunks_done: 3,
            chunks_leased: 2,
            quarantined: 1,
            workers_active: 4,
        }];
        let line = status_line(100, 1, 7, true, &jobs);
        let value = Json::parse(&line).unwrap();
        assert_eq!(value.get("draining").and_then(Json::as_bool), Some(true));
        assert_eq!(jobs_from_status(&value), jobs);
        // Tolerates a status line with no jobs array (older daemon).
        let value = Json::parse(r#"{"type":"status","jobs_done":0}"#).unwrap();
        assert!(jobs_from_status(&value).is_empty());
    }

    #[test]
    fn stats_lines_round_trip_and_tolerate_missing_supervision_fields() {
        let stats = RunStats {
            cache_hits: 3,
            computed: 21,
            resumed_chunks: 1,
            resumed_trials: 8,
            quarantined: 2,
            panics_retried: 5,
            leases_reclaimed: 1,
        };
        let value = Json::parse(&stats_line(&stats)).unwrap();
        assert_eq!(stats_from_json(&value).unwrap(), stats);
        // A stats line from before supervision existed still parses.
        let old =
            r#"{"type":"stats","cache_hits":1,"computed":2,"resumed_chunks":0,"resumed_trials":0}"#;
        let parsed = stats_from_json(&Json::parse(old).unwrap()).unwrap();
        assert_eq!(parsed.quarantined, 0);
        assert_eq!(parsed.panics_retried, 0);
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"dance\"}").is_err());
        // Fault plans travel only as scenario files inside `submit`.
        let e = parse_request(r#"{"op":"eval","nodes":4,"plan":{}}"#).unwrap_err();
        assert_eq!(e.0, "unknown op `eval`");
        assert!(parse_request("{\"op\":\"submit\"}").is_err());
        let e = parse_request("{\"op\":\"submit\",\"spec\":{}}").unwrap_err();
        assert!(e.0.contains("scenario"), "{e}");
    }
}
