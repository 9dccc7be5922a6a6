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
//! {"op":"eval","nodes":4,"topology":"star","authority":"passive",
//!  "slots":400,"policy":"never","plan":{...}}
//! ```
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
use crate::spec::{
    aggregate_to_json, parse_topology, policy_from_json, policy_to_json, recovery_token,
    topology_token, unknown_authority, verdict_to_fields, JobSpec, SpecError,
};
use std::sync::atomic::Ordering;
use tta_guardian::sos::SosDomain;
use tta_guardian::{CouplerAuthority, CouplerFaultMode};
use tta_protocol::RestartPolicy;
use tta_sim::{
    CouplerFaultEvent, FaultPersistence, FaultPlan, NodeFault, NodeFaultKind, PlanRunMetrics,
    Topology, TrialAggregate,
};
use tta_types::NodeId;

fn bad(message: impl Into<String>) -> SpecError {
    SpecError(message.into())
}

/// One plan evaluation: the `eval` op's payload. The client translates
/// its candidate to an admissible [`FaultPlan`] *before* sending (the
/// authority-dependent out-of-slot filtering is an evaluator-side
/// concern), so the daemon's job is purely "simulate this plan here".
#[derive(Debug, Clone)]
pub struct EvalRequest {
    /// Cluster size.
    pub nodes: usize,
    /// Interconnect topology.
    pub topology: Topology,
    /// Guardian authority for this run.
    pub authority: CouplerAuthority,
    /// Horizon in slots.
    pub slots: u64,
    /// Host restart policy.
    pub policy: RestartPolicy,
    /// The exact plan to inject.
    pub plan: FaultPlan,
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
    /// Simulate one fault plan and return its metrics.
    Eval(Box<EvalRequest>),
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
        "eval" => Ok(Request::Eval(Box::new(parse_eval(&value)?))),
        other => Err(bad(format!("unknown op `{other}`"))),
    }
}

fn parse_eval(value: &Json) -> Result<EvalRequest, SpecError> {
    let nodes = value
        .get("nodes")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("eval needs integer \"nodes\""))?;
    if !(2..=16).contains(&nodes) {
        return Err(bad("\"nodes\" must be in 2..=16"));
    }
    let topology = parse_topology(
        value
            .get("topology")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("eval needs string \"topology\""))?,
    )?;
    let token = value
        .get("authority")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("eval needs string \"authority\""))?;
    let authority = CouplerAuthority::from_token(token).ok_or_else(|| unknown_authority(token))?;
    let slots = value
        .get("slots")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("eval needs integer \"slots\""))?;
    let policy = policy_from_json(
        value
            .get("policy")
            .ok_or_else(|| bad("eval needs a \"policy\""))?,
    )?;
    let plan = plan_from_json(
        value
            .get("plan")
            .ok_or_else(|| bad("eval needs a \"plan\""))?,
    )?;
    Ok(EvalRequest {
        nodes: nodes as usize,
        topology,
        authority,
        slots,
        policy,
        plan,
    })
}

/// Renders an `eval` request line.
#[must_use]
pub fn render_eval(request: &EvalRequest) -> String {
    Json::Obj(vec![
        ("op".to_string(), Json::str("eval")),
        ("nodes".to_string(), Json::UInt(request.nodes as u64)),
        (
            "topology".to_string(),
            Json::str(topology_token(request.topology)),
        ),
        (
            "authority".to_string(),
            Json::str(request.authority.token()),
        ),
        ("slots".to_string(), Json::UInt(request.slots)),
        ("policy".to_string(), policy_to_json(request.policy)),
        ("plan".to_string(), plan_to_json(&request.plan)),
    ])
    .render()
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
// Fault plans on the wire.
// ---------------------------------------------------------------------

fn persistence_to_json(p: FaultPersistence) -> Json {
    match p {
        FaultPersistence::Transient => Json::str("transient"),
        FaultPersistence::Permanent => Json::str("permanent"),
        FaultPersistence::Intermittent { period, duty } => Json::Obj(vec![(
            "intermittent".to_string(),
            Json::Obj(vec![
                ("period".to_string(), Json::UInt(period)),
                ("duty".to_string(), Json::UInt(duty)),
            ]),
        )]),
    }
}

fn persistence_from_json(value: &Json) -> Result<FaultPersistence, SpecError> {
    match value {
        Json::Str(s) if s == "transient" => Ok(FaultPersistence::Transient),
        Json::Str(s) if s == "permanent" => Ok(FaultPersistence::Permanent),
        Json::Obj(_) => {
            let inner = value
                .get("intermittent")
                .ok_or_else(|| bad("persistence object needs \"intermittent\""))?;
            let period = inner
                .get("period")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("intermittent needs integer \"period\""))?;
            let duty = inner
                .get("duty")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("intermittent needs integer \"duty\""))?;
            if period == 0 || !(1..=period).contains(&duty) {
                return Err(bad("intermittent needs period > 0 and duty in 1..=period"));
            }
            Ok(FaultPersistence::Intermittent { period, duty })
        }
        _ => Err(bad(
            "persistence must be \"transient\" | \"permanent\" | {\"intermittent\": ..}",
        )),
    }
}

fn node_kind_to_json(kind: NodeFaultKind) -> Json {
    match kind {
        NodeFaultKind::Sos { domain, magnitude } => Json::Obj(vec![(
            "sos".to_string(),
            Json::Obj(vec![
                (
                    "domain".to_string(),
                    Json::str(match domain {
                        SosDomain::Time => "time",
                        SosDomain::Value => "value",
                    }),
                ),
                ("magnitude".to_string(), Json::Float(magnitude)),
            ]),
        )]),
        NodeFaultKind::MasqueradeColdStart { claimed_slot } => Json::Obj(vec![(
            "masquerade_cold_start".to_string(),
            Json::Obj(vec![(
                "claimed_slot".to_string(),
                Json::UInt(u64::from(claimed_slot)),
            )]),
        )]),
        NodeFaultKind::InvalidCState { claimed_slot } => Json::Obj(vec![(
            "invalid_c_state".to_string(),
            Json::Obj(vec![(
                "claimed_slot".to_string(),
                Json::UInt(u64::from(claimed_slot)),
            )]),
        )]),
        NodeFaultKind::Babbling => Json::str("babbling"),
        NodeFaultKind::Mute => Json::str("mute"),
    }
}

fn node_kind_from_json(value: &Json) -> Result<NodeFaultKind, SpecError> {
    match value {
        Json::Str(s) if s == "babbling" => Ok(NodeFaultKind::Babbling),
        Json::Str(s) if s == "mute" => Ok(NodeFaultKind::Mute),
        Json::Obj(_) => {
            if let Some(sos) = value.get("sos") {
                let domain = match sos.get("domain").and_then(Json::as_str) {
                    Some("time") => SosDomain::Time,
                    Some("value") => SosDomain::Value,
                    _ => return Err(bad("sos needs \"domain\": \"time\" | \"value\"")),
                };
                let magnitude = sos
                    .get("magnitude")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("sos needs numeric \"magnitude\""))?;
                if !(0.0..=1.0).contains(&magnitude) {
                    return Err(bad("sos \"magnitude\" must be in [0, 1]"));
                }
                return Ok(NodeFaultKind::Sos { domain, magnitude });
            }
            for (key, make) in [
                (
                    "masquerade_cold_start",
                    (|slot| NodeFaultKind::MasqueradeColdStart { claimed_slot: slot })
                        as fn(u16) -> NodeFaultKind,
                ),
                ("invalid_c_state", |slot| NodeFaultKind::InvalidCState {
                    claimed_slot: slot,
                }),
            ] {
                if let Some(inner) = value.get(key) {
                    let slot = inner
                        .get("claimed_slot")
                        .and_then(Json::as_u64)
                        .and_then(|s| u16::try_from(s).ok())
                        .ok_or_else(|| bad(format!("{key} needs u16 \"claimed_slot\"")))?;
                    return Ok(make(slot));
                }
            }
            Err(bad("unknown node fault kind object"))
        }
        _ => Err(bad("node fault kind must be a string or object")),
    }
}

/// Renders a plan for the wire.
#[must_use]
pub fn plan_to_json(plan: &FaultPlan) -> Json {
    let nodes = plan
        .node_faults()
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("node".to_string(), Json::UInt(u64::from(f.node.index()))),
                ("kind".to_string(), node_kind_to_json(f.kind)),
                ("from_slot".to_string(), Json::UInt(f.from_slot)),
                ("to_slot".to_string(), Json::UInt(f.to_slot)),
                (
                    "persistence".to_string(),
                    persistence_to_json(f.persistence),
                ),
            ])
        })
        .collect();
    let couplers = plan
        .coupler_faults()
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("channel".to_string(), Json::UInt(f.channel as u64)),
                ("mode".to_string(), Json::str(f.mode.to_string())),
                ("from_slot".to_string(), Json::UInt(f.from_slot)),
                ("to_slot".to_string(), Json::UInt(f.to_slot)),
                (
                    "persistence".to_string(),
                    persistence_to_json(f.persistence),
                ),
            ])
        })
        .collect();
    // Local-guardian faults are not carried: no current client
    // generates them, and rejecting beats silently dropping.
    Json::Obj(vec![
        ("node_faults".to_string(), Json::Arr(nodes)),
        ("coupler_faults".to_string(), Json::Arr(couplers)),
    ])
}

/// Parses a wire plan.
///
/// # Errors
///
/// Returns a [`SpecError`] naming the malformed event, or rejecting
/// plans whose events violate the simulator's construction invariants
/// (bad channel, empty window, double-coupler overlap).
pub fn plan_from_json(value: &Json) -> Result<FaultPlan, SpecError> {
    let mut plan = FaultPlan::none();
    if let Some(nodes) = value.get("node_faults") {
        for entry in nodes
            .as_arr()
            .ok_or_else(|| bad("\"node_faults\" must be an array"))?
        {
            let node = entry
                .get("node")
                .and_then(Json::as_u64)
                .and_then(|n| u8::try_from(n).ok())
                .ok_or_else(|| bad("node fault needs u8 \"node\""))?;
            let fault = NodeFault {
                node: NodeId::new(node),
                kind: node_kind_from_json(
                    entry
                        .get("kind")
                        .ok_or_else(|| bad("node fault needs \"kind\""))?,
                )?,
                from_slot: entry
                    .get("from_slot")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("node fault needs integer \"from_slot\""))?,
                to_slot: entry
                    .get("to_slot")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("node fault needs integer \"to_slot\""))?,
                persistence: persistence_from_json(
                    entry
                        .get("persistence")
                        .ok_or_else(|| bad("node fault needs \"persistence\""))?,
                )?,
            };
            check_window(fault.persistence, fault.from_slot, fault.to_slot)?;
            plan = plan.with_node_fault(fault);
        }
    }
    if let Some(couplers) = value.get("coupler_faults") {
        for entry in couplers
            .as_arr()
            .ok_or_else(|| bad("\"coupler_faults\" must be an array"))?
        {
            let channel = entry
                .get("channel")
                .and_then(Json::as_u64)
                .filter(|c| *c < 2)
                .ok_or_else(|| bad("coupler fault needs \"channel\" 0 or 1"))?;
            let token = entry
                .get("mode")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("coupler fault needs string \"mode\""))?;
            let fault = CouplerFaultEvent {
                channel: channel as usize,
                mode: CouplerFaultMode::from_token(token)
                    .ok_or_else(|| bad(format!("unknown coupler fault mode `{token}`")))?,
                from_slot: entry
                    .get("from_slot")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("coupler fault needs integer \"from_slot\""))?,
                to_slot: entry
                    .get("to_slot")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("coupler fault needs integer \"to_slot\""))?,
                persistence: persistence_from_json(
                    entry
                        .get("persistence")
                        .ok_or_else(|| bad("coupler fault needs \"persistence\""))?,
                )?,
            };
            check_window(fault.persistence, fault.from_slot, fault.to_slot)?;
            // `with_coupler_fault` enforces the single-faulty-coupler
            // hypothesis with an assert; pre-check so a hostile or
            // buggy client gets an error line, not a daemon panic.
            for other in plan.coupler_faults() {
                if other.channel != fault.channel
                    && fault.from_slot < other.envelope_end()
                    && other.from_slot < fault.envelope_end()
                {
                    return Err(bad("coupler fault windows on both channels overlap \
                         (single-faulty-coupler hypothesis)"));
                }
            }
            plan = plan.with_coupler_fault(fault);
        }
    }
    Ok(plan)
}

/// Pre-validates a fault window so plan construction cannot panic.
fn check_window(p: FaultPersistence, from: u64, to: u64) -> Result<(), SpecError> {
    match p {
        FaultPersistence::Permanent => Ok(()),
        FaultPersistence::Transient | FaultPersistence::Intermittent { .. } if from < to => Ok(()),
        _ => Err(bad("fault window must satisfy from_slot < to_slot")),
    }
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

/// The `eval` op's single response line.
#[must_use]
pub fn evaluation_line(metrics: &PlanRunMetrics) -> String {
    Json::Obj(vec![
        ("type".to_string(), Json::str("evaluation")),
        (
            "outcome".to_string(),
            Json::str(recovery_token(metrics.outcome)),
        ),
        (
            "availability".to_string(),
            Json::Float(metrics.availability),
        ),
        ("freezes".to_string(), Json::UInt(metrics.freezes as u64)),
        ("restarts".to_string(), Json::UInt(metrics.restarts as u64)),
        (
            "interventions".to_string(),
            Json::UInt(metrics.interventions as u64),
        ),
    ])
    .render()
}

/// Parses an evaluation line back into [`PlanRunMetrics`].
///
/// # Errors
///
/// Returns a [`SpecError`] naming the missing/malformed field.
pub fn evaluation_from_json(value: &Json) -> Result<PlanRunMetrics, SpecError> {
    let counts = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_u64)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| bad(format!("evaluation needs integer \"{key}\"")))
    };
    Ok(PlanRunMetrics {
        outcome: crate::spec::parse_recovery(
            value
                .get("outcome")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("evaluation needs string \"outcome\""))?,
        )?,
        availability: value
            .get("availability")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("evaluation needs numeric \"availability\""))?,
        freezes: counts("freezes")?,
        restarts: counts("restarts")?,
        interventions: counts("interventions")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSource;
    use tta_sim::{RecoveryOutcome, Scenario};

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
    fn eval_request_round_trips_with_a_full_plan() {
        let plan = FaultPlan::none()
            .with_node_fault(NodeFault {
                node: NodeId::new(2),
                kind: NodeFaultKind::Sos {
                    domain: SosDomain::Value,
                    magnitude: 0.625,
                },
                from_slot: 10,
                to_slot: 50,
                persistence: FaultPersistence::Intermittent { period: 6, duty: 2 },
            })
            .with_node_fault(NodeFault {
                node: NodeId::new(0),
                kind: NodeFaultKind::MasqueradeColdStart { claimed_slot: 3 },
                from_slot: 0,
                to_slot: 30,
                persistence: FaultPersistence::Transient,
            })
            .with_coupler_fault(CouplerFaultEvent {
                channel: 1,
                mode: CouplerFaultMode::OutOfSlot,
                from_slot: 100,
                to_slot: 140,
                persistence: FaultPersistence::Transient,
            });
        let request = EvalRequest {
            nodes: 5,
            topology: Topology::Star,
            authority: CouplerAuthority::FullShifting,
            slots: 300,
            policy: RestartPolicy::Immediate,
            plan: plan.clone(),
        };
        let line = render_eval(&request);
        match parse_request(&line).unwrap() {
            Request::Eval(parsed) => {
                assert_eq!(parsed.nodes, 5);
                assert_eq!(parsed.authority, CouplerAuthority::FullShifting);
                assert_eq!(parsed.policy, RestartPolicy::Immediate);
                assert_eq!(parsed.plan, plan);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn hostile_plans_error_instead_of_panicking() {
        // Overlapping coupler windows on both channels (forbidden).
        let line = r#"{"op":"eval","nodes":4,"topology":"star","authority":"passive","slots":100,"policy":"never","plan":{"coupler_faults":[{"channel":0,"mode":"silence","from_slot":0,"to_slot":50,"persistence":"transient"},{"channel":1,"mode":"silence","from_slot":20,"to_slot":60,"persistence":"transient"}]}}"#;
        assert!(parse_request(line).is_err());
        // Empty window.
        let line = r#"{"op":"eval","nodes":4,"topology":"star","authority":"passive","slots":100,"policy":"never","plan":{"node_faults":[{"node":0,"kind":"mute","from_slot":5,"to_slot":5,"persistence":"transient"}]}}"#;
        assert!(parse_request(line).is_err());
        // Bad channel.
        let line = r#"{"op":"eval","nodes":4,"topology":"star","authority":"passive","slots":100,"policy":"never","plan":{"coupler_faults":[{"channel":2,"mode":"silence","from_slot":0,"to_slot":5,"persistence":"transient"}]}}"#;
        assert!(parse_request(line).is_err());
    }

    #[test]
    fn evaluation_lines_round_trip() {
        let metrics = PlanRunMetrics {
            outcome: RecoveryOutcome::DegradedStable,
            availability: 0.7321428571428571,
            freezes: 3,
            restarts: 17,
            interventions: 204,
        };
        let line = evaluation_line(&metrics);
        let value = Json::parse(&line).unwrap();
        assert_eq!(value.get("type").and_then(Json::as_str), Some("evaluation"));
        let parsed = evaluation_from_json(&value).unwrap();
        assert_eq!(parsed.outcome, metrics.outcome);
        assert_eq!(parsed.availability, metrics.availability);
        assert_eq!(parsed.interventions, metrics.interventions);
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
        assert!(parse_request("{\"op\":\"submit\"}").is_err());
        let e = parse_request("{\"op\":\"submit\",\"spec\":{}}").unwrap_err();
        assert!(e.0.contains("scenario"), "{e}");
    }
}
