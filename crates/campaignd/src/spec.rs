//! Job specifications: the canonical description of one campaign sweep,
//! its content hashes, and the per-trial execution they drive.
//!
//! Two hashes with two scopes:
//!
//! * **`scenario_hash`** covers everything that determines a single
//!   trial's *simulation* except the restart policy and the trial seed —
//!   cluster shape, authority, scenario source (with the scenario
//!   *file's bytes* when the job references one), horizon and fault
//!   duration. The per-trial result-cache key is
//!   `fnv(scenario_hash ‖ policy ‖ trial_seed)`, so overlapping sweeps
//!   (an E10 re-run, a longer seed range, a policy grid over the same
//!   scenario) hit cache for every trial they share, and an edit to a
//!   referenced scenario file changes the hash and forces recompute.
//! * **`job_hash`** additionally covers the policy, the campaign seed
//!   and the trial count — it names the *sweep*, keys the checkpoint
//!   journal, and doubles as the job id on the wire. Resubmitting a
//!   byte-identical job resumes it; changing anything (including the
//!   scenario file's content) yields a fresh journal.

use crate::hash::{fnv1a64, to_hex};
use crate::json::Json;
use crate::runner::{QuarantineReason, QuarantinedTrial, TrialVerdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use tta_base::hash::mix;
use tta_guardian::CouplerAuthority;
use tta_protocol::RestartPolicy;
use tta_sim::{
    Campaign, Outcome, RecoveryOutcome, Scenario, Topology, TrialAggregate, TrialResult,
};

/// A protocol-level error: malformed or inconsistent spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

fn bad(message: impl Into<String>) -> SpecError {
    SpecError(message.into())
}

/// The most trials one job may ask for: 2^20, 128× the 8,192-trial
/// sweeps the repository benchmark runs. A sweep's verdicts and chunk
/// list are held in memory, so an unbounded count would let one
/// request abort the daemon on allocation.
pub const MAX_TRIALS: u32 = 1 << 20;

/// Where a job's fault scenario comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioSource {
    /// One of the campaign layer's built-in randomized scenarios.
    Builtin(Scenario),
    /// A scenario DSL file (the conformance TOML subset); the job runs
    /// its fixed fault plan under randomized per-trial start delays.
    File(PathBuf),
}

/// One campaign sweep, as submitted over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Cluster size (ignored for file scenarios, which carry their own).
    pub nodes: usize,
    /// Interconnect topology (ignored for file scenarios).
    pub topology: Topology,
    /// Guardian authority (ignored for file scenarios).
    pub authority: CouplerAuthority,
    /// The fault scenario.
    pub scenario: ScenarioSource,
    /// The hosts' restart policy (overrides a file scenario's own).
    pub policy: RestartPolicy,
    /// Trial count.
    pub trials: u32,
    /// Per-trial horizon in slots (ignored for file scenarios).
    pub slots: u64,
    /// Campaign seed (per-trial seeds derive from it).
    pub seed: u64,
    /// Transient fault duration in slots (`None` = faults persist to
    /// the end of the run; ignored for file scenarios).
    pub fault_duration: Option<u64>,
}

impl JobSpec {
    /// A spec with the campaign layer's defaults for everything but the
    /// scenario.
    #[must_use]
    pub fn new(scenario: ScenarioSource) -> JobSpec {
        JobSpec {
            nodes: 4,
            topology: Topology::Star,
            authority: CouplerAuthority::SmallShifting,
            scenario,
            policy: RestartPolicy::Never,
            trials: 24,
            slots: 400,
            seed: 0xDB5_2004,
            fault_duration: None,
        }
    }

    /// The canonical wire form (field order fixed — this rendering is
    /// what the job hash covers).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let scenario = match &self.scenario {
            ScenarioSource::Builtin(s) => Json::str(scenario_token(*s)),
            ScenarioSource::File(path) => Json::Obj(vec![(
                "file".to_string(),
                Json::str(path.display().to_string()),
            )]),
        };
        Json::Obj(vec![
            ("nodes".to_string(), Json::UInt(self.nodes as u64)),
            ("topology".to_string(), Json::str(self.topology.token())),
            ("authority".to_string(), Json::str(self.authority.token())),
            ("scenario".to_string(), scenario),
            ("policy".to_string(), policy_to_json(self.policy)),
            ("trials".to_string(), Json::UInt(u64::from(self.trials))),
            ("slots".to_string(), Json::UInt(self.slots)),
            ("seed".to_string(), Json::UInt(self.seed)),
            (
                "fault_duration".to_string(),
                self.fault_duration.map_or(Json::Null, Json::UInt),
            ),
        ])
    }

    /// Parses the wire form. Missing optional fields take the campaign
    /// defaults; `scenario` is required.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field.
    pub fn from_json(value: &Json) -> Result<JobSpec, SpecError> {
        let scenario = match value.get("scenario") {
            None => return Err(bad("job spec needs a \"scenario\"")),
            Some(Json::Str(token)) => ScenarioSource::Builtin(parse_scenario(token)?),
            Some(obj @ Json::Obj(_)) => match obj.get("file").and_then(Json::as_str) {
                Some(path) => ScenarioSource::File(PathBuf::from(path)),
                None => return Err(bad("scenario object needs a \"file\" path")),
            },
            Some(_) => return Err(bad("\"scenario\" must be a name or {\"file\": path}")),
        };
        let mut spec = JobSpec::new(scenario);
        if let Some(v) = value.get("nodes") {
            let nodes = v
                .as_u64()
                .ok_or_else(|| bad("\"nodes\" must be an integer"))?;
            if !(2..=16).contains(&nodes) {
                return Err(bad("\"nodes\" must be in 2..=16"));
            }
            spec.nodes = nodes as usize;
        }
        if let Some(v) = value.get("topology") {
            let token = v
                .as_str()
                .ok_or_else(|| bad("\"topology\" must be a string"))?;
            spec.topology = Topology::from_token(token).ok_or_else(|| unknown_topology(token))?;
        }
        if let Some(v) = value.get("authority") {
            let token = v
                .as_str()
                .ok_or_else(|| bad("\"authority\" must be a string"))?;
            spec.authority =
                CouplerAuthority::from_token(token).ok_or_else(|| unknown_authority(token))?;
        }
        if let Some(v) = value.get("policy") {
            spec.policy = policy_from_json(v)?;
        }
        if let Some(v) = value.get("trials") {
            let trials = v
                .as_u64()
                .ok_or_else(|| bad("\"trials\" must be an integer"))?;
            spec.trials = u32::try_from(trials)
                .ok()
                .filter(|&t| t <= MAX_TRIALS)
                .ok_or_else(|| bad(format!("\"trials\" must be at most {MAX_TRIALS}")))?;
        }
        if let Some(v) = value.get("slots") {
            spec.slots = v
                .as_u64()
                .ok_or_else(|| bad("\"slots\" must be an integer"))?;
        }
        if let Some(v) = value.get("seed") {
            spec.seed = v.as_u64().ok_or_else(|| bad("\"seed\" must be a u64"))?;
        }
        if let Some(v) = value.get("fault_duration") {
            spec.fault_duration = if v.is_null() {
                None
            } else {
                Some(
                    v.as_u64()
                        .ok_or_else(|| bad("\"fault_duration\" must be an integer or null"))?,
                )
            };
        }
        Ok(spec)
    }
}

/// A spec resolved against the filesystem: the referenced scenario file
/// (if any) has been read once and snapshotted, and both hashes are
/// fixed. All later work — journal naming, cache keys, trial execution —
/// uses this snapshot, so a concurrent edit to the file cannot tear a
/// running sweep.
#[derive(Debug, Clone)]
pub struct ResolvedJob {
    /// The spec as submitted.
    pub spec: JobSpec,
    /// Content hash of everything but policy/seed/trials (cache scope).
    pub scenario_hash: u64,
    /// Content hash of the whole sweep (journal scope, wire job id).
    pub job_hash: u64,
    /// The executable form.
    pub exec: TrialExec,
}

impl ResolvedJob {
    /// Resolves a spec: loads and parses the scenario file when the job
    /// references one (relative paths resolve against `base_dir`),
    /// builds the trial executor, and derives both content hashes.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for unreadable/unparsable scenario files
    /// or out-of-range cluster sizes.
    pub fn resolve(spec: JobSpec, base_dir: &Path) -> Result<ResolvedJob, SpecError> {
        let (exec, file_fingerprint) = match &spec.scenario {
            ScenarioSource::Builtin(scenario) => {
                let campaign = Campaign::new(spec.nodes, spec.topology, spec.authority)
                    .trials(spec.trials)
                    .slots(spec.slots)
                    .seed(spec.seed)
                    .restart_policy(spec.policy);
                let campaign = match spec.fault_duration {
                    Some(d) => campaign.fault_duration(d),
                    None => campaign,
                };
                (
                    TrialExec::Builtin {
                        campaign,
                        scenario: *scenario,
                    },
                    None,
                )
            }
            ScenarioSource::File(path) => {
                let path = if path.is_absolute() {
                    path.clone()
                } else {
                    base_dir.join(path)
                };
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| bad(format!("cannot read scenario {}: {e}", path.display())))?;
                let parent = path.parent().unwrap_or(base_dir).to_path_buf();
                let scenario = tta_conformance::Scenario::parse(&text, &parent)
                    .map_err(|e| bad(format!("scenario {}: {e}", path.display())))?;
                let fingerprint = fnv1a64(text.as_bytes());
                (
                    TrialExec::File {
                        scenario: Box::new(scenario),
                        policy: spec.policy,
                        seed: spec.seed,
                        trials: spec.trials,
                    },
                    Some(fingerprint),
                )
            }
        };

        // The scenario-scope canonical string uses the *effective*
        // simulation parameters: for file jobs those come from the file,
        // so two specs that resolve to the same simulation share cache
        // regardless of what their ignored fields said.
        let scenario_part = match &exec {
            TrialExec::Builtin {
                campaign: _,
                scenario,
            } => Json::Obj(vec![
                ("nodes".to_string(), Json::UInt(spec.nodes as u64)),
                ("topology".to_string(), Json::str(spec.topology.token())),
                ("authority".to_string(), Json::str(spec.authority.token())),
                ("scenario".to_string(), Json::str(scenario_token(*scenario))),
                ("slots".to_string(), Json::UInt(spec.slots)),
                (
                    "fault_duration".to_string(),
                    spec.fault_duration.map_or(Json::Null, Json::UInt),
                ),
            ])
            .render(),
            TrialExec::File { scenario, .. } => Json::Obj(vec![
                ("nodes".to_string(), Json::UInt(scenario.nodes as u64)),
                ("topology".to_string(), Json::str(scenario.topology.token())),
                (
                    "authority".to_string(),
                    Json::str(scenario.authority.token()),
                ),
                (
                    "scenario_content".to_string(),
                    Json::str(to_hex(
                        file_fingerprint.expect("file job has a fingerprint"),
                    )),
                ),
                ("slots".to_string(), Json::UInt(scenario.slots)),
            ])
            .render(),
        };
        let scenario_hash = fnv1a64(scenario_part.as_bytes());

        let mut job_bytes = spec.to_json().render().into_bytes();
        job_bytes.push(b'|');
        job_bytes.extend_from_slice(&file_fingerprint.unwrap_or(0).to_le_bytes());
        let job_hash = fnv1a64(&job_bytes);

        Ok(ResolvedJob {
            spec,
            scenario_hash,
            job_hash,
            exec,
        })
    }

    /// The cache key of one trial: `fnv(scenario_hash ‖ policy ‖ seed)`.
    #[must_use]
    pub fn trial_key(&self, trial_seed: u64) -> u64 {
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(&self.scenario_hash.to_le_bytes());
        bytes.push(b'|');
        bytes.extend_from_slice(policy_to_json(self.spec.policy).render().as_bytes());
        bytes.push(b'|');
        bytes.extend_from_slice(&trial_seed.to_le_bytes());
        fnv1a64(&bytes)
    }

    /// The wire job id.
    #[must_use]
    pub fn job_id(&self) -> String {
        to_hex(self.job_hash)
    }
}

/// The executable form of a job: something that can run trial `i`.
#[derive(Debug, Clone)]
pub enum TrialExec {
    /// A built-in randomized campaign scenario.
    Builtin {
        /// The configured campaign (trial seeds derive from it).
        campaign: Campaign,
        /// The scenario to inject.
        scenario: Scenario,
    },
    /// A fixed fault plan from a scenario file, randomized per trial
    /// only in the nodes' start delays.
    File {
        /// The parsed scenario.
        scenario: Box<tta_conformance::Scenario>,
        /// Restart policy override (the sweep axis).
        policy: RestartPolicy,
        /// Campaign seed.
        seed: u64,
        /// Trial count.
        trials: u32,
    },
}

/// Scenario-tag for file-scenario seed derivation: one past the last
/// built-in [`Scenario`] discriminant, so file trials can never collide
/// with a built-in scenario's seed stream under the same campaign seed.
const FILE_SCENARIO_TAG: u64 = 8;

impl TrialExec {
    /// Trials this job will actually run: the requested count, or zero
    /// when the scenario is physically inapplicable (mirroring
    /// [`Campaign::run`]'s empty report for e.g. a replay on a bus).
    #[must_use]
    pub fn effective_trials(&self) -> u32 {
        match self {
            TrialExec::Builtin { campaign, scenario } => {
                if campaign.applicable(*scenario) {
                    self.requested_trials()
                } else {
                    0
                }
            }
            TrialExec::File { scenario, .. } => {
                if scenario.sim_applicable().is_ok() {
                    self.requested_trials()
                } else {
                    0
                }
            }
        }
    }

    fn requested_trials(&self) -> u32 {
        match self {
            TrialExec::Builtin { campaign, .. } => campaign.trial_count(),
            TrialExec::File { trials, .. } => *trials,
        }
    }

    /// The derived seed of trial `index`.
    #[must_use]
    pub fn trial_seed(&self, index: u32) -> u64 {
        match self {
            TrialExec::Builtin { campaign, scenario } => campaign.trial_seed(*scenario, index),
            TrialExec::File { seed, .. } => {
                mix(seed ^ mix(FILE_SCENARIO_TAG << 32 | u64::from(index)))
            }
        }
    }

    /// Runs one trial. Trial `index` is the same simulation no matter
    /// which worker (or which resumed run) executes it.
    #[must_use]
    pub fn run_trial(&self, index: u32) -> TrialResult {
        match self {
            TrialExec::Builtin { campaign, scenario } => campaign.run_trial(*scenario, index),
            TrialExec::File {
                scenario, policy, ..
            } => {
                let seed = self.trial_seed(index);
                let mut rng = StdRng::seed_from_u64(seed);
                let delays: Vec<u32> = (0..scenario.nodes)
                    .map(|_| rng.gen_range(0..4 * scenario.nodes as u32))
                    .collect();
                let report = scenario
                    .sim_builder()
                    .restart_policy(*policy)
                    .start_delays(delays)
                    .build()
                    .run();
                TrialResult::from_report(index, seed, scenario.nodes, &report)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Stable wire tokens. The builtin-scenario, topology and authority
// tokens match the scenario DSL's spellings where one exists.
// ---------------------------------------------------------------------

/// The wire token of a built-in scenario.
#[must_use]
pub fn scenario_token(scenario: Scenario) -> &'static str {
    match scenario {
        Scenario::FaultFree => "fault_free",
        Scenario::SosSender => "sos_sender",
        Scenario::MasqueradeColdStart => "masquerade_cold_start",
        Scenario::InvalidCState => "invalid_c_state",
        Scenario::Babbling => "babbling",
        Scenario::CouplerReplay => "coupler_replay",
        Scenario::CouplerSilence => "coupler_silence",
        Scenario::CouplerNoise => "coupler_noise",
    }
}

/// Parses a built-in scenario token.
///
/// # Errors
///
/// Returns a [`SpecError`] listing the valid tokens.
pub fn parse_scenario(token: &str) -> Result<Scenario, SpecError> {
    Scenario::all()
        .into_iter()
        .find(|s| scenario_token(*s) == token)
        .ok_or_else(|| {
            bad(format!(
                "unknown scenario `{token}` (expected one of: {})",
                Scenario::all().map(scenario_token).join(" | ")
            ))
        })
}

/// The error for a topology token [`Topology::from_token`] does not
/// know.
#[must_use]
pub fn unknown_topology(token: &str) -> SpecError {
    bad(format!("unknown topology `{token}` (bus | star)"))
}

/// The error for an authority token [`CouplerAuthority::from_token`]
/// does not know.
#[must_use]
pub fn unknown_authority(token: &str) -> SpecError {
    bad(format!(
        "unknown authority `{token}` (passive | time_windows | small_shifting | full_shifting)"
    ))
}

/// The wire form of a restart policy.
#[must_use]
pub fn policy_to_json(policy: RestartPolicy) -> Json {
    match policy {
        RestartPolicy::Never => Json::str("never"),
        RestartPolicy::Immediate => Json::str("immediate"),
        RestartPolicy::BoundedRetry {
            max_restarts,
            backoff_slots,
        } => Json::Obj(vec![(
            "bounded_retry".to_string(),
            Json::Obj(vec![
                (
                    "max_restarts".to_string(),
                    Json::UInt(u64::from(max_restarts)),
                ),
                ("backoff_slots".to_string(), Json::UInt(backoff_slots)),
            ]),
        )]),
        RestartPolicy::Watchdog { silence_slots } => Json::Obj(vec![(
            "watchdog".to_string(),
            Json::Obj(vec![(
                "silence_slots".to_string(),
                Json::UInt(silence_slots),
            )]),
        )]),
    }
}

/// Parses the wire form of a restart policy.
///
/// # Errors
///
/// Returns a [`SpecError`] describing the expected shape.
pub fn policy_from_json(value: &Json) -> Result<RestartPolicy, SpecError> {
    match value {
        Json::Str(s) if s == "never" => Ok(RestartPolicy::Never),
        Json::Str(s) if s == "immediate" => Ok(RestartPolicy::Immediate),
        Json::Obj(_) => {
            if let Some(retry) = value.get("bounded_retry") {
                let max = retry
                    .get("max_restarts")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("bounded_retry needs integer \"max_restarts\""))?;
                let backoff = retry
                    .get("backoff_slots")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("bounded_retry needs integer \"backoff_slots\""))?;
                return Ok(RestartPolicy::BoundedRetry {
                    max_restarts: u32::try_from(max)
                        .map_err(|_| bad("\"max_restarts\" too large"))?,
                    backoff_slots: backoff,
                });
            }
            if let Some(watchdog) = value.get("watchdog") {
                let silence = watchdog
                    .get("silence_slots")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("watchdog needs integer \"silence_slots\""))?;
                return Ok(RestartPolicy::Watchdog {
                    silence_slots: silence,
                });
            }
            Err(bad("policy object needs \"bounded_retry\" or \"watchdog\""))
        }
        _ => Err(bad(
            "policy must be \"never\" | \"immediate\" | {\"bounded_retry\": ..} | {\"watchdog\": ..}",
        )),
    }
}

/// The wire token of a containment outcome.
#[must_use]
pub fn outcome_token(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Contained => "contained",
        Outcome::HealthyNodeFrozen => "healthy_node_frozen",
        Outcome::StartupFailed => "startup_failed",
    }
}

fn parse_outcome(token: &str) -> Result<Outcome, SpecError> {
    match token {
        "contained" => Ok(Outcome::Contained),
        "healthy_node_frozen" => Ok(Outcome::HealthyNodeFrozen),
        "startup_failed" => Ok(Outcome::StartupFailed),
        other => Err(bad(format!("unknown outcome `{other}`"))),
    }
}

/// The wire token of a recovery outcome.
#[must_use]
pub fn recovery_token(outcome: RecoveryOutcome) -> &'static str {
    match outcome {
        RecoveryOutcome::Contained => "contained",
        RecoveryOutcome::Recovered => "recovered",
        RecoveryOutcome::DegradedStable => "degraded_stable",
        RecoveryOutcome::PermanentLoss => "permanent_loss",
    }
}

/// Parses a recovery-outcome token.
///
/// # Errors
///
/// Returns a [`SpecError`] for unknown tokens.
pub fn parse_recovery(token: &str) -> Result<RecoveryOutcome, SpecError> {
    match token {
        "contained" => Ok(RecoveryOutcome::Contained),
        "recovered" => Ok(RecoveryOutcome::Recovered),
        "degraded_stable" => Ok(RecoveryOutcome::DegradedStable),
        "permanent_loss" => Ok(RecoveryOutcome::PermanentLoss),
        other => Err(bad(format!("unknown recovery outcome `{other}`"))),
    }
}

// ---------------------------------------------------------------------
// Trial records and aggregates on the wire.
// ---------------------------------------------------------------------

/// The wire fields of one trial result, in canonical order.
#[must_use]
pub fn trial_to_fields(trial: &TrialResult) -> Vec<(String, Json)> {
    vec![
        ("index".to_string(), Json::UInt(u64::from(trial.index))),
        ("seed".to_string(), Json::UInt(trial.seed)),
        (
            "outcome".to_string(),
            Json::str(outcome_token(trial.outcome)),
        ),
        (
            "recovery".to_string(),
            Json::str(recovery_token(trial.recovery)),
        ),
        (
            "unavailability".to_string(),
            Json::Float(trial.unavailability),
        ),
        (
            "ttr".to_string(),
            trial.time_to_reintegration.map_or(Json::Null, Json::UInt),
        ),
    ]
}

/// Parses [`trial_to_fields`] output back.
///
/// # Errors
///
/// Returns a [`SpecError`] naming the missing/malformed field.
pub fn trial_from_json(value: &Json) -> Result<TrialResult, SpecError> {
    let index = value
        .get("index")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("trial needs integer \"index\""))?;
    let seed = value
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("trial needs u64 \"seed\""))?;
    let outcome = value
        .get("outcome")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("trial needs string \"outcome\""))?;
    let recovery = value
        .get("recovery")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("trial needs string \"recovery\""))?;
    let unavailability = value
        .get("unavailability")
        .and_then(Json::as_f64)
        .ok_or_else(|| bad("trial needs numeric \"unavailability\""))?;
    let ttr = match value.get("ttr") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| bad("\"ttr\" must be u64 or null"))?,
        ),
    };
    Ok(TrialResult {
        index: u32::try_from(index).map_err(|_| bad("\"index\" too large"))?,
        seed,
        outcome: parse_outcome(outcome)?,
        recovery: parse_recovery(recovery)?,
        unavailability,
        time_to_reintegration: ttr,
    })
}

/// The wire fields of one trial verdict, in canonical order. A
/// completed trial renders exactly as [`trial_to_fields`] (so journals
/// and streams from before quarantine existed stay byte-identical); a
/// quarantined trial renders as
/// `{"index":N,"seed":S,"quarantined":"panic"|"timeout"}`.
#[must_use]
pub fn verdict_to_fields(verdict: &TrialVerdict) -> Vec<(String, Json)> {
    match verdict {
        TrialVerdict::Completed(trial) => trial_to_fields(trial),
        TrialVerdict::Quarantined(q) => vec![
            ("index".to_string(), Json::UInt(u64::from(q.index))),
            ("seed".to_string(), Json::UInt(q.seed)),
            ("quarantined".to_string(), Json::str(q.reason.token())),
        ],
    }
}

/// Parses [`verdict_to_fields`] output back. Records without a
/// `quarantined` field parse as completed trials, so journals written
/// before quarantine existed load unchanged.
///
/// # Errors
///
/// Returns a [`SpecError`] naming the missing/malformed field.
pub fn verdict_from_json(value: &Json) -> Result<TrialVerdict, SpecError> {
    let Some(reason) = value.get("quarantined") else {
        return trial_from_json(value).map(TrialVerdict::Completed);
    };
    let reason = reason
        .as_str()
        .and_then(QuarantineReason::parse)
        .ok_or_else(|| bad("\"quarantined\" must be \"panic\" or \"timeout\""))?;
    let index = value
        .get("index")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("quarantined trial needs integer \"index\""))?;
    let seed = value
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("quarantined trial needs u64 \"seed\""))?;
    Ok(TrialVerdict::Quarantined(QuarantinedTrial {
        index: u32::try_from(index).map_err(|_| bad("\"index\" too large"))?,
        seed,
        reason,
    }))
}

/// The wire form of a folded aggregate.
#[must_use]
pub fn aggregate_to_json(agg: &TrialAggregate) -> Json {
    Json::Obj(vec![
        ("trials".to_string(), Json::UInt(u64::from(agg.trials))),
        (
            "contained".to_string(),
            Json::UInt(u64::from(agg.contained)),
        ),
        (
            "healthy_frozen".to_string(),
            Json::UInt(u64::from(agg.healthy_frozen)),
        ),
        (
            "startup_failed".to_string(),
            Json::UInt(u64::from(agg.startup_failed)),
        ),
        (
            "recovery_contained".to_string(),
            Json::UInt(u64::from(agg.recovery_contained)),
        ),
        (
            "recovered".to_string(),
            Json::UInt(u64::from(agg.recovered)),
        ),
        ("degraded".to_string(), Json::UInt(u64::from(agg.degraded))),
        (
            "permanent_loss".to_string(),
            Json::UInt(u64::from(agg.permanent_loss)),
        ),
        (
            "mean_unavailability".to_string(),
            Json::Float(agg.mean_unavailability),
        ),
        (
            "mean_ttr".to_string(),
            agg.mean_time_to_reintegration
                .map_or(Json::Null, Json::Float),
        ),
    ])
}

/// Parses [`aggregate_to_json`] output back.
///
/// # Errors
///
/// Returns a [`SpecError`] naming the missing/malformed field.
pub fn aggregate_from_json(value: &Json) -> Result<TrialAggregate, SpecError> {
    let count = |key: &str| -> Result<u32, SpecError> {
        let v = value
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(format!("aggregate needs integer \"{key}\"")))?;
        u32::try_from(v).map_err(|_| bad(format!("\"{key}\" too large")))
    };
    Ok(TrialAggregate {
        trials: count("trials")?,
        contained: count("contained")?,
        healthy_frozen: count("healthy_frozen")?,
        startup_failed: count("startup_failed")?,
        recovery_contained: count("recovery_contained")?,
        recovered: count("recovered")?,
        degraded: count("degraded")?,
        permanent_loss: count("permanent_loss")?,
        mean_unavailability: value
            .get("mean_unavailability")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("aggregate needs numeric \"mean_unavailability\""))?,
        mean_time_to_reintegration: match value.get("mean_ttr") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_f64()
                    .ok_or_else(|| bad("\"mean_ttr\" must be numeric or null"))?,
            ),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        JobSpec {
            nodes: 4,
            topology: Topology::Star,
            authority: CouplerAuthority::FullShifting,
            scenario: ScenarioSource::Builtin(Scenario::CouplerReplay),
            policy: RestartPolicy::Watchdog { silence_slots: 8 },
            trials: 12,
            slots: 300,
            seed: 0xDB5_2004,
            fault_duration: Some(60),
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = sample_spec();
        let parsed = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);

        let retry = JobSpec {
            policy: RestartPolicy::BoundedRetry {
                max_restarts: 3,
                backoff_slots: 4,
            },
            scenario: ScenarioSource::File(PathBuf::from("scenarios/x.toml")),
            ..spec
        };
        assert_eq!(JobSpec::from_json(&retry.to_json()).unwrap(), retry);
    }

    #[test]
    fn trial_counts_above_the_cap_are_rejected_naming_it() {
        let with_trials = |trials: u64| {
            let mut wire = sample_spec().to_json();
            if let Json::Obj(fields) = &mut wire {
                for (key, value) in fields.iter_mut() {
                    if key == "trials" {
                        *value = Json::UInt(trials);
                    }
                }
            }
            JobSpec::from_json(&wire)
        };
        assert_eq!(
            with_trials(u64::from(MAX_TRIALS)).unwrap().trials,
            MAX_TRIALS
        );
        for trials in [
            u64::from(MAX_TRIALS) + 1,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
        ] {
            let error = with_trials(trials).expect_err("above the cap");
            assert!(error.0.contains("1048576"), "{trials}: {}", error.0);
        }
    }

    #[test]
    fn every_builtin_scenario_token_parses_back() {
        for scenario in Scenario::all() {
            assert_eq!(parse_scenario(scenario_token(scenario)), Ok(scenario));
        }
        assert!(parse_scenario("nope").is_err());
    }

    #[test]
    fn resolved_builtin_jobs_match_inline_campaigns() {
        let job = ResolvedJob::resolve(sample_spec(), Path::new(".")).unwrap();
        let campaign = Campaign::new(4, Topology::Star, CouplerAuthority::FullShifting)
            .trials(12)
            .slots(300)
            .seed(0xDB5_2004)
            .restart_policy(RestartPolicy::Watchdog { silence_slots: 8 })
            .fault_duration(60);
        assert_eq!(job.exec.effective_trials(), 12);
        for index in [0u32, 3, 11] {
            assert_eq!(
                job.exec.run_trial(index),
                campaign.run_trial(Scenario::CouplerReplay, index)
            );
        }
    }

    #[test]
    fn inapplicable_scenarios_resolve_to_zero_trials() {
        let spec = JobSpec {
            topology: Topology::Bus,
            authority: CouplerAuthority::Passive,
            ..sample_spec()
        };
        let job = ResolvedJob::resolve(spec, Path::new(".")).unwrap();
        assert_eq!(job.exec.effective_trials(), 0);
    }

    #[test]
    fn policy_and_seed_separate_cache_scopes() {
        let a = ResolvedJob::resolve(sample_spec(), Path::new(".")).unwrap();
        // Changing policy keeps the scenario hash (cache reuse across a
        // policy sweep needs *different* trial keys, same scenario).
        let b = ResolvedJob::resolve(
            JobSpec {
                policy: RestartPolicy::Never,
                ..sample_spec()
            },
            Path::new("."),
        )
        .unwrap();
        assert_eq!(a.scenario_hash, b.scenario_hash);
        assert_ne!(a.job_hash, b.job_hash);
        assert_ne!(a.trial_key(7), b.trial_key(7));

        // A longer sweep over the same scenario/policy shares both the
        // scenario hash and the per-trial keys.
        let c = ResolvedJob::resolve(
            JobSpec {
                trials: 24,
                ..sample_spec()
            },
            Path::new("."),
        )
        .unwrap();
        assert_eq!(a.scenario_hash, c.scenario_hash);
        assert_eq!(a.trial_key(7), c.trial_key(7));
        assert_ne!(a.job_hash, c.job_hash);

        // Changing the horizon changes the simulation → scenario hash.
        let d = ResolvedJob::resolve(
            JobSpec {
                slots: 400,
                ..sample_spec()
            },
            Path::new("."),
        )
        .unwrap();
        assert_ne!(a.scenario_hash, d.scenario_hash);
    }

    #[test]
    fn trial_records_round_trip() {
        let trial = TrialResult {
            index: 17,
            seed: u64::MAX - 3,
            outcome: Outcome::HealthyNodeFrozen,
            recovery: RecoveryOutcome::PermanentLoss,
            unavailability: 1.0 / 3.0,
            time_to_reintegration: Some(42),
        };
        let json = Json::Obj(trial_to_fields(&trial));
        let reparsed = trial_from_json(&Json::parse(&json.render()).unwrap()).unwrap();
        assert_eq!(reparsed, trial);

        let no_ttr = TrialResult {
            time_to_reintegration: None,
            ..trial
        };
        let json = Json::Obj(trial_to_fields(&no_ttr));
        assert_eq!(
            trial_from_json(&Json::parse(&json.render()).unwrap()).unwrap(),
            no_ttr
        );
    }

    #[test]
    fn aggregates_round_trip() {
        let trials = vec![
            TrialResult {
                index: 0,
                seed: 1,
                outcome: Outcome::Contained,
                recovery: RecoveryOutcome::Contained,
                unavailability: 0.25,
                time_to_reintegration: None,
            },
            TrialResult {
                index: 1,
                seed: 2,
                outcome: Outcome::HealthyNodeFrozen,
                recovery: RecoveryOutcome::Recovered,
                unavailability: 0.125,
                time_to_reintegration: Some(30),
            },
        ];
        let agg = TrialAggregate::fold(&trials);
        let json = aggregate_to_json(&agg);
        let reparsed = aggregate_from_json(&Json::parse(&json.render()).unwrap()).unwrap();
        assert_eq!(reparsed, agg);
    }
}
