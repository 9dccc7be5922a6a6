//! The TOML scenario DSL: one file describes a cluster, a fault plan and
//! the verdicts both engines are expected to reach.
//!
//! ```toml
//! [scenario]
//! name = "coldstart-dup"
//!
//! [cluster]
//! nodes = 4
//! topology = "star"
//! authority = "full_shifting"
//!
//! [model]
//! out_of_slot_budget = 1          # or "unlimited"
//!
//! [sim]
//! slots = 400
//!
//! [[fault.coupler]]
//! channel = 0
//! mode = "out_of_slot"            # silence | bad_frame | out_of_slot
//! from_slot = 12
//! to_slot = 340
//!
//! [expect]
//! verdict = "violated"            # holds | violated
//! trace_len = 10
//! sim_disturbed = true
//! golden = "../crates/conformance/fixtures/coldstart_dup.trace"
//! ```

use crate::toml::{Document, Table, Value};
use std::fmt;
use std::path::{Path, PathBuf};
use tta_core::{ClusterConfig, ClusterModel, FaultBudget};
use tta_guardian::sos::SosDomain;
use tta_guardian::{CouplerAuthority, CouplerFaultMode};
use tta_protocol::{HostChoices, RestartPolicy};
use tta_sim::{
    CouplerFaultEvent, FaultPersistence, FaultPlan, NodeFault, NodeFaultKind, RecoveryOutcome,
    SimBuilder, Topology,
};
use tta_types::NodeId;

/// The verdict a scenario expects from the bounded checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedVerdict {
    /// The property holds on every reachable state.
    Holds,
    /// A counterexample exists.
    Violated,
}

impl fmt::Display for ExpectedVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExpectedVerdict::Holds => "holds",
            ExpectedVerdict::Violated => "violated",
        })
    }
}

/// What the scenario author expects each engine to report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expectations {
    /// Expected checker verdict.
    pub verdict: Option<ExpectedVerdict>,
    /// Expected verdict for the liveness checker: per-node
    /// `listening ~> integrated` under weak startup fairness.
    pub liveness: Option<ExpectedVerdict>,
    /// Expected verdict for the recovery checker: per-node
    /// `frozen ~> integrated` under restart fairness.
    pub recovery: Option<ExpectedVerdict>,
    /// Expected counterexample length in transitions.
    pub trace_len: Option<usize>,
    /// Whether the simulated run should be disturbed (a healthy node
    /// froze or the cluster failed to start).
    pub sim_disturbed: Option<bool>,
    /// Expected [`RecoveryOutcome`] classification of the simulated run
    /// — the recovery-aware refinement of `sim_disturbed` used to pin
    /// fuzzer-discovered regressions.
    pub recovery_outcome: Option<RecoveryOutcome>,
    /// Whether the trace-replay oracle should find every step admitted
    /// (`true`, the default when the oracle runs) or is expected to
    /// diverge (`false`) — used to pin *known* abstraction gaps, e.g.
    /// the simulator's per-receiver membership semantics on replayed
    /// C-state frames, which the model's uniform channel view cannot
    /// express. An expected divergence that stops reproducing fails the
    /// scenario, so a closed gap is noticed.
    pub oracle_conforms: Option<bool>,
    /// Golden-trace fixture to compare the rendered counterexample
    /// against, relative to the scenario file.
    pub golden: Option<String>,
}

/// The temporal shape of a declared [`PropertySpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyKind {
    /// `G(predicate)` — the predicate holds on every reachable state.
    Invariant,
    /// `F(predicate)` — the predicate eventually holds on every fair path.
    Eventually,
    /// `GF(predicate)` — the predicate holds infinitely often.
    AlwaysEventually,
    /// `antecedent ~> consequent` — every antecedent state is fairly
    /// followed by a consequent state.
    LeadsTo,
}

impl fmt::Display for PropertyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PropertyKind::Invariant => "invariant",
            PropertyKind::Eventually => "eventually",
            PropertyKind::AlwaysEventually => "always_eventually",
            PropertyKind::LeadsTo => "leads_to",
        })
    }
}

/// A named temporal property declared in a `[[property]]` section.
///
/// Predicates are referenced by name from the shared predicate catalog
/// (see `tta-modellint`); the conformance layer stores the names verbatim
/// and leaves resolution to consumers, so a scenario with properties
/// still parses without the lint engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertySpec {
    /// Short identifier used in diagnostics.
    pub name: String,
    /// Temporal shape.
    pub kind: PropertyKind,
    /// The predicate (invariant / eventually / always_eventually), or
    /// the antecedent (leads_to).
    pub predicate: String,
    /// The consequent (leads_to only).
    pub consequent: Option<String>,
    /// 1-based line of the `[[property]]` header.
    pub line: usize,
}

/// One parsed conformance scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Short identifier.
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Cluster size (2..=16).
    pub nodes: usize,
    /// Interconnect topology.
    pub topology: Topology,
    /// Central-guardian authority level.
    pub authority: CouplerAuthority,
    /// Simulation horizon in slots.
    pub slots: u64,
    /// Per-node start delays (defaults to the simulator's staggering).
    pub start_delays: Option<Vec<u32>>,
    /// The hosts' restart policy for the simulated run (default
    /// [`RestartPolicy::Never`], the paper's absorbing-freeze semantics).
    pub restart_policy: RestartPolicy,
    /// Replay budget for the *checker* configuration.
    pub out_of_slot_budget: FaultBudget,
    /// Checker constraint: prohibit replaying cold-start frames.
    pub forbid_cold_start_replay: bool,
    /// Coupler faults injected into the simulated run.
    pub coupler_faults: Vec<CouplerFaultEvent>,
    /// Node (transmitter-side) faults injected into the simulated run.
    pub node_faults: Vec<NodeFault>,
    /// Additional named temporal properties (`[[property]]` sections),
    /// checked for non-vacuity by the lint engine.
    pub properties: Vec<PropertySpec>,
    /// Expected outcomes.
    pub expect: Expectations,
    /// Directory of the scenario file (fixture paths resolve against it).
    pub base_dir: PathBuf,
}

/// A scenario-level error: a syntax error from the TOML layer or a
/// semantic error (unknown section, bad enum value, inconsistent plan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(String);

impl ScenarioError {
    fn new(message: impl Into<String>) -> Self {
        ScenarioError(message.into())
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ScenarioError {}

const KNOWN_SECTIONS: [&str; 6] = ["", "scenario", "cluster", "model", "sim", "expect"];

impl Scenario {
    /// Parses a scenario from TOML text. `base_dir` is the directory
    /// fixture references resolve against.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] for syntax errors, unknown sections or
    /// keys, out-of-range values, and fault plans inconsistent with the
    /// declared authority.
    pub fn parse(text: &str, base_dir: &Path) -> Result<Self, ScenarioError> {
        let doc = Document::parse(text).map_err(|e| ScenarioError::new(e.to_string()))?;
        for path in doc.paths() {
            if !KNOWN_SECTIONS.contains(&path)
                && path != "fault.coupler"
                && path != "fault.node"
                && path != "property"
            {
                return Err(ScenarioError::new(format!("unknown section [{path}]")));
            }
        }
        // The TOML layer rejects a repeated `[section]` header, but a
        // repeated `[[section]]` header is legal syntax (it is how
        // fault.coupler lists are written). For singleton sections that
        // would silently drop the later block: `Document::table` returns
        // the first match. Reject the repetition instead.
        for section in KNOWN_SECTIONS {
            if section.is_empty() {
                continue;
            }
            let count = doc.tables(section).count();
            if count > 1 {
                return Err(ScenarioError::new(format!(
                    "section [{section}] declared {count} times — only fault.coupler, \
                     fault.node and property may repeat"
                )));
            }
        }
        if let Some(root) = doc.table("") {
            if let Some(key) = root.keys().next() {
                return Err(ScenarioError::new(format!(
                    "top-level key `{key}` outside any section"
                )));
            }
        }

        let meta = doc.table("scenario");
        let name = get_str(meta, "name", "scenario")?
            .unwrap_or_default()
            .to_string();
        let description = get_str(meta, "description", "scenario")?
            .unwrap_or_default()
            .to_string();
        check_keys(meta, &["name", "description"])?;

        let cluster = doc
            .table("cluster")
            .ok_or_else(|| ScenarioError::new("missing [cluster] section"))?;
        check_keys(Some(cluster), &["nodes", "topology", "authority"])?;
        let nodes = get_int(Some(cluster), "nodes", "cluster")?
            .ok_or_else(|| ScenarioError::new("cluster.nodes is required"))?;
        let nodes = usize::try_from(nodes)
            .ok()
            .filter(|n| (2..=16).contains(n))
            .ok_or_else(|| ScenarioError::new("cluster.nodes must be in 2..=16"))?;
        let topology = match get_str(Some(cluster), "topology", "cluster")?.unwrap_or("star") {
            "star" => Topology::Star,
            "bus" => Topology::Bus,
            other => {
                return Err(ScenarioError::new(format!(
                    "cluster.topology `{other}` (expected star | bus)"
                )))
            }
        };
        let token = get_str(Some(cluster), "authority", "cluster")?.unwrap_or("small_shifting");
        let authority = CouplerAuthority::from_token(token).ok_or_else(|| {
            ScenarioError::new(format!(
                "authority `{token}` (expected passive | time_windows | small_shifting | full_shifting)"
            ))
        })?;

        let model = doc.table("model");
        check_keys(model, &["out_of_slot_budget", "forbid_cold_start_replay"])?;
        let out_of_slot_budget = match model.and_then(|t| t.get("out_of_slot_budget")) {
            None => FaultBudget::Unlimited,
            Some(Value::Str(s)) if s == "unlimited" => FaultBudget::Unlimited,
            Some(Value::Int(n)) if (0..=255).contains(n) => FaultBudget::AtMost(*n as u8),
            Some(_) => {
                return Err(ScenarioError::new(
                    "model.out_of_slot_budget must be \"unlimited\" or an integer in 0..=255",
                ))
            }
        };
        let forbid_cold_start_replay =
            get_bool(model, "forbid_cold_start_replay", "model")?.unwrap_or(false);

        let sim = doc.table("sim");
        check_keys(
            sim,
            &[
                "slots",
                "start_delays",
                "restart_policy",
                "max_restarts",
                "backoff_slots",
                "silence_slots",
            ],
        )?;
        let slots = match get_int(sim, "slots", "sim")? {
            None => 400,
            Some(n) if n > 0 => n as u64,
            Some(_) => return Err(ScenarioError::new("sim.slots must be positive")),
        };
        let restart_policy = parse_restart_policy(sim)?;
        let start_delays = match sim.and_then(|t| t.get("start_delays")) {
            None => None,
            Some(Value::Array(items)) => {
                let delays: Option<Vec<u32>> = items
                    .iter()
                    .map(|v| v.as_int().and_then(|n| u32::try_from(n).ok()))
                    .collect();
                let delays = delays.ok_or_else(|| {
                    ScenarioError::new("sim.start_delays must be non-negative integers")
                })?;
                if delays.len() != nodes {
                    return Err(ScenarioError::new(format!(
                        "sim.start_delays needs {nodes} entries, got {}",
                        delays.len()
                    )));
                }
                Some(delays)
            }
            Some(_) => return Err(ScenarioError::new("sim.start_delays must be an array")),
        };

        let mut coupler_faults = Vec::new();
        for table in doc.tables("fault.coupler") {
            coupler_faults.push(parse_coupler_fault(table)?);
        }

        let mut node_faults = Vec::new();
        for table in doc.tables("fault.node") {
            node_faults.push(parse_node_fault(table, nodes)?);
        }

        let mut properties = Vec::new();
        for table in doc.tables("property") {
            properties.push(parse_property(table)?);
        }

        let expect_table = doc.table("expect");
        check_keys(
            expect_table,
            &[
                "verdict",
                "liveness",
                "recovery",
                "trace_len",
                "sim_disturbed",
                "recovery_outcome",
                "oracle",
                "golden",
            ],
        )?;
        let verdict_key = |key: &str| -> Result<Option<ExpectedVerdict>, ScenarioError> {
            match get_str(expect_table, key, "expect")? {
                None => Ok(None),
                Some("holds") => Ok(Some(ExpectedVerdict::Holds)),
                Some("violated") => Ok(Some(ExpectedVerdict::Violated)),
                Some(other) => Err(ScenarioError::new(format!(
                    "expect.{key} `{other}` (expected holds | violated)"
                ))),
            }
        };
        let expect = Expectations {
            verdict: verdict_key("verdict")?,
            liveness: verdict_key("liveness")?,
            recovery: verdict_key("recovery")?,
            trace_len: get_int(expect_table, "trace_len", "expect")?
                .map(|n| {
                    usize::try_from(n)
                        .map_err(|_| ScenarioError::new("expect.trace_len must be non-negative"))
                })
                .transpose()?,
            sim_disturbed: get_bool(expect_table, "sim_disturbed", "expect")?,
            recovery_outcome: match get_str(expect_table, "recovery_outcome", "expect")? {
                None => None,
                Some("contained") => Some(RecoveryOutcome::Contained),
                Some("recovered") => Some(RecoveryOutcome::Recovered),
                Some("degraded-stable") => Some(RecoveryOutcome::DegradedStable),
                Some("permanent-loss") => Some(RecoveryOutcome::PermanentLoss),
                Some(other) => {
                    return Err(ScenarioError::new(format!(
                        "expect.recovery_outcome `{other}` (expected contained | recovered | \
                         degraded-stable | permanent-loss)"
                    )))
                }
            },
            oracle_conforms: match get_str(expect_table, "oracle", "expect")? {
                None => None,
                Some("conforms") => Some(true),
                Some("diverges") => Some(false),
                Some(other) => {
                    return Err(ScenarioError::new(format!(
                        "expect.oracle `{other}` (expected conforms | diverges)"
                    )))
                }
            },
            golden: get_str(expect_table, "golden", "expect")?.map(str::to_string),
        };

        Ok(Scenario {
            name,
            description,
            nodes,
            topology,
            authority,
            slots,
            start_delays,
            restart_policy,
            out_of_slot_budget,
            forbid_cold_start_replay,
            coupler_faults,
            node_faults,
            properties,
            expect,
            base_dir: base_dir.to_path_buf(),
        })
    }

    /// Loads and parses a scenario file.
    ///
    /// # Errors
    ///
    /// Returns I/O failures and everything [`Self::parse`] rejects.
    pub fn load(path: &Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::new(format!("{}: {e}", path.display())))?;
        let base = path.parent().unwrap_or_else(|| Path::new("."));
        let mut scenario = Self::parse(&text, base)?;
        if scenario.name.is_empty() {
            scenario.name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
        }
        Ok(scenario)
    }

    /// The configuration the bounded checker verifies: the scenario's
    /// authority plus the `[model]` constraints.
    #[must_use]
    pub fn checker_config(&self) -> ClusterConfig {
        ClusterConfig {
            nodes: self.nodes,
            authority: self.authority,
            host_choices: HostChoices::checking(),
            out_of_slot_budget: self.out_of_slot_budget,
            forbid_cold_start_replay: self.forbid_cold_start_replay,
            symmetric_fault_reduction: true,
        }
    }

    /// The model the trace-replay oracle checks simulator steps against.
    ///
    /// Unlike [`Self::checker_config`] this drops every trace-shaping
    /// constraint: the budget is unlimited (the simulated fault plan may
    /// replay arbitrarily often), cold-start replays are allowed, and
    /// both couplers may fail (the plan may target channel 1). The oracle
    /// asks "is each observed step *possible*?", not "is it within the
    /// narrated counterexample's constraints?".
    #[must_use]
    pub fn oracle_model(&self) -> ClusterModel {
        ClusterModel::new(ClusterConfig {
            nodes: self.nodes,
            authority: self.authority,
            host_choices: HostChoices::checking(),
            out_of_slot_budget: FaultBudget::Unlimited,
            forbid_cold_start_replay: false,
            symmetric_fault_reduction: false,
        })
    }

    /// The simulator run this scenario describes.
    #[must_use]
    pub fn sim_builder(&self) -> SimBuilder {
        let mut plan = FaultPlan::none();
        for fault in &self.coupler_faults {
            plan = plan.with_coupler_fault(*fault);
        }
        for fault in &self.node_faults {
            plan = plan.with_node_fault(*fault);
        }
        let mut builder = SimBuilder::new(self.nodes)
            .topology(self.topology)
            .authority(self.authority)
            .slots(self.slots)
            .restart_policy(self.restart_policy)
            .plan(plan);
        if let Some(delays) = &self.start_delays {
            builder = builder.start_delays(delays.clone());
        }
        builder
    }

    /// Whether the simulator can execute this scenario's fault plan at
    /// all (`Ok`), or why not. An `out_of_slot` replay needs a coupler
    /// that buffers full frames; asking a lesser authority to replay is
    /// not a parse error (the checker phase still runs and reports the
    /// verdict/golden divergence) but the simulator phase must be
    /// skipped — the plan is physically meaningless there.
    ///
    /// # Errors
    ///
    /// Returns the human-readable reason the plan cannot be simulated.
    pub fn sim_applicable(&self) -> Result<(), String> {
        for fault in &self.coupler_faults {
            if fault.mode == CouplerFaultMode::OutOfSlot
                && !(self.topology.is_central() && self.authority.can_buffer_full_frames())
            {
                return Err(format!(
                    "out_of_slot replay requires a full-shifting star coupler \
                     (topology is {}, authority is {})",
                    self.topology, self.authority
                ));
            }
        }
        // Mirror the FaultPlan builder's single-faulty-coupler check so
        // an overlapping dual-channel plan skips the simulator phase
        // with a reason instead of aborting inside `sim_builder`.
        for (i, a) in self.coupler_faults.iter().enumerate() {
            for b in &self.coupler_faults[i + 1..] {
                if a.channel != b.channel
                    && a.from_slot < b.envelope_end()
                    && b.from_slot < a.envelope_end()
                {
                    return Err(
                        "coupler fault envelopes on both channels overlap — the simulator \
                         enforces the single-faulty-coupler hypothesis"
                            .to_string(),
                    );
                }
            }
        }
        Ok(())
    }

    /// Whether the simulated execution can be replayed through the formal
    /// model (`Ok`), or why not. The model speaks star topology with
    /// coupler faults only; a scenario outside that vocabulary still runs
    /// in the simulator, just without the step-admission oracle.
    ///
    /// # Errors
    ///
    /// Returns the human-readable reason the oracle does not apply.
    pub fn oracle_applicable(&self) -> Result<(), String> {
        self.sim_applicable()?;
        if self.topology != Topology::Star {
            return Err("the formal model covers only the star topology".into());
        }
        if !self.node_faults.is_empty() {
            return Err(
                "the formal model speaks coupler faults only — node faults cannot \
                 be replayed through it"
                    .into(),
            );
        }
        for (i, a) in self.coupler_faults.iter().enumerate() {
            for b in &self.coupler_faults[i + 1..] {
                if a.channel != b.channel && a.from_slot < b.to_slot && b.from_slot < a.to_slot {
                    return Err(format!(
                        "coupler faults on both channels overlap in slots {}..{} — \
                         outside the model's single-fault hypothesis",
                        a.from_slot.max(b.from_slot),
                        a.to_slot.min(b.to_slot)
                    ));
                }
            }
        }
        Ok(())
    }
}

fn parse_coupler_fault(table: &Table) -> Result<CouplerFaultEvent, ScenarioError> {
    check_keys(
        Some(table),
        &[
            "channel",
            "mode",
            "from_slot",
            "to_slot",
            "persistence",
            "period",
            "duty",
        ],
    )?;
    let where_ = format!("fault.coupler (line {})", table.line);
    let channel = get_int(Some(table), "channel", &where_)?
        .filter(|c| (0..=1).contains(c))
        .ok_or_else(|| ScenarioError::new(format!("{where_}: channel must be 0 or 1")))?
        as usize;
    // `none` is a mode but not a fault: a scenario cannot schedule it.
    let token = get_str(Some(table), "mode", &where_)?;
    let mode = token
        .and_then(CouplerFaultMode::from_token)
        .filter(|mode| mode.is_faulty())
        .ok_or_else(|| {
            ScenarioError::new(format!(
                "{where_}: mode `{}` (expected silence | bad_frame | out_of_slot)",
                token.unwrap_or("<missing>")
            ))
        })?;
    let from_slot = get_int(Some(table), "from_slot", &where_)?
        .filter(|s| *s >= 0)
        .ok_or_else(|| ScenarioError::new(format!("{where_}: from_slot is required")))?
        as u64;
    let to_slot = get_int(Some(table), "to_slot", &where_)?
        .filter(|s| *s >= 0)
        .ok_or_else(|| ScenarioError::new(format!("{where_}: to_slot is required")))?
        as u64;
    if from_slot >= to_slot {
        return Err(ScenarioError::new(format!(
            "{where_}: empty window {from_slot}..{to_slot}"
        )));
    }
    let persistence = parse_persistence(table, &where_)?;
    Ok(CouplerFaultEvent {
        channel,
        mode,
        from_slot,
        to_slot,
        persistence,
    })
}

fn parse_persistence(table: &Table, where_: &str) -> Result<FaultPersistence, ScenarioError> {
    let period = get_int(Some(table), "period", where_)?;
    let duty = get_int(Some(table), "duty", where_)?;
    match get_str(Some(table), "persistence", where_)? {
        None | Some("transient") => {
            if period.is_some() || duty.is_some() {
                return Err(ScenarioError::new(format!(
                    "{where_}: period/duty are only valid with persistence = \"intermittent\""
                )));
            }
            Ok(FaultPersistence::Transient)
        }
        Some("permanent") => {
            if period.is_some() || duty.is_some() {
                return Err(ScenarioError::new(format!(
                    "{where_}: period/duty are only valid with persistence = \"intermittent\""
                )));
            }
            Ok(FaultPersistence::Permanent)
        }
        Some("intermittent") => {
            let period = period
                .filter(|p| *p > 0)
                .ok_or_else(|| ScenarioError::new(format!("{where_}: period must be positive")))?
                as u64;
            let duty = duty
                .filter(|d| (1..=period as i64).contains(d))
                .ok_or_else(|| {
                    ScenarioError::new(format!("{where_}: duty must be in 1..=period"))
                })? as u64;
            Ok(FaultPersistence::Intermittent { period, duty })
        }
        Some(other) => Err(ScenarioError::new(format!(
            "{where_}: persistence `{other}` (expected transient | intermittent | permanent)"
        ))),
    }
}

fn parse_node_fault(table: &Table, nodes: usize) -> Result<NodeFault, ScenarioError> {
    check_keys(
        Some(table),
        &[
            "node",
            "kind",
            "domain",
            "magnitude",
            "claimed_slot",
            "from_slot",
            "to_slot",
            "persistence",
            "period",
            "duty",
        ],
    )?;
    let where_ = format!("fault.node (line {})", table.line);
    let node = get_int(Some(table), "node", &where_)?
        .filter(|n| (0..nodes as i64).contains(n))
        .ok_or_else(|| ScenarioError::new(format!("{where_}: node must be in 0..{nodes}")))?
        as u8;
    let domain = match get_str(Some(table), "domain", &where_)? {
        None => None,
        Some("time") => Some(SosDomain::Time),
        Some("value") => Some(SosDomain::Value),
        Some(other) => {
            return Err(ScenarioError::new(format!(
                "{where_}: domain `{other}` (expected time | value)"
            )))
        }
    };
    let magnitude = get_float(Some(table), "magnitude", &where_)?;
    let claimed_slot = get_int(Some(table), "claimed_slot", &where_)?
        .map(|s| {
            if (1..=nodes as i64).contains(&s) {
                Ok(s as u16)
            } else {
                Err(ScenarioError::new(format!(
                    "{where_}: claimed_slot must be in 1..={nodes}"
                )))
            }
        })
        .transpose()?;
    let sos_only = |used: bool, key: &str| -> Result<(), ScenarioError> {
        if used {
            Err(ScenarioError::new(format!(
                "{where_}: {key} is only valid with kind = \"sos\""
            )))
        } else {
            Ok(())
        }
    };
    let kind = match get_str(Some(table), "kind", &where_)? {
        Some("sos") => {
            let magnitude = magnitude.ok_or_else(|| {
                ScenarioError::new(format!("{where_}: sos needs a magnitude in 0..=1"))
            })?;
            if !(0.0..=1.0).contains(&magnitude) {
                return Err(ScenarioError::new(format!(
                    "{where_}: magnitude must be in 0..=1"
                )));
            }
            if claimed_slot.is_some() {
                return Err(ScenarioError::new(format!(
                    "{where_}: claimed_slot is not valid with kind = \"sos\""
                )));
            }
            NodeFaultKind::Sos {
                domain: domain.unwrap_or(SosDomain::Time),
                magnitude,
            }
        }
        Some(kind @ ("masquerade_cold_start" | "invalid_cstate")) => {
            sos_only(domain.is_some(), "domain")?;
            sos_only(magnitude.is_some(), "magnitude")?;
            let claimed_slot = claimed_slot.ok_or_else(|| {
                ScenarioError::new(format!("{where_}: {kind} needs a claimed_slot"))
            })?;
            if kind == "masquerade_cold_start" {
                NodeFaultKind::MasqueradeColdStart { claimed_slot }
            } else {
                NodeFaultKind::InvalidCState { claimed_slot }
            }
        }
        Some(kind @ ("babbling" | "mute")) => {
            sos_only(domain.is_some(), "domain")?;
            sos_only(magnitude.is_some(), "magnitude")?;
            if claimed_slot.is_some() {
                return Err(ScenarioError::new(format!(
                    "{where_}: claimed_slot is not valid with kind = \"{kind}\""
                )));
            }
            if kind == "babbling" {
                NodeFaultKind::Babbling
            } else {
                NodeFaultKind::Mute
            }
        }
        other => {
            return Err(ScenarioError::new(format!(
                "{where_}: kind `{}` (expected sos | masquerade_cold_start | \
                 invalid_cstate | babbling | mute)",
                other.unwrap_or("<missing>")
            )))
        }
    };
    let from_slot = get_int(Some(table), "from_slot", &where_)?
        .filter(|s| *s >= 0)
        .ok_or_else(|| ScenarioError::new(format!("{where_}: from_slot is required")))?
        as u64;
    let to_slot = get_int(Some(table), "to_slot", &where_)?
        .filter(|s| *s >= 0)
        .ok_or_else(|| ScenarioError::new(format!("{where_}: to_slot is required")))?
        as u64;
    if from_slot >= to_slot {
        return Err(ScenarioError::new(format!(
            "{where_}: empty window {from_slot}..{to_slot}"
        )));
    }
    let persistence = parse_persistence(table, &where_)?;
    Ok(NodeFault {
        node: NodeId::new(node),
        kind,
        from_slot,
        to_slot,
        persistence,
    })
}

fn parse_restart_policy(sim: Option<&Table>) -> Result<RestartPolicy, ScenarioError> {
    let max_restarts = get_int(sim, "max_restarts", "sim")?;
    let backoff_slots = get_int(sim, "backoff_slots", "sim")?;
    let silence_slots = get_int(sim, "silence_slots", "sim")?;
    let param_free = |policy: &str| -> Result<(), ScenarioError> {
        if max_restarts.is_some() || backoff_slots.is_some() || silence_slots.is_some() {
            Err(ScenarioError::new(format!(
                "sim.restart_policy = \"{policy}\" takes no parameters"
            )))
        } else {
            Ok(())
        }
    };
    match get_str(sim, "restart_policy", "sim")? {
        None | Some("never") => {
            param_free("never")?;
            Ok(RestartPolicy::Never)
        }
        Some("immediate") => {
            param_free("immediate")?;
            Ok(RestartPolicy::Immediate)
        }
        Some("bounded_retry") => {
            if silence_slots.is_some() {
                return Err(ScenarioError::new(
                    "sim.silence_slots is only valid with restart_policy = \"watchdog\"",
                ));
            }
            let max_restarts = max_restarts
                .filter(|n| *n > 0)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| ScenarioError::new("sim.max_restarts must be a positive integer"))?;
            let backoff_slots = backoff_slots
                .filter(|n| *n > 0)
                .ok_or_else(|| ScenarioError::new("sim.backoff_slots must be a positive integer"))?
                as u64;
            Ok(RestartPolicy::BoundedRetry {
                max_restarts,
                backoff_slots,
            })
        }
        Some("watchdog") => {
            if max_restarts.is_some() || backoff_slots.is_some() {
                return Err(ScenarioError::new(
                    "sim.max_restarts/backoff_slots are only valid with \
                     restart_policy = \"bounded_retry\"",
                ));
            }
            let silence_slots = silence_slots
                .filter(|n| *n > 0)
                .ok_or_else(|| ScenarioError::new("sim.silence_slots must be a positive integer"))?
                as u64;
            Ok(RestartPolicy::Watchdog { silence_slots })
        }
        Some(other) => Err(ScenarioError::new(format!(
            "sim.restart_policy `{other}` (expected never | immediate | bounded_retry | watchdog)"
        ))),
    }
}

fn parse_property(table: &Table) -> Result<PropertySpec, ScenarioError> {
    check_keys(
        Some(table),
        &["name", "kind", "predicate", "antecedent", "consequent"],
    )?;
    let where_ = format!("property (line {})", table.line);
    let name = get_str(Some(table), "name", &where_)?
        .ok_or_else(|| ScenarioError::new(format!("{where_}: name is required")))?
        .to_string();
    let kind = match get_str(Some(table), "kind", &where_)? {
        Some("invariant") => PropertyKind::Invariant,
        Some("eventually") => PropertyKind::Eventually,
        Some("always_eventually") => PropertyKind::AlwaysEventually,
        Some("leads_to") => PropertyKind::LeadsTo,
        other => {
            return Err(ScenarioError::new(format!(
                "{where_}: kind `{}` (expected invariant | eventually | \
                 always_eventually | leads_to)",
                other.unwrap_or("<missing>")
            )))
        }
    };
    let predicate = get_str(Some(table), "predicate", &where_)?;
    let antecedent = get_str(Some(table), "antecedent", &where_)?;
    let consequent = get_str(Some(table), "consequent", &where_)?;
    let (predicate, consequent) = if kind == PropertyKind::LeadsTo {
        if predicate.is_some() {
            return Err(ScenarioError::new(format!(
                "{where_}: leads_to takes antecedent/consequent, not predicate"
            )));
        }
        let ant = antecedent
            .ok_or_else(|| ScenarioError::new(format!("{where_}: antecedent is required")))?;
        let con = consequent
            .ok_or_else(|| ScenarioError::new(format!("{where_}: consequent is required")))?;
        (ant.to_string(), Some(con.to_string()))
    } else {
        if antecedent.is_some() || consequent.is_some() {
            return Err(ScenarioError::new(format!(
                "{where_}: antecedent/consequent are only valid for kind = \"leads_to\""
            )));
        }
        let pred = predicate
            .ok_or_else(|| ScenarioError::new(format!("{where_}: predicate is required")))?;
        (pred.to_string(), None)
    };
    Ok(PropertySpec {
        name,
        kind,
        predicate,
        consequent,
        line: table.line,
    })
}

fn check_keys(table: Option<&Table>, known: &[&str]) -> Result<(), ScenarioError> {
    if let Some(table) = table {
        for key in table.keys() {
            if !known.contains(&key) {
                let section = if table.path.is_empty() {
                    "top level".to_string()
                } else {
                    format!("[{}]", table.path)
                };
                return Err(ScenarioError::new(format!(
                    "unknown key `{key}` in {section} (known: {})",
                    known.join(", ")
                )));
            }
        }
    }
    Ok(())
}

fn get_str<'a>(
    table: Option<&'a Table>,
    key: &str,
    section: &str,
) -> Result<Option<&'a str>, ScenarioError> {
    match table.and_then(|t| t.get(key)) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.as_str())),
        Some(_) => Err(ScenarioError::new(format!(
            "{section}.{key} must be a string"
        ))),
    }
}

fn get_int(table: Option<&Table>, key: &str, section: &str) -> Result<Option<i64>, ScenarioError> {
    match table.and_then(|t| t.get(key)) {
        None => Ok(None),
        Some(Value::Int(n)) => Ok(Some(*n)),
        Some(_) => Err(ScenarioError::new(format!(
            "{section}.{key} must be an integer"
        ))),
    }
}

fn get_float(
    table: Option<&Table>,
    key: &str,
    section: &str,
) -> Result<Option<f64>, ScenarioError> {
    match table.and_then(|t| t.get(key)) {
        None => Ok(None),
        Some(Value::Float(x)) => Ok(Some(*x)),
        Some(Value::Int(n)) => Ok(Some(*n as f64)),
        Some(_) => Err(ScenarioError::new(format!(
            "{section}.{key} must be a number"
        ))),
    }
}

fn get_bool(
    table: Option<&Table>,
    key: &str,
    section: &str,
) -> Result<Option<bool>, ScenarioError> {
    match table.and_then(|t| t.get(key)) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(ScenarioError::new(format!(
            "{section}.{key} must be a boolean"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLDSTART: &str = r#"
[scenario]
name = "coldstart-dup"
description = "replay a buffered cold-start frame"

[cluster]
nodes = 4
topology = "star"
authority = "full_shifting"

[model]
out_of_slot_budget = 1

[sim]
slots = 400

[[fault.coupler]]
channel = 0
mode = "out_of_slot"
from_slot = 12
to_slot = 340

[expect]
verdict = "violated"
trace_len = 10
sim_disturbed = true
"#;

    #[test]
    fn parses_the_coldstart_scenario() {
        let s = Scenario::parse(COLDSTART, Path::new(".")).unwrap();
        assert_eq!(s.name, "coldstart-dup");
        assert_eq!(s.nodes, 4);
        assert_eq!(s.authority, CouplerAuthority::FullShifting);
        assert_eq!(s.out_of_slot_budget, FaultBudget::AtMost(1));
        assert_eq!(s.coupler_faults.len(), 1);
        assert_eq!(s.coupler_faults[0].mode, CouplerFaultMode::OutOfSlot);
        assert_eq!(s.expect.verdict, Some(ExpectedVerdict::Violated));
        assert_eq!(s.expect.trace_len, Some(10));
        assert_eq!(s.expect.sim_disturbed, Some(true));
        assert!(s.oracle_applicable().is_ok());
        let config = s.checker_config();
        assert_eq!(config, ClusterConfig::paper_trace_cold_start());
    }

    #[test]
    fn replay_plan_on_a_passive_star_parses_but_cannot_simulate() {
        let text = COLDSTART.replace("full_shifting", "passive");
        let s = Scenario::parse(&text, Path::new(".")).unwrap();
        let why = s.sim_applicable().unwrap_err();
        assert!(why.contains("full-shifting"), "{why}");
        assert!(s.oracle_applicable().is_err());
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        let err = Scenario::parse("[cluster]\nnodes = 4\nnodez = 4\n", Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("nodez"), "{err}");
        let err =
            Scenario::parse("[cluster]\nnodes = 4\n[weird]\nx = 1\n", Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("weird"), "{err}");
    }

    #[test]
    fn dual_channel_overlap_defeats_the_oracle() {
        let text = format!(
            "{COLDSTART}\n[[fault.coupler]]\nchannel = 1\nmode = \"silence\"\n\
             from_slot = 100\nto_slot = 200\n"
        );
        let s = Scenario::parse(&text, Path::new(".")).unwrap();
        let why = s.oracle_applicable().unwrap_err();
        assert!(why.contains("single-fault"), "{why}");
    }

    #[test]
    fn duplicated_expect_block_is_rejected() {
        // A second [[expect]] used to be silently ignored:
        // `Document::table` returned the first match, so the author's
        // override never took effect. Both spellings are now errors.
        let text = format!("{COLDSTART}\n[[expect]]\nverdict = \"holds\"\n");
        let err = Scenario::parse(&text, Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("expect"), "{err}");

        let text = "[cluster]\nnodes = 4\n\
                    [[expect]]\nverdict = \"holds\"\n\
                    [[expect]]\nverdict = \"violated\"\n";
        let err = Scenario::parse(text, Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("declared 2 times"), "{err}");
    }

    #[test]
    fn parses_fault_persistence() {
        let text = "[cluster]\nnodes = 4\nauthority = \"passive\"\n\
                    [[fault.coupler]]\nchannel = 0\nmode = \"silence\"\n\
                    from_slot = 10\nto_slot = 50\npersistence = \"intermittent\"\n\
                    period = 8\nduty = 2\n";
        let s = Scenario::parse(text, Path::new(".")).unwrap();
        assert_eq!(
            s.coupler_faults[0].persistence,
            FaultPersistence::Intermittent { period: 8, duty: 2 }
        );

        let bad = text.replace("duty = 2", "duty = 9");
        let err = Scenario::parse(&bad, Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("duty"), "{err}");

        let bad = text.replace("persistence = \"intermittent\"", "");
        let err = Scenario::parse(&bad, Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("period/duty"), "{err}");

        let bad = text.replace("mode = \"silence\"", "mode = \"none\"");
        let err = Scenario::parse(&bad, Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("mode `none` (expected"), "{err}");
    }

    #[test]
    fn parses_property_sections() {
        let text = "[cluster]\nnodes = 4\n\
                    [[property]]\nname = \"startup\"\nkind = \"leads_to\"\n\
                    antecedent = \"any_listening\"\nconsequent = \"any_integrated\"\n\
                    [[property]]\nname = \"safe\"\nkind = \"invariant\"\n\
                    predicate = \"no_victim\"\n";
        let s = Scenario::parse(text, Path::new(".")).unwrap();
        assert_eq!(s.properties.len(), 2);
        assert_eq!(s.properties[0].kind, PropertyKind::LeadsTo);
        assert_eq!(s.properties[0].predicate, "any_listening");
        assert_eq!(
            s.properties[0].consequent.as_deref(),
            Some("any_integrated")
        );
        assert_eq!(s.properties[1].kind, PropertyKind::Invariant);
        assert_eq!(s.properties[1].consequent, None);

        let bad = text.replace("predicate = \"no_victim\"", "antecedent = \"x\"");
        assert!(Scenario::parse(&bad, Path::new(".")).is_err());
    }

    #[test]
    fn defaults_are_sensible() {
        let s = Scenario::parse("[cluster]\nnodes = 4\n", Path::new(".")).unwrap();
        assert_eq!(s.slots, 400);
        assert_eq!(s.topology, Topology::Star);
        assert_eq!(s.authority, CouplerAuthority::SmallShifting);
        assert_eq!(s.out_of_slot_budget, FaultBudget::Unlimited);
        assert!(s.coupler_faults.is_empty());
        assert_eq!(s.expect, Expectations::default());
    }

    #[test]
    fn oracle_model_drops_trace_constraints() {
        let s = Scenario::parse(COLDSTART, Path::new(".")).unwrap();
        let oracle = s.oracle_model();
        assert_eq!(oracle.config().out_of_slot_budget, FaultBudget::Unlimited);
        assert!(!oracle.config().symmetric_fault_reduction);
    }

    #[test]
    fn parses_restart_policies() {
        let base = "[cluster]\nnodes = 4\n[sim]\nslots = 100\n";
        let s = Scenario::parse(base, Path::new(".")).unwrap();
        assert_eq!(s.restart_policy, RestartPolicy::Never);

        let text = format!("{base}restart_policy = \"watchdog\"\nsilence_slots = 8\n");
        let s = Scenario::parse(&text, Path::new(".")).unwrap();
        assert_eq!(
            s.restart_policy,
            RestartPolicy::Watchdog { silence_slots: 8 }
        );

        let text = format!(
            "{base}restart_policy = \"bounded_retry\"\nmax_restarts = 2\nbackoff_slots = 4\n"
        );
        let s = Scenario::parse(&text, Path::new(".")).unwrap();
        assert_eq!(
            s.restart_policy,
            RestartPolicy::BoundedRetry {
                max_restarts: 2,
                backoff_slots: 4,
            }
        );

        let text = format!("{base}restart_policy = \"immediate\"\nsilence_slots = 8\n");
        let err = Scenario::parse(&text, Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("takes no parameters"), "{err}");

        let text = format!("{base}restart_policy = \"watchdog\"\n");
        let err = Scenario::parse(&text, Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("silence_slots"), "{err}");

        let text = format!("{base}restart_policy = \"sometimes\"\n");
        let err = Scenario::parse(&text, Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("sometimes"), "{err}");
    }

    #[test]
    fn parses_node_faults_and_they_defeat_the_oracle() {
        let text = "[cluster]\nnodes = 4\nauthority = \"small_shifting\"\n\
                    [[fault.node]]\nnode = 2\nkind = \"sos\"\ndomain = \"value\"\n\
                    magnitude = 0.5\nfrom_slot = 40\nto_slot = 80\n\
                    [[fault.node]]\nnode = 1\nkind = \"babbling\"\n\
                    from_slot = 100\nto_slot = 120\npersistence = \"intermittent\"\n\
                    period = 4\nduty = 1\n";
        let s = Scenario::parse(text, Path::new(".")).unwrap();
        assert_eq!(s.node_faults.len(), 2);
        assert_eq!(s.node_faults[0].node, NodeId::new(2));
        assert_eq!(
            s.node_faults[0].kind,
            NodeFaultKind::Sos {
                domain: SosDomain::Value,
                magnitude: 0.5,
            }
        );
        assert_eq!(s.node_faults[1].kind, NodeFaultKind::Babbling);
        assert_eq!(
            s.node_faults[1].persistence,
            FaultPersistence::Intermittent { period: 4, duty: 1 }
        );
        assert!(s.sim_applicable().is_ok());
        let why = s.oracle_applicable().unwrap_err();
        assert!(why.contains("node faults"), "{why}");
    }

    #[test]
    fn node_fault_validation_rejects_bad_shapes() {
        let masquerade = "[cluster]\nnodes = 4\n[[fault.node]]\nnode = 0\n\
                          kind = \"masquerade_cold_start\"\nclaimed_slot = 3\n\
                          from_slot = 0\nto_slot = 10\n";
        let s = Scenario::parse(masquerade, Path::new(".")).unwrap();
        assert_eq!(
            s.node_faults[0].kind,
            NodeFaultKind::MasqueradeColdStart { claimed_slot: 3 }
        );

        let err = Scenario::parse(
            &masquerade.replace("claimed_slot = 3", "claimed_slot = 9"),
            Path::new("."),
        )
        .unwrap_err();
        assert!(err.to_string().contains("claimed_slot"), "{err}");

        let err = Scenario::parse(&masquerade.replace("node = 0", "node = 4"), Path::new("."))
            .unwrap_err();
        assert!(err.to_string().contains("node must be in 0..4"), "{err}");

        let err = Scenario::parse(
            &masquerade.replace("kind = \"masquerade_cold_start\"", "kind = \"mute\""),
            Path::new("."),
        )
        .unwrap_err();
        assert!(err.to_string().contains("claimed_slot"), "{err}");

        let sos = "[cluster]\nnodes = 4\n[[fault.node]]\nnode = 0\nkind = \"sos\"\n\
                   magnitude = 1.5\nfrom_slot = 0\nto_slot = 10\n";
        let err = Scenario::parse(sos, Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("magnitude"), "{err}");
    }

    #[test]
    fn parses_recovery_outcome_expectation() {
        let text = "[cluster]\nnodes = 4\n[expect]\nrecovery_outcome = \"permanent-loss\"\n";
        let s = Scenario::parse(text, Path::new(".")).unwrap();
        assert_eq!(
            s.expect.recovery_outcome,
            Some(RecoveryOutcome::PermanentLoss)
        );
        let err = Scenario::parse(
            &text.replace("permanent-loss", "lost-forever"),
            Path::new("."),
        )
        .unwrap_err();
        assert!(err.to_string().contains("lost-forever"), "{err}");
    }

    #[test]
    fn overlapping_dual_channel_envelopes_skip_the_simulator() {
        let text = "[cluster]\nnodes = 4\nauthority = \"passive\"\n\
                    [[fault.coupler]]\nchannel = 0\nmode = \"silence\"\n\
                    from_slot = 10\nto_slot = 20\npersistence = \"permanent\"\n\
                    [[fault.coupler]]\nchannel = 1\nmode = \"silence\"\n\
                    from_slot = 1000\nto_slot = 2000\n";
        let s = Scenario::parse(text, Path::new(".")).unwrap();
        // The permanent fault's envelope never closes, so the simulator
        // would reject this plan: the phase must be skipped, not abort.
        let why = s.sim_applicable().unwrap_err();
        assert!(why.contains("single-faulty-coupler"), "{why}");
    }
}
