//! Analyses that need the reachable space: vacuity detection (ML01–03,
//! ML34), fairness usage (ML04) and model coverage (ML10/ML11).
//!
//! The reachable graph is built **once** per lint target through the
//! same interning stack the checkers use ([`FairGraph`] over
//! [`ClusterCodec`]), then every question is answered by passes over
//! the kept states:
//!
//! * **Vacuity** is antecedent-enabledness counting: a leads-to
//!   `p ~> q` holds vacuously iff no reachable state satisfies `p`.
//!   The search is exhaustive over the kept space, so on an
//!   untruncated graph a zero count is a proof of vacuity and a
//!   non-zero count yields a concrete witness (the BFS stem to the
//!   first satisfying state). On a truncated graph a zero count is
//!   only an absence of evidence, and every zero-count finding is
//!   downgraded to a note.
//! * **Fairness usage** reuses the per-edge action labels the graph
//!   already carries ([`FairGraph::action_usage`]): a constraint
//!   labeling zero edges constrains no cycle.
//! * **Coverage** tallies which coupler fault modes actually drive
//!   steps, per authority level — the evidence behind a
//!   restrained-authority "Holds" row. The graph build expands the
//!   model through [`FaultTally`], which counts the modes of every step
//!   [`ClusterModel::for_each_step`] emits. The build never stops
//!   early ([`FairGraph`]'s walk continues after every chunk), so it
//!   expands each kept state exactly once, truncated graph or not, and
//!   the tally covers every step out of the kept space, the steps into
//!   states the budget drops included. No pass expands a state twice.

use crate::catalog;
use crate::predicates;
use std::sync::atomic::{AtomicU64, Ordering};
use tta_base::diag::{Diagnostic, Severity};
use tta_base::json::Json;
use tta_conformance::{Expectations, PropertyKind, PropertySpec};
use tta_core::{
    cluster_startup_fairness, ClusterCodec, ClusterConfig, ClusterModel, ClusterState, FaultBudget,
};
use tta_guardian::CouplerFaultMode;
use tta_liveness::FairGraph;
use tta_modelcheck::TransitionSystem;

/// Tunables for the reachable-space analyses.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOptions {
    /// State budget for the graph build. The restrained-authority
    /// spaces (~40k states at 4 nodes) fit comfortably; a full-shifting
    /// space may truncate, which soundly downgrades zero-count findings
    /// to notes.
    pub max_states: u64,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            max_states: 1 << 20,
        }
    }
}

/// Per-target evidence the analyses gather along the way: the numbers
/// behind the non-vacuity claims in EXPERIMENTS.md S6. Deterministic
/// (state counts and BFS depths, never timings).
#[derive(Debug, Clone)]
pub struct TargetEvidence {
    /// The lint target this evidence belongs to.
    pub target: String,
    /// Kept reachable states.
    pub states: usize,
    /// Stored edges (stutter loops included).
    pub edges: usize,
    /// Whether the state budget truncated the space.
    pub truncated: bool,
    /// `(antecedent name, satisfying-state count, BFS depth of first
    /// witness)` for every antecedent that was vacuity-checked. Depth
    /// is `None` when the count is zero.
    pub antecedents: Vec<(String, u64, Option<usize>)>,
    /// Steps taken per coupler fault mode over the explored expansion,
    /// in [`CouplerFaultMode::all`] order (both channels tallied).
    pub fault_steps: [u64; 4],
}

impl TargetEvidence {
    /// Renders the evidence as one deterministic JSON line.
    #[must_use]
    pub fn render_json(&self) -> String {
        let field = |key: &str, value: Json| (key.to_string(), value);
        let count = |n: u64| Json::UInt(n);
        let antecedents = self
            .antecedents
            .iter()
            .map(|(name, satisfied, depth)| {
                Json::Obj(vec![
                    field("name", Json::str(name)),
                    field("satisfied", count(*satisfied)),
                    field(
                        "first_witness_depth",
                        depth.map_or(Json::Null, |d| count(d as u64)),
                    ),
                ])
            })
            .collect();
        let fault_steps = CouplerFaultMode::all()
            .iter()
            .zip(self.fault_steps)
            .map(|(mode, steps)| (mode.to_string(), count(steps)))
            .collect();
        let evidence = Json::Obj(vec![
            field("target", Json::str(&self.target)),
            field("states", count(self.states as u64)),
            field("edges", count(self.edges as u64)),
            field("truncated", Json::Bool(self.truncated)),
            field("antecedents", Json::Arr(antecedents)),
            field("fault_steps", Json::Obj(fault_steps)),
        ]);
        Json::Obj(vec![field("evidence", evidence)]).render()
    }
}

fn mode_index(mode: CouplerFaultMode) -> usize {
    CouplerFaultMode::all()
        .iter()
        .position(|m| *m == mode)
        .expect("mode in all()")
}

/// The cluster model as the graph build expands it, tallying the two
/// couplers' fault modes of every step it emits, in
/// [`CouplerFaultMode::all`] order. Relaxed: the counts order nothing
/// and are read only after the build's threads join.
struct FaultTally(ClusterModel, [AtomicU64; 4]);

impl TransitionSystem for FaultTally {
    type State = ClusterState;

    fn initial_states(&self) -> Vec<ClusterState> {
        self.0.initial_states()
    }

    fn successors(&self, state: &ClusterState, out: &mut Vec<ClusterState>) {
        let mut steps = [0; 4];
        self.0.for_each_step(state, &mut |succ, info| {
            for mode in info.faults {
                steps[mode_index(mode)] += 1;
            }
            out.push(succ);
        });
        for (total, n) in self.1.iter().zip(steps) {
            total.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// One predicate's tally over the kept states.
struct Tally {
    name: String,
    predicate: predicates::Predicate,
    /// Whether the predicate is an antecedent (the safety guard, an
    /// expect antecedent, a declared leads-to antecedent), which the
    /// evidence reports; consequents and goals stay out of it.
    antecedent: bool,
    count: u64,
    first: Option<u32>,
}

impl Tally {
    fn new(name: String, predicate: predicates::Predicate, antecedent: bool) -> Self {
        Tally {
            name,
            predicate,
            antecedent,
            count: 0,
            first: None,
        }
    }
}

/// Runs every reachable-space analysis for one cluster configuration.
///
/// `properties` are the scenario's declared `[[property]]` sections;
/// `expect` carries the liveness/recovery expectations whose underlying
/// predicates are checked for reachability (ML34). Both may be empty —
/// the built-in safety-guard vacuity check and the coverage lints run
/// regardless.
#[must_use]
pub fn analyze_config(
    target: &str,
    config: &ClusterConfig,
    properties: &[PropertySpec],
    expect: Option<&Expectations>,
    opts: &AnalysisOptions,
) -> (Vec<Diagnostic>, TargetEvidence) {
    let mut diags = Vec::new();
    let nodes = config.nodes;
    let tally = FaultTally(ClusterModel::new(*config), Default::default());
    let codec = ClusterCodec::new(config);
    let fairness = cluster_startup_fairness(nodes);
    let graph = FairGraph::build(&tally, &codec, &fairness, opts.max_states);
    // The Relaxed sums, read now that the build's threads have joined.
    let fault_steps = tally.1.map(AtomicU64::into_inner);
    let states = graph.state_count();
    let truncated = graph.is_truncated();

    // Severity for "satisfied by zero states" findings: a proof on the
    // full space, only an absence of evidence on a truncated one.
    let zero_sev = |default: Severity| if truncated { Severity::Note } else { default };
    let space_note = || {
        if truncated {
            format!(
                "search truncated at the {states}-state budget — the predicate may \
                 be satisfiable beyond it"
            )
        } else {
            format!(
                "search exhausted the full reachable space ({states} states, {} edges)",
                graph.edge_count()
            )
        }
    };

    // ── assemble every predicate tally needed, then one pass ───────
    // Built-in: the paper's safety property only bites once a node is
    // integrated; `any_integrated` is its effective guard.
    let catalog_tally = |name: String, key: &str| {
        Tally::new(
            name,
            predicates::resolve(key, nodes).expect("catalog name"),
            true,
        )
    };
    let mut tallies = vec![catalog_tally("any_integrated".into(), "any_integrated")];
    // ML34: the antecedents underlying expect.liveness / expect.recovery
    // (per-node `listening` / `frozen`, see tta-core::verify), as
    // (first tally, expect key, antecedent shape).
    let mut expect_antecedents = Vec::new();
    for (key, shape, expected) in [
        ("liveness", "listening", expect.and_then(|e| e.liveness)),
        ("recovery", "frozen", expect.and_then(|e| e.recovery)),
    ] {
        if expected.is_some() {
            expect_antecedents.push((tallies.len(), key, shape));
            tallies.extend(
                (0..nodes).map(|i| {
                    catalog_tally(format!("node {i} {shape}"), &format!("node{i}_{shape}"))
                }),
            );
        }
    }
    // Declared [[property]] predicates. Unknown names are ML22 errors;
    // known ones get a tally: per spec, (predicate, consequent) indices.
    let mut spec_tallies: Vec<(Option<usize>, Option<usize>)> = Vec::new();
    for spec in properties {
        let mut resolve = |name: &String, antecedent: bool| {
            let Some(p) = predicates::resolve(name, nodes) else {
                diags.push(
                    Diagnostic::new(
                        catalog::ML22,
                        target,
                        format!("property `{}` names unknown predicate `{name}`", spec.name),
                    )
                    .line(spec.line)
                    .help(known_names_help()),
                );
                return None;
            };
            tallies.push(Tally::new(name.clone(), p, antecedent));
            Some(tallies.len() - 1)
        };
        let main = resolve(&spec.predicate, spec.kind == PropertyKind::LeadsTo);
        let consequent = spec.consequent.as_ref().and_then(|c| resolve(c, false));
        spec_tallies.push((main, consequent));
    }

    // ── pass A: predicate counting + guard bookkeeping ─────────────
    let mut max_replays_used = 0u8;
    let mut victim_states = 0u64;
    for id in 0..states as u32 {
        let state = graph.state(id);
        for tally in &mut tallies {
            if (tally.predicate)(&state) {
                tally.count += 1;
                if tally.first.is_none() {
                    tally.first = Some(id);
                }
            }
        }
        max_replays_used = max_replays_used.max(state.out_of_slot_used());
        if state.frozen_victim().is_some() {
            victim_states += 1;
        }
    }
    let depth_of = |tally: &Tally| tally.first.map(|id| graph.bfs_depth(id));

    // Built-in safety-guard vacuity.
    if tallies[0].count == 0 {
        diags.push(
            Diagnostic::new(
                catalog::ML01,
                target,
                "the safety property's guard `any_integrated` is satisfied by zero \
                 reachable states — no node ever integrates, so `no integrated node \
                 freezes` holds vacuously",
            )
            .severity(zero_sev(Severity::Warning))
            .note(space_note()),
        );
    }

    // ML34 over expect.liveness / expect.recovery antecedents.
    for (base, key, shape) in expect_antecedents {
        let dead: Vec<String> = (0..nodes)
            .filter(|i| tallies[base + i].count == 0)
            .map(|i| format!("node {i}"))
            .collect();
        if !dead.is_empty() {
            diags.push(
                Diagnostic::new(
                    catalog::ML34,
                    target,
                    format!(
                        "expect.{key} is declared, but its antecedent `{shape}` is \
                         satisfied by zero reachable states for {}",
                        dead.join(", ")
                    ),
                )
                .severity(zero_sev(Severity::Warning))
                .note(space_note()),
            );
        }
    }

    // ML01/ML02/ML03 over declared properties.
    for (spec, &(main, consequent)) in properties.iter().zip(&spec_tallies) {
        let Some(main) = main.map(|i| &tallies[i]) else {
            continue;
        };
        match spec.kind {
            PropertyKind::LeadsTo => {
                if main.count == 0 {
                    diags.push(
                        Diagnostic::new(
                            catalog::ML01,
                            target,
                            format!(
                                "property `{}` is vacuous: antecedent `{}` is satisfied \
                                 by 0 of {states} reachable states",
                                spec.name, main.name
                            ),
                        )
                        .severity(zero_sev(Severity::Warning))
                        .line(spec.line)
                        .note(space_note())
                        .help(
                            "a leads-to with an unreachable antecedent holds no matter \
                             what the consequent says — weaken the antecedent or fix \
                             the configuration that was meant to enable it",
                        ),
                    );
                } else if main.count as usize == states {
                    diags.push(
                        Diagnostic::new(
                            catalog::ML03,
                            target,
                            format!(
                                "property `{}`: antecedent `{}` is satisfied by every \
                                 reachable state — the leads-to degenerates to `GF({})`",
                                spec.name,
                                main.name,
                                consequent.map_or("consequent", |i| tallies[i].name.as_str())
                            ),
                        )
                        .line(spec.line),
                    );
                }
                if let Some(con) = consequent.map(|i| &tallies[i]) {
                    if con.count == 0 && main.count > 0 {
                        diags.push(
                            Diagnostic::new(
                                catalog::ML02,
                                target,
                                format!(
                                    "property `{}`: consequent `{}` is satisfied by zero \
                                     reachable states — the leads-to cannot be discharged",
                                    spec.name, con.name
                                ),
                            )
                            .severity(zero_sev(Severity::Warning))
                            .line(spec.line)
                            .note(space_note()),
                        );
                    } else if con.count as usize == states {
                        diags.push(
                            Diagnostic::new(
                                catalog::ML03,
                                target,
                                format!(
                                    "property `{}`: consequent `{}` is satisfied by every \
                                     reachable state — the obligation is discharged \
                                     immediately wherever it arises",
                                    spec.name, con.name
                                ),
                            )
                            .line(spec.line),
                        );
                    }
                }
            }
            PropertyKind::Invariant => {
                if main.count == 0 {
                    diags.push(
                        Diagnostic::new(
                            catalog::ML02,
                            target,
                            format!(
                                "property `{}`: invariant predicate `{}` is satisfied by \
                                 zero reachable states — it is violated everywhere \
                                 (likely inverted)",
                                spec.name, main.name
                            ),
                        )
                        .severity(zero_sev(Severity::Warning))
                        .line(spec.line)
                        .note(space_note()),
                    );
                }
            }
            PropertyKind::Eventually | PropertyKind::AlwaysEventually => {
                if main.count == 0 {
                    diags.push(
                        Diagnostic::new(
                            catalog::ML02,
                            target,
                            format!(
                                "property `{}`: goal `{}` is satisfied by zero reachable \
                                 states — the property is trivially violated",
                                spec.name, main.name
                            ),
                        )
                        .severity(zero_sev(Severity::Warning))
                        .line(spec.line)
                        .note(space_note()),
                    );
                } else if main.count as usize == states {
                    diags.push(
                        Diagnostic::new(
                            catalog::ML03,
                            target,
                            format!(
                                "property `{}`: goal `{}` is satisfied by every reachable \
                                 state (including all initial states) — it holds trivially",
                                spec.name, main.name
                            ),
                        )
                        .line(spec.line),
                    );
                }
            }
        }
    }

    // ── ML04: fairness constraints labeling zero edges ─────────────
    for usage in graph.action_usage() {
        if usage.labeled_edges == 0 {
            diags.push(
                Diagnostic::new(
                    catalog::ML04,
                    target,
                    format!(
                        "fairness constraint `{}` labels zero edges of the reachable \
                         graph — it constrains no cycle",
                        usage.name
                    ),
                )
                .severity(zero_sev(Severity::Warning))
                .note(format!(
                    "enabled in {} states, taken on 0 stored edges",
                    usage.enabled_states
                )),
            );
        }
    }

    // ── ML10: admitted fault modes the build never took ────────────
    // Modes the authority admits on channel 0 (the faulty-channel slot
    // under symmetric reduction). Silence/BadFrame are always in the
    // model's vocabulary; OutOfSlot needs full-frame buffering and a
    // non-zero replay budget.
    let mut admitted = vec![CouplerFaultMode::Silence, CouplerFaultMode::BadFrame];
    if config.authority.can_buffer_full_frames() && config.out_of_slot_budget.allows(0) {
        admitted.push(CouplerFaultMode::OutOfSlot);
    }
    for mode in admitted {
        if fault_steps[mode_index(mode)] == 0 {
            diags.push(
                Diagnostic::new(
                    catalog::ML10,
                    target,
                    format!(
                        "fault mode `{mode}` is admitted by authority `{}` but never taken \
                         anywhere in the explored space",
                        config.authority
                    ),
                )
                .severity(zero_sev(Severity::Warning))
                .note(space_note()),
            );
        }
    }

    // ── ML11: guards that never fire (informational) ───────────────
    if let FaultBudget::AtMost(cap) = config.out_of_slot_budget {
        if cap > 0 && max_replays_used < cap {
            diags.push(
                Diagnostic::new(
                    catalog::ML11,
                    target,
                    format!(
                        "replay budget cap {cap} is never reached in the explored space \
                         (maximum replays used: {max_replays_used})"
                    ),
                )
                .note(space_note()),
            );
        }
    }
    if config.forbid_cold_start_replay && fault_steps[mode_index(CouplerFaultMode::OutOfSlot)] == 0
    {
        diags.push(
            Diagnostic::new(
                catalog::ML11,
                target,
                "forbid_cold_start_replay is set but no out-of-slot replay occurs \
                 anywhere in the explored space — the filter never fires",
            )
            .note(space_note()),
        );
    }
    if victim_states == 0 {
        diags.push(
            Diagnostic::new(
                catalog::ML11,
                target,
                format!(
                    "the victim latch never fires: zero of {states} explored states \
                     freeze an integrated node",
                ),
            )
            .note(format!(
                "the safety guard `any_integrated` is satisfied in {} states, so this \
                 is a non-vacuous pass, not an unexercised property",
                tallies[0].count
            )),
        );
    }

    // ── evidence for S6 ────────────────────────────────────────────
    let antecedents = tallies
        .iter()
        .filter(|tally| tally.antecedent)
        .map(|tally| (tally.name.clone(), tally.count, depth_of(tally)))
        .collect();
    let evidence = TargetEvidence {
        target: target.to_string(),
        states,
        edges: graph.edge_count(),
        truncated,
        antecedents,
        fault_steps,
    };
    (diags, evidence)
}

fn known_names_help() -> String {
    let names: Vec<&str> = predicates::NAMES.iter().map(|(n, _)| *n).collect();
    format!(
        "known predicates: {}, plus node<i>_<listening|cold_start|integrated|active|frozen>",
        names.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_guardian::CouplerAuthority;

    fn passive_config(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            ..ClusterConfig::paper(CouplerAuthority::Passive)
        }
    }

    fn spec(kind: PropertyKind, predicate: &str, consequent: Option<&str>) -> PropertySpec {
        PropertySpec {
            name: "t".into(),
            kind,
            predicate: predicate.into(),
            consequent: consequent.map(str::to_string),
            line: 1,
        }
    }

    #[test]
    fn vacuous_leads_to_is_flagged_with_full_space_witness() {
        // `replay_used` is unreachable under a passive coupler: no
        // full-frame buffering, no replays, ever.
        let specs = [spec(
            PropertyKind::LeadsTo,
            "replay_used",
            Some("no_victim"),
        )];
        let (diags, evidence) = analyze_config(
            "t",
            &passive_config(3),
            &specs,
            None,
            &AnalysisOptions::default(),
        );
        assert!(!evidence.truncated);
        let ml01: Vec<_> = diags.iter().filter(|d| d.code.id == "ML01").collect();
        assert_eq!(ml01.len(), 1, "{diags:?}");
        assert_eq!(ml01[0].severity, Severity::Warning);
        assert!(ml01[0].notes[0].contains("exhausted the full reachable space"));
        let ant = evidence
            .antecedents
            .iter()
            .find(|(n, _, _)| n == "replay_used")
            .unwrap();
        assert_eq!(ant.1, 0);
        assert_eq!(ant.2, None);
    }

    #[test]
    fn non_vacuous_leads_to_is_clean_and_witnessed() {
        let specs = [spec(
            PropertyKind::LeadsTo,
            "any_listening",
            Some("any_integrated"),
        )];
        let (diags, evidence) = analyze_config(
            "t",
            &passive_config(3),
            &specs,
            None,
            &AnalysisOptions::default(),
        );
        assert!(
            !diags.iter().any(|d| d.code.id == "ML01"),
            "no vacuity: {diags:?}"
        );
        let ant = evidence
            .antecedents
            .iter()
            .find(|(n, _, _)| n == "any_listening")
            .unwrap();
        assert!(ant.1 > 0);
        assert!(ant.2.is_some(), "witness depth recorded");
    }

    #[test]
    fn unknown_predicate_is_an_error() {
        let specs = [spec(PropertyKind::Invariant, "zebra", None)];
        let (diags, _) = analyze_config(
            "t",
            &passive_config(2),
            &specs,
            None,
            &AnalysisOptions::default(),
        );
        assert!(diags
            .iter()
            .any(|d| d.code.id == "ML22" && d.severity == Severity::Error));
    }

    #[test]
    fn tautological_goal_is_a_note() {
        let specs = [spec(PropertyKind::Eventually, "no_victim", None)];
        let (diags, _) = analyze_config(
            "t",
            &passive_config(2),
            &specs,
            None,
            &AnalysisOptions::default(),
        );
        let ml03: Vec<_> = diags.iter().filter(|d| d.code.id == "ML03").collect();
        assert_eq!(ml03.len(), 1, "{diags:?}");
        assert_eq!(ml03[0].severity, Severity::Note);
    }

    #[test]
    fn truncation_downgrades_zero_counts_to_notes() {
        let specs = [spec(
            PropertyKind::LeadsTo,
            "replay_used",
            Some("no_victim"),
        )];
        let (diags, evidence) = analyze_config(
            "t",
            &passive_config(3),
            &specs,
            None,
            &AnalysisOptions { max_states: 50 },
        );
        assert!(evidence.truncated);
        let ml01 = diags.iter().find(|d| d.code.id == "ML01").unwrap();
        assert_eq!(ml01.severity, Severity::Note);
        assert!(ml01.notes[0].contains("truncated"), "{:?}", ml01.notes);
    }

    #[test]
    fn coverage_counts_silence_and_bad_frame_under_passive() {
        let (diags, evidence) = analyze_config(
            "t",
            &passive_config(2),
            &[],
            None,
            &AnalysisOptions::default(),
        );
        // Passive couplers relay silence and bad frames; out-of-slot is
        // not in the vocabulary, so no ML10 may fire for it.
        assert!(evidence.fault_steps[1] > 0, "silence taken");
        assert!(evidence.fault_steps[2] > 0, "bad_frame taken");
        assert_eq!(evidence.fault_steps[3], 0, "no replays under passive");
        assert!(!diags.iter().any(|d| d.code.id == "ML10"), "{diags:?}");
        // The victim latch never fires under passive — evidence note.
        assert!(diags.iter().any(|d| d.code.id == "ML11"));
    }

    /// States per chunk of a fair-graph build wave (`tta-liveness`'
    /// `BUILD_CHUNK_STATES`).
    const BUILD_CHUNK: u32 = 512;

    /// A budget that ends the kept space inside a BFS layer and inside
    /// one chunk of its parent layer, for every authority (asserted).
    const MID_CHUNK_BUDGET: u64 = 25_000;

    /// The 4-node graph `analyze_config` builds, through `model`.
    fn fair_graph<'c, T: TransitionSystem<State = ClusterState> + Sync>(
        model: &T,
        codec: &'c ClusterCodec,
        max_states: u64,
        threads: usize,
    ) -> FairGraph<'c, ClusterCodec> {
        let fairness = cluster_startup_fairness(4);
        FairGraph::build_with_threads(model, codec, &fairness, max_states, threads)
    }

    /// The coverage pass `analyze_config` ran before the build tallied
    /// the fault modes: re-expand every kept state of the plain model's
    /// graph and count the modes of every step.
    fn re_expanded(config: &ClusterConfig, max_states: u64) -> (usize, [u64; 4]) {
        let model = ClusterModel::new(*config);
        let codec = ClusterCodec::new(config);
        let graph = fair_graph(&model, &codec, max_states, 1);
        let mut fault_steps = [0u64; 4];
        for id in 0..graph.state_count() as u32 {
            let state = graph.state(id);
            model.for_each_step(&state, &mut |_, info| {
                fault_steps[mode_index(info.faults[0])] += 1;
                fault_steps[mode_index(info.faults[1])] += 1;
            });
        }
        (graph.state_count(), fault_steps)
    }

    /// BFS parent of `v`: the first state, in id order, with an edge to
    /// it.
    fn parent(graph: &FairGraph<'_, ClusterCodec>, v: u32) -> u32 {
        (0..v)
            .find(|&p| graph.neighbors(p).any(|(to, _)| to == v))
            .expect("a non-initial state has a parent")
    }

    /// The chunk `v` was expanded in: its offset into its BFS layer, in
    /// build chunks.
    fn chunk_of(graph: &FairGraph<'_, ClusterCodec>, v: u32) -> (usize, u32) {
        let depth = graph.bfs_depth(v);
        let mut first = v;
        while first > 0 && graph.bfs_depth(first - 1) == depth {
            first -= 1;
        }
        (depth, (v - first) / BUILD_CHUNK)
    }

    /// `analyze_config`'s states and fault tally against [`re_expanded`].
    fn assert_tally_matches(authority: CouplerAuthority, max_states: u64) {
        let config = ClusterConfig::paper(authority);
        let (_, evidence) =
            analyze_config("t", &config, &[], None, &AnalysisOptions { max_states });
        let (states, fault_steps) = re_expanded(&config, max_states);
        let at = format!("{authority}, budget {max_states}");
        assert_eq!(evidence.states, states, "{at}");
        assert_eq!(evidence.fault_steps, fault_steps, "{at}");
    }

    /// The default budget truncates only the full-shifting space, at
    /// 2^20 states; a test of its own, so it runs beside the others.
    #[test]
    fn build_tally_equals_re_expanding_full_shifting_at_the_default_budget() {
        let max_states = AnalysisOptions::default().max_states;
        assert_tally_matches(CouplerAuthority::FullShifting, max_states);
    }

    #[test]
    fn build_tally_equals_re_expanding_every_kept_state() {
        for authority in CouplerAuthority::all() {
            let mut budgets = vec![1 << 14, MID_CHUNK_BUDGET];
            if authority != CouplerAuthority::FullShifting {
                budgets.push(AnalysisOptions::default().max_states);
            }
            for max_states in budgets {
                assert_tally_matches(authority, max_states);
            }
            let config = ClusterConfig::paper(authority);

            // The mid-chunk budget cuts the space where the walk's last
            // kept state and its first dropped one share a layer and a
            // parent chunk.
            let codec = ClusterCodec::new(&config);
            let whole = fair_graph(&ClusterModel::new(config), &codec, 1 << 16, 1);
            let cut = MID_CHUNK_BUDGET as u32;
            assert!(whole.state_count() > cut as usize, "{authority}");
            let (kept, dropped) = (parent(&whole, cut - 1), parent(&whole, cut));
            assert_eq!(
                whole.bfs_depth(cut - 1),
                whole.bfs_depth(cut),
                "{authority}: the budget ends a layer"
            );
            assert_eq!(
                chunk_of(&whole, kept),
                chunk_of(&whole, dropped),
                "{authority}: the budget ends a chunk"
            );
        }

        // Two threads expand every kept state once as well.
        let config = ClusterConfig::paper(CouplerAuthority::FullShifting);
        let codec = ClusterCodec::new(&config);
        for max_states in [1 << 14, MID_CHUNK_BUDGET] {
            let tally = FaultTally(ClusterModel::new(config), Default::default());
            let graph = fair_graph(&tally, &codec, max_states, 2);
            assert!(graph.is_truncated());
            let expected = re_expanded(&config, max_states);
            assert_eq!(
                (graph.state_count(), tally.1.map(AtomicU64::into_inner)),
                expected,
                "2 threads, budget {max_states}"
            );
        }
    }
}
