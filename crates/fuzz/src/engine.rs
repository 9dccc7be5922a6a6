//! The fuzzing loop: deterministic rounds of mutate → execute →
//! admit → detect → shrink → emit.
//!
//! # Determinism
//!
//! The engine reuses the campaign layer's recipe: every candidate in
//! round `r` at batch index `i` gets its own RNG seeded by
//! `mix(seed ^ mix(r << 32 | i))`, candidates are *executed* on the
//! ordered pool ([`tta_base::map_chunks`]), and results are *merged*
//! single-threadedly in index order. The journal, the corpus,
//! and every emitted scenario are therefore byte-identical for every
//! `--threads` value — the differential tests pin exactly that. The
//! journal carries no timestamps; a wall-clock budget only decides how
//! many rounds run (checked at round boundaries), never what a round
//! contains.
//!
//! # The coverage signal
//!
//! Admission is signature novelty ([`crate::eval::EvalSet`]); finds are
//! either **availability cliffs** (a mutant loses at least `delta`
//! availability against its parent under one authority level) or
//! **outcome flips** (adjacent authority levels classify the same plan
//! into different [`RecoveryOutcome`] classes — the paper's
//! decentralized-vs-centralized tradeoff made concrete). At startup a
//! modellint coverage probe ([`tta_modellint::config_coverage`])
//! records each authority's reachable-space evidence in the journal
//! and gates the out-of-slot mutation on replay steps actually being
//! admissible somewhere.

use std::fmt::Write as _;
use std::time::Instant;

use tta_base::hash::mix;
use tta_base::{default_threads, map_chunks};
use tta_core::ClusterConfig;
use tta_guardian::CouplerAuthority;
use tta_modellint::{config_coverage, AnalysisOptions};
use tta_sim::RecoveryOutcome;

use crate::corpus::Corpus;
use crate::emit::{emit_scenario, EmitRequest, Emitted};
use crate::eval::{evaluate_under, EvalContext, EvalSet, Evaluator, LocalEvaluator};
use crate::input::FuzzInput;
use crate::mutate::Mutator;
use crate::rng::FuzzRng;
use crate::shrink::shrink;

/// Everything a fuzzing run is parameterized by.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed; the entire run is a pure function of it (plus the
    /// other fields).
    pub seed: u64,
    /// Maximum rounds to run.
    pub rounds: usize,
    /// Candidates per round.
    pub batch: usize,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Availability-cliff threshold: a mutant dropping at least this
    /// much against its parent under some authority is a find.
    pub delta: f64,
    /// Stop after this many emitted finds.
    pub max_finds: usize,
    /// Corpus capacity.
    pub corpus_cap: usize,
    /// Cluster shape candidates run against.
    pub ctx: EvalContext,
    /// Optional wall-clock deadline, checked at round boundaries only
    /// (so it can cut the run short but never change a round's
    /// content).
    pub deadline: Option<Instant>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 7,
            rounds: 16,
            batch: 32,
            threads: 0,
            delta: 0.3,
            max_finds: 8,
            corpus_cap: 256,
            ctx: EvalContext::default(),
            deadline: None,
        }
    }
}

/// Why a find is interesting.
#[derive(Debug, Clone, Copy)]
pub enum FindKind {
    /// The mutant lost `parent_availability - availability >= delta`
    /// under `authority` relative to its corpus parent.
    Cliff {
        /// Authority level where the drop happened.
        authority: CouplerAuthority,
        /// Parent's availability there.
        parent_availability: f64,
        /// Mutant's availability there (after shrinking).
        availability: f64,
    },
    /// Adjacent authority levels disagree about the recovery class.
    Flip {
        /// The weaker (more decentralized) level.
        lo: CouplerAuthority,
        /// Its recovery class.
        lo_outcome: RecoveryOutcome,
        /// The stronger (more centralized) level.
        hi: CouplerAuthority,
        /// Its recovery class.
        hi_outcome: RecoveryOutcome,
    },
}

/// One shrunk, emitted find.
#[derive(Debug, Clone)]
pub struct Find {
    /// Why it is interesting.
    pub kind: FindKind,
    /// The 1-minimal input.
    pub input: FuzzInput,
    /// Event count before shrinking.
    pub original_events: usize,
    /// The emitted regression scenario.
    pub emitted: Emitted,
}

/// The complete result of a fuzzing run.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// The deterministic run journal.
    pub journal: String,
    /// Emitted finds, in discovery order.
    pub finds: Vec<Find>,
    /// Rounds actually executed.
    pub rounds_run: usize,
    /// Final corpus size.
    pub corpus_size: usize,
    /// The final corpus inputs (feed for `--synth`).
    pub corpus: Vec<FuzzInput>,
    /// Total simulator executions (4 per evaluated candidate).
    pub executions: usize,
}

/// Runs the fuzzer to completion, evaluating candidates in-process.
#[must_use]
pub fn fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    fuzz_with(cfg, &LocalEvaluator)
}

/// Runs the fuzzer to completion with an explicit [`Evaluator`] —
/// [`LocalEvaluator`] for in-process execution, or
/// [`crate::eval::DaemonEvaluator`] to route every candidate run
/// through the campaign service. Both produce bit-identical journals
/// and finds: the evaluator only changes *where* the pure evaluation
/// function executes. The shrinker deliberately stays in-process
/// either way — it is a sequential search over many tiny candidates,
/// where per-run daemon round-trips would dominate, and locality
/// cannot change its result.
#[must_use]
pub fn fuzz_with(cfg: &FuzzConfig, evaluator: &dyn Evaluator) -> FuzzOutcome {
    let mut journal = String::new();
    let _ = writeln!(journal, "tta_fuzz journal");
    let _ = writeln!(
        journal,
        "seed {} rounds {} batch {} delta {:.2} nodes {} slots {} topology {} policy {}",
        cfg.seed,
        cfg.rounds,
        cfg.batch,
        cfg.delta,
        cfg.ctx.nodes,
        cfg.ctx.slots,
        match cfg.ctx.topology {
            tta_sim::Topology::Star => "star",
            tta_sim::Topology::Bus => "bus",
        },
        cfg.ctx.policy,
    );

    // Coverage probe: per-authority reachable-space evidence. The
    // truncation budget is deliberately small — the probe informs the
    // journal and the out-of-slot gate, it is not a verification run.
    let probe = AnalysisOptions {
        max_states: 1 << 14,
    };
    let mut replay_admissible = false;
    for authority in CouplerAuthority::all() {
        let evidence = config_coverage(
            &format!("fuzz:{}", authority.token()),
            &ClusterConfig::paper(authority),
            &probe,
        );
        let out_of_slot_steps = evidence.fault_steps[3];
        replay_admissible |= out_of_slot_steps > 0;
        let _ = writeln!(
            journal,
            "coverage {}: states={} truncated={} out_of_slot_steps={}",
            authority.token(),
            evidence.states,
            evidence.truncated,
            out_of_slot_steps
        );
    }

    let mutator = Mutator {
        nodes: cfg.ctx.nodes,
        slots: cfg.ctx.slots,
        allow_out_of_slot: replay_admissible,
    };

    let mut executions = 0usize;
    let mut corpus = Corpus::new(cfg.corpus_cap);
    let seeds = mutator.seed_corpus();
    let seed_evals = evaluate_batch(&seeds, &cfg.ctx, cfg.threads, evaluator);
    executions += seeds.len() * 4;
    for (input, evals) in seeds.into_iter().zip(seed_evals) {
        corpus.admit(input, evals);
    }
    let _ = writeln!(journal, "seed corpus: {} entries", corpus.len());

    let mut finds: Vec<Find> = Vec::new();
    let mut emitted_names: Vec<String> = Vec::new();
    let mut rounds_run = 0usize;

    for round in 0..cfg.rounds {
        if finds.len() >= cfg.max_finds {
            let _ = writeln!(journal, "stopping: find budget reached");
            break;
        }
        // detlint: allow(DL02) reason=wall-clock fuzz budget; bounds exploration time, findings remain seed-deterministic
        if cfg.deadline.is_some_and(|d| Instant::now() >= d) {
            let _ = writeln!(journal, "stopping: wall-clock budget exhausted");
            break;
        }
        rounds_run = round + 1;

        // Mutate against a snapshot so admission order within the
        // round cannot feed back into candidate construction.
        let snapshot = corpus.inputs();
        let mut candidates: Vec<(usize, FuzzInput)> = Vec::with_capacity(cfg.batch);
        for i in 0..cfg.batch {
            let candidate_seed = mix(cfg.seed ^ mix(((round as u64) << 32) | i as u64));
            let parent_index = (candidate_seed % snapshot.len() as u64) as usize;
            let mut rng = FuzzRng::new(candidate_seed);
            let child = mutator.mutate(&snapshot[parent_index], &snapshot, &mut rng);
            candidates.push((parent_index, child));
        }

        let inputs: Vec<FuzzInput> = candidates.iter().map(|(_, c)| c.clone()).collect();
        let evals = evaluate_batch(&inputs, &cfg.ctx, cfg.threads, evaluator);
        executions += inputs.len() * 4;

        let admitted_before = corpus.len();
        for ((parent_index, child), child_evals) in candidates.into_iter().zip(evals) {
            if corpus.contains_signature(child_evals.signature()) {
                continue;
            }
            let parent_evals = corpus.entries()[parent_index].evals;
            corpus.admit(child.clone(), child_evals);
            if finds.len() >= cfg.max_finds {
                continue;
            }
            if let Some(find) = detect(
                &child,
                &child_evals,
                &parent_evals,
                cfg,
                &mut emitted_names,
                &mut executions,
            ) {
                let _ = writeln!(
                    journal,
                    "find {}: {}",
                    finds.len() + 1,
                    describe(&find.kind)
                );
                for line in find.input.render().lines() {
                    let _ = writeln!(journal, "  {line}");
                }
                let _ = writeln!(
                    journal,
                    "  shrunk {} -> {} events; scenario {}",
                    find.original_events,
                    find.input.events.len(),
                    find.emitted.name
                );
                finds.push(find);
            }
        }
        let _ = writeln!(
            journal,
            "round {round}: corpus {} (+{}) finds {}",
            corpus.len(),
            corpus.len() - admitted_before,
            finds.len()
        );
    }

    let _ = writeln!(
        journal,
        "done: rounds {} corpus {} executions {} finds {}",
        rounds_run,
        corpus.len(),
        executions,
        finds.len()
    );

    FuzzOutcome {
        journal,
        finds,
        rounds_run,
        corpus_size: corpus.len(),
        corpus: corpus.inputs(),
        executions,
    }
}

/// Checks one admitted candidate for a cliff or flip; shrinks and
/// emits on success. Returns `None` when nothing interesting happened
/// or the find failed its emission self-check (suppressed).
fn detect(
    child: &FuzzInput,
    child_evals: &EvalSet,
    parent_evals: &EvalSet,
    cfg: &FuzzConfig,
    emitted_names: &mut Vec<String>,
    executions: &mut usize,
) -> Option<Find> {
    // Cliff: the steepest per-authority availability drop vs parent.
    let mut cliff: Option<(CouplerAuthority, f64, f64)> = None;
    for (parent, child_eval) in parent_evals.evals.iter().zip(&child_evals.evals) {
        let drop = parent.availability - child_eval.availability;
        if drop >= cfg.delta && cliff.is_none_or(|(_, p, a)| drop > p - a) {
            cliff = Some((
                parent.authority,
                parent.availability,
                child_eval.availability,
            ));
        }
    }
    if let Some((authority, parent_availability, _)) = cliff {
        let threshold = parent_availability - cfg.delta;
        let shrunk = shrink(child, |input| {
            *executions += 1;
            evaluate_under(input, &cfg.ctx, authority).availability <= threshold
        });
        let availability = evaluate_under(&shrunk, &cfg.ctx, authority).availability;
        let kind = FindKind::Cliff {
            authority,
            parent_availability,
            availability,
        };
        return finish(child, shrunk, kind, authority, cfg, emitted_names);
    }

    // Flip: adjacent authority levels disagreeing on the class.
    for pair in child_evals.evals.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        if lo.outcome != hi.outcome {
            let (lo_a, lo_o, hi_a, hi_o) = (lo.authority, lo.outcome, hi.authority, hi.outcome);
            let shrunk = shrink(child, |input| {
                *executions += 2;
                evaluate_under(input, &cfg.ctx, lo_a).outcome == lo_o
                    && evaluate_under(input, &cfg.ctx, hi_a).outcome == hi_o
            });
            let kind = FindKind::Flip {
                lo: lo_a,
                lo_outcome: lo_o,
                hi: hi_a,
                hi_outcome: hi_o,
            };
            return finish(child, shrunk, kind, hi_a, cfg, emitted_names);
        }
    }
    None
}

/// Deduplicates (post-shrink) and emits; `None` when already seen or
/// the emission self-check rejects the scenario.
fn finish(
    child: &FuzzInput,
    shrunk: FuzzInput,
    kind: FindKind,
    authority: CouplerAuthority,
    cfg: &FuzzConfig,
    emitted_names: &mut Vec<String>,
) -> Option<Find> {
    let request = EmitRequest {
        input: &shrunk,
        authority,
        kind_word: match kind {
            FindKind::Cliff { .. } => "cliff",
            FindKind::Flip { .. } => "flip",
        },
        description: format!("{} (tta_fuzz seed {})", describe(&kind), cfg.seed),
        ctx: &cfg.ctx,
    };
    let emitted = emit_scenario(&request).ok()?;
    if emitted_names.contains(&emitted.name) {
        return None;
    }
    emitted_names.push(emitted.name.clone());
    Some(Find {
        kind,
        input: shrunk,
        original_events: child.events.len(),
        emitted,
    })
}

/// One deterministic sentence per find kind (journal + description).
#[must_use]
pub fn describe(kind: &FindKind) -> String {
    match kind {
        FindKind::Cliff {
            authority,
            parent_availability,
            availability,
        } => format!(
            "availability cliff under {}: {:.4} -> {:.4}",
            authority.token(),
            parent_availability,
            availability
        ),
        FindKind::Flip {
            lo,
            lo_outcome,
            hi,
            hi_outcome,
        } => format!(
            "outcome flip {} {} -> {} {}",
            lo.token(),
            lo_outcome,
            hi.token(),
            hi_outcome
        ),
    }
}

/// Evaluates a batch on the ordered pool, one candidate per stolen
/// chunk, returning results in input order (`threads == 0` = the host's
/// available parallelism).
fn evaluate_batch(
    inputs: &[FuzzInput],
    ctx: &EvalContext,
    threads: usize,
    evaluator: &dyn Evaluator,
) -> Vec<EvalSet> {
    let threads = match threads {
        0 => default_threads(),
        n => n,
    };
    map_chunks(inputs, 1, threads, &|_, chunk: &[FuzzInput]| {
        evaluator.evaluate(&chunk[0], ctx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_run_is_deterministic_and_finds_the_seeded_cliff() {
        let cfg = FuzzConfig {
            rounds: 2,
            batch: 8,
            max_finds: 2,
            ..FuzzConfig::default()
        };
        let a = fuzz(&cfg);
        let b = fuzz(&cfg);
        assert_eq!(a.journal, b.journal);
        assert_eq!(a.finds.len(), b.finds.len());
    }
}
