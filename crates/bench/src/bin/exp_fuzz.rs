//! Experiment E11 — restart-policy synthesis over a fuzzed fault
//! corpus: the inverse of E10.
//!
//! E10 fixed a policy grid and measured availability; E11 fixes
//! availability floors and asks the synthesizer (`tta_fuzz::synthesize`)
//! for the *cheapest* restart policy that clears each floor, per
//! guardian authority level, against a corpus of fault plans the
//! coverage-guided fuzzer discovered from seed 7.
//!
//! Expected shape:
//!
//! * Weak authority (passive, time windows) lets fuzzer-found SOS
//!   senders freeze healthy peers, so low floors already force real
//!   restart budgets and high floors demand aggressive ones (watchdog /
//!   immediate) — restarts substitute for guardian authority.
//! * Reshaping authorities (small/full shifting) contain the same
//!   corpus in flight, so `never` clears every reachable floor and the
//!   ladder stops at its first rung — authority substitutes for
//!   restarts.
//! * No policy can beat the startup transient, so floors above the
//!   startup ceiling report the best scorer with the floor unmet.
//!
//! Flags: `--threads N` pins fuzzing workers (output is bit-identical
//! either way), `--json [PATH]` emits the machine-readable table,
//! `--check GOLDEN` diffs it against a fixture, `--smoke` runs the
//! reduced deterministic sweep, `--daemon [SOCKET]` evaluates the fuzz
//! candidates over the `tta-campaignd` service (same output bytes).

use tta_analysis::tables::Table;
use tta_bench::{heading, CampaignArgs, CampaignCell, CampaignJson, DaemonSession};
use tta_fuzz::{fuzz_with, synthesize, DaemonEvaluator, Evaluator, FuzzConfig, LocalEvaluator};
use tta_guardian::CouplerAuthority;

const USAGE: &str =
    "exp_fuzz [--threads N] [--json [PATH]] [--check GOLDEN] [--smoke] [--daemon [SOCKET]]";

struct Sweep {
    experiment: &'static str,
    cfg: FuzzConfig,
    floors: Vec<f64>,
}

fn full_sweep() -> Sweep {
    Sweep {
        experiment: "E11",
        cfg: FuzzConfig::default(),
        floors: vec![0.30, 0.60, 0.90, 0.95],
    }
}

/// The reduced sweep for CI: fewer rounds, smaller batches, two floors
/// that bracket the story. Deterministic — same seed, any thread count.
fn smoke_sweep() -> Sweep {
    Sweep {
        experiment: "E11-smoke",
        cfg: FuzzConfig {
            rounds: 4,
            batch: 32,
            ..FuzzConfig::default()
        },
        floors: vec![0.60, 0.90],
    }
}

fn main() {
    let args = CampaignArgs::parse(USAGE, true);
    let mut sweep = if args.smoke {
        smoke_sweep()
    } else {
        full_sweep()
    };
    if let Some(threads) = args.threads {
        sweep.cfg.threads = threads;
    }

    heading(&format!(
        "{} — restart-policy synthesis over a fuzzed fault corpus",
        sweep.experiment
    ));
    println!(
        "corpus: coverage-guided fuzz, seed {}, {} rounds x {} candidates, \
         {}-node star, {} slots.",
        sweep.cfg.seed, sweep.cfg.rounds, sweep.cfg.batch, sweep.cfg.ctx.nodes, sweep.cfg.ctx.slots
    );
    println!(
        "cell format: cheapest restart policy whose WORST-case availability over the\n\
         whole corpus clears the row's floor (ladder: never, bounded retries by budget\n\
         then backoff, watchdogs by silence window, immediate); `!` marks floors no\n\
         policy clears (best scorer shown).\n"
    );

    let session = DaemonSession::from_args(&args);
    let evaluator: Box<dyn Evaluator> = match &session {
        Some(session) => Box::new(DaemonEvaluator::new(session.client.clone())),
        None => Box::new(LocalEvaluator),
    };
    let outcome = fuzz_with(&sweep.cfg, evaluator.as_ref());
    println!(
        "fuzzed corpus: {} entries in {} rounds ({} simulator executions)\n",
        outcome.corpus.len(),
        outcome.rounds_run,
        outcome.executions
    );

    let mut header = vec!["availability floor".to_string()];
    header.extend(CouplerAuthority::all().iter().map(ToString::to_string));
    let mut table = Table::new(header);
    let mut cells = Vec::new();
    for &floor in &sweep.floors {
        let mut row = vec![format!(">= {floor:.2}")];
        for authority in CouplerAuthority::all() {
            let result = synthesize(&outcome.corpus, &sweep.cfg.ctx, authority, floor);
            row.push(format!(
                "{}{} ({:.3})",
                if result.met { "" } else { "! " },
                result.policy,
                result.worst_availability
            ));
            cells.push(CampaignCell {
                scenario: format!("floor {floor:.2}"),
                topology: "star".to_string(),
                authority: authority.to_string(),
                policy: Some(result.policy.to_string()),
                outcomes: vec![
                    ("met", u64::from(result.met)),
                    ("candidates_tried", result.candidates_tried as u64),
                ],
                metrics: vec![("worst_availability", Some(result.worst_availability))],
            });
        }
        table.row(row);
    }
    println!("{table}");

    println!("reading the table:");
    println!(" * under weak authority the fuzzed SOS senders freeze healthy peers, so");
    println!("   higher floors climb the ladder: restart budgets substitute for guardian");
    println!("   authority.");
    println!(" * reshaping authorities contain the same corpus in flight — `never` clears");
    println!("   every reachable floor, authority substitutes for restarts.");
    println!(" * no policy beats the startup transient; floors above that ceiling go");
    println!("   unmet (`!`) and report the best scorer.");

    let json = CampaignJson {
        experiment: sweep.experiment.to_string(),
        trials: sweep.cfg.batch as u32,
        cells,
    };
    let rendered = json.render();
    if args.json {
        match &args.json_path {
            Some(path) => {
                std::fs::write(path, &rendered).unwrap_or_else(|e| {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    std::process::exit(1);
                });
                println!("\nwrote {}", path.display());
            }
            None => print!("\n{rendered}"),
        }
    }
    if let Some(golden) = &args.check {
        if !tta_bench::check_against_golden(golden, &rendered) {
            std::process::exit(1);
        }
    }
}
