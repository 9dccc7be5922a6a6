//! `tta_fuzz` — coverage-guided fault-plan fuzzing (see `tta-fuzz`).
//!
//! Usage:
//!
//! ```text
//! tta_fuzz [OPTIONS]
//!
//!   --seed N            master seed (default 7); the whole run is a
//!                       pure function of it
//!   --budget DUR        wall-clock budget, e.g. 60s or 2m (checked at
//!                       round boundaries; cuts the run short but never
//!                       changes a round's content)
//!   --rounds N          maximum rounds (default 16)
//!   --batch N           candidates per round (default 32)
//!   --threads N         worker threads (0 = available parallelism)
//!   --delta F           availability-cliff threshold (default 0.3)
//!   --max-finds N       stop after N emitted finds (default 8)
//!   --out DIR           write emitted scenario TOMLs into DIR
//!   --journal PATH      also write the run journal to PATH
//!   --expect-find N     exit 1 unless at least N finds were emitted
//!   --synth             after fuzzing, synthesize the cheapest restart
//!                       policy per authority level over the corpus
//!   --threshold F       availability floor for --synth (default 0.5)
//! ```
//!
//! The journal is printed to stdout and carries no timestamps:
//! identical flags produce byte-identical journals and scenario files
//! at any `--threads` value.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tta_fuzz::{fuzz, synthesize, FuzzConfig};
use tta_guardian::CouplerAuthority;

const USAGE: &str = "tta_fuzz [--seed N] [--budget DUR] [--rounds N] [--batch N] \
                     [--threads N] [--delta F] [--max-finds N] [--out DIR] \
                     [--journal PATH] [--expect-find N] [--synth] [--threshold F]";

fn die(why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}

/// Parses `60s` / `2m` / bare seconds into a duration.
fn parse_budget(text: &str) -> Option<Duration> {
    let (digits, scale) = match text.strip_suffix('s') {
        Some(d) => (d, 1),
        None => match text.strip_suffix('m') {
            Some(d) => (d, 60),
            None => (text, 1),
        },
    };
    digits
        .parse::<u64>()
        .ok()
        .map(|n| Duration::from_secs(n * scale))
}

fn main() {
    let mut cfg = FuzzConfig::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut journal_path: Option<PathBuf> = None;
    let mut expect_find = 0usize;
    let mut synth = false;
    let mut threshold = 0.5f64;

    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut num = |what: &str| -> String {
            iter.next()
                .unwrap_or_else(|| die(&format!("{what} needs an argument")))
        };
        match arg.as_str() {
            "--seed" => cfg.seed = num("--seed").parse().unwrap_or_else(|_| die("bad seed")),
            "--budget" => {
                let text = num("--budget");
                let budget =
                    parse_budget(&text).unwrap_or_else(|| die(&format!("bad budget `{text}`")));
                // detlint: allow(DL02) reason=--budget deadline; bounds how long the fuzzer explores, results found are still seed-deterministic
                cfg.deadline = Some(Instant::now() + budget);
            }
            "--rounds" => {
                cfg.rounds = num("--rounds")
                    .parse()
                    .unwrap_or_else(|_| die("bad rounds"));
            }
            "--batch" => {
                cfg.batch = num("--batch").parse().unwrap_or_else(|_| die("bad batch"));
                if cfg.batch == 0 {
                    die("--batch must be positive");
                }
            }
            "--threads" => {
                cfg.threads = num("--threads")
                    .parse()
                    .unwrap_or_else(|_| die("bad threads"));
            }
            "--delta" => {
                cfg.delta = num("--delta").parse().unwrap_or_else(|_| die("bad delta"));
                if !(0.0..=1.0).contains(&cfg.delta) {
                    die("--delta must be in 0..=1");
                }
            }
            "--max-finds" => {
                cfg.max_finds = num("--max-finds")
                    .parse()
                    .unwrap_or_else(|_| die("bad max-finds"));
            }
            "--out" => out_dir = Some(PathBuf::from(num("--out"))),
            "--journal" => journal_path = Some(PathBuf::from(num("--journal"))),
            "--expect-find" => {
                expect_find = num("--expect-find")
                    .parse()
                    .unwrap_or_else(|_| die("bad expect-find"));
            }
            "--synth" => synth = true,
            "--threshold" => {
                threshold = num("--threshold")
                    .parse()
                    .unwrap_or_else(|_| die("bad threshold"));
            }
            other => die(&format!("unknown argument {other}")),
        }
    }

    let outcome = fuzz(&cfg);
    print!("{}", outcome.journal);

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create {}: {e}", dir.display()));
        }
        for find in &outcome.finds {
            let path = dir.join(&find.emitted.file_name);
            if let Err(e) = std::fs::write(&path, &find.emitted.toml) {
                die(&format!("cannot write {}: {e}", path.display()));
            }
            println!("wrote {}", path.display());
        }
    }
    if let Some(path) = &journal_path {
        if let Err(e) = std::fs::write(path, &outcome.journal) {
            die(&format!("cannot write {}: {e}", path.display()));
        }
    }

    if synth {
        println!();
        println!(
            "synthesis: cheapest restart policy keeping worst-case availability >= {threshold:.2} \
             over the {}-entry corpus",
            outcome.corpus.len()
        );
        for authority in CouplerAuthority::all() {
            let result = synthesize(&outcome.corpus, &cfg.ctx, authority, threshold);
            println!(
                "  {:>14}: {} (worst availability {:.4}, {} candidate{} tried{})",
                authority.token(),
                result.policy,
                result.worst_availability,
                result.candidates_tried,
                if result.candidates_tried == 1 {
                    ""
                } else {
                    "s"
                },
                if result.met {
                    ""
                } else {
                    "; threshold NOT met"
                },
            );
        }
    }

    if outcome.finds.len() < expect_find {
        eprintln!(
            "error: expected at least {expect_find} find(s), got {}",
            outcome.finds.len()
        );
        std::process::exit(1);
    }
}
